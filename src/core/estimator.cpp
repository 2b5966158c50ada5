#include "core/estimator.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"
#include "support/math.hpp"

namespace terrors::core {

double ErrorRateEstimate::rate_mean() const {
  if (total_instructions == 0) return 0.0;
  return lambda.mean / static_cast<double>(total_instructions);
}

double ErrorRateEstimate::rate_sd() const {
  if (total_instructions == 0) return 0.0;
  // Var(N_E) of the mixture = E[lambda] + Var(lambda).
  return std::sqrt(lambda.mean + lambda.variance()) / static_cast<double>(total_instructions);
}

double ErrorRateEstimate::count_cdf(std::int64_t k) const {
  return stat::PoissonMixture(lambda).cdf(k);
}

double ErrorRateEstimate::rate_cdf(double rate) const {
  const auto k = static_cast<std::int64_t>(
      std::floor(rate * static_cast<double>(total_instructions)));
  return count_cdf(k);
}

double ErrorRateEstimate::rate_cdf_lower(double rate) const {
  // Section 6.4: shift both instances of lambda by the Stein bound, then
  // subtract the Chen-Stein bound from the CDF value.
  const stat::Gaussian shifted{lambda.mean + dk_lambda, lambda.sd};
  const auto k = static_cast<std::int64_t>(
      std::floor(rate * static_cast<double>(total_instructions)));
  const double c = stat::PoissonMixture(shifted).cdf(k) - dk_count;
  return support::clamp(c, 0.0, 1.0);
}

double ErrorRateEstimate::rate_cdf_upper(double rate) const {
  const stat::Gaussian shifted{std::max(0.0, lambda.mean - dk_lambda), lambda.sd};
  const auto k = static_cast<std::int64_t>(
      std::floor(rate * static_cast<double>(total_instructions)));
  const double c = stat::PoissonMixture(shifted).cdf(k) + dk_count;
  return support::clamp(c, 0.0, 1.0);
}

ErrorRateEstimate estimate_error_rate(const EstimatorInputs& in) {
  TE_REQUIRE(in.program != nullptr && in.profile != nullptr && in.conditionals != nullptr &&
                 in.marginals != nullptr,
             "estimator inputs incomplete");
  const auto& program = *in.program;
  const auto& profile = *in.profile;
  const auto& cond = *in.conditionals;
  const auto& marg = *in.marginals;
  TE_REQUIRE(profile.runs > 0, "profile has no runs");

  std::size_t m = 0;
  for (const auto& bm : marg) {
    if (!bm.instr.empty()) {
      m = bm.instr[0].size();
      break;
    }
  }
  TE_REQUIRE(m > 0, "marginals are empty");

  TE_REQUIRE(in.execution_scale > 0.0, "execution scale must be positive");
  const double runs = static_cast<double>(profile.runs) / in.execution_scale;

  // lambda, b1, b2 as aligned sample vectors (Eqs. 10, 7, 8).
  stat::Samples lambda_s(m, 0.0);
  stat::Samples b1_s(m, 0.0);
  stat::Samples b2_s(m, 0.0);
  // Stein moment sums over all (replicated) variables e_i * X_{i_k}.
  double sum_abs3 = 0.0;
  double sum_4 = 0.0;

  for (isa::BlockId b = 0; b < program.block_count(); ++b) {
    if (!marg[b].executed) continue;
    const double e_i = static_cast<double>(profile.blocks[b].executions) / runs;
    if (e_i == 0.0) continue;
    const auto& bm = marg[b];
    const auto& bc = cond[b];
    const std::size_t radius = in.chen_stein_radius;
    for (std::size_t s = 0; s < m; ++s) {
      double block_sum = 0.0;
      double block_b1 = 0.0;
      double block_b2 = 0.0;
      double prev = bm.p_in[s];
      for (std::size_t k = 0; k < bm.instr.size(); ++k) {
        const double p = bm.instr[k][s];
        block_sum += p;
        if (radius == 0) {
          // Paper Eqs. (7) and (8) verbatim: adjacent-pair products.
          block_b1 += prev * p;
          block_b2 += prev * bc.instr[k].p_error[s];
        } else {
          // Full Chen-Stein terms over |alpha - beta| <= radius: the
          // self term p^2, symmetric pair products, and E[X_a X_b]
          // propagated through the Markov error chain
          // (q_j = q_{j-1} p^e_j + (1 - q_{j-1}) p^c_j).
          block_b1 += p * p;
          double q = 1.0;
          for (std::size_t r = 1; r <= radius && k + r < bm.instr.size(); ++r) {
            const std::size_t j = k + r;
            const double pj = bm.instr[j][s];
            block_b1 += 2.0 * p * pj;
            q = q * bc.instr[j].p_error[s] + (1.0 - q) * bc.instr[j].p_correct[s];
            block_b2 += 2.0 * p * q;
          }
        }
        prev = p;
      }
      lambda_s[s] += e_i * block_sum;
      b1_s[s] += e_i * block_b1;
      b2_s[s] += e_i * block_b2;
    }
    // Stein's moments (Thm 5.2): the CLT is over the dynamic instruction
    // *instances* — each execution of instruction k is one variable with
    // the distribution of p_{i_k} and a D=2 dependency neighbourhood —
    // so the moment sums carry weight e_i per static instruction.
    for (std::size_t k = 0; k < bm.instr.size(); ++k) {
      sum_abs3 += e_i * bm.instr[k].abs_central_moment3();
      sum_4 += e_i * bm.instr[k].central_moment4();
    }
  }

  // Var(lambda) under the paper's chain-dependence assumption over
  // dynamic instances: Var = sum over instances of [Var(p) + 2 Cov with
  // the previous instance] (plus the block-entry boundary term).  This is
  // the variance the CLT / Stein bound certifies.
  double var_chain = 0.0;
  for (isa::BlockId b = 0; b < program.block_count(); ++b) {
    if (!marg[b].executed) continue;
    const double e_i = static_cast<double>(profile.blocks[b].executions) / runs;
    if (e_i == 0.0) continue;
    const auto& bm = marg[b];
    for (std::size_t k = 0; k < bm.instr.size(); ++k) {
      var_chain += e_i * bm.instr[k].variance();
      const stat::Samples& prev = k == 0 ? bm.p_in : bm.instr[k - 1];
      var_chain += 2.0 * e_i * stat::covariance(prev, bm.instr[k]);
    }
  }

  ErrorRateEstimate est;
  // The reported lambda distribution carries the full data variation of
  // the common program input (the empirical sample spread); var_chain is
  // its chain-dependence lower envelope used inside the Stein bound.
  est.lambda = {std::max(0.0, lambda_s.mean()), lambda_s.stddev()};
  est.lambda_empirical_sd = lambda_s.stddev();
  est.total_instructions = static_cast<std::uint64_t>(
      static_cast<double>(profile.total_instructions) * in.execution_scale /
      static_cast<double>(profile.runs));

  est.sigma_chain = std::sqrt(std::max(0.0, var_chain));
  est.stein_sum_abs3 = sum_abs3;
  est.stein_sum4 = sum_4;

  stat::SteinNormalInputs stein;
  stein.sigma = est.sigma_chain;
  stein.sum_abs_central3 = sum_abs3;
  stein.sum_central4 = sum_4;
  stein.max_dep = 2;
  est.dk_lambda = stat::stein_normal_bound(stein);

  est.b1_worst = b1_s.worst_case(6.0);
  est.b2_worst = b2_s.worst_case(6.0);
  stat::ChenSteinInputs cs;
  cs.b1 = est.b1_worst;
  cs.b2 = est.b2_worst;
  cs.lambda = est.lambda.mean;
  est.dk_count = stat::chen_stein_bound(cs);
  return est;
}

}  // namespace terrors::core
