// Validation of the limit-theorem machinery (Section 5) by Monte Carlo on
// small programs — the check the paper could not afford on its slow
// baseline simulator.  The two approximation steps are validated
// separately:
//
//  A. Poisson step (Chen-Stein, Eq. 9): with the data world pinned,
//     N_E | lambda(world) is simulated by walking the recorded block
//     traces and drawing each instruction's error Bernoulli with the
//     paper's Markov correction dependence.  Each row's verdict says
//     whether the observed Kolmogorov distance to Poisson(lambda(world))
//     exceeds the literal Eq. 7-8 bound by more than the MC noise, and
//     the row's var/mean (over all trials, and pooled within each
//     recorded trace) shows which way the counts depart from Poisson.
//
//  B. Normal step (Stein, Thm 5.2): the empirical distribution of
//     lambda over data worlds is compared against its Gaussian fit and
//     the chain-dependence Stein bound.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench/common.hpp"
#include "core/monte_carlo.hpp"
#include "support/math.hpp"

using namespace terrors;

namespace {

constexpr std::size_t kTrials = 4000;
/// By the DKW inequality, the empirical CDF of 4,000 draws strays from
/// its own law by more than 0.03 with probability below 0.2%.
constexpr double kMcNoise = 0.03;

struct Range {
  double lo = INFINITY;
  double hi = -INFINITY;
  void add(double v) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  if (!robust::parse_flags(argc, argv, 1, {}, flags)) return 1;  // takes no flags
  std::printf("Limit-theorem validation vs Monte Carlo (working point %.1f MHz)\n",
              bench::working_spec().frequency_mhz());

  auto cfg = bench::default_config();
  cfg.executor.record_block_trace = true;
  cfg.executor.max_instructions = 12000;  // small programs: MC is affordable
  core::ErrorRateFramework framework(bench::pipeline(), cfg);
  auto cfg_ext = cfg;
  cfg_ext.chen_stein_radius = 6;  // full Chen-Stein terms, Markov-propagated
  core::ErrorRateFramework framework_ext(bench::pipeline(), cfg_ext);

  std::printf("\nA. Poisson approximation per data world (Chen-Stein, Eq. 9)\n");
  std::printf("('Eq.7-8' is the paper's literal bound with radius-1 adjacent pairs;\n"
              " 'extended' uses the full Chen-Stein terms with Markov-propagated\n"
              " E[XaXb] over a radius-6 neighbourhood)\n");
  std::printf("('per trace' pools the variance within each recorded block trace;\n"
              " 'verdict' reads 'exceeds' when the observed d_K lies above Eq.7-8 by\n"
              " more than the MC noise of %zu trials, %.2f)\n",
              kTrials, kMcNoise);
  std::printf("%-14s %6s %10s %10s %11s %9s %12s %10s %10s %8s\n", "Benchmark", "world",
              "lambda(w)", "MC mean", "MC var/mean", "per trace", "observed d_K", "Eq.7-8",
              "extended", "verdict");
  bench::hr(112);

  struct LambdaCheck {
    std::string name;
    double observed;
    double stein;
  };
  std::vector<LambdaCheck> lambda_checks;
  std::size_t rows = 0;
  std::size_t exceeds = 0;
  std::size_t extended_covers = 0;
  Range dispersion;
  Range trace_dispersion;
  Range extended;

  for (std::size_t idx : {3u, 0u, 11u, 7u}) {
    const auto& spec = workloads::mibench_specs()[idx];
    const isa::Program program = workloads::generate_program(spec);
    const auto r = framework.analyze(program, workloads::generate_inputs(spec, 2, 2026));
    const auto r_ext =
        framework_ext.analyze(program, workloads::generate_inputs(spec, 2, 2026));
    const auto& est = r.estimate;
    const auto& profile = framework.last().executor->profile();
    const auto& cond = framework.last().conditionals;

    // Per-world lambda values.
    const std::size_t worlds = cond.front().instr.empty()
                                   ? framework.config().error_model.mixed_samples
                                   : cond.front().instr.front().p_correct.size();
    // Reconstruct lambda per world directly from the marginals.
    std::vector<double> lam(worlds, 0.0);
    for (isa::BlockId b = 0; b < program.block_count(); ++b) {
      const auto& bm = framework.last().marginals[b];
      if (!bm.executed) continue;
      const double e_i = static_cast<double>(profile.blocks[b].executions) /
                         static_cast<double>(profile.runs);
      for (const auto& instr : bm.instr)
        for (std::size_t w = 0; w < worlds; ++w) lam[w] += e_i * instr[w];
    }

    for (std::size_t world : {std::size_t{0}, std::size_t{worlds / 2}}) {
      support::Rng rng(4242 + world);
      const auto counts =
          core::monte_carlo_error_counts(profile, cond, kTrials, rng,
                                         static_cast<std::ptrdiff_t>(world));
      // Trial t walks recorded trace t % traces, so the counts mix the
      // traces' laws; the pooled within-trace variance isolates one law.
      const std::size_t traces = profile.block_traces.size();
      const auto n = static_cast<double>(counts.size());
      std::vector<double> trace_sum(traces, 0.0);
      std::vector<double> trace_n(traces, 0.0);
      double mc_mean = 0.0;
      std::uint64_t mc_max = 0;
      for (std::size_t t = 0; t < counts.size(); ++t) {
        mc_mean += static_cast<double>(counts[t]);
        trace_sum[t % traces] += static_cast<double>(counts[t]);
        trace_n[t % traces] += 1.0;
        mc_max = std::max(mc_max, counts[t]);
      }
      mc_mean /= n;
      double var = 0.0;
      double within = 0.0;
      for (std::size_t t = 0; t < counts.size(); ++t) {
        const auto c = static_cast<double>(counts[t]);
        var += (c - mc_mean) * (c - mc_mean);
        const double trace_mean = trace_sum[t % traces] / trace_n[t % traces];
        within += (c - trace_mean) * (c - trace_mean);
      }
      const double var_mean = var / (n - 1.0) / mc_mean;
      const double trace_var_mean = within / (n - static_cast<double>(traces)) / mc_mean;
      double dk = 0.0;
      for (std::uint64_t k = 0; k <= mc_max + 3; ++k) {
        dk = std::max(dk, std::fabs(core::empirical_cdf(counts, k) -
                                    support::poisson_cdf(static_cast<std::int64_t>(k),
                                                         lam[world])));
      }
      const bool exceeded = dk > est.dk_count + kMcNoise;
      ++rows;
      exceeds += exceeded ? 1 : 0;
      dispersion.add(var_mean);
      trace_dispersion.add(trace_var_mean);
      extended.add(r_ext.estimate.dk_count);
      extended_covers += dk <= r_ext.estimate.dk_count ? 1 : 0;
      std::printf("%-14s %6zu %10.2f %10.2f %11.2f %9.2f %12.4f %10.4f %10.4f %8s\n",
                  spec.name.c_str(), world, lam[world], mc_mean, var_mean, trace_var_mean, dk,
                  est.dk_count, r_ext.estimate.dk_count, exceeded ? "exceeds" : "within");
    }

    // Normal step: empirical lambda distribution vs Gaussian fit.
    stat::Gaussian fit{est.lambda.mean, est.lambda.sd};
    std::vector<double> sorted = lam;
    std::sort(sorted.begin(), sorted.end());
    double dk_norm = 0.0;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      const double emp = static_cast<double>(i + 1) / static_cast<double>(sorted.size());
      dk_norm = std::max(dk_norm, std::fabs(emp - fit.cdf(sorted[i])));
    }
    lambda_checks.push_back({spec.name, dk_norm, est.dk_lambda});
  }

  std::printf("\nB. Normal approximation of lambda (Stein, Thm 5.2)\n");
  std::printf("%-14s %14s %14s\n", "Benchmark", "observed d_K", "Stein (chain)");
  bench::hr(46);
  Range observed;
  Range stein;
  std::size_t stein_covers = 0;
  for (const auto& c : lambda_checks) {
    std::printf("%-14s %14.4f %14.4f\n", c.name.c_str(), c.observed, c.stein);
    observed.add(c.observed);
    stein.add(c.stein);
    stein_covers += c.observed <= c.stein ? 1 : 0;
  }
  std::printf(
      "\nFindings:\n"
      "(1) The Poisson mean is exact: the MC means match lambda(w).\n"
      "(2) Within one recorded trace the counts are under-dispersed, var/mean\n"
      "    %.2f-%.2f where Poisson has 1: large per-instance p make N_E\n"
      "    narrower than Poisson (error bursts would widen it).  The literal\n"
      "    Eq. 7-8 bound keeps only adjacent-pair products and omits the p^2\n"
      "    self-terms that measure this, so the observed d_K exceeds it in\n"
      "    %zu of %zu rows.\n"
      "(3) Over all trials var/mean reads %.2f-%.2f: the trials alternate\n"
      "    between the recorded traces, so traces with different mean counts\n"
      "    widen the law around the one Poisson at their average lambda(w).\n"
      "(4) The extended-neighbourhood bound adds the self-terms and covers\n"
      "    %zu of %zu rows, but it reads %.4f-%.4f: valid, yet uninformative.\n"
      "(5) The chain Stein bound (%.4f-%.4f) covers the observed normal-step\n"
      "    distance (%.4f-%.4f) in %zu of %zu rows; this close to 1 it cannot\n"
      "    show the inter-instruction-correlation gap of Section 5.\n",
      trace_dispersion.lo, trace_dispersion.hi, exceeds, rows, dispersion.lo, dispersion.hi,
      extended_covers, rows, extended.lo, extended.hi, stein.lo, stein.hi, observed.lo,
      observed.hi, stein_covers, lambda_checks.size());
  return 0;
}
