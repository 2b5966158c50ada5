// Program error count / error rate estimation (Section 5).
//
// The error count N_E is a weighted sum of dependent Bernoulli indicators
// (Eq. 6).  It is approximated by a Poisson distribution whose parameter
// lambda (Eq. 10) is itself approximated by a normal distribution (CLT);
// the estimated CDF integrates the Poisson CDF over the Gaussian lambda
// (Eq. 14).  Approximation quality is certified, not Monte-Carlo-tested:
// the Chen–Stein method bounds d_K(N_E, Poisson) via Eqs. (7)–(9), and
// Stein's method (Thm 5.2) bounds d_K(lambda, normal).  Lower/upper bound
// CDFs combine both errors as described in Section 6.4.
#pragma once

#include <cstdint>
#include <vector>

#include "core/marginal.hpp"
#include "stat/gaussian.hpp"
#include "stat/poisson_mixture.hpp"
#include "stat/stein.hpp"

namespace terrors::core {

struct ErrorRateEstimate {
  /// Gaussian approximation of lambda = E[N_E] over data variation, with
  /// the variance computed under the paper's chain-dependence assumption
  /// (p_{i_k} depends only on p_{i_{k-1}}).
  stat::Gaussian lambda;
  /// Empirical SD of the lambda samples with FULL inter-instruction
  /// correlation (common program input).  The gap to lambda.sd quantifies
  /// the effect of the correlations the paper's model truncates.
  double lambda_empirical_sd = 0.0;
  std::uint64_t total_instructions = 0;  ///< per profiled run (averaged)
  double dk_lambda = 0.0;  ///< Stein bound on d_K(lambda, normal)
  double dk_count = 0.0;   ///< Chen-Stein bound on d_K(N_E, Poisson) == d_K(R_E)
  double b1_worst = 0.0;   ///< worst-case Chen-Stein b1 (mean + 6 sd)
  double b2_worst = 0.0;
  /// Diagnostics of the Stein computation (chain-dependence variance and
  /// the absolute third / fourth central moment sums).
  double sigma_chain = 0.0;
  double stein_sum_abs3 = 0.0;
  double stein_sum4 = 0.0;

  /// Mean / SD of the program error rate distribution.
  [[nodiscard]] double rate_mean() const;
  [[nodiscard]] double rate_sd() const;

  /// Estimated CDF of the error count (Eq. 14).
  [[nodiscard]] double count_cdf(std::int64_t k) const;
  /// CDF of the error rate R_E = N_E / total_instructions.
  [[nodiscard]] double rate_cdf(double rate) const;
  /// Lower / upper bound CDFs (Section 6.4): lambda shifted by the Stein
  /// bound, then the Chen-Stein bound applied to the CDF value.
  [[nodiscard]] double rate_cdf_lower(double rate) const;
  [[nodiscard]] double rate_cdf_upper(double rate) const;
};

struct EstimatorInputs {
  const isa::Program* program = nullptr;
  const isa::ProgramProfile* profile = nullptr;
  const std::vector<BlockErrorDistributions>* conditionals = nullptr;
  const std::vector<BlockMarginals>* marginals = nullptr;
  /// Execution-count extrapolation: block execution counts (and the total
  /// instruction count) are multiplied by this factor before the limit
  /// theorems are applied.  Benches that simulate a 1e-4 slice of the
  /// paper's dynamic instruction counts pass 1e4 here so lambda and the
  /// Stein / Chen-Stein bounds are evaluated at full program scale (the
  /// error *rate* itself is scale-invariant).
  double execution_scale = 1.0;
  /// Chen-Stein neighbourhood radius.  0 reproduces the paper's Eqs. (7)
  /// and (8) literally (adjacent-pair products only).  Radius r >= 1 uses
  /// the full Chen-Stein terms over |alpha - beta| <= r, including the
  /// p_alpha^2 self-terms and the Markov propagation of E[X_a X_b] —
  /// needed because the correction-induced error chain correlates
  /// instructions beyond distance one when p^e >> p^c (see
  /// bench_limit_theorems).
  std::size_t chen_stein_radius = 0;
};

/// Computes lambda, the Stein and Chen–Stein bounds, and packages the
/// estimate.  Block execution counts e_i come from the profile, averaged
/// over runs.
[[nodiscard]] ErrorRateEstimate estimate_error_rate(const EstimatorInputs& in);

}  // namespace terrors::core
