// Clark's moment-matching approximation for the max / min of correlated
// Gaussians, and the greedy pairwise statistical minimum used by the SSTA
// variant of Algorithm 1.
//
// The greedy ordering follows the idea of Sinha, Zhou & Shenoy ("Advances
// in computation of the maximum of a set of Gaussian random variables",
// TCAD'07, the paper's [21]): Clark's two-variable step is exact in the
// first two moments, so overall error comes from treating intermediate
// results as Gaussian.  At each step we combine the pair whose pairwise
// minimum is closest to Gaussian, measured by the magnitude of the
// nonlinear interaction term a * phi(alpha) (zero when one variable
// dominates or the two are perfectly correlated with equal spread).
#pragma once

#include <vector>

#include "stat/gaussian.hpp"

namespace terrors::stat {

/// Result of a pairwise Clark operation.
struct ClarkResult {
  Gaussian value;
  /// Pr(first argument is the smaller / larger one) — the tightness
  /// probability Phi(alpha) of the combination.
  double tightness = 0.0;
};

/// Moment-matched Gaussian approximation of min(a, b) where corr(a,b) = rho.
ClarkResult clark_min(const Gaussian& a, const Gaussian& b, double rho);

/// Moment-matched Gaussian approximation of max(a, b) where corr(a,b) = rho.
ClarkResult clark_max(const Gaussian& a, const Gaussian& b, double rho);

/// Covariance of min(a,b) with a third variable y, given Cov(a,y), Cov(b,y)
/// and the tightness probability of the min (Pr(a < b)).
double clark_min_cov(double cov_ay, double cov_by, double tightness_a);

/// How the elements of a statistical min are combined.
enum class MinOrdering {
  kSequential,       ///< combine in the order given
  kByMean,           ///< sort by ascending mean first
  kGreedyTightness,  ///< Sinha-style: smallest nonlinear-term pair first
};

/// The operands of a statistical_min and its working set, kept by a caller
/// that takes many minima so that no call allocates.
struct MinScratch {
  std::vector<Gaussian> vars;
  std::vector<double> cov;  ///< row-major vars.size()^2
  std::vector<std::size_t> active;
};

/// Gaussian approximation of min(X_1..X_n) for jointly normal X with the
/// given means/sds and covariance matrix (row-major n*n).  Empty input is
/// not allowed.  Single element returns itself exactly.
Gaussian statistical_min(const std::vector<Gaussian>& vars, const std::vector<double>& cov,
                         MinOrdering ordering = MinOrdering::kGreedyTightness);
/// The same minimum of scratch.vars under scratch.cov, computed in place:
/// it overwrites both.
Gaussian statistical_min(MinScratch& scratch, MinOrdering ordering = MinOrdering::kGreedyTightness);

}  // namespace terrors::stat
