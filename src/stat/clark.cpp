#include "stat/clark.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "support/check.hpp"
#include "support/math.hpp"

namespace terrors::stat {
namespace {

using support::normal_cdf;
using support::normal_pdf;

// Interaction spread a = sqrt(Var(a) + Var(b) - 2 Cov(a,b)).
double interaction_spread(const Gaussian& a, const Gaussian& b, double rho) {
  const double v = a.variance() + b.variance() - 2.0 * rho * a.sd * b.sd;
  return v <= 0.0 ? 0.0 : std::sqrt(v);
}

}  // namespace

ClarkResult clark_max(const Gaussian& x, const Gaussian& y, double rho) {
  TE_REQUIRE(rho >= -1.0 - 1e-9 && rho <= 1.0 + 1e-9, "correlation out of range");
  rho = support::clamp(rho, -1.0, 1.0);
  const double a = interaction_spread(x, y, rho);
  if (a == 0.0) {
    // Same distribution up to a shift: the max is whichever has the larger
    // mean (identical variances since a == 0 forces sd_x == sd_y, rho == 1).
    const Gaussian& m = x.mean >= y.mean ? x : y;
    return {m, x.mean >= y.mean ? 1.0 : 0.0};
  }
  const double alpha = (x.mean - y.mean) / a;
  const double t = normal_cdf(alpha);  // Pr(x > y)
  const double pdf = normal_pdf(alpha);
  const double mean = x.mean * t + y.mean * (1.0 - t) + a * pdf;
  const double second = (x.mean * x.mean + x.variance()) * t +
                        (y.mean * y.mean + y.variance()) * (1.0 - t) +
                        (x.mean + y.mean) * a * pdf;
  const double var = std::max(0.0, second - mean * mean);
  return {{mean, std::sqrt(var)}, t};
}

ClarkResult clark_min(const Gaussian& x, const Gaussian& y, double rho) {
  static obs::Counter& calls = obs::MetricsRegistry::instance().counter("stat.clark_min_calls");
  calls.increment();
  // min(x, y) = -max(-x, -y); corr(-x, -y) == corr(x, y).
  const ClarkResult neg = clark_max({-x.mean, x.sd}, {-y.mean, y.sd}, rho);
  // neg.tightness = Pr(-x > -y) = Pr(x < y).
  return {{-neg.value.mean, neg.value.sd}, neg.tightness};
}

double clark_min_cov(double cov_ay, double cov_by, double tightness_a) {
  TE_REQUIRE(tightness_a >= 0.0 && tightness_a <= 1.0, "tightness must be a probability");
  return cov_ay * tightness_a + cov_by * (1.0 - tightness_a);
}

// Maintains the active set and the covariance matrix in the scratch,
// combining two elements per step until one remains.
Gaussian statistical_min(MinScratch& scratch, MinOrdering ordering) {
  std::vector<Gaussian>& vars = scratch.vars;
  std::vector<double>& cov = scratch.cov;
  const std::size_t n0 = vars.size();
  TE_REQUIRE(n0 > 0, "statistical_min of an empty set");
  TE_REQUIRE(cov.size() == n0 * n0, "covariance matrix size mismatch");
  if (n0 == 1) return vars[0];

  std::vector<std::size_t>& active = scratch.active;
  active.resize(n0);
  for (std::size_t i = 0; i < n0; ++i) active[i] = i;

  if (ordering == MinOrdering::kByMean) {
    std::sort(active.begin(), active.end(),
              [&](std::size_t a, std::size_t b) { return vars[a].mean < vars[b].mean; });
  }

  auto cov_at = [&](std::size_t i, std::size_t j) -> double& { return cov[i * n0 + j]; };
  auto corr = [&](std::size_t i, std::size_t j) {
    const double denom = vars[i].sd * vars[j].sd;
    if (denom == 0.0) return 0.0;
    return support::clamp(cov_at(i, j) / denom, -1.0, 1.0);
  };

  // Nonlinearity score of combining (i, j): a * phi(alpha).  Smaller means
  // the pairwise min is closer to one of the operands, i.e. more Gaussian.
  auto score = [&](std::size_t i, std::size_t j) {
    const double a =
        std::sqrt(std::max(0.0, vars[i].variance() + vars[j].variance() - 2.0 * cov_at(i, j)));
    if (a == 0.0) return 0.0;
    const double alpha = (vars[i].mean - vars[j].mean) / a;
    return a * normal_pdf(alpha);
  };

  // The O(n^2)-per-step greedy pair search is worthwhile only for small
  // sets; beyond this size fall back to mean-sorted sequential combining
  // (same covariance handling, linear number of Clark steps).
  constexpr std::size_t kGreedyLimit = 24;
  if (ordering == MinOrdering::kGreedyTightness && active.size() > kGreedyLimit) {
    std::sort(active.begin(), active.end(),
              [&](std::size_t a, std::size_t b) { return vars[a].mean < vars[b].mean; });
    ordering = MinOrdering::kByMean;
  }

  while (active.size() > 1) {
    std::size_t pi = 0;
    std::size_t pj = 1;
    if (ordering == MinOrdering::kGreedyTightness) {
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t u = 0; u < active.size(); ++u) {
        for (std::size_t v = u + 1; v < active.size(); ++v) {
          const double s = score(active[u], active[v]);
          if (s < best) {
            best = s;
            pi = u;
            pj = v;
          }
        }
      }
    }
    const std::size_t i = active[pi];
    const std::size_t j = active[pj];
    const ClarkResult r = clark_min(vars[i], vars[j], corr(i, j));

    // Fold the result into slot i; update covariances of the running min
    // against all remaining elements via Clark's linearisation.
    for (std::size_t u = 0; u < active.size(); ++u) {
      const std::size_t k = active[u];
      if (k == i || k == j) continue;
      const double c = clark_min_cov(cov_at(i, k), cov_at(j, k), r.tightness);
      cov_at(i, k) = c;
      cov_at(k, i) = c;
    }
    vars[i] = r.value;
    cov_at(i, i) = r.value.variance();
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(pj));
  }
  return vars[active[0]];
}

Gaussian statistical_min(const std::vector<Gaussian>& vars, const std::vector<double>& cov,
                         MinOrdering ordering) {
  MinScratch scratch{vars, cov, {}};
  return statistical_min(scratch, ordering);
}

}  // namespace terrors::stat
