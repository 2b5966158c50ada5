#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "stat/clark.hpp"
#include "stat/gaussian.hpp"
#include "stat/poisson_mixture.hpp"
#include "stat/samples.hpp"
#include "stat/stein.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"

namespace terrors::stat {
namespace {

TEST(Gaussian, CdfAndQuantile) {
  const Gaussian g{10.0, 2.0};
  EXPECT_NEAR(g.cdf(10.0), 0.5, 1e-12);
  EXPECT_NEAR(g.cdf(12.0), support::normal_cdf(1.0), 1e-12);
  EXPECT_NEAR(g.quantile(g.cdf(7.0)), 7.0, 1e-6);
}

TEST(Gaussian, PointMass) {
  const Gaussian g{5.0, 0.0};
  EXPECT_EQ(g.cdf(4.999), 0.0);
  EXPECT_EQ(g.cdf(5.0), 1.0);
  EXPECT_EQ(g.quantile(0.3), 5.0);
}

TEST(Gaussian, SumWithCovariance) {
  const Gaussian a{1.0, 2.0};
  const Gaussian b{3.0, 1.0};
  const Gaussian s = sum(a, b, 1.0);
  EXPECT_NEAR(s.mean, 4.0, 1e-12);
  EXPECT_NEAR(s.variance(), 4.0 + 1.0 + 2.0, 1e-12);
}

// --- Clark min/max vs Monte Carlo ------------------------------------------

class ClarkVsMonteCarlo
    : public ::testing::TestWithParam<std::tuple<double, double, double, double, double>> {};

TEST_P(ClarkVsMonteCarlo, MinMomentsMatch) {
  const auto [m1, s1, m2, s2, rho] = GetParam();
  const Gaussian a{m1, s1};
  const Gaussian b{m2, s2};
  const ClarkResult r = clark_min(a, b, rho);

  support::Rng rng(99);
  double sum = 0.0;
  double sum2 = 0.0;
  int first_smaller = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    const double z1 = rng.normal();
    const double z2 = rho * z1 + std::sqrt(1.0 - rho * rho) * rng.normal();
    const double x = m1 + s1 * z1;
    const double y = m2 + s2 * z2;
    const double mn = std::min(x, y);
    sum += mn;
    sum2 += mn * mn;
    if (x < y) ++first_smaller;
  }
  const double mc_mean = sum / n;
  const double mc_var = sum2 / n - mc_mean * mc_mean;
  EXPECT_NEAR(r.value.mean, mc_mean, 0.02) << "Clark mean vs MC";
  EXPECT_NEAR(r.value.variance(), mc_var, 0.05 * std::max(1.0, mc_var));
  EXPECT_NEAR(r.tightness, static_cast<double>(first_smaller) / n, 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClarkVsMonteCarlo,
    ::testing::Values(std::make_tuple(0.0, 1.0, 0.0, 1.0, 0.0),
                      std::make_tuple(0.0, 1.0, 0.5, 2.0, 0.3),
                      std::make_tuple(-1.0, 0.5, 1.0, 0.5, -0.6),
                      std::make_tuple(2.0, 1.0, 2.0, 1.0, 0.9),
                      std::make_tuple(10.0, 1.0, 0.0, 1.0, 0.0),  // dominated
                      std::make_tuple(0.0, 3.0, 0.0, 0.1, 0.5)));

TEST(Clark, DegeneratePairReturnsSmallerMean) {
  const Gaussian a{3.0, 1.0};
  const Gaussian b{5.0, 1.0};
  const ClarkResult r = clark_min(a, b, 1.0);  // identical spread, rho = 1
  EXPECT_NEAR(r.value.mean, 3.0, 1e-9);
  EXPECT_NEAR(r.value.sd, 1.0, 1e-9);
}

TEST(Clark, MaxAndMinAreConsistent) {
  const Gaussian a{1.0, 1.0};
  const Gaussian b{2.0, 2.0};
  const ClarkResult mx = clark_max(a, b, 0.2);
  const ClarkResult mn = clark_min(a, b, 0.2);
  // E[max] + E[min] = E[a] + E[b] exactly.
  EXPECT_NEAR(mx.value.mean + mn.value.mean, 3.0, 1e-9);
}

class StatisticalMinOrdering : public ::testing::TestWithParam<MinOrdering> {};

TEST_P(StatisticalMinOrdering, MatchesMonteCarloOnCorrelatedSet) {
  // Four correlated Gaussians with a one-factor structure.
  const std::vector<Gaussian> vars = {{5.0, 1.0}, {5.5, 1.5}, {6.0, 0.8}, {4.8, 1.2}};
  const std::vector<double> load = {0.6, 0.9, 0.4, 0.7};  // factor loadings (as sd fractions)
  const std::size_t n = vars.size();
  std::vector<double> cov(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      cov[i * n + j] = i == j ? vars[i].variance()
                              : load[i] * vars[i].sd * load[j] * vars[j].sd;
    }
  }
  const Gaussian approx = statistical_min(vars, cov, GetParam());

  support::Rng rng(7);
  double sum = 0.0;
  double sum2 = 0.0;
  const int samples = 300000;
  for (int s = 0; s < samples; ++s) {
    const double f = rng.normal();
    double mn = 1e300;
    for (std::size_t i = 0; i < n; ++i) {
      const double indep = std::sqrt(std::max(0.0, 1.0 - load[i] * load[i]));
      const double x = vars[i].mean + vars[i].sd * (load[i] * f + indep * rng.normal());
      mn = std::min(mn, x);
    }
    sum += mn;
    sum2 += mn * mn;
  }
  const double mc_mean = sum / samples;
  const double mc_sd = std::sqrt(sum2 / samples - mc_mean * mc_mean);
  EXPECT_NEAR(approx.mean, mc_mean, 0.05);
  EXPECT_NEAR(approx.sd, mc_sd, 0.08);
}

INSTANTIATE_TEST_SUITE_P(AllOrderings, StatisticalMinOrdering,
                         ::testing::Values(MinOrdering::kSequential, MinOrdering::kByMean,
                                           MinOrdering::kGreedyTightness));

TEST(StatisticalMin, SingleElementIsExact) {
  const Gaussian g{2.0, 3.0};
  EXPECT_EQ(statistical_min({g}, {g.variance()}).mean, 2.0);
  EXPECT_EQ(statistical_min({g}, {g.variance()}).sd, 3.0);
}

TEST(StatisticalMin, EmptySetThrows) {
  EXPECT_THROW(statistical_min({}, {}), std::invalid_argument);
}

// --- Samples ----------------------------------------------------------------

TEST(Samples, ElementwiseArithmetic) {
  Samples a(std::vector<double>{1.0, 2.0, 3.0});
  Samples b(std::vector<double>{0.5, 0.5, 0.5});
  const Samples c = a * b + a;
  EXPECT_DOUBLE_EQ(c[0], 1.5);
  EXPECT_DOUBLE_EQ(c[1], 3.0);
  EXPECT_DOUBLE_EQ(c[2], 4.5);
}

TEST(Samples, MomentsAndWorstCase) {
  Samples s(std::vector<double>{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_NEAR(s.mean(), 5.0, 1e-12);
  EXPECT_NEAR(s.variance(), 4.0, 1e-12);
  EXPECT_NEAR(s.worst_case(6.0), 5.0 + 12.0, 1e-9);
}

TEST(Samples, SizeMismatchThrows) {
  Samples a(3);
  Samples b(4);
  EXPECT_THROW(a += b, std::invalid_argument);
}

TEST(Samples, CorrelationOfIdenticalVectorsIsOne) {
  Samples a(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  EXPECT_NEAR(correlation(a, a), 1.0, 1e-12);
}

// --- PoissonMixture ----------------------------------------------------------

TEST(PoissonMixture, DegenerateLambdaEqualsPoisson) {
  const PoissonMixture pm({50.0, 0.0});
  for (std::int64_t k : {30, 45, 50, 55, 80})
    EXPECT_NEAR(pm.cdf(k), support::poisson_cdf(k, 50.0), 1e-12);
}

TEST(PoissonMixture, WiderLambdaWidensDistribution) {
  const PoissonMixture narrow({1000.0, 1.0});
  const PoissonMixture wide({1000.0, 100.0});
  // Variance formula.
  EXPECT_NEAR(narrow.variance(), 1000.0 + 1.0, 1e-9);
  EXPECT_NEAR(wide.variance(), 1000.0 + 10000.0, 1e-9);
  // The wide mixture has more mass far below the mean.
  EXPECT_GT(wide.cdf(900), narrow.cdf(900));
}

TEST(PoissonMixture, CdfIsMonotone) {
  const PoissonMixture pm({200.0, 30.0});
  double prev = -1.0;
  for (std::int64_t k = 100; k <= 300; k += 10) {
    const double c = pm.cdf(k);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(PoissonMixture, QuantileInvertsCdf) {
  const PoissonMixture pm({400.0, 50.0});
  for (double p : {0.1, 0.5, 0.9}) {
    const std::int64_t k = pm.quantile(p);
    EXPECT_GE(pm.cdf(k), p);
    if (k > 0) {
      EXPECT_LT(pm.cdf(k - 1), p);
    }
  }
}

TEST(GaussLegendre, IntegratesPolynomialsExactly) {
  std::vector<double> x;
  std::vector<double> w;
  gauss_legendre(8, 0.0, 2.0, x, w);
  double integral = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    integral += w[i] * (3.0 * x[i] * x[i] - x[i] + 1.0);  // 3x^2 - x + 1
  // Exact: x^3 - x^2/2 + x over [0,2] = 8 - 2 + 2 = 8.
  EXPECT_NEAR(integral, 8.0, 1e-10);
}

// --- Stein / Chen-Stein -------------------------------------------------------

TEST(Stein, BoundShrinksWithMoreVariables) {
  // n iid-ish uniform summands: the bound should scale like 1/sqrt(n).
  auto bound_for = [](int n) {
    SteinNormalInputs in;
    const double var1 = 1.0 / 12.0;  // uniform(0,1)
    in.sigma = std::sqrt(n * var1);
    in.sum_abs_central3 = n * 0.03125;  // E|U-1/2|^3 = 1/32
    in.sum_central4 = n * (1.0 / 80.0);
    in.max_dep = 1;
    return stein_normal_bound(in);
  };
  EXPECT_LT(bound_for(10000), bound_for(100));
  EXPECT_LT(bound_for(1000000), 0.05);
}

TEST(Stein, LargerNeighbourhoodsLoosenBound) {
  SteinNormalInputs a;
  a.sigma = 10.0;
  a.sum_abs_central3 = 5.0;
  a.sum_central4 = 2.0;
  a.max_dep = 1;
  SteinNormalInputs b = a;
  b.max_dep = 4;
  EXPECT_LT(stein_normal_bound(a), stein_normal_bound(b));
}

TEST(ChenStein, MatchesFormula) {
  ChenSteinInputs in;
  in.b1 = 0.02;
  in.b2 = 0.01;
  in.lambda = 3.0;
  EXPECT_NEAR(chen_stein_bound(in), 0.01, 1e-12);
  in.lambda = 0.5;  // min{1, 1/lambda} = 1
  EXPECT_NEAR(chen_stein_bound(in), 0.03, 1e-12);
}

TEST(ChenStein, CappedAtOne) {
  ChenSteinInputs in;
  in.b1 = 10.0;
  in.b2 = 10.0;
  in.lambda = 2.0;
  EXPECT_EQ(chen_stein_bound(in), 1.0);
}

TEST(ChenStein, PoissonApproximationOfBinomialWithinBound) {
  // W ~ Binomial(n, p) (independent indicators): Chen-Stein gives
  // d_TV <= min(1, 1/lambda) * n p^2.  Check the actual Kolmogorov distance
  // against Poisson(np) respects the bound.
  const int n = 2000;
  const double p = 0.002;
  const double lambda = n * p;
  ChenSteinInputs in;
  in.b1 = n * p * p;
  in.b2 = 0.0;
  in.lambda = lambda;
  const double bound = chen_stein_bound(in);

  // Exact binomial CDF vs Poisson CDF.
  double d = 0.0;
  double binom_cdf = 0.0;
  double log_pmf = n * std::log1p(-p);  // k = 0
  for (int k = 0; k <= 30; ++k) {
    binom_cdf += std::exp(log_pmf);
    d = std::max(d, std::fabs(binom_cdf - support::poisson_cdf(k, lambda)));
    log_pmf += std::log(static_cast<double>(n - k) / (k + 1.0)) + std::log(p) - std::log1p(-p);
  }
  EXPECT_LE(d, bound);
  EXPECT_GT(d, 0.0);
}

}  // namespace
}  // namespace terrors::stat
