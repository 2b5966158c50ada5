#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "support/check.hpp"
#include "support/hash.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"

namespace terrors::support {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, SplitIsIndependentOfDrawOrder) {
  Rng a(7);
  Rng b(7);
  (void)b.next_u64();  // advance one stream
  Rng sa = a.split(3);
  Rng sb = b.split(3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(sa.next_u64(), sb.next_u64());
}

TEST(Rng, SplitTagsProduceDistinctStreams) {
  Rng root(5);
  Rng s1 = root.split(1);
  Rng s2 = root.split(2);
  EXPECT_NE(s1.next_u64(), s2.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng r(13);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 7000; ++i) ++counts[r.uniform_index(7)];
  for (int c : counts) EXPECT_GT(c, 700);
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(17);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng r(19);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 20000; ++i) ++counts[r.weighted_index(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[1] / 20000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[3] / 20000.0, 0.6, 0.02);
}

TEST(Rng, InvalidArgumentsThrow) {
  Rng r(1);
  EXPECT_THROW(r.uniform_index(0), std::invalid_argument);
  EXPECT_THROW(r.normal(0.0, -1.0), std::invalid_argument);
  EXPECT_THROW(r.weighted_index({}), std::invalid_argument);
  EXPECT_THROW(r.weighted_index({0.0, 0.0}), std::invalid_argument);
}

TEST(Math, NormalCdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-10);
  EXPECT_NEAR(normal_cdf(-1.96), 0.024997895148220435, 1e-10);
}

class NormalQuantileRoundtrip : public ::testing::TestWithParam<double> {};

TEST_P(NormalQuantileRoundtrip, CdfOfQuantileIsIdentity) {
  const double p = GetParam();
  EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, NormalQuantileRoundtrip,
                         ::testing::Values(1e-6, 1e-4, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99,
                                           0.9999, 1.0 - 1e-6));

TEST(Math, LogGammaMatchesFactorials) {
  double fact = 1.0;
  for (int n = 1; n <= 15; ++n) {
    EXPECT_NEAR(std::exp(log_gamma(n + 1.0)), fact * n, fact * n * 1e-10);
    fact *= n;
  }
}

TEST(Math, GammaPQComplementary) {
  for (double a : {0.5, 1.0, 3.0, 10.0, 100.0}) {
    for (double x : {0.1, 1.0, 5.0, 50.0, 200.0}) {
      EXPECT_NEAR(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-10);
    }
  }
}

TEST(Math, PoissonCdfMatchesDirectSum) {
  const double lambda = 4.2;
  double direct = 0.0;
  double term = std::exp(-lambda);
  for (std::int64_t k = 0; k <= 12; ++k) {
    direct += term;
    EXPECT_NEAR(poisson_cdf(k, lambda), direct, 1e-10) << "k=" << k;
    term *= lambda / static_cast<double>(k + 1);
  }
}

TEST(Math, PoissonCdfEdgeCases) {
  EXPECT_EQ(poisson_cdf(-1, 3.0), 0.0);
  EXPECT_EQ(poisson_cdf(5, 0.0), 1.0);
  EXPECT_NEAR(poisson_cdf(1000000, 10.0), 1.0, 1e-12);
}

TEST(Math, PoissonPmfSumsToCdf) {
  const double lambda = 7.7;
  double acc = 0.0;
  for (std::int64_t k = 0; k <= 30; ++k) {
    acc += poisson_pmf(k, lambda);
    EXPECT_NEAR(acc, poisson_cdf(k, lambda), 1e-9);
  }
}

TEST(Hash, KnownAnswers) {
  EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xe220a8397b1dcdafull);
  EXPECT_EQ(state, 0x9e3779b97f4a7c15ull);
}

TEST(HashStream, DeterministicAndSensitive) {
  HashStream a;
  a.u32(7);
  a.f64(1.5);
  a.str("abc");
  HashStream b;
  b.u32(7);
  b.f64(1.5);
  b.str("abc");
  EXPECT_EQ(a.digest(), b.digest());

  HashStream c;
  c.u32(7);
  c.f64(1.5);
  c.str("abd");
  EXPECT_NE(a.digest(), c.digest());
}

TEST(HashStream, DoublesHashBitExact) {
  HashStream pos;
  pos.f64(0.0);
  HashStream neg;
  neg.f64(-0.0);
  EXPECT_NE(pos.digest(), neg.digest());  // bit-exact, not value-equal
}

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_THROW(TE_REQUIRE(false, "nope"), std::invalid_argument);
  EXPECT_NO_THROW(TE_REQUIRE(true, ""));
}

TEST(Check, CheckThrowsLogicError) { EXPECT_THROW(TE_CHECK(false, "bug"), std::logic_error); }

}  // namespace
}  // namespace terrors::support
