#include <gtest/gtest.h>

#include "perf/ts_model.hpp"

namespace terrors::perf {
namespace {

TEST(TsModel, ReproducesPublishedMappingPoints) {
  // The paper reports: 0.4% error rate -> +4.93% performance; 0.131% ->
  // +11.9% (approx.); 1.068% -> -8.46% for f_ratio 1.15 and a 24-cycle
  // replay penalty.
  const TsProcessorModel m;
  EXPECT_NEAR(m.performance_improvement(0.004), 0.0493, 0.0003);
  EXPECT_NEAR(m.performance_improvement(0.01068), -0.0846, 0.0005);
  EXPECT_NEAR(m.performance_improvement(0.00131), 0.115, 0.005);
}

TEST(TsModel, ZeroErrorRateGivesFullRatio) {
  const TsProcessorModel m;
  EXPECT_NEAR(m.performance_improvement(0.0), 0.15, 1e-12);
}

TEST(TsModel, BreakEvenConsistent) {
  const TsProcessorModel m;
  const double r = m.break_even_error_rate();
  EXPECT_NEAR(m.performance_improvement(r), 0.0, 1e-12);
  EXPECT_NEAR(r, 0.15 / 24.0, 1e-12);
}

TEST(TsModel, ImprovementMonotoneDecreasingInErrorRate) {
  const TsProcessorModel m;
  double prev = m.performance_improvement(0.0);
  for (double r = 0.001; r <= 0.05; r += 0.001) {
    const double v = m.performance_improvement(r);
    EXPECT_LT(v, prev);
    prev = v;
  }
}

TEST(TsModel, RejectsInvalidErrorRate) {
  const TsProcessorModel m;
  EXPECT_THROW((void)m.performance_improvement(-0.1), std::invalid_argument);
  EXPECT_THROW((void)m.performance_improvement(1.5), std::invalid_argument);
}

TEST(OperatingPoints, OrderingAndGuardband) {
  // Static worst arrival 1338 ps (sd 27 ps), dynamic worst 1309 ps,
  // setup 30 ps: baseline < PoFF < working.
  const auto op = derive_operating_points(1338.0, 27.0, 1309.0, 30.0);
  EXPECT_LT(op.baseline_mhz, op.poff_mhz);
  EXPECT_LT(op.poff_mhz, op.working_mhz);
  // Guardband: baseline period exceeds the plain static arrival.
  EXPECT_GT(1.0e6 / op.baseline_mhz, 1338.0 + 30.0);
}

TEST(OperatingPoints, RejectsImpossibleDynamicArrival) {
  EXPECT_THROW((void)derive_operating_points(1000.0, 10.0, 1200.0, 30.0), std::invalid_argument);
}

TEST(OperatingPoints, RatiosInPaperBallpark) {
  // With our calibrated design numbers the PoFF/baseline ratio lands near
  // the paper's 1.13x and working/baseline near 1.15x.
  const auto op = derive_operating_points(1338.4, 26.8, 1309.1, 30.0);
  EXPECT_GT(op.poff_mhz / op.baseline_mhz, 1.05);
  EXPECT_LT(op.working_mhz / op.baseline_mhz, 1.35);
}

}  // namespace
}  // namespace terrors::perf
