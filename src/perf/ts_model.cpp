#include "perf/ts_model.hpp"

#include "support/check.hpp"

namespace terrors::perf {

namespace {

constexpr double kPenaltyCycles = 24.0;    ///< per-error correction penalty
constexpr double kGuardband = 1.10;        ///< voltage-droop style margin on delay
constexpr double kSigmaQuantile = 3.0;     ///< worst-case chip quantile for the baseline
constexpr double kWorkingOverPoff = 1.02;  ///< working frequency relative to PoFF

}  // namespace

double TsProcessorModel::performance_improvement(double error_rate) const {
  TE_REQUIRE(error_rate >= 0.0 && error_rate <= 1.0, "error rate out of range");
  return frequency_ratio / (1.0 + kPenaltyCycles * error_rate) - 1.0;
}

double TsProcessorModel::break_even_error_rate() const {
  // f / (1 + c r) = 1  =>  r = (f - 1) / c.
  return (frequency_ratio - 1.0) / kPenaltyCycles;
}

OperatingPoints derive_operating_points(double static_worst_arrival_ps,
                                        double static_worst_arrival_sd_ps,
                                        double dynamic_worst_arrival_ps, double setup_ps) {
  TE_REQUIRE(static_worst_arrival_ps > 0.0, "static arrival must be positive");
  TE_REQUIRE(dynamic_worst_arrival_ps > 0.0, "dynamic arrival must be positive");
  TE_REQUIRE(dynamic_worst_arrival_ps <= static_worst_arrival_ps + 1e-6,
             "dynamic arrival cannot exceed static worst case");
  OperatingPoints op;
  const double guarded =
      (static_worst_arrival_ps + kSigmaQuantile * static_worst_arrival_sd_ps) * kGuardband;
  op.baseline_mhz = 1.0e6 / (guarded + setup_ps);
  op.poff_mhz = 1.0e6 / (dynamic_worst_arrival_ps + setup_ps);
  op.working_mhz = op.poff_mhz * kWorkingOverPoff;
  return op;
}

}  // namespace terrors::perf
