// Timing-speculative performance model (Section 6.1 of the paper).
//
// The paper's LEON3 build: 718 MHz non-speculative baseline from
// guardbanded SSTA, point of first failure at 810 MHz (1.13x), working
// point 825 MHz (1.15x), instruction replay at half frequency with a
// 24-cycle penalty per error on the 6-stage pipeline.  The published
// mapping "error rate -> performance improvement" (0.4% -> +4.93%,
// 1.068% -> -8.46%) is reproduced exactly by
//
//   improvement = f_ratio / (1 + penalty * error_rate) - 1.
#pragma once

#include "stat/gaussian.hpp"
#include "timing/sta.hpp"

namespace terrors::perf {

struct TsProcessorModel {
  double frequency_ratio = 1.15;  ///< working frequency / baseline

  /// Relative performance improvement over the non-speculative baseline
  /// at a given error rate (negative = degradation).
  [[nodiscard]] double performance_improvement(double error_rate) const;
  /// Error rate at which speculation stops paying off (improvement == 0).
  [[nodiscard]] double break_even_error_rate() const;
};

/// Operating points of a synthesised design, derived the way Section 6.1
/// derives them for LEON3.
struct OperatingPoints {
  double baseline_mhz = 0.0;  ///< guardbanded SSTA maximum frequency
  double poff_mhz = 0.0;      ///< point of first failure
  double working_mhz = 0.0;   ///< chosen speculative frequency
};

/// Derive operating points from a static worst arrival (STA, guardbanded)
/// and the largest *observed dynamic* activated arrival of a calibration
/// workload (which sets the point of first failure).
[[nodiscard]] OperatingPoints derive_operating_points(double static_worst_arrival_ps,
                                                      double static_worst_arrival_sd_ps,
                                                      double dynamic_worst_arrival_ps,
                                                      double setup_ps);

}  // namespace terrors::perf
