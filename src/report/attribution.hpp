// build_report: turns one analyze() call into a RunReport.
//
// The report is a pure function of what the run retained: per-block /
// per-edge error attribution and each block's lambda contribution from
// the marginals and the executor profile, per-SCC solve diagnostics from
// ErrorRateFramework::last().sccs, per-stage and per-opcode control-DTS
// slack summaries from the shared path enumerator, the top culprit timing
// paths, and (optionally) a Monte-Carlo cross-check of the analytic count
// distribution.
//
// Determinism contract (DESIGN §5e): building a report is bit-invisible
// to the analysis — it only reads, and the only metrics it touches live
// under the report.* namespace.
#pragma once

#include <cstdint>

#include "core/framework.hpp"
#include "report/run_report.hpp"

namespace terrors::report {

/// Culprit paths listed in the report (and per-endpoint stats depth).
inline constexpr std::size_t kCulpritPaths = 10;

struct ReportOptions {
  /// Monte-Carlo trials for the divergence diagnostic; 0 disables.  Needs
  /// a profile recorded with ExecutorConfig::record_block_trace.
  std::size_t mc_trials = 0;
  /// Worker-thread count of the run, recorded verbatim in the report.
  std::size_t threads = 1;
};

/// Assemble the report for the analyze() call that returned `result`.
/// `fw` must still hold that call's artifacts (ErrorRateFramework::last).
[[nodiscard]] RunReport build_report(core::ErrorRateFramework& fw, const isa::Program& program,
                                     const core::BenchmarkResult& result,
                                     const ReportOptions& options = {});

}  // namespace terrors::report
