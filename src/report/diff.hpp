// Report comparison for regression gating (`terrors diff <old> <new>`).
//
// Two RunReports of the same benchmark are compared field by field:
// headline accuracy numbers within a relative tolerance, structural
// fields exactly, and per-block error-mass shares within an absolute
// drift tolerance.  Any violation is a regression; the CLI exits
// non-zero, which is the whole gate.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "report/run_report.hpp"

namespace terrors::report {

struct DiffOptions {
  /// Max |new - old| / max(|old|, eps) for the headline accuracy fields.
  double max_rel_delta = 0.01;
  /// Max absolute drift of a block's error-mass share.
  double max_share_drift = 0.05;
};

struct DiffEntry {
  std::string field;
  double old_value = 0.0;
  double new_value = 0.0;
  double delta = 0.0;      ///< the compared magnitude (relative or absolute)
  double limit = 0.0;
  bool regression = false;
};

struct DiffResult {
  std::vector<DiffEntry> entries;  ///< every compared field, violations first

  [[nodiscard]] bool ok() const {
    for (const DiffEntry& e : entries) {
      if (e.regression) return false;
    }
    return true;
  }
  [[nodiscard]] std::size_t regressions() const {
    std::size_t n = 0;
    for (const DiffEntry& e : entries) n += e.regression ? 1 : 0;
    return n;
  }
};

/// Compare two reports under the given tolerances.  Throws
/// std::runtime_error when the reports are structurally incomparable
/// (different schema versions or different programs).
[[nodiscard]] DiffResult diff_reports(const RunReport& before, const RunReport& after,
                                      const DiffOptions& options = {});

/// One line per compared field; regressions are marked.
void write_diff(const DiffResult& result, std::ostream& os);

}  // namespace terrors::report
