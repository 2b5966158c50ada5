// Graceful-degradation bookkeeping (DESIGN §5f).
//
// When a peripheral subsystem fails mid-analysis — a cache read throws,
// an SCC system is singular, a worker task needs a serial retry — the
// framework keeps serving a best-effort estimate but must *say so*.
// DegradationLog is the single place those events land:
//
//   * `robust.degraded` (total) and `robust.degraded.<site>` counters,
//   * one WARN log line per (site) per run (repeats are recorded
//     silently, so a prob=1 chaos run does not spam stderr),
//   * an entry list the framework copies into BenchmarkResult /
//     the run report's `degraded` section.
//
// begin_run(run_id) is called at the top of Framework::analyze; entries
// are per-run, counters are cumulative like every other metric, and the
// run id tags every warning until the next begin_run.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace terrors::robust {

class DegradationLog {
 public:
  static DegradationLog& instance();

  struct Entry {
    std::string site;    ///< short site tag: "cache", "solver", "pool", "io"
    std::string detail;  ///< first failure detail recorded for this site
    std::uint64_t events = 0;
  };

  /// Clear per-run entries and tag later warnings with `run_id`
  /// (counters and logs are untouched).
  void begin_run(std::string run_id);

  /// Record one degradation event; warns (once per site per run) and
  /// bumps `robust.degraded` + `robust.degraded.<site>`.
  void note(std::string_view site, std::string_view detail);

  [[nodiscard]] bool degraded() const;
  [[nodiscard]] std::vector<Entry> entries() const;
  /// Sorted unique site tags of the current run ("cache", "solver", ...).
  [[nodiscard]] std::vector<std::string> sites() const;

 private:
  DegradationLog() = default;

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  std::string run_id_;
};

/// Shorthand for DegradationLog::instance().note(...).
void note_degraded(std::string_view site, std::string_view detail);

}  // namespace terrors::robust
