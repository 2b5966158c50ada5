// Graceful-degradation bookkeeping (DESIGN §5f).
//
// When a peripheral subsystem fails mid-analysis — a cache read throws,
// an SCC system is singular, a worker task needs a serial retry — the
// framework keeps serving a best-effort estimate but must *say so*.
// DegradationLog is the single place those events land:
//
//   * `robust.degraded` (total) and `robust.degraded.<site>` counters,
//   * one entry per site per run holding the first failure detail
//     (repeats only bump its event count, so a prob=1 chaos run stays
//     one entry), which the framework copies into BenchmarkResult / the
//     run report's `degraded` section and `terrors analyze` prints as
//     one warning line per entry.
//
// begin_run() is called at the top of Framework::analyze, carrying the
// entries its constructor noted into the framework's first run; entries
// are per-run, counters are cumulative like every other metric.
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

  /// Start a run whose entries are `carried` (fallbacks noted before it
  /// began, e.g. while its framework was constructed); counters are
  /// untouched.
  void begin_run(std::vector<Entry> carried = {});

  /// Record one degradation event: the first per site per run adds an
  /// entry, later ones count on it; bumps `robust.degraded` +
  /// `robust.degraded.<site>`.
  void note(std::string_view site, std::string_view detail);

  [[nodiscard]] bool degraded() const;
  [[nodiscard]] std::vector<Entry> entries() const;
  /// Sorted unique site tags of the current run ("cache", "solver", ...).
  [[nodiscard]] std::vector<std::string> sites() const;

 private:
  DegradationLog() = default;

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
};

/// Shorthand for DegradationLog::instance().note(...).
void note_degraded(std::string_view site, std::string_view detail);

}  // namespace terrors::robust
