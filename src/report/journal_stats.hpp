// Run-journal reading and aggregation (DESIGN §5g).
//
// The obs layer only writes journal events (obs/journal.hpp); this is
// the read side — it lives in report because the JSON parser and the
// DistSummary machinery do.  `terrors stats JOURNAL` aggregates phase
// wall times, cache behaviour, and per-program trends (last run vs its
// own p50 — the "did this just get slower?" question).  Each event is
// one JSONL line, so `tail -n` already shows the newest runs whole.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/journal.hpp"
#include "report/json_value.hpp"
#include "report/run_report.hpp"

namespace terrors::report {

/// Decode one journal event.  Throws robust::Error (kArtifact) when the
/// document is not a terrors_run_event or the schema version is unknown.
[[nodiscard]] obs::RunEvent event_from_json(const JsonValue& doc);

/// Load a JSONL journal file, file order preserved, blank lines skipped.
/// Throws robust::Error: kResource when the file cannot be read; when a
/// line is bad, the line number is added as context and the cause keeps
/// its kind (kInput for JSON parse errors, kArtifact for wrong
/// kind/schema_version).
[[nodiscard]] std::vector<obs::RunEvent> load_journal(const std::string& path);

/// Per-program aggregate with a last-vs-typical regression signal.
struct ProgramStats {
  std::string program;
  std::uint64_t events = 0;
  DistSummary analyze_seconds;
  double last_analyze_seconds = 0.0;
  /// last_analyze_seconds / p50 analyze seconds (1.0 when p50 is 0) —
  /// a quick "is the newest run out of family?" ratio.
  double last_vs_p50 = 1.0;
  double last_lambda_mean = 0.0;
};

struct JournalStats {
  std::uint64_t events = 0;
  DistSummary simulation_seconds;
  DistSummary training_seconds;
  DistSummary estimation_seconds;
  DistSummary analyze_seconds;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// hits / (hits + misses); 0 when the journal saw no cache traffic.
  double cache_hit_rate = 0.0;
  std::uint64_t degraded_events = 0;
  std::uint64_t peak_rss_max = 0;
  std::vector<ProgramStats> programs;  ///< name-sorted
};

[[nodiscard]] JournalStats aggregate(const std::vector<obs::RunEvent>& events);

/// Render the aggregate (`terrors stats`).
void write_stats_text(const JournalStats& stats, std::ostream& os);

}  // namespace terrors::report
