// Run-scoped telemetry: a RunContext identifies one analyze() call and
// carries its per-run metric view (DESIGN §5g).
//
// The MetricsRegistry is process-wide and cumulative — the right shape
// for lock-free hot-path handles, the wrong shape for "what did *this*
// run cost?".  MetricsScope bridges the two without touching the hot
// paths: it snapshots every counter at construction and deltas the
// snapshot against live values on demand.  RunContext owns one scope per
// run plus the run's identity:
//
//   * a 64-bit run key derived from the cache-key machinery (model
//     version + netlist/config/program hashes + a per-framework analyze
//     ordinal), rendered as a 16-hex-digit run id.  Identical inputs
//     produce identical ids — deterministic like every other artifact of
//     the pipeline; the run journal's wall-clock timestamp distinguishes
//     repeated occurrences in time.
//   * phase wall times, recorded by the framework as each phase closes.
//
// RunContext::current() is the propagation seam: the framework installs
// the context for the duration of analyze() (RAII Scope), and downstream
// layers that cannot take a parameter — the degradation log, cache log
// lines — annotate their output with the active run id.
//
// Everything here is observational: a RunContext never feeds back into
// the estimate, so runs with and without one attached are bit-identical.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace terrors::obs {

/// Per-run view over the cumulative MetricsRegistry counters: snapshots
/// every counter at construction, exposes (live - snapshot) deltas.
/// Counters registered after construction delta against zero.
class MetricsScope {
 public:
  explicit MetricsScope(MetricsRegistry& registry)
      : registry_(&registry), baseline_(registry.counter_values()) {}

  /// Delta of one counter since the scope opened (0 if never registered).
  [[nodiscard]] std::uint64_t delta(std::string_view name) const;

  /// All counters with a nonzero delta since the scope opened, sorted by
  /// name.  This is the "wide event" payload: self-describing, and only
  /// as wide as what the run actually touched.
  [[nodiscard]] std::map<std::string, std::uint64_t> deltas() const;

 private:
  MetricsRegistry* registry_;
  std::map<std::string, std::uint64_t> baseline_;
};

/// Format a run key as the canonical 16-hex-digit run id.
[[nodiscard]] std::string format_run_id(std::uint64_t key);

class RunContext {
 public:
  /// `key` comes from cache::combine over the run's input hashes; `label`
  /// is a human tag (the program name).
  RunContext(std::uint64_t key, std::string label);

  [[nodiscard]] std::uint64_t key() const { return key_; }
  [[nodiscard]] const std::string& id() const { return id_; }
  [[nodiscard]] const std::string& label() const { return label_; }

  [[nodiscard]] MetricsScope& metrics() { return metrics_; }
  [[nodiscard]] const MetricsScope& metrics() const { return metrics_; }

  /// Record a phase wall time (insertion order preserved; re-recording a
  /// phase overwrites it, so retries report their final time).
  void set_phase_seconds(std::string_view phase, double seconds);
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& phases() const {
    return phases_;
  }

  /// The context installed by the innermost active Scope (nullptr outside
  /// any run).  Safe to call from pool workers: the id/label of an
  /// installed context are immutable.
  [[nodiscard]] static RunContext* current();

  /// RAII installer; restores the previous context on destruction so
  /// nested analyses (doctor's golden micro-analysis inside a run) keep
  /// their own identities.
  class Scope {
   public:
    explicit Scope(RunContext& ctx);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    RunContext* previous_;
  };

 private:
  std::uint64_t key_;
  std::string id_;
  std::string label_;
  MetricsScope metrics_;
  std::vector<std::pair<std::string, double>> phases_;
};

/// The active run id, or "" when no run is in flight — for log/journal
/// call sites that want a field value without null checks.
[[nodiscard]] std::string current_run_id();

}  // namespace terrors::obs
