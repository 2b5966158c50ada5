// Process-wide registry of named counters.
//
// Counters are relaxed atomics so the hot layers (logic simulation, path
// enumeration, Clark combinations) can increment them unconditionally at
// negligible cost.  Nothing is ever printed unless a caller asks for
// write_json() (the CLI's --metrics flag), so default output is untouched.
//
// Hot-path idiom — resolve the handle once, then increment:
//
//   static obs::Counter& cycles = obs::MetricsRegistry::instance().counter("sim.cycles");
//   cycles.increment();
//
// Registration is mutex-protected and handles are stable for the process
// lifetime; increments themselves are lock-free, so counters are safe
// under the thread pool.
//
// Per-run views are layered on top by MetricsScope: the registry can
// snapshot every counter, and a scope deltas the snapshot against live
// values — process-lifetime handles stay lock-free while each analyze()
// gets its own per-run numbers.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

namespace terrors::obs {

class Counter {
 public:
  void increment(std::uint64_t by = 1) { value_.fetch_add(by, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Find-or-create; the returned reference is valid forever.
  Counter& counter(std::string_view name);

  /// Zero every registered counter (registrations stay).
  void reset();

  /// Point-in-time snapshot of every registered counter, for per-run
  /// delta views (obs::MetricsScope).  Names are sorted (std::map).
  [[nodiscard]] std::map<std::string, std::uint64_t> counter_values() const;

  /// {"counters":{name:value,...}}, names sorted.
  void write_json(std::ostream& os) const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;  ///< guards map mutation, not metric updates
  std::map<std::string, Counter, std::less<>> counters_;
};

/// Per-run view over the cumulative MetricsRegistry counters: snapshots
/// every counter at construction, exposes (live - snapshot) deltas.
/// Counters registered after construction delta against zero.
class MetricsScope {
 public:
  explicit MetricsScope(MetricsRegistry& registry)
      : registry_(&registry), baseline_(registry.counter_values()) {}

  /// Delta of one counter since the scope opened (0 if never registered).
  /// Reading does not register the counter.
  [[nodiscard]] std::uint64_t delta(std::string_view name) const;

  /// All counters with a nonzero delta since the scope opened, sorted by
  /// name.  This is the "wide event" payload: self-describing, and only
  /// as wide as what the run actually touched.
  [[nodiscard]] std::map<std::string, std::uint64_t> deltas() const;

 private:
  MetricsRegistry* registry_;
  std::map<std::string, std::uint64_t> baseline_;
};

/// Format a 64-bit run key as the canonical 16-hex-digit run id.
[[nodiscard]] std::string format_run_id(std::uint64_t key);

}  // namespace terrors::obs
