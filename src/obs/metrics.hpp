// Process-wide registry of named counters, gauges, and histograms.
//
// Counters are relaxed atomics so the hot layers (logic simulation, path
// enumeration, Clark combinations) can increment them unconditionally at
// negligible cost; histograms reuse support::MomentAccumulator, giving
// mean / sd / central moments / min / max without storing samples.
// Nothing is ever printed unless a caller asks for write_json() (the
// CLI's --metrics flag), so default output is untouched.
//
// Hot-path idiom — resolve the handle once, then increment:
//
//   static obs::Counter& cycles = obs::MetricsRegistry::instance().counter("sim.cycles");
//   cycles.increment();
//
// Registration is mutex-protected and handles are stable for the process
// lifetime; increments themselves are lock-free.  All three metric kinds
// are safe under the PR-2 thread pool: counters and gauges are relaxed
// atomics (gauge add() is a CAS loop), histograms serialise observe()
// behind a per-histogram mutex — they sit off the per-cycle hot paths
// (cache load/store timings, solver residuals), so a short critical
// section is cheaper than sharding.
//
// Per-run views are layered on top by obs::RunContext / MetricsScope
// (run_context.hpp): the registry can snapshot every counter, and a scope
// deltas the snapshot against live values — process-lifetime handles stay
// lock-free while each analyze() gets its own per-run numbers.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "support/accumulator.hpp"

namespace terrors::obs {

class Counter {
 public:
  void increment(std::uint64_t by = 1) { value_.fetch_add(by, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Atomic read-modify-write (CAS loop): pool workers may adjust the
  /// same gauge concurrently without losing updates.
  void add(double by) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + by, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  /// Fixed depth of the deterministic reservoir backing the quantile
  /// estimates.  Small on purpose: a histogram handle lives for the
  /// process lifetime, and the moments already capture the bulk shape.
  static constexpr std::size_t kReservoirDepth = 64;

  void observe(double v) {
    std::lock_guard<std::mutex> lock(mutex_);
    acc_.add(v);
    reservoir_observe(v);
  }
  /// Consistent copy of the moment statistics (mutex-guarded: concurrent
  /// observe() calls from pool workers never expose a half-updated
  /// accumulator to a reader).
  [[nodiscard]] support::MomentAccumulator stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return acc_;
  }

  /// Quantile estimate over the reservoir (nearest-rank, matching
  /// stat::Samples::quantile); 0 when nothing was observed.  Exact for
  /// streams up to kReservoirDepth samples; beyond that the reservoir is
  /// a systematic (every stride-th) sample of the stream, so the estimate
  /// is deterministic — identical streams give identical quantiles.
  [[nodiscard]] double quantile(double p) const;

  /// Reservoir snapshot (unsorted, stream order), for tests.
  [[nodiscard]] std::vector<double> reservoir() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return reservoir_;
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    acc_.reset();
    reservoir_.clear();
    stride_ = 1;
    seen_ = 0;
  }

 private:
  /// Deterministic systematic sampling: keep every stride_-th observation;
  /// when the buffer fills, drop every other kept sample and double the
  /// stride.  No RNG, so replays are bit-reproducible.  Caller holds mutex_.
  void reservoir_observe(double v);

  mutable std::mutex mutex_;  ///< guards acc_ + reservoir state as one unit
  support::MomentAccumulator acc_;
  std::vector<double> reservoir_;
  std::uint64_t stride_ = 1;
  std::uint64_t seen_ = 0;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Find-or-create; the returned reference is valid forever.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Zero every registered metric (registrations stay).
  void reset();
  /// Total number of registered metrics across the three kinds.
  [[nodiscard]] std::size_t size() const;

  /// Point-in-time snapshot of every registered counter, for per-run
  /// delta views (obs::MetricsScope).  Names are sorted (std::map).
  [[nodiscard]] std::map<std::string, std::uint64_t> counter_values() const;

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,mean,...}}}
  /// Histogram entries include reservoir quantiles p50/p95/p99.
  void write_json(std::ostream& os) const;

  /// Prometheus text exposition format (version 0.0.4): counters and
  /// gauges as single samples, histograms as summaries (quantile-labelled
  /// samples plus _sum/_count).  Each family's HELP line carries its raw
  /// (pre-sanitisation) name.  Metric names are sanitised to the
  /// Prometheus charset under a "terrors_" prefix; label values are
  /// escaped per the format spec (see prometheus_escape_label).
  void write_prometheus(std::ostream& os) const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;  ///< guards map mutation, not metric updates
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Escape Prometheus HELP text: backslash and newline must be
/// backslash-escaped (double quotes are legal in HELP, unlike labels).
[[nodiscard]] std::string prometheus_escape_help(std::string_view value);

/// Escape a Prometheus label value: backslash, double quote, and newline
/// must be backslash-escaped inside the quoted label string.
[[nodiscard]] std::string prometheus_escape_label(std::string_view value);

/// Map an arbitrary metric name onto the Prometheus name charset
/// [a-zA-Z_:][a-zA-Z0-9_:]* by replacing every other character with '_'.
[[nodiscard]] std::string prometheus_sanitize_name(std::string_view name);

}  // namespace terrors::obs
