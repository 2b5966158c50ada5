// Scoped-span tracing: a hierarchical phase tree over the estimation
// pipeline (simulation → training → estimation, with nested DTA and
// solver spans), exportable as a Chrome trace_event JSON file
// (chrome://tracing, Perfetto) or folded into a span profile.
//
// Tracing is OFF by default: a ScopedSpan constructed while the tracer is
// disabled is a no-op (one relaxed atomic load), so the instrumented hot
// layers cost nothing in normal library use.  The CLI's --trace and
// --profile flags and the benches enable it around the work they want
// profiled.
//
//   obs::Tracer::instance().set_enabled(true);
//   {
//     obs::ScopedSpan span("training");
//     span.counter("blocks", nb);
//     ... nested ScopedSpans become children ...
//   }
//   obs::Tracer::instance().write_chrome_trace(file);
//
// The tracer keeps one span stack per thread (pool workers emit their own
// spans, attributed via a `worker` counter and a per-thread `tid` in the
// Chrome export); within a thread spans must strictly nest, which RAII
// enforces.  begin/end/counter are mutex-protected — tracing is opt-in
// profiling, so the lock is acceptable and keeps worker spans readable.
//
// The span buffer is bounded (kDefaultSpanLimit, 1M spans): once full,
// new spans are counted in dropped() and the `trace.dropped` metric
// instead of recorded, so long-running processes cannot grow memory
// without bound.
//
// The recorded spans are also the profile: write_folded() folds them
// into per-path self times (obs/profiler.hpp reads the result back).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace terrors::obs {

class Tracer {
 public:
  static Tracer& instance();

  /// One completed (or open) span.  `end_ns == 0` means still open.
  struct Node {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::size_t parent = kNoParent;  ///< index into nodes(), kNoParent = root
    std::uint32_t tid = 0;           ///< recording thread (0 = first seen, usually main)
    std::vector<std::pair<std::string, double>> counters;
  };
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
  /// Sentinel index returned by begin_span once the buffer is full; the
  /// matching end_span / span_counter calls are no-ops.
  static constexpr std::size_t kDroppedSpan = static_cast<std::size_t>(-2);
  /// Default span cap: generous for any CLI run, yet finite.
  static constexpr std::size_t kDefaultSpanLimit = std::size_t{1} << 20;

  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Cap the recorded-span buffer (existing spans are kept even if over a
  /// newly lowered cap; only future begin_span calls are affected).  Only
  /// tests lower it.
  void set_span_limit(std::size_t limit);
  /// Spans discarded because the buffer was full (since last reset()).
  [[nodiscard]] std::uint64_t dropped() const;

  /// Drop all recorded spans and the dropped count (keeps the enabled
  /// flag and the span limit).
  void reset();

  /// Low-level span API; prefer ScopedSpan.
  std::size_t begin_span(std::string_view name);
  void end_span(std::size_t index);
  void span_counter(std::size_t index, std::string_view key, double value);

  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  /// Nanoseconds since the tracer's epoch (steady clock).
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Chrome trace_event JSON ("X" complete events, microsecond units);
  /// span counters become event args.
  void write_chrome_trace(std::ostream& os) const;
  /// Folded stacks for flamegraph.pl / speedscope: one "root;...;leaf N"
  /// line per distinct span path, sorted by path, N = the path's total
  /// self time (duration less recorded child spans) in whole
  /// microseconds; paths under 1 us are left out.  A pool worker's spans
  /// are roots of their own thread; open spans count as zero duration.
  void write_folded(std::ostream& os) const;

 private:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;  ///< guards nodes_, stacks_, tids_, limit_, dropped_
  std::size_t limit_ = kDefaultSpanLimit;
  std::uint64_t dropped_ = 0;
  std::vector<Node> nodes_;
  /// Open-span stack per recording thread; spans nest within a thread.
  std::unordered_map<std::thread::id, std::vector<std::size_t>> stacks_;
  std::unordered_map<std::thread::id, std::uint32_t> tids_;
};

/// RAII span.  Captures the tracer's enabled state at construction, so
/// toggling mid-span cannot unbalance the stack.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name) {
    if (Tracer::instance().enabled()) {
      active_ = true;
      index_ = Tracer::instance().begin_span(name);
    }
  }
  ~ScopedSpan() {
    if (active_) Tracer::instance().end_span(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attach a named counter to this span (shows up in trace args).
  void counter(std::string_view key, double value) {
    if (active_) Tracer::instance().span_counter(index_, key, value);
  }
  [[nodiscard]] bool active() const { return active_; }

 private:
  bool active_ = false;
  std::size_t index_ = 0;
};

}  // namespace terrors::obs
