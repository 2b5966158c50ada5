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
// Each recording thread appends to a span log of its own, so recording
// takes no lock: pool workers emit their own spans, attributed via a
// `worker` counter and a per-thread `tid` in the Chrome export.  Within a
// thread spans must strictly nest, which RAII enforces.  Span names and
// counter keys are string literals, which the tracer keeps by pointer.
// The readers (nodes(), dropped(), the writers) and reset() run while no
// thread records, after the traced work.
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
#include <deque>
#include <memory>
#include <mutex>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

namespace terrors::obs {

class Tracer {
 public:
  static Tracer& instance();

  /// One completed (or open) span.  `end_ns == 0` means still open.
  struct Node {
    std::string_view name;  ///< a string literal
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::size_t parent = kNoParent;  ///< index into nodes(), kNoParent = root
    std::uint32_t tid = 0;           ///< recording thread (0 = first seen, usually main)
    std::vector<std::pair<std::string_view, double>> counters;
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
  void set_span_limit(std::size_t limit) { limit_.store(limit, std::memory_order_relaxed); }
  /// Spans discarded because the buffer was full (since last reset()).
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Drop all recorded spans and the dropped count (keeps the enabled
  /// flag and the span limit); thread ids restart at 0.
  void reset();

  /// Low-level span API; prefer ScopedSpan.  `name` and `key` must outlive
  /// the recorded spans: pass string literals.  The index is the span's
  /// position in its thread's log.
  std::size_t begin_span(std::string_view name);
  void end_span(std::size_t index);
  void span_counter(std::size_t index, std::string_view key, double value);

  /// Every recorded span, thread by thread in order of first use, each
  /// thread's in the order begun.  The reference stays valid until the
  /// next nodes() or reset().
  [[nodiscard]] const std::vector<Node>& nodes() const;
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
  /// One thread's spans, with parents indexed within the log.  A deque
  /// grows without moving what it holds, so a long trace never pays for
  /// copying its spans into fresh memory.
  struct Log {
    std::uint32_t tid = 0;
    std::uint64_t generation = 0;  ///< reset() count when the thread joined
    std::deque<Node> nodes;
    std::vector<std::size_t> open;  ///< stack of open spans
  };

  Tracer() : epoch_(std::chrono::steady_clock::now()) {}
  /// The calling thread's log, registered on its first span after a reset.
  Log& log();
  /// The logs that hold spans of the current generation, by tid.
  [[nodiscard]] std::vector<const Log*> current_logs() const;

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::size_t> limit_{kDefaultSpanLimit};
  std::atomic<std::size_t> recorded_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> generation_{0};
  mutable std::mutex mutex_;  ///< guards logs_ and next_tid_
  std::vector<std::unique_ptr<Log>> logs_;  ///< one per thread that ever recorded
  std::uint32_t next_tid_ = 0;
  mutable std::vector<Node> merged_;  ///< nodes()'s view
};

/// RAII span.  Captures the tracer's enabled state at construction, so
/// toggling mid-span cannot unbalance the stack.
class ScopedSpan {
 public:
  /// `name` is a string literal: the tracer keeps it by pointer.
  template <std::size_t N>
  explicit ScopedSpan(const char (&name)[N]) {
    if (Tracer::instance().enabled()) {
      active_ = true;
      index_ = Tracer::instance().begin_span(std::string_view(name, N - 1));
    }
  }
  ~ScopedSpan() {
    if (active_) Tracer::instance().end_span(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attach a named counter (a string literal) to this span (shows up in
  /// trace args).
  template <std::size_t N>
  void counter(const char (&key)[N], double value) {
    if (active_) Tracer::instance().span_counter(index_, std::string_view(key, N - 1), value);
  }
  [[nodiscard]] bool active() const { return active_; }

 private:
  bool active_ = false;
  std::size_t index_ = 0;
};

}  // namespace terrors::obs
