#include "obs/trace.hpp"

#include <algorithm>
#include <map>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace terrors::obs {

namespace {

/// Folded keys use ';' between frames and ' ' before the count; span
/// names never should contain either, but a defensive mapping keeps the
/// file parseable no matter what gets instrumented later.
std::string sanitize_frame(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == ';' || c == ' ' || c == '\n' || c == '\t') c = '_';
  }
  return out;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - epoch_)
                                        .count());
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  nodes_.clear();
  stacks_.clear();
  tids_.clear();
  dropped_ = 0;
}

void Tracer::set_span_limit(std::size_t limit) {
  std::lock_guard<std::mutex> lock(mutex_);
  limit_ = limit;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::size_t Tracer::begin_span(std::string_view name) {
  const std::uint64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  if (nodes_.size() >= limit_) {
    ++dropped_;
    // Resolved once: the registry handle is stable for the process.
    static Counter& dropped_metric = MetricsRegistry::instance().counter("trace.dropped");
    dropped_metric.increment();
    return kDroppedSpan;
  }
  const std::thread::id self = std::this_thread::get_id();
  auto [tid_it, fresh] = tids_.try_emplace(self, static_cast<std::uint32_t>(tids_.size()));
  auto& stack = stacks_[self];
  Node node;
  node.name = std::string(name);
  node.start_ns = start;
  node.parent = stack.empty() ? kNoParent : stack.back();
  node.tid = tid_it->second;
  const std::size_t index = nodes_.size();
  nodes_.push_back(std::move(node));
  stack.push_back(index);
  return index;
}

void Tracer::end_span(std::size_t index) {
  if (index == kDroppedSpan) return;
  const std::uint64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  TE_REQUIRE(index < nodes_.size(), "end_span on unknown span");
  auto& stack = stacks_[std::this_thread::get_id()];
  TE_REQUIRE(!stack.empty() && stack.back() == index,
             "spans must close in strict LIFO order on their own thread");
  stack.pop_back();
  nodes_[index].end_ns = end;
}

void Tracer::span_counter(std::size_t index, std::string_view key, double value) {
  if (index == kDroppedSpan) return;
  std::lock_guard<std::mutex> lock(mutex_);
  TE_REQUIRE(index < nodes_.size(), "span_counter on unknown span");
  auto& counters = nodes_[index].counters;
  for (auto& [k, v] : counters) {
    if (k == key) {
      v += value;  // repeated keys accumulate (per-iteration counters)
      return;
    }
  }
  counters.emplace_back(std::string(key), value);
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& node : nodes_) {
    if (!first) os << ",";
    first = false;
    const std::uint64_t end = node.end_ns != 0 ? node.end_ns : node.start_ns;
    os << "{\"name\":";
    json_string(os, node.name);
    os << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << node.tid << ",\"ts\":";
    json_number(os, node.start_ns / 1000);
    os << ",\"dur\":";
    json_number(os, (end - node.start_ns) / 1000);
    if (!node.counters.empty()) {
      os << ",\"args\":{";
      bool cfirst = true;
      for (const auto& [key, value] : node.counters) {
        if (!cfirst) os << ",";
        cfirst = false;
        json_string(os, key);
        os << ":";
        json_number(os, value);
      }
      os << "}";
    }
    os << "}";
  }
  os << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"droppedSpans\":";
  json_number(os, dropped_);
  os << "}}\n";
}

void Tracer::write_folded(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Self time: a span's duration less its recorded children's.
  std::vector<std::int64_t> self(nodes_.size(), 0);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    const auto dur =
        static_cast<std::int64_t>(node.end_ns != 0 ? node.end_ns - node.start_ns : 0);
    self[i] += dur;
    if (node.parent != kNoParent) self[node.parent] -= dur;
  }
  // Sum per distinct path; a parent is always recorded before its children.
  std::map<std::string, std::int64_t> totals;
  std::vector<const std::string*> path(nodes_.size(), nullptr);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    std::string key = node.parent == kNoParent ? std::string() : *path[node.parent] + ';';
    key += sanitize_frame(node.name);
    const auto it = totals.try_emplace(std::move(key), 0).first;
    it->second += std::max<std::int64_t>(self[i], 0);  // an open parent has zero duration
    path[i] = &it->first;
  }
  for (const auto& [stack, ns] : totals) {
    if (ns >= 1000) os << stack << ' ' << ns / 1000 << '\n';
  }
}

}  // namespace terrors::obs
