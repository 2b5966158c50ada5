#include "obs/trace.hpp"

#include <algorithm>
#include <map>
#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace terrors::obs {

namespace {

/// Folded keys use ';' between frames and ' ' before the count; span
/// names never should contain either, but a defensive mapping keeps the
/// file parseable no matter what gets instrumented later.
std::string sanitize_frame(std::string_view name) {
  std::string out(name);
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
  for (const auto& log : logs_) {
    log->nodes.clear();
    log->open.clear();
  }
  merged_.clear();
  next_tid_ = 0;
  recorded_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_relaxed);
}

Tracer::Log& Tracer::log() {
  thread_local Log* mine = nullptr;
  const std::uint64_t generation = generation_.load(std::memory_order_relaxed);
  if (mine != nullptr && mine->generation == generation) return *mine;
  std::lock_guard<std::mutex> lock(mutex_);
  if (mine == nullptr) mine = logs_.emplace_back(std::make_unique<Log>()).get();
  mine->generation = generation;
  mine->tid = next_tid_++;
  return *mine;
}

std::vector<const Tracer::Log*> Tracer::current_logs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t generation = generation_.load(std::memory_order_relaxed);
  std::vector<const Log*> logs;
  for (const auto& log : logs_)
    if (log->generation == generation && !log->nodes.empty()) logs.push_back(log.get());
  std::sort(logs.begin(), logs.end(), [](const Log* a, const Log* b) { return a->tid < b->tid; });
  return logs;
}

std::size_t Tracer::begin_span(std::string_view name) {
  const std::uint64_t start = now_ns();
  if (recorded_.load(std::memory_order_relaxed) >= limit_.load(std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    // Resolved once: the registry handle is stable for the process.
    static Counter& dropped_metric = MetricsRegistry::instance().counter("trace.dropped");
    dropped_metric.increment();
    return kDroppedSpan;
  }
  recorded_.fetch_add(1, std::memory_order_relaxed);
  Log& log = this->log();
  Node& node = log.nodes.emplace_back();
  node.name = name;
  node.start_ns = start;
  node.parent = log.open.empty() ? kNoParent : log.open.back();
  node.tid = log.tid;
  const std::size_t index = log.nodes.size() - 1;
  log.open.push_back(index);
  return index;
}

void Tracer::end_span(std::size_t index) {
  if (index == kDroppedSpan) return;
  const std::uint64_t end = now_ns();
  Log& log = this->log();
  TE_REQUIRE(index < log.nodes.size(), "end_span on unknown span");
  TE_REQUIRE(!log.open.empty() && log.open.back() == index,
             "spans must close in strict LIFO order on their own thread");
  log.open.pop_back();
  log.nodes[index].end_ns = end;
}

void Tracer::span_counter(std::size_t index, std::string_view key, double value) {
  if (index == kDroppedSpan) return;
  Log& log = this->log();
  TE_REQUIRE(index < log.nodes.size(), "span_counter on unknown span");
  auto& counters = log.nodes[index].counters;
  for (auto& [k, v] : counters) {
    if (k == key) {
      v += value;  // repeated keys accumulate (per-iteration counters)
      return;
    }
  }
  counters.emplace_back(key, value);
}

const std::vector<Tracer::Node>& Tracer::nodes() const {
  merged_.clear();
  for (const Log* log : current_logs()) {
    const std::size_t base = merged_.size();
    for (Node node : log->nodes) {
      if (node.parent != kNoParent) node.parent += base;
      merged_.push_back(std::move(node));
    }
  }
  return merged_;
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Log* log : current_logs()) {
    for (const auto& node : log->nodes) {
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
  }
  os << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"droppedSpans\":";
  json_number(os, dropped());
  os << "}}\n";
}

void Tracer::write_folded(std::ostream& os) const {
  // Intern every span's path as (parent path, name), and sum its self
  // time there: a span's duration less its recorded children's.
  struct Path {
    std::size_t parent;
    std::string_view name;
    std::int64_t self_ns = 0;
  };
  std::vector<Path> paths;
  std::map<std::pair<std::size_t, std::string_view>, std::size_t> interned;
  std::vector<std::int64_t> self;
  std::vector<std::size_t> path_of;
  for (const Log* log : current_logs()) {
    const std::deque<Node>& nodes = log->nodes;
    self.assign(nodes.size(), 0);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const Node& node = nodes[i];
      const auto dur =
          static_cast<std::int64_t>(node.end_ns != 0 ? node.end_ns - node.start_ns : 0);
      self[i] += dur;
      if (node.parent != kNoParent) self[node.parent] -= dur;
    }
    // A parent is always recorded before its children.
    path_of.resize(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const Node& node = nodes[i];
      const std::size_t parent = node.parent == kNoParent ? kNoParent : path_of[node.parent];
      const auto [it, fresh] = interned.try_emplace({parent, node.name}, paths.size());
      if (fresh) paths.push_back({parent, node.name});
      path_of[i] = it->second;
      // An open parent has zero duration.
      paths[it->second].self_ns += std::max<std::int64_t>(self[i], 0);
    }
  }
  // Spell each distinct path once (parents come first); paths that
  // sanitise alike add up.
  std::vector<std::string> spelled(paths.size());
  std::map<std::string, std::int64_t> totals;
  for (std::size_t p = 0; p < paths.size(); ++p) {
    if (paths[p].parent != kNoParent) spelled[p] = spelled[paths[p].parent] + ';';
    spelled[p] += sanitize_frame(paths[p].name);
    totals[spelled[p]] += paths[p].self_ns;
  }
  for (const auto& [stack, ns] : totals) {
    if (ns >= 1000) os << stack << ' ' << ns / 1000 << '\n';
  }
}

}  // namespace terrors::obs
