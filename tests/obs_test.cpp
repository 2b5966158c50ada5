// Tests for the observability layer: tracer span nesting and timing,
// counter registry semantics, JSON exporter well-formedness, counter
// thread safety,
// run ids and per-run metric views (MetricsScope), the tracer span cap,
// and the folded-stack profile the tracer writes and `terrors profile`
// reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

using namespace terrors;

namespace {

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON validator: enough to prove the
// exporters emit structurally valid documents without a JSON dependency.
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        if (pos_ + 1 >= text_.size()) return false;
        ++pos_;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }

  bool literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  [[nodiscard]] char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void spin_briefly() {
  // Burn a few microseconds so span durations are strictly measurable.
  volatile double x = 1.0;
  for (int i = 0; i < 2000; ++i) x = x * 1.0000001 + 1e-9;
}

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::instance().reset();
    obs::Tracer::instance().set_enabled(true);
  }
  void TearDown() override {
    obs::Tracer::instance().set_enabled(false);
    obs::Tracer::instance().reset();
  }
};

TEST_F(TracerTest, SpanNestingAndTimingMonotonicity) {
  {
    obs::ScopedSpan outer("outer");
    spin_briefly();
    {
      obs::ScopedSpan inner("inner");
      inner.counter("work", 3.0);
      spin_briefly();
    }
    {
      obs::ScopedSpan inner2("inner2");
      spin_briefly();
    }
  }
  const auto& nodes = obs::Tracer::instance().nodes();
  ASSERT_EQ(nodes.size(), 3u);

  const auto& outer = nodes[0];
  const auto& inner = nodes[1];
  const auto& inner2 = nodes[2];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.parent, obs::Tracer::kNoParent);
  EXPECT_EQ(inner.parent, 0u);
  EXPECT_EQ(inner2.parent, 0u);

  // Every span closed, with end >= start.
  for (const auto& n : nodes) {
    EXPECT_NE(n.end_ns, 0u) << n.name;
    EXPECT_GE(n.end_ns, n.start_ns) << n.name;
  }
  // Children are contained in the parent interval and ordered in time.
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.end_ns, outer.end_ns);
  EXPECT_GE(inner2.start_ns, inner.end_ns);
  EXPECT_LE(inner2.end_ns, outer.end_ns);

  // Counters attach to the right span and accumulate.
  ASSERT_EQ(inner.counters.size(), 1u);
  EXPECT_EQ(inner.counters[0].first, "work");
  EXPECT_DOUBLE_EQ(inner.counters[0].second, 3.0);
}

TEST_F(TracerTest, RepeatedCounterKeysAccumulate) {
  {
    obs::ScopedSpan span("loop");
    for (int i = 0; i < 5; ++i) span.counter("iterations", 1.0);
  }
  const auto& nodes = obs::Tracer::instance().nodes();
  ASSERT_EQ(nodes.size(), 1u);
  ASSERT_EQ(nodes[0].counters.size(), 1u);
  EXPECT_DOUBLE_EQ(nodes[0].counters[0].second, 5.0);
}

TEST_F(TracerTest, DisabledSpansRecordNothing) {
  obs::Tracer::instance().set_enabled(false);
  {
    obs::ScopedSpan span("ghost");
    span.counter("x", 1.0);
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(obs::Tracer::instance().nodes().empty());
}

TEST_F(TracerTest, ChromeTraceJsonIsWellFormed) {
  {
    obs::ScopedSpan outer("phase \"quoted\" name");
    outer.counter("count", 42.0);
    obs::ScopedSpan inner("child\\with\\backslashes");
  }
  std::ostringstream os;
  obs::Tracer::instance().write_chrome_trace(os);
  const std::string text = os.str();
  EXPECT_TRUE(JsonValidator(text).valid()) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
}

// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterAccumulatesAndResets) {
  auto& c = obs::MetricsRegistry::instance().counter("test.counter_basic");
  c.reset();
  c.increment();
  c.increment(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name returns the same counter.
  EXPECT_EQ(&obs::MetricsRegistry::instance().counter("test.counter_basic"), &c);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsTest, JsonExportIsWellFormedAndComplete) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("test.json_counter").reset();
  reg.counter("test.json_counter").increment(7);

  std::ostringstream os;
  reg.write_json(os);
  const std::string text = os.str();
  EXPECT_TRUE(JsonValidator(text).valid()) << text;
  EXPECT_NE(text.find("\"test.json_counter\":7"), std::string::npos) << text;
  // `counters` is the only top-level key: its values are plain numbers,
  // so the first closing brace ends it and the second ends the document.
  EXPECT_EQ(text.rfind("{\"counters\":{", 0), 0u) << text;
  EXPECT_EQ(text.find('}'), text.size() - 3) << text;
  EXPECT_EQ(text.substr(text.size() - 3), "}}\n") << text;
}

// ---------------------------------------------------------------------------

TEST(JsonHelpersTest, EscapesControlCharactersAndQuotes) {
  std::ostringstream os;
  obs::json_string(os, "a\"b\\c\nd\x01" "e");
  EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\nd\\u0001e\"");
}

TEST(JsonHelpersTest, NonFiniteNumbersBecomeNull) {
  std::ostringstream os;
  obs::json_number(os, std::nan(""));
  os << " ";
  obs::json_number(os, std::numeric_limits<double>::infinity());
  EXPECT_EQ(os.str(), "null null");
}

// Counters must tolerate concurrent increments: pool workers bump them
// from inside parallel_for regions.  Run under TSan (CI thread-sanitizer
// job) this is the data-race proof; under plain builds it still checks
// the arithmetic.
TEST(MetricsTest, ConcurrentMutationIsSafeAndExact) {
  auto& c = obs::MetricsRegistry::instance().counter("test.concurrent_counter");
  c.reset();

  constexpr int kThreads = 8;
  constexpr int kIters = 10'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) c.increment();
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
}

// ---------------------------------------------------------------------------

TEST_F(TracerTest, SpanLimitDropsExcessAndCountsThem) {
  auto& tracer = obs::Tracer::instance();
  auto& dropped_metric = obs::MetricsRegistry::instance().counter("trace.dropped");
  const std::uint64_t dropped_before = dropped_metric.value();
  tracer.set_span_limit(2);
  {
    obs::ScopedSpan a("kept_a");
    { obs::ScopedSpan b("kept_b"); }
    { obs::ScopedSpan c("dropped_c"); }  // over the cap
  }
  EXPECT_EQ(tracer.nodes().size(), 2u);
  EXPECT_EQ(tracer.dropped(), 1u);
  EXPECT_EQ(dropped_metric.value(), dropped_before + 1);

  // The Chrome export advertises the loss so a truncated trace is never
  // mistaken for a complete one.
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  EXPECT_TRUE(JsonValidator(os.str()).valid()) << os.str();
  EXPECT_NE(os.str().find("\"droppedSpans\":1"), std::string::npos) << os.str();

  tracer.set_span_limit(obs::Tracer::kDefaultSpanLimit);
}

// ---------------------------------------------------------------------------

TEST(RunScopeTest, FormatRunIdIsSixteenHexDigits) {
  EXPECT_EQ(obs::format_run_id(0), "0000000000000000");
  EXPECT_EQ(obs::format_run_id(0xdeadbeefULL), "00000000deadbeef");
  EXPECT_EQ(obs::format_run_id(~0ULL), "ffffffffffffffff");
}

TEST(RunScopeTest, MetricsScopeDeltasAgainstSnapshot) {
  auto& reg = obs::MetricsRegistry::instance();
  auto& c = reg.counter("test.scope_counter");
  c.reset();
  c.increment(5);

  const obs::MetricsScope scope(reg);
  EXPECT_EQ(scope.delta("test.scope_counter"), 0u);
  c.increment(3);
  EXPECT_EQ(scope.delta("test.scope_counter"), 3u);

  // deltas() reports only counters that moved, by name.
  const auto all = scope.deltas();
  const auto it = all.find("test.scope_counter");
  ASSERT_NE(it, all.end());
  EXPECT_EQ(it->second, 3u);
  // A counter registered after the snapshot deltas against zero.
  reg.counter("test.scope_late").increment(2);
  EXPECT_EQ(scope.delta("test.scope_late"), 2u);
  reg.counter("test.scope_late").reset();
}

TEST(RunScopeTest, MetricsScopeDeltaDoesNotRegister) {
  auto& reg = obs::MetricsRegistry::instance();
  const obs::MetricsScope scope(reg);
  const auto before = reg.counter_values();
  EXPECT_EQ(scope.delta("test.scope_never_registered"), 0u);
  EXPECT_EQ(reg.counter_values(), before);
}

// ---------------------------------------------------------------------------

TEST(ProfilerTest, FoldedRoundTripAndHotspots) {
  std::istringstream in(
      "analyze;training;dta.edge 40\n"
      "analyze;training 10\n"
      "analyze;estimation 5\n"
      "\n"
      "framework.init 2\n");
  const auto folded = obs::parse_folded(in);
  ASSERT_EQ(folded.size(), 4u);
  EXPECT_EQ(folded.at("analyze;training;dta.edge"), 40u);

  const auto spots = obs::hotspots_from_folded(folded);
  ASSERT_FALSE(spots.empty());
  // "analyze" is on 3 stacks (40+10+5 inclusive) but never the leaf.
  EXPECT_EQ(spots[0].name, "analyze");
  EXPECT_EQ(spots[0].inclusive, 55u);
  EXPECT_EQ(spots[0].exclusive, 0u);
  // "training" is a leaf on one stack only.
  const auto training = std::find_if(spots.begin(), spots.end(),
                                     [](const auto& s) { return s.name == "training"; });
  ASSERT_NE(training, spots.end());
  EXPECT_EQ(training->inclusive, 50u);
  EXPECT_EQ(training->exclusive, 10u);
}

TEST(ProfilerTest, ParseFoldedRejectsMalformedLines) {
  {
    std::istringstream in("no_count_here\n");
    EXPECT_THROW(obs::parse_folded(in), std::runtime_error);
  }
  {
    std::istringstream in("stack notanumber\n");
    EXPECT_THROW(obs::parse_folded(in), std::runtime_error);
  }
}

TEST_F(TracerTest, FoldedStacksAreTheSpansSelfTimes) {
  auto& tracer = obs::Tracer::instance();
  {
    obs::ScopedSpan root("fold root");  // ' ' is sanitised to '_'
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    obs::ScopedSpan mid("fold_mid");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    for (int i = 0; i < 3; ++i) {
      obs::ScopedSpan leaf("fold_leaf");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const obs::Tracer::Node& root = tracer.nodes().front();
  const std::uint64_t root_us = (root.end_ns - root.start_ns) / 1000;

  // A span still open at write time counts as zero duration.
  obs::ScopedSpan open("fold_open");
  std::ostringstream os;
  tracer.write_folded(os);
  std::istringstream in(os.str());
  const auto folded = obs::parse_folded(in);

  // One line per distinct path (the three leaves fold into one), each
  // holding that path's self time in microseconds.
  ASSERT_EQ(folded.size(), 3u) << os.str();
  EXPECT_GE(folded.at("fold_root"), 2000u);
  EXPECT_GE(folded.at("fold_root;fold_mid"), 2000u);
  EXPECT_GE(folded.at("fold_root;fold_mid;fold_leaf"), 3000u);
  // Self times partition the root's duration, less the sub-microsecond
  // remainder each path drops.
  std::uint64_t total = 0;
  for (const auto& [stack, us] : folded) total += us;
  EXPECT_LE(total, root_us);
  EXPECT_GE(total + folded.size(), root_us);

  // The text is sorted by path, so parse_folded inverts it exactly.
  std::ostringstream again;
  for (const auto& [stack, us] : folded) again << stack << " " << us << "\n";
  EXPECT_EQ(again.str(), os.str());
}

}  // namespace
