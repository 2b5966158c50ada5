// Tests for the observability layer: tracer span nesting and timing,
// metrics registry semantics (histograms vs MomentAccumulator), JSON
// exporter well-formedness, log-level filtering, metric thread safety,
// run-scoped metric views (RunContext / MetricsScope), the tracer span
// cap, and the span-sampling profiler's folded-stack machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/run_context.hpp"
#include "obs/trace.hpp"
#include "support/accumulator.hpp"

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

TEST_F(TracerTest, TextTreeShowsHierarchy) {
  {
    obs::ScopedSpan outer("outer");
    obs::ScopedSpan inner("inner");
  }
  std::ostringstream os;
  obs::Tracer::instance().write_text_tree(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("outer"), std::string::npos);
  // The child is indented under the parent.
  EXPECT_NE(text.find("\n  inner"), std::string::npos);
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

TEST(MetricsTest, HistogramMatchesMomentAccumulator) {
  auto& h = obs::MetricsRegistry::instance().histogram("test.hist_moments");
  h.reset();
  support::MomentAccumulator ref;
  const double values[] = {1.0, 2.5, -3.0, 7.25, 0.125, 2.5, 100.0, -42.0};
  for (const double v : values) {
    h.observe(v);
    ref.add(v);
  }
  const auto& s = h.stats();
  EXPECT_EQ(s.count(), ref.count());
  EXPECT_DOUBLE_EQ(s.mean(), ref.mean());
  EXPECT_DOUBLE_EQ(s.stddev(), ref.stddev());
  EXPECT_DOUBLE_EQ(s.central_moment3(), ref.central_moment3());
  EXPECT_DOUBLE_EQ(s.central_moment4(), ref.central_moment4());
  EXPECT_DOUBLE_EQ(s.min(), ref.min());
  EXPECT_DOUBLE_EQ(s.max(), ref.max());
}

TEST(MetricsTest, JsonExportIsWellFormedAndComplete) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("test.json_counter").increment(7);
  reg.gauge("test.json_gauge").set(-1.5);
  auto& h = reg.histogram("test.json_hist");
  h.reset();
  h.observe(1.0);
  h.observe(3.0);

  std::ostringstream os;
  reg.write_json(os);
  const std::string text = os.str();
  EXPECT_TRUE(JsonValidator(text).valid()) << text;
  EXPECT_NE(text.find("\"test.json_counter\":7"), std::string::npos) << text;
  EXPECT_NE(text.find("\"test.json_gauge\":-1.5"), std::string::npos) << text;
  EXPECT_NE(text.find("\"test.json_hist\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"mean\":2"), std::string::npos) << text;
}

TEST(MetricsTest, EmptyHistogramExportsZeros) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.histogram("test.json_hist_empty").reset();
  std::ostringstream os;
  reg.write_json(os);
  EXPECT_TRUE(JsonValidator(os.str()).valid()) << os.str();
  // min/max of an empty MomentAccumulator are +/-inf; the exporter must
  // not leak non-JSON tokens like "inf".
  EXPECT_EQ(os.str().find("inf"), std::string::npos);
}

TEST(MetricsTest, HistogramQuantilesExactBelowReservoirDepth) {
  obs::Histogram h;
  // 1..50 in scrambled order: fits entirely in the reservoir, so
  // quantiles are exact nearest-rank values.
  for (int i = 0; i < 50; ++i) h.observe(static_cast<double>((i * 37) % 50 + 1));
  ASSERT_LE(static_cast<std::size_t>(50), obs::Histogram::kReservoirDepth);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 26.0);  // nearest rank: idx floor(.5*50)
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 50.0);
  EXPECT_DOUBLE_EQ(h.stats().min(), 1.0);
  EXPECT_DOUBLE_EQ(h.stats().max(), 50.0);
}

TEST(MetricsTest, HistogramReservoirIsDeterministicPastDepth) {
  // Two identical streams far beyond the reservoir depth must agree
  // exactly: the systematic (stride-doubling) sampler uses no RNG.
  obs::Histogram a;
  obs::Histogram b;
  for (int i = 0; i < 10'000; ++i) {
    const double v = static_cast<double>((i * 7919) % 10'000);
    a.observe(v);
    b.observe(v);
  }
  EXPECT_LE(a.reservoir().size(), obs::Histogram::kReservoirDepth);
  EXPECT_EQ(a.reservoir(), b.reservoir());
  for (const double p : {0.5, 0.95, 0.99}) {
    EXPECT_EQ(a.quantile(p), b.quantile(p));
    EXPECT_GE(a.quantile(p), 0.0);
    EXPECT_LT(a.quantile(p), 10'000.0);
  }
  // Quantiles are monotone in p.
  EXPECT_LE(a.quantile(0.5), a.quantile(0.95));
  EXPECT_LE(a.quantile(0.95), a.quantile(0.99));
  // Reset discards the reservoir along with the moments.
  a.reset();
  EXPECT_TRUE(a.reservoir().empty());
  EXPECT_DOUBLE_EQ(a.quantile(0.5), 0.0);
}

TEST(MetricsTest, JsonExportIncludesQuantiles) {
  auto& reg = obs::MetricsRegistry::instance();
  auto& h = reg.histogram("test.json_hist_quant");
  h.reset();
  for (int i = 1; i <= 10; ++i) h.observe(static_cast<double>(i));
  std::ostringstream os;
  reg.write_json(os);
  const std::string text = os.str();
  EXPECT_TRUE(JsonValidator(text).valid()) << text;
  EXPECT_NE(text.find("\"p50\":6"), std::string::npos) << text;
  EXPECT_NE(text.find("\"p95\":10"), std::string::npos) << text;
  EXPECT_NE(text.find("\"p99\":10"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------

TEST(PrometheusTest, EscapeLabelHandlesBackslashQuoteNewline) {
  EXPECT_EQ(obs::prometheus_escape_label("plain"), "plain");
  EXPECT_EQ(obs::prometheus_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::prometheus_escape_label("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::prometheus_escape_label("a\nb"), "a\\nb");
  EXPECT_EQ(obs::prometheus_escape_label("\\\"\n"), "\\\\\\\"\\n");
  // HELP text escapes backslash and newline but keeps double quotes.
  EXPECT_EQ(obs::prometheus_escape_help("a\\b\"c\nd"), "a\\\\b\"c\\nd");
}

TEST(PrometheusTest, SanitizeNamePrefixesAndMapsInvalidChars) {
  EXPECT_EQ(obs::prometheus_sanitize_name("core.analyze_calls"),
            "terrors_core_analyze_calls");
  EXPECT_EQ(obs::prometheus_sanitize_name("a-b c"), "terrors_a_b_c");
}

TEST(PrometheusTest, ExpositionHasTypesValuesAndQuantileLabels) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("test.prom_counter").reset();
  reg.counter("test.prom_counter").increment(3);
  reg.gauge("test.prom_gauge").set(2.5);
  auto& h = reg.histogram("test.prom_hist");
  h.reset();
  for (int i = 1; i <= 4; ++i) h.observe(static_cast<double>(i));

  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string text = os.str();
  // Every family gets a HELP line before its TYPE line carrying the raw
  // dotted name, so scrapes always see the internal metric identity.
  EXPECT_NE(text.find("# HELP terrors_test_prom_counter test.prom_counter"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# HELP terrors_test_prom_gauge test.prom_gauge"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# HELP terrors_test_prom_hist test.prom_hist"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE terrors_test_prom_counter counter"), std::string::npos) << text;
  EXPECT_NE(text.find("terrors_test_prom_counter 3"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE terrors_test_prom_gauge gauge"), std::string::npos) << text;
  EXPECT_NE(text.find("terrors_test_prom_gauge 2.5"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE terrors_test_prom_hist summary"), std::string::npos) << text;
  EXPECT_NE(text.find("terrors_test_prom_hist{quantile=\"0.5\"}"), std::string::npos) << text;
  EXPECT_NE(text.find("terrors_test_prom_hist{quantile=\"0.95\"}"), std::string::npos) << text;
  EXPECT_NE(text.find("terrors_test_prom_hist{quantile=\"0.99\"}"), std::string::npos) << text;
  EXPECT_NE(text.find("terrors_test_prom_hist_count 4"), std::string::npos) << text;
  EXPECT_NE(text.find("terrors_test_prom_hist_sum 10"), std::string::npos) << text;
  // Every non-comment line is "name[{labels}] value" with a finite or
  // Prometheus-style (NaN/+Inf/-Inf) value token.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    EXPECT_EQ(line.rfind("terrors_", 0), 0u) << line;
  }
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

// All three metric kinds must tolerate concurrent mutation: pool workers
// increment counters and observe histograms from inside parallel_for
// regions.  Run under TSan (CI thread-sanitizer job) this is the data-race
// proof; under plain builds it still checks the arithmetic.
TEST(MetricsTest, ConcurrentMutationIsSafeAndExact) {
  auto& reg = obs::MetricsRegistry::instance();
  auto& c = reg.counter("test.concurrent_counter");
  auto& g = reg.gauge("test.concurrent_gauge");
  auto& h = reg.histogram("test.concurrent_hist");
  c.reset();
  g.reset();
  h.reset();

  constexpr int kThreads = 8;
  constexpr int kIters = 10'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        c.increment();
        g.add(1.0);
        h.observe(1.0);
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  // Gauge adds are CAS loops over an atomic double: every +1.0 lands.
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads) * kIters);
  EXPECT_EQ(h.stats().count(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(h.stats().mean(), 1.0);
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

TEST_F(TracerTest, OpenSpanNamesSeesLiveStacksOnly) {
  obs::ScopedSpan outer("outer_live");
  obs::ScopedSpan inner("inner_live");
  const auto stacks = obs::Tracer::instance().open_span_names();
  ASSERT_EQ(stacks.size(), 1u);
  ASSERT_EQ(stacks[0].size(), 2u);
  EXPECT_EQ(stacks[0][0], "outer_live");
  EXPECT_EQ(stacks[0][1], "inner_live");
}

// ---------------------------------------------------------------------------

TEST(RunContextTest, FormatRunIdIsSixteenHexDigits) {
  EXPECT_EQ(obs::format_run_id(0), "0000000000000000");
  EXPECT_EQ(obs::format_run_id(0xdeadbeefULL), "00000000deadbeef");
  EXPECT_EQ(obs::format_run_id(~0ULL), "ffffffffffffffff");
}

TEST(RunContextTest, MetricsScopeDeltasAgainstSnapshot) {
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

TEST(RunContextTest, ScopeInstallsAndRestoresNested) {
  EXPECT_EQ(obs::RunContext::current(), nullptr);
  EXPECT_EQ(obs::current_run_id(), "");

  obs::RunContext outer(0x1111, "outer");
  {
    obs::RunContext::Scope s1(outer);
    EXPECT_EQ(obs::RunContext::current(), &outer);
    EXPECT_EQ(obs::current_run_id(), outer.id());

    obs::RunContext inner(0x2222, "inner");
    {
      obs::RunContext::Scope s2(inner);
      EXPECT_EQ(obs::current_run_id(), inner.id());
    }
    EXPECT_EQ(obs::RunContext::current(), &outer);
  }
  EXPECT_EQ(obs::RunContext::current(), nullptr);
}

TEST(RunContextTest, PhaseSecondsOverwriteByName) {
  obs::RunContext ctx(1, "phases");
  ctx.set_phase_seconds("simulation", 1.0);
  ctx.set_phase_seconds("training", 2.0);
  ctx.set_phase_seconds("simulation", 3.0);  // re-record wins
  ASSERT_EQ(ctx.phases().size(), 2u);
  EXPECT_EQ(ctx.phases()[0].first, "simulation");
  EXPECT_DOUBLE_EQ(ctx.phases()[0].second, 3.0);
  EXPECT_EQ(ctx.phases()[1].first, "training");
}

// ---------------------------------------------------------------------------

TEST(ProfilerTest, FoldedRoundTripAndHotspots) {
  std::istringstream in(
      "analyze;training;dta.block 40\n"
      "analyze;training 10\n"
      "analyze;estimation 5\n"
      "\n"
      "framework.init 2\n");
  const auto folded = obs::parse_folded(in);
  ASSERT_EQ(folded.size(), 4u);
  EXPECT_EQ(folded.at("analyze;training;dta.block"), 40u);

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

TEST_F(TracerTest, ProfilerSamplesOnlyTracerSpanNames) {
  auto& profiler = obs::SpanProfiler::instance();
  profiler.reset();
  profiler.start({/*interval_us=*/200});
  {
    obs::ScopedSpan outer("prof_outer");
    obs::ScopedSpan inner("prof_inner");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  profiler.stop();
  EXPECT_GT(profiler.samples(), 0u);

  const auto folded = profiler.folded();
  ASSERT_FALSE(folded.empty());
  // Every sampled frame is a name the tracer recorded — no synthesized
  // frames, no signal-unwound addresses.
  for (const auto& [stack, count] : folded) {
    EXPECT_GT(count, 0u);
    std::size_t start = 0;
    while (start <= stack.size()) {
      const std::size_t semi = stack.find(';', start);
      const std::string frame =
          semi == std::string::npos ? stack.substr(start) : stack.substr(start, semi - start);
      EXPECT_TRUE(frame == "prof_outer" || frame == "prof_inner") << stack;
      if (semi == std::string::npos) break;
      start = semi + 1;
    }
  }
  // write_folded emits parseable folded-stack text that round-trips.
  std::ostringstream os;
  profiler.write_folded(os);
  std::istringstream in(os.str());
  EXPECT_EQ(obs::parse_folded(in), folded);
  profiler.reset();
}

// ---------------------------------------------------------------------------

class LoggerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Logger::instance().set_sink(&sink_);
    obs::Logger::instance().set_level(obs::LogLevel::kOff);
  }
  void TearDown() override {
    obs::Logger::instance().set_sink(nullptr);
    obs::Logger::instance().set_level(obs::LogLevel::kOff);
  }
  std::ostringstream sink_;
};

TEST_F(LoggerTest, OffByDefaultSuppressesEverything) {
  obs::log_error("test", "should not appear");
  obs::log_info("test", "should not appear");
  EXPECT_TRUE(sink_.str().empty());
}

TEST_F(LoggerTest, LevelFilteringSuppressesFinerLevels) {
  obs::Logger::instance().set_level(obs::LogLevel::kInfo);
  obs::log_debug("test", "filtered");
  EXPECT_TRUE(sink_.str().empty());
  obs::log_info("test", "visible");
  EXPECT_NE(sink_.str().find("msg=visible"), std::string::npos);
  obs::log_error("test", "also visible");
  EXPECT_NE(sink_.str().find("level=error"), std::string::npos);
}

TEST_F(LoggerTest, StructuredFieldsAreKeyValueFormatted) {
  obs::Logger::instance().set_level(obs::LogLevel::kInfo);
  obs::log_info("core", "phase done",
                {{"seconds", 1.5}, {"blocks", 14}, {"name", "two words"}});
  const std::string line = sink_.str();
  EXPECT_NE(line.find("comp=core"), std::string::npos) << line;
  EXPECT_NE(line.find("seconds=1.5"), std::string::npos) << line;
  EXPECT_NE(line.find("blocks=14"), std::string::npos) << line;
  EXPECT_NE(line.find("name=\"two words\""), std::string::npos) << line;
  EXPECT_EQ(line.back(), '\n');
}

TEST_F(LoggerTest, ParseLogLevelRoundTrips) {
  EXPECT_EQ(obs::parse_log_level("info"), obs::LogLevel::kInfo);
  EXPECT_EQ(obs::parse_log_level("trace"), obs::LogLevel::kTrace);
  EXPECT_EQ(obs::parse_log_level("off"), obs::LogLevel::kOff);
  EXPECT_FALSE(obs::parse_log_level("bogus").has_value());
  for (const auto lvl : {obs::LogLevel::kError, obs::LogLevel::kWarn, obs::LogLevel::kInfo,
                         obs::LogLevel::kDebug, obs::LogLevel::kTrace}) {
    EXPECT_EQ(obs::parse_log_level(obs::log_level_name(lvl)), lvl);
  }
}

}  // namespace
