// Run-journal contracts (DESIGN §5g):
//  1. Schema: event_line emits one parseable JSON object per event, and
//     report::event_from_json inverts it exactly; append_event produces a
//     line-delimited file that load_journal reads back in order.
//  2. Aggregation: terrors stats' aggregate() computes phase summaries,
//     cache hit rates, and per-program last-vs-p50 deltas from a known
//     event set; write_stats_text renders them.
//  3. Bit-invisibility: an analyze() with the journal and the traced
//     profile enabled produces byte-identical report JSON and
//     bit-identical estimates to one without, at 1 and 4 threads.
//     Observability must never leak into the science.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "netlist/pipeline.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/attribution.hpp"
#include "report/journal_stats.hpp"
#include "report/json_value.hpp"
#include "report/run_report.hpp"
#include "robust/error.hpp"
#include "support/thread_pool.hpp"
#include "workloads/generator.hpp"
#include "workloads/specs.hpp"

#include "counter_snapshot.hpp"

namespace terrors {
namespace {

const netlist::Pipeline& pipeline() {
  static const netlist::Pipeline p = netlist::build_pipeline({});
  return p;
}

core::FrameworkConfig small_config() {
  core::FrameworkConfig cfg;
  cfg.spec = timing::TimingSpec{1300.0};
  cfg.executor.max_instructions = 8000;
  cfg.error_model.mixed_samples = 32;
  return cfg;
}

const workloads::WorkloadSpec& spec_named(const char* name) {
  for (const auto& s : workloads::mibench_specs()) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "unknown benchmark " << name;
  return workloads::mibench_specs()[0];
}

obs::RunEvent sample_event(const std::string& program, double sim, double train, double est) {
  obs::RunEvent e;
  e.run_id = "00000000deadbeef";
  e.unix_ms = 1700000000000ULL;
  e.program = program;
  e.config_hash = "0123456789abcdef";
  e.program_hash = "fedcba9876543210";
  e.period_ps = 1300.0;
  e.threads = 4;
  e.runs = 2;
  e.instructions = 16000;
  e.simulation_seconds = sim;
  e.training_seconds = train;
  e.estimation_seconds = est;
  e.counters = {{"cache.hits", 3}, {"cache.misses", 1}, {"sim.cycles", 2156}};
  e.pool_tasks = 64;
  e.pool_retries = 1;
  e.lambda_mean = 1234.5;
  e.rate_mean = 0.0058;
  e.rate_sd = 0.0018;
  e.degraded = true;
  e.degraded_sites = {"cache", "io"};
  e.peak_rss_bytes = 123456789;
  return e;
}

/// A temp file path unique to this test binary run.
std::string temp_path(const char* tag) {
  return ::testing::TempDir() + "journal_test_" + tag + ".jsonl";
}

TEST(JournalSchema, EventLineRoundTripsThroughReportParser) {
  const obs::RunEvent e = sample_event("typeset", 0.5, 2.0, 0.25);
  const std::string line = obs::event_line(e);
  const report::JsonValue doc = report::JsonValue::parse(line);
  const obs::RunEvent back = report::event_from_json(doc);

  EXPECT_EQ(back.schema_version, obs::kJournalSchemaVersion);
  EXPECT_EQ(back.run_id, e.run_id);
  EXPECT_EQ(back.unix_ms, e.unix_ms);
  EXPECT_EQ(back.program, e.program);
  EXPECT_EQ(back.config_hash, e.config_hash);
  EXPECT_EQ(back.program_hash, e.program_hash);
  EXPECT_EQ(back.period_ps, e.period_ps);
  EXPECT_EQ(back.threads, e.threads);
  EXPECT_EQ(back.runs, e.runs);
  EXPECT_EQ(back.instructions, e.instructions);
  EXPECT_EQ(back.simulation_seconds, e.simulation_seconds);
  EXPECT_EQ(back.training_seconds, e.training_seconds);
  EXPECT_EQ(back.estimation_seconds, e.estimation_seconds);
  EXPECT_EQ(back.counters, e.counters);
  EXPECT_EQ(back.pool_tasks, e.pool_tasks);
  EXPECT_EQ(back.pool_retries, e.pool_retries);
  EXPECT_EQ(back.lambda_mean, e.lambda_mean);
  EXPECT_EQ(back.rate_mean, e.rate_mean);
  EXPECT_EQ(back.rate_sd, e.rate_sd);
  EXPECT_EQ(back.degraded, e.degraded);
  EXPECT_EQ(back.degraded_sites, e.degraded_sites);
  EXPECT_EQ(back.peak_rss_bytes, e.peak_rss_bytes);
}

TEST(JournalSchema, RejectsWrongKindAndVersion) {
  EXPECT_THROW(report::event_from_json(report::JsonValue::parse("{\"kind\":\"other\"}")),
               robust::Error);
  obs::RunEvent e = sample_event("x", 1, 1, 1);
  std::string line = obs::event_line(e);
  const std::string needle = "\"schema_version\":1";
  const auto pos = line.find(needle);
  ASSERT_NE(pos, std::string::npos);
  line.replace(pos, needle.size(), "\"schema_version\":999");
  EXPECT_THROW(report::event_from_json(report::JsonValue::parse(line)), robust::Error);
}

TEST(JournalSchema, AppendProducesLineDelimitedFileReadBackInOrder) {
  const std::string path = temp_path("append");
  std::remove(path.c_str());
  obs::append_event(path, sample_event("a", 1, 2, 3));
  obs::append_event(path, sample_event("b", 4, 5, 6));

  // Two lines, each a complete JSON document.
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_NO_THROW(report::JsonValue::parse(line)) << line;
  }
  EXPECT_EQ(lines, 2u);

  const auto events = report::load_journal(path);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].program, "a");
  EXPECT_EQ(events[1].program, "b");
  std::remove(path.c_str());
}

TEST(JournalSchema, LoadJournalErrorsCarryContext) {
  EXPECT_THROW(report::load_journal("/nonexistent/journal.jsonl"), robust::Error);
  const std::string path = temp_path("malformed");
  {
    std::ofstream out(path);
    out << "{\"kind\":\"terrors_run_event\"\n";  // truncated JSON
  }
  try {
    (void)report::load_journal(path);
    FAIL() << "expected robust::Error";
  } catch (const robust::Error& e) {
    // A JSON parse failure keeps the parser's kInput kind (wrap adds
    // context, never changes category); only kind/schema mismatches are
    // kArtifact.  Either way the line number must be in the chain.
    EXPECT_EQ(e.category(), robust::Category::kInput);
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

TEST(JournalSchema, ResolveJournalPathPrefersFlagOverEnv) {
  EXPECT_EQ(obs::resolve_journal_path("explicit.jsonl"), "explicit.jsonl");
  // With no flag and no env the journal is off.
  const char* saved = std::getenv("TERRORS_JOURNAL");
  ASSERT_EQ(saved, nullptr) << "test assumes TERRORS_JOURNAL is unset";
  EXPECT_EQ(obs::resolve_journal_path(""), "");
}

// ---------------------------------------------------------------------------

TEST(JournalStats, AggregateComputesPhaseQuantilesCacheAndPerProgram) {
  std::vector<obs::RunEvent> events;
  // Four "fast" runs and one slow outlier for program a; one run of b.
  for (const double t : {1.0, 1.0, 1.0, 1.0}) events.push_back(sample_event("a", 0.1, t, 0.1));
  events.push_back(sample_event("a", 0.1, 5.0, 0.1));  // appended last
  events.push_back(sample_event("b", 0.2, 2.0, 0.2));

  const report::JournalStats s = report::aggregate(events);
  EXPECT_EQ(s.events, 6u);
  EXPECT_EQ(s.training_seconds.count, 6u);
  EXPECT_DOUBLE_EQ(s.training_seconds.p50, 1.0);
  EXPECT_DOUBLE_EQ(s.training_seconds.max, 5.0);
  // Each sample_event carries 3 hits / 1 miss.
  EXPECT_EQ(s.cache_hits, 18u);
  EXPECT_EQ(s.cache_misses, 6u);
  EXPECT_DOUBLE_EQ(s.cache_hit_rate, 0.75);
  EXPECT_EQ(s.degraded_events, 6u);
  EXPECT_EQ(s.peak_rss_max, 123456789u);

  ASSERT_EQ(s.programs.size(), 2u);
  const report::ProgramStats& a = s.programs[0];
  EXPECT_EQ(a.program, "a");
  EXPECT_EQ(a.events, 5u);
  // Last run of a: 0.1 + 5.0 + 0.1 = 5.2s against a p50 of 1.2s.
  EXPECT_DOUBLE_EQ(a.last_analyze_seconds, 5.2);
  EXPECT_DOUBLE_EQ(a.analyze_seconds.p50, 1.2);
  EXPECT_NEAR(a.last_vs_p50, 5.2 / 1.2, 1e-12);
  EXPECT_EQ(s.programs[1].program, "b");
  EXPECT_EQ(s.programs[1].events, 1u);
}

TEST(JournalStats, RenderersMentionTheHeadlineNumbers) {
  const std::vector<obs::RunEvent> events = {sample_event("typeset", 0.5, 2.0, 0.25)};
  std::ostringstream stats_os;
  report::write_stats_text(report::aggregate(events), stats_os);
  EXPECT_NE(stats_os.str().find("1 run event(s)"), std::string::npos) << stats_os.str();
  EXPECT_NE(stats_os.str().find("typeset"), std::string::npos);
  EXPECT_NE(stats_os.str().find("75.0% hit rate"), std::string::npos) << stats_os.str();
}

TEST(JournalStats, EmptyJournalAggregatesToZeros) {
  const report::JournalStats s = report::aggregate({});
  EXPECT_EQ(s.events, 0u);
  std::ostringstream os;
  report::write_stats_text(s, os);
  EXPECT_NE(os.str().find("0 run event(s)"), std::string::npos);
}

// ---------------------------------------------------------------------------

struct InstrumentedRun {
  core::BenchmarkResult result;
  std::string report_json;
  std::map<std::string, std::uint64_t> counters;
};

/// One analyze() of pgp.encode at `threads`, optionally with the full
/// observability stack (journal + tracer + folded profile) switched on.
InstrumentedRun analyze_instrumented(std::size_t threads, bool instrumented) {
  const auto& spec = spec_named("pgp.encode");
  support::set_global_threads(threads);
  obs::MetricsRegistry::instance().reset();

  std::string journal;
  if (instrumented) {
    journal = temp_path(("invis_t" + std::to_string(threads)).c_str());
    std::remove(journal.c_str());
    obs::Tracer::instance().reset();
    obs::Tracer::instance().set_enabled(true);
  }

  core::FrameworkConfig cfg = small_config();
  cfg.journal_path = journal;
  core::ErrorRateFramework fw(pipeline(), cfg);
  InstrumentedRun run;
  const isa::Program program = workloads::generate_program(spec);
  run.result = fw.analyze(program, workloads::generate_inputs(spec, 2, 7));

  if (instrumented) {
    obs::Tracer::instance().set_enabled(false);
    // The profile sees below each characterisation batch: the drive, and
    // the lazy arrival DP inside Algorithm 2's stage-DTS loop.
    std::ostringstream folded;
    obs::Tracer::instance().write_folded(folded);
    EXPECT_NE(folded.str().find("dta.batch;sim.drive "), std::string::npos) << folded.str();
    EXPECT_NE(folded.str().find("dta.batch;dta.stage_dts;timing.arrivals "), std::string::npos)
        << folded.str();
    // The journal really was written.
    const auto events = report::load_journal(journal);
    EXPECT_EQ(events.size(), 1u);
    if (!events.empty()) {
      EXPECT_EQ(events[0].run_id, run.result.run_id);
      EXPECT_EQ(events[0].program, run.result.name);
    }
    std::remove(journal.c_str());
  }

  // Wall-clock phase times differ between any two analyze() calls, with
  // or without instrumentation — zero them so the byte comparison covers
  // every deterministic field (estimate, marginals, hotspots, run id).
  report::RunReport report = report::build_report(fw, program, run.result);
  report.training_seconds = 0.0;
  report.simulation_seconds = 0.0;
  report.estimation_seconds = 0.0;
  std::ostringstream os;
  report.write_json(os);
  run.report_json = os.str();
  // report.* is the report builder's own; journal.* and trace.* fire only
  // when instrumentation is on, and their absence elsewhere is exactly what
  // the invisibility test proves.
  run.counters = test::counter_snapshot({"report.", "journal.", "trace."});
  return run;
}

class JournalInvisibility : public ::testing::Test {
 protected:
  void TearDown() override {
    support::set_global_threads(1);
    obs::Tracer::instance().set_enabled(false);
    obs::Tracer::instance().reset();
  }
};

TEST_F(JournalInvisibility, JournalAndProfilerAreBitInvisibleAtOneAndFourThreads) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const InstrumentedRun plain = analyze_instrumented(threads, false);
    const InstrumentedRun instrumented = analyze_instrumented(threads, true);

    // Estimate: bitwise identical (EXPECT_EQ on doubles is ==).
    EXPECT_EQ(plain.result.estimate.rate_mean(), instrumented.result.estimate.rate_mean());
    EXPECT_EQ(plain.result.estimate.rate_sd(), instrumented.result.estimate.rate_sd());
    EXPECT_EQ(plain.result.estimate.lambda.mean, instrumented.result.estimate.lambda.mean);
    EXPECT_EQ(plain.result.estimate.lambda.sd, instrumented.result.estimate.lambda.sd);
    EXPECT_EQ(plain.result.estimate.dk_lambda, instrumented.result.estimate.dk_lambda);
    EXPECT_EQ(plain.result.estimate.dk_count, instrumented.result.estimate.dk_count);

    // Run ids are deterministic, so even the report JSON (which embeds
    // the id) is byte-identical with and without instrumentation.
    EXPECT_EQ(plain.result.run_id, instrumented.result.run_id);
    EXPECT_EQ(plain.report_json, instrumented.report_json);

    // Counters outside the excluded namespaces: identical values.
    EXPECT_EQ(plain.counters, instrumented.counters);
  }
}

TEST_F(JournalInvisibility, FrameworkJournalEventMatchesResult) {
  const std::string path = temp_path("framework_event");
  std::remove(path.c_str());
  support::set_global_threads(1);
  const auto& spec = spec_named("typeset");
  core::FrameworkConfig cfg = small_config();
  cfg.journal_path = path;
  core::ErrorRateFramework fw(pipeline(), cfg);
  const auto r =
      fw.analyze(workloads::generate_program(spec), workloads::generate_inputs(spec, 2, 7));

  const auto events = report::load_journal(path);
  ASSERT_EQ(events.size(), 1u);
  const obs::RunEvent& e = events[0];
  EXPECT_EQ(e.run_id, r.run_id);
  EXPECT_EQ(e.program, r.name);
  EXPECT_EQ(e.instructions, r.instructions);
  EXPECT_EQ(e.runs, 2u);
  EXPECT_EQ(e.threads, 1u);
  EXPECT_EQ(e.simulation_seconds, r.simulation_seconds);
  EXPECT_EQ(e.training_seconds, r.training_seconds);
  EXPECT_EQ(e.estimation_seconds, r.estimation_seconds);
  EXPECT_EQ(e.rate_mean, r.estimate.rate_mean());
  EXPECT_EQ(e.lambda_mean, r.estimate.lambda.mean);
  EXPECT_FALSE(e.degraded);
  EXPECT_GT(e.peak_rss_bytes, 0u);
  EXPECT_GT(e.unix_ms, 0u);
  // The per-run counter deltas carry the simulated-instruction count.
  const auto it = e.counters.find("core.instructions_simulated");
  ASSERT_NE(it, e.counters.end());
  EXPECT_EQ(it->second, r.instructions);

  // A second analyze of the same program gets a distinct, deterministic id.
  const auto r2 =
      fw.analyze(workloads::generate_program(spec), workloads::generate_inputs(spec, 2, 7));
  EXPECT_NE(r2.run_id, r.run_id);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace terrors
