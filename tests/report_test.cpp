// The report subsystem's four contracts:
//  1. Determinism (DESIGN §5e): building a run report between two
//     analyses is bit-invisible — the next analysis's estimate, marginals,
//     and every metric outside report.*/pool.* are identical with and
//     without it, at any thread count.
//  2. Fidelity: the attribution decomposes the headline estimate — block
//     lambda contributions sum to lambda.mean, shares sum to one, and the
//     JSON schema round-trips byte-stably.
//  3. Gating: diff_reports accepts an unchanged report and flags an
//     injected regression (the CLI maps ok() onto its exit code).
//  4. Locale independence: JSON numbers are written with '.' and read
//     back bit-exactly under any LC_NUMERIC, including a comma locale.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <clocale>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "netlist/pipeline.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/attribution.hpp"
#include "report/diff.hpp"
#include "report/json_value.hpp"
#include "report/render.hpp"
#include "report/run_report.hpp"
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

struct ObservedRun {
  core::BenchmarkResult result;
  std::vector<core::BlockMarginals> marginals;
  std::map<std::string, std::uint64_t> counters;
};

/// Two analyses of `spec` on one framework; with `with_report`, a run
/// report of the first is built before the second.  Observes the second.
ObservedRun analyze_twice(const workloads::WorkloadSpec& spec, std::size_t threads,
                          bool with_report) {
  support::set_global_threads(threads);
  obs::MetricsRegistry::instance().reset();
  core::ErrorRateFramework fw(pipeline(), small_config());
  const isa::Program program = workloads::generate_program(spec);
  const auto inputs = workloads::generate_inputs(spec, 2, 7);
  const core::BenchmarkResult first = fw.analyze(program, inputs);
  if (with_report) (void)report::build_report(fw, program, first);
  ObservedRun run;
  run.result = fw.analyze(program, inputs);
  run.marginals = fw.last().marginals;
  run.counters = test::counter_snapshot({"report."});  // the report builder's own
  return run;
}

class ReportDeterminism : public ::testing::Test {
 protected:
  void TearDown() override { support::set_global_threads(1); }
};

TEST_F(ReportDeterminism, ReportBuildIsBitInvisibleAtOneAndFourThreads) {
  const auto& spec = spec_named("pgp.encode");
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ObservedRun plain = analyze_twice(spec, threads, false);
    const ObservedRun observed = analyze_twice(spec, threads, true);
    EXPECT_EQ(plain.result.run_id, observed.result.run_id);

    // Estimate: bitwise identical (EXPECT_EQ on doubles is ==).
    EXPECT_EQ(plain.result.estimate.rate_mean(), observed.result.estimate.rate_mean());
    EXPECT_EQ(plain.result.estimate.rate_sd(), observed.result.estimate.rate_sd());
    EXPECT_EQ(plain.result.estimate.lambda.mean, observed.result.estimate.lambda.mean);
    EXPECT_EQ(plain.result.estimate.lambda.sd, observed.result.estimate.lambda.sd);
    EXPECT_EQ(plain.result.estimate.dk_lambda, observed.result.estimate.dk_lambda);
    EXPECT_EQ(plain.result.estimate.dk_count, observed.result.estimate.dk_count);

    // Marginals: bitwise identical.
    ASSERT_EQ(plain.marginals.size(), observed.marginals.size());
    for (std::size_t b = 0; b < plain.marginals.size(); ++b) {
      EXPECT_EQ(plain.marginals[b].p_in.values(), observed.marginals[b].p_in.values());
      ASSERT_EQ(plain.marginals[b].instr.size(), observed.marginals[b].instr.size());
      for (std::size_t k = 0; k < plain.marginals[b].instr.size(); ++k)
        EXPECT_EQ(plain.marginals[b].instr[k].values(), observed.marginals[b].instr[k].values());
    }

    // Counters outside report.*: identical values.
    EXPECT_EQ(plain.counters, observed.counters);
  }
}

class ReportFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    support::set_global_threads(1);
    fw_ = std::make_unique<core::ErrorRateFramework>(pipeline(), small_config());
    program_ = workloads::generate_program(spec_named("pgp.decode"));
    result_ = fw_->analyze(program_, workloads::generate_inputs(spec_named("pgp.decode"), 2, 7));
    built_ = report::build_report(*fw_, program_, result_);
  }

  std::unique_ptr<core::ErrorRateFramework> fw_;
  isa::Program program_{"empty"};
  core::BenchmarkResult result_;
  report::RunReport built_;
};

TEST_F(ReportFixture, BlockAttributionSumsToHeadlineLambda) {
  ASSERT_FALSE(built_.blocks.empty());
  double lambda_sum = 0.0;
  double share_sum = 0.0;
  for (const auto& b : built_.blocks) {
    lambda_sum += b.lambda_mean;
    share_sum += b.share;
  }
  EXPECT_NEAR(lambda_sum, built_.lambda_mean, 1e-9 * std::abs(built_.lambda_mean));
  EXPECT_NEAR(share_sum, 1.0, 1e-9);

  // Opcode error mass is the same decomposition grouped differently.
  double opcode_sum = 0.0;
  for (const auto& oc : built_.opcodes) opcode_sum += oc.error_mass;
  EXPECT_NEAR(opcode_sum, built_.lambda_mean, 1e-9 * std::abs(built_.lambda_mean));
}

TEST_F(ReportFixture, AttributionTablesAreWellFormed) {
  EXPECT_EQ(built_.schema_version, report::kSchemaVersion);
  EXPECT_EQ(built_.program, "pgp.decode");
  EXPECT_EQ(built_.basic_blocks, result_.basic_blocks);
  EXPECT_EQ(built_.rate_mean, result_.estimate.rate_mean());

  // Blocks are sorted heaviest-first and reference real CFG content.
  for (std::size_t i = 1; i < built_.blocks.size(); ++i)
    EXPECT_GE(built_.blocks[i - 1].lambda_mean, built_.blocks[i].lambda_mean);
  for (const auto& b : built_.blocks) {
    ASSERT_LT(b.block, program_.block_count());
    EXPECT_EQ(b.instrs.size(), program_.block(b.block).instructions.size());
    for (const auto& e : b.edges) EXPECT_LT(e.from_block, program_.block_count());
  }

  // One stage entry per pipeline stage; culprits sorted tightest-first.
  EXPECT_EQ(built_.stages.size(), netlist::Pipeline::kStages);
  ASSERT_FALSE(built_.culprits.empty());
  EXPECT_LE(built_.culprits.size(), report::kCulpritPaths);
  for (std::size_t i = 1; i < built_.culprits.size(); ++i)
    EXPECT_LE(built_.culprits[i - 1].slack_mean, built_.culprits[i].slack_mean);

  // The marginal solve visited at least one component.
  EXPECT_GT(built_.solver.scc_count, 0u);
  EXPECT_EQ(built_.mc.enabled, false);
}

TEST_F(ReportFixture, SolverDiagnosticsListEveryExecutedSccInTopologicalOrder) {
  const core::ErrorRateFramework::Artifacts& art = fw_->last();
  const isa::Cfg& cfg = *art.cfg;
  std::vector<std::uint32_t> executed;
  for (const std::uint32_t scc : cfg.scc_topo_order()) {
    const auto& members = cfg.scc_members(scc);
    if (std::any_of(members.begin(), members.end(),
                    [&](isa::BlockId b) { return art.marginals[b].executed; }))
      executed.push_back(scc);
  }
  ASSERT_FALSE(executed.empty());
  ASSERT_EQ(art.sccs.size(), executed.size());
  for (std::size_t i = 0; i < executed.size(); ++i) {
    const core::SccSolveDiag& d = art.sccs[i];
    EXPECT_EQ(d.scc, executed[i]);
    EXPECT_EQ(d.size, cfg.scc_members(d.scc).size());
    EXPECT_EQ(d.cyclic, cfg.scc_is_cyclic(d.scc));
    EXPECT_GE(d.max_residual, 0.0);
    if (!d.cyclic) {
      EXPECT_EQ(d.max_residual, 0.0);  // solved by substitution
    }
    EXPECT_FALSE(d.degraded);
  }
  // The report's solver section summarises the same list.
  EXPECT_EQ(built_.solver.scc_count, art.sccs.size());
}

TEST_F(ReportFixture, JsonRoundTripIsByteStable) {
  std::ostringstream first;
  built_.write_json(first);
  const report::RunReport reread =
      report::RunReport::from_json(report::JsonValue::parse(first.str()));
  std::ostringstream second;
  reread.write_json(second);
  EXPECT_EQ(first.str(), second.str());
}

TEST_F(ReportFixture, FromJsonRejectsWrongKindAndVersion) {
  EXPECT_THROW(report::RunReport::from_json(report::JsonValue::parse("{\"kind\":\"other\"}")),
               std::runtime_error);
  std::ostringstream os;
  built_.write_json(os);
  std::string doc = os.str();
  const std::string needle = "\"schema_version\":1";
  const std::size_t at = doc.find(needle);
  ASSERT_NE(at, std::string::npos);
  doc.replace(at, needle.size(), "\"schema_version\":999");
  EXPECT_THROW(report::RunReport::from_json(report::JsonValue::parse(doc)), std::runtime_error);
}

TEST_F(ReportFixture, RenderMentionsHeadlineAndTables) {
  std::ostringstream os;
  report::write_text(built_, os, 5);
  const std::string text = os.str();
  EXPECT_NE(text.find("run report (schema v1): pgp.decode"), std::string::npos);
  EXPECT_NE(text.find("blocks by error mass"), std::string::npos);
  EXPECT_NE(text.find("culprit paths"), std::string::npos);
  EXPECT_NE(text.find("solver:"), std::string::npos);
}

TEST_F(ReportFixture, DiffAcceptsUnchangedAndFlagsInjectedRegression) {
  const report::DiffResult same = report::diff_reports(built_, built_, {});
  EXPECT_TRUE(same.ok());
  EXPECT_EQ(same.regressions(), 0u);

  report::RunReport worse = built_;
  worse.rate_mean *= 1.10;  // 10% accuracy regression vs 1% tolerance
  const report::DiffResult bad = report::diff_reports(built_, worse, {});
  EXPECT_FALSE(bad.ok());
  EXPECT_GE(bad.regressions(), 1u);
  // Violations sort first and are labelled.
  ASSERT_FALSE(bad.entries.empty());
  EXPECT_TRUE(bad.entries.front().regression);

  // Structural mismatch is an error, not a diff row.
  report::RunReport other = built_;
  other.program = "different";
  EXPECT_THROW(report::diff_reports(built_, other, {}), std::runtime_error);

  // Runtime is not compared: a 10x slower run is no regression.
  report::RunReport slow = built_;
  slow.training_seconds = built_.training_seconds * 10.0 + 1.0;
  EXPECT_TRUE(report::diff_reports(built_, slow, {}).ok());

  std::ostringstream os;
  report::write_diff(bad, os);
  EXPECT_NE(os.str().find("REGRESSION"), std::string::npos);
  EXPECT_NE(os.str().find("FAIL"), std::string::npos);
}

TEST(ReportMonteCarlo, DivergenceDiagnosticIsPopulated) {
  // The trials walk the recorded runs, so the divergence must not depend
  // on the execution scale the estimate is extrapolated to.  Against the
  // scaled count law (1e4, as the CLI uses) it read 1 whatever the model.
  support::set_global_threads(1);
  const auto& spec = spec_named("pgp.encode");
  const isa::Program program = workloads::generate_program(spec);
  auto divergence = [&](double scale) {
    auto cfg = small_config();
    cfg.executor.record_block_trace = true;
    cfg.execution_scale = scale;
    core::ErrorRateFramework fw(pipeline(), cfg);
    report::ReportOptions options;
    options.mc_trials = 200;
    const auto r = fw.analyze(program, workloads::generate_inputs(spec, 2, 7));
    const report::RunReport rep = report::build_report(fw, program, r, options);
    EXPECT_TRUE(rep.mc.enabled);
    EXPECT_EQ(rep.mc.trials, 200u);
    return rep.mc.divergence;
  };
  const double scaled = divergence(1e4);
  EXPECT_EQ(scaled, divergence(1.0));
  EXPECT_GE(scaled, 0.0);
  EXPECT_LT(scaled, 1.0);
}

TEST(TraceExport, FourThreadAnalyzeEmitsParsableEventsWithTids) {
  obs::Tracer::instance().reset();
  obs::Tracer::instance().set_enabled(true);
  support::set_global_threads(4);
  {
    core::ErrorRateFramework fw(pipeline(), small_config());
    const auto& spec = spec_named("pgp.decode");
    (void)fw.analyze(workloads::generate_program(spec),
                     workloads::generate_inputs(spec, 2, 7));
  }
  support::set_global_threads(1);
  obs::Tracer::instance().set_enabled(false);
  std::ostringstream os;
  obs::Tracer::instance().write_chrome_trace(os);

  const report::JsonValue doc = report::JsonValue::parse(os.str());
  const auto& events = doc.at("traceEvents").items();
  ASSERT_FALSE(events.empty());
  for (const auto& e : events) {
    ASSERT_TRUE(e.is_object());
    const report::JsonValue* tid = e.find("tid");
    ASSERT_NE(tid, nullptr);
    EXPECT_TRUE(tid->is_number());
  }
  obs::Tracer::instance().reset();
}

TEST(LocaleIndependentJson, NumbersRoundTripBitExactly) {
  const double values[] = {0.0,   1.0,    -1.0,      3.14,       1.0 / 3.0, 1e-308,
                           1e308, 6.02e23, -2.5e-3,  1300.0,     0.1,       123456789.123456789};
  for (const double v : values) {
    std::ostringstream os;
    obs::json_number(os, v);
    const auto back = obs::parse_double(os.str());
    ASSERT_TRUE(back.has_value()) << os.str();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*back), std::bit_cast<std::uint64_t>(v)) << os.str();
  }
  // Partial and malformed numbers are rejected, not truncated.
  EXPECT_FALSE(obs::parse_double("3.14abc").has_value());
  EXPECT_FALSE(obs::parse_double("").has_value());
  EXPECT_FALSE(obs::parse_double("1,5").has_value());
}

TEST(LocaleIndependentJson, RoundTripsUnderForcedCommaDecimalLocale) {
  const char* candidates[] = {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8", "de_DE"};
  const char* previous = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = previous != nullptr ? previous : "C";
  // Only a locale whose decimal separator really is ',' exercises the
  // regression; a name that silently resolves to '.' proves nothing.
  bool forced = false;
  for (const char* name : candidates) {
    if (std::setlocale(LC_NUMERIC, name) != nullptr &&
        std::localeconv()->decimal_point[0] == ',') {
      forced = true;
      break;
    }
  }
  if (!forced) {
    std::setlocale(LC_NUMERIC, saved.c_str());
    GTEST_SKIP() << "no comma-decimal locale installed in this image";
  }

  // Under the comma locale, the writer must still emit '.' numbers and
  // the parsers must still read them whole — this is the regression for
  // the strtod/%g locale sensitivity in json_value.cpp and obs/json.cpp.
  std::ostringstream os;
  obs::json_number(os, 3.14);
  EXPECT_EQ(os.str(), "3.14");
  EXPECT_EQ(obs::parse_double("3.14").value_or(0.0), 3.14);

  const report::JsonValue doc =
      report::JsonValue::parse("{\"x\":3.14,\"y\":-2.5e-3,\"z\":1300}");
  EXPECT_DOUBLE_EQ(doc.at("x").as_number(), 3.14);
  EXPECT_DOUBLE_EQ(doc.at("y").as_number(), -2.5e-3);

  // A full report round-trip stays bit-exact.
  report::RunReport report;
  report.program = "locale";
  report.rate_mean = 0.123456789e-3;
  report.period_ps = 1300.5;
  std::ostringstream first;
  report.write_json(first);
  const report::RunReport parsed =
      report::RunReport::from_json(report::JsonValue::parse(first.str()));
  std::ostringstream second;
  parsed.write_json(second);
  EXPECT_EQ(first.str(), second.str());

  std::setlocale(LC_NUMERIC, saved.c_str());
}

}  // namespace
}  // namespace terrors
