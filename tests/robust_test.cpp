// Tests for the robustness layer (DESIGN §5f): the typed error taxonomy,
// the deterministic fault-injection harness, and the graceful-degradation
// contracts (cache faults keep bit-identity, solver fallback stays finite
// and flagged, worker retries reproduce the serial result exactly).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "core/marginal.hpp"
#include "netlist/pipeline.hpp"
#include "obs/metrics.hpp"
#include "report/json_value.hpp"
#include "robust/degrade.hpp"
#include "robust/doctor.hpp"
#include "robust/error.hpp"
#include "robust/fault_injection.hpp"
#include "robust/hooks.hpp"
#include "robust/parse.hpp"
#include "support/thread_pool.hpp"
#include "timing/variation.hpp"
#include "workloads/generator.hpp"
#include "workloads/specs.hpp"

namespace terrors {
namespace {

namespace fs = std::filesystem;

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

/// Every test leaves the process clean: no armed plan, serial pool.
struct RobustTest : ::testing::Test {
  void TearDown() override {
    robust::FaultInjector::instance().disarm();
    support::set_global_threads(1);
  }
};

// --- error taxonomy ----------------------------------------------------------

TEST(ErrorTaxonomy, CategoriesRenderAndExit) {
  EXPECT_EQ(robust::category_name(robust::Category::kInput), "input");
  EXPECT_EQ(robust::category_name(robust::Category::kArtifact), "artifact");
  EXPECT_EQ(robust::exit_code_for(robust::Category::kInput), 3);
  EXPECT_EQ(robust::exit_code_for(robust::Category::kArtifact), 4);
  EXPECT_EQ(robust::exit_code_for(robust::Category::kNumerical), 5);
  EXPECT_EQ(robust::exit_code_for(robust::Category::kResource), 6);
  EXPECT_EQ(robust::exit_code_for(robust::Category::kInternal), 7);
}

TEST(ErrorTaxonomy, WrapChainsContextAndKeepsCategory) {
  const robust::Error inner(robust::Category::kArtifact, "checksum mismatch");
  const robust::Error outer = robust::Error::wrap("decode control tables", inner);
  EXPECT_EQ(outer.category(), robust::Category::kArtifact);  // context keeps kind
  EXPECT_EQ(outer.message(), "decode control tables");
  ASSERT_EQ(outer.chain().size(), 2u);
  EXPECT_EQ(outer.chain()[1], "checksum mismatch");
  EXPECT_EQ(outer.render(), "[artifact] decode control tables: caused by: checksum mismatch");
  EXPECT_STREQ(outer.what(), outer.render().c_str());

  // A foreign exception gets the fallback category.
  const std::runtime_error plain("disk on fire");
  const robust::Error wrapped =
      robust::Error::wrap("store artifact", plain, robust::Category::kResource);
  EXPECT_EQ(wrapped.category(), robust::Category::kResource);
  EXPECT_EQ(wrapped.chain().back(), "disk on fire");
}

TEST(ErrorTaxonomy, ClassifyMapsForeignExceptions) {
  EXPECT_EQ(robust::classify(robust::Error(robust::Category::kNumerical, "x")),
            robust::Category::kNumerical);
  EXPECT_EQ(robust::classify(std::invalid_argument("bad flag")), robust::Category::kInput);
  EXPECT_EQ(robust::classify(std::runtime_error("??")), robust::Category::kInternal);
}

// --- fault plan grammar ------------------------------------------------------

TEST(FaultPlan, ParsesEntriesAndOptions) {
  const robust::FaultPlan plan = robust::FaultPlan::parse(
      "cache.read:nth=3 io.write:prob=0.01:seed=7, solver.pivot:scc=0\npool.task:key=5:count=2");
  ASSERT_EQ(plan.specs().size(), 4u);
  EXPECT_EQ(plan.specs()[0].site, "cache.read");
  EXPECT_EQ(plan.specs()[0].nth, 3u);
  EXPECT_EQ(plan.specs()[1].site, "io.write");
  EXPECT_DOUBLE_EQ(plan.specs()[1].prob, 0.01);
  EXPECT_EQ(plan.specs()[1].seed, 7u);
  ASSERT_TRUE(plan.specs()[2].key.has_value());
  EXPECT_EQ(*plan.specs()[2].key, 0u);
  EXPECT_EQ(plan.specs()[3].max_fires, 2u);
  EXPECT_TRUE(robust::FaultPlan::parse("").empty());
  EXPECT_TRUE(robust::FaultPlan::parse("  ,\n ").empty());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  const auto parse_category = [](const char* spec) {
    try {
      (void)robust::FaultPlan::parse(spec);
    } catch (const robust::Error& e) {
      return e.category();
    }
    ADD_FAILURE() << "no throw for: " << spec;
    return robust::Category::kInternal;
  };
  EXPECT_EQ(parse_category("cache.reed:nth=1"), robust::Category::kInput);  // unknown site
  EXPECT_EQ(parse_category("cache.read:often=1"), robust::Category::kInput);  // unknown option
  EXPECT_EQ(parse_category("cache.read:nth=zero"), robust::Category::kInput);  // bad number
  EXPECT_EQ(parse_category("cache.read:nth=0"), robust::Category::kInput);  // 1-based
  EXPECT_EQ(parse_category("cache.read:seed=9"), robust::Category::kInput);  // no trigger
  EXPECT_EQ(parse_category("cache.read"), robust::Category::kInput);  // no trigger
  EXPECT_EQ(parse_category("cache.read:key=2"), robust::Category::kInput);  // not keyed
}

TEST_F(RobustTest, NthAndCountFireDeterministically) {
  robust::FaultInjector::instance().arm(robust::FaultPlan::parse("cache.read:nth=2"));
  EXPECT_NO_THROW(robust::maybe_fault("cache.read"));  // occurrence 1
  EXPECT_THROW(robust::maybe_fault("cache.read"), robust::Error);  // occurrence 2
  EXPECT_NO_THROW(robust::maybe_fault("cache.read"));  // occurrence 3

  robust::FaultInjector::instance().arm(robust::FaultPlan::parse("io.write:prob=1:count=1"));
  EXPECT_THROW(robust::maybe_fault("io.write"), robust::Error);
  EXPECT_NO_THROW(robust::maybe_fault("io.write"));  // budget spent
  EXPECT_EQ(robust::FaultInjector::instance().fires(), 1u);
}

TEST_F(RobustTest, ProbabilisticFiresAreSeedReproducible) {
  auto pattern = [](const char* spec) {
    robust::FaultInjector::instance().arm(robust::FaultPlan::parse(spec));
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i)
      fires.push_back(robust::FaultInjector::instance().should_fire("cache.read"));
    return fires;
  };
  const std::vector<bool> a = pattern("cache.read:prob=0.25:seed=11");
  const std::vector<bool> b = pattern("cache.read:prob=0.25:seed=11");
  const std::vector<bool> c = pattern("cache.read:prob=0.25:seed=12");
  EXPECT_EQ(a, b);  // same seed, same occurrence sequence
  EXPECT_NE(a, c);  // a different stream
  const auto fired = static_cast<double>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired, 200 * 0.25 * 0.4);  // crude sanity band on the rate
  EXPECT_LT(fired, 200 * 0.25 * 2.5);
}

TEST_F(RobustTest, InjectedErrorsCarrySiteCategory) {
  robust::FaultInjector::instance().arm(robust::FaultPlan::parse("report.read:nth=1"));
  try {
    robust::maybe_fault("report.read");
    FAIL() << "expected throw";
  } catch (const robust::Error& e) {
    EXPECT_EQ(e.category(), robust::Category::kInput);
    EXPECT_NE(std::string(e.what()).find("injected fault at report.read"), std::string::npos);
  }
}

// --- JSON depth limit --------------------------------------------------------

TEST(JsonDepth, TenThousandLevelsIsACleanParseError) {
  // Before the depth limit this recursed 10k frames deep; now it must be a
  // typed kInput error well before the stack is at risk.
  const std::string deep_array(10000, '[');
  std::string deep_object;
  for (int i = 0; i < 10000; ++i) deep_object += "{\"k\":";
  for (const std::string& doc : {deep_array, deep_object}) {
    try {
      (void)report::JsonValue::parse(doc);
      FAIL() << "expected throw";
    } catch (const robust::Error& e) {
      EXPECT_EQ(e.category(), robust::Category::kInput);
      EXPECT_NE(std::string(e.what()).find("nesting deeper"), std::string::npos);
    }
  }
  // A document at a sane depth still parses.
  EXPECT_NO_THROW((void)report::JsonValue::parse("[[[[[[[[[[42]]]]]]]]]]"));
}

// --- degradation contracts ---------------------------------------------------

const netlist::Pipeline& pipeline() {
  static const netlist::Pipeline p = netlist::build_pipeline({});
  return p;
}

core::BenchmarkResult run_analyze(const std::string& cache_dir) {
  const auto& spec = workloads::mibench_specs()[3];  // patricia: smallest
  core::FrameworkConfig cfg;
  cfg.spec = timing::TimingSpec{1300.0};
  cfg.executor.max_instructions = 6000;
  cfg.error_model.mixed_samples = 32;
  cfg.cache_dir = cache_dir;
  core::ErrorRateFramework fw(pipeline(), cfg);
  return fw.analyze(workloads::generate_program(spec), workloads::generate_inputs(spec, 2, 7));
}

void expect_same_estimate(const core::BenchmarkResult& a, const core::BenchmarkResult& b) {
  EXPECT_EQ(a.estimate.rate_mean(), b.estimate.rate_mean());
  EXPECT_EQ(a.estimate.rate_sd(), b.estimate.rate_sd());
  EXPECT_EQ(a.estimate.dk_lambda, b.estimate.dk_lambda);
  EXPECT_EQ(a.estimate.dk_count, b.estimate.dk_count);
}

/// Fresh, unique, self-cleaning directory per test.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("terrors_robust_test_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

TEST_F(RobustTest, EveryCacheReadFaultingKeepsWarmRunBitIdentical) {
  const TempDir dir("cache_read");
  const core::BenchmarkResult cold = run_analyze(dir.path.string());
  EXPECT_FALSE(cold.degraded);

  const std::uint64_t degraded_before = counter("robust.degraded");
  robust::FaultInjector::instance().arm(robust::FaultPlan::parse("cache.read:prob=1"));
  const core::BenchmarkResult warm = run_analyze(dir.path.string());
  robust::FaultInjector::instance().disarm();

  // Degraded, recomputed — and byte-for-byte the same estimate.
  expect_same_estimate(cold, warm);
  EXPECT_TRUE(warm.degraded);
  ASSERT_FALSE(warm.degraded_sites.empty());
  EXPECT_EQ(warm.degraded_sites.front(), "cache");
  EXPECT_EQ(warm.cache_hits, 0u);
  EXPECT_GT(counter("robust.degraded"), degraded_before);
  EXPECT_GT(counter("robust.degraded.cache"), 0u);
}

TEST_F(RobustTest, UnwritableCacheDirDegradesButAnalyzeSucceeds) {
  // The cache "directory" is a regular file, so every temp-file open fails
  // no matter which user runs the test (root ignores mode bits).
  const TempDir dir("unwritable");
  const fs::path bogus = dir.path / "cachedir";
  std::ofstream(bogus).put('x');

  const std::uint64_t store_errors_before = counter("cache.store_errors");
  const core::BenchmarkResult r = run_analyze(bogus.string());
  EXPECT_TRUE(std::isfinite(r.estimate.rate_mean()));
  EXPECT_GT(counter("cache.store_errors"), store_errors_before);
  EXPECT_TRUE(r.degraded);
  ASSERT_FALSE(r.degraded_sites.empty());
  EXPECT_EQ(r.degraded_sites.front(), "cache");
}

TEST_F(RobustTest, SolverFallbackIsFiniteAndFlagged) {
  // Healthy diagonally dominant system: direct solve, not degraded.
  core::SparseLu lu;
  const core::RobustSolveResult healthy = core::solve_scc_robust(
      lu, core::SparseMatrix::from_dense({4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0}, 3),
      {6.0, 10.0, 7.0});
  EXPECT_FALSE(healthy.degraded);
  EXPECT_LE(healthy.residual, 1e-9);

  // Singular system: refinement cannot help; the bounded fixed point must
  // produce a finite, clamped, flagged answer.
  const core::RobustSolveResult singular = core::solve_scc_robust(
      lu, core::SparseMatrix::from_dense({1.0, 1.0, 1.0, 1.0}, 2), {0.5, 0.5});
  EXPECT_TRUE(singular.degraded);
  for (const double v : singular.x) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST_F(RobustTest, InjectedPivotFaultFallsBackNearExactly) {
  // A x = b with ||I - A|| = 0.5: the fixed-point fallback converges, so
  // the degraded answer agrees with the direct solve to solver tolerance.
  const auto a = core::SparseMatrix::from_dense({1.25, -0.25, -0.25, 1.25}, 2);
  const std::vector<double> b = {1.0, 0.5};
  core::SparseLu lu;
  const core::RobustSolveResult direct = core::solve_scc_robust(lu, a, b);
  ASSERT_FALSE(direct.degraded);

  robust::FaultInjector::instance().arm(robust::FaultPlan::parse("solver.pivot:scc=3"));
  const core::RobustSolveResult unfired = core::solve_scc_robust(lu, a, b, 7);
  EXPECT_FALSE(unfired.degraded);  // plan names SCC 3, key 7 passes through
  const core::RobustSolveResult faulted = core::solve_scc_robust(lu, a, b, 3);
  robust::FaultInjector::instance().disarm();

  EXPECT_TRUE(faulted.degraded);
  ASSERT_EQ(faulted.x.size(), direct.x.size());
  for (std::size_t i = 0; i < direct.x.size(); ++i) {
    EXPECT_TRUE(std::isfinite(faulted.x[i]));
    EXPECT_NEAR(faulted.x[i], direct.x[i], 1e-9);
  }
}

TEST_F(RobustTest, PivotFaultsThroughAnalyzeStayFiniteAndFlagged) {
  const core::BenchmarkResult baseline = run_analyze("");
  const std::uint64_t fallbacks_before = counter("solver.fixed_point_fallbacks");

  robust::FaultInjector::instance().arm(robust::FaultPlan::parse("solver.pivot:prob=1"));
  const core::BenchmarkResult r = run_analyze("");
  robust::FaultInjector::instance().disarm();

  EXPECT_TRUE(std::isfinite(r.estimate.rate_mean()));
  EXPECT_GE(r.estimate.rate_mean(), 0.0);
  EXPECT_LE(r.estimate.rate_mean(), 1.0);
  if (counter("solver.fixed_point_fallbacks") > fallbacks_before) {
    // The workload has cyclic SCCs; every pivot faulted, so the run must
    // say it served fallback results.
    EXPECT_TRUE(r.degraded);
    ASSERT_FALSE(r.degraded_sites.empty());
    EXPECT_EQ(r.degraded_sites.front(), "solver");
  } else {
    expect_same_estimate(baseline, r);  // nothing cyclic: bit-identical
  }
}

TEST_F(RobustTest, WorkerRetryReproducesSerialResultExactly) {
  // Pool-level contract: a task whose entry faults is retried serially and
  // the result array is exactly what an unfaulted run produces, at any
  // thread count.
  robust::install_pool_hooks();
  const auto run_loop = [](std::size_t threads) {
    support::set_global_threads(threads);
    std::vector<std::uint64_t> slots(64, 0);
    support::global_pool().parallel_for(slots.size(), [&](std::size_t i, std::size_t) {
      slots[i] = i * 3 + 1;
    });
    return slots;
  };
  const std::vector<std::uint64_t> baseline = run_loop(1);

  robust::DegradationLog::instance().begin_run();
  const std::uint64_t retries_before = counter("pool.task_retries");
  robust::FaultInjector::instance().arm(robust::FaultPlan::parse("pool.task:key=2"));
  const std::vector<std::uint64_t> serial = run_loop(1);
  EXPECT_EQ(counter("pool.task_retries"), retries_before + 1);

  robust::FaultInjector::instance().arm(robust::FaultPlan::parse("pool.task:key=2"));
  const std::vector<std::uint64_t> parallel = run_loop(4);
  robust::FaultInjector::instance().disarm();
  support::set_global_threads(1);

  EXPECT_EQ(baseline, serial);
  EXPECT_EQ(baseline, parallel);
  EXPECT_EQ(counter("pool.task_retries"), retries_before + 2);
  EXPECT_TRUE(robust::DegradationLog::instance().degraded());
  const std::vector<std::string> sites = robust::DegradationLog::instance().sites();
  ASSERT_FALSE(sites.empty());
  EXPECT_EQ(sites.front(), "pool");
}

TEST_F(RobustTest, WorkerFaultsThroughAnalyzeKeepBitIdentity) {
  const core::BenchmarkResult baseline = run_analyze("");

  // At 4 threads the characterizer fans out over the pool, so pool.task
  // faults fire mid-analyze; the retried run must still match the serial
  // unfaulted baseline exactly.
  support::set_global_threads(4);
  robust::FaultInjector::instance().arm(robust::FaultPlan::parse("pool.task:key=2"));
  const core::BenchmarkResult faulted = run_analyze("");
  robust::FaultInjector::instance().disarm();
  support::set_global_threads(1);

  expect_same_estimate(baseline, faulted);
  EXPECT_TRUE(faulted.degraded);
  ASSERT_FALSE(faulted.degraded_sites.empty());
  EXPECT_EQ(faulted.degraded_sites.front(), "pool");
}

TEST_F(RobustTest, DegradationLogKeepsTheFirstDetailPerSite) {
  // The entries are what `terrors analyze` prints as warnings.
  robust::DegradationLog& log = robust::DegradationLog::instance();
  log.begin_run();
  robust::note_degraded("solver", "first solver detail");
  robust::note_degraded("cache", "first cache detail");
  robust::note_degraded("solver", "second solver detail");

  const std::vector<robust::DegradationLog::Entry> entries = log.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].site, "solver");
  EXPECT_EQ(entries[0].detail, "first solver detail");
  EXPECT_EQ(entries[0].events, 2u);
  EXPECT_EQ(entries[1].site, "cache");
  EXPECT_EQ(entries[1].detail, "first cache detail");
  EXPECT_EQ(entries[1].events, 1u);
  EXPECT_EQ(log.sites(), (std::vector<std::string>{"cache", "solver"}));

  log.begin_run();
  EXPECT_TRUE(log.entries().empty());
  EXPECT_FALSE(log.degraded());
}

TEST_F(RobustTest, EmptyPlanLeavesResultsUndegraded) {
  const core::BenchmarkResult r = run_analyze("");
  EXPECT_FALSE(r.degraded);
  EXPECT_TRUE(r.degraded_sites.empty());
}

// --- doctor ------------------------------------------------------------------

TEST_F(RobustTest, DoctorPassesInAHealthyEnvironment) {
  const TempDir dir("doctor");
  robust::DoctorOptions options;
  options.cache_dir = dir.path.string();
  const robust::DoctorReport report = robust::run_doctor(options);
  for (const auto& f : report.findings) {
    EXPECT_TRUE(f.ok) << f.check << ": " << f.detail;
  }
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.exit_code(), 0);
  ASSERT_EQ(report.findings.size(), 4u);  // cache, pool, solver, analysis
}

// --- checked flag parsing ----------------------------------------------------

TEST(CheckedFlagParsing, RejectsGarbageNegativesAndTrailingJunkWithTypedErrors) {
  struct Case {
    const char* value;
    bool ok_uint;
    bool ok_double;
  };
  const Case cases[] = {
      {"12", true, true},     {"0", true, true},       {"1300.5", false, true},
      {"abc", false, false},  {"-3", false, true},     {"12abc", false, false},
      {"1e3", false, true},   {"", false, false},      {" 12", false, false},
      {"0x10", false, false}, {"99999999999999999999", false, true},
      {"nan", false, false},  {"inf", false, false},
  };
  for (const Case& c : cases) {
    if (c.ok_uint) {
      EXPECT_NO_THROW((void)robust::parse_uint_arg("--runs", c.value)) << c.value;
    } else {
      try {
        (void)robust::parse_uint_arg("--runs", c.value);
        ADD_FAILURE() << "uint accepted: '" << c.value << "'";
      } catch (const robust::Error& e) {
        EXPECT_EQ(e.category(), robust::Category::kInput) << c.value;
        // The message names the flag and the offending value.
        EXPECT_NE(std::string(e.what()).find("--runs"), std::string::npos);
        EXPECT_EQ(robust::exit_code_for(e.category()), 3);
      }
    }
    if (c.ok_double) {
      EXPECT_NO_THROW((void)robust::parse_double_arg("--period", c.value)) << c.value;
    } else {
      try {
        (void)robust::parse_double_arg("--period", c.value);
        ADD_FAILURE() << "double accepted: '" << c.value << "'";
      } catch (const robust::Error& e) {
        EXPECT_EQ(e.category(), robust::Category::kInput) << c.value;
        EXPECT_NE(std::string(e.what()).find("--period"), std::string::npos);
      }
    }
  }
  // Values parse exactly, and negatives never wrap into huge unsigneds.
  EXPECT_EQ(robust::parse_uint_arg("--runs", "18446744073709551615"),
            18446744073709551615ull);
  EXPECT_DOUBLE_EQ(robust::parse_double_arg("--scale", "1e-4"), 1e-4);
}

}  // namespace
}  // namespace terrors
