// Determinism contract of the parallel estimation engine: analyze() must
// be bit-identical, and do the same work, at any thread count (results
// land in pre-sized slots keyed by index; no reduction order depends on
// scheduling), and the thread pool must propagate worker exceptions to
// the caller and stay usable afterwards.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/framework.hpp"
#include "dta/dts_analyzer.hpp"
#include "netlist/pipeline.hpp"
#include "obs/metrics.hpp"
#include "support/thread_pool.hpp"
#include "timing/sta.hpp"
#include "workloads/generator.hpp"
#include "workloads/specs.hpp"

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

/// Work counters that must not depend on the thread count.  Left out:
/// dta.dp_cache_collisions (depends on which worker's memo saw which
/// edge) and the pool.* / cache.* counters.
constexpr const char* kWorkCounters[] = {
    "sim.cycles",           "sim.gate_toggles",      "timing.paths_enumerated",
    "timing.path_expansions", "dta.stage_dts_queries", "dta.edges_characterized",
    "dta.slots_driven",     "dta.dp_fallbacks",      "dta.train_measurements",
    "stat.clark_min_calls", "solver.linear_solves",
};

/// Everything analyze() produces that the determinism contract covers.
struct AnalyzeSnapshot {
  double rate_mean = 0.0;
  double rate_sd = 0.0;
  std::vector<core::BlockMarginals> marginals;
  /// kWorkCounters deltas over framework construction plus analyze().
  std::map<std::string, std::uint64_t> work;
};

AnalyzeSnapshot analyze_with_threads(const workloads::WorkloadSpec& spec, std::size_t threads) {
  support::set_global_threads(threads);
  const isa::Program program = workloads::generate_program(spec);
  const auto inputs = workloads::generate_inputs(spec, 2, 7);
  const obs::MetricsScope scope(obs::MetricsRegistry::instance());
  core::ErrorRateFramework fw(pipeline(), small_config());
  const auto r = fw.analyze(program, inputs);
  AnalyzeSnapshot snap;
  snap.rate_mean = r.estimate.rate_mean();
  snap.rate_sd = r.estimate.rate_sd();
  snap.marginals = fw.last().marginals;
  for (const char* name : kWorkCounters) snap.work[name] = scope.delta(name);
  return snap;
}

/// Exact (bitwise) equality — EXPECT_EQ on doubles is ==, not near.
void expect_identical(const AnalyzeSnapshot& a, const AnalyzeSnapshot& b,
                      std::size_t threads_b) {
  SCOPED_TRACE("threads=" + std::to_string(threads_b) + " vs serial");
  EXPECT_EQ(a.rate_mean, b.rate_mean);
  EXPECT_EQ(a.rate_sd, b.rate_sd);
  ASSERT_EQ(a.marginals.size(), b.marginals.size());
  for (std::size_t i = 0; i < a.marginals.size(); ++i) {
    const auto& ma = a.marginals[i];
    const auto& mb = b.marginals[i];
    EXPECT_EQ(ma.executed, mb.executed);
    EXPECT_EQ(ma.p_in.values(), mb.p_in.values());
    ASSERT_EQ(ma.instr.size(), mb.instr.size());
    for (std::size_t k = 0; k < ma.instr.size(); ++k)
      EXPECT_EQ(ma.instr[k].values(), mb.instr[k].values());
  }
  for (const char* name : kWorkCounters) EXPECT_EQ(a.work.at(name), b.work.at(name)) << name;
}

class AnalyzeDeterminism : public ::testing::TestWithParam<const char*> {
 protected:
  void TearDown() override { support::set_global_threads(1); }
};

TEST_P(AnalyzeDeterminism, BitIdenticalAcrossThreadCounts) {
  const auto& spec = spec_named(GetParam());
  const AnalyzeSnapshot serial = analyze_with_threads(spec, 1);
  for (const char* name : kWorkCounters) EXPECT_GT(serial.work.at(name), 0u) << name;
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const AnalyzeSnapshot parallel = analyze_with_threads(spec, threads);
    expect_identical(serial, parallel, threads);
  }
}

INSTANTIATE_TEST_SUITE_P(TwoWorkloads, AnalyzeDeterminism,
                         ::testing::Values("pgp.encode", "pgp.decode"));

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  support::ThreadPool pool(4);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, 3, [&](std::size_t i, std::size_t worker) {
      ASSERT_LT(worker, pool.size());
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, SerialPoolRunsInOrderInline) {
  support::ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(64, [&](std::size_t i, std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);  // no lock needed: inline execution
  });
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, PropagatesExceptionsAndStaysUsable) {
  support::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i, std::size_t) {
                          if (i == 37) throw std::runtime_error("boom at 37");
                        }),
      std::runtime_error);

  // The pool must have quiesced: the next loop runs normally.
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(100, [&](std::size_t i, std::size_t) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 4950u);

  // Serial pools rethrow too (inline path).
  support::ThreadPool serial(1);
  EXPECT_THROW(serial.parallel_for(
                   10, [&](std::size_t i, std::size_t) {
                     if (i == 3) throw std::logic_error("serial boom");
                   }),
               std::logic_error);
}

TEST(ThreadPool, GlobalPoolResizesLazily) {
  support::set_global_threads(3);
  EXPECT_EQ(support::global_pool().size(), 3u);
  EXPECT_EQ(support::global_threads(), 3u);
  support::set_global_threads(1);
  EXPECT_EQ(support::global_pool().size(), 1u);
}

TEST(CycleActivation, ConcurrentArrivalsInitIsSafeAndConsistent) {
  // Regression: arrivals() lazily builds the activated-subgraph table;
  // concurrent first calls from several threads must produce one
  // consistent table (call_once), not a torn vector.
  const auto& nl = pipeline().netlist;
  dta::CycleActivation cycle(nl, std::vector<std::uint8_t>(nl.size(), 1));
  const std::vector<double> expected = timing::activated_arrivals(
      nl, std::vector<std::uint8_t>(nl.size(), 1));

  std::vector<std::thread> threads;
  std::vector<const std::vector<double>*> seen(8, nullptr);
  for (std::size_t t = 0; t < seen.size(); ++t)
    threads.emplace_back([&, t] { seen[t] = &cycle.arrivals(); });
  for (auto& th : threads) th.join();

  for (const auto* arr : seen) {
    ASSERT_NE(arr, nullptr);
    EXPECT_EQ(*arr, expected);
    EXPECT_EQ(arr, seen[0]);  // everyone saw the same cached table
  }
}

}  // namespace
}  // namespace terrors
