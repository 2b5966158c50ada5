// The traced replay must reproduce an untraced analyze bit for bit: on a
// cold call it characterises, on a warm call it reads the artifact cache.
// Runs pgp.encode (49 blocks), the smallest Table 2 program.
//
//   ctest --test-dir .bench_build/perfbench
#include <cstdio>
#include <filesystem>
#include <string>

#include "core/framework.hpp"
#include "netlist/pipeline.hpp"
#include "replay.hpp"
#include "workloads/generator.hpp"
#include "workloads/specs.hpp"

using namespace terrors;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

}  // namespace

int main() {
  const workloads::WorkloadSpec* spec = nullptr;
  for (const auto& s : workloads::mibench_specs()) {
    if (s.name == "pgp.encode") spec = &s;
  }
  if (spec == nullptr) {
    std::printf("FAIL: pgp.encode spec missing\n");
    return 1;
  }
  const isa::Program program = workloads::generate_program(*spec);
  const auto inputs = workloads::generate_inputs(*spec, 4, 2026);
  const netlist::Pipeline pipeline = netlist::build_pipeline({});

  const std::string cache_dir =
      (std::filesystem::current_path() / "replay-test-cache").string();
  std::filesystem::remove_all(cache_dir);

  core::FrameworkConfig cfg;
  cfg.spec = timing::TimingSpec{1300.0};
  cfg.execution_scale = 1e4;
  cfg.cache_dir = cache_dir;
  core::ErrorRateFramework framework(pipeline, cfg);
  framework.set_executor_config(workloads::executor_config_for(*spec, 4, 1e-4));

  perfbench::SpanLog spans;
  perfbench::Replayer replayer(framework, spans);

  const core::BenchmarkResult cold = framework.analyze(program, inputs);
  const perfbench::ReplayResult replayed = replayer.replay(program, inputs);
  expect(!replayed.control_from_cache, "cold replay characterises");
  expect(replayed.instructions == cold.instructions, "replayed instruction count");
  expect(perfbench::same_control(replayed.control, framework.last().control),
         "cold replay control tables equal last().control");
  expect(perfbench::same_estimate(replayed.estimate, cold.estimate),
         "cold replay estimate equals the untraced estimate");

  const auto busy = spans.busy_seconds();
  for (const char* name : {"replay", "isa.run", "timing.paths_warm", "dta.fetch_build",
                           "sim.drive", "timing.arrivals", "dta.stage_dts", "core.error_model",
                           "core.marginal", "core.estimate"}) {
    const auto it = busy.find(name);
    expect(it != busy.end() && it->second > 0.0, name);
  }

  const core::BenchmarkResult warm = framework.analyze(program, inputs);
  expect(warm.cache_hits > 0, "second analyze reads the cache");
  expect(perfbench::same_estimate(warm.estimate, cold.estimate), "warm estimate equals cold");
  const perfbench::ReplayResult warm_replay = replayer.replay(program, inputs, cache_dir);
  expect(warm_replay.control_from_cache, "warm replay reads the cache");
  expect(perfbench::same_control(warm_replay.control, framework.last().control),
         "warm replay control tables equal last().control");
  expect(perfbench::same_estimate(warm_replay.estimate, warm.estimate),
         "warm replay estimate equals the untraced estimate");

  // A changed table must be caught.
  auto tampered = replayed.control;
  for (auto& block : tampered) {
    if (!block.entry.instr.empty() && block.entry.instr.front()) {
      block.entry.instr.front()->slack.mean += 1e-9;
      break;
    }
  }
  expect(!perfbench::same_control(tampered, replayed.control), "a perturbed table differs");

  std::filesystem::remove_all(cache_dir);
  std::printf("%s\n", failures == 0 ? "PASS" : "FAILED");
  return failures == 0 ? 0 : 1;
}
