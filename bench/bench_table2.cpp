// Reproduces Table 2 of the paper: per benchmark, the program size
// (instructions, basic blocks), framework runtime split into training
// (gate-level control-network characterisation) and simulation
// (instrumented architectural execution), the estimated program error
// rate (mean and SD), and the two approximation-error bounds
// d_K(lambda, lambda_bar) (Stein) and d_K(R_E, R_bar_E) (Chen-Stein).
//
// Dynamic instruction counts are Table 2's scaled by --scale (default
// 1e-4); the "Instructions" column reports the extrapolated full-size
// count alongside the simulated one.
#include <cstdio>

#include "bench/common.hpp"
#include "perf/ts_model.hpp"

using namespace terrors;

int main(int argc, char** argv) {
  const auto rs = bench::parse_scale(argc, argv);
  auto cfg = bench::default_config();
  cfg.execution_scale = 1.0 / rs.scale;  // evaluate the bounds at paper scale
  cfg.cache_dir = rs.cache_dir;
  core::ErrorRateFramework framework(bench::pipeline(), cfg);
  const perf::TsProcessorModel ts;

  std::printf("Table 2 — Results, Performance, and Accuracy of the Framework\n");
  std::printf("(working point %.1f MHz, scale %.0e, %zu runs per benchmark, %zu threads)\n\n",
              bench::working_spec().frequency_mhz(), rs.scale, rs.runs, rs.threads);
  std::printf("%-13s %14s %12s %6s | %9s %9s %9s | %8s %8s | %10s %10s | %8s\n", "Benchmark",
              "Instr(paper)", "Instr(sim)", "BBs", "train(s)", "sim(s)", "total(s)", "Mean%",
              "SD%", "dK(lam)", "dK(R_E)", "perf%");
  bench::hr(140);

  double total_train = 0.0;
  double total_sim = 0.0;
  std::uint64_t total_sim_instr = 0;
  std::uint64_t total_paper_instr = 0;
  std::size_t total_blocks = 0;

  for (const auto& spec : workloads::mibench_specs()) {
    if (!rs.only.empty() && spec.name != rs.only) continue;
    const isa::Program program = workloads::generate_program(spec);
    framework.set_executor_config(workloads::executor_config_for(spec, rs.runs, rs.scale));

    const auto inputs = workloads::generate_inputs(spec, rs.runs, /*seed=*/2026);
    const core::BenchmarkResult r = framework.analyze(program, inputs);

    const double mean_pct = 100.0 * r.estimate.rate_mean();
    const double sd_pct = 100.0 * r.estimate.rate_sd();
    std::printf("%-13s %14llu %12llu %6zu | %9.2f %9.3f %9.2f | %8.3f %8.3f | %10.4f %10.4f | %+8.2f\n",
                spec.name.c_str(), static_cast<unsigned long long>(spec.paper_instructions),
                static_cast<unsigned long long>(r.instructions), r.basic_blocks,
                r.training_seconds, r.simulation_seconds,
                r.training_seconds + r.simulation_seconds, mean_pct, sd_pct,
                r.estimate.dk_lambda, r.estimate.dk_count,
                100.0 * ts.performance_improvement(r.estimate.rate_mean()));
    total_train += r.training_seconds;
    total_sim += r.simulation_seconds;
    total_sim_instr += r.instructions;
    total_paper_instr += spec.paper_instructions;
    total_blocks += r.basic_blocks;
  }
  bench::hr(140);
  std::printf("%-13s %14llu %12llu %6zu | %9.2f %9.3f %9.2f |\n", "Total",
              static_cast<unsigned long long>(total_paper_instr),
              static_cast<unsigned long long>(total_sim_instr), total_blocks, total_train,
              total_sim, total_train + total_sim);
  std::printf("\nPaper totals: 5,805,741,497 instructions, 1,240 basic blocks, "
              "3,825 s training + 1,259 s simulation.\n");
  return 0;
}
