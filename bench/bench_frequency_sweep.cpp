// Frequency sweep: error rate and TS performance improvement vs clock
// frequency, for a subset of benchmarks.  Locates the point of first
// failure and the speedup-optimal operating point, reproducing the
// narrative of Section 6.1 (baseline -> PoFF -> working point) and the
// performance top-axis of Figure 3.  Also used to calibrate the default
// working spec in bench/common.hpp.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "perf/ts_model.hpp"

using namespace terrors;

int main(int argc, char** argv) {
  const auto rs = bench::parse_scale(argc, argv, /*takes_all=*/true);
  core::ErrorRateFramework framework(bench::pipeline(), bench::default_config());
  const perf::TsProcessorModel ts;

  // Benchmarks: a light / medium / heavy triple by default.
  std::vector<std::size_t> picks = {3, 0, 11};  // patricia, basicmath, gsm.decode
  if (rs.all) {
    picks.clear();
    for (std::size_t i = 0; i < workloads::mibench_specs().size(); ++i) picks.push_back(i);
  }
  if (!rs.only.empty()) {
    picks.clear();
    for (std::size_t i = 0; i < workloads::mibench_specs().size(); ++i) {
      if (workloads::mibench_specs()[i].name == rs.only) picks.push_back(i);
    }
    if (picks.empty()) {
      std::fprintf(stderr, "unknown benchmark '%s'\n", rs.only.c_str());
      return 1;
    }
  }

  std::printf("Error rate and performance vs frequency (scale %.0e, %zu threads)\n\n", rs.scale,
              rs.threads);
  std::printf("%-10s", "period_ps");
  for (std::size_t i : picks)
    std::printf(" %12s", workloads::mibench_specs()[i].name.c_str());
  std::printf("   (error rate %%, then performance improvement %%)\n");
  bench::hr(100);

  // Program text, input datasets, and executor configs depend only on the
  // workload spec, not the clock period — generate each once, not once per
  // sweep row.
  struct Prepared {
    const workloads::WorkloadSpec* spec;
    isa::Program program;
    std::vector<isa::ProgramInput> inputs;
    isa::ExecutorConfig executor;
  };
  std::vector<Prepared> prepared;
  prepared.reserve(picks.size());
  for (std::size_t i : picks) {
    const auto& spec = workloads::mibench_specs()[i];
    prepared.push_back({&spec, workloads::generate_program(spec),
                        workloads::generate_inputs(spec, rs.runs, 2026),
                        workloads::executor_config_for(spec, rs.runs, rs.scale)});
  }

  const std::vector<double> periods = {1400.0, 1350.0, 1300.0, 1275.0, 1250.0,
                                       1225.0, 1200.0, 1150.0, 1100.0, 1000.0};
  for (double period : periods) {
    framework.set_spec(timing::TimingSpec{period});
    std::printf("%-10.0f", period);
    std::string perf_row;
    for (const auto& p : prepared) {
      framework.set_executor_config(p.executor);
      const auto r = framework.analyze(p.program, p.inputs);
      std::printf(" %12.4f", 100.0 * r.estimate.rate_mean());
      char buf[32];
      std::snprintf(buf, sizeof buf, " %+12.2f", 100.0 * ts.performance_improvement(
                                                             std::min(1.0, r.estimate.rate_mean())));
      perf_row += buf;
    }
    std::printf("   |%s\n", perf_row.c_str());
  }
  return 0;
}
