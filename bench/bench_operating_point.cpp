// Reproduces the Section 6.1 experimental setup numbers for our synthetic
// design: the guardbanded SSTA baseline frequency, the point of first
// failure (PoFF), the chosen working frequency, and the frequency ratios
// (the paper reports 718 MHz baseline, 810 MHz PoFF = 1.13x, and an
// 825 MHz = 1.15x working point for its 45nm LEON3 build).
//
// The dynamic worst arrival comes from the trained datapath model applied
// to the operand contexts the 12 workloads actually produce, plus the
// control network's worst observed activated path.
#include <algorithm>
#include <cstdio>

#include "bench/common.hpp"
#include "dta/datapath_model.hpp"
#include "isa/cfg.hpp"
#include "isa/executor.hpp"
#include "timing/sta.hpp"
#include "timing/variation.hpp"

using namespace terrors;

int main(int argc, char** argv) {
  const auto rs = bench::parse_scale(argc, argv);
  const auto& pipe = bench::pipeline();
  const timing::VariationModel vm(pipe.netlist, {});
  const timing::Sta sta(pipe.netlist);

  // Static worst arrival over all endpoints (the STA signoff view).
  double static_worst = 0.0;
  for (std::uint8_t s = 0; s < netlist::Pipeline::kStages; ++s)
    for (auto e : pipe.netlist.stage_endpoints(s))
      static_worst = std::max(static_worst, sta.endpoint_arrival(e));

  // Dynamic worst arrival: run a calibration slice of every workload and
  // apply the datapath model to each sampled EX context.
  const dta::DatapathModel model = dta::DatapathModel::train(pipe, vm);
  double dynamic_worst = 0.0;
  double dyn_sum = 0.0;
  std::size_t dyn_n = 0;
  for (const auto& spec : workloads::mibench_specs()) {
    const isa::Program program = workloads::generate_program(spec);
    const isa::Cfg cfg(program);
    auto ex_cfg = workloads::executor_config_for(spec, rs.runs, rs.scale / 4.0);
    isa::Executor ex(program, cfg, ex_cfg);
    for (const auto& in : workloads::generate_inputs(spec, rs.runs, 42)) ex.run(in);
    for (const auto& bp : ex.profile().blocks) {
      auto scan = [&](const isa::EdgeSamples& es) {
        for (const auto& s : es.samples) {
          for (const auto& ctx : s.instrs) {
            const auto arr = model.ex_arrival(ctx.cur, ctx.prev);
            if (!arr.has_value()) continue;
            dynamic_worst = std::max(dynamic_worst, arr->slack.mean);
            dyn_sum += arr->slack.mean;
            ++dyn_n;
          }
        }
      };
      scan(bp.entry_samples);
      for (const auto& es : bp.edge_samples) scan(es);
    }
  }

  const double sd_frac = timing::kGateDelaySigma;
  const auto op = perf::derive_operating_points(static_worst, sd_frac * static_worst * 0.4,
                                                dynamic_worst, netlist::kSetupTimePs);
  const perf::TsProcessorModel ts;

  std::printf("Operating point derivation (Section 6.1 analogue)\n");
  bench::hr(60);
  std::printf("  gates                      : %zu\n", pipe.netlist.stats().gates);
  std::printf("  static worst arrival       : %8.1f ps\n", static_worst);
  std::printf("  dynamic worst arrival      : %8.1f ps\n", dynamic_worst);
  std::printf("  mean activated EX arrival  : %8.1f ps  (%zu contexts)\n",
              dyn_n > 0 ? dyn_sum / static_cast<double>(dyn_n) : 0.0, dyn_n);
  std::printf("  baseline frequency         : %8.1f MHz\n", op.baseline_mhz);
  std::printf("  point of first failure     : %8.1f MHz  (%.2fx baseline; paper: 1.13x)\n",
              op.poff_mhz, op.poff_mhz / op.baseline_mhz);
  std::printf("  working frequency          : %8.1f MHz  (%.2fx baseline; paper: 1.15x)\n",
              op.working_mhz, op.working_mhz / op.baseline_mhz);
  std::printf("  configured working spec    : %8.1f MHz (period %.1f ps)\n",
              bench::working_spec().frequency_mhz(), bench::working_spec().period_ps);
  std::printf("  break-even error rate      : %8.4f %%\n", 100.0 * ts.break_even_error_rate());
  std::printf("  published mapping checks   : 0.4%% -> %+.2f%%  (paper +4.93%%)\n",
              100.0 * ts.performance_improvement(0.004));
  std::printf("                               1.068%% -> %+.2f%% (paper -8.46%%)\n",
              100.0 * ts.performance_improvement(0.01068));
  return 0;
}
