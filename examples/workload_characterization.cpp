// Workload characterisation: where do a program's timing errors come from?
//
//   $ ./examples/workload_characterization [benchmark-name]
//
// Runs the framework on one of the MiBench-like workloads and reads the
// answer from its run report (report::build_report, the record that
// `terrors analyze --report` writes): the estimated error rate broken down
// by opcode, the hottest instructions with their conditional
// probabilities (p^c vs p^e), and the edge-activation profile of the
// block with the most error mass — the raw material of the paper's
// Section 4.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/framework.hpp"
#include "netlist/pipeline.hpp"
#include "report/attribution.hpp"
#include "workloads/generator.hpp"
#include "workloads/specs.hpp"

using namespace terrors;

int main(int argc, char** argv) {
  const char* wanted = argc > 1 ? argv[1] : "gsm.decode";
  const workloads::WorkloadSpec* spec = nullptr;
  for (const auto& s : workloads::mibench_specs()) {
    if (s.name == wanted) spec = &s;
  }
  if (spec == nullptr) {
    std::printf("unknown benchmark '%s'; available:\n", wanted);
    for (const auto& s : workloads::mibench_specs()) std::printf("  %s\n", s.name.c_str());
    return 1;
  }

  const netlist::Pipeline pipeline = netlist::build_pipeline({});
  core::FrameworkConfig config;
  config.spec = timing::TimingSpec{1300.0};
  core::ErrorRateFramework framework(pipeline, config);
  framework.set_executor_config(workloads::executor_config_for(*spec, 4, 1e-4));

  const isa::Program program = workloads::generate_program(*spec);
  const auto result =
      framework.analyze(program, workloads::generate_inputs(*spec, 4, 2026));
  const report::RunReport r = report::build_report(framework, program, result);

  std::printf("%s (%s): %zu basic blocks, %llu simulated instructions\n", r.program.c_str(),
              std::string(workloads::category_name(spec->category)).c_str(), r.basic_blocks,
              static_cast<unsigned long long>(r.instructions));
  std::printf("error rate %.4f %% (SD %.4f %%)\n\n", 100.0 * r.rate_mean, 100.0 * r.rate_sd);

  // --- per-opcode breakdown (heaviest first) ---------------------------------
  std::printf("error contribution by opcode:\n");
  for (const auto& oc : r.opcodes) {
    if (oc.share < 0.005) break;
    std::printf("  %-5s %6.2f %%\n", oc.mnemonic.c_str(), 100.0 * oc.share);
  }

  // --- hottest instructions --------------------------------------------------
  // An instruction's error mass is its block's executions per run times
  // its marginal error probability; the masses sum to lambda.
  struct Hot {
    double mass;
    const report::BlockAttribution* block;
    std::size_t k;
  };
  std::vector<Hot> hot;
  for (const auto& b : r.blocks) {
    for (std::size_t k = 0; k < b.instrs.size(); ++k)
      hot.push_back({b.exec_weight * b.instrs[k].marginal_mean, &b, k});
  }
  std::stable_sort(hot.begin(), hot.end(),
                   [](const Hot& a, const Hot& b) { return a.mass > b.mass; });
  std::printf("\nhottest instructions (share, block.slot, opcode, p^c mean, p^e mean):\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(8, hot.size()); ++i) {
    const auto& h = hot[i];
    if (h.mass <= 0.0) break;
    const auto& in = h.block->instrs[h.k];
    char site[32];
    std::snprintf(site, sizeof site, "B%u.%zu", h.block->block, h.k);
    std::printf("  %5.1f %%  %-8s %-5s p^c=%.2e p^e=%.2e\n", 100.0 * h.mass / r.lambda_mean,
                site, in.mnemonic.c_str(), in.p_correct_mean, in.p_error_mean);
  }

  // --- edge profile of the block with the most error mass --------------------
  if (!r.blocks.empty()) {
    const auto& b = r.blocks.front();
    std::printf("\nedge-activation profile of block B%u (%.1f %% of lambda, %llu executions):\n",
                b.block, 100.0 * b.share, static_cast<unsigned long long>(b.executions));
    for (const auto& e : b.edges) {
      std::printf("  from B%-4u : %6llu traversals, p^a = %.3f\n", e.from_block,
                  static_cast<unsigned long long>(e.traversals), e.activation);
    }
  }
  return 0;
}
