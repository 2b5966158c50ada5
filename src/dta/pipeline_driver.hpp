// Drives the gate-level pipeline netlist with an instruction stream,
// producing per-cycle activation records (the VCD(t) input of Algorithm 1).
//
// Each FetchSlot describes one instruction entering the fetch stage in one
// cycle; the driver applies the stage-appropriate primary inputs with the
// right skew (register-file values one cycle later, ALU selects three
// cycles later, memory data four cycles later) and sequences the PC inputs
// so the program counter register follows the architectural fetch stream.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "dta/dts_analyzer.hpp"
#include "isa/executor.hpp"
#include "isa/isa.hpp"
#include "netlist/pipeline.hpp"
#include "sim/logic_sim.hpp"

namespace terrors::dta {

struct FetchSlot {
  std::uint32_t pc = 0;
  std::uint32_t word = 0;  ///< encoded instruction
  isa::ExContext ex;       ///< EX-stage operand values of this instruction
  std::uint32_t mem_data = 0;
  bool is_load = false;

  /// Build a slot from a static instruction and one dynamic context.
  static FetchSlot from_context(const isa::Instruction& inst, const isa::InstrDynContext& ctx);
  /// A pipeline bubble.
  static FetchSlot nop(std::uint32_t pc = 0);
};

class PipelineDriver {
 public:
  explicit PipelineDriver(const netlist::Pipeline& pipeline);

  /// Called once per simulated cycle with the settled simulator, before
  /// that cycle's CycleActivation is recorded (e.g. to dump a VCD).
  using CycleObserver = std::function<void(const sim::LogicSimulator&)>;

  /// Simulate the slot stream from reset plus `drain` trailing bubbles.
  /// Returns one CycleActivation per simulated cycle; the instruction of
  /// slots[t] occupies pipeline stage s in cycle t + s.
  [[nodiscard]] std::vector<CycleActivation> run(const std::vector<FetchSlot>& slots,
                                                 int drain = netlist::Pipeline::kStages,
                                                 const CycleObserver& on_cycle = {});

  [[nodiscard]] const netlist::Pipeline& pipeline() const { return p_; }

 private:
  void drive_cycle(const std::vector<FetchSlot>& slots, std::size_t t);

  const netlist::Pipeline& p_;
  sim::LogicSimulator sim_;
};

/// One worker's share of a parallel gate-level loop: an analyzer over a
/// shared, pre-warmed (frozen) path enumerator plus its own driver.
struct WorkerContext {
  WorkerContext(const netlist::Pipeline& pipeline, const timing::VariationModel& vm,
                timing::TimingSpec spec, const DtsConfig& dts_config,
                timing::PathEnumerator& paths)
      : analyzer(pipeline.netlist, vm, spec, dts_config, paths), driver(pipeline) {}

  DtsAnalyzer analyzer;
  PipelineDriver driver;
};

}  // namespace terrors::dta
