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

  bool operator==(const FetchSlot&) const = default;
};

class PipelineDriver {
 public:
  explicit PipelineDriver(const netlist::Pipeline& pipeline);
  /// A driver that simulates only `closure` (a Netlist::sequential_closure
  /// that must outlive the driver): its cycles' activation flags are exact
  /// on the closure and 0 elsewhere, so they serve the stage_dts queries
  /// whose stage cones lie inside it.
  PipelineDriver(const netlist::Pipeline& pipeline, const netlist::Cone& closure);

  /// Called once per simulated cycle with the settled simulator, before
  /// that cycle's CycleActivation is recorded (e.g. to read gate values).
  using CycleObserver = std::function<void(const sim::LogicSimulator&)>;

  /// Simulate the slot stream from reset plus `drain` trailing bubbles.
  /// Returns one CycleActivation per simulated cycle; the instruction of
  /// slots[t] occupies pipeline stage s in cycle t + s.
  [[nodiscard]] std::vector<CycleActivation> run(const std::vector<FetchSlot>& slots,
                                                 int drain = netlist::Pipeline::kStages,
                                                 const CycleObserver& on_cycle = {});

  /// The start that many streams share: the simulator state after the
  /// cycles that read only `slots`, and those cycles' activation flags.
  struct Prefix {
    std::vector<FetchSlot> slots;
    sim::LogicSimulator::State state;
    std::vector<std::vector<std::uint8_t>> flags;
  };
  /// Simulate from reset the cycles that read only `slots`: every cycle
  /// but the last slot's, since cycle t also reads the PC of slot t + 1.
  [[nodiscard]] Prefix run_prefix(std::vector<FetchSlot> slots);
  /// run() for a stream that starts with prefix.slots, resumed from the
  /// prefix instead of from reset; the result is the same bit for bit.  The
  /// prefix must come from a driver that simulates the same gates.
  [[nodiscard]] std::vector<CycleActivation> run(const Prefix& prefix,
                                                 const std::vector<FetchSlot>& slots, int drain);

  [[nodiscard]] const netlist::Pipeline& pipeline() const { return p_; }

 private:
  /// Every port must be a word of at most 64 primary inputs, so that
  /// drive_cycle can stage them without per-bit checks.
  void check_ports() const;
  void drive_cycle(const std::vector<FetchSlot>& slots, std::size_t t);
  /// Simulate cycles [cycles.size(), end) of `slots`, appending one
  /// CycleActivation per cycle.
  void simulate(const std::vector<FetchSlot>& slots, std::size_t end,
                std::vector<CycleActivation>& cycles, const CycleObserver& on_cycle);

  const netlist::Pipeline& p_;
  sim::LogicSimulator sim_;
};

/// One worker's share of a parallel gate-level loop: an analyzer over a
/// shared, pre-warmed (frozen) path enumerator plus its own driver, which
/// simulates only the sequential closure of the endpoints the loop queries.
struct WorkerContext {
  WorkerContext(const netlist::Pipeline& pipeline, const timing::VariationModel& vm,
                timing::TimingSpec spec, const DtsConfig& dts_config,
                timing::PathEnumerator& paths, const netlist::Cone& closure)
      : analyzer(pipeline.netlist, vm, spec, dts_config, paths), driver(pipeline, closure) {}

  DtsAnalyzer analyzer;
  PipelineDriver driver;
};

}  // namespace terrors::dta
