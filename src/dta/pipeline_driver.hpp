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
#include <span>
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

  /// One lane of a batch: a stream that starts with the prefix's slots,
  /// simulated up to cycle `end` (exclusive; end - slots->size() is its
  /// drain).
  struct Lane {
    const std::vector<FetchSlot>* slots = nullptr;
    std::size_t end = 0;
  };
  /// Called after each cycle of a batch with the settled simulator; lane L
  /// of it is lanes[L]'s stream, and holds that stream's cycle `cycle` while
  /// cycle < lanes[L].end.
  using LaneObserver = std::function<void(const sim::LogicSimulator&, std::size_t cycle)>;
  /// Simulate up to sim::LogicSimulator::kLanes streams as the lanes of
  /// one batch, each resumed from `prefix`: cycles prefix.flags.size() to
  /// the largest end.  Every lane's values and activation flags equal those
  /// of run(prefix, *lane.slots, lane.end - lane.slots->size()) bit for
  /// bit, and sim.cycles and sim.gate_toggles count each lane until its end.
  void run_lanes(const Prefix& prefix, std::span<const Lane> lanes, const LaneObserver& on_cycle);

  [[nodiscard]] const netlist::Pipeline& pipeline() const { return p_; }

 private:
  /// What the driver puts on the pipeline's ports in one cycle.  The
  /// narrow ports share one word, laid out as misc_; the bypass selects
  /// and the noise inputs are always 0.
  struct PortValues {
    std::uint64_t instr = 0;
    std::uint64_t branch_target = 0;
    std::uint64_t op_a = 0;
    std::uint64_t op_b = 0;
    std::uint64_t mem_data = 0;
    std::uint64_t misc = 0;
  };
  /// Build misc_, and check that every port is a word of at most 64
  /// primary inputs, so that ports can be staged without per-bit checks.
  void bind_ports();
  [[nodiscard]] PortValues port_values(const std::vector<FetchSlot>& slots, std::size_t t) const;
  void drive_zero_ports();
  /// Simulate cycles [cycles.size(), end) of `slots`, appending one
  /// CycleActivation per cycle.
  void simulate(const std::vector<FetchSlot>& slots, std::size_t end,
                std::vector<CycleActivation>& cycles, const CycleObserver& on_cycle);

  const netlist::Pipeline& p_;
  /// alu_sel, logic_sel, then branch_taken, sel_imm, sub_mode, shift_dir
  /// and mem_is_load: the narrow ports, driven as one word.
  std::vector<netlist::GateId> misc_;
  sim::LogicSimulator sim_;
};

/// One worker's share of a parallel gate-level loop: an analyzer over a
/// shared, pre-warmed (frozen) path enumerator plus its own driver, which
/// simulates only the sequential closure of the endpoints the loop queries.
struct WorkerContext {
  WorkerContext(const netlist::Pipeline& pipeline, const timing::VariationModel& vm,
                timing::TimingSpec spec, const DtsConfig& dts_config,
                timing::PathEnumerator& paths, const netlist::Cone& closure)
      : analyzer(pipeline.netlist, vm, spec, dts_config, paths),
        driver(pipeline, closure),
        flags(pipeline.netlist.size()) {}

  DtsAnalyzer analyzer;
  PipelineDriver driver;
  /// One lane's activation flags in one cycle, reused by every query.
  std::vector<std::uint8_t> flags;
};

}  // namespace terrors::dta
