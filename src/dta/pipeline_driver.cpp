#include "dta/pipeline_driver.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace terrors::dta {

using isa::Opcode;

FetchSlot FetchSlot::from_context(const isa::Instruction& inst, const isa::InstrDynContext& ctx) {
  FetchSlot s;
  s.pc = ctx.pc;
  s.word = isa::encode(inst);
  s.ex = ctx.cur;
  if (inst.op == Opcode::kLd) {
    s.is_load = true;
    s.mem_data = ctx.result;
  }
  return s;
}

FetchSlot FetchSlot::nop(std::uint32_t pc) {
  FetchSlot s;
  s.pc = pc;
  s.word = isa::encode(isa::Instruction{});
  s.ex = isa::ExContext{};
  return s;
}

namespace {

/// ALU control-input values for an opcode, mirroring the netlist datapath.
struct ExDrive {
  std::uint8_t alu_sel = 3;  ///< 0 add/sub, 1 logic, 2 shift, 3 pass-B
  std::uint8_t logic_sel = 0;
  bool sel_imm = false;
  bool sub_mode = false;
  bool shift_dir = false;
};

ExDrive ex_drive_for(Opcode op) {
  ExDrive d;
  d.sel_imm = isa::uses_immediate(op);
  switch (isa::ex_unit(op)) {
    case isa::ExUnit::kAdder:
      d.alu_sel = 0;
      d.sub_mode = op == Opcode::kSub || op == Opcode::kSubi;
      break;
    case isa::ExUnit::kCompare:
      // Branches resolve on the RA-stage comparator; the EX ALU just
      // passes the B bus.
      d.alu_sel = 3;
      break;
    case isa::ExUnit::kLogic:
      d.alu_sel = 1;
      switch (op) {
        case Opcode::kAnd:
        case Opcode::kAndi:
          d.logic_sel = 0;
          break;
        case Opcode::kOr:
        case Opcode::kOri:
          d.logic_sel = 1;
          break;
        case Opcode::kXor:
        case Opcode::kXori:
          d.logic_sel = 2;
          break;
        case Opcode::kNot:
          d.logic_sel = 3;
          break;
        case Opcode::kMovi:
          d.alu_sel = 3;  // pass the immediate through the B bus
          break;
        default:
          break;
      }
      break;
    case isa::ExUnit::kShifter:
      d.alu_sel = 2;
      d.shift_dir = op == Opcode::kSrl || op == Opcode::kSrli;
      break;
    case isa::ExUnit::kNone:
      d.alu_sel = 3;
      break;
  }
  return d;
}

}  // namespace

PipelineDriver::PipelineDriver(const netlist::Pipeline& pipeline)
    : p_(pipeline), sim_(pipeline.netlist) {
  check_ports();
}

PipelineDriver::PipelineDriver(const netlist::Pipeline& pipeline, const netlist::Cone& closure)
    : p_(pipeline), sim_(pipeline.netlist, closure) {
  check_ports();
}

void PipelineDriver::check_ports() const {
  const auto& ports = p_.ports;
  const netlist::Netlist& nl = p_.netlist;
  const std::vector<netlist::GateId> bits = {ports.branch_taken, ports.sel_imm, ports.sub_mode,
                                             ports.shift_dir, ports.mem_is_load};
  for (const netlist::Word* word :
       {&ports.instr, &ports.branch_target, &ports.op_a, &ports.op_b, &ports.bypass_a,
        &ports.bypass_b, &ports.alu_sel, &ports.logic_sel, &ports.mem_data, &ports.ctrl_noise,
        &bits}) {
    TE_REQUIRE(word->size() <= 64, "input port wider than 64 bits");
    for (netlist::GateId g : *word)
      TE_REQUIRE(g < nl.size() && nl.gate(g).kind == netlist::GateKind::kInput,
                 "pipeline port is not a primary input");
  }
}

void PipelineDriver::drive_cycle(const std::vector<FetchSlot>& slots, std::size_t t) {
  const auto& ports = p_.ports;
  auto slot_at = [&](std::size_t idx) -> const FetchSlot* {
    return idx < slots.size() ? &slots[idx] : nullptr;
  };

  // Fetch-stage inputs: the instruction entering FE this cycle, and the PC
  // steering for the *next* fetch (the PC register captures at the end of
  // this cycle).
  static const FetchSlot kBubble = FetchSlot::nop();
  const FetchSlot& cur = slot_at(t) != nullptr ? *slot_at(t) : kBubble;
  sim_.drive_word(ports.instr, cur.word);
  const FetchSlot* next = slot_at(t + 1);
  const std::uint32_t next_pc = next != nullptr ? next->pc : cur.pc + 4;
  const bool sequential = next_pc == cur.pc + 4;
  sim_.drive(ports.branch_taken, !sequential);
  sim_.drive_word(ports.branch_target, sequential ? 0 : next_pc);

  // DE-stage inputs: register-file read values of the instruction fetched
  // at t-1.
  const FetchSlot* de = t >= 1 ? slot_at(t - 1) : nullptr;
  sim_.drive_word(ports.op_a, de != nullptr ? de->ex.a : 0);
  sim_.drive_word(ports.op_b, de != nullptr ? de->ex.b : 0);

  // RA-stage inputs: no forwarding (architectural values injected at DE).
  sim_.drive_word(ports.bypass_a, 0);
  sim_.drive_word(ports.bypass_b, 0);

  // EX-stage inputs for the instruction fetched at t-3.
  const FetchSlot* ex = t >= 3 ? slot_at(t - 3) : nullptr;
  const ExDrive d = ex_drive_for(ex != nullptr ? ex->ex.op : Opcode::kNop);
  sim_.drive_word(ports.alu_sel, d.alu_sel);
  sim_.drive_word(ports.logic_sel, d.logic_sel);
  sim_.drive(ports.sel_imm, d.sel_imm);
  sim_.drive(ports.sub_mode, d.sub_mode);
  sim_.drive(ports.shift_dir, d.shift_dir);

  // ME-stage inputs for the instruction fetched at t-4.
  const FetchSlot* me = t >= 4 ? slot_at(t - 4) : nullptr;
  sim_.drive(ports.mem_is_load, me != nullptr && me->is_load);
  sim_.drive_word(ports.mem_data, me != nullptr ? me->mem_data : 0);

  sim_.drive_word(ports.ctrl_noise, 0);
}

void PipelineDriver::simulate(const std::vector<FetchSlot>& slots, std::size_t end,
                              std::vector<CycleActivation>& cycles,
                              const CycleObserver& on_cycle) {
  cycles.reserve(end);
  for (std::size_t t = cycles.size(); t < end; ++t) {
    drive_cycle(slots, t);
    sim_.step();
    if (on_cycle) on_cycle(sim_);
    cycles.emplace_back(p_.netlist, sim_.activation_flags());
  }
}

std::vector<CycleActivation> PipelineDriver::run(const std::vector<FetchSlot>& slots, int drain,
                                                 const CycleObserver& on_cycle) {
  TE_REQUIRE(drain >= 0, "negative drain");
  sim_.reset();
  std::vector<CycleActivation> cycles;
  simulate(slots, slots.size() + static_cast<std::size_t>(drain), cycles, on_cycle);
  return cycles;
}

PipelineDriver::Prefix PipelineDriver::run_prefix(std::vector<FetchSlot> slots) {
  sim_.reset();
  std::vector<CycleActivation> cycles;
  simulate(slots, slots.empty() ? 0 : slots.size() - 1, cycles, {});
  Prefix prefix{std::move(slots), sim_.save(), {}};
  for (const CycleActivation& c : cycles) prefix.flags.push_back(c.flags());
  return prefix;
}

std::vector<CycleActivation> PipelineDriver::run(const Prefix& prefix,
                                                 const std::vector<FetchSlot>& slots, int drain) {
  TE_REQUIRE(drain >= 0, "negative drain");
  TE_REQUIRE(slots.size() >= prefix.slots.size() &&
                 std::equal(prefix.slots.begin(), prefix.slots.end(), slots.begin()),
             "slot stream does not start with the prefix");
  sim_.restore(prefix.state);
  std::vector<CycleActivation> cycles;
  cycles.reserve(slots.size() + static_cast<std::size_t>(drain));
  for (const auto& flags : prefix.flags) cycles.emplace_back(p_.netlist, flags);
  simulate(slots, slots.size() + static_cast<std::size_t>(drain), cycles, {});
  return cycles;
}

}  // namespace terrors::dta
