#include "dta/pipeline_driver.hpp"

#include <algorithm>

#include "obs/trace.hpp"
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
  bind_ports();
}

PipelineDriver::PipelineDriver(const netlist::Pipeline& pipeline, const netlist::Cone& closure)
    : p_(pipeline), sim_(pipeline.netlist, closure) {
  bind_ports();
}

void PipelineDriver::bind_ports() {
  const auto& ports = p_.ports;
  const netlist::Netlist& nl = p_.netlist;
  misc_ = ports.alu_sel;
  misc_.insert(misc_.end(), ports.logic_sel.begin(), ports.logic_sel.end());
  for (netlist::GateId g : {ports.branch_taken, ports.sel_imm, ports.sub_mode, ports.shift_dir,
                            ports.mem_is_load})
    misc_.push_back(g);
  const netlist::Word& misc = misc_;
  for (const netlist::Word* word :
       {&ports.instr, &ports.branch_target, &ports.op_a, &ports.op_b, &ports.bypass_a,
        &ports.bypass_b, &ports.mem_data, &ports.ctrl_noise, &misc}) {
    TE_REQUIRE(word->size() <= 64, "input port wider than 64 bits");
    for (netlist::GateId g : *word)
      TE_REQUIRE(g < nl.size() && nl.gate(g).kind == netlist::GateKind::kInput,
                 "pipeline port is not a primary input");
  }
}

PipelineDriver::PortValues PipelineDriver::port_values(const std::vector<FetchSlot>& slots,
                                                       std::size_t t) const {
  auto slot_at = [&](std::size_t idx) -> const FetchSlot* {
    return idx < slots.size() ? &slots[idx] : nullptr;
  };
  PortValues v;
  std::uint64_t bits = 0;  // branch_taken, sel_imm, sub_mode, shift_dir, mem_is_load

  // Fetch-stage inputs: the instruction entering FE this cycle, and the PC
  // steering for the *next* fetch (the PC register captures at the end of
  // this cycle).
  static const FetchSlot kBubble = FetchSlot::nop();
  const FetchSlot& cur = slot_at(t) != nullptr ? *slot_at(t) : kBubble;
  v.instr = cur.word;
  const FetchSlot* next = slot_at(t + 1);
  const std::uint32_t next_pc = next != nullptr ? next->pc : cur.pc + 4;
  const bool sequential = next_pc == cur.pc + 4;
  bits |= sequential ? 0u : 1u;
  v.branch_target = sequential ? 0 : next_pc;

  // DE-stage inputs: register-file read values of the instruction fetched
  // at t-1.  RA-stage inputs: no forwarding (architectural values injected
  // at DE), so the bypass selects stay 0.
  const FetchSlot* de = t >= 1 ? slot_at(t - 1) : nullptr;
  v.op_a = de != nullptr ? de->ex.a : 0;
  v.op_b = de != nullptr ? de->ex.b : 0;

  // EX-stage inputs for the instruction fetched at t-3.
  const FetchSlot* ex = t >= 3 ? slot_at(t - 3) : nullptr;
  const ExDrive d = ex_drive_for(ex != nullptr ? ex->ex.op : Opcode::kNop);
  bits |= (d.sel_imm ? 2u : 0u) | (d.sub_mode ? 4u : 0u) | (d.shift_dir ? 8u : 0u);

  // ME-stage inputs for the instruction fetched at t-4.
  const FetchSlot* me = t >= 4 ? slot_at(t - 4) : nullptr;
  bits |= me != nullptr && me->is_load ? 16u : 0u;
  v.mem_data = me != nullptr ? me->mem_data : 0;

  const std::size_t alu = p_.ports.alu_sel.size();
  const std::size_t logic = p_.ports.logic_sel.size();
  v.misc = (d.alu_sel & ((std::uint64_t{1} << alu) - 1)) |
           (std::uint64_t{d.logic_sel & ((1u << logic) - 1)} << alu) | (bits << (alu + logic));
  return v;
}

void PipelineDriver::drive_zero_ports() {
  sim_.drive_word(p_.ports.bypass_a, 0);
  sim_.drive_word(p_.ports.bypass_b, 0);
  sim_.drive_word(p_.ports.ctrl_noise, 0);
}

void PipelineDriver::simulate(const std::vector<FetchSlot>& slots, std::size_t end,
                              std::vector<CycleActivation>& cycles,
                              const CycleObserver& on_cycle) {
  cycles.reserve(end);
  const auto& ports = p_.ports;
  for (std::size_t t = cycles.size(); t < end; ++t) {
    const PortValues v = port_values(slots, t);
    sim_.drive_word(ports.instr, v.instr);
    sim_.drive_word(ports.branch_target, v.branch_target);
    sim_.drive_word(ports.op_a, v.op_a);
    sim_.drive_word(ports.op_b, v.op_b);
    sim_.drive_word(ports.mem_data, v.mem_data);
    sim_.drive_word(misc_, v.misc);
    drive_zero_ports();
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

namespace {

void require_prefix(const PipelineDriver::Prefix& prefix, const std::vector<FetchSlot>& slots) {
  TE_REQUIRE(slots.size() >= prefix.slots.size() &&
                 std::equal(prefix.slots.begin(), prefix.slots.end(), slots.begin()),
             "slot stream does not start with the prefix");
}

}  // namespace

std::vector<CycleActivation> PipelineDriver::run(const Prefix& prefix,
                                                 const std::vector<FetchSlot>& slots, int drain) {
  TE_REQUIRE(drain >= 0, "negative drain");
  require_prefix(prefix, slots);
  sim_.restore(prefix.state);
  std::vector<CycleActivation> cycles;
  cycles.reserve(slots.size() + static_cast<std::size_t>(drain));
  for (const auto& flags : prefix.flags) cycles.emplace_back(p_.netlist, flags);
  simulate(slots, slots.size() + static_cast<std::size_t>(drain), cycles, {});
  return cycles;
}

void PipelineDriver::run_lanes(const Prefix& prefix, std::span<const Lane> lanes,
                               const LaneObserver& on_cycle) {
  TE_REQUIRE(lanes.size() <= sim::LogicSimulator::kLanes, "more streams than lanes");
  std::size_t end = 0;
  for (const Lane& lane : lanes) {
    require_prefix(prefix, *lane.slots);
    TE_REQUIRE(lane.end >= lane.slots->size(), "negative drain");
    end = std::max(end, lane.end);
  }
  // Each lane resumes from the prefix: its state holds the same stream in
  // every lane.
  sim_.restore(prefix.state);
  drive_zero_ports();
  const auto& ports = p_.ports;
  sim::LogicSimulator::LaneValues instr{}, target{}, op_a{}, op_b{}, mem_data{}, misc{};
  for (std::size_t t = prefix.flags.size(); t < end; ++t) {
    {
      obs::ScopedSpan span("sim.drive");
      sim::LogicSimulator::Lanes live = 0;
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        if (t >= lanes[l].end) continue;  // a finished lane keeps its inputs
        live |= sim::LogicSimulator::Lanes{1} << l;
        const PortValues v = port_values(*lanes[l].slots, t);
        instr[l] = v.instr;
        target[l] = v.branch_target;
        op_a[l] = v.op_a;
        op_b[l] = v.op_b;
        mem_data[l] = v.mem_data;
        misc[l] = v.misc;
      }
      sim_.drive_word_lanes(ports.instr, instr);
      sim_.drive_word_lanes(ports.branch_target, target);
      sim_.drive_word_lanes(ports.op_a, op_a);
      sim_.drive_word_lanes(ports.op_b, op_b);
      sim_.drive_word_lanes(ports.mem_data, mem_data);
      sim_.drive_word_lanes(misc_, misc);
      sim_.set_live(live);
      sim_.step();
    }
    on_cycle(sim_, t);
  }
}

}  // namespace terrors::dta
