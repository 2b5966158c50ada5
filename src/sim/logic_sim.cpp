#include "sim/logic_sim.hpp"

#include <cstring>

#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace terrors::sim {

using netlist::GateId;
using netlist::GateKind;

LogicSimulator::LogicSimulator(const netlist::Netlist& nl) : nl_(nl) {
  TE_REQUIRE(nl.finalized(), "simulator needs a finalized netlist");
  program_ = nl.program();
  dffs_ = nl.dffs();
  inputs_ = nl.inputs();
  outputs_ = nl.outputs();
  allocate();
}

LogicSimulator::LogicSimulator(const netlist::Netlist& nl, const netlist::Cone& closure)
    : nl_(nl), program_(closure.gates) {
  TE_REQUIRE(nl.finalized(), "simulator needs a finalized netlist");
  for (GateId id : closure.launches) {
    TE_REQUIRE(id < nl.size(), "closure does not belong to this netlist");
    switch (nl.gate(id).kind) {
      case GateKind::kDff:
        dffs_.push_back(id);
        break;
      case GateKind::kInput:
        inputs_.push_back(id);
        break;
      case GateKind::kOutput:
        outputs_.push_back(id);
        break;
      default:
        break;  // constants are set by reset()
    }
  }
  allocate();
}

void LogicSimulator::allocate() {
  // One extra value backs the netlist's zero slot, which stays 0.
  values_.assign(nl_.size() + 1, 0);
  prev_values_.assign(nl_.size() + 1, 0);
  pending_inputs_.assign(nl_.size(), 0);
  activated_.assign(nl_.size(), 0);
  reset();
}

void LogicSimulator::reset() {
  std::fill(values_.begin(), values_.end(), 0);
  std::fill(pending_inputs_.begin(), pending_inputs_.end(), 0);
  std::fill(activated_.begin(), activated_.end(), 0);
  cycle_ = 0;
  settle();
  // Constants are written once, after the reset cycle settled with them at
  // 0: gates they feed first see their value in cycle 1, and toggle then.
  for (GateId id : nl_.constants()) values_[id] = nl_.gate(id).kind == GateKind::kConst1 ? 1 : 0;
  prev_values_ = values_;
}

void LogicSimulator::set_input(GateId input, bool v) {
  TE_REQUIRE(nl_.gate(input).kind == GateKind::kInput, "set_input on a non-input gate");
  // Staged: the value takes effect in the cycle started by the next step(),
  // so driving inputs never contaminates the previous cycle's settled state.
  drive(input, v);
}

void LogicSimulator::set_input_word(const std::vector<GateId>& word, std::uint64_t v) {
  TE_REQUIRE(word.size() <= 64, "input word too wide");
  for (std::size_t i = 0; i < word.size(); ++i) set_input(word[i], ((v >> i) & 1ull) != 0);
}

std::uint64_t LogicSimulator::value_word(const std::vector<GateId>& word) const {
  TE_REQUIRE(word.size() <= 64, "word too wide");
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < word.size(); ++i)
    if (value(word[i])) v |= (1ull << i);
  return v;
}

LogicSimulator::State LogicSimulator::save() const {
  return {values_, prev_values_, pending_inputs_, activated_, cycle_};
}

void LogicSimulator::restore(const State& state) {
  TE_REQUIRE(state.values.size() == values_.size() && state.activated.size() == activated_.size(),
             "simulator state of another netlist");
  values_ = state.values;
  prev_values_ = state.prev_values;
  pending_inputs_ = state.pending_inputs;
  activated_ = state.activated;
  cycle_ = state.cycle;
}

void LogicSimulator::settle() {
  std::uint8_t* v = values_.data();
  for (const netlist::ProgramGate& g : program_) {
    const unsigned row = v[g.fanin[0]] | (v[g.fanin[1]] << 1) | (v[g.fanin[2]] << 2);
    v[g.out] = (g.truth >> row) & 1u;
  }
  // Primary outputs mirror their driver.
  for (GateId id : outputs_) v[id] = v[nl_.gate(id).fanin[0]];
}

void LogicSimulator::step() {
  // 1. Remember the previous cycle's settled values (activation baseline).
  prev_values_ = values_;
  std::uint8_t* v = values_.data();
  const std::uint8_t* prev = prev_values_.data();
  // 2. Flip-flops capture their data input's previous settled value.
  for (GateId id : dffs_) v[id] = prev[nl_.gate(id).fanin[0]];
  // 3. Primary inputs take their newly driven values.
  for (GateId id : inputs_) v[id] = pending_inputs_[id];
  // 4. Combinational logic settles.
  settle();
  // 5. Activation per Def. 3.2.  Values are 0/1 bytes, so eight gates at
  // a time: XOR gives the flags, and multiplying by 0x01..01 sums them
  // into the top byte.
  std::uint8_t* act = activated_.data();
  const std::size_t n = activated_.size();
  std::uint64_t toggles = 0;
  std::size_t id = 0;
  for (; id + 8 <= n; id += 8) {
    std::uint64_t now = 0;
    std::uint64_t before = 0;
    std::memcpy(&now, v + id, 8);
    std::memcpy(&before, prev + id, 8);
    const std::uint64_t flags = now ^ before;
    std::memcpy(act + id, &flags, 8);
    toggles += (flags * 0x0101010101010101ull) >> 56;
  }
  for (; id < n; ++id) {
    act[id] = v[id] ^ prev[id];
    toggles += act[id];
  }
  ++cycle_;

  static obs::Counter& cycles_metric = obs::MetricsRegistry::instance().counter("sim.cycles");
  static obs::Counter& toggles_metric =
      obs::MetricsRegistry::instance().counter("sim.gate_toggles");
  cycles_metric.increment();
  toggles_metric.increment(toggles);
}

}  // namespace terrors::sim
