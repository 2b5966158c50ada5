// Levelised two-value gate-level logic simulation.
//
// The simulator realises Definition 3.2 of the paper: a gate is *activated*
// in a clock cycle iff, were the clock period sufficiently long, its output
// would eventually change.  On a glitch-free zero-delay abstraction this is
// exactly "the settled output value in cycle t differs from cycle t-1".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace terrors::sim {

class LogicSimulator {
 public:
  explicit LogicSimulator(const netlist::Netlist& nl);
  /// Simulate only `closure`, a Netlist::sequential_closure that must
  /// outlive the simulator.  Its gates' values and activation flags equal
  /// a whole-netlist simulation's in every cycle; every other gate keeps
  /// the value 0 and never activates.
  LogicSimulator(const netlist::Netlist& nl, const netlist::Cone& closure);

  /// Reset all state, inputs, and history to 0 and settle.
  void reset();

  /// Drive a primary input for the upcoming cycle.
  void set_input(netlist::GateId input, bool value);
  /// Drive a word (little-endian) of primary inputs.
  void set_input_word(const std::vector<netlist::GateId>& word, std::uint64_t value);
  /// set_input and set_input_word without their checks, for a driver that
  /// checked once that it drives primary inputs in words of at most 64
  /// (PipelineDriver checks its ports when it is built).
  void drive(netlist::GateId input, bool value) { pending_inputs_[input] = value ? 1 : 0; }
  void drive_word(const std::vector<netlist::GateId>& word, std::uint64_t value) {
    for (std::size_t i = 0; i < word.size(); ++i)
      pending_inputs_[word[i]] = static_cast<std::uint8_t>((value >> i) & 1u);
  }

  /// Advance one clock cycle: flip-flops capture the previous cycle's
  /// settled D values, then combinational logic settles with the currently
  /// driven inputs.  Activation flags are recomputed.
  void step();

  /// Settled value of a gate's output in the current cycle.
  [[nodiscard]] bool value(netlist::GateId g) const { return values_[g] != 0; }
  /// Read a word (little-endian) of settled values.
  [[nodiscard]] std::uint64_t value_word(const std::vector<netlist::GateId>& word) const;
  /// Whether the gate was activated in the current cycle (Def. 3.2).
  [[nodiscard]] bool activated(netlist::GateId g) const { return activated_[g] != 0; }
  /// Dense activation flags, indexed by gate id.
  [[nodiscard]] const std::vector<std::uint8_t>& activation_flags() const { return activated_; }
  /// Cycles elapsed since reset.
  [[nodiscard]] std::uint64_t cycle() const { return cycle_; }

  /// Everything step() carries from one cycle into the next, for resuming
  /// a simulation from a saved cycle.
  struct State {
    std::vector<std::uint8_t> values;
    std::vector<std::uint8_t> prev_values;
    std::vector<std::uint8_t> pending_inputs;
    std::vector<std::uint8_t> activated;
    std::uint64_t cycle = 0;
  };
  [[nodiscard]] State save() const;
  /// Resume from a state that a simulator of the same netlist and gates
  /// saved.
  void restore(const State& state);

  [[nodiscard]] const netlist::Netlist& nl() const { return nl_; }

 private:
  void allocate();
  void settle();

  const netlist::Netlist& nl_;
  /// What step() evaluates: the whole netlist, or one closure.
  std::span<const netlist::ProgramGate> program_;
  std::vector<netlist::GateId> dffs_;
  std::vector<netlist::GateId> inputs_;
  std::vector<netlist::GateId> outputs_;
  std::vector<std::uint8_t> values_;
  std::vector<std::uint8_t> prev_values_;
  std::vector<std::uint8_t> pending_inputs_;  ///< staged until the next step()
  std::vector<std::uint8_t> activated_;
  std::uint64_t cycle_ = 0;
};

}  // namespace terrors::sim
