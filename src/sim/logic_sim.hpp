// Levelised two-value gate-level logic simulation, 64 streams at a time.
//
// The simulator realises Definition 3.2 of the paper: a gate is *activated*
// in a clock cycle iff, were the clock period sufficiently long, its output
// would eventually change.  On a glitch-free zero-delay abstraction this is
// exactly "the settled output value in cycle t differs from cycle t-1".
//
// Every gate holds one std::uint64_t whose bit L is its value in lane L:
// 64 independent streams advance together, each gate's truth table
// evaluated with word operations, so one step() of 64 streams costs a few
// single-stream steps.  A single stream is a batch of one: the
// single-stream calls (set_input, drive, value, activated,
// activation_flags) drive every lane alike and read lane 0, and only lane 0
// is live.  The lane calls drive each lane separately and read any lane;
// set_live() names the lanes that the sim.cycles and sim.gate_toggles
// counters count.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace terrors::sim {

class LogicSimulator {
 public:
  static constexpr unsigned kLanes = 64;
  /// One bit per lane: bit L belongs to lane L.
  using Lanes = std::uint64_t;
  /// One value per lane, e.g. the words that the lanes drive onto a port.
  using LaneValues = std::array<std::uint64_t, kLanes>;

  explicit LogicSimulator(const netlist::Netlist& nl);
  /// Simulate only `closure`, a Netlist::sequential_closure that must
  /// outlive the simulator.  Its gates' values and activation flags equal
  /// a whole-netlist simulation's in every cycle; every other gate keeps
  /// the value 0 and never activates.
  LogicSimulator(const netlist::Netlist& nl, const netlist::Cone& closure);

  /// Reset all state, inputs, and history to 0 in every lane and settle.
  void reset();

  /// Drive a primary input for the upcoming cycle, in every lane.
  void set_input(netlist::GateId input, bool value);
  /// Drive a word (little-endian) of primary inputs, in every lane.
  void set_input_word(const std::vector<netlist::GateId>& word, std::uint64_t value);
  /// set_input and set_input_word without their checks, for a driver that
  /// checked once that it drives primary inputs in words of at most 64
  /// (PipelineDriver checks its ports when it is built).
  void drive(netlist::GateId input, bool value) { pending_[input] = value ? ~Lanes{0} : 0; }
  void drive_word(const std::vector<netlist::GateId>& word, std::uint64_t value) {
    for (std::size_t i = 0; i < word.size(); ++i) pending_[word[i]] = Lanes{0} - ((value >> i) & 1u);
  }
  /// Drive a word of primary inputs per lane: lane L drives values[L].
  /// Unchecked, like drive_word.
  void drive_word_lanes(const std::vector<netlist::GateId>& word, const LaneValues& values);

  /// The lanes that the sim.cycles and sim.gate_toggles counters count;
  /// reset() and restore() count lane 0 alone.
  void set_live(Lanes live) { live_ = live; }

  /// Advance one clock cycle in every lane: flip-flops capture the
  /// previous cycle's settled D values, then combinational logic settles
  /// with the currently driven inputs.  Activation flags are recomputed.
  void step();

  /// Settled value of a gate's output in the current cycle (lane 0).
  [[nodiscard]] bool value(netlist::GateId g) const { return (values_[g] & 1u) != 0; }
  /// Read a word (little-endian) of settled values (lane 0).
  [[nodiscard]] std::uint64_t value_word(const std::vector<netlist::GateId>& word) const;
  /// Whether the gate was activated in the current cycle (Def. 3.2; lane 0).
  [[nodiscard]] bool activated(netlist::GateId g) const { return (activated_[g] & 1u) != 0; }
  /// A gate's settled value and activation in every lane.
  [[nodiscard]] Lanes value_lanes(netlist::GateId g) const { return values_[g]; }
  [[nodiscard]] Lanes activated_lanes(netlist::GateId g) const { return activated_[g]; }
  /// Lane 0's activation flags, one byte per gate id.
  [[nodiscard]] std::vector<std::uint8_t> activation_flags() const;
  /// Write lane `lane`'s activation flags into `out`, one byte per gate id
  /// (out.size() == nl().size()).  The first call after a step() transposes
  /// the flags once for every lane, so reading many lanes of one cycle
  /// costs little more than reading one.
  void lane_flags(unsigned lane, std::span<std::uint8_t> out) const;
  /// Cycles elapsed since reset.
  [[nodiscard]] std::uint64_t cycle() const { return cycle_; }

  /// Everything step() carries from one cycle into the next, for resuming
  /// a simulation from a saved cycle.
  struct State {
    std::vector<Lanes> values;
    std::vector<Lanes> pending_inputs;
    std::vector<Lanes> activated;
    std::uint64_t cycle = 0;
  };
  [[nodiscard]] State save() const;
  /// Resume from a state that a simulator of the same netlist and gates
  /// saved.  A state saved from single-stream calls holds the same stream
  /// in every lane, so each lane resumes from it.
  void restore(const State& state);

  [[nodiscard]] const netlist::Netlist& nl() const { return nl_; }

 private:
  /// One compiled gate in word form.  Every gate kind of the library is
  ///   out = k ^ (a & b & mx) ^ ((a ^ b) & my) ^ (a & ma) ^ ((a ^ b) & c),
  /// with k, mx, my, ma each all-zeros or all-ones (-1 as a signed byte):
  /// an unused fanin reads the zero slot, so the last term is the select
  /// of a mux and 0 for every other kind.
  struct LaneGate {
    netlist::GateId out;
    std::array<netlist::GateId, 3> fanin;
    std::int8_t k, mx, my, ma;
  };

  void compile(std::span<const netlist::ProgramGate> program);
  void allocate();
  /// Settle the combinational gates and primary outputs, recording which
  /// changed; returns how many live-lane flags are set.
  std::uint64_t settle();

  const netlist::Netlist& nl_;
  std::vector<LaneGate> program_;
  std::vector<netlist::GateId> dffs_;
  std::vector<netlist::GateId> dff_inputs_;  ///< fanin of dffs_[i]
  std::vector<netlist::GateId> inputs_;
  std::vector<netlist::GateId> outputs_;
  std::vector<Lanes> values_;   ///< by gate id, plus the zero slot
  std::vector<Lanes> pending_;  ///< staged inputs until the next step()
  /// Activation flags by gate id, padded to whole 64-gate blocks.
  std::vector<Lanes> activated_;
  std::vector<Lanes> captured_;  ///< step()'s flip-flop scratch
  Lanes live_ = 1;
  std::uint64_t cycle_ = 0;
  /// activated_ transposed per 64-gate block (word L of a block holds lane
  /// L's flags of those gates), filled by the first lane_flags() of a cycle
  /// for the blocks that hold a simulated gate; the others stay 0.
  mutable std::vector<Lanes> transposed_;
  std::vector<std::size_t> written_blocks_;
  mutable bool transposed_ready_ = false;
};

}  // namespace terrors::sim
