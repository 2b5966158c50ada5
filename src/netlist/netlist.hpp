// The netlist graph N of the paper (Section 3): vertices are gates, edges
// are nets.  Flip-flops and I/O ports are "endpoints"; every timing path
// starts at an endpoint output and ends at an endpoint input (Def. 3.1).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "netlist/gate.hpp"

namespace terrors::netlist {

using GateId = std::uint32_t;
inline constexpr GateId kNoGate = 0xFFFFFFFFu;

/// Control vs data endpoint classification (Section 4 of the paper): data
/// endpoints hold operands / results / condition codes / addresses; control
/// endpoints are everything else (PC, IR, decode, hazard, FSM state).
enum class EndpointClass : std::uint8_t { kNone, kControl, kData };

/// One gate instance.
struct Gate {
  GateKind kind = GateKind::kInput;
  std::array<GateId, 3> fanin = {kNoGate, kNoGate, kNoGate};
  std::uint8_t stage = 0;  ///< pipeline stage of this gate's logic cloud
  EndpointClass endpoint_class = EndpointClass::kNone;
  float x = 0.0f;  ///< placement, arbitrary die units (for spatial correlation)
  float y = 0.0f;
  float delay_ps = 0.0f;  ///< nominal propagation delay of this instance

  [[nodiscard]] int arity() const { return info(kind).arity; }
  /// Endpoints that *terminate* paths (capture data): DFFs and outputs.
  [[nodiscard]] bool is_capture_endpoint() const {
    return kind == GateKind::kDff || kind == GateKind::kOutput;
  }
};

/// One combinational gate compiled for evaluation.  Netlist::program()
/// lists them in topological order, so simulation and the activated-arrival
/// DP walk one flat array instead of Gate structs and info() lookups.
struct ProgramGate {
  GateId out = kNoGate;
  /// Fanin ids; slots past the arity hold Netlist::zero_slot().
  std::array<GateId, 3> fanin = {kNoGate, kNoGate, kNoGate};
  float delay_ps = 0.0f;  ///< the gate's nominal delay at finalize()
  /// Output for fanin values (a, b, c) is bit (a | b << 1 | c << 2),
  /// tabulated from eval_gate.
  std::uint8_t truth = 0;
  std::uint8_t arity = 0;
};

/// A gate-level netlist with pipeline-stage and placement annotations.
class Netlist {
 public:
  /// Add a gate; fanins may be kNoGate and filled in later via set_fanin
  /// (needed for sequential loops through DFFs).
  GateId add(GateKind kind, std::array<GateId, 3> fanin = {kNoGate, kNoGate, kNoGate},
             std::uint8_t stage = 0);

  void set_fanin(GateId gate, int slot, GateId driver);
  void set_endpoint_class(GateId gate, EndpointClass c);
  void set_placement(GateId gate, float x, float y);
  void set_name(GateId gate, std::string name);

  [[nodiscard]] std::size_t size() const { return gates_.size(); }
  [[nodiscard]] const Gate& gate(GateId id) const { return gates_[id]; }
  [[nodiscard]] Gate& gate(GateId id) { return gates_[id]; }
  [[nodiscard]] const std::string& name(GateId id) const;

  /// Seal the netlist: verifies completeness (all fanins wired, DFF loops
  /// only through DFFs), computes the combinational topological order and
  /// fanout lists.  Must be called before simulation / timing analysis.
  void finalize(std::uint8_t stage_count);

  [[nodiscard]] bool finalized() const { return finalized_; }
  [[nodiscard]] std::uint8_t stage_count() const { return stage_count_; }
  /// Combinational gates in evaluation order.
  [[nodiscard]] const std::vector<GateId>& topo_order() const;
  /// topo_order() compiled into ProgramGates.  Built by finalize(), so it
  /// does not see gate delays edited afterwards.
  [[nodiscard]] const std::vector<ProgramGate>& program() const;
  /// Position of a gate in program(), or kNoGate for the non-combinational
  /// gates (inputs, constants, DFFs, outputs).
  [[nodiscard]] GateId program_index(GateId id) const { return program_index_[id]; }
  /// Index one past the last gate: evaluators over program() size their
  /// per-gate arrays size() + 1 and keep this slot at logic 0 (no arrival
  /// in the activated-arrival DP), so unused fanins read a neutral value.
  [[nodiscard]] GateId zero_slot() const { return static_cast<GateId>(gates_.size()); }
  [[nodiscard]] const std::vector<GateId>& inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<GateId>& constants() const { return constants_; }
  [[nodiscard]] const std::vector<GateId>& dffs() const { return dffs_; }
  [[nodiscard]] const std::vector<GateId>& outputs() const { return outputs_; }
  /// E(N, s): capture endpoints of pipeline stage s.
  [[nodiscard]] const std::vector<GateId>& stage_endpoints(std::uint8_t s) const;

  /// Summary counters for reporting.
  struct Stats {
    std::size_t gates = 0;
    std::size_t combinational = 0;
    std::size_t dffs = 0;
    std::size_t inputs = 0;
    std::size_t outputs = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  std::vector<Gate> gates_;
  std::vector<std::string> names_;
  std::vector<GateId> topo_;
  std::vector<ProgramGate> program_;
  std::vector<GateId> program_index_;
  std::vector<GateId> inputs_;
  std::vector<GateId> constants_;
  std::vector<GateId> dffs_;
  std::vector<GateId> outputs_;
  std::vector<std::vector<GateId>> stage_endpoints_;
  std::vector<std::vector<GateId>> fanouts_;
  std::uint8_t stage_count_ = 0;
  bool finalized_ = false;
};

}  // namespace terrors::netlist
