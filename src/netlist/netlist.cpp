#include "netlist/netlist.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace terrors::netlist {
namespace {

/// The gate's function as a truth table indexed by (a | b << 1 | c << 2);
/// bits of unused fanins do not affect the output.
std::uint8_t truth_table(GateKind kind) {
  const auto arity = static_cast<std::size_t>(info(kind).arity);
  std::uint8_t table = 0;
  for (unsigned row = 0; row < 8; ++row) {
    const std::array<bool, 3> in = {(row & 1u) != 0, (row & 2u) != 0, (row & 4u) != 0};
    if (eval_gate(kind, std::span<const bool>(in.data(), arity)))
      table = static_cast<std::uint8_t>(table | (1u << row));
  }
  return table;
}

}  // namespace

GateId Netlist::add(GateKind kind, std::array<GateId, 3> fanin, std::uint8_t stage) {
  TE_REQUIRE(!finalized_, "cannot add gates after finalize()");
  Gate g;
  g.kind = kind;
  g.fanin = fanin;
  g.stage = stage;
  g.delay_ps = static_cast<float>(info(kind).delay_ps);
  const auto id = static_cast<GateId>(gates_.size());
  gates_.push_back(g);
  return id;
}

void Netlist::set_fanin(GateId gate_id, int slot, GateId driver) {
  TE_REQUIRE(!finalized_, "cannot rewire after finalize()");
  TE_REQUIRE(gate_id < gates_.size() && driver < gates_.size(), "gate id out of range");
  TE_REQUIRE(slot >= 0 && slot < gates_[gate_id].arity(), "fanin slot out of range");
  gates_[gate_id].fanin[static_cast<std::size_t>(slot)] = driver;
}

void Netlist::set_endpoint_class(GateId gate_id, EndpointClass c) {
  TE_REQUIRE(gate_id < gates_.size(), "gate id out of range");
  TE_REQUIRE(gates_[gate_id].is_capture_endpoint(),
             "endpoint class applies to DFFs and outputs only");
  gates_[gate_id].endpoint_class = c;
}

void Netlist::set_placement(GateId gate_id, float x, float y) {
  TE_REQUIRE(gate_id < gates_.size(), "gate id out of range");
  gates_[gate_id].x = x;
  gates_[gate_id].y = y;
}

void Netlist::finalize(std::uint8_t stage_count) {
  TE_REQUIRE(!finalized_, "finalize() called twice");
  TE_REQUIRE(stage_count > 0, "pipeline needs at least one stage");
  stage_count_ = stage_count;

  inputs_.clear();
  constants_.clear();
  dffs_.clear();
  outputs_.clear();
  fanouts_.assign(gates_.size(), {});
  stage_endpoints_.assign(stage_count, {});

  for (GateId id = 0; id < gates_.size(); ++id) {
    const Gate& g = gates_[id];
    TE_REQUIRE(g.stage < stage_count, "gate stage out of range");
    for (int s = 0; s < g.arity(); ++s) {
      const GateId f = g.fanin[static_cast<std::size_t>(s)];
      TE_REQUIRE(f != kNoGate, "unwired fanin at finalize()");
      TE_REQUIRE(f < gates_.size(), "fanin out of range");
      fanouts_[f].push_back(id);
    }
    switch (g.kind) {
      case GateKind::kInput:
        inputs_.push_back(id);
        break;
      case GateKind::kConst0:
      case GateKind::kConst1:
        constants_.push_back(id);
        break;
      case GateKind::kDff:
        dffs_.push_back(id);
        stage_endpoints_[g.stage].push_back(id);
        break;
      case GateKind::kOutput:
        outputs_.push_back(id);
        stage_endpoints_[g.stage].push_back(id);
        break;
      default:
        break;
    }
  }

  // Kahn topological sort over combinational gates.  DFF outputs, inputs
  // and constants are sources; DFF data inputs and outputs are sinks, so
  // sequential loops are legal while combinational loops are rejected.
  std::vector<int> pending(gates_.size(), 0);
  for (GateId id = 0; id < gates_.size(); ++id) {
    const Gate& g = gates_[id];
    if (!info(g.kind).combinational) continue;
    int count = 0;
    for (int s = 0; s < g.arity(); ++s) {
      const Gate& f = gates_[g.fanin[static_cast<std::size_t>(s)]];
      if (info(f.kind).combinational) ++count;
    }
    pending[id] = count;
  }
  topo_.clear();
  topo_.reserve(gates_.size());
  std::vector<GateId> ready;
  for (GateId id = 0; id < gates_.size(); ++id) {
    if (info(gates_[id].kind).combinational && pending[id] == 0) ready.push_back(id);
  }
  std::size_t comb_total = 0;
  for (GateId id = 0; id < gates_.size(); ++id)
    if (info(gates_[id].kind).combinational) ++comb_total;
  while (!ready.empty()) {
    const GateId id = ready.back();
    ready.pop_back();
    topo_.push_back(id);
    for (GateId out : fanouts_[id]) {
      if (!info(gates_[out].kind).combinational) continue;
      if (--pending[out] == 0) ready.push_back(out);
    }
  }
  TE_REQUIRE(topo_.size() == comb_total, "combinational cycle detected");

  program_.clear();
  program_.reserve(topo_.size());
  program_index_.assign(gates_.size(), kNoGate);
  for (GateId id : topo_) {
    const Gate& g = gates_[id];
    ProgramGate pg;
    pg.out = id;
    pg.fanin.fill(zero_slot());
    std::copy_n(g.fanin.begin(), g.arity(), pg.fanin.begin());
    pg.delay_ps = g.delay_ps;
    pg.truth = truth_table(g.kind);
    pg.arity = static_cast<std::uint8_t>(g.arity());
    program_index_[id] = static_cast<GateId>(program_.size());
    program_.push_back(pg);
  }
  launch_points_.clear();
  for (GateId id = 0; id < gates_.size(); ++id)
    if (!info(gates_[id].kind).combinational) launch_points_.push_back(id);

  stage_cones_.assign(stage_count, {});
  for (std::uint8_t s = 0; s < stage_count; ++s) {
    for (const EndpointClass cls :
         {EndpointClass::kNone, EndpointClass::kControl, EndpointClass::kData}) {
      std::vector<GateId> endpoints;
      for (GateId e : stage_endpoints_[s])
        if (cls == EndpointClass::kNone || gates_[e].endpoint_class == cls) endpoints.push_back(e);
      stage_cones_[s][static_cast<std::size_t>(cls)] = build_cone(endpoints, false);
    }
  }
  finalized_ = true;
}

Cone Netlist::build_cone(std::span<const GateId> endpoints, bool sequential) const {
  std::vector<std::uint8_t> in(gates_.size(), 0);
  std::vector<GateId> stack;
  for (GateId e : endpoints) {
    TE_REQUIRE(e < gates_.size() && gates_[e].is_capture_endpoint(),
               "cones start at capture endpoints");
    stack.push_back(gates_[e].fanin[0]);
  }
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    if (in[g] != 0) continue;
    in[g] = 1;
    const Gate& gate = gates_[g];
    // A combinational gate reads its fanins in the same cycle; in the
    // sequential closure a flip-flop's (or output's) value comes from its
    // data input, so its cone joins too.
    if (info(gate.kind).combinational || (sequential && gate.is_capture_endpoint()))
      stack.insert(stack.end(), gate.fanin.begin(), gate.fanin.begin() + gate.arity());
  }
  Cone cone;
  cone.endpoints.assign(endpoints.begin(), endpoints.end());
  for (GateId id : launch_points_)
    if (in[id] != 0) cone.launches.push_back(id);
  for (const ProgramGate& pg : program_)
    if (in[pg.out] != 0) cone.gates.push_back(pg);
  return cone;
}

Cone Netlist::sequential_closure(std::span<const GateId> endpoints) const {
  TE_REQUIRE(finalized_, "netlist not finalized");
  return build_cone(endpoints, true);
}

const std::vector<GateId>& Netlist::launch_points() const {
  TE_REQUIRE(finalized_, "netlist not finalized");
  return launch_points_;
}

const Cone& Netlist::stage_cone(std::uint8_t s, EndpointClass cls) const {
  TE_REQUIRE(finalized_, "netlist not finalized");
  TE_REQUIRE(s < stage_count_, "stage out of range");
  return stage_cones_[s][static_cast<std::size_t>(cls)];
}

const std::vector<GateId>& Netlist::topo_order() const {
  TE_REQUIRE(finalized_, "netlist not finalized");
  return topo_;
}

const std::vector<ProgramGate>& Netlist::program() const {
  TE_REQUIRE(finalized_, "netlist not finalized");
  return program_;
}

const std::vector<GateId>& Netlist::stage_endpoints(std::uint8_t s) const {
  TE_REQUIRE(finalized_, "netlist not finalized");
  TE_REQUIRE(s < stage_count_, "stage out of range");
  return stage_endpoints_[s];
}

Netlist::Stats Netlist::stats() const {
  Stats s;
  s.gates = gates_.size();
  for (const Gate& g : gates_) {
    if (info(g.kind).combinational) ++s.combinational;
    if (g.kind == GateKind::kDff) ++s.dffs;
    if (g.kind == GateKind::kInput) ++s.inputs;
    if (g.kind == GateKind::kOutput) ++s.outputs;
  }
  return s;
}

}  // namespace terrors::netlist
