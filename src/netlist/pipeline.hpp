// Generator for a LEON3-like 6-stage in-order integer pipeline netlist:
//
//   FE (0): PC register, PC+4 ripple incrementer, branch-target mux,
//           instruction-memory control cloud, IR.
//   DE (1): instruction decode cloud, immediate extraction, register-file
//           read port (operand values injected as primary inputs through a
//           read-port mux layer).
//   RA (2): operand bypass network, hazard-detection cloud, branch
//           comparator.
//   EX (3): ALU (ripple adder, logic unit, barrel shifter), result mux,
//           condition codes, exception cloud.
//   ME (4): memory address register, memory control cloud, load-data mux.
//   WB (5): writeback mux, commit control cloud, architectural outputs.
//
// This plays the role of the paper's synthesised LEON3 integer unit: a
// gate graph with multi-stage endpoints, control vs data endpoint classes,
// realistic depth distribution (the carry chains are the near-critical
// paths) and a 2-D placement for the spatial-correlation model.
//
// The register file itself is modelled architecturally: read values enter
// as primary inputs at DE through the read-port mux layer (see DESIGN.md,
// substitution table).
#pragma once

#include <cstdint>

#include "netlist/builder.hpp"

namespace terrors::netlist {

/// EX-stage adder architecture (ablation knob: the ripple adder's
/// operand-dependent carry chains are the paper-relevant default; carry
/// select compresses the dynamic-slack spread).
enum class AdderKind : std::uint8_t { kRipple, kCarrySelect };

struct PipelineConfig {
  AdderKind ex_adder = AdderKind::kRipple;
};

/// Primary-input handles, grouped by the cycle they must be driven in
/// relative to an instruction's fetch cycle t.
struct PipelinePorts {
  // Driven at t (instruction in FE):
  Word instr;
  Word branch_target;
  GateId branch_taken = kNoGate;
  // Driven at t+1 (instruction in DE):
  Word op_a;
  Word op_b;
  // Driven at t+2 (instruction in RA):
  Word bypass_a;  ///< 2 bits
  Word bypass_b;  ///< 2 bits
  // Driven at t+3 (instruction in EX):
  Word alu_sel;        ///< 2 bits: 0=add/sub, 1=logic, 2=shift, 3=pass-B
  GateId sel_imm = kNoGate;
  GateId sub_mode = kNoGate;
  GateId shift_dir = kNoGate;
  Word logic_sel;  ///< 2 bits: and / or / xor / not-A
  // Driven at t+4 (instruction in ME):
  Word mem_data;
  GateId mem_is_load = kNoGate;
  // Driven every cycle (asynchronous control environment):
  Word ctrl_noise;
};

/// Named endpoint groups used by the DTA layer and the datapath model.
struct PipelineTaps {
  Word pc_reg;         ///< FE control endpoints
  Word ir_reg;         ///< FE control endpoints
  Word op_a_reg;       ///< DE data endpoints (register-file read latch)
  Word op_b_reg;
  Word ra_a_reg;       ///< RA data endpoints (post-bypass operands)
  Word ra_b_reg;
  Word ex_result_reg;  ///< EX data endpoints (ALU result)
  Word cc_reg;         ///< EX data endpoints (condition codes)
  Word mem_addr_reg;   ///< ME data endpoints (load/store address)
  Word me_result_reg;  ///< ME data endpoints
  Word wb_result_reg;  ///< WB data endpoints
};

struct Pipeline {
  static constexpr std::uint8_t kStages = 6;
  Netlist netlist;
  PipelinePorts ports;
  PipelineTaps taps;
};

/// Elaborate, place and finalize the pipeline netlist.
Pipeline build_pipeline(const PipelineConfig& config);

}  // namespace terrors::netlist
