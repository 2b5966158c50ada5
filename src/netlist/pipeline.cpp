#include "netlist/pipeline.hpp"

namespace terrors::netlist {
namespace {

constexpr std::uint8_t kFe = 0;
constexpr std::uint8_t kDe = 1;
constexpr std::uint8_t kRa = 2;
constexpr std::uint8_t kEx = 3;
constexpr std::uint8_t kMe = 4;
constexpr std::uint8_t kWb = 5;

constexpr int kWidth = 32;             ///< datapath bits: the 32-bit ISA's word
constexpr std::uint64_t kSeed = 1;     ///< elaboration seed (placement, clouds, jitter)
constexpr double kDelayJitter = 0.08;  ///< per-gate delay jitter fraction
constexpr int kCloudWidth = 40;        ///< gates per layer in random control clouds
constexpr int kCloudDepth = 7;         ///< layers per random control cloud
constexpr int kCtrlStateBits = 16;     ///< control state flip-flops per stage cloud

}  // namespace

Pipeline build_pipeline(const PipelineConfig& config) {
  const int w = kWidth;

  NetlistBuilder b{support::Rng(kSeed)};
  b.set_delay_jitter(kDelayJitter);
  Pipeline p;
  PipelinePorts& ports = p.ports;
  PipelineTaps& taps = p.taps;

  // ---------------------------------------------------------------- FE --
  b.begin_component(kFe, 0.5f, 0.8f);
  taps.pc_reg = b.dff_word(w, EndpointClass::kControl);
  ports.branch_target = b.input_word(w);
  ports.branch_taken = b.input();
  // PC + 4 ripple incrementer: the long control-network path whose
  // activation depth depends on the PC value's carry chain.
  auto pc_inc = b.ripple_adder(taps.pc_reg, b.constant_word(4, w));
  Word next_pc = b.mux_word(pc_inc.sum, ports.branch_target, ports.branch_taken);
  b.connect_word(taps.pc_reg, next_pc);

  b.begin_component(kFe, 0.5f, 0.4f);
  ports.instr = b.input_word(w);
  taps.ir_reg = b.dff_word(w, EndpointClass::kControl);
  b.connect_word(taps.ir_reg, ports.instr);

  // Instruction-memory control cloud: consumes PC bits, drives FE state.
  b.begin_component(kFe, 0.5f, 0.1f);
  Word fe_cloud = b.random_cloud(taps.pc_reg, kCloudWidth, kCloudDepth);
  Word fe_state = b.dff_word(kCtrlStateBits, EndpointClass::kControl);
  for (std::size_t i = 0; i < fe_state.size(); ++i)
    b.connect(fe_state[i], fe_cloud[i % fe_cloud.size()]);

  // ---------------------------------------------------------------- DE --
  // Decode cloud: IR + FE state -> decode control state.
  b.begin_component(kDe, 1.5f, 0.15f);
  Word de_in = taps.ir_reg;
  de_in.insert(de_in.end(), fe_state.begin(), fe_state.end());
  Word de_cloud = b.random_cloud(de_in, kCloudWidth, kCloudDepth);
  Word de_state = b.dff_word(kCtrlStateBits, EndpointClass::kControl);
  for (std::size_t i = 0; i < de_state.size(); ++i)
    b.connect(de_state[i], de_cloud[i % de_cloud.size()]);

  // Immediate extraction: low half of IR, sign-extended through muxes.
  b.begin_component(kDe, 1.5f, 0.45f);
  Word imm_de;
  imm_de.reserve(static_cast<std::size_t>(w));
  const GateId sign = taps.ir_reg[static_cast<std::size_t>(w / 2 - 1)];
  for (int i = 0; i < w; ++i) {
    if (i < w / 2) {
      imm_de.push_back(taps.ir_reg[static_cast<std::size_t>(i)]);
    } else {
      imm_de.push_back(b.gate(GateKind::kBuf, sign));
    }
  }
  Word imm_de_reg = b.dff_word(w, EndpointClass::kData);
  b.connect_word(imm_de_reg, imm_de);

  // Register-file read port: architectural read values enter as primary
  // inputs and pass through a read-port mux layer gated by decode bits.
  b.begin_component(kDe, 1.5f, 0.75f);
  ports.op_a = b.input_word(w);
  ports.op_b = b.input_word(w);
  auto read_port = [&](const Word& val) {
    // Three mux levels emulate the read-port selection tree of a 32-entry
    // register file; selects chosen so the value passes through unchanged.
    const GateId zero = b.constant(false);
    Word cur = val;
    for (int lvl = 0; lvl < 3; ++lvl) {
      Word other(static_cast<std::size_t>(w), zero);
      cur = b.mux_word(other, cur, b.constant(true));
    }
    Word reg = b.dff_word(w, EndpointClass::kData);
    b.connect_word(reg, cur);
    return reg;
  };
  taps.op_a_reg = read_port(ports.op_a);
  taps.op_b_reg = read_port(ports.op_b);

  // ---------------------------------------------------------------- RA --
  // Declared early because the bypass network forwards from EX / ME.
  b.begin_component(kEx, 3.5f, 0.5f);
  taps.ex_result_reg = b.dff_word(w, EndpointClass::kData);
  b.begin_component(kMe, 4.5f, 0.5f);
  taps.me_result_reg = b.dff_word(w, EndpointClass::kData);

  b.begin_component(kRa, 2.5f, 0.6f);
  ports.bypass_a = b.input_word(2);
  ports.bypass_b = b.input_word(2);
  auto bypass = [&](const Word& reg_val, const Word& sel) {
    // 00: register value, 01: forward from EX, 1x: forward from ME.
    Word lvl1 = b.mux_word(reg_val, taps.ex_result_reg, sel[0]);
    Word lvl2 = b.mux_word(lvl1, taps.me_result_reg, sel[1]);
    Word reg = b.dff_word(w, EndpointClass::kData);
    b.connect_word(reg, lvl2);
    return reg;
  };
  taps.ra_a_reg = bypass(taps.op_a_reg, ports.bypass_a);
  taps.ra_b_reg = bypass(taps.op_b_reg, ports.bypass_b);

  Word imm_ra_reg = b.dff_word(w, EndpointClass::kData);
  b.connect_word(imm_ra_reg, imm_de_reg);

  // Branch comparator + hazard cloud.
  b.begin_component(kRa, 2.5f, 0.15f);
  const GateId cmp_eq = b.equals(taps.op_a_reg, taps.op_b_reg);
  Word ra_in = de_state;
  ra_in.push_back(cmp_eq);
  Word ra_cloud = b.random_cloud(ra_in, kCloudWidth, kCloudDepth);
  Word ra_state = b.dff_word(kCtrlStateBits, EndpointClass::kControl);
  for (std::size_t i = 0; i < ra_state.size(); ++i)
    b.connect(ra_state[i], ra_cloud[i % ra_cloud.size()]);

  // ---------------------------------------------------------------- EX --
  b.begin_component(kEx, 3.5f, 0.75f);
  ports.sel_imm = b.input();
  ports.sub_mode = b.input();
  ports.alu_sel = b.input_word(2);
  ports.logic_sel = b.input_word(2);
  ports.shift_dir = b.input();

  Word opb_mux = b.mux_word(taps.ra_b_reg, imm_ra_reg, ports.sel_imm);
  // Add / subtract: b XOR sub_mode with carry-in sub_mode.
  Word sub_word(static_cast<std::size_t>(w), ports.sub_mode);
  Word b_eff = b.xor_word(opb_mux, sub_word);
  auto add = config.ex_adder == AdderKind::kCarrySelect
                 ? b.carry_select_adder(taps.ra_a_reg, b_eff, 4, ports.sub_mode)
                 : b.ripple_adder(taps.ra_a_reg, b_eff, ports.sub_mode);

  b.begin_component(kEx, 3.5f, 0.45f);
  Word and_out = b.and_word(taps.ra_a_reg, opb_mux);
  Word or_out = b.or_word(taps.ra_a_reg, opb_mux);
  Word xor_out = b.xor_word(taps.ra_a_reg, opb_mux);
  Word nota_out = b.not_word(taps.ra_a_reg);
  Word logic_out = b.mux_tree({and_out, or_out, xor_out, nota_out}, ports.logic_sel);

  b.begin_component(kEx, 3.5f, 0.25f);
  Word shamt(ports.alu_sel);  // placeholder width; real shift amount = low 5 bits of operand B
  shamt.assign(opb_mux.begin(), opb_mux.begin() + 5);
  Word shl = b.shift_left(taps.ra_a_reg, shamt);
  Word shr = b.shift_right(taps.ra_a_reg, shamt);
  Word shift_out = b.mux_word(shl, shr, ports.shift_dir);

  Word alu_out = b.mux_tree({add.sum, logic_out, shift_out, opb_mux}, ports.alu_sel);
  b.connect_word(taps.ex_result_reg, alu_out);

  // Condition codes: N, Z, C, V (data endpoints per the paper).
  b.begin_component(kEx, 3.5f, 0.08f);
  const GateId cc_n = b.gate(GateKind::kBuf, alu_out.back());
  const GateId cc_z = b.gate(GateKind::kInv, b.or_reduce(alu_out));
  const GateId cc_c = b.gate(GateKind::kBuf, add.carry_out);
  const GateId a_msb = taps.ra_a_reg.back();
  const GateId b_msb = b_eff.back();
  const GateId r_msb = add.sum.back();
  // Signed overflow: carry into MSB != carry out of MSB, expressed through
  // operand/result signs: V = (a == b) && (r != a).
  const GateId same_in = b.gate(GateKind::kXnor2, a_msb, b_msb);
  const GateId diff_out = b.gate(GateKind::kXor2, a_msb, r_msb);
  const GateId cc_v = b.gate(GateKind::kAnd2, same_in, diff_out);
  taps.cc_reg = {b.dff(EndpointClass::kData), b.dff(EndpointClass::kData),
                 b.dff(EndpointClass::kData), b.dff(EndpointClass::kData)};
  b.connect(taps.cc_reg[0], cc_n);
  b.connect(taps.cc_reg[1], cc_z);
  b.connect(taps.cc_reg[2], cc_c);
  b.connect(taps.cc_reg[3], cc_v);

  // Exception / trap cloud.
  b.begin_component(kEx, 3.5f, 0.9f);
  Word ex_in = ra_state;
  ex_in.push_back(add.carry_out);
  Word ex_cloud = b.random_cloud(ex_in, kCloudWidth, kCloudDepth);
  Word ex_state = b.dff_word(kCtrlStateBits, EndpointClass::kControl);
  for (std::size_t i = 0; i < ex_state.size(); ++i)
    b.connect(ex_state[i], ex_cloud[i % ex_cloud.size()]);

  // ---------------------------------------------------------------- ME --
  b.begin_component(kMe, 4.5f, 0.8f);
  taps.mem_addr_reg = b.dff_word(w, EndpointClass::kData);
  b.connect_word(taps.mem_addr_reg, taps.ex_result_reg);

  ports.mem_data = b.input_word(w);
  ports.mem_is_load = b.input();
  Word me_mux = b.mux_word(taps.ex_result_reg, ports.mem_data, ports.mem_is_load);
  b.connect_word(taps.me_result_reg, me_mux);

  b.begin_component(kMe, 4.5f, 0.15f);
  Word me_in = ex_state;
  me_in.push_back(ports.mem_is_load);
  Word me_cloud = b.random_cloud(me_in, kCloudWidth, kCloudDepth);
  Word me_state = b.dff_word(kCtrlStateBits, EndpointClass::kControl);
  for (std::size_t i = 0; i < me_state.size(); ++i)
    b.connect(me_state[i], me_cloud[i % me_cloud.size()]);

  // ---------------------------------------------------------------- WB --
  b.begin_component(kWb, 5.5f, 0.6f);
  taps.wb_result_reg = b.dff_word(w, EndpointClass::kData);
  // Writeback passes the ME result through a commit mux (pass-through
  // select models the regfile write port enable).
  Word wb_mux = b.mux_word(taps.me_result_reg, taps.me_result_reg, me_state[0]);
  b.connect_word(taps.wb_result_reg, wb_mux);
  for (int i = 0; i < w; i += 8)
    b.output(taps.wb_result_reg[static_cast<std::size_t>(i)],
             EndpointClass::kData);

  b.begin_component(kWb, 5.5f, 0.15f);
  ports.ctrl_noise = b.input_word(4);
  Word wb_in = me_state;
  wb_in.insert(wb_in.end(), ports.ctrl_noise.begin(), ports.ctrl_noise.end());
  Word wb_cloud = b.random_cloud(wb_in, kCloudWidth, kCloudDepth);
  Word wb_state = b.dff_word(kCtrlStateBits, EndpointClass::kControl);
  for (std::size_t i = 0; i < wb_state.size(); ++i)
    b.connect(wb_state[i], wb_cloud[i % wb_cloud.size()]);

  p.netlist = std::move(b.netlist());
  p.netlist.finalize(Pipeline::kStages);
  return p;
}

}  // namespace terrors::netlist
