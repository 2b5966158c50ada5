#include "cache/key.hpp"

#include "support/hash.hpp"

namespace terrors::cache {

namespace {

using support::HashStream;

void feed_ex_context(HashStream& h, const isa::ExContext& cx) {
  h.u32(cx.a);
  h.u32(cx.b);
  h.u8(static_cast<std::uint8_t>(cx.unit));
  h.u8(static_cast<std::uint8_t>(cx.op));
}

void feed_edge_samples(HashStream& h, const isa::EdgeSamples& es) {
  h.u64(es.seen);
  h.u64(es.samples.size());
  for (const auto& sample : es.samples) {
    h.u64(sample.instrs.size());
    for (const auto& ctx : sample.instrs) {
      feed_ex_context(h, ctx.cur);
      feed_ex_context(h, ctx.prev);
      h.u32(ctx.result);
      h.u32(ctx.pc);
    }
  }
}

}  // namespace

std::uint64_t hash_netlist(const netlist::Netlist& nl) {
  HashStream h;
  h.u64(nl.size());
  h.u8(nl.stage_count());
  for (netlist::GateId g = 0; g < nl.size(); ++g) {
    const netlist::Gate& gate = nl.gate(g);
    h.u8(static_cast<std::uint8_t>(gate.kind));
    for (const netlist::GateId f : gate.fanin) h.u32(f);
    h.u8(gate.stage);
    h.u8(static_cast<std::uint8_t>(gate.endpoint_class));
    h.f32(gate.x);
    h.f32(gate.y);
    h.f32(gate.delay_ps);
  }
  return h.digest();
}

std::uint64_t hash_variation(const timing::VariationConfig& cfg) {
  HashStream h;
  h.f64(cfg.sigma);
  h.f64(cfg.w_global);
  h.f64(cfg.w_spatial);
  h.f64(cfg.w_indep);
  h.i32(cfg.anchors_x);
  h.i32(cfg.anchors_y);
  h.f64(cfg.corr_length);
  h.u8(cfg.spatial_enabled ? 1 : 0);
  return h.digest();
}

std::uint64_t hash_spec(const timing::TimingSpec& spec) {
  HashStream h;
  h.f64(spec.period_ps);
  h.f64(spec.setup_ps);
  return h.digest();
}

std::uint64_t hash_dts_config(const dta::DtsConfig& cfg) {
  HashStream h;
  h.u64(cfg.top_k);
  h.f64(cfg.percentile_high);
  h.u8(static_cast<std::uint8_t>(cfg.ordering));
  h.f64(cfg.prune_sigmas);
  return h.digest();
}

std::uint64_t hash_characterizer_config(const dta::ControlCharacterizerConfig& cfg) {
  HashStream h;
  h.i32(cfg.pred_tail);
  h.i32(cfg.warmup_nops);
  return h.digest();
}

std::uint64_t hash_program(const isa::Program& program) {
  // The name is cosmetic; only structure and instruction content matter.
  HashStream h;
  h.u64(program.block_count());
  h.u32(program.entry());
  for (isa::BlockId b = 0; b < program.block_count(); ++b) {
    const isa::BasicBlock& blk = program.block(b);
    h.u32(blk.taken);
    h.u32(blk.fallthrough);
    h.u64(blk.size());
    for (const isa::Instruction& inst : blk.instructions) {
      h.u8(static_cast<std::uint8_t>(inst.op));
      h.u8(inst.rd);
      h.u8(inst.rs1);
      h.u8(inst.rs2);
      h.i32(inst.imm);
    }
  }
  return h.digest();
}

std::uint64_t hash_profile(const isa::ProgramProfile& profile) {
  HashStream h;
  h.u64(profile.total_instructions);
  h.u64(profile.runs);
  h.u64(profile.blocks.size());
  for (const isa::BlockProfile& bp : profile.blocks) {
    h.u64(bp.executions);
    h.u64(bp.entry_count);
    h.u64(bp.edge_counts.size());
    for (const std::uint64_t c : bp.edge_counts) h.u64(c);
    feed_edge_samples(h, bp.entry_samples);
    h.u64(bp.edge_samples.size());
    for (const auto& es : bp.edge_samples) feed_edge_samples(h, es);
  }
  return h.digest();
}

std::uint64_t hash_inputs(const std::vector<isa::ProgramInput>& inputs) {
  HashStream h;
  h.u64(inputs.size());
  for (const isa::ProgramInput& in : inputs) {
    h.u64(in.registers.size());
    for (const std::uint32_t r : in.registers) h.u32(r);
    h.u64(in.memory_seed);
  }
  return h.digest();
}

std::uint64_t hash_executor_config(const isa::ExecutorConfig& cfg) {
  HashStream h;
  h.u64(cfg.max_instructions);
  h.u64(cfg.samples_per_edge);
  h.u64(cfg.memory_words);
  h.u64(cfg.sampling_seed);
  h.u8(cfg.record_block_trace ? 1 : 0);
  return h.digest();
}

std::uint64_t combine(std::initializer_list<std::uint64_t> parts) {
  HashStream h;
  h.u64(parts.size());
  for (const std::uint64_t p : parts) h.u64(p);
  return h.digest();
}

}  // namespace terrors::cache
