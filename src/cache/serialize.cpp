#include "cache/serialize.hpp"

#include <bit>

namespace terrors::cache {

void ByteWriter::u32(std::uint32_t v) {
  const std::uint8_t b[4] = {static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
                             static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
  buf_.insert(buf_.end(), b, b + 4);
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

const std::uint8_t* ByteReader::take(std::size_t n) {
  if (len_ - pos_ < n) {
    ok_ = false;
    pos_ = len_;
    return nullptr;
  }
  pos_ += n;
  return data_ + pos_ - n;
}

std::uint8_t ByteReader::u8() {
  const std::uint8_t* p = take(1);
  return p != nullptr ? p[0] : 0;
}

std::uint32_t ByteReader::u32() {
  std::uint32_t v = 0;
  if (const std::uint8_t* p = take(4))
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t ByteReader::u64() {
  std::uint64_t v = 0;
  if (const std::uint8_t* p = take(8))
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::uint64_t ByteReader::count(std::size_t min_elem_bytes) {
  const std::uint64_t n = u64();
  if (min_elem_bytes > 0 && n > remaining() / min_elem_bytes) {
    ok_ = false;
    return 0;
  }
  return n;
}

namespace {

void encode_dts(const dta::DtsGaussian& g, ByteWriter& w) {
  w.f64(g.slack.mean);
  w.f64(g.slack.sd);
  w.f64(g.global_loading);
}

dta::DtsGaussian decode_dts(ByteReader& r) {
  dta::DtsGaussian g;
  g.slack.mean = r.f64();
  g.slack.sd = r.f64();
  g.global_loading = r.f64();
  return g;
}

void encode_edge(const dta::EdgeControlDts& edge, ByteWriter& w) {
  w.u64(edge.instr.size());
  for (const auto& opt : edge.instr) {
    w.u8(opt.has_value() ? 1 : 0);
    if (opt.has_value()) encode_dts(*opt, w);
  }
}

dta::EdgeControlDts decode_edge(ByteReader& r) {
  dta::EdgeControlDts edge;
  const std::uint64_t n = r.count(1);
  if (!r.ok()) return edge;
  edge.instr.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    const std::uint8_t has = r.u8();
    if (has > 1) {
      r.fail();  // invalid tag: the caller recomputes
      break;
    }
    edge.instr.push_back(has == 1 ? std::optional<dta::DtsGaussian>(decode_dts(r)) : std::nullopt);
  }
  return edge;
}

void encode_linear(const dta::DatapathModel::Linear& l, ByteWriter& w) {
  w.f64(l.base);
  w.f64(l.per_unit);
}

dta::DatapathModel::Linear decode_linear(ByteReader& r) {
  dta::DatapathModel::Linear l;
  l.base = r.f64();
  l.per_unit = r.f64();
  return l;
}

void encode_ex_context(const isa::ExContext& cx, ByteWriter& w) {
  w.u32(cx.a);
  w.u32(cx.b);
  w.u8(static_cast<std::uint8_t>(cx.unit));
  w.u8(static_cast<std::uint8_t>(cx.op));
}

isa::ExContext decode_ex_context(ByteReader& r) {
  isa::ExContext cx;
  cx.a = r.u32();
  cx.b = r.u32();
  const std::uint8_t unit = r.u8();
  const std::uint8_t op = r.u8();
  if (unit > static_cast<std::uint8_t>(isa::ExUnit::kCompare) || op >= isa::kOpcodeCount) {
    r.fail();
    return cx;
  }
  cx.unit = static_cast<isa::ExUnit>(unit);
  cx.op = static_cast<isa::Opcode>(op);
  return cx;
}

void encode_edge_samples(const isa::EdgeSamples& es, ByteWriter& w) {
  w.u64(es.seen);
  w.u64(es.samples.size());
  for (const isa::BlockSample& sample : es.samples) {
    w.u64(sample.instrs.size());
    if (sample.instrs.empty()) continue;
    encode_ex_context(sample.instrs.front().prev, w);
    for (const isa::InstrDynContext& ctx : sample.instrs) {
      w.u32(ctx.cur.a);
      w.u32(ctx.cur.b);
      w.u32(ctx.result);
    }
  }
}

/// Samples of one (block, edge) reservoir; `base_pc` is the block's
/// first instruction address.
isa::EdgeSamples decode_edge_samples(ByteReader& r, const isa::BasicBlock& blk,
                                     std::uint32_t base_pc) {
  isa::EdgeSamples es;
  es.seen = r.u64();
  es.samples.resize(r.count(8));
  for (isa::BlockSample& sample : es.samples) {
    const std::uint64_t n = r.count(12);
    if (!r.ok() || n > blk.size()) {
      r.fail();
      break;
    }
    sample.instrs.resize(n);
    if (n == 0) continue;
    isa::ExContext prev = decode_ex_context(r);
    for (std::size_t k = 0; k < n; ++k) {
      isa::InstrDynContext& ctx = sample.instrs[k];
      const isa::Opcode op = blk.instructions[k].op;
      ctx.cur.a = r.u32();
      ctx.cur.b = r.u32();
      ctx.cur.unit = isa::ex_unit(op);
      ctx.cur.op = op;
      ctx.prev = prev;
      ctx.result = r.u32();
      ctx.pc = base_pc + static_cast<std::uint32_t>(k) * 4u;
      prev = ctx.cur;
    }
  }
  return es;
}

}  // namespace

void encode_control(const std::vector<dta::BlockControlDts>& control,
                    const timing::TimingSpec& spec, ByteWriter& w) {
  w.f64(spec.period_ps);
  w.f64(spec.setup_ps);
  w.u64(control.size());
  for (const auto& block : control) {
    w.u64(block.per_edge.size());
    for (const auto& edge : block.per_edge) encode_edge(edge, w);
    encode_edge(block.entry, w);
  }
}

std::optional<std::vector<dta::BlockControlDts>> decode_control(ByteReader& r,
                                                                const timing::TimingSpec& spec) {
  const double period = r.f64();
  const double setup = r.f64();
  if (!r.ok() || std::bit_cast<std::uint64_t>(period) != std::bit_cast<std::uint64_t>(spec.period_ps) ||
      std::bit_cast<std::uint64_t>(setup) != std::bit_cast<std::uint64_t>(spec.setup_ps))
    return std::nullopt;
  const std::uint64_t nb = r.count(8);
  std::vector<dta::BlockControlDts> out;
  out.reserve(nb);
  for (std::uint64_t b = 0; b < nb && r.ok(); ++b) {
    dta::BlockControlDts block;
    const std::uint64_t ne = r.count(8);
    if (!r.ok()) break;
    block.per_edge.reserve(ne);
    for (std::uint64_t e = 0; e < ne && r.ok(); ++e) block.per_edge.push_back(decode_edge(r));
    block.entry = decode_edge(r);
    out.push_back(std::move(block));
  }
  if (!r.done()) return std::nullopt;
  return out;
}

void encode_datapath(const dta::DatapathModel::Params& params, ByteWriter& w) {
  encode_linear(params.adder_mean, w);
  encode_linear(params.adder_sd, w);
  encode_linear(params.adder_gl, w);
  encode_dts(params.logic, w);
  encode_dts(params.shift, w);
  encode_dts(params.pass, w);
  w.f64(params.period_ref);
}

std::optional<dta::DatapathModel::Params> decode_datapath(ByteReader& r) {
  dta::DatapathModel::Params p;
  p.adder_mean = decode_linear(r);
  p.adder_sd = decode_linear(r);
  p.adder_gl = decode_linear(r);
  p.logic = decode_dts(r);
  p.shift = decode_dts(r);
  p.pass = decode_dts(r);
  p.period_ref = r.f64();
  if (!r.done()) return std::nullopt;
  return p;
}

void encode_profile(const isa::ProgramProfile& profile, std::uint64_t digest, ByteWriter& w) {
  w.u64(profile.total_instructions);
  w.u64(profile.runs);
  w.u64(profile.blocks.size());
  for (const isa::BlockProfile& bp : profile.blocks) {
    w.u64(bp.executions);
    w.u64(bp.entry_count);
    w.u64(bp.edge_counts.size());
    for (const std::uint64_t c : bp.edge_counts) w.u64(c);
    for (const isa::EdgeSamples& es : bp.edge_samples) encode_edge_samples(es, w);
    encode_edge_samples(bp.entry_samples, w);
  }
  w.u64(profile.block_traces.size());
  for (const auto& trace : profile.block_traces) {
    w.u64(trace.size());
    for (const isa::BlockTraceStep& step : trace) {
      w.u32(step.block);
      w.u32(static_cast<std::uint32_t>(step.incoming_edge));
    }
  }
  w.u64(digest);
}

std::optional<CachedProfile> decode_profile(ByteReader& r, const isa::Executor& executor) {
  const isa::Program& program = executor.program();
  const isa::Cfg& cfg = executor.cfg();
  CachedProfile out;
  isa::ProgramProfile& profile = out.profile;
  profile.total_instructions = r.u64();
  profile.runs = r.u64();
  if (r.count(8) != program.block_count() || !r.ok()) return std::nullopt;
  profile.blocks.resize(program.block_count());
  for (isa::BlockId b = 0; b < program.block_count(); ++b) {
    isa::BlockProfile& bp = profile.blocks[b];
    bp.executions = r.u64();
    bp.entry_count = r.u64();
    if (r.count(8) != cfg.indegree(b) || !r.ok()) return std::nullopt;
    bp.edge_counts.resize(cfg.indegree(b));
    for (std::uint64_t& c : bp.edge_counts) c = r.u64();
    const isa::BasicBlock& blk = program.block(b);
    for (std::size_t j = 0; j < cfg.indegree(b) && r.ok(); ++j)
      bp.edge_samples.push_back(decode_edge_samples(r, blk, executor.block_pc(b)));
    bp.entry_samples = decode_edge_samples(r, blk, executor.block_pc(b));
    if (!r.ok()) return std::nullopt;
  }
  profile.block_traces.resize(r.count(8));
  for (auto& trace : profile.block_traces) {
    trace.resize(r.count(8));
    for (isa::BlockTraceStep& step : trace) {
      step.block = r.u32();
      step.incoming_edge = static_cast<std::int32_t>(r.u32());
      if (step.block >= program.block_count() || step.incoming_edge < -1 ||
          step.incoming_edge >= static_cast<std::int64_t>(cfg.indegree(step.block))) {
        r.fail();
        return std::nullopt;
      }
    }
  }
  out.digest = r.u64();
  if (!r.done()) return std::nullopt;
  return out;
}

}  // namespace terrors::cache
