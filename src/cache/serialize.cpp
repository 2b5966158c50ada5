#include "cache/serialize.hpp"

#include <bit>

namespace terrors::cache {

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

std::uint8_t ByteReader::u8() {
  if (pos_ >= len_) {
    ok_ = false;
    return 0;
  }
  return data_[pos_++];
}

std::uint32_t ByteReader::u32() {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
  return v;
}

std::uint64_t ByteReader::u64() {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
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

}  // namespace terrors::cache
