// Binary (de)serialisation of the two artifacts the cache stores:
// per-(block, edge) control DTS tables and trained datapath-model
// parameters.  Encoding is little-endian fixed-width with bit-exact
// doubles (std::bit_cast), so a decoded artifact is byte-for-byte the
// value that was computed — the foundation of the warm == cold
// bit-identity contract.
//
// Decoders are corruption-tolerant by construction: every read is
// bounds-checked, counts are validated against the remaining byte budget,
// and any violation yields nullopt (the caller falls back to recompute)
// instead of throwing or allocating from garbage lengths.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dta/control_characterizer.hpp"
#include "dta/datapath_model.hpp"
#include "timing/sta.hpp"

namespace terrors::cache {

/// Append-only little-endian byte sink.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over a byte range; any out-of-range read sets the
/// fail flag and returns zero.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t len) : data_(data), len_(len) {}
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  /// An element count that must be plausible: fails unless
  /// count * min_elem_bytes still fits in the remaining bytes.
  std::uint64_t count(std::size_t min_elem_bytes);

  /// Mark the stream invalid (decoder found a malformed value).
  void fail() { ok_ = false; }
  [[nodiscard]] bool ok() const { return ok_; }
  /// True when the stream decoded cleanly AND was fully consumed.
  [[nodiscard]] bool done() const { return ok_ && pos_ == len_; }
  [[nodiscard]] std::size_t remaining() const { return len_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- control DTS tables ------------------------------------------------------
/// The artifact records the timing spec it was characterised under; decode
/// rejects it (nullopt) unless the caller's spec matches bit-for-bit, as a
/// second line of defence behind the spec component of the cache key.
void encode_control(const std::vector<dta::BlockControlDts>& control,
                    const timing::TimingSpec& spec, ByteWriter& w);
std::optional<std::vector<dta::BlockControlDts>> decode_control(ByteReader& r,
                                                                const timing::TimingSpec& spec);

// --- datapath model ----------------------------------------------------------
void encode_datapath(const dta::DatapathModel::Params& params, ByteWriter& w);
std::optional<dta::DatapathModel::Params> decode_datapath(ByteReader& r);

}  // namespace terrors::cache
