// Binary (de)serialisation of the three artifacts the cache stores:
// per-(block, edge) control DTS tables, trained datapath-model parameters
// and the executor's program profile.  Encoding is little-endian
// fixed-width with bit-exact doubles (std::bit_cast), so a decoded
// artifact is byte-for-byte the value that was computed — the foundation
// of the warm == cold bit-identity contract.
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
#include "isa/executor.hpp"
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
  /// The next n bytes, or nullptr (setting the fail flag and consuming
  /// the rest) when fewer remain.
  const std::uint8_t* take(std::size_t n);

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

// --- program profile ---------------------------------------------------------
/// A profile as the cache holds it: the executor's output plus the
/// hash_profile digest the recording run computed, which the control key
/// reuses so a hit need not hash the profile again.
struct CachedProfile {
  isa::ProgramProfile profile;
  std::uint64_t digest = 0;
};

/// Stores per sample only what the executor cannot rebuild from the
/// program: the instruction count, the first instruction's `prev` context,
/// then `cur.a`, `cur.b` and `result` per instruction.  `op`/`unit` come
/// from the static instruction, `pc` from the executor's block layout,
/// and instruction k > 0's `prev` is instruction k-1's `cur`.
void encode_profile(const isa::ProgramProfile& profile, std::uint64_t digest, ByteWriter& w);
/// Rebuilds a profile for `executor`'s program, CFG and layout; nullopt
/// when the bytes do not describe a profile of that program (block,
/// edge or instruction counts that do not fit it).
std::optional<CachedProfile> decode_profile(ByteReader& r, const isa::Executor& executor);

}  // namespace terrors::cache
