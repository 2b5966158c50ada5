// The library's two hash primitives: streamed FNV-1a over bytes (cache
// keys, run ids, payload checksums, fault-site names) and the splitmix64
// mixer (RNG seeding and stream splitting, fault-injection coin flips).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace terrors::support {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Incremental FNV-1a 64-bit hasher with typed feed helpers.  All
/// multi-byte values are folded in little-endian order so digests are
/// stable across builds of the same platform family.
class HashStream {
 public:
  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h_ ^= p[i];
      h_ *= kFnvPrime;
    }
  }

  void u8(std::uint8_t v) { bytes(&v, 1); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// Length-prefixed so "ab","c" and "a","bc" hash differently.
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }

  [[nodiscard]] std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = kFnvOffsetBasis;
};

/// One-shot digest of a byte range.
inline std::uint64_t fnv1a(const void* data, std::size_t len) {
  HashStream h;
  h.bytes(data, len);
  return h.digest();
}

/// One splitmix64 step: advances `state` by the golden-ratio increment
/// and returns the mixed output.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace terrors::support
