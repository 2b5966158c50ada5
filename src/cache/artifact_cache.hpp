// Content-addressed, versioned on-disk artifact cache.
//
// Layout: one file per artifact at <dir>/<kind>-<16-hex-key>.bin, where the
// key is a 64-bit content hash of everything the artifact's value depends
// on (see cache/key.hpp for the derivation and invalidation rules).  Files
// carry a magic, a format version, the key, the payload length, and a
// trailing FNV checksum of the payload; loads validate all of them and any
// mismatch — truncation, bit rot, a stale format — is treated as a miss so
// the caller silently recomputes (and re-stores) the artifact.
//
// Stores are atomic: the payload is written to a unique temp file in the
// same directory and renamed over the final name, so a crashed or
// concurrent writer can never leave a half-written artifact under the
// content-addressed name.  Concurrent writers of the same key race
// benignly — both rename identical bytes.
//
// Observability: cache.hits / cache.misses / cache.corrupt /
// cache.bytes_written / cache.bytes_read / cache.store_errors counters
// and cache.load / cache.store tracer spans, all through the src/obs/
// layer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace terrors::cache {

class ArtifactCache {
 public:
  /// `dir` is created (recursively) if missing.  Must be non-empty; the
  /// "cache disabled" state is expressed by not constructing one.
  explicit ArtifactCache(std::string dir);

  /// The validated payload of <kind, key>, or nullopt on miss/corruption.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> load(std::string_view kind,
                                                              std::uint64_t key) const;

  /// Atomically persist the payload under <kind, key>.  I/O failures are
  /// counted (`cache.store_errors`), mark the run degraded and are
  /// swallowed: a cache that cannot write degrades to a cache that never
  /// hits, never into an analysis failure.
  void store(std::string_view kind, std::uint64_t key,
             const std::vector<std::uint8_t>& payload) const;

  /// Final on-disk path of an artifact (exposed for tests, e.g. targeted
  /// corruption).
  [[nodiscard]] std::string path_for(std::string_view kind, std::uint64_t key) const;

  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

/// The effective cache directory: `configured` if non-empty, else the
/// TERRORS_CACHE_DIR environment variable, else "" (caching off).
[[nodiscard]] std::string resolve_cache_dir(const std::string& configured);

}  // namespace terrors::cache
