#include "cache/artifact_cache.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "cache/key.hpp"
#include "cache/serialize.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/degrade.hpp"
#include "robust/fault_injection.hpp"
#include "support/check.hpp"
#include "support/hash.hpp"

namespace terrors::cache {

namespace {

constexpr std::uint32_t kMagic = 0x41434554u;  // "TECA"
constexpr std::uint32_t kFormatVersion = 1;
// magic + format + key + payload size up front, payload checksum behind.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;
constexpr std::size_t kTrailerBytes = 8;

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct CacheMetrics {
  obs::Counter& hits = obs::MetricsRegistry::instance().counter("cache.hits");
  obs::Counter& misses = obs::MetricsRegistry::instance().counter("cache.misses");
  obs::Counter& corrupt = obs::MetricsRegistry::instance().counter("cache.corrupt");
  obs::Counter& bytes_written = obs::MetricsRegistry::instance().counter("cache.bytes_written");
  obs::Counter& bytes_read = obs::MetricsRegistry::instance().counter("cache.bytes_read");
  /// Failed stores (write, publish-rename, or temp cleanup): the artifact
  /// is simply not persisted, but a silently cold cache must be visible.
  obs::Counter& store_errors = obs::MetricsRegistry::instance().counter("cache.store_errors");
  static CacheMetrics& instance() {
    static CacheMetrics m;
    return m;
  }
};

}  // namespace

ArtifactCache::ArtifactCache(std::string dir) : dir_(std::move(dir)) {
  TE_REQUIRE(!dir_.empty(), "ArtifactCache needs a directory");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    obs::log_warn("cache", "cannot create cache directory",
                  {{"dir", dir_}, {"error", ec.message()}});
  }
}

std::string ArtifactCache::path_for(std::string_view kind, std::uint64_t key) const {
  return (std::filesystem::path(dir_) / (std::string(kind) + "-" + hex16(key) + ".bin")).string();
}

std::optional<std::vector<std::uint8_t>> ArtifactCache::load(std::string_view kind,
                                                             std::uint64_t key) const {
  robust::maybe_fault("cache.read");
  CacheMetrics& m = CacheMetrics::instance();
  obs::ScopedSpan span("cache.load");
  const std::string path = path_for(kind, key);

  auto miss = [&](const char* why, bool corrupt) -> std::optional<std::vector<std::uint8_t>> {
    m.misses.increment();
    if (corrupt) {
      m.corrupt.increment();
      obs::log_warn("cache", "corrupt artifact, recomputing",
                    {{"kind", std::string(kind)}, {"path", path}, {"why", why}});
    } else {
      obs::log_debug("cache", "miss", {{"kind", std::string(kind)}, {"why", why}});
    }
    return std::nullopt;
  };

  std::ifstream in(path, std::ios::binary);
  if (!in) return miss("absent", false);
  // One read of the whole file at its current size.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return miss("read error", true);
  std::vector<std::uint8_t> file(static_cast<std::size_t>(size));
  if (!in.read(reinterpret_cast<char*>(file.data()), static_cast<std::streamsize>(size)))
    return miss("read error", true);
  if (file.size() < kHeaderBytes + kTrailerBytes) return miss("truncated header", true);

  ByteReader header(file.data(), kHeaderBytes);
  if (header.u32() != kMagic) return miss("bad magic", true);
  if (header.u32() != kFormatVersion) return miss("format version", true);
  if (header.u64() != key) return miss("key mismatch", true);
  const std::uint64_t payload_size = header.u64();
  if (payload_size != file.size() - kHeaderBytes - kTrailerBytes)
    return miss("payload size", true);

  const std::uint8_t* payload = file.data() + kHeaderBytes;
  ByteReader trailer(payload + payload_size, kTrailerBytes);
  if (trailer.u64() != support::fnv1a(payload, payload_size, kKeyBasis))
    return miss("checksum", true);

  m.hits.increment();
  m.bytes_read.increment(file.size());
  span.counter("bytes", static_cast<double>(payload_size));
  obs::log_debug("cache", "hit",
                 {{"kind", std::string(kind)}, {"bytes", payload_size}});
  file.resize(kHeaderBytes + payload_size);
  file.erase(file.begin(), file.begin() + kHeaderBytes);
  return file;
}

void ArtifactCache::store(std::string_view kind, std::uint64_t key,
                          const std::vector<std::uint8_t>& payload) const {
  robust::maybe_fault("cache.write");
  CacheMetrics& m = CacheMetrics::instance();
  obs::ScopedSpan span("cache.store");
  const std::string path = path_for(kind, key);

  // Unique temp name in the same directory so the final rename is atomic.
  static std::atomic<std::uint64_t> temp_counter{0};
  const std::string temp = path + ".tmp." + std::to_string(::getpid()) + "." +
                           std::to_string(temp_counter.fetch_add(1));

  ByteWriter header;
  header.u32(kMagic);
  header.u32(kFormatVersion);
  header.u64(key);
  header.u64(payload.size());
  ByteWriter trailer;
  trailer.u64(support::fnv1a(payload.data(), payload.size(), kKeyBasis));

  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (out) {
      out.write(reinterpret_cast<const char*>(header.bytes().data()),
                static_cast<std::streamsize>(header.bytes().size()));
      out.write(reinterpret_cast<const char*>(payload.data()),
                static_cast<std::streamsize>(payload.size()));
      out.write(reinterpret_cast<const char*>(trailer.bytes().data()),
                static_cast<std::streamsize>(trailer.bytes().size()));
    }
    if (!out) {
      m.store_errors.increment();
      obs::log_warn_once("cache.store_errors.write", "cache", "cannot write artifact",
                         {{"kind", std::string(kind)}, {"path", temp}});
      robust::note_degraded("cache", "cannot write artifact temp file " + temp +
                                         "; cache stays cold for this key");
      std::error_code ec;
      std::filesystem::remove(temp, ec);
      if (ec) m.store_errors.increment();
      return;
    }
  }
  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  if (ec) {
    m.store_errors.increment();
    obs::log_warn_once("cache.store_errors.rename", "cache", "cannot publish artifact",
                       {{"kind", std::string(kind)}, {"path", path}, {"error", ec.message()}});
    robust::note_degraded("cache", "cannot publish artifact " + path + ": " + ec.message());
    std::error_code rm_ec;
    std::filesystem::remove(temp, rm_ec);
    if (rm_ec) {
      m.store_errors.increment();
      obs::log_warn("cache", "cannot remove temp file",
                    {{"path", temp}, {"error", rm_ec.message()}});
    }
    return;
  }
  const std::uint64_t total = kHeaderBytes + payload.size() + kTrailerBytes;
  m.bytes_written.increment(total);
  span.counter("bytes", static_cast<double>(payload.size()));
  obs::log_info("cache", "stored artifact",
                {{"kind", std::string(kind)}, {"bytes", total}});
}

std::string resolve_cache_dir(const std::string& configured) {
  if (!configured.empty()) return configured;
  if (const char* env = std::getenv("TERRORS_CACHE_DIR"); env != nullptr && env[0] != '\0')
    return env;
  return {};
}

}  // namespace terrors::cache
