#include "cache/artifact_cache.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "cache/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/error.hpp"
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
  // A directory that cannot be created surfaces as failed stores
  // (cache.store_errors and a kResource error from store()), not here.
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
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

  // Any file that is present but cannot be read back intact is a corrupt
  // miss: the caller recomputes and re-stores it.
  auto corrupt = [&]() -> std::optional<std::vector<std::uint8_t>> {
    m.misses.increment();
    m.corrupt.increment();
    return std::nullopt;
  };

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    m.misses.increment();
    return std::nullopt;
  }
  // One read of the whole file at its current size.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return corrupt();
  std::vector<std::uint8_t> file(static_cast<std::size_t>(size));
  if (!in.read(reinterpret_cast<char*>(file.data()), static_cast<std::streamsize>(size)))
    return corrupt();
  if (file.size() < kHeaderBytes + kTrailerBytes) return corrupt();

  ByteReader header(file.data(), kHeaderBytes);
  if (header.u32() != kMagic) return corrupt();
  if (header.u32() != kFormatVersion) return corrupt();
  if (header.u64() != key) return corrupt();
  const std::uint64_t payload_size = header.u64();
  if (payload_size != file.size() - kHeaderBytes - kTrailerBytes) return corrupt();

  const std::uint8_t* payload = file.data() + kHeaderBytes;
  ByteReader trailer(payload + payload_size, kTrailerBytes);
  if (trailer.u64() != support::fnv1a(payload, payload_size)) return corrupt();

  m.hits.increment();
  m.bytes_read.increment(file.size());
  span.counter("bytes", static_cast<double>(payload_size));
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
  trailer.u64(support::fnv1a(payload.data(), payload.size()));

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
      std::error_code ec;
      std::filesystem::remove(temp, ec);
      if (ec) m.store_errors.increment();
      robust::raise(robust::Category::kResource, "cannot write artifact temp file " + temp +
                                                     "; cache stays cold for this key");
    }
  }
  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  if (ec) {
    m.store_errors.increment();
    std::error_code rm_ec;
    std::filesystem::remove(temp, rm_ec);
    if (rm_ec) m.store_errors.increment();
    robust::raise(robust::Category::kResource,
                  "cannot publish artifact " + path + ": " + ec.message());
  }
  m.bytes_written.increment(kHeaderBytes + payload.size() + kTrailerBytes);
  span.counter("bytes", static_cast<double>(payload.size()));
}

std::string resolve_cache_dir(const std::string& configured) {
  if (!configured.empty()) return configured;
  if (const char* env = std::getenv("TERRORS_CACHE_DIR"); env != nullptr && env[0] != '\0')
    return env;
  return {};
}

}  // namespace terrors::cache
