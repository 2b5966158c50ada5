// Tests for the content-addressed artifact cache: keys, codecs,
// corruption tolerance of the on-disk format, and the end-to-end
// warm-start contract (warm analyze == cold analyze, bit for bit, with
// the gate-level characterisation skipped).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "cache/key.hpp"
#include "cache/serialize.hpp"
#include "core/framework.hpp"
#include "netlist/pipeline.hpp"
#include "obs/metrics.hpp"
#include "support/hash.hpp"
#include "support/thread_pool.hpp"
#include "workloads/generator.hpp"
#include "workloads/specs.hpp"

namespace terrors::cache {
namespace {

namespace fs = std::filesystem;

/// Fresh, unique, self-cleaning cache directory per test.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("terrors_cache_test_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

// --- keys --------------------------------------------------------------------

TEST(Keys, DigestsKeepTheirBasis) {
  // Every stored artifact name and run id hashes from kKeyBasis.
  EXPECT_EQ(support::fnv1a("a", 1, kKeyBasis), 0x44bd8ad473cd9906ull);
}

TEST(Keys, CombineIsOrderSensitive) {
  EXPECT_NE(combine({1, 2}), combine({2, 1}));
  EXPECT_NE(combine({1, 2}), combine({1, 2, 0}));
}

TEST(Keys, SpecAndConfigHashesReactToEveryField) {
  const timing::TimingSpec base{1300.0};
  timing::TimingSpec faster{1200.0};
  EXPECT_NE(hash_spec(base), hash_spec(faster));

  dta::DtsConfig dts;
  const std::uint64_t dts_base = hash_dts_config(dts);
  dts.top_k += 1;
  EXPECT_NE(hash_dts_config(dts), dts_base);

  dta::ControlCharacterizerConfig cc;
  const std::uint64_t cc_base = hash_characterizer_config(cc);
  cc.pred_tail += 1;
  EXPECT_NE(hash_characterizer_config(cc), cc_base);
}

TEST(Keys, ProgramHashIgnoresNameButNotCode) {
  const auto& spec = workloads::mibench_specs()[3];
  const isa::Program p1 = workloads::generate_program(spec);
  isa::Program p2 = workloads::generate_program(spec);
  EXPECT_EQ(hash_program(p1), hash_program(p2));

  isa::Program other = workloads::generate_program(workloads::mibench_specs()[0]);
  EXPECT_NE(hash_program(p1), hash_program(other));
}

// --- codecs ------------------------------------------------------------------

std::vector<dta::BlockControlDts> sample_control() {
  std::vector<dta::BlockControlDts> control(2);
  dta::DtsGaussian g;
  g.slack.mean = 120.25;
  g.slack.sd = 7.5;
  g.global_loading = 3.25;
  control[0].per_edge.resize(2);
  control[0].per_edge[0].instr = {g, std::nullopt, g};
  control[0].per_edge[1].instr = {std::nullopt};
  control[0].entry.instr = {g};
  control[1].entry.instr = {std::nullopt, g};
  return control;
}

TEST(Codec, ControlRoundTripsExactly) {
  const timing::TimingSpec spec{1300.0};
  const auto control = sample_control();
  ByteWriter w;
  encode_control(control, spec, w);

  ByteReader r(w.bytes());
  const auto back = decode_control(r, spec);
  ASSERT_TRUE(back.has_value());
  ByteWriter w2;
  encode_control(*back, spec, w2);
  EXPECT_EQ(w.bytes(), w2.bytes());  // bitwise round trip
}

TEST(Codec, ControlRejectsSpecMismatch) {
  const auto control = sample_control();
  ByteWriter w;
  encode_control(control, timing::TimingSpec{1300.0}, w);
  ByteReader r(w.bytes());
  EXPECT_FALSE(decode_control(r, timing::TimingSpec{1299.0}).has_value());
}

TEST(Codec, ControlRejectsEveryTruncation) {
  const timing::TimingSpec spec{1300.0};
  ByteWriter w;
  encode_control(sample_control(), spec, w);
  const auto& bytes = w.bytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ByteReader r(bytes.data(), len);
    EXPECT_FALSE(decode_control(r, spec).has_value()) << "length " << len;
  }
  // Trailing junk must be rejected too (done() demands full consumption).
  auto extended = bytes;
  extended.push_back(0);
  ByteReader r(extended);
  EXPECT_FALSE(decode_control(r, spec).has_value());
}

TEST(Codec, DatapathRoundTripsExactly) {
  dta::DatapathModel::Params p;
  p.adder_mean = {100.0, 3.5};
  p.adder_sd = {4.0, 0.25};
  p.adder_gl = {2.0, 0.125};
  p.logic.slack = {50.0, 2.0};
  p.logic.global_loading = 1.0;
  p.shift.slack = {60.0, 2.5};
  p.shift.global_loading = 1.25;
  p.pass.slack = {200.0, 1.0};
  p.pass.global_loading = 0.5;
  p.period_ref = 1300.0;

  ByteWriter w;
  encode_datapath(p, w);
  ByteReader r(w.bytes());
  const auto back = decode_datapath(r);
  ASSERT_TRUE(back.has_value());
  ByteWriter w2;
  encode_datapath(*back, w2);
  EXPECT_EQ(w.bytes(), w2.bytes());
}

TEST(Codec, ControlRejectsGarbageLengths) {
  // A huge block count must not allocate: the reader validates it against
  // the remaining byte budget.
  const timing::TimingSpec spec{1300.0};
  ByteWriter w;
  w.f64(spec.period_ps);
  w.f64(spec.setup_ps);
  w.u64(0xffffffffffffull);
  ByteReader r(w.bytes());
  EXPECT_FALSE(decode_control(r, spec).has_value());
}

// --- artifact files ----------------------------------------------------------

TEST(ArtifactCache, StoreLoadRoundTrip) {
  const TempDir dir("roundtrip");
  const ArtifactCache cache(dir.path.string());
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  cache.store("control", 42, payload);
  const auto back = cache.load("control", 42);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);
  EXPECT_FALSE(cache.load("control", 43).has_value());
  EXPECT_FALSE(cache.load("datapath", 42).has_value());
}

TEST(ArtifactCache, RejectsCorruptedFile) {
  const TempDir dir("corrupt");
  const ArtifactCache cache(dir.path.string());
  std::vector<std::uint8_t> payload(64, 0xAB);
  cache.store("control", 7, payload);

  // Flip one payload byte on disk: the checksum must catch it.
  const std::string file = cache.path_for("control", 7);
  {
    std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(30);
    f.put('\x00');
  }
  EXPECT_FALSE(cache.load("control", 7).has_value());

  // Truncation must be caught as well.
  fs::resize_file(file, 10);
  EXPECT_FALSE(cache.load("control", 7).has_value());
}

TEST(ArtifactCache, ResolveDirPrefersExplicitConfig) {
  EXPECT_EQ(resolve_cache_dir("/x/y"), "/x/y");
  // With no config and no env var the cache stays off.
  if (std::getenv("TERRORS_CACHE_DIR") == nullptr) {
    EXPECT_EQ(resolve_cache_dir(""), "");
  }
}

// --- end-to-end warm start ---------------------------------------------------

core::FrameworkConfig cached_config(const std::string& dir) {
  core::FrameworkConfig cfg;
  cfg.spec = timing::TimingSpec{1300.0};
  cfg.executor.max_instructions = 6000;
  cfg.error_model.mixed_samples = 32;
  cfg.cache_dir = dir;
  return cfg;
}

const netlist::Pipeline& pipeline() {
  static const netlist::Pipeline p = netlist::build_pipeline({});
  return p;
}

/// One full analyze run against `dir` ("" = cache off); returns the result
/// plus the control tables re-encoded for bitwise comparison.
struct RunOutput {
  core::BenchmarkResult result;
  std::vector<std::uint8_t> control_bytes;
};

RunOutput run_once(const std::string& dir) {
  const auto& spec = workloads::mibench_specs()[3];  // patricia: smallest
  core::ErrorRateFramework fw(pipeline(), cached_config(dir));
  RunOutput out;
  out.result = fw.analyze(workloads::generate_program(spec),
                          workloads::generate_inputs(spec, 2, 7));
  ByteWriter w;
  encode_control(fw.last().control, fw.config().spec, w);
  out.control_bytes = w.take();
  return out;
}

void expect_bit_identical(const RunOutput& a, const RunOutput& b) {
  EXPECT_EQ(a.control_bytes, b.control_bytes);
  EXPECT_EQ(a.result.estimate.rate_mean(), b.result.estimate.rate_mean());
  EXPECT_EQ(a.result.estimate.rate_sd(), b.result.estimate.rate_sd());
  EXPECT_EQ(a.result.estimate.dk_lambda, b.result.estimate.dk_lambda);
  EXPECT_EQ(a.result.estimate.dk_count, b.result.estimate.dk_count);
}

TEST(WarmStart, WarmRunIsBitIdenticalAndSkipsCharacterization) {
  const TempDir dir("warm_serial");
  support::set_global_threads(1);

  const RunOutput uncached = run_once("");
  const RunOutput cold = run_once(dir.path.string());
  const RunOutput warm = run_once(dir.path.string());

  // Enabling the cache must not perturb results, and the warm run must
  // reproduce the cold one bit for bit.
  expect_bit_identical(uncached, cold);
  expect_bit_identical(cold, warm);

  EXPECT_EQ(cold.result.cache_hits, 0u);
  EXPECT_GT(cold.result.cache_misses, 0u);
  EXPECT_GT(warm.result.cache_hits, 0u);
  EXPECT_EQ(warm.result.cache_misses, 0u);
  // The control hit skips gate-level characterisation entirely.
  EXPECT_LT(warm.result.training_seconds, cold.result.training_seconds);
}

TEST(WarmStart, WarmRunMatchesAcrossThreadCounts) {
  const TempDir dir("warm_parallel");
  support::set_global_threads(1);
  const RunOutput cold = run_once(dir.path.string());

  support::set_global_threads(4);
  const RunOutput warm = run_once(dir.path.string());
  support::set_global_threads(1);

  expect_bit_identical(cold, warm);
  EXPECT_GT(warm.result.cache_hits, 0u);
}

TEST(WarmStart, CorruptArtifactSilentlyRecomputes) {
  const TempDir dir("corrupt_artifact");
  support::set_global_threads(1);
  const RunOutput cold = run_once(dir.path.string());

  // Damage every stored artifact mid-file; the warm run must fall back to
  // recomputation and still match the cold run bit for bit.
  std::size_t damaged = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    std::fstream f(entry.path(), std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(fs::file_size(entry.path()) / 2));
    f.put('\x5A');
    f.put('\xA5');
    ++damaged;
  }
  ASSERT_EQ(damaged, 2u);  // control + datapath

  const std::uint64_t corrupt_before =
      obs::MetricsRegistry::instance().counter("cache.corrupt").value();
  const RunOutput warm = run_once(dir.path.string());
  expect_bit_identical(cold, warm);
  EXPECT_EQ(warm.result.cache_hits, 0u);
  EXPECT_GT(obs::MetricsRegistry::instance().counter("cache.corrupt").value(), corrupt_before);

  // The recompute rewrote the artifacts: a third run hits again.
  const RunOutput rewarmed = run_once(dir.path.string());
  expect_bit_identical(cold, rewarmed);
  EXPECT_GT(rewarmed.result.cache_hits, 0u);
}

}  // namespace
}  // namespace terrors::cache
