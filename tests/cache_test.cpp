// Tests for the content-addressed artifact cache: keys, codecs,
// corruption tolerance of the on-disk format, and the end-to-end
// warm-start contract (warm analyze == cold analyze, bit for bit, with
// the gate-level characterisation skipped).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "cache/key.hpp"
#include "cache/serialize.hpp"
#include "core/framework.hpp"
#include "isa/cfg.hpp"
#include "isa/executor.hpp"
#include "netlist/pipeline.hpp"
#include "obs/metrics.hpp"
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
  // Every stored artifact name and run id is a standard FNV-1a digest:
  // combine({1, 2}) hashes the little-endian u64s 2, 1, 2.
  EXPECT_EQ(combine({1, 2}), 0x422dee74521c4b44ull);
}

TEST(Keys, CombineIsOrderSensitive) {
  EXPECT_NE(combine({1, 2}), combine({2, 1}));
  EXPECT_NE(combine({1, 2}), combine({1, 2, 0}));
}

TEST(Keys, SpecAndConfigHashesReactToEveryField) {
  const timing::TimingSpec base{1300.0};
  timing::TimingSpec faster{1200.0};
  EXPECT_NE(hash_spec(base), hash_spec(faster));

  timing::VariationConfig no_spatial;
  no_spatial.spatial_enabled = false;
  EXPECT_NE(hash_variation(no_spatial), hash_variation({}));

  dta::DtsConfig dts;
  dts.top_k += 1;
  EXPECT_NE(hash_dts_config(dts), hash_dts_config({}));

  dta::ControlCharacterizerConfig tail;
  tail.pred_tail += 1;
  EXPECT_NE(hash_characterizer_config(tail), hash_characterizer_config({}));
  dta::ControlCharacterizerConfig nops;
  nops.warmup_nops += 1;
  EXPECT_NE(hash_characterizer_config(nops), hash_characterizer_config({}));
}

TEST(Keys, ProgramHashIgnoresNameButNotCode) {
  const auto& spec = workloads::mibench_specs()[3];
  const isa::Program p1 = workloads::generate_program(spec);
  isa::Program p2 = workloads::generate_program(spec);
  EXPECT_EQ(hash_program(p1), hash_program(p2));

  isa::Program other = workloads::generate_program(workloads::mibench_specs()[0]);
  EXPECT_NE(hash_program(p1), hash_program(other));
}

TEST(Keys, InputAndExecutorHashesReactToEveryField) {
  const std::vector<isa::ProgramInput> inputs = {{{1, 2, 3}, 11}, {{4, 5}, 12}};
  const std::uint64_t base = hash_inputs(inputs);
  EXPECT_EQ(hash_inputs(inputs), base);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (std::size_t r = 0; r < inputs[i].registers.size(); ++r) {
      auto changed = inputs;
      changed[i].registers[r] ^= 1u;
      EXPECT_NE(hash_inputs(changed), base) << "input " << i << " register " << r;
    }
    auto reseeded = inputs;
    reseeded[i].memory_seed += 1;
    EXPECT_NE(hash_inputs(reseeded), base) << "input " << i << " memory seed";
  }
  EXPECT_NE(hash_inputs({inputs[1], inputs[0]}), base);  // order
  EXPECT_NE(hash_inputs({inputs[0]}), base);

  const isa::ExecutorConfig cfg;
  const std::uint64_t cfg_base = hash_executor_config(cfg);
  auto expect_reacts = [&](auto mutate, const char* field) {
    isa::ExecutorConfig changed = cfg;
    mutate(changed);
    EXPECT_NE(hash_executor_config(changed), cfg_base) << field;
  };
  expect_reacts([](isa::ExecutorConfig& c) { c.max_instructions += 1; }, "max_instructions");
  expect_reacts([](isa::ExecutorConfig& c) { c.samples_per_edge += 1; }, "samples_per_edge");
  expect_reacts([](isa::ExecutorConfig& c) { c.memory_words += 1; }, "memory_words");
  expect_reacts([](isa::ExecutorConfig& c) { c.sampling_seed += 1; }, "sampling_seed");
  expect_reacts([](isa::ExecutorConfig& c) { c.record_block_trace = !c.record_block_trace; },
                "record_block_trace");
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

  ByteWriter w;
  encode_datapath(p, w);
  EXPECT_EQ(w.bytes().size(), 15u * 8u);  // three linear fits, three Gaussians
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

bool same_context(const isa::ExContext& a, const isa::ExContext& b) {
  return a.a == b.a && a.b == b.b && a.unit == b.unit && a.op == b.op;
}

void expect_same_samples(const isa::EdgeSamples& a, const isa::EdgeSamples& b,
                         const std::string& at) {
  EXPECT_EQ(a.seen, b.seen) << at;
  ASSERT_EQ(a.samples.size(), b.samples.size()) << at;
  for (std::size_t s = 0; s < a.samples.size(); ++s) {
    const auto& x = a.samples[s].instrs;
    const auto& y = b.samples[s].instrs;
    ASSERT_EQ(x.size(), y.size()) << at << " sample " << s;
    for (std::size_t k = 0; k < x.size(); ++k) {
      if (!same_context(x[k].cur, y[k].cur) || !same_context(x[k].prev, y[k].prev) ||
          x[k].result != y[k].result || x[k].pc != y[k].pc) {
        ADD_FAILURE() << at << " sample " << s << " instr " << k << " differs";
        return;
      }
    }
  }
}

/// Field-by-field equality of two profiles.
void expect_same_profile(const isa::ProgramProfile& a, const isa::ProgramProfile& b) {
  EXPECT_EQ(a.total_instructions, b.total_instructions);
  EXPECT_EQ(a.runs, b.runs);
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    const isa::BlockProfile& x = a.blocks[i];
    const isa::BlockProfile& y = b.blocks[i];
    const std::string at = "block " + std::to_string(i);
    EXPECT_EQ(x.executions, y.executions) << at;
    EXPECT_EQ(x.entry_count, y.entry_count) << at;
    EXPECT_EQ(x.edge_counts, y.edge_counts) << at;
    ASSERT_EQ(x.edge_samples.size(), y.edge_samples.size()) << at;
    for (std::size_t j = 0; j < x.edge_samples.size(); ++j)
      expect_same_samples(x.edge_samples[j], y.edge_samples[j], at + " edge " + std::to_string(j));
    expect_same_samples(x.entry_samples, y.entry_samples, at + " entry");
  }
  ASSERT_EQ(a.block_traces.size(), b.block_traces.size());
  for (std::size_t t = 0; t < a.block_traces.size(); ++t) {
    ASSERT_EQ(a.block_traces[t].size(), b.block_traces[t].size()) << "trace " << t;
    for (std::size_t k = 0; k < a.block_traces[t].size(); ++k) {
      EXPECT_EQ(a.block_traces[t][k].block, b.block_traces[t][k].block) << "trace " << t;
      EXPECT_EQ(a.block_traces[t][k].incoming_edge, b.block_traces[t][k].incoming_edge)
          << "trace " << t;
    }
  }
}

/// A program with its CFG and an executor that ran it: what the profile
/// codec encodes from and decodes against.
struct Executed {
  isa::Program program;
  isa::Cfg cfg;
  isa::Executor executor;
  Executed(isa::Program p, const isa::ExecutorConfig& config,
           const std::vector<isa::ProgramInput>& inputs)
      : program(std::move(p)), cfg(program), executor(program, cfg, config) {
    for (const auto& in : inputs) executor.run(in);
  }
  /// `runs` generated inputs of `spec`.
  Executed(const workloads::WorkloadSpec& spec, const isa::ExecutorConfig& config,
           std::size_t runs)
      : Executed(workloads::generate_program(spec), config,
                 workloads::generate_inputs(spec, runs, 7)) {}
};

/// B0 -> B1 (a counted loop over a load and an add) -> B2: small enough
/// to decode every prefix of its profile.
isa::Program loop_program() {
  const auto ins = [](isa::Opcode op, int rd, int rs1, int rs2, int imm) {
    isa::Instruction i;
    i.op = op;
    i.rd = static_cast<std::uint8_t>(rd);
    i.rs1 = static_cast<std::uint8_t>(rs1);
    i.rs2 = static_cast<std::uint8_t>(rs2);
    i.imm = imm;
    return i;
  };
  isa::Program p("loop");
  isa::BasicBlock b0;
  b0.instructions = {ins(isa::Opcode::kMovi, 1, 0, 0, 40)};
  isa::BasicBlock b1;
  b1.instructions = {ins(isa::Opcode::kLd, 2, 1, 0, 3), ins(isa::Opcode::kAdd, 3, 3, 2, 0),
                     ins(isa::Opcode::kSubi, 1, 1, 0, 1), ins(isa::Opcode::kBne, 0, 1, 0, 0)};
  isa::BasicBlock b2;
  b2.instructions = {ins(isa::Opcode::kXor, 4, 3, 2, 0)};
  p.add_block(b0);
  p.add_block(b1);
  p.add_block(b2);
  p.block(0).fallthrough = 1;
  p.block(1).taken = 1;
  p.block(1).fallthrough = 2;
  p.set_entry(0);
  p.validate();
  return p;
}

std::vector<std::uint8_t> encoded(const isa::ProgramProfile& profile) {
  ByteWriter w;
  encode_profile(profile, hash_profile(profile), w);
  return w.take();
}

/// Decode against `ex`'s executor layout, and check the round trip.
void expect_round_trip(const Executed& ex) {
  const std::vector<std::uint8_t> bytes = encoded(ex.executor.profile());
  ByteReader r(bytes);
  const auto back = decode_profile(r, ex.executor);
  ASSERT_TRUE(back.has_value()) << ex.program.name();
  expect_same_profile(back->profile, ex.executor.profile());
  EXPECT_EQ(back->digest, hash_profile(back->profile)) << ex.program.name();
}

TEST(Codec, ProfileRoundTripsExactly) {
  isa::ExecutorConfig config;
  config.max_instructions = 20000;
  for (const auto& spec : workloads::mibench_specs()) expect_round_trip(Executed(spec, config, 2));

  // A run cut mid-block by its budget leaves a sample shorter than its
  // block; look for a budget that does.
  const auto& spec = workloads::mibench_specs()[3];
  const isa::Program program = workloads::generate_program(spec);
  const auto inputs = workloads::generate_inputs(spec, 1, 7);
  bool cut = false;
  for (std::uint64_t budget = 50; budget < 400 && !cut; ++budget) {
    isa::ExecutorConfig small;
    small.max_instructions = budget;
    small.memory_words = 256;
    const Executed ex(program, small, inputs);
    for (isa::BlockId b = 0; b < ex.program.block_count() && !cut; ++b) {
      const isa::BlockProfile& bp = ex.executor.profile().blocks[b];
      auto short_sample = [&](const isa::EdgeSamples& es) {
        for (const auto& sample : es.samples)
          if (sample.instrs.size() < ex.program.block(b).size()) return true;
        return false;
      };
      cut = short_sample(bp.entry_samples) ||
            std::any_of(bp.edge_samples.begin(), bp.edge_samples.end(), short_sample);
    }
    if (cut) expect_round_trip(ex);
  }
  EXPECT_TRUE(cut) << "no budget cut a sampled block short";

  isa::ExecutorConfig traced = config;
  traced.record_block_trace = true;
  const Executed ex(spec, traced, 2);
  ASSERT_EQ(ex.executor.profile().block_traces.size(), 2u);
  ASSERT_FALSE(ex.executor.profile().block_traces[0].empty());
  expect_round_trip(ex);
}

TEST(Codec, ProfileRejectsEveryTruncation) {
  // Two runs, each cut mid-loop by the budget, with block traces and
  // reservoirs that replace samples.
  isa::ExecutorConfig config;
  config.max_instructions = 90;
  config.samples_per_edge = 2;
  config.record_block_trace = true;
  const Executed ex(loop_program(), config, {{{0, 0, 0, 5}, 1}, {{}, 2}});
  ASSERT_EQ(ex.executor.profile().runs, 2u);
  const std::vector<std::uint8_t> bytes = encoded(ex.executor.profile());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ByteReader r(bytes.data(), len);
    EXPECT_FALSE(decode_profile(r, ex.executor).has_value()) << "length " << len;
  }
  auto extended = bytes;
  extended.push_back(0);
  ByteReader r(extended);
  EXPECT_FALSE(decode_profile(r, ex.executor).has_value());
}

TEST(Codec, ProfileRejectsGarbageLengthsAndOtherPrograms) {
  isa::ExecutorConfig config;
  config.max_instructions = 2000;
  const Executed ex(workloads::mibench_specs()[3], config, 1);
  const std::vector<std::uint8_t> bytes = encoded(ex.executor.profile());
  {
    ByteReader r(bytes);
    ASSERT_TRUE(decode_profile(r, ex.executor).has_value());
  }

  // A huge sample count in block 0's first reservoir must not allocate.
  // Layout: total, runs, block count, then block 0's executions, entry
  // count, in-degree, edge counts and its first reservoir's `seen`.
  const std::size_t indegree = ex.cfg.indegree(0);
  const std::size_t offset = 8 * (6 + indegree + 1);
  auto garbage = bytes;
  for (std::size_t i = 0; i < 8; ++i) garbage[offset + i] = 0xff;
  ByteReader r(garbage);
  EXPECT_FALSE(decode_profile(r, ex.executor).has_value());

  // The profile of one program does not decode against another's layout.
  const Executed other(workloads::mibench_specs()[0], config, 1);
  ASSERT_NE(other.program.block_count(), ex.program.block_count());
  ByteReader mismatch(bytes);
  EXPECT_FALSE(decode_profile(mismatch, other.executor).has_value());
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
  isa::ProgramProfile profile;
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
  out.profile = fw.last().executor->profile();
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
  // The warm run adopted the cold run's profile instead of executing.
  expect_same_profile(warm.profile, cold.profile);
  expect_same_profile(cold.profile, uncached.profile);

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
  ASSERT_EQ(damaged, 3u);  // control + datapath + profile

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
