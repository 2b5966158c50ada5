#include "replay.hpp"

#include <algorithm>
#include <bit>

#include "cache/artifact_cache.hpp"
#include "cache/key.hpp"
#include "cache/serialize.hpp"
#include "core/error_model.hpp"
#include "core/marginal.hpp"
#include "isa/cfg.hpp"
#include "isa/executor.hpp"
#include "netlist/pipeline.hpp"
#include "obs/json.hpp"

namespace perfbench {

using namespace terrors;

// --- SpanLog ---------------------------------------------------------------

SpanLog::Scope::Scope(SpanLog& log, std::string_view name) : log_(log), index_(log.spans_.size()) {
  log_.spans_.push_back({name, log_.open_, log_.now_s(), 0.0});
  log_.open_ = static_cast<std::int64_t>(index_);
}

SpanLog::Scope::~Scope() {
  Span& s = log_.spans_[index_];
  s.end_s = log_.now_s();
  log_.open_ = s.parent;
}

double SpanLog::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

std::map<std::string, double> SpanLog::busy_seconds() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[std::string(s.name)] += s.end_s - s.start_s;
  return out;
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].end_s - spans_[i].start_s;
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) out[std::string(spans_[i].name)] += self[i];
  return out;
}

void SpanLog::write_chrome(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i != 0) os << ",";
    os << "{\"name\":";
    obs::json_string(os, s.name);
    os << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
    obs::json_number(os, s.start_s * 1e6);
    os << ",\"dur\":";
    obs::json_number(os, (s.end_s - s.start_s) * 1e6);
    os << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  os << "]}\n";
}

void SpanLog::clear() {
  spans_.clear();
  open_ = -1;
}

// --- Replayer --------------------------------------------------------------

namespace {

using isa::BlockId;
using isa::BlockSample;

// The two helpers below restate ControlCharacterizer's private ones, so the
// replay drives the pipeline with exactly the framework's fetch stream.

const BlockSample* representative(const isa::EdgeSamples& es) {
  return es.samples.empty() ? nullptr : &es.samples.front();
}

void append_block_slots(std::vector<dta::FetchSlot>& slots, const isa::BasicBlock& block,
                        std::uint32_t base_pc, const BlockSample* sample, std::size_t from,
                        std::size_t count) {
  for (std::size_t k = from; k < from + count && k < block.size(); ++k) {
    const isa::Instruction& inst = block.instructions[k];
    isa::InstrDynContext ctx;
    if (sample != nullptr && k < sample->instrs.size()) {
      ctx = sample->instrs[k];
    } else {
      ctx.cur.op = inst.op;
      ctx.cur.unit = isa::ex_unit(inst.op);
      ctx.pc = base_pc + static_cast<std::uint32_t>(k) * 4u;
    }
    slots.push_back(dta::FetchSlot::from_context(inst, ctx));
  }
}

}  // namespace

Replayer::Replayer(core::ErrorRateFramework& framework, SpanLog& log)
    : framework_(framework),
      log_(log),
      analyzer_(framework.pipeline().netlist, framework.variation_model(), framework.config().spec,
                framework.config().dts),
      driver_(framework.pipeline()) {}

ReplayResult Replayer::replay(const isa::Program& program,
                              const std::vector<isa::ProgramInput>& inputs,
                              const std::string& cache_dir) {
  SpanLog::Scope root(log_, "replay");
  const core::FrameworkConfig& config = framework_.config();
  analyzer_.set_spec(config.spec);

  ReplayResult out;
  const isa::Cfg cfg(program);
  isa::Executor executor(program, cfg, config.executor);
  for (const auto& in : inputs) {
    SpanLog::Scope span(log_, "isa.run");
    executor.run(in);
  }
  const isa::ProgramProfile& profile = executor.profile();
  out.instructions = profile.total_instructions;

  if (!cache_dir.empty()) {
    if (auto control = read_cached_control(cache_dir, program, profile)) {
      out.control = std::move(*control);
      out.control_from_cache = true;
    }
  }
  if (!out.control_from_cache) out.control = characterize(program, cfg, profile);

  std::vector<core::BlockErrorDistributions> conditionals;
  {
    SpanLog::Scope span(log_, "core.error_model");
    const core::InstructionErrorModel model(framework_.datapath_model(), config.spec,
                                            config.error_model);
    conditionals = model.build(program, cfg, profile, out.control);
  }
  std::vector<core::BlockMarginals> marginals;
  {
    SpanLog::Scope span(log_, "core.marginal");
    marginals = core::MarginalSolver(program, cfg, profile).solve(conditionals);
  }
  {
    SpanLog::Scope span(log_, "core.estimate");
    core::EstimatorInputs est;
    est.program = &program;
    est.profile = &profile;
    est.conditionals = &conditionals;
    est.marginals = &marginals;
    est.execution_scale = config.execution_scale;
    est.chen_stein_radius = config.chen_stein_radius;
    out.estimate = core::estimate_error_rate(est);
  }
  return out;
}

std::optional<std::vector<dta::BlockControlDts>> Replayer::read_cached_control(
    const std::string& cache_dir, const isa::Program& program,
    const isa::ProgramProfile& profile) {
  SpanLog::Scope span(log_, "cache.read");
  const core::FrameworkConfig& config = framework_.config();
  if (netlist_hash_ == 0) netlist_hash_ = cache::hash_netlist(framework_.pipeline().netlist);
  // The control-table key as cache/key.hpp documents it.
  const std::uint64_t key = cache::combine(
      {cache::kModelVersion, netlist_hash_, cache::hash_variation(config.variation),
       cache::hash_dts_config(config.dts), cache::hash_characterizer_config(config.characterizer),
       cache::hash_spec(config.spec), cache::hash_program(program),
       cache::hash_profile(profile)});
  const auto bytes = cache::ArtifactCache(cache_dir).load("control", key);
  if (!bytes) return std::nullopt;
  cache::ByteReader reader(*bytes);
  return cache::decode_control(reader, config.spec);
}

std::vector<dta::BlockControlDts> Replayer::characterize(const isa::Program& program,
                                                         const isa::Cfg& cfg,
                                                         const isa::ProgramProfile& profile) {
  if (!warmed_) {
    SpanLog::Scope span(log_, "timing.paths_warm");
    analyzer_.paths().warm(framework_.characterizer().control_endpoints(),
                           framework_.config().dts.top_k);
    warmed_ = true;
  }
  std::vector<dta::BlockControlDts> out(program.block_count());
  for (BlockId b = 0; b < program.block_count(); ++b) {
    out[b].per_edge.resize(cfg.indegree(b));
    for (std::size_t j = 0; j < cfg.indegree(b); ++j)
      out[b].per_edge[j] =
          characterize_edge(program, cfg, profile, b, static_cast<std::ptrdiff_t>(j));
    out[b].entry = characterize_edge(program, cfg, profile, b, -1);
  }
  return out;
}

dta::EdgeControlDts Replayer::characterize_edge(const isa::Program& program, const isa::Cfg& cfg,
                                                const isa::ProgramProfile& profile, BlockId block,
                                                std::ptrdiff_t edge) {
  const isa::BasicBlock& blk = program.block(block);
  const isa::BlockProfile& bp = profile.blocks[block];
  const dta::ControlCharacterizerConfig& cc = framework_.config().characterizer;

  dta::EdgeControlDts out;
  out.instr.assign(blk.size(), std::nullopt);

  const BlockSample* sample = nullptr;
  const BlockSample* pred_sample = nullptr;
  BlockId pred = isa::kNoBlock;
  if (edge < 0) {
    sample = representative(bp.entry_samples);
    if (bp.entry_count == 0) return out;
  } else {
    const auto j = static_cast<std::size_t>(edge);
    if (bp.edge_counts[j] == 0) return out;
    sample = representative(bp.edge_samples[j]);
    pred = cfg.predecessors(block)[j].from;
    const isa::BlockProfile& pp = profile.blocks[pred];
    pred_sample = representative(pp.entry_samples);
    for (const auto& es : pp.edge_samples) {
      if (pred_sample != nullptr) break;
      pred_sample = representative(es);
    }
  }

  std::vector<dta::FetchSlot> slots;
  std::size_t first_block_slot = 0;
  {
    SpanLog::Scope span(log_, "dta.fetch_build");
    for (int i = 0; i < cc.warmup_nops; ++i)
      slots.push_back(dta::FetchSlot::nop(0x100u + 4u * static_cast<std::uint32_t>(i)));
    if (pred != isa::kNoBlock) {
      const isa::BasicBlock& pb = program.block(pred);
      const std::size_t tail =
          std::min<std::size_t>(static_cast<std::size_t>(cc.pred_tail), pb.size());
      append_block_slots(slots, pb, 0x400u, pred_sample, pb.size() - tail, tail);
    }
    first_block_slot = slots.size();
    std::uint32_t base_pc = 0x1000u;
    if (sample != nullptr && !sample->instrs.empty()) base_pc = sample->instrs.front().pc;
    append_block_slots(slots, blk, base_pc, sample, 0, blk.size());
  }

  std::vector<dta::CycleActivation> cycles;
  {
    SpanLog::Scope span(log_, "sim.drive");
    cycles = driver_.run(slots);
  }
  {
    // The cycles Algorithm 2 queries below: block instruction k sits in
    // stage s in cycle first_block_slot + k + s.
    SpanLog::Scope span(log_, "timing.arrivals");
    const std::size_t end = std::min(
        cycles.size(), first_block_slot + blk.size() + netlist::Pipeline::kStages - 1);
    for (std::size_t c = first_block_slot; c < end; ++c) (void)cycles[c].arrivals();
  }
  {
    SpanLog::Scope span(log_, "dta.stage_dts");
    for (std::size_t k = 0; k < blk.size(); ++k) {
      const std::size_t t = first_block_slot + k;
      std::optional<dta::DtsGaussian> acc;
      for (std::uint8_t s = 0; s < netlist::Pipeline::kStages; ++s) {
        const std::size_t c = t + s;
        if (c >= cycles.size()) break;
        auto stage = analyzer_.stage_dts(s, cycles[c], netlist::EndpointClass::kControl);
        if (!stage.has_value()) continue;
        acc = acc.has_value() ? dta::dts_min(*acc, *stage) : *stage;
      }
      out.instr[k] = acc;
    }
  }
  return out;
}

// --- bitwise comparison ----------------------------------------------------

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_edge(const dta::EdgeControlDts& a, const dta::EdgeControlDts& b) {
  if (a.instr.size() != b.instr.size()) return false;
  for (std::size_t k = 0; k < a.instr.size(); ++k) {
    const auto& x = a.instr[k];
    const auto& y = b.instr[k];
    if (x.has_value() != y.has_value()) return false;
    if (x && !(same_bits(x->slack.mean, y->slack.mean) && same_bits(x->slack.sd, y->slack.sd) &&
               same_bits(x->global_loading, y->global_loading)))
      return false;
  }
  return true;
}

}  // namespace

bool same_control(const std::vector<dta::BlockControlDts>& a,
                  const std::vector<dta::BlockControlDts>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].per_edge.size() != b[i].per_edge.size() || !same_edge(a[i].entry, b[i].entry))
      return false;
    for (std::size_t j = 0; j < a[i].per_edge.size(); ++j) {
      if (!same_edge(a[i].per_edge[j], b[i].per_edge[j])) return false;
    }
  }
  return true;
}

bool same_estimate(const core::ErrorRateEstimate& a, const core::ErrorRateEstimate& b) {
  return same_bits(a.lambda.mean, b.lambda.mean) && same_bits(a.lambda.sd, b.lambda.sd) &&
         same_bits(a.lambda_empirical_sd, b.lambda_empirical_sd) &&
         a.total_instructions == b.total_instructions && same_bits(a.dk_lambda, b.dk_lambda) &&
         same_bits(a.dk_count, b.dk_count) && same_bits(a.b1_worst, b.b1_worst) &&
         same_bits(a.b2_worst, b.b2_worst) && same_bits(a.sigma_chain, b.sigma_chain) &&
         same_bits(a.stein_sum_abs3, b.stein_sum_abs3) && same_bits(a.stein_sum4, b.stein_sum4);
}

}  // namespace perfbench
