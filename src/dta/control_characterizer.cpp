#include "dta/control_characterizer.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"

namespace terrors::dta {

using isa::BlockId;
using isa::BlockSample;

ControlCharacterizer::ControlCharacterizer(const netlist::Pipeline& pipeline,
                                           const timing::VariationModel& vm,
                                           timing::TimingSpec spec, DtsConfig dts_config,
                                           ControlCharacterizerConfig config)
    : pipeline_(pipeline),
      vm_(vm),
      dts_config_(dts_config),
      paths_(pipeline.netlist),
      closure_(pipeline.netlist.sequential_closure(control_endpoints())),
      own_(pipeline, vm, spec, dts_config, paths_, closure_),
      config_(config) {
  TE_REQUIRE(config.pred_tail >= 0 && config.warmup_nops >= 0, "negative context lengths");
}

namespace {

/// The first recorded sample for an edge reservoir, or nullptr.
const BlockSample* representative(const isa::EdgeSamples& es) {
  return es.samples.empty() ? nullptr : &es.samples.front();
}

/// Build slots for one instruction sequence, reading contexts from a block
/// sample when available and falling back to zero-operand contexts.
void append_block_slots(std::vector<FetchSlot>& slots, const isa::BasicBlock& block,
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
    slots.push_back(FetchSlot::from_context(inst, ctx));
  }
}

}  // namespace

std::optional<ControlCharacterizer::Stream> ControlCharacterizer::build_stream(
    const PipelineDriver::Prefix& warmup, const isa::Program& program, const isa::Cfg& cfg,
    const isa::ProgramProfile& profile, BlockId block, std::ptrdiff_t edge,
    EdgeControlDts* out) const {
  const isa::BasicBlock& blk = program.block(block);
  const isa::BlockProfile& bp = profile.blocks[block];
  out->instr.assign(blk.size(), std::nullopt);

  const BlockSample* sample = nullptr;
  const BlockSample* pred_sample = nullptr;
  BlockId pred = isa::kNoBlock;
  if (edge < 0) {
    sample = representative(bp.entry_samples);
    if (bp.entry_count == 0) return std::nullopt;  // never entered this way
  } else {
    const auto j = static_cast<std::size_t>(edge);
    TE_REQUIRE(j < cfg.indegree(block), "edge index out of range");
    if (bp.edge_counts[j] == 0) return std::nullopt;  // edge never traversed
    sample = representative(bp.edge_samples[j]);
    pred = cfg.predecessors(block)[j].from;
    // Any sample of the predecessor block supplies tail contexts.
    const isa::BlockProfile& pp = profile.blocks[pred];
    pred_sample = representative(pp.entry_samples);
    for (const auto& es : pp.edge_samples) {
      if (pred_sample != nullptr) break;
      pred_sample = representative(es);
    }
  }

  // Assemble the fetch stream: warm-up bubbles, predecessor tail, block.
  Stream stream{warmup.slots, 0, out};
  if (pred != isa::kNoBlock) {
    const isa::BasicBlock& pb = program.block(pred);
    const std::size_t tail = std::min<std::size_t>(static_cast<std::size_t>(config_.pred_tail),
                                                   pb.size());
    append_block_slots(stream.slots, pb, 0x400u, pred_sample, pb.size() - tail, tail);
  }
  stream.first = stream.slots.size();
  std::uint32_t base_pc = 0x1000u;
  if (sample != nullptr && !sample->instrs.empty()) base_pc = sample->instrs.front().pc;
  append_block_slots(stream.slots, blk, base_pc, sample, 0, blk.size());
  return stream;
}

void ControlCharacterizer::characterize_batch(WorkerContext& ctx,
                                              const PipelineDriver::Prefix& warmup,
                                              std::span<Stream* const> batch) {
  constexpr std::size_t kStages = netlist::Pipeline::kStages;
  // The last block instruction leaves the last stage kStages - 1 cycles
  // after its fetch, and no query reads a later cycle.
  std::array<PipelineDriver::Lane, sim::LogicSimulator::kLanes> lanes;
  for (std::size_t l = 0; l < batch.size(); ++l) {
    Stream& s = *batch[l];
    lanes[l] = {&s.slots, s.slots.size() + kStages - 1};
    // A retried batch starts over.
    std::fill(s.out->instr.begin(), s.out->instr.end(), std::nullopt);
    // Queries start at the block's first fetch, after every warm-up cycle
    // that the prefix holds.
    TE_CHECK(s.first >= warmup.flags.size(), "a query reads a warm-up cycle");
  }
  // Algorithm 2: instruction DTS = min over the stages it traverses.
  // Instruction k of a stream is in stage s in cycle first + k + s, so its
  // stages arrive, and fold, in the order 0 to 5.
  auto answer = [&](const sim::LogicSimulator& sim, std::size_t cycle) {
    obs::ScopedSpan dts_span("dta.stage_dts");
    for (std::size_t l = 0; l < batch.size(); ++l) {
      Stream& s = *batch[l];
      if (cycle < s.first || cycle >= lanes[l].end) continue;
      sim.lane_flags(static_cast<unsigned>(l), ctx.flags);
      for (std::size_t st = 0; st < kStages && s.first + st <= cycle; ++st) {
        const std::size_t k = cycle - s.first - st;
        if (k >= s.out->instr.size()) continue;
        auto stage = ctx.analyzer.stage_dts(static_cast<std::uint8_t>(st), ctx.flags,
                                            netlist::EndpointClass::kControl);
        if (!stage.has_value()) continue;
        std::optional<DtsGaussian>& acc = s.out->instr[k];
        acc = acc.has_value() ? dts_min(*acc, *stage) : *stage;
      }
    }
  };
  ctx.driver.run_lanes(warmup, std::span(lanes.data(), batch.size()), answer);
}

void ControlCharacterizer::warm_paths() {
  if (paths_warmed_) return;
  paths_.warm(control_endpoints(), dts_config_.top_k);
  paths_warmed_ = true;
}

std::vector<netlist::GateId> ControlCharacterizer::control_endpoints() const {
  std::vector<netlist::GateId> endpoints;
  for (std::uint8_t s = 0; s < netlist::Pipeline::kStages; ++s) {
    const auto& stage = pipeline_.netlist.stage_cone(s, netlist::EndpointClass::kControl);
    endpoints.insert(endpoints.end(), stage.endpoints.begin(), stage.endpoints.end());
  }
  return endpoints;
}

std::vector<BlockControlDts> ControlCharacterizer::characterize(
    const isa::Program& program, const isa::Cfg& cfg, const isa::ProgramProfile& profile) {
  TE_REQUIRE(profile.blocks.size() == program.block_count(), "profile does not match program");
  obs::ScopedSpan span("dta.characterize");
  span.counter("blocks", static_cast<double>(program.block_count()));

  // Every stream starts with the same warm-up bubbles: simulate the cycles
  // that read only them once, here, and resume each stream from there.
  std::vector<FetchSlot> bubbles;
  for (int i = 0; i < config_.warmup_nops; ++i)
    bubbles.push_back(FetchSlot::nop(0x100u + 4u * static_cast<std::uint32_t>(i)));
  const PipelineDriver::Prefix warmup = own_.driver.run_prefix(std::move(bubbles));

  // Pre-size every result slot, indexed by (block, edge), so workers write
  // disjoint memory and nothing depends on the schedule.
  std::vector<BlockControlDts> out(program.block_count());
  std::vector<Stream> streams;
  auto add = [&](BlockId b, std::ptrdiff_t edge, EdgeControlDts* slot) {
    if (auto stream = build_stream(warmup, program, cfg, profile, b, edge, slot))
      streams.push_back(std::move(*stream));
  };
  for (BlockId b = 0; b < program.block_count(); ++b) {
    out[b].per_edge.resize(cfg.indegree(b));
    for (std::size_t j = 0; j < cfg.indegree(b); ++j)
      add(b, static_cast<std::ptrdiff_t>(j), &out[b].per_edge[j]);
    add(b, -1, &out[b].entry);
  }
  static obs::Counter& edges_metric =
      obs::MetricsRegistry::instance().counter("dta.edges_characterized");
  static obs::Counter& slots_metric =
      obs::MetricsRegistry::instance().counter("dta.slots_driven");
  edges_metric.increment(streams.size());
  for (const Stream& s : streams) slots_metric.increment(s.slots.size());

  // Batches are contiguous runs of the streams ordered by length, longest
  // first, so lanes of one batch end close together and the pool starts on
  // the longest batch.  More than one worker gets at least two batches each.
  support::ThreadPool& pool = support::global_pool();
  std::vector<Stream*> order(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) order[i] = &streams[i];
  std::stable_sort(order.begin(), order.end(), [](const Stream* a, const Stream* b) {
    return a->slots.size() > b->slots.size();
  });
  constexpr std::size_t kLanes = sim::LogicSimulator::kLanes;
  std::size_t batches = (order.size() + kLanes - 1) / kLanes;
  if (pool.size() > 1) batches = std::max(batches, 2 * pool.size());
  batches = std::min(batches, order.size());
  span.counter("streams", static_cast<double>(order.size()));
  span.counter("batches", static_cast<double>(batches));

  // Warm the shared enumerator once with every control endpoint, then
  // freeze it for the loop: workers only read the path lists.
  warm_paths();
  paths_.set_frozen(true);

  std::vector<std::unique_ptr<WorkerContext>> others(pool.size());
  const timing::TimingSpec spec = own_.analyzer.spec();
  try {
    pool.parallel_for(batches, [&](std::size_t i, std::size_t w) {
      WorkerContext* ctx = &own_;
      if (w != 0) {
        if (!others[w])
          others[w] =
              std::make_unique<WorkerContext>(pipeline_, vm_, spec, dts_config_, paths_, closure_);
        ctx = others[w].get();
      }
      const std::size_t begin = i * order.size() / batches;
      const std::size_t end = (i + 1) * order.size() / batches;
      obs::ScopedSpan batch_span("dta.batch");
      batch_span.counter("worker", static_cast<double>(w));
      batch_span.counter("lanes", static_cast<double>(end - begin));
      characterize_batch(*ctx, warmup, std::span(order).subspan(begin, end - begin));
    });
  } catch (...) {
    paths_.set_frozen(false);
    throw;
  }
  paths_.set_frozen(false);
  return out;
}

}  // namespace terrors::dta
