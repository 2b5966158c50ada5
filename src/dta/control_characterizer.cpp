#include "dta/control_characterizer.hpp"

#include <algorithm>
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
      own_(pipeline, vm, spec, dts_config, paths_),
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

EdgeControlDts ControlCharacterizer::characterize_edge_with(WorkerContext& ctx,
                                                            const isa::Program& program,
                                                            const isa::Cfg& cfg,
                                                            const isa::ProgramProfile& profile,
                                                            BlockId block,
                                                            std::ptrdiff_t edge) const {
  const isa::BasicBlock& blk = program.block(block);
  const isa::BlockProfile& bp = profile.blocks[block];

  EdgeControlDts out;
  out.instr.assign(blk.size(), std::nullopt);

  const BlockSample* sample = nullptr;
  const BlockSample* pred_sample = nullptr;
  BlockId pred = isa::kNoBlock;
  if (edge < 0) {
    sample = representative(bp.entry_samples);
    if (bp.entry_count == 0) return out;  // never entered this way
  } else {
    const auto j = static_cast<std::size_t>(edge);
    TE_REQUIRE(j < cfg.indegree(block), "edge index out of range");
    if (bp.edge_counts[j] == 0) return out;  // edge never traversed
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
  std::vector<FetchSlot> slots;
  for (int i = 0; i < config_.warmup_nops; ++i)
    slots.push_back(FetchSlot::nop(0x100u + 4u * static_cast<std::uint32_t>(i)));
  if (pred != isa::kNoBlock) {
    const isa::BasicBlock& pb = program.block(pred);
    const std::size_t tail = std::min<std::size_t>(static_cast<std::size_t>(config_.pred_tail),
                                                   pb.size());
    append_block_slots(slots, pb, 0x400u, pred_sample, pb.size() - tail, tail);
  }
  const std::size_t first_block_slot = slots.size();
  std::uint32_t base_pc = 0x1000u;
  if (sample != nullptr && !sample->instrs.empty()) base_pc = sample->instrs.front().pc;
  append_block_slots(slots, blk, base_pc, sample, 0, blk.size());

  static obs::Counter& edges_metric =
      obs::MetricsRegistry::instance().counter("dta.edges_characterized");
  static obs::Counter& slots_metric =
      obs::MetricsRegistry::instance().counter("dta.slots_driven");
  edges_metric.increment();
  slots_metric.increment(slots.size());

  std::vector<CycleActivation> cycles;
  {
    obs::ScopedSpan drive_span("sim.drive");
    cycles = ctx.driver.run(slots);
  }

  // Algorithm 2: instruction DTS = min over the stages it traverses.
  obs::ScopedSpan dts_span("dta.stage_dts");
  for (std::size_t k = 0; k < blk.size(); ++k) {
    const std::size_t t = first_block_slot + k;
    std::optional<DtsGaussian> acc;
    for (std::uint8_t s = 0; s < netlist::Pipeline::kStages; ++s) {
      const std::size_t c = t + s;
      if (c >= cycles.size()) break;
      auto stage = ctx.analyzer.stage_dts(s, cycles[c], netlist::EndpointClass::kControl);
      if (!stage.has_value()) continue;
      acc = acc.has_value() ? dts_min(*acc, *stage) : *stage;
    }
    out.instr[k] = acc;
  }
  return out;
}

void ControlCharacterizer::warm_paths() {
  if (paths_warmed_) return;
  paths_.warm(control_endpoints(), dts_config_.top_k);
  paths_warmed_ = true;
}

std::vector<netlist::GateId> ControlCharacterizer::control_endpoints() const {
  const netlist::Netlist& nl = pipeline_.netlist;
  std::vector<netlist::GateId> endpoints;
  for (std::uint8_t s = 0; s < netlist::Pipeline::kStages; ++s) {
    for (netlist::GateId e : nl.stage_endpoints(s)) {
      if (nl.gate(e).endpoint_class == netlist::EndpointClass::kControl) endpoints.push_back(e);
    }
  }
  return endpoints;
}

std::vector<BlockControlDts> ControlCharacterizer::characterize(
    const isa::Program& program, const isa::Cfg& cfg, const isa::ProgramProfile& profile) {
  TE_REQUIRE(profile.blocks.size() == program.block_count(), "profile does not match program");
  obs::ScopedSpan span("dta.characterize");
  span.counter("blocks", static_cast<double>(program.block_count()));

  // Flatten the (block, edge) task list and pre-size every result slot so
  // workers write disjoint memory and ordering never depends on schedule.
  std::vector<BlockControlDts> out(program.block_count());
  struct Task {
    BlockId block;
    std::ptrdiff_t edge;  ///< -1 = entry
    EdgeControlDts* slot;
  };
  std::vector<Task> tasks;
  for (BlockId b = 0; b < program.block_count(); ++b) {
    out[b].per_edge.resize(cfg.indegree(b));
    for (std::size_t j = 0; j < cfg.indegree(b); ++j)
      tasks.push_back({b, static_cast<std::ptrdiff_t>(j), &out[b].per_edge[j]});
    tasks.push_back({b, -1, &out[b].entry});
  }
  span.counter("tasks", static_cast<double>(tasks.size()));

  // Warm the shared enumerator once with every control endpoint, then
  // freeze it for the loop: workers only read the path lists.
  warm_paths();
  paths_.set_frozen(true);

  support::ThreadPool& pool = support::global_pool();
  std::vector<std::unique_ptr<WorkerContext>> others(pool.size());
  const timing::TimingSpec spec = own_.analyzer.spec();
  try {
    pool.parallel_for(tasks.size(), [&](std::size_t i, std::size_t w) {
      WorkerContext* ctx = &own_;
      if (w != 0) {
        if (!others[w])
          others[w] = std::make_unique<WorkerContext>(pipeline_, vm_, spec, dts_config_, paths_);
        ctx = others[w].get();
      }
      obs::ScopedSpan edge_span("dta.edge");
      edge_span.counter("worker", static_cast<double>(w));
      edge_span.counter("block", static_cast<double>(tasks[i].block));
      edge_span.counter("edge", static_cast<double>(tasks[i].edge));
      *tasks[i].slot =
          characterize_edge_with(*ctx, program, cfg, profile, tasks[i].block, tasks[i].edge);
    });
  } catch (...) {
    paths_.set_frozen(false);
    throw;
  }
  paths_.set_frozen(false);
  return out;
}

}  // namespace terrors::dta
