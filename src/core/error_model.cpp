#include "core/error_model.hpp"

#include <algorithm>
#include <array>

#include "support/check.hpp"

namespace terrors::core {

using dta::DatapathModel;
using dta::DtsGaussian;
using isa::BlockId;

namespace {

/// Pr(DTS < 0), DTS being the statistical minimum of an instruction's
/// control-network and datapath DTS.  An absent part (nothing activated)
/// drops out; with neither, the instruction cannot fail.
double error_probability(const std::optional<DtsGaussian>& ctrl,
                         const std::optional<DtsGaussian>& data) {
  if (ctrl.has_value() && data.has_value())
    return dta::dts_min(*ctrl, *data).slack.prob_below_zero();
  if (ctrl.has_value()) return ctrl->slack.prob_below_zero();
  if (data.has_value()) return data->slack.prob_below_zero();
  return 0.0;
}

/// Error probability of one instruction along one source, per datapath
/// arrival class, filled on first use.  The control DTS is fixed by the
/// source, so within it the probability depends on the class alone.
struct ClassTable {
  std::array<double, DatapathModel::kArrivalClasses> p{};
  std::uint64_t filled = 0;  ///< bit c set once p[c] holds class c
};
static_assert(DatapathModel::kArrivalClasses <= 64, "filled mask holds one bit per class");

}  // namespace

InstructionErrorModel::InstructionErrorModel(const dta::DatapathModel& datapath,
                                             timing::TimingSpec spec, ErrorModelConfig config)
    : datapath_(datapath), spec_(spec), config_(config) {
  TE_REQUIRE(config.mixed_samples > 0, "need at least one data-variation sample");
}

std::vector<BlockErrorDistributions> InstructionErrorModel::build(
    const isa::Program& program, const isa::Cfg& cfg, const isa::ProgramProfile& profile,
    const std::vector<dta::BlockControlDts>& control) const {
  (void)cfg;  // kept for interface symmetry with the characterizer
  TE_REQUIRE(profile.blocks.size() == program.block_count(), "profile/program mismatch");
  TE_REQUIRE(control.size() == program.block_count(), "characterisation/program mismatch");

  const std::size_t m = config_.mixed_samples;
  std::vector<BlockErrorDistributions> out(program.block_count());
  std::vector<ClassTable> tables;  // one per instruction of the current block
  // Correction-scheme emulation: a flush leaves a bubble (nop values) in
  // front of the instruction after an error; replay-without-flush
  // restores the previous instruction's own values, so p^e == p^c.
  const bool flush = config_.scheme == CorrectionScheme::kPipelineFlush;
  const isa::ExContext bubble{};
  const std::optional<DtsGaussian> no_ctrl;

  for (BlockId b = 0; b < program.block_count(); ++b) {
    const isa::BasicBlock& blk = program.block(b);
    const isa::BlockProfile& bp = profile.blocks[b];
    BlockErrorDistributions& bd = out[b];
    bd.instr.resize(blk.size());
    for (auto& d : bd.instr) {
      d.p_correct = stat::Samples(m, 0.0);
      d.p_error = stat::Samples(m, 0.0);
    }
    if (bp.executions == 0) continue;
    bd.executed = true;

    // Deterministic proportional allocation of the M sample slots across
    // the incoming edges (plus the entry pseudo-edge), weighted by the
    // measured traversal counts.
    struct Source {
      const isa::EdgeSamples* samples;
      const dta::EdgeControlDts* control;
      std::uint64_t count;
    };
    std::vector<Source> sources;
    if (bp.entry_count > 0)
      sources.push_back({&bp.entry_samples, &control[b].entry, bp.entry_count});
    for (std::size_t j = 0; j < bp.edge_counts.size(); ++j) {
      if (bp.edge_counts[j] == 0) continue;
      sources.push_back({&bp.edge_samples[j], &control[b].per_edge[j], bp.edge_counts[j]});
    }
    TE_CHECK(!sources.empty(), "executed block without traversed edges");

    // Largest-remainder slot allocation.
    std::uint64_t total = 0;
    for (const auto& s : sources) total += s.count;
    std::vector<std::size_t> alloc(sources.size(), 0);
    std::size_t assigned = 0;
    std::vector<std::pair<double, std::size_t>> remainders;
    for (std::size_t s = 0; s < sources.size(); ++s) {
      const double exact =
          static_cast<double>(m) * static_cast<double>(sources[s].count) / static_cast<double>(total);
      alloc[s] = static_cast<std::size_t>(exact);
      assigned += alloc[s];
      remainders.emplace_back(exact - static_cast<double>(alloc[s]), s);
    }
    std::sort(remainders.rbegin(), remainders.rend());
    for (std::size_t r = 0; assigned < m; ++r, ++assigned) {
      ++alloc[remainders[r % remainders.size()].second];
    }

    tables.resize(blk.size());
    std::size_t slot = 0;
    for (std::size_t s = 0; s < sources.size(); ++s) {
      const auto& dyn = sources[s].samples->samples;
      const auto& ctrl = sources[s].control->instr;
      for (ClassTable& t : tables) t.filled = 0;  // the control DTS differs per source
      for (std::size_t a = 0; a < alloc[s]; ++a, ++slot) {
        // Cycle through the reservoir when it has fewer entries than slots.
        const isa::BlockSample* sample = dyn.empty() ? nullptr : &dyn[a % dyn.size()];
        for (std::size_t k = 0; k < blk.size(); ++k) {
          int correct_cls = DatapathModel::kNoArrival;
          int error_cls = DatapathModel::kNoArrival;
          if (sample == nullptr || k >= sample->instrs.size()) {
            // No recorded context (partial sample near the budget guard):
            // control network only, plus the bubble's activation after an
            // error.
            const isa::Opcode op = blk.instructions[k].op;
            error_cls = DatapathModel::arrival_class({0, 0, isa::ex_unit(op), op}, bubble);
          } else {
            const isa::InstrDynContext& ctx = sample->instrs[k];
            correct_cls = DatapathModel::arrival_class(ctx.cur, ctx.prev);
            error_cls = flush ? DatapathModel::arrival_class(ctx.cur, bubble) : correct_cls;
          }
          const std::optional<DtsGaussian>& ctrl_dts = k < ctrl.size() ? ctrl[k] : no_ctrl;
          ClassTable& table = tables[k];
          for (const int cls : {correct_cls, error_cls}) {
            const std::uint64_t bit = std::uint64_t{1} << cls;
            if ((table.filled & bit) != 0) continue;
            table.p[cls] = error_probability(ctrl_dts, datapath_.class_slack(cls, spec_));
            table.filled |= bit;
          }
          bd.instr[k].p_correct[slot] = table.p[correct_cls];
          bd.instr[k].p_error[slot] = table.p[error_cls];
        }
      }
    }
    TE_CHECK(slot == m, "sample slot allocation mismatch");
  }
  return out;
}

}  // namespace terrors::core
