// Control-network DTS characterisation (Section 4): for every basic block
// and every incoming CFG edge, the pipeline netlist executes the
// predecessor's tail followed by the block, and Algorithm 2 (minimum of
// Algorithm 1's stage DTS across the stages each instruction traverses)
// yields one control-network DTS per instruction.  The control network's
// activated paths depend on the instruction stream, not on operand values,
// which is why this expensive gate-level step runs only once per
// (block, edge) — the paper's key efficiency argument.
//
// The gate-level work is confined to what Algorithm 2 reads.  The drivers
// simulate only the sequential closure of the six control cones (the
// gates whose values those cones' flags depend on), resume every stream
// from the state after the warm-up cycles that all streams share, and stop
// at the last cycle a query reads.  Each stage_dts query runs the
// activated-arrival DP over its own stage's control cone
// (Netlist::stage_cone).  All of it is exact: the tables equal a
// whole-netlist characterisation bit for bit.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dta/dts_analyzer.hpp"
#include "dta/pipeline_driver.hpp"
#include "isa/cfg.hpp"
#include "isa/executor.hpp"
#include "isa/program.hpp"
#include "netlist/pipeline.hpp"
#include "timing/variation.hpp"

namespace terrors::dta {

/// Control DTS of every instruction of a block entered via one edge;
/// nullopt entries mean "no activated control path" (cannot fail).
struct EdgeControlDts {
  std::vector<std::optional<DtsGaussian>> instr;
};

struct BlockControlDts {
  std::vector<EdgeControlDts> per_edge;  ///< aligned with Cfg::predecessors
  EdgeControlDts entry;                  ///< entered as program start
};

struct ControlCharacterizerConfig {
  int pred_tail = 4;     ///< predecessor instructions replayed for context
  int warmup_nops = 4;   ///< bubbles after reset before the context
};

class ControlCharacterizer {
 public:
  ControlCharacterizer(const netlist::Pipeline& pipeline, const timing::VariationModel& vm,
                       timing::TimingSpec spec, DtsConfig dts_config = {},
                       ControlCharacterizerConfig config = {});

  /// Characterise all (block, edge) pairs of the program, using the
  /// executor profile's sampled contexts as representative operand values.
  /// Unexecuted edges get empty (nullopt) characterisations.
  ///
  /// The (block, edge) tasks run through support::global_pool() at every
  /// pool size, over this characterizer's shared PathEnumerator, warmed
  /// with every control endpoint and frozen for the loop.  Worker 0 (the
  /// caller, and the only worker of a one-thread pool) uses this
  /// characterizer's own analyzer and closure driver, so their caches
  /// persist across calls; every other worker builds its own.  Each result lands
  /// in its pre-sized slot indexed by (block, edge), so AP ordering,
  /// Clark-min folding and the paths enumerated are the same at any
  /// worker count.
  [[nodiscard]] std::vector<BlockControlDts> characterize(const isa::Program& program,
                                                          const isa::Cfg& cfg,
                                                          const isa::ProgramProfile& profile);

  [[nodiscard]] DtsAnalyzer& analyzer() { return own_.analyzer; }

  /// Pre-enumerate the shared path set over every control endpoint.
  /// Idempotent; characterize() calls it before freezing the enumerator,
  /// and the report builder calls it to query culprit paths.
  void warm_paths();

  /// Control-class capture endpoints of every stage (the set Algorithm 2
  /// queries), for pre-warming the shared path enumerator.
  [[nodiscard]] std::vector<netlist::GateId> control_endpoints() const;

 private:
  /// The characterisation body of one (block, edge) pair; edge == -1
  /// means entry.  A pure function of its arguments plus the
  /// (deterministic, order-independent) analyzer caches, so every worker
  /// computes bit-identical results.
  EdgeControlDts characterize_edge_with(WorkerContext& ctx, const PipelineDriver::Prefix& warmup,
                                        const isa::Program& program, const isa::Cfg& cfg,
                                        const isa::ProgramProfile& profile, isa::BlockId block,
                                        std::ptrdiff_t edge) const;

  const netlist::Pipeline& pipeline_;
  const timing::VariationModel& vm_;
  DtsConfig dts_config_;
  timing::PathEnumerator paths_;  ///< shared by every worker's analyzer
  netlist::Cone closure_;         ///< sequential closure of the control cones
  WorkerContext own_;             ///< worker 0's analyzer and driver
  ControlCharacterizerConfig config_;
  bool paths_warmed_ = false;
};

}  // namespace terrors::dta
