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
// at the last cycle a query reads.  The streams run as the lanes of
// batches, up to 64 streams per simulated word (sim::LogicSimulator).
// Each stage_dts query runs the activated-arrival DP over its own stage's
// control cone (Netlist::stage_cone).  All of it is exact: the tables
// equal a whole-netlist characterisation of one stream at a time bit for
// bit.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
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
  /// Every traversed (block, edge) stream is built first; the streams,
  /// ordered by length, are cut into contiguous batches of at most 64 (at
  /// least two per worker when the pool has more than one), and the
  /// batches run through support::global_pool(), longest first, over this
  /// characterizer's shared PathEnumerator, warmed with every control
  /// endpoint and frozen for the loop.  Worker 0 (the caller, and the only
  /// worker of a one-thread pool) uses this characterizer's own analyzer
  /// and closure driver, so their caches persist across calls; every other
  /// worker builds its own.  After each simulated cycle, each live lane
  /// answers the stage-s query of the instruction in stage s, s = 0..5,
  /// and folds it into that instruction's pre-sized result slot, so every
  /// instruction still folds its stages 0 to 5 in order, and AP ordering,
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
  /// One traversed (block, edge) pair: its fetch stream and its result.
  struct Stream {
    std::vector<FetchSlot> slots;  ///< warm-up bubbles, predecessor tail, block
    std::size_t first = 0;         ///< slot of the block's first instruction
    EdgeControlDts* out = nullptr;  ///< one entry per block instruction
  };
  /// The stream of one (block, edge) pair (edge == -1 means entry), or
  /// nullopt when the profile never traversed it.
  std::optional<Stream> build_stream(const PipelineDriver::Prefix& warmup,
                                     const isa::Program& program, const isa::Cfg& cfg,
                                     const isa::ProgramProfile& profile, isa::BlockId block,
                                     std::ptrdiff_t edge, EdgeControlDts* out) const;
  /// Characterise the streams of one batch as the lanes of one simulation.
  /// A pure function of its arguments plus the (deterministic,
  /// order-independent) analyzer caches, so every worker computes
  /// bit-identical results.
  static void characterize_batch(WorkerContext& ctx, const PipelineDriver::Prefix& warmup,
                                 std::span<Stream* const> batch);

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
