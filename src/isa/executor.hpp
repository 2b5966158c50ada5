// Architecture-level execution with profiling instrumentation.
//
// This is the reproduction's analogue of the paper's LLVM-instrumented
// native execution (Section 4, "Datapath Activity Characterization"): it
// runs the program functionally and records
//   * basic-block execution counts and CFG-edge traversal counts (the
//     activation probabilities p^a of Section 4.2), and
//   * reservoir-sampled dynamic contexts per (block, incoming edge):
//     for every static instruction the operand values entering the EX
//     stage and the values the *previous* instruction put there — the
//     inputs of the operand-dependent datapath timing model and of the
//     error-correction emulation (a flush replaces the previous values by
//     a bubble).
#pragma once

#include <cstdint>
#include <vector>

#include "isa/cfg.hpp"
#include "isa/program.hpp"
#include "support/rng.hpp"

namespace terrors::isa {

/// EX-stage view of one executed instruction.
struct ExContext {
  std::uint32_t a = 0;  ///< effective first ALU operand
  std::uint32_t b = 0;  ///< effective second ALU operand (imm if immediate form)
  ExUnit unit = ExUnit::kNone;
  Opcode op = Opcode::kNop;

  bool operator==(const ExContext&) const = default;
};

/// One dynamic instance of one static instruction.
struct InstrDynContext {
  ExContext cur;
  ExContext prev;  ///< previous instruction's EX context under correct execution
  std::uint32_t result = 0;
  std::uint32_t pc = 0;
};

/// One sampled dynamic execution of a basic block (entered via one edge).
struct BlockSample {
  std::vector<InstrDynContext> instrs;  ///< one per static instruction
};

/// Reservoir of sampled executions for one incoming edge.
struct EdgeSamples {
  std::vector<BlockSample> samples;
  std::uint64_t seen = 0;
};

struct BlockProfile {
  std::uint64_t executions = 0;
  /// Traversal counts, aligned with Cfg::predecessors(block).
  std::vector<std::uint64_t> edge_counts;
  /// Sampled contexts per incoming edge (same alignment).
  std::vector<EdgeSamples> edge_samples;
  /// Entries as the program's start block (the paper's flushed-state entry).
  std::uint64_t entry_count = 0;
  EdgeSamples entry_samples;
};

/// One step of the dynamic block sequence (for Monte-Carlo validation).
struct BlockTraceStep {
  BlockId block = kNoBlock;
  std::int32_t incoming_edge = -1;  ///< -1 = program entry
};

struct ProgramProfile {
  std::vector<BlockProfile> blocks;
  std::uint64_t total_instructions = 0;
  std::uint64_t runs = 0;
  /// Dynamic block sequences, one per run (only when record_block_trace).
  std::vector<std::vector<BlockTraceStep>> block_traces;

  /// Activation probability of the j-th incoming edge of `b` (Sect. 4.2);
  /// the optional entry pseudo-edge is excluded (its weight is reported by
  /// entry_fraction).
  [[nodiscard]] double edge_activation(BlockId b, std::size_t j) const;
};

/// Initial architectural state for one run.
struct ProgramInput {
  std::vector<std::uint32_t> registers;  ///< up to kRegisterCount, rest zero
  std::uint64_t memory_seed = 1;         ///< pseudo-random initial memory image
};

struct ExecutorConfig {
  std::uint64_t max_instructions = 2'000'000;  ///< per-run budget guard
  std::size_t samples_per_edge = 32;           ///< reservoir capacity M
  std::size_t memory_words = 1u << 16;
  std::uint64_t sampling_seed = 7;
  /// Record the dynamic (block, incoming-edge) sequence of each run — used
  /// by the Monte-Carlo validation of the limit theorems.  Capped by
  /// max_instructions, so only enable on small programs.
  bool record_block_trace = false;
};

/// Functional in-order executor with profiling.
class Executor {
 public:
  Executor(const Program& program, const Cfg& cfg, ExecutorConfig config = {});

  /// Execute one run; accumulates into the shared profile.  Returns the
  /// number of instructions executed in this run.
  std::uint64_t run(const ProgramInput& input);

  /// Take over a profile recorded earlier by an executor of the same
  /// program, CFG and configuration over the same inputs (the artifact
  /// cache's `profile`), instead of running them.  Only an executor that
  /// has not run may adopt one.
  void adopt(ProgramProfile profile);

  [[nodiscard]] const ProgramProfile& profile() const { return profile_; }
  [[nodiscard]] const Program& program() const { return program_; }
  [[nodiscard]] const Cfg& cfg() const { return cfg_; }
  /// Virtual address of block `b`'s first instruction; instruction k of
  /// the block sits at block_pc(b) + 4k (InstrDynContext::pc).
  [[nodiscard]] std::uint32_t block_pc(BlockId b) const { return block_pc_[b]; }

 private:
  const Program& program_;
  const Cfg& cfg_;
  ExecutorConfig config_;
  ProgramProfile profile_;
  support::Rng sample_rng_;
  std::vector<std::uint32_t> block_pc_;  ///< virtual base address per block
  /// Index of each block's taken / fall-through edge in its successor's
  /// Cfg::predecessors list (-1 where the block has no such successor).
  struct OutEdges {
    std::int32_t taken = -1;
    std::int32_t fallthrough = -1;
  };
  std::vector<OutEdges> out_edges_;
};

}  // namespace terrors::isa
