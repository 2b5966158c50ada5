// Instruction error probabilities (Section 4.1).
//
// For every static instruction (per basic block) the model produces two
// random variables over data variation, realised as aligned sample vectors
// (stat::Samples) of length M:
//   p^c — error probability given the previous instruction executed
//         correctly, and
//   p^e — error probability given the previous instruction experienced a
//         timing error, i.e. after the error-correction mechanism acted
//         (a pipeline flush leaves a bubble in front of the instruction,
//         changing which datapath paths activate — Section 4.1's
//         nop-instrumentation emulation).
//
// Each probability is Pr(DTS < 0) over process variation, with DTS the
// statistical minimum of the instruction's control-network DTS (from the
// gate-level characterisation) and its operand-dependent datapath DTS
// (from the trained architectural model), correlated through the
// chip-global variation component.
#pragma once

#include <cstdint>
#include <vector>

#include "dta/control_characterizer.hpp"
#include "dta/datapath_model.hpp"
#include "isa/cfg.hpp"
#include "isa/executor.hpp"
#include "stat/samples.hpp"
#include "timing/sta.hpp"

namespace terrors::core {

/// Error-correction scheme being emulated.
enum class CorrectionScheme {
  /// Detection flushes the pipeline and reissues at half frequency (the
  /// paper's evaluation setup, after the 45nm resilient Intel core): the
  /// instruction after an error sees a bubble in front of it.
  kPipelineFlush,
  /// Idealised replay without flush: the corrected predecessor's values
  /// are restored, so p^e == p^c (ablation baseline).
  kReplayWithoutFlush,
};

struct InstrErrorDistributions {
  stat::Samples p_correct;  ///< p^c_{i_k}, length M
  stat::Samples p_error;    ///< p^e_{i_k}, length M
};

struct BlockErrorDistributions {
  std::vector<InstrErrorDistributions> instr;
  bool executed = false;
};

struct ErrorModelConfig {
  std::size_t mixed_samples = 64;  ///< M: common-random-number sample count
  CorrectionScheme scheme = CorrectionScheme::kPipelineFlush;
};

class InstructionErrorModel {
 public:
  InstructionErrorModel(const dta::DatapathModel& datapath, timing::TimingSpec spec,
                        ErrorModelConfig config = {});

  /// Build the per-block p^c / p^e distributions for a whole program by
  /// mixing the per-edge sampled contexts according to the measured edge
  /// activation probabilities (deterministic proportional allocation of
  /// the M sample slots).  The datapath DTS of a sample depends on its
  /// operands only through DatapathModel::arrival_class, so each
  /// (incoming edge, instruction) evaluates Pr(DTS < 0) once per class it
  /// meets (DESIGN §3b).
  [[nodiscard]] std::vector<BlockErrorDistributions> build(
      const isa::Program& program, const isa::Cfg& cfg, const isa::ProgramProfile& profile,
      const std::vector<dta::BlockControlDts>& control) const;

  [[nodiscard]] const timing::TimingSpec& spec() const { return spec_; }
  [[nodiscard]] const ErrorModelConfig& config() const { return config_; }

 private:
  const dta::DatapathModel& datapath_;
  timing::TimingSpec spec_;
  ErrorModelConfig config_;
};

}  // namespace terrors::core
