// The architecture-level datapath timing model of Section 4 ("Datapath DTS
// Characterization"), in the style of the authors' CODES'14 model [2]:
// instead of gate-level analysis per cycle, the EX-stage DTS is predicted
// from architecturally visible operand values.  The model is *trained* by
// running special instruction sequences on the gate-level pipeline that
// selectively activate timing paths of controlled length (carry chains of
// length L, shifter levels, logic ops) and measuring the stage DTS with
// Algorithm 1; at inference the activated carry-chain length is computed
// exactly from the operand values of consecutive instructions, which is
// how the error-correction scheme enters: a pipeline flush replaces the
// previous instruction's values by a bubble, changing the activation.
#pragma once

#include <cstdint>
#include <optional>

#include "dta/dts_analyzer.hpp"
#include "isa/executor.hpp"
#include "netlist/pipeline.hpp"
#include "timing/sta.hpp"
#include "timing/variation.hpp"

namespace terrors::dta {

class DatapathModel {
 public:
  /// Train against the gate-level pipeline (uses its own driver/analyzer).
  static DatapathModel train(const netlist::Pipeline& pipeline,
                             const timing::VariationModel& vm, const DtsConfig& dts_config = {});

  /// The model's output depends on the operand values only through an
  /// arrival class: no activated path (0), an adder carry chain of length
  /// 1..33 (the class is the length), or the logic, shifter or
  /// pass-through unit.
  static constexpr int kNoArrival = 0;
  static constexpr int kLogicClass = 34;
  static constexpr int kShiftClass = 35;
  static constexpr int kPassClass = 36;
  static constexpr int kArrivalClasses = 37;

  /// Arrival class of an instruction with EX context `cur` whose
  /// predecessor in the pipeline had context `prev`.
  static int arrival_class(const isa::ExContext& cur, const isa::ExContext& prev);

  /// EX-stage arrival statistics (mean / sd / global loading, in ps) of a
  /// class.  nullopt for kNoArrival (nothing toggles, hence no possible
  /// timing error).
  [[nodiscard]] std::optional<DtsGaussian> class_arrival(int cls) const;

  /// Slack form under a clock spec: DTS = period - setup - arrival.
  [[nodiscard]] std::optional<DtsGaussian> class_slack(int cls,
                                                       const timing::TimingSpec& spec) const;

  /// class_arrival(arrival_class(cur, prev)).
  [[nodiscard]] std::optional<DtsGaussian> ex_arrival(const isa::ExContext& cur,
                                                      const isa::ExContext& prev) const;

  /// class_slack(arrival_class(cur, prev), spec).
  [[nodiscard]] std::optional<DtsGaussian> ex_slack(const isa::ExContext& cur,
                                                    const isa::ExContext& prev,
                                                    const timing::TimingSpec& spec) const;

  /// Activated carry-chain length used by the model for an adder-class
  /// instruction pair (exposed for tests / ablation).  -1 = no activation.
  static int adder_chain_length(const isa::ExContext& cur, const isa::ExContext& prev);

  /// Model parameters (linear in chain length for the adder).
  struct Linear {
    double base = 0.0;
    double per_unit = 0.0;
    [[nodiscard]] double at(int length) const { return base + per_unit * length; }
  };
  [[nodiscard]] const Linear& adder_mean() const { return adder_mean_; }

  /// Complete trained-parameter snapshot: the model is a pure function of
  /// these, which is what makes it a cacheable on-disk artifact.
  struct Params {
    Linear adder_mean;
    Linear adder_sd;
    Linear adder_gl;
    DtsGaussian logic;
    DtsGaussian shift;
    DtsGaussian pass;
    double period_ref = 0.0;
  };
  [[nodiscard]] Params params() const;
  /// Rebuild a model from a snapshot (warm-start path): bit-identical to
  /// the trained original because inference only reads these parameters.
  static DatapathModel from_params(const Params& p);

 private:
  // Adder: linear fits in the activated chain length.
  Linear adder_mean_;
  Linear adder_sd_;
  Linear adder_gl_;
  // Logic / shifter / pass-through: constant arrival statistics.
  DtsGaussian logic_{};
  DtsGaussian shift_{};
  DtsGaussian pass_{};
  double period_ref_ = 0.0;  ///< spec used during training (for conversion)
};

}  // namespace terrors::dta
