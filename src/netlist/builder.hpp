// Word-level structural elaboration on top of Netlist: adders, shifters,
// comparators, mux trees, decoders and random control clouds.  These are
// the building blocks the pipeline generator assembles into a processor.
//
// Words are little-endian vectors of gate ids (index 0 = LSB).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "support/rng.hpp"

namespace terrors::netlist {

using Word = std::vector<GateId>;

/// Structural builder. All gates created while a component is open are
/// placed around the component centre (for spatial-correlation locality)
/// and tagged with the current pipeline stage.
class NetlistBuilder {
 public:
  explicit NetlistBuilder(support::Rng rng);

  [[nodiscard]] Netlist& netlist() { return nl_; }
  [[nodiscard]] const Netlist& netlist() const { return nl_; }

  /// Per-instance delay jitter: every combinational gate's delay is scaled
  /// by (1 + U(-frac, frac)) to diversify path delays like real placement,
  /// sizing and wire load do.  Deterministic in the builder's RNG.
  void set_delay_jitter(double frac);

  /// Start a new logic cloud at die position (x, y) in stage `stage`;
  /// subsequent gates scatter around the centre with the given spread.
  void begin_component(std::uint8_t stage, float x, float y, float spread = 0.06f);

  // --- primitives -------------------------------------------------------
  GateId input(const std::string& name);
  Word input_word(const std::string& name, int width);
  GateId constant(bool value);
  Word constant_word(std::uint64_t value, int width);
  /// A flip-flop whose data input may be wired later via connect().
  GateId dff(const std::string& name, EndpointClass cls);
  Word dff_word(const std::string& name, int width, EndpointClass cls);
  GateId output(const std::string& name, GateId driver, EndpointClass cls);
  void connect(GateId dff_gate, GateId driver);
  void connect_word(const Word& dffs, const Word& drivers);
  GateId gate(GateKind kind, GateId a, GateId b = kNoGate, GateId c = kNoGate);

  // --- bitwise words ----------------------------------------------------
  Word not_word(const Word& a);
  Word and_word(const Word& a, const Word& b);
  Word or_word(const Word& a, const Word& b);
  Word xor_word(const Word& a, const Word& b);
  /// sel ? b : a, elementwise.
  Word mux_word(const Word& a, const Word& b, GateId sel);

  // --- arithmetic -------------------------------------------------------
  struct AdderResult {
    Word sum;
    GateId carry_out = kNoGate;
  };
  /// Ripple-carry adder; widths must match.
  AdderResult ripple_adder(const Word& a, const Word& b, GateId carry_in = kNoGate);
  /// Carry-select adder: `block` bits per section, each section computes
  /// both carry assumptions with ripple chains and muxes on the incoming
  /// carry — the classic speed/area trade against the plain ripple.
  AdderResult carry_select_adder(const Word& a, const Word& b, int block = 4,
                                 GateId carry_in = kNoGate);
  /// Logarithmic barrel shifter; shift amount uses the low bits of `amount`.
  Word shift_left(const Word& a, const Word& amount);
  Word shift_right(const Word& a, const Word& amount);

  // --- reductions and selection -----------------------------------------
  GateId or_reduce(const Word& a);
  GateId and_reduce(const Word& a);
  /// 1 iff a == b.
  GateId equals(const Word& a, const Word& b);
  /// Binary-select mux tree; options.size() must be a power of two equal to
  /// 2^select.size(); all options share one width.
  Word mux_tree(const std::vector<Word>& options, const Word& select);
  /// n-to-2^n one-hot decoder.
  Word decoder(const Word& select);

  // --- random control logic ---------------------------------------------
  /// A layered random logic cloud: `width` gates per layer, `depth` layers,
  /// fanins drawn from the previous layer (and occasionally the inputs).
  /// Returns the final layer.  Deterministic in the builder RNG.
  Word random_cloud(const Word& inputs, int width, int depth);

 private:
  GateId add_placed(GateKind kind, std::array<GateId, 3> fanin);
  GateId reduce(GateKind kind, const Word& a);

  Netlist nl_;
  support::Rng rng_;
  double jitter_ = 0.0;
  std::uint8_t stage_ = 0;
  float cx_ = 0.0f;
  float cy_ = 0.0f;
  float spread_ = 0.06f;
};

}  // namespace terrors::netlist
