#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <span>

#include "netlist/builder.hpp"
#include "netlist/pipeline.hpp"
#include "obs/metrics.hpp"
#include "sim/logic_sim.hpp"
#include "support/rng.hpp"

namespace terrors::sim {
namespace {

using netlist::EndpointClass;
using netlist::Gate;
using netlist::GateId;
using netlist::GateKind;
using netlist::NetlistBuilder;
using netlist::Pipeline;
using netlist::PipelineConfig;
using netlist::Word;

struct AluFixture {
  NetlistBuilder b{support::Rng(1)};
  Word x, y, sum, and_w, xor_w, shl;
  GateId eq = netlist::kNoGate, carry = netlist::kNoGate;

  AluFixture() {
    x = b.input_word(16);
    y = b.input_word(16);
    auto add = b.ripple_adder(x, y);
    sum = add.sum;
    carry = add.carry_out;
    and_w = b.and_word(x, y);
    xor_w = b.xor_word(x, y);
    Word amt(x.begin(), x.begin() + 4);
    shl = b.shift_left(y, amt);
    eq = b.equals(x, y);
    b.netlist().finalize(1);
  }
};

class AluFunctional : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AluFunctional, MatchesIntegerSemantics) {
  AluFixture f;
  LogicSimulator sim(f.b.netlist());
  support::Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t a = rng.next_u64() & 0xFFFF;
    const std::uint64_t c = rng.next_u64() & 0xFFFF;
    sim.set_input_word(f.x, a);
    sim.set_input_word(f.y, c);
    sim.step();
    EXPECT_EQ(sim.value_word(f.sum), (a + c) & 0xFFFF);
    EXPECT_EQ(sim.value(f.carry), ((a + c) >> 16) & 1);
    EXPECT_EQ(sim.value_word(f.and_w), a & c);
    EXPECT_EQ(sim.value_word(f.xor_w), a ^ c);
    EXPECT_EQ(sim.value_word(f.shl), (c << (a & 0xF)) & 0xFFFF);
    EXPECT_EQ(sim.value(f.eq), a == c);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AluFunctional, ::testing::Values(11u, 22u, 33u, 44u));

class CarrySelectFunctional : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CarrySelectFunctional, MatchesIntegerAddition) {
  NetlistBuilder b{support::Rng(8)};
  auto x = b.input_word(16);
  auto y = b.input_word(16);
  auto cs = b.carry_select_adder(x, y, 4);
  b.netlist().finalize(1);
  LogicSimulator sim(b.netlist());
  support::Rng rng(GetParam());
  for (int i = 0; i < 60; ++i) {
    const std::uint64_t a = rng.next_u64() & 0xFFFF;
    const std::uint64_t c = rng.next_u64() & 0xFFFF;
    sim.set_input_word(x, a);
    sim.set_input_word(y, c);
    sim.step();
    EXPECT_EQ(sim.value_word(cs.sum), (a + c) & 0xFFFF);
    EXPECT_EQ(sim.value(cs.carry_out), ((a + c) >> 16) & 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CarrySelectFunctional, ::testing::Values(3u, 7u));

TEST(LogicSim, CarrySelectPipelineComputesAdds) {
  netlist::PipelineConfig cfg;
  cfg.ex_adder = netlist::AdderKind::kCarrySelect;
  const Pipeline p = netlist::build_pipeline(cfg);
  LogicSimulator sim(p.netlist);
  const std::uint64_t a = 0xCAFEBABEull;
  const std::uint64_t c = 0x31415926ull;
  auto zero_all = [&] {
    for (GateId g : p.netlist.inputs()) sim.set_input(g, false);
  };
  zero_all();
  sim.step();
  zero_all();
  sim.set_input_word(p.ports.op_a, a);
  sim.set_input_word(p.ports.op_b, c);
  sim.step();
  zero_all();
  sim.step();
  zero_all();
  sim.step();
  sim.step();
  EXPECT_EQ(sim.value_word(p.taps.ex_result_reg), (a + c) & 0xFFFFFFFFull);
}

TEST(LogicSim, DecoderIsOneHot) {
  NetlistBuilder b(support::Rng(2));
  auto sel = b.input_word(3);
  auto dec = b.decoder(sel);
  b.netlist().finalize(1);
  LogicSimulator sim(b.netlist());
  for (std::uint64_t v = 0; v < 8; ++v) {
    sim.set_input_word(sel, v);
    sim.step();
    EXPECT_EQ(sim.value_word(dec), 1ull << v);
  }
}

TEST(LogicSim, DffCapturesPreviousCycleValue) {
  NetlistBuilder b(support::Rng(3));
  const GateId in = b.input();
  const GateId q = b.dff(EndpointClass::kControl);
  b.connect(q, in);
  b.netlist().finalize(1);
  LogicSimulator sim(b.netlist());
  sim.set_input(in, true);
  sim.step();  // cycle 1: input=1 settles, q still captured old 0
  EXPECT_FALSE(sim.value(q));
  sim.set_input(in, false);
  sim.step();  // cycle 2: q captures the 1 settled in cycle 1
  EXPECT_TRUE(sim.value(q));
  sim.step();
  EXPECT_FALSE(sim.value(q));
}

TEST(LogicSim, ActivationMatchesValueChanges) {
  NetlistBuilder b(support::Rng(4));
  auto x = b.input_word(8);
  auto y = b.input_word(8);
  auto add = b.ripple_adder(x, y);
  (void)add;
  b.netlist().finalize(1);
  LogicSimulator sim(b.netlist());
  sim.set_input_word(x, 0);
  sim.set_input_word(y, 0);
  sim.step();
  sim.step();  // steady state: nothing changes
  std::size_t active = 0;
  for (GateId g = 0; g < b.netlist().size(); ++g) active += sim.activated(g) ? 1 : 0;
  EXPECT_EQ(active, 0u);
  // Flip one LSB: the carry chain of 0 + 1 has no propagation, so only a
  // handful of gates toggle.
  sim.set_input_word(x, 1);
  sim.step();
  EXPECT_TRUE(sim.activated(x[0]));
  EXPECT_TRUE(sim.activated(add.sum[0]));
  EXPECT_FALSE(sim.activated(add.sum[7]));
}

TEST(LogicSim, CarryChainActivationDependsOnOperands) {
  NetlistBuilder b(support::Rng(5));
  auto x = b.input_word(16);
  auto y = b.input_word(16);
  auto add = b.ripple_adder(x, y);
  b.netlist().finalize(1);
  LogicSimulator sim(b.netlist());
  sim.set_input_word(x, 0);
  sim.set_input_word(y, 0);
  sim.step();
  // 0xFFFF + 1 ripples the carry through every bit.
  sim.set_input_word(x, 0xFFFF);
  sim.step();
  sim.set_input_word(y, 1);
  sim.step();
  EXPECT_TRUE(sim.activated(add.sum[15]));
  EXPECT_TRUE(sim.activated(add.carry_out));
}

/// Scalar oracle for LogicSimulator: its semantics restated gate by gate
/// over Gate structs and netlist::eval_gate.  Constants are re-applied
/// after every settle, which must give the same values as the simulator
/// writing them once at reset.
std::uint64_t count_bits(std::uint64_t x) {
  std::uint64_t n = 0;
  for (; x != 0; x &= x - 1) ++n;
  return n;
}

class ReferenceSim {
 public:
  explicit ReferenceSim(const netlist::Netlist& nl)
      : nl_(nl), values_(nl.size(), 0), pending_(nl.size(), 0), activated_(nl.size(), 0) {
    settle();
    prev_ = values_;
  }

  void set_input(GateId g, bool v) { pending_[g] = v ? 1 : 0; }

  /// Returns the number of gates activated in the new cycle.
  std::size_t step() {
    prev_ = values_;
    for (GateId id : nl_.dffs()) values_[id] = prev_[nl_.gate(id).fanin[0]];
    for (GateId id : nl_.inputs()) values_[id] = pending_[id];
    settle();
    std::size_t toggles = 0;
    for (GateId id = 0; id < nl_.size(); ++id) {
      activated_[id] = values_[id] != prev_[id] ? 1 : 0;
      toggles += activated_[id];
    }
    return toggles;
  }

  [[nodiscard]] bool value(GateId g) const { return values_[g] != 0; }
  [[nodiscard]] bool activated(GateId g) const { return activated_[g] != 0; }

 private:
  void settle() {
    for (GateId id : nl_.topo_order()) {
      const Gate& g = nl_.gate(id);
      const auto arity = static_cast<std::size_t>(g.arity());
      std::array<bool, 3> in{};
      for (std::size_t s = 0; s < arity; ++s) in[s] = values_[g.fanin[s]] != 0;
      values_[id] = netlist::eval_gate(g.kind, std::span<const bool>(in.data(), arity)) ? 1 : 0;
    }
    for (GateId id : nl_.outputs()) values_[id] = values_[nl_.gate(id).fanin[0]];
    for (GateId id = 0; id < nl_.size(); ++id) {
      if (nl_.gate(id).kind == GateKind::kConst0) values_[id] = 0;
      if (nl_.gate(id).kind == GateKind::kConst1) values_[id] = 1;
    }
  }

  const netlist::Netlist& nl_;
  std::vector<std::uint8_t> values_, prev_, pending_, activated_;
};

TEST(LogicSim, CompiledProgramMatchesReferenceEvaluator) {
  const Pipeline p = netlist::build_pipeline({});
  const netlist::Netlist& nl = p.netlist;
  LogicSimulator sim(nl);
  ReferenceSim ref(nl);

  // Gates fed by a kConst1 settle the reset cycle with the constant at 0
  // and see it from cycle 1 on; the pipeline must have some for this to
  // test anything.
  std::vector<GateId> const1_fed;
  for (GateId g : nl.topo_order()) {
    const Gate& gate = nl.gate(g);
    for (std::size_t s = 0; s < static_cast<std::size_t>(gate.arity()); ++s) {
      if (nl.gate(gate.fanin[s]).kind == GateKind::kConst1) {
        const1_fed.push_back(g);
        break;
      }
    }
  }
  ASSERT_FALSE(const1_fed.empty());
  for (GateId g = 0; g < nl.size(); ++g)
    ASSERT_EQ(sim.value(g), ref.value(g)) << "reset cycle, gate " << g;

  obs::Counter& toggles = obs::MetricsRegistry::instance().counter("sim.gate_toggles");
  support::Rng rng(2024);
  std::size_t const1_fed_toggles = 0;
  for (int cycle = 1; cycle <= 1200; ++cycle) {
    for (GateId in : nl.inputs()) {
      const bool v = (rng.next_u64() & 1u) != 0;
      sim.set_input(in, v);
      ref.set_input(in, v);
    }
    const std::uint64_t before = toggles.value();
    sim.step();
    const std::size_t ref_toggles = ref.step();
    ASSERT_EQ(toggles.value() - before, ref_toggles) << "cycle " << cycle;
    for (GateId g = 0; g < nl.size(); ++g) {
      ASSERT_EQ(sim.value(g), ref.value(g)) << "cycle " << cycle << ", gate " << g;
      ASSERT_EQ(sim.activated(g), ref.activated(g)) << "cycle " << cycle << ", gate " << g;
    }
    if (cycle == 1)
      for (GateId g : const1_fed) const1_fed_toggles += sim.activated(g) ? 1 : 0;
  }
  EXPECT_GT(const1_fed_toggles, 0u);
}

/// Lanes are independent streams: with `lanes` lanes driven by random
/// streams of unequal length (and the finished lanes still driven), every
/// live lane's values and flags equal a single-stream run's and the scalar
/// oracle's in every cycle, and the work counters count live lanes only.
void expect_lanes_match_single_streams(const netlist::Netlist& nl, unsigned lanes,
                                       std::uint64_t seed) {
  support::Rng rng(seed);
  LogicSimulator batch(nl);
  std::vector<std::unique_ptr<LogicSimulator>> single;
  std::vector<std::unique_ptr<ReferenceSim>> ref;
  std::vector<std::size_t> length(lanes);
  std::size_t cycles = 0;
  for (unsigned l = 0; l < lanes; ++l) {
    single.push_back(std::make_unique<LogicSimulator>(nl));
    ref.push_back(std::make_unique<ReferenceSim>(nl));
    length[l] = 2 + rng.next_u64() % 14;
    cycles = std::max(cycles, length[l]);
  }
  // The inputs in words of at most 64.
  std::vector<std::vector<GateId>> words;
  for (std::size_t i = 0; i < nl.inputs().size(); i += 64)
    words.emplace_back(nl.inputs().begin() + static_cast<std::ptrdiff_t>(i),
                       nl.inputs().begin() +
                           static_cast<std::ptrdiff_t>(std::min(i + 64, nl.inputs().size())));
  obs::Counter& cycles_metric = obs::MetricsRegistry::instance().counter("sim.cycles");
  obs::Counter& toggles_metric = obs::MetricsRegistry::instance().counter("sim.gate_toggles");
  std::vector<std::uint8_t> flags(nl.size());
  std::size_t compared = 0;
  for (std::size_t t = 0; t < cycles; ++t) {
    LogicSimulator::Lanes live = 0;
    std::size_t want_toggles = 0;
    for (const auto& word : words) {
      LogicSimulator::LaneValues values{};
      for (unsigned l = 0; l < LogicSimulator::kLanes; ++l) values[l] = rng.next_u64();
      batch.drive_word_lanes(word, values);
      for (unsigned l = 0; l < lanes; ++l) {
        if (t >= length[l]) continue;
        single[l]->set_input_word(word, values[l]);
        for (std::size_t i = 0; i < word.size(); ++i)
          ref[l]->set_input(word[i], ((values[l] >> i) & 1u) != 0);
      }
    }
    for (unsigned l = 0; l < lanes; ++l) {
      if (t >= length[l]) continue;
      live |= LogicSimulator::Lanes{1} << l;
      single[l]->step();
      want_toggles += ref[l]->step();
    }
    const std::uint64_t cycles_before = cycles_metric.value();
    const std::uint64_t toggles_before = toggles_metric.value();
    batch.set_live(live);
    batch.step();
    ASSERT_EQ(cycles_metric.value() - cycles_before, count_bits(live)) << "cycle " << t;
    ASSERT_EQ(toggles_metric.value() - toggles_before, want_toggles) << "cycle " << t;
    for (unsigned l = 0; l < lanes; ++l) {
      if (t >= length[l]) continue;
      batch.lane_flags(l, flags);
      const std::vector<std::uint8_t> single_flags = single[l]->activation_flags();
      for (GateId g = 0; g < nl.size(); ++g) {
        const bool v = ((batch.value_lanes(g) >> l) & 1u) != 0;
        const bool a = ((batch.activated_lanes(g) >> l) & 1u) != 0;
        ASSERT_EQ(v, single[l]->value(g)) << lanes << " lanes, lane " << l << ", cycle " << t
                                          << ", gate " << g;
        ASSERT_EQ(v, ref[l]->value(g)) << "lane " << l << ", cycle " << t << ", gate " << g;
        ASSERT_EQ(a, single[l]->activated(g)) << "lane " << l << ", cycle " << t << ", gate " << g;
        ASSERT_EQ(a, ref[l]->activated(g)) << "lane " << l << ", cycle " << t << ", gate " << g;
        ASSERT_EQ(flags[g], a ? 1 : 0) << "lane " << l << ", cycle " << t << ", gate " << g;
        ASSERT_EQ(single_flags[g], a ? 1 : 0) << "lane " << l << ", cycle " << t;
      }
      ++compared;
    }
  }
  EXPECT_GT(compared, lanes);
}

TEST(LogicSim, LanesMatchSingleStreamsAndTheOracle) {
  const Pipeline p = netlist::build_pipeline({});
  for (const unsigned lanes : {1u, 2u, 63u, 64u}) {
    SCOPED_TRACE(lanes);
    expect_lanes_match_single_streams(p.netlist, lanes, 100 + lanes);
  }
}

TEST(PipelineSim, AddFlowsThroughDatapath) {
  const Pipeline p = netlist::build_pipeline({});
  LogicSimulator sim(p.netlist);
  const std::uint64_t a = 0x12345678u;
  const std::uint64_t c = 0x0FEDCBA9u;

  auto drive_defaults = [&] {
    sim.set_input_word(p.ports.instr, 0);
    sim.set_input_word(p.ports.branch_target, 0);
    sim.set_input(p.ports.branch_taken, false);
    sim.set_input_word(p.ports.op_a, 0);
    sim.set_input_word(p.ports.op_b, 0);
    sim.set_input_word(p.ports.bypass_a, 0);
    sim.set_input_word(p.ports.bypass_b, 0);
    sim.set_input_word(p.ports.alu_sel, 0);  // add
    sim.set_input(p.ports.sel_imm, false);
    sim.set_input(p.ports.sub_mode, false);
    sim.set_input(p.ports.shift_dir, false);
    sim.set_input_word(p.ports.logic_sel, 0);
    sim.set_input_word(p.ports.mem_data, 0);
    sim.set_input(p.ports.mem_is_load, false);
    sim.set_input_word(p.ports.ctrl_noise, 0);
  };

  // Cycle 0: instruction enters FE (we only care about the datapath).
  drive_defaults();
  sim.step();
  // Cycle 1 (DE): register-file read values arrive.
  drive_defaults();
  sim.set_input_word(p.ports.op_a, a);
  sim.set_input_word(p.ports.op_b, c);
  sim.step();
  // Cycle 2 (RA): no bypassing.
  drive_defaults();
  sim.step();
  // Cycle 3 (EX): ALU add; result is captured at the end of this cycle.
  drive_defaults();
  sim.step();
  sim.step();  // result visible on ex_result_reg outputs in cycle 4
  EXPECT_EQ(sim.value_word(p.taps.ex_result_reg), (a + c) & 0xFFFFFFFFull);
  // Cycle 5: memory pass-through into me_result.
  sim.step();
  EXPECT_EQ(sim.value_word(p.taps.me_result_reg), (a + c) & 0xFFFFFFFFull);
}

TEST(PipelineSim, SubtractAndLogicOps) {
  const Pipeline p = netlist::build_pipeline({});
  LogicSimulator sim(p.netlist);
  const std::uint64_t a = 0xDEADBEEFull;
  const std::uint64_t c = 0x12345678ull;

  auto zero_all = [&] {
    for (GateId g : p.netlist.inputs()) sim.set_input(g, false);
  };
  // Subtract.
  zero_all();
  sim.step();
  zero_all();
  sim.set_input_word(p.ports.op_a, a);
  sim.set_input_word(p.ports.op_b, c);
  sim.step();
  zero_all();
  sim.step();
  zero_all();
  sim.set_input(p.ports.sub_mode, true);
  sim.set_input_word(p.ports.alu_sel, 0);
  sim.step();
  sim.step();
  EXPECT_EQ(sim.value_word(p.taps.ex_result_reg), (a - c) & 0xFFFFFFFFull);

  // XOR (alu_sel = 1 selects the logic unit, logic_sel = 2 selects xor).
  zero_all();
  sim.step();
  zero_all();
  sim.set_input_word(p.ports.op_a, a);
  sim.set_input_word(p.ports.op_b, c);
  sim.step();
  zero_all();
  sim.step();
  zero_all();
  sim.set_input_word(p.ports.alu_sel, 1);
  sim.set_input_word(p.ports.logic_sel, 2);
  sim.step();
  sim.step();
  EXPECT_EQ(sim.value_word(p.taps.ex_result_reg), (a ^ c) & 0xFFFFFFFFull);
}

}  // namespace
}  // namespace terrors::sim
