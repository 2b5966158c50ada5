#include <gtest/gtest.h>

#include "netlist/builder.hpp"
#include "netlist/gate.hpp"
#include "netlist/netlist.hpp"
#include "netlist/pipeline.hpp"

namespace terrors::netlist {
namespace {

TEST(GateLibrary, ArityAndDelayTable) {
  EXPECT_EQ(info(GateKind::kInv).arity, 1);
  EXPECT_EQ(info(GateKind::kMux2).arity, 3);
  EXPECT_EQ(info(GateKind::kDff).arity, 1);
  EXPECT_FALSE(info(GateKind::kDff).combinational);
  EXPECT_TRUE(info(GateKind::kXor2).combinational);
  EXPECT_GT(info(GateKind::kXor2).delay_ps, info(GateKind::kInv).delay_ps);
}

TEST(GateLibrary, EvalTruthTables) {
  const bool f = false;
  const bool t = true;
  EXPECT_TRUE(eval_gate(GateKind::kInv, std::array{f}));
  EXPECT_FALSE(eval_gate(GateKind::kAnd2, std::array{t, f}));
  EXPECT_TRUE(eval_gate(GateKind::kNand2, std::array{t, f}));
  EXPECT_TRUE(eval_gate(GateKind::kOr2, std::array{t, f}));
  EXPECT_FALSE(eval_gate(GateKind::kNor2, std::array{t, f}));
  EXPECT_TRUE(eval_gate(GateKind::kXor2, std::array{t, f}));
  EXPECT_FALSE(eval_gate(GateKind::kXnor2, std::array{t, f}));
  // mux(a, b, sel): sel ? b : a
  EXPECT_FALSE(eval_gate(GateKind::kMux2, std::array{f, t, f}));
  EXPECT_TRUE(eval_gate(GateKind::kMux2, std::array{f, t, t}));
}

TEST(Netlist, FinalizeRejectsUnwiredFanin) {
  Netlist nl;
  const GateId in = nl.add(GateKind::kInput);
  (void)in;
  nl.add(GateKind::kInv);  // fanin left unwired
  EXPECT_THROW(nl.finalize(1), std::invalid_argument);
}

TEST(Netlist, FinalizeRejectsCombinationalCycle) {
  Netlist nl;
  const GateId a = nl.add(GateKind::kInv);
  const GateId b = nl.add(GateKind::kInv, {a, kNoGate, kNoGate});
  nl.set_fanin(a, 0, b);
  EXPECT_THROW(nl.finalize(1), std::invalid_argument);
}

TEST(Netlist, SequentialLoopIsLegal) {
  // A DFF feeding an inverter feeding the DFF: a toggle register.
  Netlist nl;
  const GateId q = nl.add(GateKind::kDff);
  const GateId inv = nl.add(GateKind::kInv, {q, kNoGate, kNoGate});
  nl.set_fanin(q, 0, inv);
  EXPECT_NO_THROW(nl.finalize(1));
  EXPECT_EQ(nl.topo_order().size(), 1u);
  EXPECT_EQ(nl.stage_endpoints(0).size(), 1u);
}

TEST(Netlist, TopoOrderRespectsDependencies) {
  NetlistBuilder b(support::Rng(1));
  auto w = b.input_word(4);
  auto inv = b.not_word(w);
  auto r = b.dff_word(4, EndpointClass::kData);
  b.connect_word(r, inv);
  Netlist& nl = b.netlist();
  nl.finalize(1);
  // Every gate must appear after all of its combinational fanins.
  std::vector<int> pos(nl.size(), -1);
  int idx = 0;
  for (GateId g : nl.topo_order()) pos[g] = idx++;
  for (GateId g : nl.topo_order()) {
    for (int s = 0; s < nl.gate(g).arity(); ++s) {
      const GateId f = nl.gate(g).fanin[static_cast<std::size_t>(s)];
      if (info(nl.gate(f).kind).combinational) {
        EXPECT_LT(pos[f], pos[g]);
      }
    }
  }
}

TEST(Netlist, EndpointClassOnlyOnCaptureEndpoints) {
  Netlist nl;
  const GateId in = nl.add(GateKind::kInput);
  EXPECT_THROW(nl.set_endpoint_class(in, EndpointClass::kData), std::invalid_argument);
  const GateId q = nl.add(GateKind::kDff, {in, kNoGate, kNoGate});
  EXPECT_NO_THROW(nl.set_endpoint_class(q, EndpointClass::kControl));
}

TEST(Builder, AdderHasExpectedStructure) {
  NetlistBuilder b(support::Rng(2));
  auto x = b.input_word(8);
  auto y = b.input_word(8);
  auto r = b.ripple_adder(x, y);
  EXPECT_EQ(r.sum.size(), 8u);
  EXPECT_NE(r.carry_out, kNoGate);
  // 5 gates per full adder (2 xor, 2 and, 1 or) + the constant carry-in.
  auto& nl = b.netlist();
  std::size_t comb = 0;
  for (GateId g = 0; g < nl.size(); ++g)
    if (info(nl.gate(g).kind).combinational) ++comb;
  EXPECT_EQ(comb, 8u * 5u);
}

TEST(Builder, MuxTreeRequiresPowerOfTwoOptions) {
  NetlistBuilder b(support::Rng(3));
  auto a = b.input_word(4);
  auto c = b.input_word(4);
  auto sel = b.input_word(1);
  EXPECT_NO_THROW(b.mux_tree({a, c}, sel));
  EXPECT_THROW(b.mux_tree({a, c, a}, sel), std::invalid_argument);
}

TEST(Builder, DelayJitterPerturbsDelays) {
  NetlistBuilder b(support::Rng(4));
  b.set_delay_jitter(0.2);
  auto x = b.input_word(16);
  auto y = b.input_word(16);
  b.ripple_adder(x, y);
  auto& nl = b.netlist();
  // Among the XOR gates there should be delay diversity.
  double min_d = 1e9;
  double max_d = 0.0;
  for (GateId g = 0; g < nl.size(); ++g) {
    if (nl.gate(g).kind != GateKind::kXor2) continue;
    min_d = std::min<double>(min_d, nl.gate(g).delay_ps);
    max_d = std::max<double>(max_d, nl.gate(g).delay_ps);
  }
  EXPECT_GT(max_d, min_d * 1.1);
}

TEST(Builder, RandomCloudIsDeterministicInSeed) {
  auto build = [](std::uint64_t seed) {
    NetlistBuilder b{support::Rng(seed)};
    auto in = b.input_word(8);
    b.random_cloud(in, 16, 4);
    return b.netlist().size();
  };
  EXPECT_EQ(build(5), build(5));
}

TEST(Pipeline, BuildsAndFinalizes) {
  const Pipeline p = build_pipeline({});
  EXPECT_TRUE(p.netlist.finalized());
  EXPECT_EQ(p.netlist.stage_count(), Pipeline::kStages);
  const auto stats = p.netlist.stats();
  EXPECT_GT(stats.gates, 2000u);
  EXPECT_GT(stats.dffs, 200u);
  // Every stage has capture endpoints.
  for (std::uint8_t s = 0; s < Pipeline::kStages; ++s)
    EXPECT_FALSE(p.netlist.stage_endpoints(s).empty()) << "stage " << int(s);
}

TEST(Pipeline, HasBothEndpointClasses) {
  const Pipeline p = build_pipeline({});
  std::size_t control = 0;
  std::size_t data = 0;
  for (std::uint8_t s = 0; s < Pipeline::kStages; ++s) {
    for (GateId e : p.netlist.stage_endpoints(s)) {
      if (p.netlist.gate(e).endpoint_class == EndpointClass::kControl) ++control;
      if (p.netlist.gate(e).endpoint_class == EndpointClass::kData) ++data;
    }
  }
  EXPECT_GT(control, 50u);
  EXPECT_GT(data, 100u);
}

TEST(Pipeline, PlacementSpansStageColumns) {
  const Pipeline p = build_pipeline({});
  float min_x = 1e9f;
  float max_x = -1e9f;
  for (GateId g = 0; g < p.netlist.size(); ++g) {
    min_x = std::min(min_x, p.netlist.gate(g).x);
    max_x = std::max(max_x, p.netlist.gate(g).x);
  }
  EXPECT_LT(min_x, 1.0f);
  EXPECT_GT(max_x, 5.0f);
}

TEST(Pipeline, DeterministicInSeed) {
  const Pipeline a = build_pipeline({});
  const Pipeline b = build_pipeline({});
  ASSERT_EQ(a.netlist.size(), b.netlist.size());
  for (GateId g = 0; g < a.netlist.size(); ++g) {
    EXPECT_EQ(a.netlist.gate(g).kind, b.netlist.gate(g).kind);
    EXPECT_EQ(a.netlist.gate(g).delay_ps, b.netlist.gate(g).delay_ps);
  }
}

}  // namespace
}  // namespace terrors::netlist
