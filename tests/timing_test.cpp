#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "netlist/builder.hpp"
#include "netlist/pipeline.hpp"
#include "sim/logic_sim.hpp"
#include "timing/paths.hpp"
#include "timing/sta.hpp"
#include "timing/variation.hpp"

namespace terrors::timing {
namespace {

using netlist::EndpointClass;
using netlist::Gate;
using netlist::GateId;
using netlist::GateKind;
using netlist::NetlistBuilder;
using netlist::Word;

// A two-path circuit with a known critical path:
//   in -> inv -> inv -> inv -> q   (long path)
//   in ----------> buf ----> q     (short path, through an or)
struct TwoPathFixture {
  NetlistBuilder b{support::Rng(1)};
  GateId in, i1, i2, i3, bf, orr, q;
  TwoPathFixture() {
    in = b.input();
    i1 = b.gate(GateKind::kInv, in);
    i2 = b.gate(GateKind::kInv, i1);
    i3 = b.gate(GateKind::kInv, i2);
    bf = b.gate(GateKind::kBuf, in);
    orr = b.gate(GateKind::kOr2, i3, bf);
    q = b.dff(EndpointClass::kData);
    b.connect(q, orr);
    b.netlist().finalize(1);
  }
  [[nodiscard]] double delay(GateId g) const { return b.netlist().gate(g).delay_ps; }
};

TEST(Sta, ArrivalOfKnownCircuit) {
  TwoPathFixture f;
  const Sta sta(f.b.netlist());
  const double long_path = f.delay(f.i1) + f.delay(f.i2) + f.delay(f.i3) + f.delay(f.orr);
  EXPECT_NEAR(sta.endpoint_arrival(f.q), long_path, 1e-9);
  const TimingSpec spec{100.0, 10.0};
  EXPECT_NEAR(sta.endpoint_slack(f.q, spec), 100.0 - 10.0 - long_path, 1e-9);
}

TEST(Sta, MaxFrequencyConsistentWithWorstSlack) {
  const auto p = netlist::build_pipeline({});
  const Sta sta(p.netlist);
  const double fmax = sta.max_frequency_mhz();
  const TimingSpec at_fmax = TimingSpec::from_frequency_mhz(fmax);
  EXPECT_NEAR(sta.worst_slack(at_fmax), 0.0, 1e-6);
  // Slightly faster clock must violate.
  EXPECT_LT(sta.worst_slack(TimingSpec::from_frequency_mhz(fmax * 1.01)), 0.0);
  // The 1300 ps working point lies past static timing: speculation, not signoff.
  EXPECT_LT(sta.worst_slack(TimingSpec{1300.0}), 0.0);
}

TEST(Sta, ChipSampleChangesArrivals) {
  TwoPathFixture f;
  ChipSample chip(f.b.netlist().size());
  for (GateId g = 0; g < f.b.netlist().size(); ++g)
    chip[g] = f.b.netlist().gate(g).delay_ps * 2.0f;
  const Sta nominal(f.b.netlist());
  const Sta slow(f.b.netlist(), &chip);
  EXPECT_NEAR(slow.endpoint_arrival(f.q), 2.0 * nominal.endpoint_arrival(f.q), 1e-6);
}

TEST(ActivatedSta, OnlyActivatedPathsCount) {
  TwoPathFixture f;
  const auto& nl = f.b.netlist();
  std::vector<std::uint8_t> act(nl.size(), 0);
  // Only the short path toggles.
  act[f.in] = 1;
  act[f.bf] = 1;
  act[f.orr] = 1;
  const auto arr = activated_endpoint_arrival(nl, act, f.q);
  ASSERT_TRUE(arr.has_value());
  EXPECT_NEAR(*arr, f.delay(f.bf) + f.delay(f.orr), 1e-9);
  // Nothing toggles: no activated path.
  std::fill(act.begin(), act.end(), 0);
  EXPECT_FALSE(activated_endpoint_arrival(nl, act, f.q).has_value());
}

TEST(ActivatedSta, AgreesWithSimulatorToggles) {
  // Drive the 16-bit adder and check the activated arrival at the sum MSB
  // register never exceeds static arrival.
  NetlistBuilder b(support::Rng(3));
  auto x = b.input_word(16);
  auto y = b.input_word(16);
  auto add = b.ripple_adder(x, y);
  auto r = b.dff_word(17, EndpointClass::kData);
  Word sum_and_carry = add.sum;
  sum_and_carry.push_back(add.carry_out);
  b.connect_word(r, sum_and_carry);
  b.netlist().finalize(1);

  sim::LogicSimulator sim(b.netlist());
  const Sta sta(b.netlist());
  support::Rng rng(4);
  sim.step();
  for (int t = 0; t < 30; ++t) {
    sim.set_input_word(x, rng.next_u64() & 0xFFFF);
    sim.set_input_word(y, rng.next_u64() & 0xFFFF);
    sim.step();
    for (GateId e : b.netlist().stage_endpoints(0)) {
      const auto arr = activated_endpoint_arrival(b.netlist(), sim.activation_flags(), e);
      if (arr.has_value()) {
        EXPECT_LE(*arr, sta.endpoint_arrival(e) + 1e-9);
      }
    }
  }
}

/// Dense oracle for activated_arrivals: every gate in topo_order(), read
/// through Gate structs and netlist::info().
std::vector<double> dense_activated_arrivals(const netlist::Netlist& nl,
                                             const std::vector<std::uint8_t>& act,
                                             const ChipSample* chip) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  auto delay = [&](GateId g) {
    return chip != nullptr ? static_cast<double>((*chip)[g]) : nl.gate(g).delay_ps;
  };
  std::vector<double> arr(nl.size(), kNegInf);
  for (GateId g = 0; g < nl.size(); ++g) {
    if (netlist::info(nl.gate(g).kind).combinational || act[g] == 0) continue;
    arr[g] = nl.gate(g).kind == GateKind::kDff ? delay(g) : 0.0;
  }
  for (GateId g : nl.topo_order()) {
    if (act[g] == 0) continue;
    const Gate& gate = nl.gate(g);
    double worst = kNegInf;
    for (int s = 0; s < gate.arity(); ++s)
      worst = std::max(worst, arr[gate.fanin[static_cast<std::size_t>(s)]]);
    if (worst != kNegInf) arr[g] = worst + delay(g);
  }
  return arr;
}

TEST(ActivatedSta, CompiledDpMatchesDenseDp) {
  const auto p = netlist::build_pipeline({});
  const netlist::Netlist& nl = p.netlist;
  const VariationModel vm(nl, {});
  support::Rng rng(9);
  const ChipSample chip = vm.sample_chip(rng);

  // Simulated cycles, plus random flag patterns that no simulation
  // produces (activated constants, isolated toggles).
  std::vector<std::vector<std::uint8_t>> patterns;
  sim::LogicSimulator sim(nl);
  for (int t = 0; t < 200; ++t) {
    for (GateId in : nl.inputs()) sim.set_input(in, (rng.next_u64() & 1u) != 0);
    sim.step();
    patterns.push_back(sim.activation_flags());
  }
  for (int t = 0; t < 50; ++t) {
    std::vector<std::uint8_t> act(nl.size());
    for (auto& a : act) a = rng.uniform() < 0.5 ? 1 : 0;
    patterns.push_back(std::move(act));
  }

  for (std::size_t t = 0; t < patterns.size(); ++t) {
    for (const ChipSample* c : {static_cast<const ChipSample*>(nullptr), &chip}) {
      const std::vector<double> got = activated_arrivals(nl, patterns[t], c);
      const std::vector<double> want = dense_activated_arrivals(nl, patterns[t], c);
      ASSERT_EQ(got.size(), want.size());
      for (GateId g = 0; g < nl.size(); ++g)
        ASSERT_EQ(got[g], want[g]) << "pattern " << t << ", gate " << g << ", chip "
                                   << (c != nullptr);
    }
  }
}

TEST(Paths, TopPathMatchesSta) {
  const auto p = netlist::build_pipeline({});
  const Sta sta(p.netlist);
  PathEnumerator pe(p.netlist);
  // Check a handful of endpoints across stages.
  for (std::uint8_t s = 0; s < netlist::Pipeline::kStages; ++s) {
    const auto& eps = p.netlist.stage_endpoints(s);
    for (std::size_t i = 0; i < eps.size(); i += std::max<std::size_t>(1, eps.size() / 3)) {
      const auto& paths = pe.top_paths(eps[i], 1);
      if (paths.empty()) continue;  // endpoint fed only by constants
      // float accumulation in the enumerator vs double in STA.
      EXPECT_NEAR(paths[0].delay_ps, sta.endpoint_arrival(eps[i]),
                  1e-3 + 1e-6 * sta.endpoint_arrival(eps[i]))
          << "stage " << int(s) << " endpoint " << i;
    }
  }
}

TEST(Paths, EnumeratedInNonIncreasingDelay) {
  const auto p = netlist::build_pipeline({});
  PathEnumerator pe(p.netlist);
  const GateId e = p.taps.ex_result_reg[16];
  const auto& paths = pe.top_paths(e, 64);
  ASSERT_GE(paths.size(), 2u);
  for (std::size_t i = 1; i < paths.size(); ++i)
    EXPECT_LE(paths[i].delay_ps, paths[i - 1].delay_ps + 1e-9);
}

TEST(Paths, PathsAreStructurallyValid) {
  const auto p = netlist::build_pipeline({});
  PathEnumerator pe(p.netlist);
  const GateId e = p.taps.cc_reg[2];  // carry flag: long adder paths
  for (const auto& path : pe.top_paths(e, 16)) {
    ASSERT_FALSE(path.gates.empty());
    // First gate is a launch endpoint (Def. 3.1), the rest combinational.
    const auto first_kind = p.netlist.gate(path.gates.front()).kind;
    EXPECT_TRUE(first_kind == GateKind::kDff || first_kind == GateKind::kInput);
    for (std::size_t i = 1; i < path.gates.size(); ++i) {
      const auto& g = p.netlist.gate(path.gates[i]);
      EXPECT_TRUE(netlist::info(g.kind).combinational);
      // Consecutive gates are connected.
      bool connected = false;
      for (int s = 0; s < g.arity(); ++s)
        connected |= g.fanin[static_cast<std::size_t>(s)] == path.gates[i - 1];
      EXPECT_TRUE(connected);
    }
    // Last gate drives the endpoint's data input.
    EXPECT_EQ(path.gates.back(), p.netlist.gate(e).fanin[0]);
  }
}

TEST(Paths, SmallChainEnumeratesExactly) {
  TwoPathFixture f;
  PathEnumerator pe(f.b.netlist());
  const auto& paths = pe.top_paths(f.q, 10);
  EXPECT_EQ(paths.size(), 2u);
  EXPECT_TRUE(pe.exhausted(f.q));
  const double long_path = f.delay(f.i1) + f.delay(f.i2) + f.delay(f.i3) + f.delay(f.orr);
  const double short_path = f.delay(f.bf) + f.delay(f.orr);
  EXPECT_NEAR(paths[0].delay_ps, long_path, 1e-9);
  EXPECT_NEAR(paths[1].delay_ps, short_path, 1e-9);
}

// --- Variation model ---------------------------------------------------------

TEST(Variation, CovarianceStructure) {
  const auto p = netlist::build_pipeline({});
  VariationConfig cfg;
  const VariationModel vm(p.netlist, cfg);
  // Variance identity: cov(g, g) == sigma(g)^2 (within rounding).
  for (GateId g : {GateId(10), GateId(100), GateId(500)}) {
    if (p.netlist.gate(g).delay_ps == 0.0f) continue;
    // float anchor weights: allow relative rounding error.
    EXPECT_NEAR(vm.covariance(g, g), vm.sigma(g) * vm.sigma(g),
                1e-6 * vm.sigma(g) * vm.sigma(g));
  }
}

TEST(Variation, NearbyGatesMoreCorrelatedThanFarApart) {
  const auto p = netlist::build_pipeline({});
  const VariationModel vm(p.netlist, {});
  // Find three combinational gates: two close together, one far away.
  GateId a = netlist::kNoGate;
  GateId near_a = netlist::kNoGate;
  GateId far_a = netlist::kNoGate;
  for (GateId g = 0; g < p.netlist.size(); ++g) {
    if (p.netlist.gate(g).delay_ps == 0.0f) continue;
    if (a == netlist::kNoGate) {
      a = g;
      continue;
    }
    const float dx = std::fabs(p.netlist.gate(g).x - p.netlist.gate(a).x);
    if (dx < 0.1f && near_a == netlist::kNoGate) near_a = g;
    if (dx > 3.0f && far_a == netlist::kNoGate) far_a = g;
  }
  ASSERT_NE(near_a, netlist::kNoGate);
  ASSERT_NE(far_a, netlist::kNoGate);
  auto corr = [&](GateId u, GateId v) {
    return vm.covariance(u, v) / (vm.sigma(u) * vm.sigma(v));
  };
  EXPECT_GT(corr(a, near_a), corr(a, far_a));
}

TEST(Variation, SampleChipMatchesAnalyticMoments) {
  const auto p = netlist::build_pipeline({});
  const VariationModel vm(p.netlist, {});
  const GateId g = p.netlist.topo_order()[100];
  support::Rng rng(9);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const ChipSample chip = vm.sample_chip(rng);
    sum += chip[g];
    sum2 += static_cast<double>(chip[g]) * chip[g];
  }
  const double mean = sum / n;
  const double sd = std::sqrt(std::max(0.0, sum2 / n - mean * mean));
  EXPECT_NEAR(mean, vm.mean(g), 0.05 * vm.mean(g) + 0.2);
  EXPECT_NEAR(sd, vm.sigma(g), 0.1 * vm.sigma(g) + 0.05);
}

TEST(Variation, SpatialDisabledFoldsIntoIndependent) {
  const auto p = netlist::build_pipeline({});
  VariationConfig cfg;
  cfg.spatial_enabled = false;
  const VariationModel vm(p.netlist, cfg);
  const GateId g = p.netlist.topo_order()[10];
  EXPECT_NEAR(vm.covariance(g, g), vm.sigma(g) * vm.sigma(g), 1e-9);
}

// --- Path statistics -----------------------------------------------------------

TEST(PathStat, VarianceMatchesMonteCarlo) {
  const auto p = netlist::build_pipeline({});
  const VariationModel vm(p.netlist, {});
  PathEnumerator pe(p.netlist);
  const GateId e = p.taps.cc_reg[2];
  const auto& paths = pe.top_paths(e, 4);
  ASSERT_FALSE(paths.empty());
  const PathStat st = path_stat(paths[0], vm);
  EXPECT_NEAR(st.mean, paths[0].delay_ps, 1e-3 + 1e-6 * st.mean);

  support::Rng rng(11);
  support::Rng chip_rng = rng.split(0);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    const ChipSample chip = vm.sample_chip(chip_rng);
    double d = 0.0;
    for (GateId g : paths[0].gates) d += chip[g];
    sum += d;
    sum2 += d * d;
  }
  const double mc_mean = sum / n;
  const double mc_var = sum2 / n - mc_mean * mc_mean;
  EXPECT_NEAR(st.mean, mc_mean, 0.02 * st.mean);
  EXPECT_NEAR(st.variance(), mc_var, 0.2 * mc_var);
}

TEST(PathStat, CovarianceSymmetricAndBounded) {
  const auto p = netlist::build_pipeline({});
  const VariationModel vm(p.netlist, {});
  PathEnumerator pe(p.netlist);
  const auto& paths = pe.top_paths(p.taps.ex_result_reg[31], 8);
  ASSERT_GE(paths.size(), 2u);
  const PathStat a = path_stat(paths[0], vm);
  const PathStat b = path_stat(paths[1], vm);
  const double cab = path_cov(a, b, vm);
  const double cba = path_cov(b, a, vm);
  EXPECT_NEAR(cab, cba, 1e-9);
  EXPECT_LE(cab, std::sqrt(a.variance() * b.variance()) + 1e-9);
  EXPECT_GT(cab, 0.0);  // shared carry-chain gates + global component
}

TEST(PathStat, SharedGatesIncreaseCovariance) {
  const auto p = netlist::build_pipeline({});
  const VariationModel vm(p.netlist, {});
  PathEnumerator pe(p.netlist);
  const auto& paths = pe.top_paths(p.taps.cc_reg[2], 3);
  ASSERT_GE(paths.size(), 2u);
  const PathStat a = path_stat(paths[0], vm);
  const PathStat b = path_stat(paths[1], vm);
  // Top-2 adder carry paths share nearly all gates: correlation close to 1.
  const double rho = path_cov(a, b, vm) / std::sqrt(a.variance() * b.variance());
  EXPECT_GT(rho, 0.8);
}

// --- Property test: path enumeration vs brute force on random DAGs ---------------

/// Enumerate ALL paths to an endpoint by exhaustive DFS (ground truth).
void brute_force_paths(const netlist::Netlist& nl, GateId gate, double suffix,
                       std::vector<double>& out) {
  const auto& g = nl.gate(gate);
  if (!netlist::info(g.kind).combinational) {
    if (g.kind == GateKind::kConst0 || g.kind == GateKind::kConst1) return;
    const double launch = g.kind == GateKind::kDff ? g.delay_ps : 0.0;
    out.push_back(suffix + launch);
    return;
  }
  for (int sidx = 0; sidx < g.arity(); ++sidx)
    brute_force_paths(nl, g.fanin[static_cast<std::size_t>(sidx)], suffix + g.delay_ps, out);
}

class PathEnumerationVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PathEnumerationVsBruteForce, AllPathsInDecreasingOrder) {
  // Random layered DAG ending in a few flip-flops.
  support::Rng rng(GetParam());
  NetlistBuilder b{support::Rng(GetParam() * 31 + 1)};
  b.set_delay_jitter(0.2);
  auto inputs = b.input_word(4);
  Word cloud = b.random_cloud(inputs, 6, 4);
  Word regs = b.dff_word(4, EndpointClass::kData);
  for (std::size_t i = 0; i < regs.size(); ++i) b.connect(regs[i], cloud[i % cloud.size()]);
  b.netlist().finalize(1);
  const auto& nl = b.netlist();

  PathEnumerator pe(nl, timing::PathConfig{10000, 2000000});
  for (GateId e : nl.stage_endpoints(0)) {
    std::vector<double> truth;
    brute_force_paths(nl, nl.gate(e).fanin[0], 0.0, truth);
    std::sort(truth.rbegin(), truth.rend());
    const auto& found = pe.top_paths(e, truth.size() + 5);
    ASSERT_EQ(found.size(), truth.size()) << "endpoint " << e;
    EXPECT_TRUE(pe.exhausted(e));
    for (std::size_t i = 0; i < truth.size(); ++i)
      EXPECT_NEAR(found[i].delay_ps, truth[i], 1e-3 + 1e-5 * truth[i]) << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathEnumerationVsBruteForce,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

TEST(PathEnumeration, GuardTripsOnExponentialAdder) {
  // A 24-bit ripple adder has ~2^24 paths to the carry-out: the guard must
  // trip rather than hang, and exhausted() must report false.
  NetlistBuilder b{support::Rng(9)};
  auto x = b.input_word(24);
  auto y = b.input_word(24);
  auto add = b.ripple_adder(x, y);
  auto q = b.dff(EndpointClass::kData);
  b.connect(q, add.carry_out);
  b.netlist().finalize(1);
  timing::PathConfig cfg;
  cfg.max_paths = 64;
  cfg.max_expansions = 20000;
  PathEnumerator pe(b.netlist(), cfg);
  const auto& paths = pe.top_paths(q, 1000);
  EXPECT_LE(paths.size(), 64u);
  EXPECT_FALSE(pe.exhausted(q));
  // Still sorted and the top path equals the STA arrival.
  const Sta sta(b.netlist());
  EXPECT_NEAR(paths[0].delay_ps, sta.endpoint_arrival(q), 1e-3 + 1e-5 * paths[0].delay_ps);
}

}  // namespace
}  // namespace terrors::timing
