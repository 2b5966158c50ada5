#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "dta/control_characterizer.hpp"
#include "dta/datapath_model.hpp"
#include "dta/dts_analyzer.hpp"
#include "dta/graph_dta.hpp"
#include "dta/pipeline_driver.hpp"
#include "isa/cfg.hpp"
#include "isa/executor.hpp"
#include "netlist/pipeline.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "timing/sta.hpp"
#include "workloads/generator.hpp"

namespace terrors::dta {
namespace {

using isa::ExContext;
using isa::Opcode;
using netlist::EndpointClass;
using netlist::Pipeline;

const Pipeline& shared_pipeline() {
  static const Pipeline p = netlist::build_pipeline({});
  return p;
}

const timing::VariationModel& shared_vm() {
  static const timing::VariationModel vm(shared_pipeline().netlist, {});
  return vm;
}

isa::Instruction make(Opcode op, int rd = 0, int rs1 = 0, int rs2 = 0, int imm = 0) {
  isa::Instruction i;
  i.op = op;
  i.rd = static_cast<std::uint8_t>(rd);
  i.rs1 = static_cast<std::uint8_t>(rs1);
  i.rs2 = static_cast<std::uint8_t>(rs2);
  i.imm = imm;
  return i;
}

TEST(DtsGaussian, MinOfDominatedPairIsTheWorse) {
  DtsGaussian a{{100.0, 5.0}, 3.0};
  DtsGaussian b{{500.0, 5.0}, 3.0};
  const DtsGaussian m = dts_min(a, b);
  EXPECT_NEAR(m.slack.mean, 100.0, 0.5);
}

TEST(DtsGaussian, GlobalCorrelationTightensMin) {
  // With full global correlation the min of two equal Gaussians stays at
  // the common mean; independent ones dip below it.
  DtsGaussian corr{{100.0, 10.0}, 10.0};
  DtsGaussian indep{{100.0, 10.0}, 0.0};
  const double m_corr = dts_min(corr, corr).slack.mean;
  const double m_indep = dts_min(indep, indep).slack.mean;
  EXPECT_GT(m_corr, m_indep);
  EXPECT_NEAR(m_corr, 100.0, 1e-6);
}

TEST(PipelineDriver, PcFollowsFetchStream) {
  PipelineDriver driver(shared_pipeline());
  std::vector<FetchSlot> slots;
  // Straight-line fetches then a jump to a far target.
  for (int i = 0; i < 8; ++i) slots.push_back(FetchSlot::nop(0x1000 + 4 * i));
  slots.push_back(FetchSlot::nop(0x8000));
  slots.push_back(FetchSlot::nop(0x8004));
  auto cycles = driver.run(slots);
  EXPECT_EQ(cycles.size(), slots.size() + Pipeline::kStages);
}

TEST(PipelineDriver, CycleObserverSeesEveryReturnedCycle) {
  PipelineDriver driver(shared_pipeline());
  std::vector<FetchSlot> slots;
  for (int i = 0; i < 4; ++i) slots.push_back(FetchSlot::nop(4u * static_cast<std::uint32_t>(i)));
  for (std::uint32_t a : {0x3u, 0x0FFFFFFFu, 0xF0F0F0F0u}) {
    isa::InstrDynContext ctx;
    ctx.cur = {a, 1u, isa::ExUnit::kAdder, Opcode::kAdd};
    ctx.pc = 0x100;
    slots.push_back(FetchSlot::from_context(make(Opcode::kAdd, 3, 1, 2), ctx));
  }
  std::vector<std::vector<std::uint8_t>> seen;
  const auto cycles = driver.run(slots, Pipeline::kStages, [&](const sim::LogicSimulator& sim) {
    seen.push_back(sim.activation_flags());
  });
  ASSERT_EQ(seen.size(), cycles.size());
  for (std::size_t t = 0; t < cycles.size(); ++t)
    EXPECT_EQ(seen[t], cycles[t].flags()) << "cycle " << t;
}

TEST(DtsAnalyzer, QuietCycleHasNoStageDts) {
  PipelineDriver driver(shared_pipeline());
  // All-bubble stream: after warmup the pipeline goes quiet.
  std::vector<FetchSlot> slots(20, FetchSlot::nop(0));
  for (std::size_t i = 0; i < slots.size(); ++i) slots[i].pc = 4 * static_cast<std::uint32_t>(i);
  auto cycles = driver.run(slots, 0);
  DtsAnalyzer analyzer(shared_pipeline().netlist, shared_vm(),
                       timing::TimingSpec{1200.0, netlist::kSetupTimePs});
  // Late cycles: the datapath is quiet (operands stopped changing), so the
  // EX stage's data endpoints see no activated paths.
  auto dts = analyzer.stage_dts(3, cycles.back(), EndpointClass::kData);
  EXPECT_FALSE(dts.has_value());
}

TEST(DtsAnalyzer, LongCarryChainLowersDts) {
  PipelineDriver driver(shared_pipeline());
  DtsAnalyzer analyzer(shared_pipeline().netlist, shared_vm(),
                       timing::TimingSpec{1200.0, netlist::kSetupTimePs});

  auto measure = [&](std::uint32_t a, std::uint32_t b) {
    std::vector<FetchSlot> slots;
    for (int i = 0; i < 6; ++i) slots.push_back(FetchSlot::nop(4u * static_cast<std::uint32_t>(i)));
    isa::InstrDynContext ctx;
    ctx.cur = {a, b, isa::ExUnit::kAdder, Opcode::kAdd};
    ctx.pc = 0x100;
    slots.push_back(FetchSlot::from_context(make(Opcode::kAdd, 3, 1, 2), ctx));
    auto cycles = driver.run(slots);
    auto dts = analyzer.stage_dts(3, cycles[slots.size() - 1 + 3], EndpointClass::kData);
    EXPECT_TRUE(dts.has_value());
    return dts->slack.mean;
  };

  const double short_chain = measure(0x1u, 0x1u);          // 2-bit carry
  const double long_chain = measure(0xFFFFFFFFu, 0x1u);    // full ripple
  EXPECT_LT(long_chain, short_chain - 100.0);
}

TEST(DtsAnalyzer, DeterministicDtsMatchesGaussianMeanClosely) {
  PipelineDriver driver(shared_pipeline());
  const timing::TimingSpec spec{1200.0, netlist::kSetupTimePs};
  DtsAnalyzer analyzer(shared_pipeline().netlist, shared_vm(), spec);
  std::vector<FetchSlot> slots;
  for (int i = 0; i < 6; ++i) slots.push_back(FetchSlot::nop(4u * static_cast<std::uint32_t>(i)));
  isa::InstrDynContext ctx;
  ctx.cur = {0x0FFFFFFFu, 0x1u, isa::ExUnit::kAdder, Opcode::kAdd};
  ctx.pc = 0x100;
  slots.push_back(FetchSlot::from_context(make(Opcode::kAdd, 3, 1, 2), ctx));
  auto cycles = driver.run(slots);
  auto& cyc = cycles[slots.size() - 1 + 3];
  auto ssta = analyzer.stage_dts(3, cyc, EndpointClass::kData);
  auto det = analyzer.stage_dts_deterministic(3, cyc.flags(), EndpointClass::kData);
  ASSERT_TRUE(ssta.has_value());
  ASSERT_TRUE(det.has_value());
  // The statistical min sits at or below the deterministic nominal slack.
  EXPECT_LE(ssta->slack.mean, *det + 1.0);
  EXPECT_GT(ssta->slack.mean, *det - 6.0 * ssta->slack.sd);
}

TEST(DatapathModel, ChainLengthSemantics) {
  const ExContext bubble{};
  ExContext add1{(1u << 12) - 1u, 1u, isa::ExUnit::kAdder, Opcode::kAdd};
  const int l1 = DatapathModel::adder_chain_length(add1, bubble);
  EXPECT_GE(l1, 12);
  // Identical contexts: nothing toggles.
  EXPECT_EQ(DatapathModel::adder_chain_length(add1, add1), -1);
  // Small change: short chain.
  ExContext add2{1u, 1u, isa::ExUnit::kAdder, Opcode::kAdd};
  const int l2 = DatapathModel::adder_chain_length(add2, bubble);
  EXPECT_LT(l2, l1);
}

/// Bit-serial reference for DatapathModel::adder_chain_length: ripple the
/// carry through 32 full adders for both contexts (subtracts invert B and
/// set the carry-in) and measure the longest run of toggled carries.
int serial_chain_length(const ExContext& cur, const ExContext& prev) {
  struct AdderInputs {
    std::uint32_t a, b, cin;
    bool operator==(const AdderInputs&) const = default;
  };
  auto inputs = [](const ExContext& cx) {
    const bool sub = cx.op == Opcode::kSub || cx.op == Opcode::kSubi;
    return AdderInputs{cx.a, sub ? ~cx.b : cx.b, sub ? 1u : 0u};
  };
  auto carries = [](const AdderInputs& in) {
    std::array<bool, 32> c{};
    std::uint32_t carry = in.cin;
    for (int i = 0; i < 32; ++i) {
      const std::uint32_t ai = (in.a >> i) & 1u;
      const std::uint32_t bi = (in.b >> i) & 1u;
      carry = (ai & bi) | (carry & (ai ^ bi));
      c[static_cast<std::size_t>(i)] = carry != 0;
    }
    return c;
  };
  const AdderInputs x = inputs(cur);
  const AdderInputs y = inputs(prev);
  if (x == y) return -1;
  const auto cx = carries(x);
  const auto cy = carries(y);
  int best = 0;
  int run = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    run = cx[i] != cy[i] ? run + 1 : 0;
    best = std::max(best, run);
  }
  return best == 0 ? 1 : best + 1;
}

TEST(DatapathModel, ChainLengthMatchesBitSerialCarryRipple) {
  constexpr std::array<Opcode, 4> kOps = {Opcode::kAdd, Opcode::kSub, Opcode::kLd, Opcode::kSt};
  auto adder = [](std::uint32_t a, std::uint32_t b, Opcode op) {
    return ExContext{a, b, isa::ExUnit::kAdder, op};
  };
  const ExContext bubble{};

  // Edge cases: a full 32-bit carry ripple (the longest chain, 33), a
  // subtract borrowing through every bit, identical operands (nothing
  // toggles) and equal adder inputs reached through add vs. subtract.
  EXPECT_EQ(DatapathModel::adder_chain_length(adder(0xFFFFFFFFu, 1u, Opcode::kAdd), bubble), 33);
  EXPECT_EQ(DatapathModel::adder_chain_length(adder(0u, 0u, Opcode::kSub), bubble), 33);
  EXPECT_EQ(DatapathModel::adder_chain_length(adder(0u, 1u, Opcode::kSub), bubble), 1);
  for (const Opcode op : kOps) {
    const ExContext cx = adder(0x12345678u, 0x9ABCDEF0u, op);
    EXPECT_EQ(DatapathModel::adder_chain_length(cx, cx), -1);
  }
  const std::vector<std::pair<ExContext, ExContext>> edges = {
      {adder(0xFFFFFFFFu, 1u, Opcode::kAdd), adder(0xFFFFFFFFu, 0u, Opcode::kAdd)},
      {adder(0xFFFFFFFFu, 1u, Opcode::kAdd), adder(0xFFFFFFFEu, 1u, Opcode::kAdd)},
      {adder(0x80000000u, 1u, Opcode::kSub), adder(0x80000000u, 0u, Opcode::kSub)},
      {adder(0u, 0xFFFFFFFFu, Opcode::kSub), bubble},
      {adder(5u, 0xFFFFFFFAu, Opcode::kSub), adder(5u, 5u, Opcode::kAdd)},
      {adder(0x7FFFFFFFu, 0x7FFFFFFFu, Opcode::kLd), adder(0u, 0u, Opcode::kSt)},
  };
  for (const auto& [cur, prev] : edges)
    EXPECT_EQ(DatapathModel::adder_chain_length(cur, prev), serial_chain_length(cur, prev));

  // Random operand pairs in add / sub / ld / st contexts.  Half the
  // operands are shaped (low-bit masks, near-negations, small values) so
  // long chains are as common as short ones.
  support::Rng rng(2026);
  auto operand = [&rng]() -> std::uint32_t {
    const auto r = static_cast<std::uint32_t>(rng.next_u64());
    switch (rng.next_u64() % 6) {
      case 0:
        return r >> (r & 31u);
      case 1:
        return ~(r >> (r & 31u));
      case 2:
        return r & 0xFFu;
      default:
        return r;
    }
  };
  std::size_t mismatches = 0;
  int longest = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const ExContext prev = adder(operand(), operand(), kOps[rng.next_u64() % kOps.size()]);
    ExContext cur = adder(operand(), operand(), kOps[rng.next_u64() % kOps.size()]);
    if (i % 8 == 0) cur.a = prev.a;  // one operand unchanged
    const int got = DatapathModel::adder_chain_length(cur, prev);
    if (got != serial_chain_length(cur, prev) && mismatches++ < 5)
      ADD_FAILURE() << std::hex << "cur " << cur.a << " " << cur.b << " prev " << prev.a << " "
                    << prev.b << ": " << std::dec << got;
    longest = std::max(longest, got);
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(longest, 33);
}

class DatapathModelFixture : public ::testing::Test {
 protected:
  static const DatapathModel& model() {
    static const DatapathModel m =
        DatapathModel::train(shared_pipeline(), shared_vm());
    return m;
  }
};

TEST_F(DatapathModelFixture, AdderDelayGrowsWithChainLength) {
  const auto& lin = model().adder_mean();
  EXPECT_GT(lin.per_unit, 10.0);  // each full-adder stage adds real delay
  EXPECT_GT(lin.at(32), lin.at(4) + 400.0);
}

TEST_F(DatapathModelFixture, PredictionTracksGateLevelMeasurement) {
  // Measure a chain length the training sweep did not use directly.
  PipelineDriver driver(shared_pipeline());
  const timing::TimingSpec spec{10000.0, netlist::kSetupTimePs};
  DtsAnalyzer analyzer(shared_pipeline().netlist, shared_vm(), spec);
  std::vector<FetchSlot> slots;
  for (int i = 0; i < 6; ++i) slots.push_back(FetchSlot::nop(4u * static_cast<std::uint32_t>(i)));
  const std::uint32_t a = (1u << 21) - 1u;
  isa::InstrDynContext ctx;
  ctx.cur = {a, 1u, isa::ExUnit::kAdder, Opcode::kAdd};
  ctx.pc = 0x100;
  slots.push_back(FetchSlot::from_context(make(Opcode::kAdd, 3, 1, 2), ctx));
  auto cycles = driver.run(slots);
  auto dts = analyzer.stage_dts(3, cycles[slots.size() - 1 + 3], EndpointClass::kData);
  ASSERT_TRUE(dts.has_value());
  const double measured_arrival = spec.period_ps - spec.setup_ps - dts->slack.mean;

  const ExContext bubble{};
  auto predicted = model().ex_arrival(ctx.cur, bubble);
  ASSERT_TRUE(predicted.has_value());
  EXPECT_NEAR(predicted->slack.mean, measured_arrival, 0.12 * measured_arrival);
}

TEST_F(DatapathModelFixture, FlushEmulationChangesErrorProbability) {
  // An instruction whose operands equal its predecessor's: after correct
  // execution nothing toggles (no error possible), after a flush the
  // bubble forces toggling.
  ExContext cur{0xFFFFFFu, 1u, isa::ExUnit::kAdder, Opcode::kAdd};
  ExContext prev = cur;
  EXPECT_FALSE(model().ex_arrival(cur, prev).has_value());
  const ExContext bubble{};
  EXPECT_TRUE(model().ex_arrival(cur, bubble).has_value());
}

TEST_F(DatapathModelFixture, SlackConversionUsesSpec) {
  ExContext cur{0xFFFFu, 1u, isa::ExUnit::kAdder, Opcode::kAdd};
  const ExContext bubble{};
  const timing::TimingSpec fast{800.0, netlist::kSetupTimePs};
  const timing::TimingSpec slow{2000.0, netlist::kSetupTimePs};
  auto s_fast = model().ex_slack(cur, bubble, fast);
  auto s_slow = model().ex_slack(cur, bubble, slow);
  ASSERT_TRUE(s_fast.has_value() && s_slow.has_value());
  EXPECT_NEAR(s_slow->slack.mean - s_fast->slack.mean, 1200.0, 1e-6);
}

TEST(ControlCharacterizer, CharacterizesLoopProgram) {
  // Build the counted loop from the ISA tests and characterise it.
  isa::Program p("loop");
  isa::BasicBlock b0;
  b0.instructions = {make(Opcode::kMovi, 1, 0, 0, 5), make(Opcode::kMovi, 2, 0, 0, 0)};
  isa::BasicBlock b1;
  b1.instructions = {make(Opcode::kAddi, 2, 2, 0, 3), make(Opcode::kSubi, 1, 1, 0, 1),
                     make(Opcode::kBne, 0, 1, 0)};
  isa::BasicBlock b2;
  b2.instructions = {make(Opcode::kSt, 0, 0, 2, 16)};
  p.add_block(b0);
  p.add_block(b1);
  p.add_block(b2);
  p.block(0).fallthrough = 1;
  p.block(1).taken = 1;
  p.block(1).fallthrough = 2;
  p.set_entry(0);
  const isa::Cfg cfg(p);
  isa::Executor ex(p, cfg);
  ex.run({});

  ControlCharacterizer cc(shared_pipeline(), shared_vm(),
                          timing::TimingSpec{1200.0, netlist::kSetupTimePs});
  auto result = cc.characterize(p, cfg, ex.profile());
  ASSERT_EQ(result.size(), 3u);
  // The loop body's self-edge was traversed; its instructions must have
  // control DTS values, and they must be plausibly positive at this clock.
  bool any = false;
  for (const auto& edge : result[1].per_edge) {
    for (const auto& d : edge.instr) {
      if (d.has_value()) {
        any = true;
        EXPECT_GT(d->slack.mean, -500.0);
        EXPECT_LT(d->slack.mean, 1200.0);
        EXPECT_GT(d->slack.sd, 0.0);
      }
    }
  }
  EXPECT_TRUE(any);
  // Unexecuted entry characterisations of non-entry blocks are empty.
  for (const auto& d : result[1].entry.instr) EXPECT_FALSE(d.has_value());
}

TEST(ControlCharacterizer, DpMemoKeysDoNotAliasAcrossEndpoints) {
  // The DP-fallback memo once seeded its key with endpoint ^ D input, so
  // endpoint pairs such as 1965/1921 and 1961/1925 shared keys and evicted
  // each other's paths; a serial patricia characterisation hit that
  // hundreds of times.
  const auto& specs = workloads::mibench_specs();
  const auto spec = std::find_if(specs.begin(), specs.end(), [](const workloads::WorkloadSpec& s) {
    return s.name == "patricia";
  });
  ASSERT_NE(spec, specs.end());
  const isa::Program program = workloads::generate_program(*spec);
  const isa::Cfg cfg(program);
  isa::Executor ex(program, cfg, workloads::executor_config_for(*spec, 4));
  for (const auto& in : workloads::generate_inputs(*spec, 4, 2026)) ex.run(in);

  obs::Counter& fallbacks = obs::MetricsRegistry::instance().counter("dta.dp_fallbacks");
  obs::Counter& collisions = obs::MetricsRegistry::instance().counter("dta.dp_cache_collisions");
  const std::uint64_t fallbacks_before = fallbacks.value();
  const std::uint64_t collisions_before = collisions.value();
  const std::size_t threads = support::global_threads();
  support::set_global_threads(1);  // one analyzer, so one memo sees every query
  ControlCharacterizer cc(shared_pipeline(), shared_vm(), timing::TimingSpec{1300.0});
  (void)cc.characterize(program, cfg, ex.profile());
  support::set_global_threads(threads);
  EXPECT_GT(fallbacks.value() - fallbacks_before, 10000u);
  EXPECT_EQ(collisions.value() - collisions_before, 0u);
}

TEST(GraphDta, AggregatesWorstArrivals) {
  PipelineDriver driver(shared_pipeline());
  std::vector<FetchSlot> slots;
  for (int i = 0; i < 6; ++i) slots.push_back(FetchSlot::nop(4u * static_cast<std::uint32_t>(i)));
  // Two adds with very different carry chains.
  for (std::uint32_t a : {0x3u, 0x0FFFFFFFu}) {
    isa::InstrDynContext ctx;
    ctx.cur = {a, 1u, isa::ExUnit::kAdder, Opcode::kAdd};
    ctx.pc = 0x100;
    slots.push_back(FetchSlot::from_context(make(Opcode::kAdd, 3, 1, 2), ctx));
  }
  auto cycles = driver.run(slots);
  GraphDta graph(shared_pipeline().netlist);
  for (auto& c : cycles) graph.observe(c);
  EXPECT_EQ(graph.cycles_observed(), cycles.size());
  // The long-chain add dominates the design-wide worst arrival.
  EXPECT_GT(graph.worst_arrival(), 800.0);
  // N-worst lists are sorted descending.
  const auto e = shared_pipeline().taps.cc_reg[2];
  const auto& worst = graph.worst_arrivals(e);
  for (std::size_t i = 1; i < worst.size(); ++i) EXPECT_LE(worst[i], worst[i - 1]);
  // Error-free frequency is below the frequency implied by the worst
  // observed arrival without margin.
  const double f = graph.error_free_frequency_mhz(netlist::kSetupTimePs, 1.05);
  EXPECT_LT(f, 1.0e6 / (graph.worst_arrival() + netlist::kSetupTimePs));
}

TEST(GraphDta, ErrorFreePointIsSafeForObservedActivity) {
  PipelineDriver driver(shared_pipeline());
  std::vector<FetchSlot> slots;
  support::Rng rng(17);
  for (int i = 0; i < 6; ++i) slots.push_back(FetchSlot::nop(4u * static_cast<std::uint32_t>(i)));
  for (int i = 0; i < 20; ++i) {
    isa::InstrDynContext ctx;
    ctx.cur = {static_cast<std::uint32_t>(rng.next_u64()), static_cast<std::uint32_t>(rng.next_u64()),
               isa::ExUnit::kAdder, Opcode::kAdd};
    ctx.pc = 0x100 + 4u * static_cast<std::uint32_t>(i);
    slots.push_back(FetchSlot::from_context(make(Opcode::kAdd, 3, 1, 2), ctx));
  }
  auto cycles = driver.run(slots);
  GraphDta graph(shared_pipeline().netlist);
  for (auto& c : cycles) graph.observe(c);
  const double f = graph.error_free_frequency_mhz();
  const timing::TimingSpec spec = timing::TimingSpec::from_frequency_mhz(f);
  // Deterministic DTS of every observed cycle is non-negative at f.
  DtsAnalyzer analyzer(shared_pipeline().netlist, shared_vm(), spec);
  for (auto& c : cycles) {
    for (std::uint8_t s = 0; s < Pipeline::kStages; ++s) {
      const auto dts = analyzer.stage_dts_deterministic(s, c.flags(), EndpointClass::kNone);
      if (dts.has_value()) {
        EXPECT_GE(*dts, -1e-6);
      }
    }
  }
}

TEST(GraphDta, RequiresObservationBeforeFrequency) {
  GraphDta graph(shared_pipeline().netlist);
  EXPECT_THROW((void)graph.error_free_frequency_mhz(), std::invalid_argument);
}

}  // namespace
}  // namespace terrors::dta
