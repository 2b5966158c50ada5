#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/error_model.hpp"
#include "core/estimator.hpp"
#include "core/framework.hpp"
#include "core/marginal.hpp"
#include "core/monte_carlo.hpp"
#include "isa/cfg.hpp"
#include "isa/executor.hpp"
#include "netlist/pipeline.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"
#include "workloads/generator.hpp"

namespace terrors::core {
namespace {

using isa::BlockId;
using isa::Opcode;

isa::Instruction make(Opcode op, int rd = 0, int rs1 = 0, int rs2 = 0, int imm = 0) {
  isa::Instruction i;
  i.op = op;
  i.rd = static_cast<std::uint8_t>(rd);
  i.rs1 = static_cast<std::uint8_t>(rs1);
  i.rs2 = static_cast<std::uint8_t>(rs2);
  i.imm = imm;
  return i;
}

// --- solve_dense -------------------------------------------------------------

TEST(SolveDense, SolvesKnownSystem) {
  // [2 1; 1 3] x = [5; 10] -> x = (1, 3).
  const auto x = solve_dense({2, 1, 1, 3}, {5, 10});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveDense, PivotsOnZeroDiagonal) {
  // [0 1; 1 0] x = [2; 3] -> x = (3, 2).
  const auto x = solve_dense({0, 1, 1, 0}, {2, 3});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SolveDense, RejectsSingular) {
  EXPECT_THROW(solve_dense({1, 2, 2, 4}, {1, 2}), std::invalid_argument);
}

TEST(SolveDense, SolvesUniformlyScaledDownSystem) {
  // A well-conditioned system scaled by 1e-15 is still uniquely solvable;
  // an absolute pivot threshold would reject every pivot as "singular".
  const double s = 1e-15;
  const auto x = solve_dense({2 * s, 1 * s, 1 * s, 3 * s}, {5 * s, 10 * s});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 3.0, 1e-9);
}

TEST(SolveDense, StillRejectsScaledSingular) {
  const double s = 1e-15;
  EXPECT_THROW(solve_dense({1 * s, 2 * s, 2 * s, 4 * s}, {s, 2 * s}),
               std::invalid_argument);
}

TEST(SolveDense, RandomRoundTrip) {
  support::Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(6);
    std::vector<double> a(n * n);
    std::vector<double> x_true(n);
    for (auto& v : a) v = rng.uniform(-1.0, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      a[i * n + i] += 3.0;  // diagonally dominant => nonsingular
      x_true[i] = rng.uniform(-5.0, 5.0);
    }
    std::vector<double> b(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) b[i] += a[i * n + j] * x_true[j];
    const auto x = solve_dense(a, b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
  }
}

// --- Marginal solver on a hand-built program ----------------------------------

/// Straight-line program: B0 -> B1 (exit).  One instruction each.
struct StraightFixture {
  isa::Program p{"straight"};
  StraightFixture() {
    isa::BasicBlock b0;
    b0.instructions = {make(Opcode::kAddi, 8, 8, 0, 1)};
    isa::BasicBlock b1;
    b1.instructions = {make(Opcode::kAddi, 9, 9, 0, 1)};
    p.add_block(b0);
    p.add_block(b1);
    p.block(0).fallthrough = 1;
    p.set_entry(0);
    p.validate();
  }
};

std::vector<BlockErrorDistributions> constant_conditionals(const isa::Program& p, double pc,
                                                           double pe, std::size_t m = 4) {
  std::vector<BlockErrorDistributions> cond(p.block_count());
  for (BlockId b = 0; b < p.block_count(); ++b) {
    cond[b].executed = true;
    cond[b].instr.resize(p.block(b).size());
    for (auto& d : cond[b].instr) {
      d.p_correct = stat::Samples(m, pc);
      d.p_error = stat::Samples(m, pe);
    }
  }
  return cond;
}

TEST(MarginalSolver, StraightLineRecurrence) {
  StraightFixture f;
  const isa::Cfg cfg(f.p);
  isa::Executor ex(f.p, cfg);
  ex.run({});
  const double pc = 0.01;
  const double pe = 0.3;
  const auto cond = constant_conditionals(f.p, pc, pe);
  const MarginalSolver solver(f.p, cfg, ex.profile());
  const auto marg = solver.solve(cond);

  // Entry: flushed state p_in = 1 (Eq. 2 with the entry pseudo-edge).
  EXPECT_NEAR(marg[0].p_in[0], 1.0, 1e-12);
  // First instruction: p = pe * 1 + pc * 0 = pe.
  EXPECT_NEAR(marg[0].instr[0][0], pe, 1e-12);
  // B1's input is B0's output.
  EXPECT_NEAR(marg[1].p_in[0], pe, 1e-12);
  // Second instruction: pe * pe + pc * (1 - pe).
  EXPECT_NEAR(marg[1].instr[0][0], pe * pe + pc * (1.0 - pe), 1e-12);
}

/// Self-loop program: B0 -> B1 (loops N-1 times) -> B2.
struct LoopFixture {
  isa::Program p{"loop"};
  LoopFixture() {
    isa::BasicBlock b0;
    b0.instructions = {make(Opcode::kMovi, 1, 0, 0, 4)};
    isa::BasicBlock b1;
    b1.instructions = {make(Opcode::kSubi, 1, 1, 0, 1), make(Opcode::kBne, 0, 1, 0)};
    isa::BasicBlock b2;
    b2.instructions = {make(Opcode::kNop)};
    p.add_block(b0);
    p.add_block(b1);
    p.add_block(b2);
    p.block(0).fallthrough = 1;
    p.block(1).taken = 1;
    p.block(1).fallthrough = 2;
    p.set_entry(0);
    p.validate();
  }
};

TEST(MarginalSolver, LoopFixedPointSatisfiesEquations) {
  LoopFixture f;
  const isa::Cfg cfg(f.p);
  isa::Executor ex(f.p, cfg);
  ex.run({});
  const double pc = 0.02;
  const double pe = 0.4;
  const auto cond = constant_conditionals(f.p, pc, pe);
  const MarginalSolver solver(f.p, cfg, ex.profile());
  const auto marg = solver.solve(cond);

  // Verify Eq. (2) at the loop header: p_in(B1) = w_fall * out(B0) +
  // w_back * out(B1) with the measured activation probabilities.
  const auto& preds = cfg.predecessors(1);
  double expected = 0.0;
  for (std::size_t j = 0; j < preds.size(); ++j) {
    const double w = ex.profile().edge_activation(1, j);
    const BlockId t = preds[j].from;
    const double out_t = marg[t].instr.back()[0];
    expected += w * out_t;
  }
  EXPECT_NEAR(marg[1].p_in[0], expected, 1e-9);

  // All probabilities are valid.
  for (const auto& bm : marg) {
    for (const auto& instr : bm.instr) {
      for (std::size_t w = 0; w < instr.size(); ++w) {
        EXPECT_GE(instr[w], 0.0);
        EXPECT_LE(instr[w], 1.0);
      }
    }
  }
}

TEST(MarginalSolver, ReplaySchemeCollapsesToPc) {
  // With p^e == p^c the marginal equals p^c everywhere (Eq. 1 degenerates).
  LoopFixture f;
  const isa::Cfg cfg(f.p);
  isa::Executor ex(f.p, cfg);
  ex.run({});
  const double pc = 0.05;
  const auto cond = constant_conditionals(f.p, pc, pc);
  const MarginalSolver solver(f.p, cfg, ex.profile());
  const auto marg = solver.solve(cond);
  for (const auto& bm : marg) {
    if (!bm.executed) continue;
    for (const auto& instr : bm.instr) EXPECT_NEAR(instr[0], pc, 1e-12);
  }
}

// --- Estimator -----------------------------------------------------------------

TEST(Estimator, LambdaMatchesHandComputation) {
  StraightFixture f;
  const isa::Cfg cfg(f.p);
  isa::Executor ex(f.p, cfg);
  ex.run({});
  const double pc = 0.01;
  const double pe = 0.3;
  const auto cond = constant_conditionals(f.p, pc, pe);
  const MarginalSolver solver(f.p, cfg, ex.profile());
  const auto marg = solver.solve(cond);
  EstimatorInputs in;
  in.program = &f.p;
  in.profile = &ex.profile();
  in.conditionals = &cond;
  in.marginals = &marg;
  const auto est = estimate_error_rate(in);
  const double p1 = pe;
  const double p2 = pe * pe + pc * (1.0 - pe);
  EXPECT_NEAR(est.lambda.mean, p1 + p2, 1e-9);
  EXPECT_EQ(est.total_instructions, 2u);
  EXPECT_NEAR(est.rate_mean(), (p1 + p2) / 2.0, 1e-9);
  // Constant conditionals: no data variation at all.
  EXPECT_NEAR(est.lambda.sd, 0.0, 1e-12);
}

TEST(Estimator, ExecutionScaleExtrapolates) {
  StraightFixture f;
  const isa::Cfg cfg(f.p);
  isa::Executor ex(f.p, cfg);
  ex.run({});
  const auto cond = constant_conditionals(f.p, 0.01, 0.2);
  const MarginalSolver solver(f.p, cfg, ex.profile());
  const auto marg = solver.solve(cond);
  EstimatorInputs in;
  in.program = &f.p;
  in.profile = &ex.profile();
  in.conditionals = &cond;
  in.marginals = &marg;
  in.execution_scale = 50.0;  // keep lambda > 1 so min{1, 1/lambda} = 1/lambda
  const auto base = estimate_error_rate(in);
  in.execution_scale = 50000.0;
  const auto scaled = estimate_error_rate(in);
  EXPECT_NEAR(scaled.lambda.mean, 1000.0 * base.lambda.mean, 1e-4 * scaled.lambda.mean);
  EXPECT_NEAR(scaled.rate_mean(), base.rate_mean(), 1e-12);
  // With lambda > 1 on both sides the Chen-Stein ratio (b1+b2)/lambda is
  // scale-invariant.
  EXPECT_NEAR(scaled.dk_count, base.dk_count, 1e-9);
}

TEST(Estimator, RateCdfIsMonotoneAndBracketedByBounds) {
  StraightFixture f;
  const isa::Cfg cfg(f.p);
  isa::Executor ex(f.p, cfg);
  ex.run({});
  // Add data variation so lambda has spread.
  auto cond = constant_conditionals(f.p, 0.01, 0.3, 8);
  for (auto& bd : cond) {
    for (auto& d : bd.instr) {
      for (std::size_t w = 0; w < d.p_correct.size(); ++w)
        d.p_correct[w] = 0.005 + 0.002 * static_cast<double>(w);
    }
  }
  const MarginalSolver solver(f.p, cfg, ex.profile());
  const auto marg = solver.solve(cond);
  EstimatorInputs in;
  in.program = &f.p;
  in.profile = &ex.profile();
  in.conditionals = &cond;
  in.marginals = &marg;
  in.execution_scale = 1e6;  // large-count regime
  const auto est = estimate_error_rate(in);

  double prev = -1.0;
  for (double r = 0.0; r <= 0.02; r += 0.001) {
    const double c = est.rate_cdf(r);
    EXPECT_GE(c, prev - 1e-12);
    prev = c;
    EXPECT_LE(est.rate_cdf_lower(r), c + 1e-9);
    EXPECT_GE(est.rate_cdf_upper(r), c - 1e-9);
  }
}

TEST(Estimator, ChenSteinRadiusExtensionIsLooserOrEqual) {
  LoopFixture f;
  const isa::Cfg cfg(f.p);
  isa::Executor ex(f.p, cfg);
  ex.run({});
  const auto cond = constant_conditionals(f.p, 0.02, 0.5);
  const MarginalSolver solver(f.p, cfg, ex.profile());
  const auto marg = solver.solve(cond);
  EstimatorInputs in;
  in.program = &f.p;
  in.profile = &ex.profile();
  in.conditionals = &cond;
  in.marginals = &marg;
  in.execution_scale = 100.0;
  in.chen_stein_radius = 1;
  const auto r1 = estimate_error_rate(in);
  in.chen_stein_radius = 4;
  const auto r4 = estimate_error_rate(in);
  // Growing the neighbourhood only adds non-negative terms.
  EXPECT_GE(r4.dk_count, r1.dk_count - 1e-12);
  EXPECT_GT(r1.dk_count, 0.0);
  EXPECT_LE(r4.dk_count, 1.0);
}

// --- Monte Carlo ----------------------------------------------------------------

TEST(MonteCarlo, MatchesAnalyticMeanOnStraightLine) {
  StraightFixture f;
  const isa::Cfg cfg(f.p);
  isa::ExecutorConfig ecfg;
  ecfg.record_block_trace = true;
  isa::Executor ex(f.p, cfg, ecfg);
  ex.run({});
  const double pc = 0.05;
  const double pe = 0.5;
  const auto cond = constant_conditionals(f.p, pc, pe);
  support::Rng rng(7);
  const auto counts = monte_carlo_error_counts(ex.profile(), cond, 200000, rng);
  double mean = 0.0;
  for (auto c : counts) mean += static_cast<double>(c);
  mean /= static_cast<double>(counts.size());
  const double p1 = pe;  // flushed entry
  const double p2 = pe * p1 + pc * (1.0 - p1);
  EXPECT_NEAR(mean, p1 + p2, 0.01);
}

TEST(MonteCarlo, RequiresTrace) {
  StraightFixture f;
  const isa::Cfg cfg(f.p);
  isa::Executor ex(f.p, cfg);  // no trace recording
  ex.run({});
  const auto cond = constant_conditionals(f.p, 0.1, 0.1);
  support::Rng rng(1);
  EXPECT_THROW(monte_carlo_error_counts(ex.profile(), cond, 10, rng), std::invalid_argument);
}

TEST(MonteCarlo, EmpiricalCdfBasics) {
  const std::vector<std::uint64_t> counts = {0, 1, 1, 2, 5};
  EXPECT_NEAR(empirical_cdf(counts, 0), 0.2, 1e-12);
  EXPECT_NEAR(empirical_cdf(counts, 1), 0.6, 1e-12);
  EXPECT_NEAR(empirical_cdf(counts, 5), 1.0, 1e-12);
}

// --- Full framework (integration smoke) -------------------------------------------

class FrameworkFixture : public ::testing::Test {
 protected:
  static const netlist::Pipeline& pipeline() {
    static const netlist::Pipeline p = netlist::build_pipeline({});
    return p;
  }
};

TEST_F(FrameworkFixture, EndToEndLoopProgram) {
  LoopFixture f;
  FrameworkConfig cfg;
  cfg.spec = timing::TimingSpec{1300.0};
  ErrorRateFramework fw(pipeline(), cfg);
  const auto result = fw.analyze(f.p, {isa::ProgramInput{}});
  EXPECT_EQ(result.basic_blocks, 3u);
  EXPECT_GT(result.instructions, 0u);
  EXPECT_GE(result.estimate.rate_mean(), 0.0);
  EXPECT_LE(result.estimate.rate_mean(), 1.0);
  EXPECT_GE(result.estimate.dk_count, 0.0);
  EXPECT_LE(result.estimate.dk_count, 1.0);
  // Artifacts populated.
  EXPECT_EQ(fw.last().conditionals.size(), 3u);
  EXPECT_EQ(fw.last().marginals.size(), 3u);
}

TEST_F(FrameworkFixture, HigherFrequencyRaisesErrorRate) {
  LoopFixture f;
  FrameworkConfig cfg;
  cfg.spec = timing::TimingSpec{1400.0};
  ErrorRateFramework fw(pipeline(), cfg);
  const double slow = fw.analyze(f.p, {isa::ProgramInput{}}).estimate.rate_mean();
  fw.set_spec(timing::TimingSpec{1000.0});
  const double fast = fw.analyze(f.p, {isa::ProgramInput{}}).estimate.rate_mean();
  EXPECT_GE(fast, slow);
}

TEST_F(FrameworkFixture, DeterministicAcrossRepeats) {
  LoopFixture f;
  FrameworkConfig cfg;
  cfg.spec = timing::TimingSpec{1300.0};
  ErrorRateFramework a(pipeline(), cfg);
  ErrorRateFramework b(pipeline(), cfg);
  const auto ra = a.analyze(f.p, {isa::ProgramInput{}});
  const auto rb = b.analyze(f.p, {isa::ProgramInput{}});
  EXPECT_DOUBLE_EQ(ra.estimate.rate_mean(), rb.estimate.rate_mean());
  EXPECT_DOUBLE_EQ(ra.estimate.dk_count, rb.estimate.dk_count);
}

TEST_F(FrameworkFixture, RejectsNonPositiveOrNonFiniteClockPeriod) {
  FrameworkConfig good;
  good.spec = timing::TimingSpec{1300.0};
  ErrorRateFramework fw(pipeline(), good);
  for (const double period : {0.0, -1300.0, std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()}) {
    FrameworkConfig cfg;
    cfg.spec = timing::TimingSpec{period};
    EXPECT_THROW(ErrorRateFramework(pipeline(), cfg), std::invalid_argument) << period;
    EXPECT_THROW(fw.set_spec(timing::TimingSpec{period}), std::invalid_argument) << period;
  }
  // A rejected set_spec leaves the operating point unchanged.
  EXPECT_EQ(fw.config().spec.period_ps, 1300.0);
}

// --- Instruction error model against its per-slot formula ---------------------

/// Pr(DTS < 0) of one slot, evaluated the direct way: the datapath DTS of
/// the sampled context (a bubble in front after an error under pipeline
/// flush), its statistical minimum with the control DTS, and the normal CDF.
double slot_probability(const dta::DatapathModel& datapath, const timing::TimingSpec& spec,
                        CorrectionScheme scheme, const std::optional<dta::DtsGaussian>& ctrl,
                        const isa::InstrDynContext& ctx, bool prev_errored) {
  isa::ExContext prev = ctx.prev;
  if (prev_errored && scheme == CorrectionScheme::kPipelineFlush) prev = isa::ExContext{};
  const auto data = datapath.ex_slack(ctx.cur, prev, spec);
  std::optional<dta::DtsGaussian> dts;
  if (ctrl.has_value() && data.has_value()) {
    dts = dta::dts_min(*ctrl, *data);
  } else if (ctrl.has_value()) {
    dts = ctrl;
  } else if (data.has_value()) {
    dts = data;
  }
  return dts.has_value() ? dts->slack.prob_below_zero() : 0.0;
}

struct SlotSource {
  const isa::EdgeSamples* samples;
  const dta::EdgeControlDts* control;
  std::size_t slots;  ///< largest-remainder share of the M slots
};

/// An executed block's sources (entry pseudo-edge first, then the traversed
/// incoming edges) with their share of the M slots.
std::vector<SlotSource> slot_sources(const isa::BlockProfile& bp,
                                     const dta::BlockControlDts& control, std::size_t m) {
  std::vector<std::pair<SlotSource, std::uint64_t>> counted;
  if (bp.entry_count > 0)
    counted.push_back({{&bp.entry_samples, &control.entry, 0}, bp.entry_count});
  for (std::size_t j = 0; j < bp.edge_counts.size(); ++j) {
    if (bp.edge_counts[j] > 0)
      counted.push_back({{&bp.edge_samples[j], &control.per_edge[j], 0}, bp.edge_counts[j]});
  }
  std::uint64_t total = 0;
  for (const auto& c : counted) total += c.second;
  std::size_t assigned = 0;
  std::vector<std::pair<double, std::size_t>> remainders;
  for (std::size_t s = 0; s < counted.size(); ++s) {
    const double exact = static_cast<double>(m) * static_cast<double>(counted[s].second) /
                         static_cast<double>(total);
    counted[s].first.slots = static_cast<std::size_t>(exact);
    assigned += counted[s].first.slots;
    remainders.emplace_back(exact - static_cast<double>(counted[s].first.slots), s);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (std::size_t r = 0; assigned < m; ++r, ++assigned)
    ++counted[remainders[r % remainders.size()].second].first.slots;
  std::vector<SlotSource> out;
  for (const auto& c : counted) out.push_back(c.first);
  return out;
}

/// The recorded context of instruction k in a source's a-th slot; nullopt
/// when the reservoir holds none (a sample cut short by the budget guard).
std::optional<isa::InstrDynContext> slot_context(const SlotSource& src, std::size_t a,
                                                 std::size_t k) {
  const auto& dyn = src.samples->samples;
  if (dyn.empty() || k >= dyn[a % dyn.size()].instrs.size()) return std::nullopt;
  return dyn[a % dyn.size()].instrs[k];
}

/// InstructionErrorModel::build evaluated slot by slot.
std::vector<BlockErrorDistributions> oracle_build(
    const dta::DatapathModel& datapath, const timing::TimingSpec& spec,
    const ErrorModelConfig& config, const isa::Program& program,
    const isa::ProgramProfile& profile, const std::vector<dta::BlockControlDts>& control) {
  const std::size_t m = config.mixed_samples;
  std::vector<BlockErrorDistributions> out(program.block_count());
  for (BlockId b = 0; b < program.block_count(); ++b) {
    const isa::BasicBlock& blk = program.block(b);
    out[b].instr.assign(blk.size(), {stat::Samples(m, 0.0), stat::Samples(m, 0.0)});
    if (profile.blocks[b].executions == 0) continue;
    out[b].executed = true;
    std::size_t slot = 0;
    for (const SlotSource& src : slot_sources(profile.blocks[b], control[b], m)) {
      for (std::size_t a = 0; a < src.slots; ++a, ++slot) {
        for (std::size_t k = 0; k < blk.size(); ++k) {
          const std::optional<dta::DtsGaussian> ctrl =
              k < src.control->instr.size() ? src.control->instr[k] : std::nullopt;
          const auto ctx = slot_context(src, a, k);
          if (!ctx.has_value()) {
            isa::InstrDynContext empty;
            empty.cur.op = blk.instructions[k].op;
            empty.cur.unit = isa::ex_unit(blk.instructions[k].op);
            out[b].instr[k].p_correct[slot] =
                ctrl.has_value() ? ctrl->slack.prob_below_zero() : 0.0;
            out[b].instr[k].p_error[slot] =
                slot_probability(datapath, spec, config.scheme, ctrl, empty, true);
            continue;
          }
          out[b].instr[k].p_correct[slot] =
              slot_probability(datapath, spec, config.scheme, ctrl, *ctx, false);
          out[b].instr[k].p_error[slot] =
              slot_probability(datapath, spec, config.scheme, ctrl, *ctx, true);
        }
      }
    }
  }
  return out;
}

/// Distinct (source, instruction, arrival class) triples the slots of a
/// build meet: the most Pr(DTS < 0) evaluations a build needs.
std::size_t distinct_class_triples(const ErrorModelConfig& config, const isa::Program& program,
                                   const isa::ProgramProfile& profile,
                                   const std::vector<dta::BlockControlDts>& control) {
  using dta::DatapathModel;
  std::size_t triples = 0;
  for (BlockId b = 0; b < program.block_count(); ++b) {
    if (profile.blocks[b].executions == 0) continue;
    const isa::BasicBlock& blk = program.block(b);
    const std::size_t m = config.mixed_samples;
    for (const SlotSource& src : slot_sources(profile.blocks[b], control[b], m)) {
      for (std::size_t k = 0; k < blk.size(); ++k) {
        std::set<int> classes;
        for (std::size_t a = 0; a < src.slots; ++a) {
          const auto ctx = slot_context(src, a, k);
          const isa::Opcode op = blk.instructions[k].op;
          const isa::ExContext cur =
              ctx.has_value() ? ctx->cur : isa::ExContext{0, 0, isa::ex_unit(op), op};
          classes.insert(ctx.has_value() ? DatapathModel::arrival_class(cur, ctx->prev)
                                         : DatapathModel::kNoArrival);
          const bool bubble = !ctx.has_value() || config.scheme == CorrectionScheme::kPipelineFlush;
          classes.insert(DatapathModel::arrival_class(cur, bubble ? isa::ExContext{} : ctx->prev));
        }
        triples += classes.size();
      }
    }
  }
  return triples;
}

/// Slots whose p^c or p^e differ in any bit.
std::size_t differing_slots(const std::vector<BlockErrorDistributions>& x,
                            const std::vector<BlockErrorDistributions>& y) {
  std::size_t diff = 0;
  EXPECT_EQ(x.size(), y.size());
  for (std::size_t b = 0; b < std::min(x.size(), y.size()); ++b) {
    EXPECT_EQ(x[b].executed, y[b].executed);
    EXPECT_EQ(x[b].instr.size(), y[b].instr.size());
    for (std::size_t k = 0; k < std::min(x[b].instr.size(), y[b].instr.size()); ++k) {
      for (const auto side :
           {&InstrErrorDistributions::p_correct, &InstrErrorDistributions::p_error}) {
        const stat::Samples& u = x[b].instr[k].*side;
        const stat::Samples& v = y[b].instr[k].*side;
        EXPECT_EQ(u.size(), v.size());
        for (std::size_t i = 0; i < std::min(u.size(), v.size()); ++i) {
          if (std::bit_cast<std::uint64_t>(u[i]) != std::bit_cast<std::uint64_t>(v[i])) ++diff;
        }
      }
    }
  }
  return diff;
}

TEST(InstructionErrorModel, BuildMatchesPerSlotFormulaBitForBit) {
  static const netlist::Pipeline pipeline = netlist::build_pipeline({});
  obs::Counter& clark_calls = obs::MetricsRegistry::instance().counter("stat.clark_min_calls");
  for (const char* name : {"bitcount", "pgp.encode"}) {
    SCOPED_TRACE(name);
    const auto& specs = workloads::mibench_specs();
    const auto spec = std::find_if(specs.begin(), specs.end(), [&](const auto& w) {
      return w.name == name;
    });
    ASSERT_NE(spec, specs.end());
    const isa::Program program = workloads::generate_program(*spec);
    // At 1000 ps the control DTS decides part of the probabilities, so a
    // class table that leaked from one source into the next would show.
    FrameworkConfig cfg;
    cfg.spec = timing::TimingSpec{1000.0};
    cfg.executor = workloads::executor_config_for(*spec, 4);
    ErrorRateFramework fw(pipeline, cfg);
    (void)fw.analyze(program, workloads::generate_inputs(*spec, 4, 2026));
    const auto& last = fw.last();

    // The recorded profile, and a copy whose first sample of every
    // multi-instruction block lacks contexts past its first instruction
    // (what the budget guard leaves behind), for the no-context branch.
    const isa::ProgramProfile& recorded = last.executor->profile();
    isa::ProgramProfile truncated = recorded;
    std::size_t cut = 0;
    auto truncate_first = [&](isa::EdgeSamples& es) {
      if (es.samples.empty() || es.samples[0].instrs.size() < 2) return;
      es.samples[0].instrs.resize(1);
      ++cut;
    };
    for (isa::BlockProfile& bp : truncated.blocks) {
      truncate_first(bp.entry_samples);
      for (isa::EdgeSamples& es : bp.edge_samples) truncate_first(es);
    }
    ASSERT_GT(cut, 0u);

    for (const CorrectionScheme scheme :
         {CorrectionScheme::kPipelineFlush, CorrectionScheme::kReplayWithoutFlush}) {
      SCOPED_TRACE(scheme == CorrectionScheme::kPipelineFlush ? "flush" : "replay");
      ErrorModelConfig config;
      config.scheme = scheme;
      const InstructionErrorModel model(fw.datapath_model(), cfg.spec, config);
      const std::array<const isa::ProgramProfile*, 2> profiles = {&recorded, &truncated};
      for (const isa::ProgramProfile* profile : profiles) {
        const std::uint64_t before = clark_calls.value();
        const auto built = model.build(program, *last.cfg, *profile, last.control);
        const std::uint64_t calls = clark_calls.value() - before;
        const auto expected = oracle_build(fw.datapath_model(), cfg.spec, config, program,
                                           *profile, last.control);
        EXPECT_EQ(differing_slots(built, expected), 0u);
        EXPECT_LE(calls, distinct_class_triples(config, program, *profile, last.control));
      }
    }
  }
}

}  // namespace
}  // namespace terrors::core
