#include "dta/datapath_model.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "dta/pipeline_driver.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/math.hpp"
#include "support/thread_pool.hpp"

namespace terrors::dta {

using isa::ExContext;
using isa::ExUnit;
using isa::Opcode;

namespace {

/// Carry bits c_1..c_w of a + b + cin (bit i of the result holds c_{i+1}):
/// each sum bit is a_i ^ b_i ^ c_i, so XOR-ing the operands back out of the
/// 33-bit sum leaves the carry into every position.
std::uint64_t carry_bits(std::uint32_t a, std::uint32_t b, bool cin) {
  const std::uint64_t sum = std::uint64_t{a} + b + (cin ? 1u : 0u);
  return (a ^ b ^ sum) >> 1;
}

/// Effective adder inputs of an EX context (subtracts invert B and set the
/// carry-in, like the hardware does).
void adder_inputs(const ExContext& cx, std::uint32_t& a, std::uint32_t& b, bool& cin) {
  const bool sub = cx.op == Opcode::kSub || cx.op == Opcode::kSubi;
  a = cx.a;
  b = sub ? ~cx.b : cx.b;
  cin = sub;
}

/// Each step shortens every run of ones by one bit.
int longest_run(std::uint64_t bits) {
  int n = 0;
  while (bits != 0) {
    bits &= bits << 1;
    ++n;
  }
  return n;
}

struct Measurement {
  int length;
  DtsGaussian dts;  ///< arrival form (mean is the activated arrival)
};

DatapathModel::Linear fit_linear(const std::vector<Measurement>& ms,
                                 double (*extract)(const DtsGaussian&)) {
  TE_REQUIRE(!ms.empty(), "no measurements to fit");
  // Least squares y = base + per_unit * L.
  double sx = 0.0;
  double sy = 0.0;
  double sxx = 0.0;
  double sxy = 0.0;
  for (const auto& m : ms) {
    const double x = m.length;
    const double y = extract(m.dts);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double n = static_cast<double>(ms.size());
  const double denom = n * sxx - sx * sx;
  DatapathModel::Linear lin;
  if (std::fabs(denom) < 1e-12) {
    lin.base = sy / n;
    lin.per_unit = 0.0;
  } else {
    lin.per_unit = (n * sxy - sx * sy) / denom;
    lin.base = (sy - lin.per_unit * sx) / n;
  }
  return lin;
}

}  // namespace

int DatapathModel::adder_chain_length(const ExContext& cur, const ExContext& prev) {
  std::uint32_t a1 = 0;
  std::uint32_t b1 = 0;
  bool c1 = false;
  std::uint32_t a0 = 0;
  std::uint32_t b0 = 0;
  bool c0 = false;
  adder_inputs(cur, a1, b1, c1);
  adder_inputs(prev, a0, b0, c0);
  if (a1 == a0 && b1 == b0 && c1 == c0) return -1;  // nothing toggles
  const std::uint64_t toggles = carry_bits(a1, b1, c1) ^ carry_bits(a0, b0, c0);
  const int run = longest_run(toggles);
  // Inputs changed but no carry toggles: local (single full-adder) activity.
  return run == 0 ? 1 : run + 1;
}

DatapathModel DatapathModel::train(const netlist::Pipeline& pipeline,
                                   const timing::VariationModel& vm,
                                   const DtsConfig& dts_config) {
  obs::ScopedSpan span("dta.datapath_train");
  // Counted so the warm-start cache layer can assert how many times
  // training was actually paid.
  static obs::Counter& trainings =
      obs::MetricsRegistry::instance().counter("dta.datapath_trainings");
  trainings.increment();
  // The spec used for training only shifts slack by a constant; we store
  // arrival statistics (period - setup - slack) so it cancels out.
  const timing::TimingSpec spec{10000.0, netlist::kSetupTimePs};

  constexpr std::uint8_t kExStage = 3;

  // One measurement = one short instruction sequence driven through the
  // gate-level pipeline and one EX-stage query.  Results land in slots
  // indexed by (opcode, operand-class) task, and the fits below consume
  // them in fixed declaration order regardless of which worker produced
  // them.
  struct MeasureTask {
    Opcode prev_op;
    std::uint32_t pa, pb;
    Opcode cur_op;
    std::uint32_t ca, cb;
  };
  std::vector<MeasureTask> tasks;
  const std::size_t first_adder = tasks.size();
  for (int len = 2; len <= 32; len += 2) {
    const std::uint32_t a = len >= 32 ? 0xFFFFFFFFu : ((1u << len) - 1u);
    tasks.push_back({Opcode::kAdd, 0, 0, Opcode::kAdd, a, 1u});
  }
  const std::size_t logic_idx = tasks.size();
  tasks.push_back({Opcode::kXor, 0, 0, Opcode::kXor, 0xA5A5A5A5u, 0x5A5A5A5Au});
  const std::size_t shift_idx = tasks.size();
  tasks.push_back({Opcode::kSll, 0, 0, Opcode::kSll, 0xDEADBEEFu, 17u});
  const std::size_t pass_idx = tasks.size();
  tasks.push_back({Opcode::kMovi, 0, 0, Opcode::kMovi, 0, 0x1234u});

  // The measurement streams run as the lanes of one batch over the
  // sequential closure of the EX-stage data endpoints, resumed from the
  // state after the six leading bubbles that every stream shares.  Each
  // lane keeps the flags of its current instruction's EX cycle, the last
  // cycle it runs; the queries then fan out over one analyzer per worker,
  // over a shared enumerator warmed with those endpoints and frozen while
  // they run.
  const netlist::Netlist& nl = pipeline.netlist;
  const netlist::Cone& ex_data = nl.stage_cone(kExStage, netlist::EndpointClass::kData);
  const netlist::Cone closure = nl.sequential_closure(ex_data.endpoints);
  PipelineDriver driver(pipeline, closure);
  std::vector<FetchSlot> bubbles;
  for (std::uint32_t i = 0; i < 6; ++i) bubbles.push_back(FetchSlot::nop(0x2000u + 4u * i));
  const PipelineDriver::Prefix warmup = driver.run_prefix(std::move(bubbles));

  TE_CHECK(tasks.size() <= sim::LogicSimulator::kLanes, "training streams exceed one batch");
  std::vector<std::vector<FetchSlot>> streams(tasks.size(), warmup.slots);
  std::vector<PipelineDriver::Lane> lanes(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const MeasureTask& t = tasks[i];
    std::vector<FetchSlot>& slots = streams[i];
    std::uint32_t pc = 0x2000u + 4u * static_cast<std::uint32_t>(slots.size());
    auto append = [&](Opcode op, std::uint32_t a, std::uint32_t b) {
      isa::Instruction inst;
      inst.op = op;
      isa::InstrDynContext ctx;
      ctx.cur = {a, b, isa::ex_unit(op), op};
      ctx.pc = pc;
      slots.push_back(FetchSlot::from_context(inst, ctx));
      pc += 4;
    };
    append(t.prev_op, t.pa, t.pb);
    append(t.cur_op, t.ca, t.cb);
    lanes[i] = {&slots, slots.size() + kExStage};
  }
  std::vector<std::vector<std::uint8_t>> ex_flags(tasks.size(),
                                                  std::vector<std::uint8_t>(nl.size()));
  driver.run_lanes(warmup, lanes, [&](const sim::LogicSimulator& sim, std::size_t cycle) {
    for (std::size_t i = 0; i < lanes.size(); ++i)
      if (cycle + 1 == lanes[i].end) sim.lane_flags(static_cast<unsigned>(i), ex_flags[i]);
  });

  timing::PathEnumerator shared_paths(nl);
  shared_paths.warm(ex_data.endpoints, dts_config.top_k);
  shared_paths.set_frozen(true);
  support::ThreadPool& pool = support::global_pool();
  std::vector<std::unique_ptr<DtsAnalyzer>> analyzers(pool.size());
  std::vector<std::optional<DtsGaussian>> results(tasks.size());
  pool.parallel_for(tasks.size(), [&](std::size_t i, std::size_t w) {
    auto& analyzer = analyzers[w];
    if (!analyzer) analyzer = std::make_unique<DtsAnalyzer>(nl, vm, spec, dts_config, shared_paths);
    obs::ScopedSpan task_span("dta.train_measure");
    task_span.counter("worker", static_cast<double>(w));
    static obs::Counter& measurements =
        obs::MetricsRegistry::instance().counter("dta.train_measurements");
    measurements.increment();
    const auto dts = analyzer->stage_dts(kExStage, ex_flags[i], netlist::EndpointClass::kData);
    if (!dts.has_value()) return;
    // Convert slack statistics to arrival statistics.
    DtsGaussian arr;
    arr.slack = {spec.period_ps - spec.setup_ps - dts->slack.mean, dts->slack.sd};
    arr.global_loading = dts->global_loading;
    results[i] = arr;
  });
  span.counter("measurements", static_cast<double>(tasks.size()));

  DatapathModel model;

  // --- adder: controlled carry chains of length L --------------------------
  std::vector<Measurement> adder_ms;
  for (std::size_t i = first_adder; i < logic_idx; ++i) {
    if (!results[i].has_value()) continue;
    const MeasureTask& t = tasks[i];
    const int l = adder_chain_length({t.ca, t.cb, ExUnit::kAdder, Opcode::kAdd},
                                     {t.pa, t.pb, ExUnit::kAdder, Opcode::kAdd});
    adder_ms.push_back({l, *results[i]});
  }
  TE_CHECK(adder_ms.size() >= 4, "adder training produced too few measurements");
  model.adder_mean_ = fit_linear(adder_ms, [](const DtsGaussian& g) { return g.slack.mean; });
  model.adder_sd_ = fit_linear(adder_ms, [](const DtsGaussian& g) { return g.slack.sd; });
  model.adder_gl_ = fit_linear(adder_ms, [](const DtsGaussian& g) { return g.global_loading; });

  // --- logic unit -----------------------------------------------------------
  TE_CHECK(results[logic_idx].has_value(), "logic-unit training measurement failed");
  model.logic_ = *results[logic_idx];
  // --- shifter ---------------------------------------------------------------
  TE_CHECK(results[shift_idx].has_value(), "shifter training measurement failed");
  model.shift_ = *results[shift_idx];
  // --- pass-through (movi / nop): may produce a very short path; fall back
  // to logic statistics if nothing was activated.
  model.pass_ = results[pass_idx].has_value() ? *results[pass_idx] : model.logic_;
  return model;
}

DatapathModel::Params DatapathModel::params() const {
  return {adder_mean_, adder_sd_, adder_gl_, logic_, shift_, pass_};
}

DatapathModel DatapathModel::from_params(const Params& p) {
  DatapathModel model;
  model.adder_mean_ = p.adder_mean;
  model.adder_sd_ = p.adder_sd;
  model.adder_gl_ = p.adder_gl;
  model.logic_ = p.logic;
  model.shift_ = p.shift;
  model.pass_ = p.pass;
  return model;
}

int DatapathModel::arrival_class(const ExContext& cur, const ExContext& prev) {
  const bool same_operands = cur.a == prev.a && cur.b == prev.b;
  switch (cur.unit) {
    case ExUnit::kAdder: {
      const int len = adder_chain_length(cur, prev);
      return len < 0 ? kNoArrival : len;
    }
    case ExUnit::kLogic:
      return same_operands && cur.op == prev.op ? kNoArrival : kLogicClass;
    case ExUnit::kShifter:
      return same_operands && cur.op == prev.op ? kNoArrival : kShiftClass;
    case ExUnit::kCompare:
      // Dedicated comparator + EX pass-through; operand change activates
      // the (shallow) pass path, the comparator itself is covered by the
      // control-network characterisation.
      return same_operands ? kNoArrival : kPassClass;
    case ExUnit::kNone:
      return cur.b == prev.b ? kNoArrival : kPassClass;
  }
  return kNoArrival;
}

std::optional<DtsGaussian> DatapathModel::class_arrival(int cls) const {
  TE_REQUIRE(cls >= 0 && cls < kArrivalClasses, "arrival class out of range");
  switch (cls) {
    case kNoArrival:
      return std::nullopt;
    case kLogicClass:
      return logic_;
    case kShiftClass:
      return shift_;
    case kPassClass:
      return pass_;
    default: {
      DtsGaussian g;
      g.slack = {adder_mean_.at(cls), std::max(0.0, adder_sd_.at(cls))};
      g.global_loading = support::clamp(adder_gl_.at(cls), 0.0, g.slack.sd);
      return g;
    }
  }
}

std::optional<DtsGaussian> DatapathModel::class_slack(int cls,
                                                      const timing::TimingSpec& spec) const {
  auto arr = class_arrival(cls);
  if (!arr.has_value()) return std::nullopt;
  DtsGaussian out = *arr;
  out.slack = {spec.period_ps - spec.setup_ps - arr->slack.mean, arr->slack.sd};
  return out;
}

std::optional<DtsGaussian> DatapathModel::ex_arrival(const ExContext& cur,
                                                     const ExContext& prev) const {
  return class_arrival(arrival_class(cur, prev));
}

std::optional<DtsGaussian> DatapathModel::ex_slack(const ExContext& cur, const ExContext& prev,
                                                   const timing::TimingSpec& spec) const {
  return class_slack(arrival_class(cur, prev), spec);
}

}  // namespace terrors::dta
