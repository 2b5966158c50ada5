#include "report/attribution.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "core/monte_carlo.hpp"
#include "isa/isa.hpp"
#include "netlist/pipeline.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"
#include "timing/paths.hpp"

namespace terrors::report {

namespace {

/// Seed of the Monte-Carlo cross-check's trials.
constexpr std::uint64_t kMcSeed = 2026;

/// Block b's share of Eq. 10's lambda, per sample: e_b * sum_k p_{b_k}(s),
/// summed in the estimator's order so the values match it bit for bit.
stat::Samples block_lambda_from_marginals(const core::BlockMarginals& bm, double e_b) {
  std::size_t m = bm.instr.empty() ? 0 : bm.instr[0].size();
  stat::Samples out(m, 0.0);
  for (std::size_t s = 0; s < m; ++s) {
    double block_sum = 0.0;
    for (const stat::Samples& p : bm.instr) block_sum += p[s];
    out[s] = e_b * block_sum;
  }
  return out;
}

}  // namespace

RunReport build_report(core::ErrorRateFramework& fw, const isa::Program& program,
                       const core::BenchmarkResult& result, const ReportOptions& options) {
  const core::ErrorRateFramework::Artifacts& art = fw.last();
  const isa::ProgramProfile& profile = art.executor->profile();
  const isa::Cfg& cfg = *art.cfg;
  const core::ErrorRateEstimate& est = result.estimate;
  const timing::TimingSpec spec = fw.config().spec;

  RunReport r;
  r.program = result.name;
  r.run_id = result.run_id;
  r.period_ps = spec.period_ps;
  r.threads = options.threads;
  r.runs = profile.runs;
  r.instructions = result.instructions;
  r.total_instructions = est.total_instructions;
  r.basic_blocks = result.basic_blocks;

  r.rate_mean = est.rate_mean();
  r.rate_sd = est.rate_sd();
  r.lambda_mean = est.lambda.mean;
  r.lambda_sd = est.lambda.sd;
  r.dk_lambda = est.dk_lambda;
  r.dk_count = est.dk_count;
  r.b1_worst = est.b1_worst;
  r.b2_worst = est.b2_worst;
  r.sigma_chain = est.sigma_chain;

  r.training_seconds = result.training_seconds;
  r.simulation_seconds = result.simulation_seconds;
  r.estimation_seconds = result.estimation_seconds;
  r.cache_hits = result.cache_hits;
  r.cache_misses = result.cache_misses;

  const double runs_scaled =
      static_cast<double>(profile.runs) / fw.config().execution_scale;

  // --- per-block / per-edge / per-instruction attribution -----------------
  const double lambda_total = r.lambda_mean;
  std::map<std::string, double> opcode_mass;
  std::map<std::string, std::vector<double>> opcode_slack;
  for (isa::BlockId b = 0; b < program.block_count(); ++b) {
    const core::BlockMarginals& bm = art.marginals[b];
    if (!bm.executed) continue;
    const isa::BlockProfile& bp = profile.blocks[b];
    const double e_b = static_cast<double>(bp.executions) / runs_scaled;
    if (e_b == 0.0) continue;

    BlockAttribution ba;
    ba.block = b;
    ba.executions = bp.executions;
    ba.exec_weight = e_b;
    const stat::Samples lam = block_lambda_from_marginals(bm, e_b);
    ba.lambda_mean = lam.mean();
    ba.lambda_sd = lam.stddev();
    ba.share = lambda_total > 0.0 ? ba.lambda_mean / lambda_total : 0.0;

    const std::vector<isa::CfgEdge>& preds = cfg.predecessors(b);
    for (std::size_t j = 0; j < preds.size(); ++j) {
      EdgeAttribution ea;
      ea.from_block = preds[j].from;
      ea.traversals = j < bp.edge_counts.size() ? bp.edge_counts[j] : 0;
      ea.activation = profile.edge_activation(b, j);
      ba.edges.push_back(ea);
    }

    const core::BlockErrorDistributions& bc = art.conditionals[b];
    const dta::BlockControlDts& ctrl = art.control[b];
    const std::vector<isa::Instruction>& instrs = program.block(b).instructions;
    for (std::size_t k = 0; k < bm.instr.size(); ++k) {
      InstrAttribution ia;
      ia.mnemonic = std::string(isa::mnemonic(instrs[k].op));
      ia.p_correct_mean = bc.instr[k].p_correct.mean();
      ia.p_error_mean = bc.instr[k].p_error.mean();
      ia.marginal_mean = bm.instr[k].mean();
      // Traversal-weighted control-DTS slack over the edges that activate
      // a control path for this instruction (entry pseudo-edge included).
      double w_total = 0.0;
      double w_mean = 0.0;
      double w_sd = 0.0;
      const auto fold = [&](const dta::EdgeControlDts& e, double weight) {
        if (weight <= 0.0 || k >= e.instr.size() || !e.instr[k].has_value()) return;
        ia.has_ctrl = true;
        w_total += weight;
        w_mean += weight * e.instr[k]->slack.mean;
        w_sd += weight * e.instr[k]->slack.sd;
        opcode_slack[ia.mnemonic].push_back(e.instr[k]->slack.mean);
      };
      fold(ctrl.entry, static_cast<double>(bp.entry_count));
      for (std::size_t j = 0; j < ctrl.per_edge.size(); ++j) {
        fold(ctrl.per_edge[j],
             j < bp.edge_counts.size() ? static_cast<double>(bp.edge_counts[j]) : 0.0);
      }
      if (w_total > 0.0) {
        ia.ctrl_slack_mean = w_mean / w_total;
        ia.ctrl_slack_sd = w_sd / w_total;
      }
      opcode_mass[ia.mnemonic] += e_b * ia.marginal_mean;
      ba.instrs.push_back(std::move(ia));
    }
    r.blocks.push_back(std::move(ba));
  }
  // Heaviest error mass first; block id breaks exact ties.
  std::sort(r.blocks.begin(), r.blocks.end(),
            [](const BlockAttribution& a, const BlockAttribution& b) {
              if (a.lambda_mean != b.lambda_mean) return a.lambda_mean > b.lambda_mean;
              return a.block < b.block;
            });

  // --- per-opcode attribution --------------------------------------------
  double mass_total = 0.0;
  for (const auto& [mn, mass] : opcode_mass) mass_total += mass;
  for (const auto& [mn, mass] : opcode_mass) {
    OpcodeAttribution oc;
    oc.mnemonic = mn;
    oc.error_mass = mass;
    oc.share = mass_total > 0.0 ? mass / mass_total : 0.0;
    const auto it = opcode_slack.find(mn);
    if (it != opcode_slack.end()) oc.ctrl_slack = summarize(it->second);
    r.opcodes.push_back(std::move(oc));
  }
  std::sort(r.opcodes.begin(), r.opcodes.end(),
            [](const OpcodeAttribution& a, const OpcodeAttribution& b) {
              if (a.error_mass != b.error_mass) return a.error_mass > b.error_mass;
              return a.mnemonic < b.mnemonic;
            });

  // --- per-stage slack histograms and culprit paths -----------------------
  // The characterizer's shared enumerator already holds every control
  // endpoint's candidate list after an analyze(); warm_paths() is an
  // idempotent no-op then, and makes the build self-sufficient otherwise.
  dta::ControlCharacterizer& chr = fw.characterizer();
  chr.warm_paths();
  dta::DtsAnalyzer& analyzer = chr.analyzer();
  const netlist::Netlist& nl = fw.pipeline().netlist;
  std::vector<CulpritPath> culprits;
  for (std::uint8_t s = 0; s < netlist::Pipeline::kStages; ++s) {
    StageSlack st;
    st.stage = s;
    std::vector<double> means;
    for (netlist::GateId e : nl.stage_endpoints(s)) {
      if (nl.gate(e).endpoint_class != netlist::EndpointClass::kControl) continue;
      ++st.endpoints;
      for (const dta::DtsAnalyzer::EndpointPath& ep :
           analyzer.endpoint_path_stats(e, kCulpritPaths)) {
        const stat::Gaussian slack = ep.stat->slack(spec);
        means.push_back(slack.mean);
        CulpritPath c;
        c.endpoint = e;
        c.stage = s;
        c.slack_mean = slack.mean;
        c.slack_sd = slack.sd;
        c.delay_ps = ep.path->delay_ps;
        c.gates = ep.path->gates.size();
        culprits.push_back(c);
      }
    }
    st.slack = summarize(std::move(means));
    r.stages.push_back(std::move(st));
  }
  std::sort(culprits.begin(), culprits.end(), [](const CulpritPath& a, const CulpritPath& b) {
    if (a.slack_mean != b.slack_mean) return a.slack_mean < b.slack_mean;
    if (a.endpoint != b.endpoint) return a.endpoint < b.endpoint;
    return a.delay_ps > b.delay_ps;
  });
  if (culprits.size() > kCulpritPaths) culprits.resize(kCulpritPaths);
  r.culprits = std::move(culprits);

  // --- solver diagnostics --------------------------------------------------
  r.solver.scc_count = art.sccs.size();
  for (const core::SccSolveDiag& d : art.sccs) {
    r.solver.max_scc_size = std::max(r.solver.max_scc_size, d.size);
    r.solver.max_residual = std::max(r.solver.max_residual, d.max_residual);
    if (d.cyclic) {
      ++r.solver.cyclic_sccs;
      r.solver.sccs.push_back(SccDiag{d.scc, d.size, d.cyclic, d.max_residual, d.degraded});
    }
  }

  // --- degradation stamp (DESIGN §5f) --------------------------------------
  r.degraded = result.degraded;
  for (const robust::Degradation& d : result.degradation) r.degraded_sites.push_back(d.site);

  // --- Monte-Carlo cross-check ---------------------------------------------
  // Each trial walks one recorded run, so its reference is the count law
  // of the recorded runs themselves: the estimate at execution_scale 1, not
  // the extrapolated one the run reports.
  if (options.mc_trials > 0 && !profile.block_traces.empty()) {
    support::Rng rng(kMcSeed);
    const std::vector<std::uint64_t> counts = core::monte_carlo_error_counts(
        profile, art.conditionals, options.mc_trials, rng);
    core::EstimatorInputs unscaled;
    unscaled.program = &program;
    unscaled.profile = &profile;
    unscaled.conditionals = &art.conditionals;
    unscaled.marginals = &art.marginals;
    unscaled.chen_stein_radius = fw.config().chen_stein_radius;
    r.mc.enabled = true;
    r.mc.trials = options.mc_trials;
    r.mc.divergence =
        core::mc_analytic_divergence(counts, core::estimate_error_rate(unscaled));
  }

  // All report-owned metrics live under report.*, the namespace the
  // bit-identity contract explicitly excludes.
  obs::MetricsRegistry::instance().counter("report.builds").increment();
  return r;
}

}  // namespace terrors::report
