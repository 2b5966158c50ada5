// Schema-versioned, machine-readable run reports (DESIGN §5e).
//
// A RunReport is the error-attribution record of one analyze() call: the
// headline estimate plus everything a TS-processor designer needs to see
// *where* the error mass comes from — per-block / per-edge marginal error
// mass, per-stage and per-opcode DTS slack summaries, the top culprit
// timing paths, and solver / Monte-Carlo diagnostics.  It is emitted as
// JSON (`analyze --report`), rendered by `terrors report`, and compared
// by `terrors diff`, which is what turns the CI bench trajectory into a
// real regression gate.
//
// Schema evolution: kSchemaVersion bumps on any incompatible change;
// readers reject a version they do not understand instead of guessing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "report/json_value.hpp"

namespace terrors::report {

inline constexpr int kSchemaVersion = 1;
/// Distinguishes run reports from the repo's other JSON files.
inline constexpr const char* kReportKind = "terrors_run_report";

/// Summary of an empirical distribution (counts + moments + quantiles).
struct DistSummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Exact summary of a (small) value set; deterministic.
[[nodiscard]] DistSummary summarize(std::vector<double> values);

struct EdgeAttribution {
  std::uint32_t from_block = 0;
  std::uint64_t traversals = 0;
  double activation = 0.0;  ///< traversals / block executions
};

struct InstrAttribution {
  std::string mnemonic;
  double p_correct_mean = 0.0;  ///< mean over sample worlds of p^c
  double p_error_mean = 0.0;    ///< mean over sample worlds of p^e
  double marginal_mean = 0.0;   ///< mean over sample worlds of p_{i_k}
  bool has_ctrl = false;        ///< any incoming edge activated a control path
  double ctrl_slack_mean = 0.0; ///< traversal-weighted mean control-DTS slack (ps)
  double ctrl_slack_sd = 0.0;   ///< traversal-weighted mean control-DTS sd (ps)
};

struct BlockAttribution {
  std::uint32_t block = 0;
  std::uint64_t executions = 0;
  double exec_weight = 0.0;  ///< e_b: executions per (scaled) run
  double lambda_mean = 0.0;  ///< expected errors attributed to this block
  double lambda_sd = 0.0;
  double share = 0.0;        ///< lambda_mean / headline lambda
  std::vector<EdgeAttribution> edges;
  std::vector<InstrAttribution> instrs;
};

struct StageSlack {
  std::uint8_t stage = 0;
  std::size_t endpoints = 0;  ///< control capture endpoints in the stage
  DistSummary slack;          ///< top-k candidate path slack means (ps)
};

struct OpcodeAttribution {
  std::string mnemonic;
  double error_mass = 0.0;  ///< expected errors attributed to this opcode
  double share = 0.0;
  DistSummary ctrl_slack;   ///< characterized control-DTS slack means (ps)
};

struct CulpritPath {
  std::uint32_t endpoint = 0;
  std::uint8_t stage = 0;
  double slack_mean = 0.0;  ///< ps under the run's spec
  double slack_sd = 0.0;
  double delay_ps = 0.0;    ///< nominal path delay
  std::size_t gates = 0;
};

struct SccDiag {
  std::uint32_t scc = 0;
  std::size_t size = 0;
  bool cyclic = false;
  double max_residual = 0.0;
  /// The solve needed the degradation path (refinement / fixed point) in
  /// at least one sample world (DESIGN §5f).
  bool degraded = false;
};

struct SolverDiagnostics {
  std::size_t scc_count = 0;    ///< executed SCCs observed in the solve
  std::size_t cyclic_sccs = 0;
  std::size_t max_scc_size = 0;
  double max_residual = 0.0;
  std::vector<SccDiag> sccs;    ///< cyclic components only (acyclic are exact)
};

struct McDiagnostics {
  bool enabled = false;
  std::size_t trials = 0;
  /// Kolmogorov distance between the MC empirical count CDF and the
  /// analytic mixture CDF; dk_count should dominate it.
  double divergence = 0.0;
};

struct RunReport {
  int schema_version = kSchemaVersion;
  std::string program;
  /// Deterministic run id (BenchmarkResult::run_id), correlating this
  /// report with its journal event and log lines.  Written only when
  /// non-empty, so pre-§5g reports round-trip byte-stably.
  std::string run_id;
  double period_ps = 0.0;
  std::size_t threads = 1;
  std::uint64_t runs = 0;
  std::uint64_t instructions = 0;         ///< simulated dynamic instructions
  std::uint64_t total_instructions = 0;   ///< extrapolated per-run count
  std::size_t basic_blocks = 0;

  // Headline estimate (mirrors core::ErrorRateEstimate).
  double rate_mean = 0.0;
  double rate_sd = 0.0;
  double lambda_mean = 0.0;
  double lambda_sd = 0.0;
  double dk_lambda = 0.0;
  double dk_count = 0.0;
  double b1_worst = 0.0;
  double b2_worst = 0.0;
  double sigma_chain = 0.0;

  // Runtime (Table 2 columns).
  double training_seconds = 0.0;
  double simulation_seconds = 0.0;
  double estimation_seconds = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  /// Graceful degradation fired during this run (DESIGN §5f).  Written
  /// to JSON only when true, so healthy reports are byte-identical to
  /// pre-degradation readers and writers.
  bool degraded = false;
  /// Sorted unique degradation site tags ("cache", "solver", "pool", "io").
  std::vector<std::string> degraded_sites;

  std::vector<BlockAttribution> blocks;
  std::vector<StageSlack> stages;
  std::vector<OpcodeAttribution> opcodes;
  std::vector<CulpritPath> culprits;
  SolverDiagnostics solver;
  McDiagnostics mc;

  [[nodiscard]] double analyze_seconds() const {
    return training_seconds + simulation_seconds + estimation_seconds;
  }

  /// Deterministic single-document JSON (schema above; key order fixed).
  void write_json(std::ostream& os) const;
  /// Inverse of write_json.  Throws robust::Error (kArtifact) on
  /// malformed documents, a wrong "kind", or an unsupported
  /// schema_version; kInput on JSON type errors.
  static RunReport from_json(const JsonValue& doc);
  /// Read + parse + from_json; throws robust::Error (kResource on I/O
  /// errors, kArtifact/kInput wrapped with the path as context).
  static RunReport load(const std::string& path);
};

}  // namespace terrors::report
