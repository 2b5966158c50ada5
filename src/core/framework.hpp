// The end-to-end framework facade: everything the paper's Figure 2 flow
// does, behind one call.
//
//   analyze(program, inputs):
//     1. simulation phase — run the instrumented program on the inputs
//        (architecture-level executor; records activation probabilities
//        and operand contexts), or adopt the cached profile of an earlier
//        run over the same program, inputs and executor configuration,
//     2. training phase — control-network DTS characterisation per
//        (block, incoming edge) on the gate-level pipeline, plus the
//        (shared, one-time) datapath-model training,
//     3. instruction error probabilities, marginal-probability solve, and
//        the limit-theorem estimate with Stein/Chen–Stein bounds.
//
// Training and simulation wall-clock times are reported per benchmark,
// mirroring Table 2's runtime columns.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "core/error_model.hpp"
#include "core/estimator.hpp"
#include "core/marginal.hpp"
#include "dta/control_characterizer.hpp"
#include "dta/datapath_model.hpp"
#include "isa/executor.hpp"
#include "netlist/pipeline.hpp"
#include "robust/degrade.hpp"
#include "support/thread_pool.hpp"
#include "timing/variation.hpp"

namespace terrors::core {

struct FrameworkConfig {
  timing::TimingSpec spec{};
  /// See EstimatorInputs::execution_scale.
  double execution_scale = 1.0;
  /// See EstimatorInputs::chen_stein_radius (0 = paper's Eqs. 7-8).
  std::size_t chen_stein_radius = 0;
  timing::VariationConfig variation{};
  ErrorModelConfig error_model{};
  isa::ExecutorConfig executor{};
  dta::DtsConfig dts{};
  dta::ControlCharacterizerConfig characterizer{};
  /// Directory for the content-addressed artifact cache. Empty (the
  /// default) disables caching; the TERRORS_CACHE_DIR environment
  /// variable is honoured when this is empty (see cache::resolve_cache_dir).
  std::string cache_dir;
  /// Run-journal file: one wide JSONL event is appended per analyze()
  /// call (DESIGN §5g). Empty (the default) consults TERRORS_JOURNAL and
  /// disables journaling when that is unset too. Journal appends are a
  /// peripheral: a failed write degrades the run, never fails it.
  std::string journal_path;
};

/// Full per-benchmark analysis result (one Table 2 row plus the Figure 3
/// distribution accessors through `estimate`).
struct BenchmarkResult {
  std::string name;
  /// Deterministic 16-hex run id (obs::format_run_id of the run key):
  /// identical framework inputs + program + analyze ordinal give
  /// identical ids, so the report, the journal event and the CLI summary
  /// of the same logical run correlate byte-stably.
  std::string run_id;
  /// Dynamic instructions the profile covers (all runs), whether this
  /// call executed them or adopted a cached profile.
  std::uint64_t instructions = 0;
  std::size_t basic_blocks = 0;
  double training_seconds = 0.0;
  double simulation_seconds = 0.0;
  /// Error-model build + marginal solve + limit-theorem estimate.
  double estimation_seconds = 0.0;
  /// cache.hits / cache.misses deltas accrued during this analyze() call
  /// and, on a framework's first call, during its construction (0/0 when
  /// the artifact cache is disabled).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// True when any graceful-degradation policy fired during this run
  /// (DESIGN §5f): the estimate is still best-effort valid, but a cache
  /// read/write, SCC solve, worker task or journal append needed a
  /// fallback.
  bool degraded = false;
  /// One entry per degraded site ("cache", "io", "pool", "solver"), sorted
  /// by site, holding the site's first failure detail.
  std::vector<robust::Degradation> degradation;
  ErrorRateEstimate estimate;
};

class ErrorRateFramework {
 public:
  /// Throws std::invalid_argument unless `config.spec.period_ps` is
  /// positive and finite.
  ErrorRateFramework(const netlist::Pipeline& pipeline, FrameworkConfig config = {});

  /// Analyse one program over the given input datasets.  Everything a
  /// run report needs is retained in last() (DESIGN §5e).
  [[nodiscard]] BenchmarkResult analyze(const isa::Program& program,
                                        const std::vector<isa::ProgramInput>& inputs);

  [[nodiscard]] const dta::DatapathModel& datapath_model() const { return *datapath_; }
  [[nodiscard]] const timing::VariationModel& variation_model() const { return vm_; }
  [[nodiscard]] const FrameworkConfig& config() const { return config_; }
  /// The control characterizer (shared path enumerator, DTS analyzer);
  /// the report builder queries it for culprit-path statistics.
  [[nodiscard]] dta::ControlCharacterizer& characterizer() { return *characterizer_; }
  [[nodiscard]] const netlist::Pipeline& pipeline() const { return pipeline_; }
  /// Change the operating point (affects subsequent analyze() calls).
  /// Throws std::invalid_argument, leaving the spec unchanged, unless
  /// `spec.period_ps` is positive and finite.
  void set_spec(timing::TimingSpec spec);
  /// Per-benchmark executor configuration (instruction budget, reservoir).
  void set_executor_config(const isa::ExecutorConfig& cfg) { config_.executor = cfg; }

  /// Intermediate artefacts of the last analyze() call, for run
  /// reports, ablation benches and tests.
  struct Artifacts {
    std::unique_ptr<isa::Cfg> cfg;
    std::unique_ptr<isa::Executor> executor;
    std::vector<dta::BlockControlDts> control;
    std::vector<BlockErrorDistributions> conditionals;
    std::vector<BlockMarginals> marginals;
    /// Per-SCC diagnostics of the marginal solve, in topological order.
    std::vector<SccSolveDiag> sccs;
  };
  [[nodiscard]] const Artifacts& last() const { return last_; }

 private:
  const netlist::Pipeline& pipeline_;
  FrameworkConfig config_;
  timing::VariationModel vm_;
  /// The on-disk artifact cache, or nullptr when caching is off.
  std::unique_ptr<cache::ArtifactCache> cache_;
  // Component hashes of the cache key, fixed at construction time.
  std::uint64_t netlist_hash_ = 0;
  std::uint64_t variation_hash_ = 0;
  std::uint64_t dts_hash_ = 0;
  std::uint64_t charcfg_hash_ = 0;
  /// Resolved journal path ("" = journaling off), fixed at construction.
  std::string journal_path_;
  /// Per-framework analyze() ordinal folded into the run key, so repeated
  /// analyses of the same program get distinct (still deterministic) ids.
  std::uint64_t analyze_ordinal_ = 0;
  /// What construction did: its counter and pool-stat deltas and its
  /// fallbacks (the datapath cache load and store).  The first analyze()
  /// reports them as its own.
  struct Carried {
    std::map<std::string, std::uint64_t> counters;
    support::ThreadPool::Stats pool;
    std::vector<robust::Degradation> degradation;
  };
  Carried carried_;
  std::unique_ptr<dta::DatapathModel> datapath_;
  std::unique_ptr<dta::ControlCharacterizer> characterizer_;
  Artifacts last_;
};

}  // namespace terrors::core
