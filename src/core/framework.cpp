#include "core/framework.hpp"

#include <chrono>
#include <cmath>
#include <optional>
#include <utility>

#include "cache/key.hpp"
#include "cache/serialize.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace terrors::core {

namespace {
void require_valid_spec(const timing::TimingSpec& spec) {
  TE_REQUIRE(std::isfinite(spec.period_ps) && spec.period_ps > 0.0,
             "clock period must be positive and finite, got " + std::to_string(spec.period_ps) +
                 " ps");
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

support::ThreadPool::Stats pool_stats_since(const support::ThreadPool::Stats& before) {
  const support::ThreadPool::Stats now = support::global_pool().stats();
  return {now.tasks - before.tasks, now.steal_or_wait - before.steal_or_wait,
          now.retries - before.retries};
}

// Degradation policy (DESIGN §5f): the cache is an accelerator, never a
// dependency.  A throwing load is a miss (recompute), a throwing store
// loses only warm-start time; both are noted in `degradation`, neither
// fails analyze().
std::optional<std::vector<std::uint8_t>> safe_cache_load(
    const cache::ArtifactCache& c, std::string_view kind, std::uint64_t key,
    std::vector<robust::Degradation>& degradation) {
  try {
    return c.load(kind, key);
  } catch (const std::exception& e) {
    robust::note_degraded(degradation, "cache",
                          std::string(kind) + " load failed, recomputing: " + e.what());
    return std::nullopt;
  }
}

void safe_cache_store(const cache::ArtifactCache& c, std::string_view kind, std::uint64_t key,
                      const std::vector<std::uint8_t>& payload,
                      std::vector<robust::Degradation>& degradation) {
  try {
    c.store(kind, key, payload);
  } catch (const std::exception& e) {
    robust::note_degraded(degradation, "cache",
                          std::string(kind) + " store failed, artifact not persisted: " + e.what());
  }
}
}  // namespace

ErrorRateFramework::ErrorRateFramework(const netlist::Pipeline& pipeline, FrameworkConfig config)
    : pipeline_(pipeline), config_(config), vm_(pipeline.netlist, config.variation) {
  require_valid_spec(config_.spec);
  obs::ScopedSpan span("framework.init");
  const obs::MetricsScope init_metrics(obs::MetricsRegistry::instance());
  const support::ThreadPool::Stats pool_before = support::global_pool().stats();

  // Component hashes feed both cache keys and run ids, so they are
  // computed whether or not the cache is enabled.
  netlist_hash_ = cache::hash_netlist(pipeline_.netlist);
  variation_hash_ = cache::hash_variation(config_.variation);
  dts_hash_ = cache::hash_dts_config(config_.dts);
  charcfg_hash_ = cache::hash_characterizer_config(config_.characterizer);

  if (const std::string dir = cache::resolve_cache_dir(config_.cache_dir); !dir.empty()) {
    cache_ = std::make_unique<cache::ArtifactCache>(dir);
  }
  journal_path_ = obs::resolve_journal_path(config_.journal_path);

  // Datapath-model training is spec-independent (arrival-form parameters),
  // so its key omits the timing spec.
  if (cache_) {
    const std::uint64_t key =
        cache::combine({cache::kModelVersion, netlist_hash_, variation_hash_, dts_hash_});
    if (auto bytes = safe_cache_load(*cache_, "datapath", key, carried_.degradation)) {
      cache::ByteReader r(*bytes);
      if (auto params = cache::decode_datapath(r)) {
        datapath_ = std::make_unique<dta::DatapathModel>(
            dta::DatapathModel::from_params(*params));
      }
    }
    if (!datapath_) {
      datapath_ = std::make_unique<dta::DatapathModel>(
          dta::DatapathModel::train(pipeline_, vm_, config_.dts));
      cache::ByteWriter w;
      cache::encode_datapath(datapath_->params(), w);
      safe_cache_store(*cache_, "datapath", key, w.bytes(), carried_.degradation);
    }
  } else {
    datapath_ = std::make_unique<dta::DatapathModel>(
        dta::DatapathModel::train(pipeline_, vm_, config_.dts));
  }

  characterizer_ = std::make_unique<dta::ControlCharacterizer>(
      pipeline_, vm_, config_.spec, config_.dts, config_.characterizer);
  carried_.counters = init_metrics.deltas();
  carried_.pool = pool_stats_since(pool_before);
}

void ErrorRateFramework::set_spec(timing::TimingSpec spec) {
  require_valid_spec(spec);
  config_.spec = spec;
  // The characterizer's analyzer caches paths, which are spec-independent;
  // only the slack conversion uses the spec.
  characterizer_->analyzer().set_spec(spec);
}

BenchmarkResult ErrorRateFramework::analyze(const isa::Program& program,
                                            const std::vector<isa::ProgramInput>& inputs) {
  TE_REQUIRE(!inputs.empty(), "analyze() needs at least one input dataset");
  static obs::Counter& analyze_calls =
      obs::MetricsRegistry::instance().counter("core.analyze_calls");
  static obs::Counter& instr_metric =
      obs::MetricsRegistry::instance().counter("core.instructions_simulated");
  analyze_calls.increment();

  // Run identity (DESIGN §5g): the same inputs at the same ordinal give
  // the same id, so a run correlates across report and journal without
  // any nondeterministic token.
  BenchmarkResult result;
  result.name = program.name();
  const std::uint64_t program_hash = cache::hash_program(program);
  result.run_id = obs::format_run_id(cache::combine(
      {cache::kModelVersion, netlist_hash_, variation_hash_, dts_hash_, charcfg_hash_,
       cache::hash_spec(config_.spec), program_hash, analyze_ordinal_++}));
  result.basic_blocks = program.block_count();

  // Construction belongs to the first run: its counters, pool work and
  // fallbacks count as this run's.
  Carried carried = std::exchange(carried_, {});
  result.degradation = std::move(carried.degradation);

  obs::ScopedSpan span("analyze");
  span.counter("inputs", static_cast<double>(inputs.size()));
  // Per-run counter deltas for the result and the journal event.
  const obs::MetricsScope run_metrics(obs::MetricsRegistry::instance());

  const support::ThreadPool::Stats pool_before = support::global_pool().stats();

  last_ = Artifacts{};
  last_.cfg = std::make_unique<isa::Cfg>(program);
  last_.executor = std::make_unique<isa::Executor>(program, *last_.cfg, config_.executor);

  // --- simulation phase (the paper's instrumented native execution) -----
  // The profile depends only on the program, the inputs and the executor
  // configuration, so a profile hit adopts the recorded profile and runs
  // nothing.  The artifact carries the recording run's hash_profile
  // digest, which the control key below reuses.
  std::uint64_t profile_digest = 0;
  {
    obs::ScopedSpan phase("simulation");
    const auto t0 = std::chrono::steady_clock::now();
    bool loaded = false;
    std::uint64_t profile_key = 0;
    if (cache_) {
      profile_key = cache::combine({cache::kModelVersion, program_hash,
                                    cache::hash_inputs(inputs),
                                    cache::hash_executor_config(config_.executor)});
      if (auto bytes = safe_cache_load(*cache_, "profile", profile_key, result.degradation)) {
        cache::ByteReader r(*bytes);
        if (auto cached = cache::decode_profile(r, *last_.executor)) {
          last_.executor->adopt(std::move(cached->profile));
          profile_digest = cached->digest;
          loaded = true;
        }
      }
    }
    if (!loaded) {
      for (const auto& in : inputs) last_.executor->run(in);
      if (cache_) {
        profile_digest = cache::hash_profile(last_.executor->profile());
        cache::ByteWriter w;
        cache::encode_profile(last_.executor->profile(), profile_digest, w);
        safe_cache_store(*cache_, "profile", profile_key, w.bytes(), result.degradation);
      }
    }
    result.simulation_seconds = seconds_since(t0);
    phase.counter("instructions",
                  static_cast<double>(last_.executor->profile().total_instructions));
  }
  // Counted on a profile hit too: the counter is the instructions the
  // estimate covers, not the instructions executed in this process.
  result.instructions = last_.executor->profile().total_instructions;
  instr_metric.increment(result.instructions);

  // --- training phase (gate-level control-network characterisation) -----
  {
    obs::ScopedSpan phase("training");
    const auto t0 = std::chrono::steady_clock::now();

    // A control-table hit skips gate-level characterisation entirely; the
    // key covers everything the tables depend on (see cache/key.hpp), and
    // the decoder additionally rejects artifacts whose recorded spec is
    // not bit-identical to the current one.
    bool loaded = false;
    std::uint64_t control_key = 0;
    if (cache_) {
      control_key = cache::combine({cache::kModelVersion, netlist_hash_, variation_hash_,
                                    dts_hash_, charcfg_hash_, cache::hash_spec(config_.spec),
                                    program_hash, profile_digest});
      if (auto bytes = safe_cache_load(*cache_, "control", control_key, result.degradation)) {
        cache::ByteReader r(*bytes);
        if (auto control = cache::decode_control(r, config_.spec)) {
          last_.control = std::move(*control);
          loaded = true;
        }
      }
    }

    if (!loaded) {
      last_.control =
          characterizer_->characterize(program, *last_.cfg, last_.executor->profile());
      if (cache_) {
        cache::ByteWriter w;
        cache::encode_control(last_.control, config_.spec, w);
        safe_cache_store(*cache_, "control", control_key, w.bytes(), result.degradation);
      }
    }
    result.training_seconds = seconds_since(t0);
  }

  // --- estimation ---------------------------------------------------------
  {
    obs::ScopedSpan phase("estimation");
    const auto t0 = std::chrono::steady_clock::now();
    {
      obs::ScopedSpan build_span("error_model.build");
      const InstructionErrorModel model(*datapath_, config_.spec, config_.error_model);
      last_.conditionals =
          model.build(program, *last_.cfg, last_.executor->profile(), last_.control);
    }
    const MarginalSolver solver(program, *last_.cfg, last_.executor->profile());
    last_.marginals = solver.solve(last_.conditionals, &last_.sccs);

    obs::ScopedSpan estimate_span("estimate");
    EstimatorInputs est_in;
    est_in.program = &program;
    est_in.profile = &last_.executor->profile();
    est_in.conditionals = &last_.conditionals;
    est_in.marginals = &last_.marginals;
    est_in.execution_scale = config_.execution_scale;
    est_in.chen_stein_radius = config_.chen_stein_radius;
    result.estimate = estimate_error_rate(est_in);
    result.estimation_seconds = seconds_since(t0);
  }

  // The run's degradation, from what it already holds: the cache notes
  // above, the pool's serial retries and the solver's fallback SCCs.
  support::ThreadPool::Stats pool = pool_stats_since(pool_before);
  pool.tasks += carried.pool.tasks;
  pool.retries += carried.pool.retries;
  if (pool.retries > 0) {
    robust::note_degraded(result.degradation, "pool",
                          std::to_string(pool.retries) + " failed task(s) retried serially",
                          pool.retries);
  }
  for (const SccSolveDiag& d : last_.sccs) {
    if (d.degraded) {
      robust::note_degraded(result.degradation, "solver",
                            "scc " + std::to_string(d.scc) +
                                " direct solve rejected; served refinement/fixed-point result");
    }
  }
  result.degraded = !result.degradation.empty();

  const auto count = [&](const char* name) {
    const auto it = carried.counters.find(name);
    return run_metrics.delta(name) + (it == carried.counters.end() ? 0 : it->second);
  };
  result.cache_hits = count("cache.hits");
  result.cache_misses = count("cache.misses");

  // Wide-event journal append (DESIGN §5g).  Strictly observational: the
  // event is assembled from the finished result, and a failed append
  // degrades the run like any other peripheral I/O.
  if (!journal_path_.empty()) {
    obs::RunEvent event;
    event.run_id = result.run_id;
    event.unix_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    event.program = result.name;
    event.config_hash = obs::format_run_id(
        cache::combine({cache::kModelVersion, netlist_hash_, variation_hash_, dts_hash_,
                        charcfg_hash_, cache::hash_spec(config_.spec)}));
    event.program_hash = obs::format_run_id(program_hash);
    event.period_ps = config_.spec.period_ps;
    event.threads = support::global_pool().size();
    event.runs = inputs.size();
    event.instructions = result.instructions;
    event.simulation_seconds = result.simulation_seconds;
    event.training_seconds = result.training_seconds;
    event.estimation_seconds = result.estimation_seconds;
    event.counters = run_metrics.deltas();
    for (const auto& [name, n] : carried.counters) event.counters[name] += n;
    event.pool_tasks = pool.tasks;
    event.pool_retries = pool.retries;
    event.lambda_mean = result.estimate.lambda.mean;
    event.rate_mean = result.estimate.rate_mean();
    event.rate_sd = result.estimate.rate_sd();
    event.degraded = result.degraded;
    for (const robust::Degradation& d : result.degradation) event.degraded_sites.push_back(d.site);
    event.peak_rss_bytes = obs::peak_rss_bytes();
    try {
      obs::append_event(journal_path_, event);
    } catch (const std::exception& e) {
      robust::note_degraded(result.degradation, "io",
                            "journal append failed: " + std::string(e.what()));
      result.degraded = true;
    }
  }
  return result;
}

}  // namespace terrors::core
