// Benchmark driver: runs one named workload as a closed loop of
// ErrorRateFramework::analyze calls, checks every result, and prints one
// JSON record of raw measurements on stdout.  perfbench/run.py builds this
// program, runs it, and turns the record into the benchmark's metrics.
//
//   perfbench_driver --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                    [--threads N]
//
// Cache directories and, for traced runs, the last pass's spans (Chrome
// trace JSON) go to .bench_build/work under the working directory.
//
// A run is a fixed number of passes, sized so the passes take about
// --seconds on the reference machine; a pass issues the workload's whole
// call list once, one call after another.  With --trace 1 every call is
// followed by a layer-by-layer replay (replay.hpp) whose control tables
// and estimate must equal the untraced call's bit for bit.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/framework.hpp"
#include "netlist/pipeline.hpp"
#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "replay.hpp"
#include "robust/error.hpp"
#include "robust/parse.hpp"
#include "support/thread_pool.hpp"
#include "workloads/generator.hpp"
#include "workloads/specs.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace terrors;
using perfbench::Replayer;
using perfbench::SpanLog;

namespace {

enum class CacheMode {
  kNone,   ///< no artifact cache
  kFresh,  ///< a fresh empty cache per pass: artifacts written, never read
  kPrimed  ///< primed during setup: every measured call reads it
};

struct WorkloadDef {
  const char* name;
  std::vector<const char*> programs;  ///< empty = all 12 specs
  std::vector<double> periods_ps;
  double scale;
  std::size_t threads;
  CacheMode cache;
  /// Host seconds one pass takes on the reference machine (4-core x86,
  /// RelWithDebInfo); fixes the pass count for a given --seconds.
  double nominal_pass_s;
};

const std::vector<WorkloadDef>& workload_defs() {
  static const std::vector<WorkloadDef> defs = {
      {"table2_cold", {}, {1300.0}, 1e-4, 1, CacheMode::kFresh, 3.2},
      {"sweep_2t",
       {"patricia", "basicmath", "gsm.decode"},
       {1400.0, 1350.0, 1300.0, 1275.0, 1250.0, 1225.0, 1200.0, 1150.0, 1100.0, 1000.0},
       1e-4,
       2,
       CacheMode::kNone,
       4.6},
      {"warm_large", {}, {1300.0}, 1e-2, 1, CacheMode::kPrimed, 0.85},
  };
  return defs;
}

/// Deterministic work counters read from obs::MetricsRegistry around the
/// untraced calls of the first pass.
const std::vector<const char*> kWorkCounters = {
    "sim.cycles",           "sim.gate_toggles",         "timing.paths_enumerated",
    "timing.path_expansions", "dta.stage_dts_queries",  "dta.edges_characterized",
    "dta.slots_driven",     "dta.dp_fallbacks",         "dta.dp_cache_collisions",
    "stat.clark_min_calls", "core.instructions_simulated", "solver.linear_solves",
    "cache.hits",           "cache.misses",             "cache.bytes_read",
    "cache.bytes_written",
};

constexpr std::size_t kRunsPerProgram = 4;
/// Set-ups timed per run, for a steady median.  Cold workloads set up at
/// least once per pass; the primed workload's set-up takes seconds, so it
/// gets fewer.
constexpr std::size_t kColdSetups = 15;
constexpr std::size_t kPrimedSetups = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 2026;
  double seconds = 20.0;
  bool trace = false;
  std::size_t threads = 0;  ///< 0 = the workload's own
};

const char* const kWorkDir = ".bench_build/work";

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw robust::Error(robust::Category::kInput, "missing value for " + flag);
    }
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = robust::parse_uint_arg(flag, value);
    } else if (flag == "--seconds") {
      o.seconds = robust::parse_double_arg(flag, value);
      if (o.seconds <= 0.0)
        throw robust::Error(robust::Category::kInput, "--seconds must be positive");
    } else if (flag == "--trace") {
      const std::uint64_t t = robust::parse_uint_arg(flag, value);
      if (t > 1) throw robust::Error(robust::Category::kInput, "--trace takes 0 or 1");
      o.trace = t == 1;
    } else if (flag == "--threads") {
      o.threads = robust::parse_uint_arg(flag, value);
      if (o.threads == 0 || o.threads > 64)
        throw robust::Error(robust::Category::kInput, "--threads must be in 1..64");
    } else {
      throw robust::Error(robust::Category::kInput, "unknown flag " + flag);
    }
  }
  if (o.workload.empty()) throw robust::Error(robust::Category::kInput, "--workload is required");
  return o;
}

struct Call {
  const workloads::WorkloadSpec* spec;
  double period_ps;
  std::size_t program;  ///< index into Prepared::programs
};

struct Prepared {
  std::vector<isa::Program> programs;
  std::vector<std::vector<isa::ProgramInput>> inputs;
  std::vector<isa::ExecutorConfig> executors;
  std::vector<Call> calls;
};

Prepared prepare(const WorkloadDef& def, std::uint64_t seed) {
  Prepared p;
  std::vector<const workloads::WorkloadSpec*> specs;
  for (const auto& spec : workloads::mibench_specs()) {
    if (def.programs.empty() ||
        std::find(def.programs.begin(), def.programs.end(), spec.name) != def.programs.end())
      specs.push_back(&spec);
  }
  if (!def.programs.empty()) {
    // Keep the workload's listed order, not Table 2's.
    std::vector<const workloads::WorkloadSpec*> ordered;
    for (const char* name : def.programs) {
      for (const auto* s : specs) {
        if (s->name == name) ordered.push_back(s);
      }
    }
    specs = ordered;
  }
  for (const auto* spec : specs) {
    p.programs.push_back(workloads::generate_program(*spec));
    p.inputs.push_back(workloads::generate_inputs(*spec, kRunsPerProgram, seed));
    p.executors.push_back(workloads::executor_config_for(*spec, kRunsPerProgram, def.scale));
  }
  for (double period : def.periods_ps) {
    for (std::size_t i = 0; i < specs.size(); ++i) p.calls.push_back({specs[i], period, i});
  }
  return p;
}

/// One set-up: an elaborated pipeline, a framework over it, and (primed
/// workloads) the cold results of the priming calls.  The framework refers
/// to the pipeline, so it is declared after it and reset before it.
struct Rig {
  std::unique_ptr<netlist::Pipeline> pipeline;
  std::unique_ptr<core::ErrorRateFramework> framework;
  std::string cache_dir;
  std::vector<core::BenchmarkResult> primed;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

void select_call(core::ErrorRateFramework& fw, const Prepared& p, const Call& c) {
  fw.set_spec(timing::TimingSpec{c.period_ps});
  fw.set_executor_config(p.executors[c.program]);
}

Rig set_up(const WorkloadDef& def, const Prepared& p, const std::string& cache_dir) {
  Rig rig;
  rig.cache_dir = cache_dir;
  if (!cache_dir.empty()) std::filesystem::remove_all(cache_dir);
  rig.pipeline = std::make_unique<netlist::Pipeline>(netlist::build_pipeline({}));
  core::FrameworkConfig cfg;
  cfg.spec = timing::TimingSpec{def.periods_ps.front()};
  cfg.execution_scale = 1.0 / def.scale;
  cfg.cache_dir = cache_dir;
  rig.framework = std::make_unique<core::ErrorRateFramework>(*rig.pipeline, cfg);
  if (def.cache == CacheMode::kPrimed) {
    for (const Call& c : p.calls) {
      select_call(*rig.framework, p, c);
      rig.primed.push_back(rig.framework->analyze(p.programs[c.program], p.inputs[c.program]));
      if (rig.primed.back().degraded)
        throw robust::Error(robust::Category::kInternal, "priming call degraded");
    }
  }
  return rig;
}

/// Raw measurements of one pass.
struct PassRecord {
  double analyze_s = 0.0;
  double replay_s = 0.0;
  std::uint64_t instructions = 0;
  std::vector<double> latency_ms;
  std::map<std::string, double> phases;
  std::map<std::string, double> layers;  ///< trace: busy seconds per span
  std::map<std::string, double> layers_self;
};

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< first few messages
  std::vector<double> setup_s;
  std::vector<PassRecord> passes;
  std::vector<core::BenchmarkResult> reference;  ///< first pass's results
  std::map<std::string, std::uint64_t> work;
  std::uint64_t pool_tasks = 0;
  std::uint64_t pool_steal_or_wait = 0;
  std::size_t replay_cache_reads = 0;

  void fail(std::string why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(std::move(why));
  }
};

std::string call_label(const Call& c) {
  std::ostringstream os;
  os << c.spec->name << "@" << c.period_ps;
  return os.str();
}

bool plausible(const core::BenchmarkResult& r) {
  const double m = r.estimate.rate_mean();
  const double sd = r.estimate.rate_sd();
  return r.instructions > 0 && std::isfinite(m) && std::isfinite(sd) && m >= 0.0 && m <= 1.0 &&
         sd >= 0.0 && std::isfinite(r.estimate.dk_lambda) && std::isfinite(r.estimate.dk_count);
}

void run_pass(const WorkloadDef& def, const Prepared& p, Rig& rig, bool trace, std::size_t pass,
              Outcome& out, SpanLog& spans) {
  core::ErrorRateFramework& fw = *rig.framework;
  auto& registry = obs::MetricsRegistry::instance();
  PassRecord& rec = out.passes.back();
  const auto pool_before = support::global_pool().stats();
  std::unique_ptr<Replayer> replayer;
  if (trace) {
    spans.clear();
    replayer = std::make_unique<Replayer>(fw, spans);
  }

  for (std::size_t i = 0; i < p.calls.size(); ++i) {
    const Call& c = p.calls[i];
    const std::string label = call_label(c);
    select_call(fw, p, c);
    ++out.attempted;
    std::map<std::string, std::uint64_t> counters_before;
    if (pass == 0) counters_before = registry.counter_values();
    const auto t0 = std::chrono::steady_clock::now();
    core::BenchmarkResult r;
    try {
      r = fw.analyze(p.programs[c.program], p.inputs[c.program]);
    } catch (const std::exception& e) {
      rec.latency_ms.push_back(seconds_since(t0) * 1e3);
      out.fail(label + ": analyze threw: " + e.what());
      if (pass == 0) out.reference.emplace_back();  // keeps calls and results aligned
      continue;
    }
    const double dt = seconds_since(t0);
    rec.analyze_s += dt;
    rec.latency_ms.push_back(dt * 1e3);
    rec.instructions += r.instructions;
    rec.phases["simulation"] += r.simulation_seconds;
    rec.phases["training"] += r.training_seconds;
    rec.phases["estimation"] += r.estimation_seconds;
    if (pass == 0) {
      const auto counters_after = registry.counter_values();
      for (const char* name : kWorkCounters) {
        const auto a = counters_after.find(name);
        const auto b = counters_before.find(name);
        out.work[name] += (a == counters_after.end() ? 0 : a->second) -
                          (b == counters_before.end() ? 0 : b->second);
      }
    }

    bool ok = true;
    if (r.degraded) {
      out.fail(label + ": degraded");
      ok = false;
    } else if (!plausible(r)) {
      out.fail(label + ": implausible estimate");
      ok = false;
    } else if (def.cache == CacheMode::kPrimed) {
      if (!perfbench::same_estimate(r.estimate, rig.primed[i].estimate)) {
        out.fail(label + ": warm estimate differs from cold");
        ok = false;
      } else if (r.cache_hits == 0) {
        out.fail(label + ": warm call did not read the cache");
        ok = false;
      }
    } else if (pass > 0 && !perfbench::same_estimate(r.estimate, out.reference[i].estimate)) {
      out.fail(label + ": estimate differs from the first pass");
      ok = false;
    }

    if (ok && trace) {
      try {
        const auto r0 = std::chrono::steady_clock::now();
        auto replayed = replayer->replay(p.programs[c.program], p.inputs[c.program],
                                         def.cache == CacheMode::kPrimed ? rig.cache_dir : "");
        rec.replay_s += seconds_since(r0);
        if (replayed.control_from_cache) ++out.replay_cache_reads;
        const auto& last = fw.last();
        if (replayed.instructions != r.instructions) {
          out.fail(label + ": replayed instruction count differs");
        } else if (!perfbench::same_control(replayed.control, last.control)) {
          out.fail(label + ": replayed control tables differ");
        } else if (!perfbench::same_estimate(replayed.estimate, r.estimate)) {
          out.fail(label + ": replayed estimate differs");
        } else if (replayed.control_from_cache && pass == 0) {
          // A warm replay read the tables; in the first pass characterise
          // them too, so the gate-level layers are measured and the cache
          // is checked against a fresh characterisation.
          SpanLog::Scope verify(spans, "verify");
          const auto fresh =
              replayer->characterize(p.programs[c.program], *last.cfg, last.executor->profile());
          if (!perfbench::same_control(fresh, last.control))
            out.fail(label + ": cached control tables differ from a fresh characterisation");
        }
      } catch (const std::exception& e) {
        out.fail(label + ": replay threw: " + e.what());
      }
    }
    if (pass == 0) out.reference.push_back(r);
  }

  if (pass == 0) {
    const auto pool_after = support::global_pool().stats();
    out.pool_tasks = pool_after.tasks - pool_before.tasks;
    out.pool_steal_or_wait = pool_after.steal_or_wait - pool_before.steal_or_wait;
  }
  if (trace) {
    rec.layers = spans.busy_seconds();
    rec.layers_self = spans.self_seconds();
  }
}

// --- JSON output -----------------------------------------------------------

void write_map(std::ostream& os, const std::map<std::string, double>& m) {
  os << "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) os << ",";
    first = false;
    obs::json_string(os, k);
    os << ":";
    obs::json_number(os, v);
  }
  os << "}";
}

void write_record(std::ostream& os, const Options& o, const WorkloadDef& def, const Prepared& p,
                  const Outcome& out, std::size_t gate_count) {
  os << "{\"workload\":";
  obs::json_string(os, def.name);
  os << ",\"seed\":";
  obs::json_number(os, o.seed);
  os << ",\"trace\":" << (o.trace ? "true" : "false");
  os << ",\"meta\":{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"threads\":" << support::global_pool().size() << ",\"build_type\":";
  obs::json_string(os, PERFBENCH_BUILD_TYPE);
  os << ",\"compiler\":";
  obs::json_string(os, "g++/clang " __VERSION__);
  os << ",\"scale\":";
  obs::json_number(os, def.scale);
  os << ",\"runs_per_program\":" << kRunsPerProgram << ",\"gates\":" << gate_count << "}";
  os << ",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed << ",\"failures\":[";
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    if (i != 0) os << ",";
    obs::json_string(os, out.failures[i]);
  }
  os << "],\"setup_s\":[";
  for (std::size_t i = 0; i < out.setup_s.size(); ++i) {
    if (i != 0) os << ",";
    obs::json_number(os, out.setup_s[i]);
  }
  os << "],\"passes\":[";
  for (std::size_t i = 0; i < out.passes.size(); ++i) {
    const PassRecord& r = out.passes[i];
    if (i != 0) os << ",";
    os << "{\"analyze_s\":";
    obs::json_number(os, r.analyze_s);
    os << ",\"replay_s\":";
    obs::json_number(os, r.replay_s);
    os << ",\"instructions\":";
    obs::json_number(os, r.instructions);
    os << ",\"latency_ms\":[";
    for (std::size_t k = 0; k < r.latency_ms.size(); ++k) {
      if (k != 0) os << ",";
      obs::json_number(os, r.latency_ms[k]);
    }
    os << "],\"phases\":";
    write_map(os, r.phases);
    os << ",\"layers\":";
    write_map(os, r.layers);
    os << ",\"layers_self\":";
    write_map(os, r.layers_self);
    os << "}";
  }
  os << "],\"results\":[";
  for (std::size_t i = 0; i < out.reference.size(); ++i) {
    const auto& r = out.reference[i];
    if (i != 0) os << ",";
    os << "{\"program\":";
    obs::json_string(os, r.name);
    os << ",\"period_ps\":";
    obs::json_number(os, p.calls[i].period_ps);
    os << ",\"rate_mean\":";
    obs::json_number(os, r.estimate.rate_mean());
    os << ",\"rate_sd\":";
    obs::json_number(os, r.estimate.rate_sd());
    os << ",\"dk_lambda\":";
    obs::json_number(os, r.estimate.dk_lambda);
    os << ",\"dk_count\":";
    obs::json_number(os, r.estimate.dk_count);
    os << "}";
  }
  os << "],\"work\":{";
  bool first = true;
  for (const auto& [k, v] : out.work) {
    if (!first) os << ",";
    first = false;
    obs::json_string(os, k);
    os << ":";
    obs::json_number(os, v);
  }
  os << "},\"pool\":{\"tasks\":";
  obs::json_number(os, out.pool_tasks);
  os << ",\"steal_or_wait\":";
  obs::json_number(os, out.pool_steal_or_wait);
  os << "},\"replay_cache_reads\":" << out.replay_cache_reads;
  os << ",\"peak_rss_bytes\":";
  obs::json_number(os, obs::peak_rss_bytes());
  os << "}\n";
}

int run(const Options& o) {
  const auto& defs = workload_defs();
  const auto it = std::find_if(defs.begin(), defs.end(),
                               [&](const WorkloadDef& d) { return o.workload == d.name; });
  if (it == defs.end())
    throw robust::Error(robust::Category::kInput, "unknown workload '" + o.workload + "'");
  const WorkloadDef& def = *it;
  support::set_global_threads(o.threads != 0 ? o.threads : def.threads);

  const Prepared p = prepare(def, o.seed);
  // A traced pass also replays every call, so a traced run makes half as
  // many passes to take about as long as an untraced one.
  const double pass_s = def.nominal_pass_s * (o.trace ? 2.0 : 1.0);
  const auto passes =
      static_cast<std::size_t>(std::max<long long>(1, std::llround(o.seconds / pass_s)));
  std::filesystem::create_directories(kWorkDir);
  const std::string cache_root =
      std::string(kWorkDir) + "/cache-" + std::to_string(static_cast<long long>(getpid()));

  Outcome out;
  SpanLog spans;
  Rig rig;
  std::size_t gate_count = 0;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    out.passes.emplace_back();
    if (pass == 0 || def.cache != CacheMode::kPrimed) {
      // Cold workloads set up afresh every pass, so every pass does the
      // same work, and spread their timed set-ups over the run; the primed
      // workload sets up before the first pass only.
      const std::size_t setups = def.cache == CacheMode::kPrimed
                                     ? kPrimedSetups
                                     : (kColdSetups + passes - 1) / passes;
      for (std::size_t k = 0; k < setups; ++k) {
        rig.framework.reset();
        const std::string dir = def.cache == CacheMode::kNone
                                    ? std::string()
                                    : cache_root + "-" + std::to_string(pass) + "-" +
                                          std::to_string(k);
        const auto t0 = std::chrono::steady_clock::now();
        rig = set_up(def, p, dir);
        out.setup_s.push_back(seconds_since(t0));
        if (k + 1 < setups && !dir.empty()) std::filesystem::remove_all(dir);
      }
      gate_count = rig.pipeline->netlist.size();
    }
    run_pass(def, p, rig, o.trace, pass, out, spans);
    if (def.cache == CacheMode::kFresh) std::filesystem::remove_all(rig.cache_dir);
  }
  if (!rig.cache_dir.empty()) std::filesystem::remove_all(rig.cache_dir);
  if (o.trace) {
    std::ofstream os(std::string(kWorkDir) + "/" + def.name + ".spans.json");
    spans.write_chrome(os);
  }
  write_record(std::cout, o, def, p, out, gate_count);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const robust::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return robust::exit_code_for(e.category());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
