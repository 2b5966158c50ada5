// terrors — command-line front end to the library.
//
//   terrors info                         pipeline + operating-point summary
//   terrors list                         available benchmarks
//   terrors program <name>               generated program listing
//   terrors report <file> [--top N]      render a run-report JSON file
//   terrors diff <old> <new>             regression gate over two run reports
//   terrors analyze <name> [--period P] [--scale S] [--runs R] [--threads T]
//                   [--trace F] [--metrics F] [--report F]
//                   [--report-mc N] [--journal F] [--profile F]
//                   [--cache-dir D]
//                                        full error-rate analysis row
//   terrors stats <journal>              aggregate a run-journal JSONL file
//   terrors profile <folded> [--top N]   hotspot table from folded stacks
//
// Failures surface as typed error chains (`error: [category] ...: caused
// by: ...`) with category exit codes: 3 input, 4 artifact, 5 numerical,
// 6 resource, 7 internal (0 ok, 1 generic, 2 diff regression).  A fault
// plan from --inject-faults / TERRORS_FAULTS arms deterministic chaos
// (see src/robust/fault_injection.hpp).  After its summary, a degraded
// `analyze` writes one `warning: degraded <site>: <first detail>` line
// per degraded site to stderr; a healthy run writes nothing there.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "netlist/pipeline.hpp"
#include "perf/ts_model.hpp"
#include "report/attribution.hpp"
#include "report/diff.hpp"
#include "report/journal_stats.hpp"
#include "report/render.hpp"
#include "report/run_report.hpp"
#include "robust/degrade.hpp"
#include "robust/error.hpp"
#include "robust/fault_injection.hpp"
#include "robust/parse.hpp"
#include "support/thread_pool.hpp"
#include "timing/sta.hpp"
#include "workloads/generator.hpp"
#include "workloads/specs.hpp"

using namespace terrors;

namespace {

// Strict flags and checked values (robust/parse.hpp), shared with the
// benches.
using robust::num_flag;
using robust::parse_flags;
using robust::uint_flag;

/// Print a typed error chain and return its category exit code.
int print_error(const std::exception& e) {
  if (const auto* err = dynamic_cast<const robust::Error*>(&e)) {
    std::fprintf(stderr, "error: %s\n", err->render().c_str());
    return robust::exit_code_for(err->category());
  }
  std::fprintf(stderr, "error: [%s] %s\n",
               std::string(robust::category_name(robust::classify(e))).c_str(), e.what());
  return robust::exit_code_for(robust::classify(e));
}

const workloads::WorkloadSpec* find_spec(const char* name) {
  for (const auto& s : workloads::mibench_specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const netlist::Pipeline& pipe() {
  static const netlist::Pipeline p = netlist::build_pipeline({});
  return p;
}

int cmd_info() {
  const auto stats = pipe().netlist.stats();
  const timing::Sta sta(pipe().netlist);
  std::printf("synthetic 6-stage in-order integer pipeline\n");
  std::printf("  gates          : %zu (%zu combinational)\n", stats.gates, stats.combinational);
  std::printf("  flip-flops     : %zu\n", stats.dffs);
  std::printf("  primary inputs : %zu, outputs: %zu\n", stats.inputs, stats.outputs);
  std::printf("  static fmax    : %.1f MHz\n", sta.max_frequency_mhz());
  for (std::uint8_t s = 0; s < netlist::Pipeline::kStages; ++s) {
    std::printf("  stage %d        : %zu endpoints, worst slack @1300ps = %.1f ps\n", s,
                pipe().netlist.stage_endpoints(s).size(),
                sta.worst_stage_slack(s, timing::TimingSpec{1300.0}));
  }
  const perf::TsProcessorModel ts;
  std::printf("  TS break-even  : %.3f %% error rate at 1.15x\n",
              100.0 * ts.break_even_error_rate());
  return 0;
}

int cmd_list() {
  std::printf("%-14s %-11s %6s %15s\n", "name", "category", "blocks", "instructions");
  for (const auto& s : workloads::mibench_specs())
    std::printf("%-14s %-11s %6d %15llu\n", s.name.c_str(),
                std::string(workloads::category_name(s.category)).c_str(), s.basic_blocks,
                static_cast<unsigned long long>(s.paper_instructions));
  return 0;
}

int cmd_program(const char* name) {
  const auto* spec = find_spec(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown benchmark '%s'\n", name);
    return 1;
  }
  std::fputs(workloads::generate_program(*spec).to_string().c_str(), stdout);
  return 0;
}

int cmd_report(int argc, char** argv) {
  if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
    std::fprintf(stderr, "usage: terrors report <report.json> [--top N]\n");
    return 1;
  }
  std::map<std::string, std::string> flags;
  if (!parse_flags(argc, argv, 3, {{"--top", true}}, flags)) return 1;
  const auto top = static_cast<std::size_t>(uint_flag(flags, "--top", 10));
  try {
    const report::RunReport r = report::RunReport::load(argv[2]);
    report::write_text(r, std::cout, top);
  } catch (const std::exception& e) {
    return print_error(e);
  }
  return 0;
}

int cmd_diff(int argc, char** argv) {
  if (argc < 4 || std::strncmp(argv[2], "--", 2) == 0 || std::strncmp(argv[3], "--", 2) == 0) {
    std::fprintf(stderr, "usage: terrors diff <old.json> <new.json> [--max-rel-delta D]\n"
                         "                    [--max-share-drift D]\n");
    return 1;
  }
  std::map<std::string, std::string> flags;
  if (!parse_flags(argc, argv, 4, {{"--max-rel-delta", true}, {"--max-share-drift", true}},
                   flags))
    return 1;
  report::DiffOptions opt;
  opt.max_rel_delta = num_flag(flags, "--max-rel-delta", opt.max_rel_delta);
  opt.max_share_drift = num_flag(flags, "--max-share-drift", opt.max_share_drift);
  try {
    const report::RunReport before = report::RunReport::load(argv[2]);
    const report::RunReport after = report::RunReport::load(argv[3]);
    const report::DiffResult result = report::diff_reports(before, after, opt);
    report::write_diff(result, std::cout);
    return result.ok() ? 0 : 2;
  } catch (const std::exception& e) {
    return print_error(e);
  }
}

int cmd_analyze(int argc, char** argv, const char* name) {
  const auto* spec = find_spec(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown benchmark '%s'\n", name);
    return 1;
  }
  std::map<std::string, std::string> flags;
  if (!parse_flags(argc, argv, 3,
                   {{"--period", true},
                    {"--scale", true},
                    {"--runs", true},
                    {"--threads", true},
                    {"--trace", true},
                    {"--metrics", true},
                    {"--report", true},
                    {"--report-mc", true},
                    {"--journal", true},
                    {"--profile", true},
                    {"--cache-dir", true},
                    {"--inject-faults", true},
                    {"--strict", false}},
                   flags))
    return 1;
  if (const auto it = flags.find("--inject-faults"); it != flags.end()) {
    try {
      robust::FaultInjector::instance().arm(robust::FaultPlan::parse(it->second));
    } catch (const std::exception& e) {
      return print_error(e);
    }
  }
  const bool strict = flags.count("--strict") != 0;
  const double period = num_flag(flags, "--period", 1300.0);
  const double scale = num_flag(flags, "--scale", 1e-4);
  const auto runs = static_cast<std::size_t>(uint_flag(flags, "--runs", 4));
  if (const auto it = flags.find("--threads"); it != flags.end())
    support::set_global_threads(
        static_cast<std::size_t>(robust::parse_uint_arg("--threads", it->second)));

  // The profile is a fold of the tracer's spans, so --profile implies
  // tracing even without a --trace output file.
  if (flags.count("--trace") != 0 || flags.count("--profile") != 0)
    obs::Tracer::instance().set_enabled(true);

  core::FrameworkConfig cfg;
  cfg.spec = timing::TimingSpec{period};
  cfg.execution_scale = 1.0 / scale;
  if (const auto it = flags.find("--cache-dir"); it != flags.end()) cfg.cache_dir = it->second;
  if (const auto it = flags.find("--journal"); it != flags.end()) cfg.journal_path = it->second;
  const bool want_report = flags.count("--report") != 0;
  const auto mc_trials = static_cast<std::size_t>(uint_flag(flags, "--report-mc", 0));
  core::ErrorRateFramework framework(pipe(), cfg);
  isa::ExecutorConfig ecfg = workloads::executor_config_for(*spec, runs, scale);
  // The MC cross-check replays the dynamic block sequence; recording it
  // does not perturb the sampling RNG or the profile statistics.
  if (want_report && mc_trials > 0) ecfg.record_block_trace = true;
  framework.set_executor_config(ecfg);
  const isa::Program program = workloads::generate_program(*spec);
  core::BenchmarkResult r;
  try {
    r = framework.analyze(program, workloads::generate_inputs(*spec, runs, 2026));
  } catch (const std::exception& e) {
    return print_error(e);
  }
  const perf::TsProcessorModel ts;
  std::printf("%s @ %.1f MHz (scale %.0e, %zu runs)\n", spec->name.c_str(),
              cfg.spec.frequency_mhz(), scale, runs);
  std::printf("  run id           : %s\n", r.run_id.c_str());
  std::printf("  instructions     : %llu simulated\n",
              static_cast<unsigned long long>(r.instructions));
  std::printf("  error rate       : %.4f %% (SD %.4f %%)\n", 100.0 * r.estimate.rate_mean(),
              100.0 * r.estimate.rate_sd());
  std::printf("  d_K(lambda)      : %.4f   d_K(R_E): %.4f\n", r.estimate.dk_lambda,
              r.estimate.dk_count);
  std::printf("  train / sim time : %.2f s / %.3f s\n", r.training_seconds,
              r.simulation_seconds);
  if (r.cache_hits + r.cache_misses > 0)
    std::printf("  artifact cache   : %llu hits, %llu misses\n",
                static_cast<unsigned long long>(r.cache_hits),
                static_cast<unsigned long long>(r.cache_misses));
  std::printf("  TS net perf      : %+.2f %%\n",
              100.0 * ts.performance_improvement(std::min(1.0, r.estimate.rate_mean())));
  if (r.degraded) {
    std::string sites;
    for (const auto& d : r.degradation) {
      if (!sites.empty()) sites += ", ";
      sites += d.site;
    }
    std::printf("  degraded         : yes (%s) — best-effort result\n", sites.c_str());
  }
  // The warnings follow the summary even when both streams share a file.
  std::fflush(stdout);
  for (const auto& d : r.degradation)
    std::fprintf(stderr, "warning: degraded %s: %s\n", d.site.c_str(), d.detail.c_str());

  // Peripheral outputs (trace, profile, report, metrics): the estimate is
  // already on stdout, so a failed write degrades (warn + robust.degraded.io)
  // instead of failing the analysis — unless --strict asks otherwise.  The
  // failures stay out of `r`, whose summary and report describe the
  // analysis.
  int peripheral_rc = 0;
  std::vector<robust::Degradation> peripheral_failures;
  auto peripheral = [&](const char* what, const std::string& path, auto&& writer) {
    try {
      robust::maybe_fault("io.write");
      std::ofstream out(path);
      if (!out) {
        robust::raise(robust::Category::kResource,
                      std::string("cannot open ") + what + " file '" + path + "'");
      }
      writer(out);
      out.flush();
      if (!out) {
        robust::raise(robust::Category::kResource,
                      std::string("write to ") + what + " file '" + path + "' failed");
      }
    } catch (const std::exception& e) {
      robust::note_degraded(peripheral_failures, "io",
                            std::string(what) + " write failed: " + e.what());
      std::fprintf(stderr, "warning: %s\n", e.what());
      if (strict && peripheral_rc == 0) peripheral_rc = print_error(e);
    }
  };

  if (const auto it = flags.find("--trace"); it != flags.end()) {
    peripheral("trace", it->second,
               [](std::ostream& out) { obs::Tracer::instance().write_chrome_trace(out); });
  }
  if (const auto it = flags.find("--profile"); it != flags.end()) {
    peripheral("profile", it->second,
               [](std::ostream& out) { obs::Tracer::instance().write_folded(out); });
  }
  if (want_report) {
    report::ReportOptions ropt;
    ropt.mc_trials = mc_trials;
    ropt.threads = support::global_pool().size();
    peripheral("report", flags.at("--report"), [&](std::ostream& out) {
      report::build_report(framework, program, r, ropt).write_json(out);
    });
  }
  if (const auto it = flags.find("--metrics"); it != flags.end()) {
    peripheral("metrics", it->second,
               [](std::ostream& out) { obs::MetricsRegistry::instance().write_json(out); });
  }
  return peripheral_rc;
}

int cmd_stats(int argc, char** argv) {
  if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
    std::fprintf(stderr, "usage: terrors stats <journal.jsonl>\n");
    return 1;
  }
  std::map<std::string, std::string> flags;
  if (!parse_flags(argc, argv, 3, {}, flags)) return 1;
  try {
    const auto events = report::load_journal(argv[2]);
    report::write_stats_text(report::aggregate(events), std::cout);
  } catch (const std::exception& e) {
    return print_error(e);
  }
  return 0;
}

int cmd_profile(int argc, char** argv) {
  if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
    std::fprintf(stderr, "usage: terrors profile <folded.txt> [--top N]\n");
    return 1;
  }
  std::map<std::string, std::string> flags;
  if (!parse_flags(argc, argv, 3, {{"--top", true}}, flags)) return 1;
  const auto top = static_cast<std::size_t>(uint_flag(flags, "--top", 15));
  const std::string path = argv[2];
  try {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      robust::raise(robust::Category::kResource, "cannot open folded stacks '" + path + "'");
    }
    std::map<std::string, std::uint64_t> folded;
    try {
      folded = obs::parse_folded(in);
    } catch (const robust::Error&) {
      throw;
    } catch (const std::exception& e) {
      throw robust::Error::wrap("load folded stacks '" + path + "'", e,
                                robust::Category::kArtifact);
    }
    obs::write_hotspots(folded, std::cout, top);
  } catch (const std::exception& e) {
    return print_error(e);
  }
  return 0;
}

constexpr const char* kCommands[] = {"info", "list", "program", "report", "diff", "analyze",
                                     "stats", "profile"};

void usage() {
  std::fputs(
      "usage: terrors <command> [options]\n"
      "  info                          pipeline and operating-point summary\n"
      "  list                          available benchmarks\n"
      "  program <name>                print the generated program\n"
      "  report <file> [--top N]       render a run-report JSON file\n"
      "  diff <old> <new>              compare two run reports; exit 2 on regression\n"
      "       [--max-rel-delta D]      headline accuracy tolerance (default 0.01)\n"
      "       [--max-share-drift D]    per-block error-mass drift (default 0.05)\n"
      "  analyze <name> [--period P] [--scale S] [--runs R]\n"
      "          [--threads T]         worker threads (0 = all cores; or TERRORS_THREADS)\n"
      "          [--trace FILE]        write a Chrome trace_event JSON phase tree\n"
      "          [--metrics FILE]      write the metric counters as JSON\n"
      "          [--report FILE]       write the error-attribution run report (JSON)\n"
      "          [--report-mc N]       add an N-trial Monte-Carlo cross-check\n"
      "          [--journal FILE]      append a wide run event (JSONL; or TERRORS_JOURNAL)\n"
      "          [--profile FILE]      write span self times (us) as folded stacks\n"
      "                                for flamegraph.pl / speedscope\n"
      "          [--cache-dir DIR]     content-addressed artifact cache (or\n"
      "                                TERRORS_CACHE_DIR; off by default)\n"
      "          [--inject-faults SPEC] arm a deterministic fault plan (or\n"
      "                                TERRORS_FAULTS), e.g. cache.read:prob=1:seed=7\n"
      "          [--strict]            fail on peripheral write errors\n"
      "  stats <journal>               aggregate a run journal (phase p50/p95, cache,\n"
      "                                per-program last-vs-typical)\n"
      "  profile <folded> [--top N]    hotspot table from a folded-stack file\n"
      "flags accept both '--flag value' and '--flag=value'\n"
      "error exit codes: 1 generic, 2 diff regression, 3 input, 4 artifact,\n"
      "                  5 numerical, 6 resource, 7 internal\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  // TERRORS_FAULTS arms a process-wide chaos plan for any command; an
  // explicit --inject-faults later replaces it.
  if (const char* env = std::getenv("TERRORS_FAULTS"); env != nullptr && env[0] != '\0') {
    try {
      robust::FaultInjector::instance().arm(robust::FaultPlan::parse(env));
    } catch (const std::exception& e) {
      return print_error(e);
    }
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "info") return cmd_info();
    if (cmd == "list") return cmd_list();
    if (cmd == "report") return cmd_report(argc, argv);
    if (cmd == "diff") return cmd_diff(argc, argv);
    if (cmd == "stats") return cmd_stats(argc, argv);
    if (cmd == "profile") return cmd_profile(argc, argv);
    if (cmd == "program" && argc >= 3) return cmd_program(argv[2]);
    if (cmd == "analyze" && argc >= 3) return cmd_analyze(argc, argv, argv[2]);
  } catch (const std::exception& e) {
    return print_error(e);
  }
  bool known = false;
  for (const char* c : kCommands) known = known || cmd == c;
  if (!known) {
    std::string all;
    for (const char* c : kCommands) {
      if (!all.empty()) all += ", ";
      all += c;
    }
    std::fprintf(stderr, "unknown command '%s' (available: %s)\n", cmd.c_str(), all.c_str());
  }
  usage();
  return 1;
}
