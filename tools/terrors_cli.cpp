// terrors — command-line front end to the library.
//
//   terrors info                         pipeline + operating-point summary
//   terrors list                         available benchmarks
//   terrors program <name>               generated program listing
//   terrors report [--period P] [--n N]  signoff-style timing report
//   terrors report <file> [--top N]      render a run-report JSON file
//   terrors diff <old> <new>             regression gate over two run reports
//   terrors analyze <name> [--period P] [--scale S] [--runs R] [--threads T]
//                   [--trace F] [--trace-tree] [--trace-limit N]
//                   [--metrics F] [--report F]
//                   [--report-mc N] [--journal F] [--profile F]
//                   [--cache-dir D]
//                                        full error-rate analysis row
//   terrors stats <journal>              aggregate a run-journal JSONL file
//   terrors tail <journal> [--n N]       render the newest journal events
//   terrors profile <folded> [--top N]   hotspot table from folded stacks
//   terrors vcd <name> [--cycles N]      VCD dump of a benchmark window
//   terrors doctor [--cache-dir D]       environment self-test
//
// Failures surface as typed error chains (`error: [category] ...: caused
// by: ...`) with category exit codes: 3 input, 4 artifact, 5 numerical,
// 6 resource, 7 internal (0 ok, 1 generic, 2 diff regression).  A fault
// plan from --inject-faults / TERRORS_FAULTS arms deterministic chaos
// (see src/robust/fault_injection.hpp).  After its summary, a degraded
// `analyze` writes one `warning: degraded <site>: <first detail>` line
// per degraded site to stderr; a healthy run writes nothing there
// (unless --trace-tree asks for the phase tree).
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
#include "dta/pipeline_driver.hpp"
#include "netlist/pipeline.hpp"
#include "perf/ts_model.hpp"
#include "report/attribution.hpp"
#include "report/diff.hpp"
#include "report/journal_stats.hpp"
#include "report/render.hpp"
#include "report/run_report.hpp"
#include "robust/degrade.hpp"
#include "robust/doctor.hpp"
#include "robust/error.hpp"
#include "robust/fault_injection.hpp"
#include "robust/parse.hpp"
#include "sim/vcd.hpp"
#include "support/thread_pool.hpp"
#include "timing/report.hpp"
#include "timing/sta.hpp"
#include "workloads/generator.hpp"
#include "workloads/specs.hpp"

using namespace terrors;

namespace {

struct FlagSpec {
  const char* name;       ///< including the leading "--"
  bool takes_value;
};

/// Parse argv[start..argc) against `specs`.  Both `--flag=V` and
/// `--flag V` are accepted; unknown or malformed flags are reported on
/// stderr (instead of being silently ignored) and fail the parse.
bool parse_flags(int argc, char** argv, int start, std::initializer_list<FlagSpec> specs,
                 std::map<std::string, std::string>& out) {
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
      return false;
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const FlagSpec* spec = nullptr;
    for (const auto& s : specs) {
      if (name == s.name) spec = &s;
    }
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown flag '%s'\n", name.c_str());
      return false;
    }
    if (!spec->takes_value) {
      if (eq != std::string::npos) {
        std::fprintf(stderr, "flag '%s' takes no value\n", name.c_str());
        return false;
      }
      out[name] = "";
      continue;
    }
    if (eq != std::string::npos) {
      out[name] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      out[name] = argv[++i];
    } else {
      std::fprintf(stderr, "flag '%s' needs a value\n", name.c_str());
      return false;
    }
  }
  return true;
}

// Checked flag accessors (robust/parse.hpp): garbage like "--threads=abc"
// or "--threads=-1" surfaces as a typed kInput error naming the flag and
// value (exit 3), never as an untyped std::sto* crash or a silent wrap of
// a negative into a huge unsigned.
double num_flag(const std::map<std::string, std::string>& flags, const char* name,
                double fallback) {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : robust::parse_double_arg(name, it->second);
}

std::uint64_t uint_flag(const std::map<std::string, std::string>& flags, const char* name,
                        std::uint64_t fallback) {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : robust::parse_uint_arg(name, it->second);
}

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
  // With a positional file argument this renders a run-report JSON file;
  // flags only keep the original signoff-style timing report.
  if (argc >= 3 && std::strncmp(argv[2], "--", 2) != 0) {
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
  std::map<std::string, std::string> flags;
  if (!parse_flags(argc, argv, 2, {{"--period", true}, {"--n", true}}, flags)) return 1;
  const double period = num_flag(flags, "--period", 1300.0);
  const auto n = static_cast<std::size_t>(uint_flag(flags, "--n", 10));
  timing::PathEnumerator paths(pipe().netlist);
  const timing::VariationModel vm(pipe().netlist, {});
  timing::ReportConfig cfg;
  cfg.max_paths = n;
  cfg.show_statistics = true;
  timing::write_timing_report(std::cout, pipe().netlist, timing::TimingSpec{period}, paths, &vm,
                              cfg);
  return 0;
}

int cmd_diff(int argc, char** argv) {
  if (argc < 4 || std::strncmp(argv[2], "--", 2) == 0 || std::strncmp(argv[3], "--", 2) == 0) {
    std::fprintf(stderr, "usage: terrors diff <old.json> <new.json> [--max-rel-delta D]\n"
                         "                    [--max-share-drift D] [--max-runtime-ratio R]\n");
    return 1;
  }
  std::map<std::string, std::string> flags;
  if (!parse_flags(argc, argv, 4,
                   {{"--max-rel-delta", true},
                    {"--max-share-drift", true},
                    {"--max-runtime-ratio", true}},
                   flags))
    return 1;
  report::DiffOptions opt;
  opt.max_rel_delta = num_flag(flags, "--max-rel-delta", opt.max_rel_delta);
  opt.max_share_drift = num_flag(flags, "--max-share-drift", opt.max_share_drift);
  opt.max_runtime_ratio = num_flag(flags, "--max-runtime-ratio", opt.max_runtime_ratio);
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
                    {"--trace-tree", false},
                    {"--trace-limit", true},
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

  if (const auto it = flags.find("--trace-limit"); it != flags.end()) {
    obs::Tracer::instance().set_span_limit(
        static_cast<std::size_t>(robust::parse_uint_arg("--trace-limit", it->second)));
  }
  // The profile is a fold of the tracer's spans, so --profile implies
  // tracing even without a --trace output file.
  const bool tracing = flags.count("--trace") != 0 || flags.count("--trace-tree") != 0 ||
                       flags.count("--profile") != 0;
  if (tracing) obs::Tracer::instance().set_enabled(true);

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
    for (const auto& site : r.degraded_sites) {
      if (!sites.empty()) sites += ", ";
      sites += site;
    }
    std::printf("  degraded         : yes (%s) — best-effort result\n", sites.c_str());
  }
  // The warnings follow the summary even when both streams share a file.
  std::fflush(stdout);
  for (const auto& entry : robust::DegradationLog::instance().entries())
    std::fprintf(stderr, "warning: degraded %s: %s\n", entry.site.c_str(), entry.detail.c_str());

  // Peripheral outputs (trace, report, metrics): the headline estimate is
  // already on stdout, so a failed write degrades (warn + robust.degraded)
  // instead of failing the analysis — unless --strict asks otherwise.
  int peripheral_rc = 0;
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
      robust::note_degraded("io", std::string(what) + " write failed: " + e.what());
      std::fprintf(stderr, "warning: %s\n", e.what());
      if (strict && peripheral_rc == 0) peripheral_rc = print_error(e);
    }
  };

  if (const auto it = flags.find("--trace"); it != flags.end()) {
    peripheral("trace", it->second,
               [](std::ostream& out) { obs::Tracer::instance().write_chrome_trace(out); });
  }
  if (flags.count("--trace-tree") != 0) obs::Tracer::instance().write_text_tree(std::cerr);
  if (const auto it = flags.find("--profile"); it != flags.end()) {
    peripheral("profile", it->second,
               [](std::ostream& out) { obs::Tracer::instance().write_folded(out); });
  }
  if (want_report) {
    const std::string& path = flags.at("--report");
    try {
      report::ReportOptions ropt;
      ropt.mc_trials = mc_trials;
      ropt.threads = support::global_pool().size();
      report::build_report(framework, program, r, ropt).save(path);
    } catch (const std::exception& e) {
      robust::note_degraded("io", std::string("run report write failed: ") + e.what());
      std::fprintf(stderr, "warning: cannot write report '%s': %s\n", path.c_str(), e.what());
      if (strict && peripheral_rc == 0) peripheral_rc = print_error(e);
    }
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

int cmd_tail(int argc, char** argv) {
  if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
    std::fprintf(stderr, "usage: terrors tail <journal.jsonl> [--n N]\n");
    return 1;
  }
  std::map<std::string, std::string> flags;
  if (!parse_flags(argc, argv, 3, {{"--n", true}}, flags)) return 1;
  const auto n = static_cast<std::size_t>(uint_flag(flags, "--n", 10));
  try {
    const auto events = report::load_journal(argv[2]);
    report::write_tail_text(events, n, std::cout);
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

int cmd_doctor(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  if (!parse_flags(argc, argv, 2, {{"--cache-dir", true}}, flags)) return 1;
  robust::DoctorOptions options;
  if (const auto it = flags.find("--cache-dir"); it != flags.end()) options.cache_dir = it->second;
  const robust::DoctorReport report = robust::run_doctor(options);
  for (const auto& f : report.findings) {
    if (f.ok) {
      std::printf("  ok   %-8s %s\n", f.check.c_str(), f.detail.c_str());
    } else {
      std::printf("  FAIL %-8s [%s] %s\n", f.check.c_str(),
                  std::string(robust::category_name(f.category)).c_str(), f.detail.c_str());
    }
  }
  if (report.ok()) {
    std::printf("doctor: environment healthy\n");
  } else {
    std::printf("doctor: environment has problems (exit %d)\n", report.exit_code());
  }
  return report.exit_code();
}

int cmd_vcd(int argc, char** argv, const char* name) {
  const auto* spec = find_spec(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown benchmark '%s'\n", name);
    return 1;
  }
  std::map<std::string, std::string> flags;
  if (!parse_flags(argc, argv, 3, {{"--cycles", true}}, flags)) return 1;
  const auto cycles = static_cast<std::size_t>(uint_flag(flags, "--cycles", 64));
  // Collect sampled contexts into a short slot stream.
  const isa::Program program = workloads::generate_program(*spec);
  const isa::Cfg cfg(program);
  isa::ExecutorConfig ecfg;
  ecfg.max_instructions = 4000;
  isa::Executor ex(program, cfg, ecfg);
  ex.run(workloads::generate_inputs(*spec, 1, 2026)[0]);
  std::vector<dta::FetchSlot> slots;
  for (int i = 0; i < 6; ++i) slots.push_back(dta::FetchSlot::nop(4u * static_cast<std::uint32_t>(i)));
  for (isa::BlockId b = 0; b < program.block_count() && slots.size() < cycles; ++b) {
    for (const auto& es : ex.profile().blocks[b].edge_samples) {
      if (es.samples.empty()) continue;
      const auto& sample = es.samples.front();
      for (std::size_t k = 0; k < sample.instrs.size() && slots.size() < cycles; ++k)
        slots.push_back(
            dta::FetchSlot::from_context(program.block(b).instructions[k], sample.instrs[k]));
      break;
    }
  }
  // Watch the architectural taps.
  std::vector<netlist::GateId> watched;
  auto add_word = [&](const std::vector<netlist::GateId>& w) {
    watched.insert(watched.end(), w.begin(), w.end());
  };
  add_word(pipe().taps.pc_reg);
  add_word(pipe().taps.ex_result_reg);
  add_word(pipe().taps.cc_reg);
  sim::VcdWriter writer(std::cout, pipe().netlist, watched, "1ps", 1300.0);
  dta::PipelineDriver driver(pipe());
  (void)driver.run(slots, 0, [&](const sim::LogicSimulator& sim) { writer.sample(sim); });
  return 0;
}

constexpr const char* kCommands[] = {"info", "list", "program", "report", "diff", "analyze",
                                     "stats", "tail", "profile", "vcd", "doctor"};

void usage() {
  std::fputs(
      "usage: terrors <command> [options]\n"
      "  info                          pipeline and operating-point summary\n"
      "  list                          available benchmarks\n"
      "  program <name>                print the generated program\n"
      "  report [--period P] [--n N]   signoff-style timing report\n"
      "  report <file> [--top N]       render a run-report JSON file\n"
      "  diff <old> <new>              compare two run reports; exit 2 on regression\n"
      "       [--max-rel-delta D]      headline accuracy tolerance (default 0.01)\n"
      "       [--max-share-drift D]    per-block error-mass drift (default 0.05)\n"
      "       [--max-runtime-ratio R]  runtime gate, <=0 disables (default off)\n"
      "  analyze <name> [--period P] [--scale S] [--runs R]\n"
      "          [--threads T]         worker threads (0 = all cores; or TERRORS_THREADS)\n"
      "          [--trace FILE]        write a Chrome trace_event JSON phase tree\n"
      "          [--trace-tree]        print the phase tree to stderr\n"
      "          [--trace-limit N]     cap recorded spans; excess increments trace.dropped\n"
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
      "  tail <journal> [--n N]        render the newest N journal events (default 10)\n"
      "  profile <folded> [--top N]    hotspot table from a folded-stack file\n"
      "  vcd <name> [--cycles N]       dump a VCD window to stdout\n"
      "  doctor [--cache-dir D]        self-test the environment; category exit codes\n"
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
    if (cmd == "tail") return cmd_tail(argc, argv);
    if (cmd == "profile") return cmd_profile(argc, argv);
    if (cmd == "doctor") return cmd_doctor(argc, argv);
    if (cmd == "program" && argc >= 3) return cmd_program(argv[2]);
    if (cmd == "analyze" && argc >= 3) return cmd_analyze(argc, argv, argv[2]);
    if (cmd == "vcd" && argc >= 3) return cmd_vcd(argc, argv, argv[2]);
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
