// Shared setup for the reproduction benches: one pipeline instance, the
// calibrated operating point, argv parsing and small table-printing
// helpers.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "netlist/pipeline.hpp"
#include "perf/ts_model.hpp"
#include "robust/error.hpp"
#include "robust/parse.hpp"
#include "support/thread_pool.hpp"
#include "timing/sta.hpp"
#include "workloads/generator.hpp"
#include "workloads/specs.hpp"

namespace terrors::bench {

/// One shared pipeline elaboration (seeded; 4,037 gates, `terrors info`).
inline const netlist::Pipeline& pipeline() {
  static const netlist::Pipeline p = netlist::build_pipeline({});
  return p;
}

/// The calibrated speculative operating point of this synthetic design —
/// the analogue of the paper's 825 MHz (1.15x) LEON3 point.  Derived by
/// bench_operating_point: the period at which the 12-benchmark mean error
/// rate sits in the paper's 0.1–1% band.
inline timing::TimingSpec working_spec() { return timing::TimingSpec{1300.0}; }

/// Default framework configuration at the working point.
inline core::FrameworkConfig default_config() {
  core::FrameworkConfig cfg;
  cfg.spec = working_spec();
  return cfg;
}

/// Default per-benchmark run/scale parameters (overridable via argv).
struct RunScale {
  std::size_t runs = 4;
  double scale = 1e-4;  ///< fraction of Table 2 instruction counts simulated
  std::size_t threads = 0;  ///< resolved pool width (after --threads / env)
  std::string cache_dir;    ///< artifact cache directory ("" = disabled)
  std::string only;         ///< restrict to one benchmark (CI smoke runs)
  bool all = false;         ///< --all, where the bench takes it
};

/// Flags parse strictly through robust::parse_flags, as in the CLI: an
/// unknown flag exits 1, and "--scale=abc" or "--runs=-1" prints a typed
/// [input] error and exits 3.  `takes_all` adds the bare `--all` flag.
inline RunScale parse_scale(int argc, char** argv, bool takes_all = false) {
  std::vector<robust::FlagSpec> specs = {
      {"--scale", true}, {"--runs", true}, {"--threads", true}, {"--cache-dir", true},
      {"--only", true}};
  if (takes_all) specs.push_back({"--all", false});
  std::map<std::string, std::string> flags;
  if (!robust::parse_flags(argc, argv, 1, specs, flags)) std::exit(1);
  RunScale rs;
  try {
    rs.scale = robust::num_flag(flags, "--scale", rs.scale);
    rs.runs = static_cast<std::size_t>(robust::uint_flag(flags, "--runs", rs.runs));
    if (const auto it = flags.find("--threads"); it != flags.end())
      support::set_global_threads(
          static_cast<std::size_t>(robust::parse_uint_arg("--threads", it->second)));
  } catch (const robust::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(robust::exit_code_for(e.category()));
  }
  if (const auto it = flags.find("--cache-dir"); it != flags.end()) rs.cache_dir = it->second;
  if (const auto it = flags.find("--only"); it != flags.end()) rs.only = it->second;
  rs.all = flags.count("--all") != 0;
  rs.threads = support::global_pool().size();
  return rs;
}

inline void hr(int width = 110) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace terrors::bench
