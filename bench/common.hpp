// Shared setup for the reproduction benches: one pipeline instance, the
// calibrated operating point, argv parsing and small table-printing
// helpers.
#pragma once

#include <cstdio>
#include <cstdlib>
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

/// One shared pipeline elaboration (seeded; ~20k gates).
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
};

/// Numeric flags go through robust::parse_*: "--scale=abc" or "--runs=-1"
/// prints a typed [input] error and exits 3 instead of crashing.
inline RunScale parse_scale(int argc, char** argv) {
  RunScale rs;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--scale=", 0) == 0) rs.scale = robust::parse_double_arg("--scale", a.substr(8));
      if (a.rfind("--runs=", 0) == 0)
        rs.runs = static_cast<std::size_t>(robust::parse_uint_arg("--runs", a.substr(7)));
      if (a.rfind("--threads=", 0) == 0) {
        support::set_global_threads(
            static_cast<std::size_t>(robust::parse_uint_arg("--threads", a.substr(10))));
      } else if (a == "--threads" && i + 1 < argc) {
        support::set_global_threads(
            static_cast<std::size_t>(robust::parse_uint_arg("--threads", argv[i + 1])));
      }
      if (a.rfind("--cache-dir=", 0) == 0) rs.cache_dir = a.substr(12);
      if (a == "--cache-dir" && i + 1 < argc) rs.cache_dir = argv[i + 1];
      if (a.rfind("--only=", 0) == 0) rs.only = a.substr(7);
      if (a == "--only" && i + 1 < argc) rs.only = argv[i + 1];
    }
  } catch (const robust::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(robust::exit_code_for(e.category()));
  }
  rs.threads = support::global_pool().size();
  return rs;
}

inline void hr(int width = 110) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace terrors::bench
