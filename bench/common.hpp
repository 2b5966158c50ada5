// Shared setup for the reproduction benches: one pipeline instance, the
// calibrated operating point, small table-printing helpers, and the
// machine-readable per-benchmark JSON reports that seed the perf
// trajectory (BENCH_*.json) future optimisation PRs measure against.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/framework.hpp"
#include "netlist/pipeline.hpp"
#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
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

/// Machine-readable per-benchmark records.  The output path is resolved
/// as `--json=FILE` (or `--json FILE`) > the TERRORS_BENCH_JSON
/// environment variable > `default_path`.  The trajectory benches pass
/// their repo-root convention name (BENCH_<bench>.json) as the default so
/// every run refreshes the perf trajectory; `--json=` (empty value)
/// disables the file entirely.  Benches without a default stay inert, so
/// their default stdout is unchanged.  On destruction writes
///   {"bench": ..., "records": [{...}, ...], "peak_rss_bytes": N,
///    "metrics": {...}}
/// where "metrics" is the process-wide obs::MetricsRegistry snapshot and
/// "peak_rss_bytes" is the process high-water mark at write time.
/// Records carry numeric fields plus optional string labels (e.g. the
/// run_id of the analyze() call behind the row), so trajectory tooling
/// can join bench rows against journal events.
class JsonReport {
 public:
  JsonReport(int argc, char** argv, std::string bench_name, std::string default_path = "")
      : bench_name_(std::move(bench_name)), path_(std::move(default_path)) {
    if (const char* env = std::getenv("TERRORS_BENCH_JSON")) path_ = env;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--json=", 0) == 0) path_ = a.substr(7);
      if (a == "--json" && i + 1 < argc) path_ = argv[i + 1];
    }
  }

  ~JsonReport() {
    if (path_.empty()) return;
    std::ofstream os(path_);
    if (!os) {
      std::fprintf(stderr, "cannot open bench JSON file '%s'\n", path_.c_str());
      return;
    }
    os << "{\"bench\":";
    obs::json_string(os, bench_name_);
    os << ",\"records\":[";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      if (i != 0) os << ",";
      const auto& rec = records_[i];
      os << "{\"name\":";
      obs::json_string(os, rec.name);
      for (const auto& [key, value] : rec.labels) {
        os << ",";
        obs::json_string(os, key);
        os << ":";
        obs::json_string(os, value);
      }
      for (const auto& [key, value] : rec.fields) {
        os << ",";
        obs::json_string(os, key);
        os << ":";
        obs::json_number(os, value);
      }
      os << "}";
    }
    os << "],\"peak_rss_bytes\":";
    obs::json_number(os, obs::peak_rss_bytes());
    os << ",\"metrics\":";
    obs::MetricsRegistry::instance().write_json(os);
    os << "}\n";
  }

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  void record(std::string name,
              std::initializer_list<std::pair<const char*, double>> fields) {
    record(std::move(name), {}, fields);
  }

  /// Record with string labels (written before the numeric fields).
  void record(std::string name,
              std::initializer_list<std::pair<const char*, std::string>> labels,
              std::initializer_list<std::pair<const char*, double>> fields) {
    Record rec;
    rec.name = std::move(name);
    for (const auto& [key, value] : labels) rec.labels.emplace_back(key, value);
    for (const auto& [key, value] : fields) rec.fields.emplace_back(key, value);
    records_.push_back(std::move(rec));
  }

 private:
  struct Record {
    std::string name;
    std::vector<std::pair<std::string, std::string>> labels;
    std::vector<std::pair<std::string, double>> fields;
  };
  std::string bench_name_;
  std::string path_;
  std::vector<Record> records_;
};

}  // namespace terrors::bench
