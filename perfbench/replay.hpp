// Layer-by-layer replay of one ErrorRateFramework::analyze call, timed
// from outside the library.
//
// The replay re-runs the analysis through each module's public entry
// points in the order the framework uses them, and records one span per
// call:
//
//   isa.run            isa::Executor::run, once per input dataset
//   timing.paths_warm  timing::PathEnumerator::warm (once per replayer)
//   dta.fetch_build    dta::FetchSlot::from_context / nop, per (block, edge)
//   sim.drive          dta::PipelineDriver::run, per (block, edge)
//   timing.arrivals    dta::CycleActivation::arrivals of every queried cycle
//   dta.stage_dts      dta::DtsAnalyzer::stage_dts folded with dta::dts_min
//   cache.read         cache::ArtifactCache::load + decode_control (warm)
//   core.error_model   core::InstructionErrorModel::build
//   core.marginal      core::MarginalSolver::solve
//   core.estimate      core::estimate_error_rate
//
// The (block, edge) loop follows ControlCharacterizer::characterize's
// serial order.  Its result must equal the framework's last().control and
// estimate bit for bit; the caller checks that with same_control() and
// same_estimate().
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/estimator.hpp"
#include "core/framework.hpp"
#include "dta/control_characterizer.hpp"
#include "dta/dts_analyzer.hpp"
#include "dta/pipeline_driver.hpp"
#include "isa/program.hpp"

namespace perfbench {

/// In-memory span log.  Span names must be string literals (the log keeps
/// views of them).  Spans nest through a stack of open scopes.
class SpanLog {
 public:
  struct Span {
    std::string_view name;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 = root
    double start_s = 0.0;      ///< seconds since the log's epoch
    double end_s = 0.0;
  };

  class Scope {
   public:
    Scope(SpanLog& log, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::size_t index_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Total duration per span name.
  [[nodiscard]] std::map<std::string, double> busy_seconds() const;
  /// Duration per span name minus the part covered by its child spans.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Chrome trace_event JSON ("X" events, one thread).
  void write_chrome(std::ostream& os) const;
  void clear();

 private:
  [[nodiscard]] double now_s() const;

  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::int64_t open_ = -1;
};

struct ReplayResult {
  std::vector<terrors::dta::BlockControlDts> control;
  terrors::core::ErrorRateEstimate estimate;
  std::uint64_t instructions = 0;
  bool control_from_cache = false;
};

/// Replays analyses against one framework.  Mirrors the framework's own
/// characterizer state: one analyzer and driver whose caches persist
/// across the calls of a pass, warmed once on first use.
class Replayer {
 public:
  Replayer(terrors::core::ErrorRateFramework& framework, SpanLog& log);

  /// Replay the framework's most recent analyze(program, inputs).  With a
  /// non-empty `cache_dir` the control tables are read from that artifact
  /// cache, as a warm analyze does; on a miss, or with no directory, they
  /// are characterised.
  ReplayResult replay(const terrors::isa::Program& program,
                      const std::vector<terrors::isa::ProgramInput>& inputs,
                      const std::string& cache_dir = "");

  /// Characterise every (block, edge) of the program, in the serial order.
  std::vector<terrors::dta::BlockControlDts> characterize(
      const terrors::isa::Program& program, const terrors::isa::Cfg& cfg,
      const terrors::isa::ProgramProfile& profile);

 private:
  terrors::dta::EdgeControlDts characterize_edge(const terrors::isa::Program& program,
                                                 const terrors::isa::Cfg& cfg,
                                                 const terrors::isa::ProgramProfile& profile,
                                                 terrors::isa::BlockId block,
                                                 std::ptrdiff_t edge);
  std::optional<std::vector<terrors::dta::BlockControlDts>> read_cached_control(
      const std::string& cache_dir, const terrors::isa::Program& program,
      const terrors::isa::ProgramProfile& profile);

  terrors::core::ErrorRateFramework& framework_;
  SpanLog& log_;
  terrors::dta::DtsAnalyzer analyzer_;
  terrors::dta::PipelineDriver driver_;
  bool warmed_ = false;
  std::uint64_t netlist_hash_ = 0;  ///< computed on the first cache read
};

/// Bit-for-bit equality of control tables (every mean, sd and loading).
[[nodiscard]] bool same_control(const std::vector<terrors::dta::BlockControlDts>& a,
                                const std::vector<terrors::dta::BlockControlDts>& b);
/// Bit-for-bit equality of every field of two estimates.
[[nodiscard]] bool same_estimate(const terrors::core::ErrorRateEstimate& a,
                                 const terrors::core::ErrorRateEstimate& b);

}  // namespace perfbench
