// Algorithm 1 of the paper: dynamic timing slack of a pipeline stage in a
// given clock cycle, as the (statistical) minimum slack over the most
// critical *activated* paths of the stage's endpoints.
//
// Under SSTA every slack is a Gaussian.  Following Section 3, the critical-
// path scan runs twice per endpoint — once ordering candidate paths by
// worst-case (1st percentile) slack and once by best-case (99th
// percentile) slack — and the stage DTS is the statistical minimum of the
// collected activated paths (greedy pairwise Clark minimum with full path
// covariance, after Sinha et al. [21]).
//
// Engineering notes (documented deviations):
//  * Candidate path lists are enumerated lazily in decreasing nominal
//    delay and capped (PathConfig); ripple-carry endpoints have
//    exponentially many near-identical paths.  When no candidate is
//    activated, an exact activated-subgraph longest-path DP reconstructs
//    the most critical activated path (by nominal delay) and that path
//    joins AP.  This matches the deterministic semantics exactly and is a
//    principled approximation under SSTA.
//  * Besides the Gaussian DTS we propagate the path's chip-global variance
//    loading through the Clark combinations, so later minima against the
//    datapath model can account for the dominant cross-network
//    correlation.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.hpp"
#include "stat/clark.hpp"
#include "stat/gaussian.hpp"
#include "timing/paths.hpp"
#include "timing/sta.hpp"
#include "timing/variation.hpp"

namespace terrors::dta {

/// A Gaussian DTS that remembers how much of its variance is the
/// chip-global variation component (for cross-network correlation).
struct DtsGaussian {
  stat::Gaussian slack;
  double global_loading = 0.0;  ///< ps of slack sd attributable to Z0

  /// Correlation with another DtsGaussian through the global component.
  [[nodiscard]] double global_corr(const DtsGaussian& other) const;
};

/// Statistical minimum of two DtsGaussians using their global correlation.
DtsGaussian dts_min(const DtsGaussian& a, const DtsGaussian& b);

/// One simulated cycle's activation flags plus a lazily computed (and
/// cached) whole-netlist activated-subgraph longest-path table.  stage_dts
/// reads only the flags: it runs the DP over its own stage's cone.  The
/// whole-netlist table serves GraphDta and the tests.
class CycleActivation {
 public:
  CycleActivation(const netlist::Netlist& nl, std::vector<std::uint8_t> flags);

  [[nodiscard]] const std::vector<std::uint8_t>& flags() const { return flags_; }
  /// Longest activated arrival per gate output.  Computed on first use;
  /// the init is call_once-guarded so a cycle shared between threads
  /// stays safe.
  [[nodiscard]] const std::vector<double>& arrivals() const;

 private:
  const netlist::Netlist& nl_;
  std::vector<std::uint8_t> flags_;
  /// unique_ptr keeps CycleActivation movable (std::once_flag is not).
  std::unique_ptr<std::once_flag> arrivals_once_;
  mutable std::vector<double> arrivals_;
};

struct DtsConfig {
  std::size_t top_k = 24;  ///< candidate paths examined per endpoint and pass
  /// Upper percentile of the two candidate orderings; the lower one is its
  /// mirror image 1 - percentile_high (the same z, negated).
  double percentile_high = 0.99;
  stat::MinOrdering ordering = stat::MinOrdering::kGreedyTightness;
  /// Paths whose mean slack exceeds the best mean by more than
  /// prune_sigmas * (their combined sd) cannot win the minimum; drop them.
  double prune_sigmas = 6.0;
};

class DtsAnalyzer {
 public:
  DtsAnalyzer(const netlist::Netlist& nl, const timing::VariationModel& vm,
              timing::TimingSpec spec, DtsConfig config = {},
              timing::PathConfig path_config = {});

  /// Borrowing variant: share a pre-warmed (and frozen, when used
  /// concurrently) PathEnumerator instead of owning one.  Worker-local
  /// analyzers in the parallel characterisation use this so the expensive
  /// path enumeration happens once per process, not once per worker.
  DtsAnalyzer(const netlist::Netlist& nl, const timing::VariationModel& vm,
              timing::TimingSpec spec, DtsConfig config, timing::PathEnumerator& shared_paths);

  /// DTS of `stage` for the given cycle, restricted to endpoints of class
  /// `cls` (kNone = all endpoints).  nullopt when no endpoint of the stage
  /// has an activated path (the stage cannot fail in this cycle).  Reads
  /// only the cycle's flags on Netlist::stage_cone(stage, cls): the
  /// activated-arrival DP, when an endpoint needs it, walks that cone
  /// into a buffer this analyzer reuses.
  [[nodiscard]] std::optional<DtsGaussian> stage_dts(std::uint8_t stage, CycleActivation& cycle,
                                                     netlist::EndpointClass cls);

  /// Deterministic DTS (no process variation): slack of the longest
  /// activated path ending in the stage, on nominal or chip delays.
  /// Used for Monte-Carlo validation.
  [[nodiscard]] std::optional<double> stage_dts_deterministic(
      std::uint8_t stage, const std::vector<std::uint8_t>& activated, netlist::EndpointClass cls,
      const timing::ChipSample* chip = nullptr) const;

  [[nodiscard]] const timing::TimingSpec& spec() const { return spec_; }
  void set_spec(timing::TimingSpec spec) { spec_ = spec; }
  [[nodiscard]] const DtsConfig& config() const { return config_; }
  [[nodiscard]] timing::PathEnumerator& paths() { return *paths_; }

  /// The endpoint's enumerated candidate paths paired with their SSTA
  /// statistics, in enumeration (non-increasing nominal delay) order,
  /// capped at min(k, config().top_k).  Shares the per-endpoint cache the
  /// stage_dts queries build, so after an analysis this is a pure lookup.
  /// Pointers stay valid until the next call that extends the same
  /// endpoint's cache.  The report subsystem uses this to surface the
  /// culprit timing paths behind the error attribution.
  struct EndpointPath {
    const timing::TimingPath* path = nullptr;
    const timing::PathStat* stat = nullptr;
  };
  [[nodiscard]] std::vector<EndpointPath> endpoint_path_stats(netlist::GateId endpoint,
                                                              std::size_t k);

 private:
  /// Per-endpoint cache of candidate-path statistics and the two
  /// percentile orderings (they do not depend on the cycle).
  struct EndpointCache {
    /// The enumerator's candidate list; stats covers its first
    /// stats.size() entries.
    const std::vector<timing::TimingPath>* candidates = nullptr;
    std::vector<timing::PathStat> stats;
    std::vector<std::size_t> order_low;   ///< by worst-case slack
    std::vector<std::size_t> order_high;  ///< by best-case slack
    std::vector<std::size_t> rank_low;    ///< candidate -> position in order_low
  };

  /// One endpoint's share of a stage's activated-path (AP) set: its
  /// representative (the nominal-worst path) first, then the other
  /// activated paths found.  The pointers stay valid until the current
  /// stage_dts call returns.
  struct EndpointAp {
    std::array<const timing::PathStat*, 3> paths{};
    std::size_t count = 0;
  };
  EndpointAp endpoint_critical_activated(netlist::GateId endpoint, const netlist::Cone& cone,
                                         const std::vector<std::uint8_t>& flags);
  /// Statistics of the DP's most critical activated path into `endpoint`.
  const timing::PathStat& dp_path_stat(netlist::GateId endpoint,
                                       const std::vector<double>& arrivals);
  EndpointCache& endpoint_cache(netlist::GateId endpoint);
  /// The DP over `cone` for the current stage_dts call, run on first use.
  const std::vector<double>& cone_arrivals(const netlist::Cone& cone,
                                           const std::vector<std::uint8_t>& flags);

  const netlist::Netlist& nl_;
  const timing::VariationModel& vm_;
  timing::TimingSpec spec_;
  DtsConfig config_;
  std::unique_ptr<timing::PathEnumerator> owned_paths_;  ///< null when borrowing
  timing::PathEnumerator* paths_;
  std::vector<std::unique_ptr<EndpointCache>> cache_;  ///< by endpoint gate id
  /// Activated arrivals of the current stage_dts call's cone, by gate id
  /// plus the zero slot; entries outside the cone are stale.
  std::vector<double> arrivals_;
  bool arrivals_ready_ = false;
  /// DP-fallback path statistics keyed by the FNV hash of (endpoint, gate
  /// sequence): activated carry chains recur across cycles.  The entry
  /// stores the gates so a hash collision is detected instead of silently
  /// returning the wrong path's statistics.
  struct DpEntry {
    std::vector<netlist::GateId> gates;  ///< endpoint-D -> source order
    timing::PathStat stat;
  };
  std::unordered_map<std::uint64_t, DpEntry> dp_cache_;
  /// Paths whose key collided with a different cached path, computed for
  /// the current stage_dts call only (the AP set points at them).
  std::deque<timing::PathStat> dp_collided_;
  std::vector<netlist::GateId> backtrack_;  ///< dp_path_stat's reused path buffer
};

/// Statistical minimum over a set of path slacks with full covariance;
/// exposed for Algorithm 2 (minimum over stages) and tests.
DtsGaussian statistical_path_min(std::span<const timing::PathStat* const> paths,
                                 const timing::VariationModel& vm,
                                 const timing::TimingSpec& spec, const DtsConfig& config);

}  // namespace terrors::dta
