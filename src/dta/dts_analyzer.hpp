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
};

class DtsAnalyzer {
 public:
  DtsAnalyzer(const netlist::Netlist& nl, const timing::VariationModel& vm,
              timing::TimingSpec spec, DtsConfig config = {});

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
                                                     netlist::EndpointClass cls) {
    return stage_dts(stage, cycle.flags(), cls);
  }
  /// The same query on a cycle's activation flags, one byte per gate id.
  [[nodiscard]] std::optional<DtsGaussian> stage_dts(std::uint8_t stage,
                                                     const std::vector<std::uint8_t>& flags,
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
    std::vector<std::size_t> rank_low;   ///< candidate -> rank by worst-case slack
    std::vector<std::size_t> rank_high;  ///< candidate -> rank by best-case slack
    double min_mean = 0.0;               ///< smallest stats[i].mean
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
  /// Statistical minimum over an AP set's slacks with full covariance
  /// (greedy pairwise Clark, after Sinha et al. [21]).
  DtsGaussian statistical_path_min(std::span<const timing::PathStat* const> paths);

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
  /// DP-fallback path statistics keyed by the FNV-1a hash of (endpoint,
  /// gate sequence): activated carry chains recur across cycles.  Each
  /// entry stores its gates and paths with equal hashes share the key, so
  /// a collision costs one comparison, never a wrong path.  Nodes never
  /// move, so the AP set's pointers survive later insertions.
  struct DpEntry {
    std::vector<netlist::GateId> gates;  ///< endpoint-D -> source order
    timing::PathStat stat;
  };
  std::unordered_multimap<std::uint64_t, DpEntry> dp_cache_;
  std::vector<netlist::GateId> backtrack_;  ///< dp_path_stat's reused path buffer
  // Scratch that every query reuses, so that a query allocates nothing.
  std::vector<const netlist::ProgramGate*> live_;  ///< the DP's activated gates
  std::vector<const timing::PathStat*> ap_;
  std::vector<const timing::PathStat*> alternates_;
  std::vector<stat::Gaussian> slacks_;
  std::vector<std::size_t> keep_;
  stat::MinScratch min_;
};

}  // namespace terrors::dta
