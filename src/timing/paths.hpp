// Per-endpoint k-most-critical path enumeration (lazy, best-first) and
// path-level SSTA statistics.
//
// Paths follow Definition 3.1 of the paper: an ordered set of gates whose
// first element is the only endpoint in the set (the launching flip-flop
// or primary input) and whose last gate drives a capture endpoint.  The
// enumerator yields paths in non-increasing nominal delay, using the STA
// arrival time as an admissible bound (the classic k-longest-paths
// best-first search).  Path lists are extended lazily, which implements
// the "while P_i != empty" loop of Algorithm 1 without materialising the
// (exponential) full path set.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "netlist/netlist.hpp"
#include "stat/gaussian.hpp"
#include "timing/sta.hpp"
#include "timing/variation.hpp"

namespace terrors::timing {

struct TimingPath {
  netlist::GateId endpoint = netlist::kNoGate;  ///< capture endpoint
  /// Launch endpoint first, then the combinational gates in order.
  std::vector<netlist::GateId> gates;
  double delay_ps = 0.0;  ///< nominal delay incl. launch clk-to-q
};

/// Factor-model Gaussian statistics of a path delay under a VariationModel:
/// delay = mean + g_loading * Z0 + sum_k s_loading[k] * S_k + indep, which
/// makes path-to-path covariance (needed by the Clark statistical minimum)
/// a couple of dot products plus a shared-gate scan.
struct PathStat {
  double mean = 0.0;
  double g_loading = 0.0;
  std::vector<double> s_loading;
  double indep_var = 0.0;
  std::vector<netlist::GateId> sorted_gates;  ///< for shared-gate covariance

  [[nodiscard]] double variance() const;
  /// Gaussian slack under `spec`.
  [[nodiscard]] stat::Gaussian slack(const TimingSpec& spec) const;
};

/// Delay statistics of a path.
PathStat path_stat(const TimingPath& path, const VariationModel& vm);

/// Covariance between two path delays (global + spatial + shared-gate
/// independent components).
double path_cov(const PathStat& a, const PathStat& b, const VariationModel& vm);

/// Guards against (exponential) path-set explosion per endpoint.
struct PathConfig {
  std::size_t max_paths = 256;          ///< hard cap of stored paths per endpoint
  std::size_t max_expansions = 200000;  ///< search-node guard per endpoint
};

/// Lazy per-endpoint enumerator of the most critical paths.
class PathEnumerator {
 public:
  explicit PathEnumerator(const netlist::Netlist& nl, PathConfig config = {});
  ~PathEnumerator();  // out of line: Search is incomplete here
  PathEnumerator(const PathEnumerator&) = delete;
  PathEnumerator& operator=(const PathEnumerator&) = delete;

  /// The `k` longest paths ending at `endpoint` (fewer if the endpoint has
  /// fewer paths or a guard tripped).  References stay valid until the
  /// enumerator is destroyed.
  const std::vector<TimingPath>& top_paths(netlist::GateId endpoint, std::size_t k);

  /// Pre-enumerate the top-`k` lists of the given endpoints so later
  /// top_paths(e, k') calls with k' <= k are pure lookups.
  void warm(const std::vector<netlist::GateId>& endpoints, std::size_t k);

  /// While frozen, top_paths() is read-only (and therefore safe to call
  /// concurrently from many threads): querying an endpoint that was not
  /// warmed, or with a larger k than warmed, throws instead of mutating.
  void set_frozen(bool frozen) { frozen_ = frozen; }
  [[nodiscard]] bool frozen() const { return frozen_; }

  /// True when the list returned by top_paths() is known to contain ALL
  /// paths of the endpoint (search exhausted, no guard tripped).
  [[nodiscard]] bool exhausted(netlist::GateId endpoint) const;

  [[nodiscard]] const netlist::Netlist& nl() const { return nl_; }

 private:
  struct Search;
  Search& search_for(netlist::GateId endpoint);
  void extend(Search& s, std::size_t k);

  const netlist::Netlist& nl_;
  PathConfig config_;
  Sta sta_;
  bool frozen_ = false;
  std::vector<std::unique_ptr<Search>> searches_;  ///< by endpoint gate id
};

}  // namespace terrors::timing
