// Graph-based dynamic timing analysis — the related-work baseline of the
// paper's Section 2 (Cherupalli & Sartori, ICCAD'17 "Scalable N-worst
// algorithms for dynamic timing and activity analysis", and the
// error-free operating-point use of Cherupalli et al., ISCA'16).
//
// Instead of predicting per-cycle timing errors, graph-based DTA
// aggregates activated-path arrivals over an entire run directly on the
// netlist graph (one DP per cycle, no path enumeration) and reports the
// N worst observed arrivals per endpoint.  Its natural application is the
// *error-free* operating point: the fastest clock at which no observed
// cycle would have violated — exactly the use the paper contrasts with
// its own cycle-by-cycle error-rate estimation.  The bench
// bench_baseline_graph_dta quantifies that contrast.
#pragma once

#include <cstdint>
#include <vector>

#include "dta/dts_analyzer.hpp"
#include "netlist/netlist.hpp"
#include "timing/sta.hpp"

namespace terrors::dta {

struct GraphDtaConfig {
  std::size_t n_worst = 8;  ///< arrivals kept per endpoint
};

class GraphDta {
 public:
  GraphDta(const netlist::Netlist& nl, GraphDtaConfig config = {});

  /// Fold one simulated cycle into the aggregate (uses the cycle's
  /// activated-arrival DP).
  void observe(CycleActivation& cycle);

  [[nodiscard]] std::uint64_t cycles_observed() const { return cycles_; }

  /// The N worst activated arrivals seen at `endpoint`, descending.
  [[nodiscard]] const std::vector<double>& worst_arrivals(netlist::GateId endpoint) const;

  /// Design-wide worst activated arrival over the whole run.
  [[nodiscard]] double worst_arrival() const { return worst_; }

  /// Error-free operating frequency for the observed activity: the
  /// fastest clock at which every observed arrival still meets setup,
  /// derated by `margin` (the ISCA'16 use).
  [[nodiscard]] double error_free_frequency_mhz(double setup_ps = netlist::kSetupTimePs,
                                                double margin = 1.0) const;

 private:
  const netlist::Netlist& nl_;
  GraphDtaConfig config_;
  std::uint64_t cycles_ = 0;
  double worst_ = 0.0;
  /// Indexed by capture-endpoint *slot* (dense remap of endpoint ids).
  std::vector<std::uint32_t> slot_of_;  // gate id -> slot or npos
  std::vector<std::vector<double>> n_worst_;
};

}  // namespace terrors::dta
