// Static timing analysis: longest-path arrival times over the netlist DAG,
// endpoint slacks against a clock spec, and the "activated STA" dynamic
// programming used to cross-check Algorithm 1 (the longest path all of
// whose gates are activated in a given cycle).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "timing/variation.hpp"

namespace terrors::timing {

/// Clock specification.  The paper's working point is 825 MHz (1.15x the
/// 718 MHz non-speculative baseline of its LEON3 build); our synthetic
/// technology is calibrated around the same ratios.
struct TimingSpec {
  double period_ps = 1212.12;
  double setup_ps = netlist::kSetupTimePs;

  [[nodiscard]] double frequency_mhz() const { return 1.0e6 / period_ps; }
  static TimingSpec from_frequency_mhz(double mhz, double setup_ps = netlist::kSetupTimePs) {
    return {1.0e6 / mhz, setup_ps};
  }
};

/// Block-based STA over nominal delays or a sampled chip.
class Sta {
 public:
  /// If `chip` is given it supplies per-gate delays; otherwise nominal
  /// delays from the netlist are used.
  explicit Sta(const netlist::Netlist& nl, const ChipSample* chip = nullptr);

  /// Arrival at the gate's output (includes the gate's own delay); sources
  /// are DFF outputs (clk-to-q) and primary inputs (0).
  [[nodiscard]] double arrival(netlist::GateId g) const { return arrival_[g]; }
  /// Arrival at the data input of a capture endpoint.
  [[nodiscard]] double endpoint_arrival(netlist::GateId e) const;
  /// Setup slack of a capture endpoint.
  [[nodiscard]] double endpoint_slack(netlist::GateId e, const TimingSpec& spec) const;
  /// Worst slack across all capture endpoints.
  [[nodiscard]] double worst_slack(const TimingSpec& spec) const;
  /// Worst slack among endpoints of one pipeline stage.
  [[nodiscard]] double worst_stage_slack(std::uint8_t stage, const TimingSpec& spec) const;
  /// Maximum clock frequency (MHz) at which no endpoint violates setup.
  [[nodiscard]] double max_frequency_mhz(double setup_ps = netlist::kSetupTimePs) const;

 private:
  const netlist::Netlist& nl_;
  std::vector<double> arrival_;
};

/// Longest *activated* path arrival at the data input of endpoint `e` in a
/// cycle whose activation flags are given (Def. 3.2/3.3): a path counts
/// only if every gate on it toggled.  Returns nullopt when no activated
/// path ends at `e` (the endpoint cannot experience a timing error in that
/// cycle).  This is the exact dynamic-programming evaluation of
/// Algorithm 1's deterministic case, used as cross-check and fallback.
std::optional<double> activated_endpoint_arrival(const netlist::Netlist& nl,
                                                 const std::vector<std::uint8_t>& activated,
                                                 netlist::GateId e,
                                                 const ChipSample* chip = nullptr);

/// Bulk variant: arrival (or -inf) at every gate's output.
std::vector<double> activated_arrivals(const netlist::Netlist& nl,
                                       const std::vector<std::uint8_t>& activated,
                                       const ChipSample* chip = nullptr);

/// The activated-arrival DP itself, over one compiled gate list: the whole
/// program() with every launch point for the bulk variant, or one
/// Netlist::Cone.  Sets arr[g] for every listed launch point and gate (-inf
/// where no activated path reaches g) and reads nothing else but
/// arr[nl.zero_slot()], which must hold -inf; `arr` has nl.size() + 1
/// entries.  Each gate's arrival depends only on its fanins, so a cone's
/// entries equal the bulk variant's bit for bit.  `live` is scratch that a
/// caller running many DPs keeps, so that no call allocates.
void activated_arrivals(const netlist::Netlist& nl, std::span<const netlist::ProgramGate> gates,
                        std::span<const netlist::GateId> launches,
                        const std::vector<std::uint8_t>& activated, std::span<double> arr,
                        std::vector<const netlist::ProgramGate*>& live,
                        const ChipSample* chip = nullptr);

}  // namespace terrors::timing
