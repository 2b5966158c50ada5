// Process-variation model with spatial correlation.
//
// Each gate's delay is a Gaussian
//
//   D_g = mu_g * (1 + sigma * (w_g Z0 + w_s S(x_g, y_g) + w_i eps_g))
//
// with a chip-global component Z0, a spatially correlated field S realised
// as a unit-norm combination of anchor Gaussians on a die grid (correlation
// between two locations decays with their distance, the paper's "spatial
// correlation property of process variation"), and an independent
// per-gate component eps_g.
//
// The factor representation makes both analytic covariance (for SSTA and
// Clark minima) and Monte-Carlo chip sampling cheap and mutually
// consistent.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "support/rng.hpp"

namespace terrors::timing {

/// Total relative delay sigma per gate: sd(D_g) = kGateDelaySigma * mu_g.
inline constexpr double kGateDelaySigma = 0.05;

struct VariationConfig {
  /// If false, the spatial component's weight is folded into the
  /// independent one (ablation switch).
  bool spatial_enabled = true;
};

/// A manufactured chip: one delay realisation per gate, in picoseconds.
using ChipSample = std::vector<float>;

class VariationModel {
 public:
  VariationModel(const netlist::Netlist& nl, const VariationConfig& config);

  [[nodiscard]] const VariationConfig& config() const { return config_; }
  [[nodiscard]] std::size_t anchor_count() const { return anchor_x_.size(); }

  /// Nominal (mean) delay of a gate, ps.
  [[nodiscard]] double mean(netlist::GateId g) const;
  /// Standard deviation of a gate's delay, ps.
  [[nodiscard]] double sigma(netlist::GateId g) const;
  /// Covariance between two gate delays (includes the independent term
  /// when a == b), ps^2.
  [[nodiscard]] double covariance(netlist::GateId a, netlist::GateId b) const;

  /// Factor loadings of gate g: global loading (ps), spatial loadings per
  /// anchor (ps), independent sd (ps).  Path-level statistics are sums of
  /// these loadings.
  [[nodiscard]] double global_loading(netlist::GateId g) const;
  [[nodiscard]] const std::vector<float>& spatial_loadings(netlist::GateId g) const;
  [[nodiscard]] double indep_sigma(netlist::GateId g) const;
  /// indep_sigma(g) squared, tabulated: path statistics and covariances
  /// add it once per gate.
  [[nodiscard]] double indep_variance(netlist::GateId g) const { return indep_var_[g]; }

  /// Draw a manufactured chip (deterministic in the RNG state).
  [[nodiscard]] ChipSample sample_chip(support::Rng& rng) const;

 private:
  const netlist::Netlist& nl_;
  VariationConfig config_;
  double wg_ = 0.0;
  double ws_ = 0.0;
  double wi_ = 0.0;
  std::vector<double> anchor_x_;
  std::vector<double> anchor_y_;
  /// Per-gate unit-norm anchor weights (empty rows when spatial disabled).
  std::vector<std::vector<float>> anchor_weights_;
  std::vector<double> indep_var_;  ///< indep_sigma(g)^2 by gate id
};

}  // namespace terrors::timing
