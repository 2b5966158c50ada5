#include "timing/variation.hpp"

#include <cmath>

#include "support/check.hpp"

namespace terrors::timing {

namespace {

// Component weights before normalisation, the spatial field's anchor grid
// over the die, and its correlation length in die units (larger =
// smoother field).
constexpr double kWeightGlobal = 0.5;
constexpr double kWeightSpatial = 0.6;
constexpr double kWeightIndep = 0.624;
constexpr int kAnchorsX = 7;
constexpr int kAnchorsY = 3;
constexpr double kCorrLength = 1.2;

}  // namespace

VariationModel::VariationModel(const netlist::Netlist& nl, const VariationConfig& config)
    : nl_(nl), config_(config) {
  TE_REQUIRE(nl.finalized(), "variation model needs a finalized netlist");

  // Normalise the component weights so total per-gate variance is sigma^2.
  const double ws = config.spatial_enabled ? kWeightSpatial : 0.0;
  const double wi = config.spatial_enabled
                        ? kWeightIndep
                        : std::sqrt(kWeightIndep * kWeightIndep + kWeightSpatial * kWeightSpatial);
  const double norm = std::sqrt(kWeightGlobal * kWeightGlobal + ws * ws + wi * wi);
  wg_ = kWeightGlobal / norm;
  ws_ = ws / norm;
  wi_ = wi / norm;

  // Anchor grid over the bounding box of the placement.
  float min_x = 0.0f;
  float max_x = 1.0f;
  float min_y = 0.0f;
  float max_y = 1.0f;
  if (nl.size() > 0) {
    min_x = max_x = nl.gate(0).x;
    min_y = max_y = nl.gate(0).y;
    for (netlist::GateId g = 0; g < nl.size(); ++g) {
      min_x = std::min(min_x, nl.gate(g).x);
      max_x = std::max(max_x, nl.gate(g).x);
      min_y = std::min(min_y, nl.gate(g).y);
      max_y = std::max(max_y, nl.gate(g).y);
    }
  }
  for (int iy = 0; iy < kAnchorsY; ++iy) {
    for (int ix = 0; ix < kAnchorsX; ++ix) {
      const double fx = static_cast<double>(ix) / (kAnchorsX - 1);
      const double fy = static_cast<double>(iy) / (kAnchorsY - 1);
      anchor_x_.push_back(min_x + fx * (max_x - min_x));
      anchor_y_.push_back(min_y + fy * (max_y - min_y));
    }
  }

  // Per-gate anchor weights: exponential distance decay, unit L2 norm so
  // the spatial field has unit variance everywhere.
  anchor_weights_.assign(nl.size(), {});
  if (ws_ > 0.0) {
    for (netlist::GateId g = 0; g < nl.size(); ++g) {
      std::vector<float> w(anchor_x_.size());
      double norm2 = 0.0;
      for (std::size_t k = 0; k < anchor_x_.size(); ++k) {
        const double dx = nl.gate(g).x - anchor_x_[k];
        const double dy = nl.gate(g).y - anchor_y_[k];
        const double d = std::sqrt(dx * dx + dy * dy);
        const double wk = std::exp(-d / kCorrLength);
        w[k] = static_cast<float>(wk);
        norm2 += wk * wk;
      }
      const double inv = norm2 > 0.0 ? 1.0 / std::sqrt(norm2) : 0.0;
      for (auto& x : w) x = static_cast<float>(x * inv);
      anchor_weights_[g] = std::move(w);
    }
  }

  indep_var_.resize(nl.size());
  for (netlist::GateId g = 0; g < nl.size(); ++g) {
    const double is = indep_sigma(g);
    indep_var_[g] = is * is;
  }
}

double VariationModel::mean(netlist::GateId g) const { return nl_.gate(g).delay_ps; }

double VariationModel::sigma(netlist::GateId g) const {
  return kGateDelaySigma * nl_.gate(g).delay_ps;
}

double VariationModel::global_loading(netlist::GateId g) const { return wg_ * sigma(g); }

const std::vector<float>& VariationModel::spatial_loadings(netlist::GateId g) const {
  return anchor_weights_[g];
}

double VariationModel::indep_sigma(netlist::GateId g) const { return wi_ * sigma(g); }

double VariationModel::covariance(netlist::GateId a, netlist::GateId b) const {
  const double sa = sigma(a);
  const double sb = sigma(b);
  double rho = wg_ * wg_;
  if (ws_ > 0.0) {
    const auto& wa = anchor_weights_[a];
    const auto& wb = anchor_weights_[b];
    double dot = 0.0;
    for (std::size_t k = 0; k < wa.size(); ++k) dot += static_cast<double>(wa[k]) * wb[k];
    rho += ws_ * ws_ * dot;
  }
  double cov = sa * sb * rho;
  if (a == b) cov += wi_ * sa * wi_ * sb;
  return cov;
}

ChipSample VariationModel::sample_chip(support::Rng& rng) const {
  const double z0 = rng.normal();
  std::vector<double> s(anchor_x_.size());
  for (auto& v : s) v = rng.normal();
  ChipSample chip(nl_.size());
  for (netlist::GateId g = 0; g < nl_.size(); ++g) {
    double dev = wg_ * z0;
    if (ws_ > 0.0) {
      const auto& w = anchor_weights_[g];
      double sp = 0.0;
      for (std::size_t k = 0; k < w.size(); ++k) sp += w[k] * s[k];
      dev += ws_ * sp;
    }
    dev += wi_ * rng.normal();
    const double d = nl_.gate(g).delay_ps * (1.0 + kGateDelaySigma * dev);
    chip[g] = static_cast<float>(d < 0.0 ? 0.0 : d);
  }
  return chip;
}

}  // namespace terrors::timing
