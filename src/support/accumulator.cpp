#include "support/accumulator.hpp"

#include <algorithm>
#include <cmath>

namespace terrors::support {

void MomentAccumulator::add(double x) {
  const double n1 = static_cast<double>(n_);
  ++n_;
  const double n = static_cast<double>(n_);
  const double delta = x - mean_;
  const double delta_n = delta / n;
  const double delta_n2 = delta_n * delta_n;
  const double term1 = delta * delta_n * n1;
  mean_ += delta_n;
  m4_ += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * m2_ - 4.0 * delta_n * m3_;
  m3_ += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * m2_;
  m2_ += term1;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void MomentAccumulator::merge(const MomentAccumulator& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double n = na + nb;
  const double delta = other.mean_ - mean_;
  const double delta2 = delta * delta;
  const double delta3 = delta2 * delta;
  const double delta4 = delta2 * delta2;

  const double mean = mean_ + delta * nb / n;
  const double m2 = m2_ + other.m2_ + delta2 * na * nb / n;
  const double m3 = m3_ + other.m3_ + delta3 * na * nb * (na - nb) / (n * n) +
                    3.0 * delta * (na * other.m2_ - nb * m2_) / n;
  const double m4 = m4_ + other.m4_ +
                    delta4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n) +
                    6.0 * delta2 * (na * na * other.m2_ + nb * nb * m2_) / (n * n) +
                    4.0 * delta * (na * other.m3_ - nb * m3_) / n;

  n_ += other.n_;
  mean_ = mean;
  m2_ = m2;
  m3_ = m3;
  m4_ = m4;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void MomentAccumulator::reset() { *this = MomentAccumulator{}; }

double MomentAccumulator::mean() const { return n_ == 0 ? 0.0 : mean_; }

double MomentAccumulator::variance() const {
  return n_ == 0 ? 0.0 : m2_ / static_cast<double>(n_);
}

double MomentAccumulator::stddev() const { return std::sqrt(variance()); }

double MomentAccumulator::central_moment3() const {
  return n_ == 0 ? 0.0 : m3_ / static_cast<double>(n_);
}

double MomentAccumulator::central_moment4() const {
  return n_ == 0 ? 0.0 : m4_ / static_cast<double>(n_);
}

}  // namespace terrors::support
