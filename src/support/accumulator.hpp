// Online statistics accumulators.
//
// MomentAccumulator tracks central moments up to order four with Welford /
// Pébay update formulas, which the Stein bound computation (Thm 5.2 of the
// paper) needs for E|X|^3 and E[X^4].
#pragma once

#include <cstddef>
#include <limits>

namespace terrors::support {

/// Running mean / variance / skew / kurtosis with numerically stable updates.
class MomentAccumulator {
 public:
  void add(double x);
  void merge(const MomentAccumulator& other);
  void reset();

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] double mean() const;
  /// Population variance (divides by n).
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  /// Central moments E[(X - mean)^k] for k = 3, 4.
  [[nodiscard]] double central_moment3() const;
  [[nodiscard]] double central_moment4() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double m3_ = 0.0;
  double m4_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace terrors::support
