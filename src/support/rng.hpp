// Deterministic, splittable random number generation.
//
// All stochastic behaviour in the library flows through Rng so experiments
// are reproducible bit-for-bit from a single seed.  The generator is
// xoshiro256++ seeded through splitmix64 (the combination recommended by
// the xoshiro authors).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace terrors::support {

/// xoshiro256++ pseudo-random generator with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Derive an independent stream; deterministic in (parent seed, tag).
  [[nodiscard]] Rng split(std::uint64_t tag) const;

  std::uint64_t next_u64();
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }
  result_type operator()() { return next_u64(); }

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n); requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);
  /// Standard normal via Box–Muller (cached spare value).
  double normal();
  /// Normal with given mean / standard deviation (sd >= 0).
  double normal(double mean, double sd);
  /// Bernoulli draw.
  bool bernoulli(double p);
  /// Sample an index according to non-negative weights (need not sum to 1).
  std::size_t weighted_index(const std::vector<double>& weights);

 private:
  std::array<std::uint64_t, 4> state_{};
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
  std::uint64_t seed_ = 0;
};

}  // namespace terrors::support
