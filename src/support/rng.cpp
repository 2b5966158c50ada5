#include "support/rng.hpp"

#include <cmath>

#include "support/check.hpp"
#include "support/hash.hpp"

namespace terrors::support {
namespace {

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
}

Rng Rng::split(std::uint64_t tag) const {
  // Mix the tag into the original seed through splitmix; independent of the
  // parent's current position so splits are stable regardless of draw order.
  std::uint64_t s = seed_ ^ (0xA0761D6478BD642Full * (tag + 1));
  return Rng(splitmix64(s));
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  TE_REQUIRE(lo <= hi, "empty uniform range");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  TE_REQUIRE(n > 0, "uniform_index needs n > 0");
  // Lemire-style rejection-free mapping is fine here; modulo bias is
  // negligible for our n << 2^64 but we debias anyway.
  const std::uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  spare_normal_ = r * std::sin(theta);
  has_spare_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double sd) {
  TE_REQUIRE(sd >= 0.0, "negative standard deviation");
  return mean + sd * normal();
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  TE_REQUIRE(!weights.empty(), "weighted_index needs at least one weight");
  double total = 0.0;
  for (double w : weights) {
    TE_REQUIRE(w >= 0.0, "negative weight");
    total += w;
  }
  TE_REQUIRE(total > 0.0, "all weights are zero");
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace terrors::support
