#include "common/random.h"

#include <cmath>

#include "common/logging.h"

namespace titant {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(sm);
}

uint64_t Rng::Uniform(uint64_t n) {
  TITANT_CHECK(n > 0) << "Uniform(0) is undefined";
  // The rejection threshold 2^64 mod n is below n, so a draw of at least
  // n (almost every draw) is accepted without dividing to find it.
  for (;;) {
    const uint64_t r = NextU64();
    if (r >= n || r >= -n % n) return r % n;
  }
}

double Rng::UniformReal(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::Gaussian(double mean, double stddev) { return mean + stddev * NextGaussian(); }

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::Exponential(double rate) {
  TITANT_CHECK(rate > 0.0);
  double u = 0.0;
  do {
    u = NextDouble();
  } while (u <= 1e-300);
  return -std::log(u) / rate;
}

double Rng::Pareto(double xm, double alpha) {
  TITANT_CHECK(xm > 0.0 && alpha > 0.0);
  double u = 0.0;
  do {
    u = NextDouble();
  } while (u <= 1e-300);
  return xm / std::pow(u, 1.0 / alpha);
}

int Rng::Poisson(double mean) {
  if (mean <= 0.0) return 0;
  if (mean > 64.0) {
    // Normal approximation with continuity correction for large means.
    const double v = Gaussian(mean, std::sqrt(mean));
    return v < 0.0 ? 0 : static_cast<int>(v + 0.5);
  }
  const double limit = std::exp(-mean);
  double product = NextDouble();
  int count = 0;
  while (product > limit) {
    product *= NextDouble();
    ++count;
  }
  return count;
}

std::size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  TITANT_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) total += w;
  TITANT_CHECK(total > 0.0) << "all weights are zero";
  double target = NextDouble() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace titant
