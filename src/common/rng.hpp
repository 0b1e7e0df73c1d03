// Deterministic pseudo-random number generation.
//
// All stochastic components of the library (node simulator, bootstrap
// sampling, weight initialization, train/test splits, the Random query
// baseline) draw from these generators with explicit 64-bit seeds so that a
// given seed reproduces an experiment bit-for-bit across runs and thread
// counts. Xoshiro256** is the workhorse; SplitMix64 seeds it and derives
// independent child streams.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/error.hpp"

namespace alba {

/// SplitMix64's output finalizer: a bijective 64-bit avalanche mix (every
/// input bit flips each output bit with probability ~1/2).
constexpr std::uint64_t splitmix_finalize(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// SplitMix64: tiny, fast generator used for seeding and stream splitting.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    return splitmix_finalize(state_ += 0x9E3779B97f4A7C15ULL);
  }
  std::uint64_t operator()() noexcept { return next(); }
  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept { return ~0ULL; }

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: the library-wide PRNG. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5DEECE66DULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }
  std::uint64_t operator()() noexcept { return next(); }
  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept { return ~0ULL; }

  /// Derive an independent child stream; children with distinct tags are
  /// statistically independent of each other and of the parent.
  Rng split(std::uint64_t tag) noexcept {
    SplitMix64 sm(s_[0] ^ (tag * 0x9E3779B97F4A7C15ULL) ^ s_[3]);
    return Rng(sm.next());
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). n must be > 0.
  std::size_t uniform_index(std::size_t n) noexcept {
    // Lemire's multiply-shift rejection-free-enough reduction; the bias is
    // < 2^-53 for the pool sizes this library sees.
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    uniform_index(static_cast<std::size_t>(hi - lo + 1)));
  }

  /// Standard normal via Box–Muller (cached second value).
  double normal() noexcept {
    if (have_cached_) {
      have_cached_ = false;
      return cached_;
    }
    double u1 = 0.0;
    while (u1 <= 1e-300) u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_ = r * std::sin(theta);
    have_cached_ = true;
    return r * std::cos(theta);
  }

  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Exponential with rate lambda.
  double exponential(double lambda) noexcept {
    double u = 0.0;
    while (u <= 1e-300) u = uniform();
    return -std::log(u) / lambda;
  }

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[uniform_index(i)]);
    }
  }

  /// k distinct indices sampled uniformly from [0, n) (k <= n).
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k) {
    ALBA_CHECK(k <= n) << "cannot sample " << k << " from " << n;
    // Partial Fisher-Yates over an index vector.
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    for (std::size_t i = 0; i < k; ++i) {
      std::swap(idx[i], idx[i + uniform_index(n - i)]);
    }
    idx.resize(k);
    return idx;
  }

  /// n indices sampled uniformly with replacement from [0, n) (bootstrap).
  std::vector<std::size_t> bootstrap_indices(std::size_t n) {
    std::vector<std::size_t> idx(n);
    for (auto& v : idx) v = uniform_index(n);
    return idx;
  }

  /// Index drawn from a discrete distribution given (unnormalized,
  /// non-negative) weights. Returns weights.size()-1 on total weight 0.
  std::size_t weighted_index(const std::vector<double>& weights) {
    ALBA_CHECK(!weights.empty());
    double total = 0.0;
    for (double w : weights) total += w;
    double u = uniform() * total;
    for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
      u -= weights[i];
      if (u < 0.0) return i;
    }
    return weights.size() - 1;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4]{};
  double cached_ = 0.0;
  bool have_cached_ = false;
};

}  // namespace alba
