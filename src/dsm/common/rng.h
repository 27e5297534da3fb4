// optcm — deterministic pseudo-random number generation.
//
// Everything random in this repository (workloads, latency models, property
// tests) flows through Rng so that a seed fully determines a run.  The
// generator is xoshiro256** seeded via SplitMix64 — fast, high quality, and
// trivially reproducible across platforms.  We implement the distributions we
// need ourselves because std::uniform_int_distribution and friends are not
// bit-reproducible across standard library implementations.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace dsm {

/// SplitMix64 step; used for seeding and as a cheap standalone mixer.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** deterministic PRNG with explicit, portable distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xB0B1B2B3C0C1C2C3ULL) noexcept;

  /// Next raw 64-bit value.
  [[nodiscard]] std::uint64_t next() noexcept;

  /// UniformRandomBitGenerator interface (for std::shuffle etc.).
  std::uint64_t operator()() noexcept { return next(); }
  [[nodiscard]] static constexpr std::uint64_t min() noexcept { return 0; }
  [[nodiscard]] static constexpr std::uint64_t max() noexcept { return ~std::uint64_t{0}; }

  /// Uniform integer in [0, bound). Requires bound > 0. Unbiased (Lemire).
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() noexcept;

  /// Bernoulli trial with probability p of returning true.
  [[nodiscard]] bool chance(double p) noexcept;

  /// Exponentially distributed double with the given mean (> 0).
  [[nodiscard]] double exponential(double mean) noexcept;

  /// Log-normal sample with the given parameters of the underlying normal.
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept;

  /// Normal via Box–Muller (deterministic: no cached spare).
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Derive an independent child generator (stream splitting).
  [[nodiscard]] Rng split() noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Samples ranks from a Zipf(s) distribution over {0, …, n-1} by inverse
/// transform over the precomputed CDF.  Rank 0 is the most popular item.
class ZipfSampler {
 public:
  /// n >= 1; exponent s >= 0 (s = 0 degenerates to uniform).
  ZipfSampler(std::size_t n, double s);

  [[nodiscard]] std::size_t sample(Rng& rng) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // cumulative, cdf_.back() == 1.0
};

}  // namespace dsm
