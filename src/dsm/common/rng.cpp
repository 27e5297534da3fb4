#include "dsm/common/rng.h"

#include <cmath>

#include "dsm/common/contracts.h"

namespace dsm {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

constexpr double kTwoPi = 6.283185307179586476925286766559;

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  // SplitMix64 seeding as recommended by the xoshiro authors; guarantees the
  // state is never all-zero.
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next() noexcept {
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

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  DSM_REQUIRE(bound > 0);
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::between(std::int64_t lo, std::int64_t hi) noexcept {
  DSM_REQUIRE(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range [INT64_MIN, INT64_MAX].
  const std::uint64_t off = (span == 0) ? next() : below(span);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + off);
}

double Rng::uniform01() noexcept {
  // 53 random mantissa bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) noexcept { return uniform01() < p; }

double Rng::exponential(double mean) noexcept {
  DSM_REQUIRE(mean > 0.0);
  // Inverse transform; guard against log(0).
  double u = uniform01();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) noexcept {
  double u1 = uniform01();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform01();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(kTwoPi * u2);
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

Rng Rng::split() noexcept {
  // Mix two outputs into a fresh seed; child streams are statistically
  // independent of the parent continuation.
  std::uint64_t seed = next() ^ rotl(next(), 32) ^ 0xA5A5A5A55A5A5A5AULL;
  return Rng{seed};
}

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  DSM_REQUIRE(n >= 1);
  DSM_REQUIRE(s >= 0.0);
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = acc;
  }
  for (auto& c : cdf_) c /= acc;
  cdf_.back() = 1.0;  // defend against rounding
}

std::size_t ZipfSampler::sample(Rng& rng) const noexcept {
  const double u = rng.uniform01();
  // Binary search for the first rank whose CDF exceeds u.
  std::size_t lo = 0;
  std::size_t hi = cdf_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] > u) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace dsm
