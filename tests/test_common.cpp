// Unit tests for the common kernel: rng, format, WriteId.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>

#include "dsm/common/format.h"
#include "dsm/common/rng.h"
#include "dsm/common/types.h"

namespace dsm {
namespace {

// ---------------------------------------------------------------- WriteId --

TEST(WriteId, DefaultIsInvalidBottomMarker) {
  const WriteId w;
  EXPECT_FALSE(w.valid());
  EXPECT_EQ(w, kNoWrite);
}

TEST(WriteId, OrderingIsLexicographic) {
  const WriteId a{0, 1};
  const WriteId b{0, 2};
  const WriteId c{1, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_TRUE(a.valid());
}

TEST(WriteId, ToStringUsesPaperNotation) {
  EXPECT_EQ(to_string(WriteId{0, 3}), "w1^3");
  EXPECT_EQ(to_string(WriteId{2, 1}), "w3^1");
}

TEST(WriteId, HashSpreadsDistinctIds) {
  std::unordered_set<std::size_t> hashes;
  for (ProcessId p = 0; p < 16; ++p) {
    for (SeqNo s = 1; s <= 64; ++s) {
      hashes.insert(std::hash<WriteId>{}(WriteId{p, s}));
    }
  }
  // All 1024 ids distinct (collisions in 64-bit space would be a mixer bug).
  EXPECT_EQ(hashes.size(), 16u * 64u);
}

// -------------------------------------------------------------------- Rng --

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(1234);
  constexpr std::uint64_t kBuckets = 10;
  constexpr int kDraws = 100'000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, BetweenCoversBoundsInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01InHalfOpenUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(11);
  double sum = 0;
  constexpr int kDraws = 200'000;
  for (int i = 0; i < kDraws; ++i) sum += rng.exponential(50.0);
  EXPECT_NEAR(sum / kDraws, 50.0, 1.0);
}

TEST(Rng, NormalHasRequestedMoments) {
  Rng rng(13);
  double sum = 0, sum_sq = 0;
  constexpr int kDraws = 200'000;
  for (int i = 0; i < kDraws; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / kDraws;
  const double var = sum_sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, SplitStreamsAreIndependentOfParentContinuation) {
  Rng parent1(99);
  Rng child1 = parent1.split();
  // Re-derive: same parent seed -> same child stream.
  Rng parent2(99);
  Rng child2 = parent2.split();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(child1.next(), child2.next());
  // Child differs from parent continuation.
  EXPECT_NE(child1.next(), parent1.next());
}

TEST(Rng, ChanceExtremes) {
  Rng rng(21);
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// ----------------------------------------------------------------- Zipf ----

TEST(Zipf, ZeroExponentIsUniform) {
  const ZipfSampler zipf(8, 0.0);
  Rng rng(3);
  std::vector<int> counts(8, 0);
  constexpr int kDraws = 80'000;
  for (int i = 0; i < kDraws; ++i) ++counts[zipf.sample(rng)];
  for (const int c : counts) EXPECT_NEAR(c, kDraws / 8, kDraws / 8 * 0.1);
}

TEST(Zipf, PositiveExponentFavorsLowRanks) {
  const ZipfSampler zipf(16, 1.2);
  Rng rng(4);
  std::vector<int> counts(16, 0);
  for (int i = 0; i < 50'000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[4], counts[15]);
}

TEST(Zipf, SingleItemAlwaysRankZero) {
  const ZipfSampler zipf(1, 2.0);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.sample(rng), 0u);
}

TEST(Zipf, HeavySkewConcentratesOnRankZero) {
  // At s=3 the CDF is dominated by the first rank (1 / zeta(3) ≈ 0.83); the
  // tail ranks should be rare but not impossible.
  const ZipfSampler zipf(16, 3.0);
  Rng rng(6);
  std::vector<int> counts(16, 0);
  constexpr int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], kDraws * 3 / 4);
  EXPECT_GT(counts[1], 0);
  EXPECT_LT(counts[15], kDraws / 100);
}

TEST(Zipf, SameSeedYieldsSameSequence) {
  // Sampling is a pure function of (n, s, rng state): two samplers over
  // same-seeded generators must agree draw for draw.
  const ZipfSampler a(12, 0.9);
  const ZipfSampler b(12, 0.9);
  Rng rng_a(77);
  Rng rng_b(77);
  for (int i = 0; i < 1'000; ++i) EXPECT_EQ(a.sample(rng_a), b.sample(rng_b));
}

// ---------------------------------------------------------------- format --

TEST(Format, Padding) {
  EXPECT_EQ(pad_right("ab", 5), "ab   ");
  EXPECT_EQ(pad_left("ab", 5), "   ab");
  EXPECT_EQ(pad_right("abcdef", 3), "abcdef");  // no truncation
}

TEST(Format, Join) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, " | "), "a | b | c");
}

TEST(Format, Fixed) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 0), "2");
}

TEST(Format, PaperNames) {
  EXPECT_EQ(var_name(0), "x1");
  EXPECT_EQ(proc_name(2), "p3");
  EXPECT_EQ(vec_to_string({1, 0, 2}), "[1,0,2]");
}

}  // namespace
}  // namespace dsm
