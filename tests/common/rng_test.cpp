#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "common/stats.hpp"

namespace dvs {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

// The first outputs of xoshiro256** seeded through SplitMix64, taken from
// a separate implementation of the two reference algorithms (Blackman &
// Vigna): the sequences every sweep and fleet result rests on must not
// move with the compiler or the platform.
TEST(Rng, MatchesTheReferenceXoshiro256StarStar) {
  Rng zero{0};
  for (std::uint64_t want : {0x99ec5f36cb75f2b4ULL, 0xbf6e1f784956452aULL,
                             0x1a5f849d4933e6e0ULL, 0x6aa594f1262d2d2cULL}) {
    EXPECT_EQ(zero.next_u64(), want);
  }
  Rng seeded{123};
  for (std::uint64_t want : {0x325a8fa1d1a069f9ULL, 0xf835e3c7656d4d5eULL,
                             0x77aa2b46c3f2a62fULL, 0x20820299aacf8206ULL}) {
    EXPECT_EQ(seeded.next_u64(), want);
  }
}

TEST(Rng, UniformIsTheTop53BitsOfTheRawOutput) {
  Rng a{99};
  Rng b{99};
  for (int i = 0; i < 100; ++i) {
    const double want = static_cast<double>(b.next_u64() >> 11) * 0x1.0p-53;
    EXPECT_EQ(a.uniform(), want);
  }
  // The call operator is the raw stream (UniformRandomBitGenerator).
  Rng c{5};
  Rng d{5};
  EXPECT_EQ(c(), d.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(3.0, 5.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng{11};
  std::array<int, 7> counts{};
  const int n = 70000;
  for (int i = 0; i < n; ++i) counts[rng.uniform_index(7)]++;
  for (int c : counts) {
    EXPECT_NEAR(c, n / 7, n / 7 * 0.1);
  }
  EXPECT_THROW((void)(rng.uniform_index(0)), std::domain_error);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng{13};
  RunningStats stats;
  const double rate = 38.3;
  for (int i = 0; i < 200000; ++i) stats.add(rng.exponential(rate));
  EXPECT_NEAR(stats.mean(), 1.0 / rate, 0.02 / rate);
  // Exponential: stddev == mean.
  EXPECT_NEAR(stats.stddev(), 1.0 / rate, 0.05 / rate);
  EXPECT_THROW((void)(rng.exponential(0.0)), std::domain_error);
}

TEST(Rng, ParetoRespectsScaleAndMean) {
  Rng rng{17};
  RunningStats stats;
  const double shape = 2.5;
  const double scale = 4.0;
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.pareto(shape, scale);
    EXPECT_GE(x, scale);
    stats.add(x);
  }
  // E[X] = a*m/(a-1).
  EXPECT_NEAR(stats.mean(), shape * scale / (shape - 1.0), 0.1);
  EXPECT_THROW((void)(rng.pareto(0.0, 1.0)), std::domain_error);
  EXPECT_THROW((void)(rng.pareto(1.0, 0.0)), std::domain_error);
}

TEST(Rng, NormalMoments) {
  Rng rng{19};
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
  EXPECT_THROW((void)(rng.normal(0.0, -1.0)), std::domain_error);
}

TEST(Rng, LognormalUnitMeanConstruction) {
  Rng rng{23};
  RunningStats stats;
  const double sigma = 0.3;
  // exp(N(-s^2/2, s)) has mean 1.
  for (int i = 0; i < 200000; ++i) {
    stats.add(rng.lognormal(-0.5 * sigma * sigma, sigma));
  }
  EXPECT_NEAR(stats.mean(), 1.0, 0.02);
}

TEST(Rng, UniformClosedRespectsBoundsAndMean) {
  Rng rng{47};
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.uniform_closed(0.5, 1.5);
    EXPECT_GE(x, 0.5);
    EXPECT_LE(x, 1.5);
    stats.add(x);
  }
  EXPECT_NEAR(stats.mean(), 1.0, 0.01);
  EXPECT_DOUBLE_EQ(rng.uniform_closed(2.0, 2.0), 2.0);
}

TEST(Rng, BernoulliCertainOutcomes) {
  Rng rng{53};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng{29};
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent{31};
  Rng child = parent.split();
  // Child differs from the parent's continued stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitIsDeterministicAndAdvancesTheParent) {
  Rng a{31};
  Rng b{31};
  Rng child_a = a.split();
  Rng child_b = b.split();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(child_a.next_u64(), child_b.next_u64());
  // The parent moved past the draw that seeded the child.
  Rng fresh{31};
  (void)fresh.next_u64();
  EXPECT_EQ(a.next_u64(), fresh.next_u64());
}

TEST(Rng, ShuffleIsDeterministicAndSafeOnTinyVectors) {
  std::vector<int> v1(20);
  for (int i = 0; i < 20; ++i) v1[static_cast<std::size_t>(i)] = i;
  std::vector<int> v2 = v1;
  Rng r1{59};
  Rng r2{59};
  shuffle(v1, r1);
  shuffle(v2, r2);
  EXPECT_EQ(v1, v2);

  std::vector<int> empty;
  std::vector<int> one{42};
  Rng rng{61};
  shuffle(empty, rng);
  shuffle(one, rng);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng{37};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  shuffle(v, rng);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace dvs
