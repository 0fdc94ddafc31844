#include "common/rng.hpp"

#include <gtest/gtest.h>

#include "common/hash.hpp"

namespace laec {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const i64 v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  double sum = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, ChanceExtremes) {
  Rng r(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng r(17);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += r.chance(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.25, 0.01);
}

TEST(Rng, ReseedReproduces) {
  Rng r(5);
  const u64 a = r.next_u64();
  r.reseed(5);
  EXPECT_EQ(r.next_u64(), a);
}

TEST(Hash, MatchesPublishedVectors) {
  // splitmix64 from state 0, and FNV-1a 64 from its standard basis.
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(splitmix64(kSplitmixGamma), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(fnv1a("", kFnvOffset), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a", kFnvOffset), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar", kFnvOffset), 0x85944171f73967e8ull);
  // The default basis is the pinned service one, not the standard one.
  EXPECT_EQ(fnv1a(""), 1469598103934665603ull);
}

}  // namespace
}  // namespace laec
