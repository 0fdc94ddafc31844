#include "ecc/injector.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "reliability/schedule.hpp"

namespace laec::ecc {
namespace {

TEST(Injector, DisabledByDefault) {
  FaultInjector inj;
  EXPECT_FALSE(inj.enabled());
  EXPECT_TRUE(inj.flips_for_access(0).empty());
}

TEST(Injector, ScriptedFlipFiresOnceOnMatchingWord) {
  FaultInjector inj;
  inj.script_flip(7, 3);
  EXPECT_TRUE(inj.enabled());
  EXPECT_TRUE(inj.flips_for_access(5).empty());
  const auto f = inj.flips_for_access(7);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0], 3u);
  EXPECT_TRUE(inj.flips_for_access(7).empty());  // consumed
  EXPECT_EQ(inj.injected_scripted(), 1u);
}

TEST(Injector, ScriptedFlipsAccumulate) {
  FaultInjector inj;
  inj.script_flip(1, 0);
  inj.script_flip(1, 5);
  const auto f = inj.flips_for_access(1);
  EXPECT_EQ(f.size(), 2u);
}

TEST(Injector, ScriptedPileUpBeyondFlipSetCapacityStaysQueued) {
  // The allocation-free FlipSet reserves two slots for the random draw;
  // an oversized scripted pile-up on one word delivers across successive
  // accesses instead of overflowing (or dropping) flips.
  FaultInjector inj;
  for (unsigned b = 0; b < 10; ++b) inj.script_flip(3, b);
  unsigned delivered = 0;
  int accesses = 0;
  while (inj.enabled() && accesses < 10) {
    const auto f = inj.flips_for_access(3);
    ASSERT_LE(f.size(), FlipSet::kMax);
    delivered += f.size();
    ++accesses;
  }
  EXPECT_EQ(delivered, 10u);
  EXPECT_EQ(inj.injected_scripted(), 10u);
  EXPECT_GE(accesses, 2);  // could not have fit in one access
}

TEST(Injector, SingleFlipRateApproximatelyHonored) {
  InjectorConfig cfg;
  cfg.single_flip_prob = 0.1;
  cfg.word_bits = 39;
  FaultInjector inj(cfg);
  int flips = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const auto f = inj.flips_for_access(static_cast<u64>(i));
    EXPECT_LE(f.size(), 1u);
    flips += static_cast<int>(f.size());
    for (unsigned b : f) EXPECT_LT(b, 39u);
  }
  EXPECT_NEAR(static_cast<double>(flips) / kN, 0.1, 0.01);
}

TEST(Injector, DoubleFlipsAreDistinctPositions) {
  InjectorConfig cfg;
  cfg.double_flip_prob = 1.0;
  cfg.word_bits = 39;
  FaultInjector inj(cfg);
  for (int i = 0; i < 500; ++i) {
    const auto f = inj.flips_for_access(static_cast<u64>(i));
    ASSERT_EQ(f.size(), 2u);
    EXPECT_NE(f[0], f[1]);
    EXPECT_LT(f[0], 39u);
    EXPECT_LT(f[1], 39u);
  }
  EXPECT_EQ(inj.injected_double(), 500u);
}

TEST(Injector, AdjacentDoublesStrikeNeighbouringBits) {
  InjectorConfig cfg;
  cfg.double_flip_prob = 1.0;
  cfg.adjacent_doubles = true;
  cfg.word_bits = 39;
  FaultInjector inj(cfg);
  bool saw_low = false, saw_high = false;
  for (int i = 0; i < 500; ++i) {
    const auto f = inj.flips_for_access(static_cast<u64>(i));
    ASSERT_EQ(f.size(), 2u);
    EXPECT_EQ(f[1], f[0] + 1) << "double upset must hit an adjacent pair";
    EXPECT_LT(f[1], 39u);
    saw_low |= f[0] < 8;
    saw_high |= f[0] >= 30;
  }
  EXPECT_TRUE(saw_low);
  EXPECT_TRUE(saw_high);
  EXPECT_EQ(inj.injected_double(), 500u);
}

TEST(Injector, DeterministicAcrossInstances) {
  InjectorConfig cfg;
  cfg.single_flip_prob = 0.5;
  cfg.seed = 99;
  FaultInjector a(cfg), b(cfg);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.flips_for_access(static_cast<u64>(i)),
              b.flips_for_access(static_cast<u64>(i)));
  }
}

TEST(Injector, ScriptedPlusRandomDrawFillsFlipSetExactlyToCapacity) {
  // kMax - 2 scripted flips plus a certain double draw: the reserve math
  // must land the set EXACTLY full, never over.
  InjectorConfig cfg;
  cfg.double_flip_prob = 1.0;
  cfg.word_bits = 39;
  FaultInjector inj(cfg);
  for (unsigned b = 0; b < FlipSet::kMax - 2; ++b) inj.script_flip(4, b);
  const auto f = inj.flips_for_access(4);
  EXPECT_EQ(f.size(), FlipSet::kMax);
  EXPECT_TRUE(f.full());
  EXPECT_EQ(inj.injected_scripted(), FlipSet::kMax - 2);
  EXPECT_EQ(inj.injected_double(), 1u);
}

TEST(Injector, PatternTableDrawsEveryShapeWithTheRightGeometry) {
  // The campaign's storm drawer: every shape of the MBU table lands as
  // distinct in-range flips with its own geometry.
  const reliability::MbuPatternTable table{0.25, 0.25, 0.25, 0.25};
  Rng rng(0x5eed);
  int singles = 0, pairs = 0, triples = 0, clusters = 0;
  for (int i = 0; i < 2000; ++i) {
    FlipSet f;
    ASSERT_TRUE(reliability::draw_pattern_event(rng, table, 45, f));
    ASSERT_GE(f.size(), 1u);
    ASSERT_LE(f.size(), 4u);
    unsigned lo = 45, hi = 0;
    for (unsigned k = 0; k < f.size(); ++k) {
      ASSERT_LT(f[k], 45u);
      lo = std::min(lo, f[k]);
      hi = std::max(hi, f[k]);
      for (unsigned m = k + 1; m < f.size(); ++m) {
        ASSERT_NE(f[k], f[m]) << "duplicate flip position";
      }
    }
    const bool contiguous = hi - lo + 1 == f.size();
    if (f.size() == 1) {
      ++singles;
    } else if (f.size() == 2 && contiguous) {
      ++pairs;
    } else if (f.size() == 3 && contiguous) {
      ++triples;
    } else {
      // Clustered: confined to an 8-bit window. (A cluster CAN come out
      // contiguous by chance; the contiguous 2/3-flip draws above fold
      // those in, which only biases the shape counts, not the geometry.)
      ++clusters;
      EXPECT_LE(hi - lo, 7u) << "cluster escaped its 8-bit window";
    }
  }
  // Every shape must actually occur (weights are equal).
  EXPECT_GT(singles, 200);
  EXPECT_GT(pairs, 200);
  EXPECT_GT(triples, 100);
  EXPECT_GT(clusters, 100);
  // An all-zero table draws nothing.
  FlipSet none;
  EXPECT_FALSE(reliability::draw_pattern_event(
      rng, reliability::MbuPatternTable{0.0, 0.0, 0.0, 0.0}, 45, none));
  EXPECT_TRUE(none.empty());
}

}  // namespace
}  // namespace laec::ecc
