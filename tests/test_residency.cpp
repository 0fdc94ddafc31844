// ResidencyRecorder semantics on hand-driven SetAssocCache access
// sequences, and the pass-2 schedule drawer built on top of the recorded
// windows. These are the soundness primitives of golden-run pruning: a
// window misclassified live/dead, or a non-deterministic window order,
// silently changes every trial's RNG stream.
#include "mem/residency.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "ecc/registry.hpp"
#include "mem/cache.hpp"
#include "reliability/campaign.hpp"
#include "reliability/schedule.hpp"

namespace laec::mem {
namespace {

// 2-way, 16-set, 32B-line array: 8 words per line, small enough to force
// evictions with three same-set fills.
CacheConfig small_cfg() {
  CacheConfig c;
  c.name = "t";
  c.size_bytes = 1024;
  c.line_bytes = 32;
  c.ways = 2;
  c.codec = ecc::make_codec("secded-39-32");
  return c;
}

std::vector<u8> line_of(u32 seed) {
  std::vector<u8> v(32);
  for (u32 i = 0; i < 32; ++i) v[i] = static_cast<u8>(seed + i);
  return v;
}

struct Rig {
  Cycle clock = 0;
  ResidencyRecorder rec;
  SetAssocCache cache{small_cfg()};
  Rig() {
    rec.bind_clock(&clock);
    cache.set_recorder(&rec);
  }
};

u64 count_live(const std::vector<AccessWindow>& w) {
  return static_cast<u64>(
      std::count_if(w.begin(), w.end(), [](auto& x) { return x.live; }));
}

TEST(Residency, ReadClosesLiveWindowThenFinalizeClosesDead) {
  Rig r;
  r.cache.fill(0x100, line_of(1).data(), false);  // installs 8 words at t=0
  r.clock = 10;
  (void)r.cache.read(0x104, 4);  // live window, gap 10
  r.clock = 25;
  r.rec.finalize();  // 8 still-resident words -> 8 dead windows

  const auto& w = r.rec.windows();
  ASSERT_EQ(w.size(), 9u);
  EXPECT_EQ(count_live(w), 1u);
  EXPECT_EQ(r.rec.live_windows(), 1u);
  EXPECT_TRUE(w[0].live);
  EXPECT_EQ(w[0].gap_cycles, 10u);
  // The read word's residency reopened at t=10: its trailing dead window
  // spans 15 cycles; the seven untouched words span the full 25.
  u64 dead15 = 0, dead25 = 0;
  for (std::size_t i = 1; i < w.size(); ++i) {
    EXPECT_FALSE(w[i].live);
    if (w[i].gap_cycles == 15) ++dead15;
    if (w[i].gap_cycles == 25) ++dead25;
  }
  EXPECT_EQ(dead15, 1u);
  EXPECT_EQ(dead25, 7u);
}

TEST(Residency, OverwriteClosesDeadWindowAndReopens) {
  Rig r;
  r.cache.fill(0x200, line_of(2).data(), false);
  r.clock = 5;
  r.cache.write(0x208, 4, 0xdeadbeef, true);  // dead window, gap 5
  r.clock = 9;
  (void)r.cache.read(0x208, 4);  // live window, gap 4 (since the write)

  const auto& w = r.rec.windows();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_FALSE(w[0].live);
  EXPECT_EQ(w[0].gap_cycles, 5u);
  EXPECT_TRUE(w[1].live);
  EXPECT_EQ(w[1].gap_cycles, 4u);
}

TEST(Residency, SubWordWriteStillClosesWholeWordWindow) {
  Rig r;
  r.cache.fill(0x240, line_of(3).data(), false);
  r.clock = 7;
  r.cache.write(0x249, 1, 0xaa, true);  // 1-byte RMW merge
  const auto& w = r.rec.windows();
  ASSERT_EQ(w.size(), 1u);
  EXPECT_FALSE(w[0].live);
  EXPECT_EQ(w[0].gap_cycles, 7u);
}

TEST(Residency, CleanEvictionRetiresEveryWordDead) {
  Rig r;
  // Three fills into the same set (stride = 16 sets * 32 B = 512 B).
  r.cache.fill(0x000, line_of(1).data(), false);
  r.cache.fill(0x200, line_of(2).data(), false);
  r.clock = 12;
  // Evicts the LRU line 0x000; a clean victim needs no writeback, so fill
  // reports no Eviction — but its words still retire with the recorder.
  auto ev = r.cache.fill(0x400, line_of(3).data(), false);
  EXPECT_FALSE(ev.has_value());

  const auto& w = r.rec.windows();
  ASSERT_EQ(w.size(), 8u);  // one dead window per word of the victim line
  for (const auto& x : w) {
    EXPECT_FALSE(x.live);
    EXPECT_EQ(x.gap_cycles, 12u);
  }
}

TEST(Residency, DirtyWritebackRetiresDeadToo) {
  Rig r;
  r.cache.fill(0x000, line_of(1).data(), false);
  r.clock = 3;
  r.cache.write(0x004, 4, 0x1234, true);  // dead window gap 3, line dirty
  r.cache.fill(0x200, line_of(2).data(), false);
  r.clock = 20;
  auto ev = r.cache.fill(0x400, line_of(3).data(), false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_TRUE(ev->dirty);

  // A dirty writeback is still architecturally dead for the cached copy:
  // no *cache read* ever sees an upset landing after the last touch.
  const auto& w = r.rec.windows();
  ASSERT_EQ(w.size(), 9u);
  EXPECT_EQ(count_live(w), 0u);
  // Written word retired with gap 17 (t=3 -> t=20); the other seven with 20.
  u64 gap17 = 0, gap20 = 0;
  for (std::size_t i = 1; i < w.size(); ++i) {
    if (w[i].gap_cycles == 17) ++gap17;
    if (w[i].gap_cycles == 20) ++gap20;
  }
  EXPECT_EQ(gap17, 1u);
  EXPECT_EQ(gap20, 7u);
}

TEST(Residency, InvalidateRetiresDead) {
  Rig r;
  r.cache.fill(0x300, line_of(4).data(), false);
  r.clock = 6;
  (void)r.cache.read(0x300, 4);  // live, gap 6
  r.clock = 11;
  EXPECT_TRUE(r.cache.invalidate(0x300));
  const auto& w = r.rec.windows();
  ASSERT_EQ(w.size(), 9u);
  EXPECT_EQ(count_live(w), 1u);
  EXPECT_EQ(w[0].gap_cycles, 6u);
}

TEST(Residency, ReadOnlyArrayProducesOnlyReadAndRetireWindows) {
  // L1I arrangement: fills and reads only, never written, never dirty.
  CacheConfig cfg = small_cfg();
  cfg.read_only = true;
  cfg.write_policy = WritePolicy::kWriteThrough;
  Cycle clock = 0;
  ResidencyRecorder rec;
  rec.bind_clock(&clock);
  SetAssocCache cache(cfg);
  cache.set_recorder(&rec);

  cache.fill(0x100, line_of(9).data(), false);
  clock = 4;
  (void)cache.read(0x100, 4);
  clock = 5;
  (void)cache.read(0x100, 4);  // second read of same word: live, gap 1
  clock = 9;
  rec.finalize();

  const auto& w = rec.windows();
  ASSERT_EQ(w.size(), 10u);
  EXPECT_EQ(count_live(w), 2u);
  EXPECT_TRUE(w[0].live);
  EXPECT_EQ(w[0].gap_cycles, 4u);
  EXPECT_TRUE(w[1].live);
  EXPECT_EQ(w[1].gap_cycles, 1u);
}

TEST(Residency, FinalizeOrderIsDeterministicAcrossRuns) {
  auto run = [] {
    Rig r;
    r.cache.fill(0x600, line_of(1).data(), false);
    r.cache.fill(0x040, line_of(2).data(), false);
    r.clock = 2;
    (void)r.cache.read(0x608, 4);
    r.clock = 8;
    r.rec.finalize();
    std::vector<std::pair<u64, bool>> seq;
    for (const auto& w : r.rec.windows()) seq.emplace_back(w.gap_cycles, w.live);
    return seq;
  };
  EXPECT_EQ(run(), run());
}

TEST(Residency, MeanExposureCycles) {
  EXPECT_EQ(mean_exposure_cycles({}), 0.0);
  std::vector<AccessWindow> w{{10, true}, {20, false}, {60, false}};
  EXPECT_DOUBLE_EQ(mean_exposure_cycles(w), 30.0);
}

TEST(Residency, TakeWindowsMovesOut) {
  Rig r;
  r.cache.fill(0x100, line_of(1).data(), false);
  r.clock = 5;
  r.rec.finalize();
  auto w = r.rec.take_windows();
  EXPECT_EQ(w.size(), 8u);
  EXPECT_TRUE(r.rec.windows().empty());
}

}  // namespace
}  // namespace laec::mem

namespace laec::reliability {
namespace {

using mem::AccessWindow;

MbuPatternTable seu_only() { return MbuPatternTable{}; }

TEST(TrialSchedule, ZeroLambdaDrawsNothing) {
  std::vector<AccessWindow> w{{100, true}, {100, false}};
  const auto s = draw_trial_schedule(w, 0.0, seu_only(), 39, 1234);
  EXPECT_EQ(s.events, 0u);
  EXPECT_EQ(s.dropped_events, 0u);
  EXPECT_FALSE(s.has_live());
}

TEST(TrialSchedule, SaturatedLambdaDeliversAtConsultOrdinals) {
  // Consultation ordinals count LIVE windows only: dead windows are never
  // consulted by the injector. With lambda >> 1 every window fires.
  std::vector<AccessWindow> w{
      {1, false}, {1, true}, {1, false}, {1, true}, {1, false}};
  const auto s = draw_trial_schedule(w, 1e9, seu_only(), 39, 7);
  EXPECT_TRUE(s.has_live());
  ASSERT_EQ(s.deliveries.size(), 2u);
  EXPECT_EQ(s.deliveries[0].first, 0u);  // first live window -> consult 0
  EXPECT_EQ(s.deliveries[1].first, 1u);
  // Dead-window events are counted (AVF denominator) but never delivered.
  EXPECT_GE(s.events, 5u);
  for (const auto& d : s.deliveries) EXPECT_FALSE(d.second.empty());
}

TEST(TrialSchedule, DeterministicPerSeed) {
  std::vector<AccessWindow> w;
  for (int i = 0; i < 64; ++i) {
    w.push_back({static_cast<u64>(10 + i), (i % 3) == 0});
  }
  const auto a = draw_trial_schedule(w, 0.01, seu_only(), 39, 42);
  const auto b = draw_trial_schedule(w, 0.01, seu_only(), 39, 42);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.dropped_events, b.dropped_events);
  ASSERT_EQ(a.deliveries.size(), b.deliveries.size());
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    EXPECT_EQ(a.deliveries[i].first, b.deliveries[i].first);
    EXPECT_TRUE(a.deliveries[i].second == b.deliveries[i].second);
  }
  // A different seed draws a different storm (on 64 windows the chance of
  // a collision at these rates is negligible and, crucially, fixed).
  const auto c = draw_trial_schedule(w, 0.5, seu_only(), 39, 42);
  const auto d = draw_trial_schedule(w, 0.5, seu_only(), 39, 43);
  EXPECT_TRUE(c.events != d.events || c.deliveries.size() != d.deliveries.size());
}

/// The drawer as it stood before its lazy hit test: one
/// Rng::chance(1 - exp(-lambda)) per window, expm1 called every time.
ecc::TrialSchedule expm1_walk(const std::vector<AccessWindow>& windows,
                              double lambda_scale,
                              const MbuPatternTable& patterns,
                              unsigned word_bits, u64 seed) {
  ecc::TrialSchedule s;
  Rng rng(seed);
  u64 consult = 0;
  for (const AccessWindow& w : windows) {
    const double lam = lambda_scale * static_cast<double>(w.gap_cycles);
    if (rng.chance(-std::expm1(-lam))) {
      const unsigned events = draw_event_count(rng, lam);
      if (w.live) {
        ecc::FlipSet flips;
        for (unsigned e = 0; e < events; ++e) {
          if (flips.size() + 4u <= ecc::FlipSet::kMax) {
            if (draw_pattern_event(rng, patterns, word_bits, flips)) {
              ++s.events;
            }
          } else {
            ++s.dropped_events;
          }
        }
        if (!flips.empty()) s.deliveries.emplace_back(consult, flips);
      } else {
        s.events += events;
      }
    }
    if (w.live) ++consult;
  }
  return s;
}

TEST(TrialSchedule, LazyHitTestMatchesTheExpm1Walk) {
  // With scale 1e-3 the gaps below give lambda = 0, 1e-3, 0.1, 0.4, 0.499,
  // 0.5, 0.501, 0.6, 2, 38 and 1e9; a window whose lambda is 38 or more has
  // p = 1 - exp(-lambda) rounding to 1, which draws no uniform at all.
  ASSERT_EQ(-std::expm1(-38.0), 1.0);
  const std::vector<u64> gaps = {0,   1,   100,  400,   499,          500,
                                 501, 600, 2000, 38000, 1'000'000'000'000};
  std::vector<AccessWindow> windows;
  for (int rep = 0; rep < 3; ++rep) {
    for (const u64 g : gaps) {
      windows.push_back({g, true});
      windows.push_back({g, false});
    }
  }
  const double scales[] = {
      1e-3,                                       // the lambda ladder above
      std::numeric_limits<double>::denorm_min(),  // subnormal lambda
      1e-310,                                     // subnormal, then normal
      0.6e-3,                                     // 0.5 falls between gaps
      -1e-3,                                      // negative lambda
      std::numeric_limits<double>::quiet_NaN(),
  };
  const MbuPatternTable tables[] = {seu_only(),
                                    tech_preset("28nm")->patterns};
  u64 live_trials = 0;
  for (const MbuPatternTable& table : tables) {
    for (const double scale : scales) {
      for (u64 seed = 1; seed <= 1000; ++seed) {
        const auto want = expm1_walk(windows, scale, table, 39, seed);
        const auto got = draw_trial_schedule(windows, scale, table, 39, seed);
        const std::string at =
            "scale " + std::to_string(scale) + " seed " + std::to_string(seed);
        ASSERT_EQ(got.events, want.events) << at;
        ASSERT_EQ(got.dropped_events, want.dropped_events) << at;
        ASSERT_EQ(got.deliveries.size(), want.deliveries.size()) << at;
        for (std::size_t i = 0; i < want.deliveries.size(); ++i) {
          ASSERT_EQ(got.deliveries[i].first, want.deliveries[i].first) << at;
          ASSERT_TRUE(got.deliveries[i].second == want.deliveries[i].second)
              << at << " delivery " << i;
        }
        if (want.has_live()) ++live_trials;
      }
    }
  }
  EXPECT_GT(live_trials, 0u);
}

TEST(TrialSchedule, WindowLambdaScaleMatchesClosedForm) {
  CampaignSpec spec;
  spec.accel = 1e12;
  spec.freq_mhz = 100.0;
  const double fit = 900.0;  // 28nm-class per-Mbit rate
  const unsigned bits = 39;
  const double expect = fit * 1e-9 / (1024.0 * 1024.0) * bits * spec.accel /
                        (spec.freq_mhz * 1e6) / 3600.0;
  EXPECT_DOUBLE_EQ(window_lambda_scale(spec, fit, bits), expect);
}

TEST(TrialSchedule, LiveShareMatchesTheClosedForm) {
  // Upsets form a Poisson process over the exposure, and only live windows
  // deliver theirs, so a storm delivers at least once with probability
  // 1 - exp(-lambda_scale * sum of live gaps), whatever the dead windows
  // and the MBU shapes draw. Over 20000 seeds per scale, the drawer's
  // has_live() share must sit within 5 binomial sigma of that closed form
  // at P(live) = 0.05, 0.5 and 0.95. The gaps include zeros and two long
  // windows, so both the lazy hit test and its expm1 path run.
  std::vector<AccessWindow> windows;
  u64 live_cycles = 0;
  for (u64 i = 0; i < 64; ++i) {
    const u64 gap = i == 20 ? 5000 : i == 40 ? 20000 : (i * 7919) % 400;
    const bool live = i % 3 != 1;
    windows.push_back({gap, live});
    if (live) live_cycles += gap;
  }
  ASSERT_TRUE(windows[20].live && !windows[40].live);
  const MbuPatternTable table = tech_preset("28nm")->patterns;
  constexpr u64 kSeeds = 20000;
  for (const double target : {0.05, 0.5, 0.95}) {
    const double live_exposure = static_cast<double>(live_cycles);
    const double scale = -std::log1p(-target) / live_exposure;
    const double p = -std::expm1(-scale * live_exposure);
    u64 live = 0;
    for (u64 seed = 1; seed <= kSeeds; ++seed) {
      live += draw_trial_schedule(windows, scale, table, 39, seed).has_live();
    }
    const double n = static_cast<double>(kSeeds);
    const double sigma = std::sqrt(n * p * (1.0 - p));
    EXPECT_NEAR(static_cast<double>(live), n * p, 5.0 * sigma)
        << "P(live) " << p << " at lambda scale " << scale;
  }
}

}  // namespace
}  // namespace laec::reliability
