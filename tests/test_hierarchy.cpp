#include "mem/hierarchy.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "mem/l1.hpp"

namespace laec::mem {
namespace {

MemorySystemParams fast_params() {
  MemorySystemParams p;
  p.bus.request_cycles = 1;
  p.bus.response_cycles = 1;
  p.l2.hit_cycles = 2;
  p.l2.write_cycles = 1;
  p.l2.memory_cycles = 10;
  p.l2.refill_cycles = 1;
  p.num_requesters = 2;
  return p;
}

L1Params dl1_params(WritePolicy wp = WritePolicy::kWriteBack,
                    std::string_view codec = "secded-39-32") {
  L1Params p;
  p.cache.name = "dl1";
  p.cache.size_bytes = 1024;
  p.cache.line_bytes = 32;
  p.cache.ways = 2;
  p.cache.write_policy = wp;
  p.cache.codec = ecc::make_codec(codec);
  return p;
}

struct Rig {
  Rig() : ms(fast_params()), dl1(dl1_params(), ms.bus(), 0) {}
  void tick_all(Cycle& now) {
    ms.tick(now);
    ++now;
  }
  MemorySystem ms;
  DL1Controller dl1;
};

TEST(Hierarchy, MissFetchesThroughL2FromMemory) {
  Rig rig;
  rig.ms.memory().write_u32(0x1000, 0xfeedc0de);
  Cycle now = 0;
  // Miss path: poll the controller and tick the bus each cycle.
  u32 value = 0;
  bool done = false;
  for (int i = 0; i < 200 && !done; ++i) {
    const auto r = rig.dl1.load(0x1000, 4, now);
    if (r.complete) {
      value = r.value;
      EXPECT_FALSE(r.hit);
      done = true;
    }
    rig.ms.tick(now);
    ++now;
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(value, 0xfeedc0deu);
  EXPECT_TRUE(rig.dl1.would_hit(0x1000));
  // The L2 now also holds the line (inclusive-ish refill).
  EXPECT_TRUE(rig.ms.l2().contains(0x1000));
}

TEST(Hierarchy, SecondAccessHitsLocally) {
  Rig rig;
  rig.ms.memory().write_u32(0x2000, 123);
  Cycle now = 0;
  bool done = false;
  for (int i = 0; i < 200 && !done; ++i) {
    done = rig.dl1.load(0x2000, 4, now).complete;
    rig.ms.tick(now);
    ++now;
  }
  const auto r = rig.dl1.load(0x2000, 4, now);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.value, 123u);
}

TEST(Hierarchy, L2HitFasterThanL2Miss) {
  Rig rig;
  Cycle now = 0;
  // First load warms the L2 (and DL1); invalidate DL1 to re-measure.
  bool done = false;
  for (int i = 0; i < 300 && !done; ++i) {
    done = rig.dl1.load(0x3000, 4, now).complete;
    rig.ms.tick(now);
    ++now;
  }
  rig.dl1.cache().invalidate(0x3000);

  int l2_hit_cycles = 0;
  done = false;
  for (int i = 0; i < 300 && !done; ++i) {
    done = rig.dl1.load(0x3000, 4, now).complete;
    rig.ms.tick(now);
    ++now;
    ++l2_hit_cycles;
  }

  // Fresh address: full memory trip.
  int l2_miss_cycles = 0;
  done = false;
  for (int i = 0; i < 300 && !done; ++i) {
    done = rig.dl1.load(0x9000, 4, now).complete;
    rig.ms.tick(now);
    ++now;
    ++l2_miss_cycles;
  }
  EXPECT_LT(l2_hit_cycles, l2_miss_cycles);
  EXPECT_GE(l2_miss_cycles - l2_hit_cycles, 8);  // ~memory_cycles
}

TEST(Hierarchy, WriteBackStoreAllocatesAndDirties) {
  Rig rig;
  Cycle now = 0;
  bool done = false;
  for (int i = 0; i < 300 && !done; ++i) {
    done = rig.dl1.store(0x4000, 4, 0xabcd, now).complete;
    rig.ms.tick(now);
    ++now;
  }
  ASSERT_TRUE(done);
  EXPECT_TRUE(rig.dl1.cache().line_dirty(0x4000));
  // Memory still has the stale value (no write-through).
  EXPECT_EQ(rig.ms.memory().read_u32(0x4000), 0u);
}

TEST(Hierarchy, WriteThroughStoreReachesL2) {
  MemorySystem ms(fast_params());
  DL1Controller dl1(dl1_params(WritePolicy::kWriteThrough,
                               "parity-32"),
                    ms.bus(), 0);
  Cycle now = 0;
  bool done = false;
  for (int i = 0; i < 300 && !done; ++i) {
    done = dl1.store(0x5000, 4, 77, now).complete;
    ms.tick(now);
    ++now;
  }
  ASSERT_TRUE(done);
  EXPECT_FALSE(dl1.cache().contains(0x5000));  // no-allocate on store miss
  EXPECT_TRUE(ms.l2().contains(0x5000));
  ms.flush_l2();
  EXPECT_EQ(ms.memory().read_u32(0x5000), 77u);
}

TEST(Hierarchy, DirtyEvictionWritesBackThroughBus) {
  Rig rig;  // DL1: 1 KB, 2-way, 32 B lines -> 16 sets, set stride 512 B
  Cycle now = 0;
  auto do_store = [&](Addr a, u32 v) {
    bool done = false;
    for (int i = 0; i < 400 && !done; ++i) {
      done = rig.dl1.store(a, 4, v, now).complete;
      rig.ms.tick(now);
      ++now;
    }
    ASSERT_TRUE(done);
  };
  do_store(0x0000, 111);  // set 0, dirty
  do_store(0x0200, 222);  // set 0, dirty
  do_store(0x0400, 333);  // set 0 -> evicts 0x0000
  // Give the eviction writeback time to drain.
  for (int i = 0; i < 100; ++i) {
    rig.ms.tick(now);
    ++now;
  }
  EXPECT_FALSE(rig.dl1.cache().contains(0x0000));
  EXPECT_TRUE(rig.ms.l2().contains(0x0000));
  rig.ms.flush_l2();
  EXPECT_EQ(rig.ms.memory().read_u32(0x0000), 111u);
}

TEST(Hierarchy, ParityErrorRecoversByRefetch) {
  MemorySystem ms(fast_params());
  DL1Controller dl1(dl1_params(WritePolicy::kWriteThrough,
                               "parity-32"),
                    ms.bus(), 0);
  ecc::FaultInjector inj;
  dl1.set_injector(&inj);
  ms.memory().write_u32(0x6000, 0x600d600d);
  Cycle now = 0;
  bool done = false;
  for (int i = 0; i < 300 && !done; ++i) {
    done = dl1.load(0x6000, 4, now).complete;
    ms.tick(now);
    ++now;
  }
  // Corrupt the cached copy; the next load detects parity failure and
  // refetches the clean copy from L2.
  inj.script_flip(0x6000 / 4, 5);
  done = false;
  u32 v = 0;
  for (int i = 0; i < 300 && !done; ++i) {
    const auto r = dl1.load(0x6000, 4, now);
    done = r.complete;
    if (done) v = r.value;
    ms.tick(now);
    ++now;
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(v, 0x600d600du);
  EXPECT_EQ(dl1.stats().value("parity_refetches"), 1u);
}

// ---------------------------------------------------------------------------
// L2 protection end to end: faults injected into the shared L2 array must be
// corrected (or recovered) on the read path every L1 refill flows through.
// ---------------------------------------------------------------------------

/// Rig with an injector attached to the L2 array and a selectable L2 codec.
struct L2FaultRig {
  explicit L2FaultRig(const char* l2_codec) : ms(params_for(l2_codec)),
                                              dl1(dl1_params(), ms.bus(), 0) {
    ms.l2().set_injector(&inj);
  }
  static MemorySystemParams params_for(const char* codec) {
    MemorySystemParams p = fast_params();
    p.l2.cache.codec = ecc::make_codec(codec);
    return p;
  }
  u32 load(Addr a) {
    bool done = false;
    u32 v = 0;
    for (int i = 0; i < 400 && !done; ++i) {
      const auto r = dl1.load(a, 4, now);
      if (r.complete) v = r.value;
      done = r.complete;
      ms.tick(now);
      ++now;
    }
    EXPECT_TRUE(done);
    return v;
  }
  void store(Addr a, u32 v) {
    bool done = false;
    for (int i = 0; i < 400 && !done; ++i) {
      done = dl1.store(a, 4, v, now).complete;
      ms.tick(now);
      ++now;
    }
    EXPECT_TRUE(done);
  }
  MemorySystem ms;
  DL1Controller dl1;
  ecc::FaultInjector inj;
  Cycle now = 0;
};

TEST(Hierarchy, L2SingleBitErrorCorrectedOnRefill) {
  L2FaultRig rig("secded-39-32");
  rig.ms.memory().write_u32(0x1000, 0xfeedc0de);
  (void)rig.load(0x1000);          // warm the L2
  rig.dl1.cache().invalidate(0x1000);
  rig.inj.script_flip(0x1000 / 4, 7);  // strike the L2 copy
  EXPECT_EQ(rig.load(0x1000), 0xfeedc0deu) << "refill must deliver corrected";
  EXPECT_EQ(rig.ms.l2().stats().value("ecc_corrected"), 1u);
  EXPECT_EQ(rig.ms.stats().value("l2_refetches"), 0u);
  EXPECT_EQ(rig.ms.stats().value("l2_data_loss_events"), 0u);
}

TEST(Hierarchy, L2AdjacentDoubleCorrectedBySecDaec) {
  L2FaultRig rig("sec-daec-39-32");
  rig.ms.memory().write_u32(0x2000, 0x600df00d);
  (void)rig.load(0x2000);
  rig.dl1.cache().invalidate(0x2000);
  rig.inj.script_flip(0x2000 / 4, 12);
  rig.inj.script_flip(0x2000 / 4, 13);  // adjacent pair in one access
  EXPECT_EQ(rig.load(0x2000), 0x600df00du);
  EXPECT_EQ(rig.ms.l2().stats().value("ecc_corrected_adjacent"), 1u);
  EXPECT_EQ(rig.ms.l2().stats().value("ecc_detected_uncorrectable"), 0u);
  EXPECT_EQ(rig.ms.stats().value("l2_data_loss_events"), 0u);
}

TEST(Hierarchy, L2AdjacentDoubleOnCleanLineRefetchesUnderSecded) {
  L2FaultRig rig("secded-39-32");
  rig.ms.memory().write_u32(0x3000, 0xbeefcafe);
  (void)rig.load(0x3000);
  rig.dl1.cache().invalidate(0x3000);
  rig.inj.script_flip(0x3000 / 4, 3);
  rig.inj.script_flip(0x3000 / 4, 4);
  // SECDED only detects the pair; the line is clean, so the refetch from
  // memory is lossless.
  EXPECT_EQ(rig.load(0x3000), 0xbeefcafeu);
  EXPECT_EQ(rig.ms.l2().stats().value("ecc_detected_uncorrectable"), 1u);
  EXPECT_EQ(rig.ms.stats().value("l2_refetches"), 1u);
  EXPECT_EQ(rig.ms.stats().value("l2_data_loss_events"), 0u);
}

TEST(Hierarchy, L2AdjacentDoubleOnDirtyLineIsDataLossUnderSecded) {
  // The writeback path: a dirty DL1 eviction lands in the L2 as the ONLY
  // copy of the stores. An adjacent-double upset there is detected but not
  // correctable by SECDED -> the refetch restores the stale memory image
  // and the event counts as data loss. (DL1: 1 KB 2-way, 32 B lines ->
  // set stride 512 B; three stores to set 0 force the eviction.)
  L2FaultRig rig("secded-39-32");
  rig.store(0x0000, 111);
  rig.store(0x0200, 222);
  rig.store(0x0400, 333);  // evicts 0x0000 -> dirty writeback into L2
  for (int i = 0; i < 100; ++i) {
    rig.ms.tick(rig.now);
    ++rig.now;
  }
  ASSERT_TRUE(rig.ms.l2().line_dirty(0x0000));
  rig.inj.script_flip(0x0000 / 4, 20);
  rig.inj.script_flip(0x0000 / 4, 21);
  const u32 v = rig.load(0x0000);
  EXPECT_EQ(v, 0u) << "stale memory image, not the lost writeback";
  EXPECT_EQ(rig.ms.stats().value("l2_data_loss_events"), 1u);
  EXPECT_EQ(rig.ms.stats().value("l2_refetches"), 1u);
}

TEST(Hierarchy, L2DirtyAdjacentDoubleSurvivesUnderSecDaec) {
  // Same storm, SEC-DAEC at L2: the pair is corrected in place, the
  // writeback survives, zero data loss — the fig9 headline in miniature.
  L2FaultRig rig("sec-daec-39-32");
  rig.store(0x0000, 111);
  rig.store(0x0200, 222);
  rig.store(0x0400, 333);
  for (int i = 0; i < 100; ++i) {
    rig.ms.tick(rig.now);
    ++rig.now;
  }
  ASSERT_TRUE(rig.ms.l2().line_dirty(0x0000));
  rig.inj.script_flip(0x0000 / 4, 20);
  rig.inj.script_flip(0x0000 / 4, 21);
  EXPECT_EQ(rig.load(0x0000), 111u);
  EXPECT_EQ(rig.ms.l2().stats().value("ecc_corrected_adjacent"), 1u);
  EXPECT_EQ(rig.ms.stats().value("l2_data_loss_events"), 0u);
  // And the corrected value is what the end-of-run flush writes back.
  rig.dl1.cache().invalidate(0x0000);
  rig.ms.flush_l2();
  EXPECT_EQ(rig.ms.memory().read_u32(0x0000), 111u);
}

// ---------------------------------------------------------------------------
// The instruction cache is explicitly read-only.
// ---------------------------------------------------------------------------

TEST(Hierarchy, L1IArrayRejectsWritesAndDirtyFills) {
  MemorySystem ms(fast_params());
  L1Params p;
  p.cache.name = "l1i";
  p.cache.size_bytes = 1024;
  p.cache.line_bytes = 32;
  p.cache.ways = 2;
  p.cache.codec = ecc::make_codec("parity-32");
  L1IController l1i(p, ms.bus(), 0);
  EXPECT_TRUE(l1i.cache().config().read_only);
  std::vector<u8> line(32, 0);
  l1i.cache().fill(0x100, line.data(), /*dirty=*/false);  // refills are fine
  EXPECT_THROW(l1i.cache().write(0x100, 4, 1, false), std::logic_error);
  EXPECT_THROW(l1i.cache().fill(0x200, line.data(), /*dirty=*/true),
               std::logic_error);
  EXPECT_FALSE(l1i.cache().line_dirty(0x100));
}

TEST(Hierarchy, OracleModeForcesOutcomes) {
  MemorySystem ms(fast_params());
  L1Params p = dl1_params();
  p.oracle.enabled = true;
  p.oracle.miss_cycles = 5;
  DL1Controller dl1(p, ms.bus(), 0);
  Cycle now = 0;
  // Forced hit completes immediately.
  EXPECT_TRUE(dl1.load(0x1234, 4, now, true).complete);
  // Forced miss takes oracle.miss_cycles.
  int cycles = 0;
  bool done = false;
  while (!done) {
    const auto r = dl1.load(0x1234, 4, now, false);
    done = r.complete;
    ++now;
    ++cycles;
    ASSERT_LT(cycles, 50);
  }
  EXPECT_GE(cycles, 5);
}

}  // namespace
}  // namespace laec::mem
