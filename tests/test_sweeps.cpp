// Parameterized cross-configuration sweeps: the library's core invariants
// must hold at every point of the machine-configuration space, not just at
// the NGMP reference point.
#include <gtest/gtest.h>

#include "sim_test_util.hpp"
#include "workloads/eembc.hpp"
#include "workloads/synthetic.hpp"

namespace laec {
namespace {

using cpu::EccPolicy;

struct Geometry {
  u32 dl1_kb;
  u32 ways;
  unsigned wbuf;
  unsigned div_lat;
  unsigned mem_cycles;
};

void apply(core::SimConfig& cfg, const Geometry& g) {
  cfg.dl1_size_bytes = g.dl1_kb * 1024;
  cfg.dl1_ways = g.ways;
  cfg.write_buffer_depth = g.wbuf;
  cfg.div_latency = g.div_lat;
  cfg.memory_cycles = g.mem_cycles;
}

class GeometrySweep : public ::testing::TestWithParam<Geometry> {};

TEST_P(GeometrySweep, KernelCorrectAndOrderedEverywhere) {
  // One dependence-heavy kernel with divides and stores, across the
  // whole config space: results exact, scheme ordering preserved.
  const auto k = workloads::kernel_by_name("tblook").build();
  u64 cycles_noecc = 0, cycles_laec = 0, cycles_es = 0;
  for (EccPolicy p :
       {EccPolicy::kNoEcc, EccPolicy::kLaec, EccPolicy::kExtraStage}) {
    auto cfg = test::test_config(p);
    apply(cfg, GetParam());
    auto r = test::run_keep_system(cfg, k.program, /*warm_icache=*/true);
    ASSERT_TRUE(r.stats.completed);
    for (const auto& [addr, expect] : k.expected) {
      ASSERT_EQ(r.system->read_word_final(addr), expect);
    }
    if (p == EccPolicy::kNoEcc) cycles_noecc = r.stats.cycles;
    if (p == EccPolicy::kLaec) cycles_laec = r.stats.cycles;
    if (p == EccPolicy::kExtraStage) cycles_es = r.stats.cycles;
  }
  EXPECT_LE(cycles_noecc, cycles_laec);
  EXPECT_LE(cycles_laec, cycles_es);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GeometrySweep,
    ::testing::Values(Geometry{16, 4, 8, 12, 26},   // NGMP reference
                      Geometry{1, 1, 1, 1, 8},      // tiny and fast
                      Geometry{1, 4, 2, 34, 80},    // tiny, slow divider/mem
                      Geometry{64, 8, 16, 12, 26},  // large DL1
                      Geometry{4, 2, 4, 20, 50},    // mid-range
                      Geometry{16, 1, 8, 12, 26},   // direct-mapped
                      Geometry{8, 4, 32, 6, 12}),   // deep write buffer
    [](const auto& info) {
      const Geometry& g = info.param;
      return "dl1_" + std::to_string(g.dl1_kb) + "k_w" +
             std::to_string(g.ways) + "_wb" + std::to_string(g.wbuf) +
             "_div" + std::to_string(g.div_lat) + "_mem" +
             std::to_string(g.mem_cycles);
    });

class LineSizeSweep : public ::testing::TestWithParam<u32> {};

TEST_P(LineSizeSweep, CacheGeometryIndependence) {
  // Architectural results must not depend on the line size (of both L1s).
  const auto k = workloads::kernel_by_name("canrdr").build();
  sim::SystemConfig sc =
      core::make_system_config(test::test_config(EccPolicy::kLaec));
  sc.core.dl1.cache.line_bytes = GetParam();
  sc.core.l1i.cache.line_bytes = GetParam();
  sim::System sys(sc);
  sys.load_program(k.program);
  ASSERT_TRUE(sys.run().completed);
  for (const auto& [addr, expect] : k.expected) {
    ASSERT_EQ(sys.read_word_final(addr), expect);
  }
}

INSTANTIATE_TEST_SUITE_P(Lines, LineSizeSweep,
                         ::testing::Values(16u, 32u, 64u, 128u));

class TraceDepthSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(TraceDepthSweep, WriteBufferDepthNeverChangesTraceResults) {
  // Timing changes, instruction count does not; determinism holds.
  workloads::SyntheticParams p;
  p.num_ops = 20'000;
  p.store_frac = 0.2;  // stress the buffer
  core::SimConfig cfg;  // LAEC, the default scheme
  cfg.write_buffer_depth = GetParam();
  workloads::SyntheticTrace t1(p);
  const auto a = core::run_trace(cfg, t1);
  workloads::SyntheticTrace t2(p);
  const auto b = core::run_trace(cfg, t2);
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_GE(a.instructions, p.num_ops);
}

INSTANTIATE_TEST_SUITE_P(Depths, TraceDepthSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 64u));

TEST(Sweeps, ShallowerWriteBufferIsNeverFaster) {
  // More buffering can only help (or tie): stores stall less.
  workloads::SyntheticParams p;
  p.num_ops = 30'000;
  p.store_frac = 0.25;
  u64 prev = ~u64{0};
  for (unsigned depth : {1u, 4u, 16u}) {
    core::SimConfig cfg;
    cfg.set_scheme("no-ecc");
    cfg.write_buffer_depth = depth;
    workloads::SyntheticTrace t(p);
    const auto s = core::run_trace(cfg, t);
    EXPECT_LE(s.cycles, prev) << "depth " << depth;
    prev = s.cycles;
  }
}

TEST(Sweeps, SlowerMemoryMonotonicallySlowsMissyKernels) {
  const auto k = workloads::kernel_by_name("cacheb").build();
  u64 prev = 0;
  for (unsigned mem : {8u, 26u, 60u}) {
    auto cfg = test::test_config(EccPolicy::kNoEcc);
    cfg.memory_cycles = mem;
    auto r = test::run_keep_system(cfg, k.program);
    ASSERT_TRUE(r.stats.completed);
    EXPECT_GT(r.stats.cycles, prev);
    prev = r.stats.cycles;
  }
}

TEST(Sweeps, SmallerCacheLowersHitRate) {
  const auto k = workloads::kernel_by_name("matrix").build();
  double prev_hits = 0.0;
  for (u32 kb : {1u, 4u, 16u}) {
    auto cfg = test::test_config(EccPolicy::kNoEcc);
    cfg.dl1_size_bytes = kb * 1024;
    auto r = test::run_keep_system(cfg, k.program);
    EXPECT_GE(r.stats.hit_fraction() + 1e-9, prev_hits) << kb << "KB";
    prev_hits = r.stats.hit_fraction();
  }
  EXPECT_GT(prev_hits, 0.95);  // matrix fits comfortably at 16 KB
}

TEST(Sweeps, DivLatencyHitsDivideHeavyKernelsHardest) {
  const auto div_heavy = workloads::kernel_by_name("rspeed").build();
  const auto div_free = workloads::kernel_by_name("bitmnp").build();
  auto ratio_for = [&](const workloads::BuiltKernel& k) {
    auto fast = test::test_config(EccPolicy::kNoEcc);
    fast.div_latency = 1;
    auto slow = test::test_config(EccPolicy::kNoEcc);
    slow.div_latency = 34;
    const auto rf = test::run_keep_system(fast, k.program);
    const auto rs = test::run_keep_system(slow, k.program);
    return static_cast<double>(rs.stats.cycles) /
           static_cast<double>(rf.stats.cycles);
  };
  EXPECT_GT(ratio_for(div_heavy), 1.3);
  EXPECT_LT(ratio_for(div_free), 1.05);
}

class D1ShareSweep : public ::testing::TestWithParam<double> {};

TEST_P(D1ShareSweep, DistanceOneConsumersCostMoreUnderExtraStage) {
  // With total dep% fixed, shifting consumers toward distance 1 raises the
  // no-ECC baseline penalty (d1 stalls 1) but leaves the Extra Stage delta
  // (+1 per dependent load) constant — so measured ES overhead *ratios*
  // shrink slightly as d1_share grows. Mostly this guards the d1/d2
  // plumbing end to end.
  workloads::SyntheticParams p;
  p.num_ops = 40'000;
  p.d1_share = GetParam();
  core::SimConfig base;
  base.set_scheme("no-ecc");
  core::SimConfig es;
  es.set_scheme("extra-stage");
  workloads::SyntheticTrace t1(p);
  const auto b = core::run_trace(base, t1);
  workloads::SyntheticTrace t2(p);
  const auto e = core::run_trace(es, t2);
  EXPECT_GT(e.cycles, b.cycles);
  const double overhead = static_cast<double>(e.cycles) /
                              static_cast<double>(b.cycles) -
                          1.0;
  EXPECT_GT(overhead, 0.04);
  EXPECT_LT(overhead, 0.15);
}

INSTANTIATE_TEST_SUITE_P(Shares, D1ShareSweep,
                         ::testing::Values(0.0, 0.33, 0.67, 1.0));

}  // namespace
}  // namespace laec
