// The calibrated trace generator must reproduce the Table II parameters it
// was asked for — measured by the pipeline itself, not by the generator.
#include "workloads/synthetic.hpp"

#include <gtest/gtest.h>

#include "core/simulator.hpp"

namespace laec::workloads {
namespace {

core::RunStats run_synthetic(const SyntheticParams& p, cpu::EccPolicy ecc) {
  core::SimConfig cfg;
  cfg.deployment = core::HierarchyDeployment::from_policy(ecc);
  SyntheticTrace trace(p);
  return core::run_trace(cfg, trace);
}

TEST(Synthetic, HitsTableTargets) {
  SyntheticParams p;
  p.load_frac = 0.25;
  p.hit_frac = 0.89;
  p.dep_frac = 0.60;
  p.addr_dep_frac = 0.39;
  p.num_ops = 60'000;
  const auto r = run_synthetic(p, cpu::EccPolicy::kNoEcc);
  ASSERT_TRUE(r.completed);
  EXPECT_NEAR(r.load_fraction(), 0.25, 0.015);
  EXPECT_NEAR(r.hit_fraction(), 0.89, 0.015);
  EXPECT_NEAR(r.dep_fraction(), 0.60, 0.03);
}

TEST(Synthetic, ExtremeRowsCalibrate) {
  // cacheb's unusual row: 77% hits, 13% dependent loads, 18% loads.
  SyntheticParams p;
  p.load_frac = 0.18;
  p.hit_frac = 0.77;
  p.dep_frac = 0.13;
  p.addr_dep_frac = 0.10;
  p.num_ops = 60'000;
  const auto r = run_synthetic(p, cpu::EccPolicy::kNoEcc);
  EXPECT_NEAR(r.load_fraction(), 0.18, 0.015);
  EXPECT_NEAR(r.hit_fraction(), 0.77, 0.02);
  EXPECT_NEAR(r.dep_fraction(), 0.13, 0.03);
}

TEST(Synthetic, AddrDepControlsAnticipation) {
  SyntheticParams blocked;
  blocked.addr_dep_frac = 0.95;
  blocked.num_ops = 30'000;
  SyntheticParams open = blocked;
  open.addr_dep_frac = 0.0;
  const auto rb = run_synthetic(blocked, cpu::EccPolicy::kLaec);
  const auto ro = run_synthetic(open, cpu::EccPolicy::kLaec);
  EXPECT_GT(ro.laec_anticipated, rb.laec_anticipated);
  EXPECT_GT(rb.laec_data_hazard, ro.laec_data_hazard);
  EXPECT_LT(ro.cycles, rb.cycles);  // anticipation saves time
}

TEST(Synthetic, DeterministicAcrossRuns) {
  SyntheticParams p;
  p.num_ops = 20'000;
  const auto a = run_synthetic(p, cpu::EccPolicy::kLaec);
  const auto b = run_synthetic(p, cpu::EccPolicy::kLaec);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.laec_anticipated, b.laec_anticipated);
}

TEST(Synthetic, FromKernelTranscribesTableII) {
  const auto& matrix = kernel_by_name("matrix");
  const auto p = SyntheticParams::from_kernel(matrix, 1000);
  EXPECT_DOUBLE_EQ(p.load_frac, 0.20);
  EXPECT_DOUBLE_EQ(p.hit_frac, 0.99);
  EXPECT_DOUBLE_EQ(p.dep_frac, 0.64);
  EXPECT_DOUBLE_EQ(p.addr_dep_frac, matrix.addr_dep_frac);
}

TEST(Synthetic, SchemeOrderingHoldsOnTraces) {
  SyntheticParams p;
  p.num_ops = 40'000;
  const auto base = run_synthetic(p, cpu::EccPolicy::kNoEcc);
  const auto laec = run_synthetic(p, cpu::EccPolicy::kLaec);
  const auto es = run_synthetic(p, cpu::EccPolicy::kExtraStage);
  const auto ec = run_synthetic(p, cpu::EccPolicy::kExtraCycle);
  EXPECT_LE(base.cycles, laec.cycles);
  EXPECT_LE(laec.cycles, es.cycles);
  EXPECT_LE(es.cycles, ec.cycles + 2);
}

TEST(Synthetic, TraceEndsCleanly) {
  SyntheticParams p;
  p.num_ops = 777;  // not a multiple of the block size
  SyntheticTrace t(p);
  u64 n = 0;
  while (t.next().has_value()) ++n;
  EXPECT_EQ(n, 777u);
  EXPECT_FALSE(t.next().has_value());  // stays exhausted
}

}  // namespace
}  // namespace laec::workloads
