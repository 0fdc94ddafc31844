// System-level tests: multicore assembly, bus contention, WT-vs-WB traffic
// (the §II motivation), and final-state flushing.
#include <gtest/gtest.h>

#include <stdexcept>

#include "sim_test_util.hpp"
#include "workloads/eembc.hpp"

namespace laec::sim {
namespace {

using cpu::EccPolicy;
using isa::Assembler;
using isa::R;

isa::Program store_heavy_program(int iterations) {
  Assembler a("stores");
  const Addr buf = a.data_fill(256, 0);
  a.li(R{1}, buf);
  a.li(R{2}, static_cast<u32>(iterations));
  a.label("loop");
  a.andi(R{3}, R{2}, 0xff);
  a.slli(R{4}, R{3}, 2);
  a.add(R{4}, R{1}, R{4});
  a.sw(R{2}, R{4}, 0);
  a.subi(R{2}, R{2}, 1);
  a.bne(R{2}, R{0}, "loop");
  a.halt();
  return a.finish();
}

u64 run_with_traffic(EccPolicy ecc, unsigned co_runners, int iterations) {
  core::SimConfig cfg = test::test_config(ecc);
  for (unsigned i = 0; i < co_runners; ++i) {
    TrafficPattern t;
    t.gap_cycles = 0;  // saturating co-runner
    t.op = mem::BusOp::kReadLine;
    t.base = 0x4000'0000 + i * 0x10'0000;
    cfg.traffic.push_back(t);
  }
  auto r = test::run_keep_system(cfg, store_heavy_program(iterations));
  EXPECT_TRUE(r.stats.completed);
  return r.stats.cycles;
}

TEST(System, WtStoresGenerateBusTraffic) {
  const auto p = store_heavy_program(200);
  auto wb = test::run_keep_system(test::test_config(EccPolicy::kLaec), p);
  const auto p2 = store_heavy_program(200);
  auto wt = test::run_keep_system(test::test_config(EccPolicy::kWtParity), p2);
  // Every WT store crosses the bus; WB coalesces into rare line evictions.
  EXPECT_GT(wt.stats.bus_transactions, wb.stats.bus_transactions * 5);
}

TEST(System, ContentionHurtsWtMuchMoreThanWb) {
  // The §II.A motivation (ref [9]): with contending cores on the bus, the
  // WT configuration degrades far more than WB.
  const u64 wb_solo = run_with_traffic(EccPolicy::kLaec, 0, 300);
  const u64 wb_cont = run_with_traffic(EccPolicy::kLaec, 3, 300);
  const u64 wt_solo = run_with_traffic(EccPolicy::kWtParity, 0, 300);
  const u64 wt_cont = run_with_traffic(EccPolicy::kWtParity, 3, 300);
  const double wb_slow = static_cast<double>(wb_cont) / wb_solo;
  const double wt_slow = static_cast<double>(wt_cont) / wt_solo;
  EXPECT_GT(wt_slow, wb_slow * 1.5);
}

TEST(System, MultipleCoresInstantiateAndRun) {
  core::SimConfig cfg = test::test_config(EccPolicy::kLaec);
  cfg.num_cores = 4;
  sim::System sys(core::make_system_config(cfg));
  EXPECT_EQ(sys.num_cores(), 4u);
  Assembler a("tiny");
  a.li(R{1}, 5);
  a.halt();
  sys.load_program(a.finish(), 0);
  const auto r = sys.run();
  EXPECT_TRUE(r.completed);
}

TEST(System, ReadWordFinalFlushesDirtyLines) {
  Assembler a("dirty");
  const Addr buf = a.data_fill(8, 0);
  a.li(R{1}, buf);
  a.li(R{2}, 0xcafe);
  a.sw(R{2}, R{1}, 0);
  a.halt();
  auto cfg = test::test_config(EccPolicy::kLaec);  // write-back: stays dirty
  sim::System sys(core::make_system_config(cfg));
  const auto p = a.finish();
  sys.load_program(p);
  sys.run();
  // Before flushing, memory is stale; read_word_final must flush.
  EXPECT_EQ(sys.memsys().memory().read_u32(buf), 0u);
  EXPECT_EQ(sys.read_word_final(buf), 0xcafeu);
  EXPECT_EQ(sys.memsys().memory().read_u32(buf), 0xcafeu);
}

TEST(System, TrafficGeneratorsCompleteTransactions) {
  core::SimConfig cfg = test::test_config(EccPolicy::kNoEcc);
  TrafficPattern t;
  t.gap_cycles = 5;
  cfg.traffic.push_back(t);
  sim::System sys(core::make_system_config(cfg));
  Assembler a("spin");
  a.li(R{1}, 2000);
  a.label("l");
  a.subi(R{1}, R{1}, 1);
  a.bne(R{1}, R{0}, "l");
  a.halt();
  sys.load_program(a.finish());
  sys.run();
  EXPECT_GT(sys.memsys().bus().stats().value("transactions"), 10u);
}

TEST(System, KernelUnaffectedArchitecturallyByContention) {
  const auto k = workloads::kernel_by_name("iirflt").build();
  core::SimConfig cfg = test::test_config(EccPolicy::kLaec);
  TrafficPattern t;
  t.gap_cycles = 0;
  cfg.traffic.push_back(t);
  auto r = test::run_keep_system(cfg, k.program);
  ASSERT_TRUE(r.stats.completed);
  for (const auto& [addr, expect] : k.expected) {
    ASSERT_EQ(r.system->read_word_final(addr), expect);
  }
}

TEST(System, ZeroCoresOrZeroDepthWriteBufferIsRejected) {
  core::SimConfig cfg;
  cfg.num_cores = 0;
  EXPECT_THROW(System{core::make_system_config(cfg)}, std::invalid_argument);
  cfg = core::SimConfig{};
  cfg.write_buffer_depth = 0;
  EXPECT_THROW(System{core::make_system_config(cfg)}, std::invalid_argument);
}

}  // namespace
}  // namespace laec::sim
