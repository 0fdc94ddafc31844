// Experiment E6 (motivation, paper §II.A and ref [9]): WT DL1 stores all
// cross the shared bus, so multicore contention inflates a store-heavy
// task's execution time by multiples, while the WB configuration barely
// notices. (Ref [9] reports WCET inflation up to ~6x from bus contention.)
#include <cstdio>

#include "core/simulator.hpp"
#include "isa/assembler.hpp"
#include "report/table.hpp"

namespace {

using namespace laec;
using isa::R;

isa::Program worker(int iters, int store_period) {
  isa::Assembler a("worker");
  const Addr buf = a.data_fill(512, 0);
  a.li(R{1}, buf);
  a.li(R{2}, static_cast<u32>(iters));
  a.label("loop");
  a.andi(R{3}, R{2}, 0x1ff & ~3);
  a.add(R{4}, R{1}, R{3});
  a.lw(R{5}, R{4}, 0);
  a.add(R{6}, R{6}, R{5});
  if (store_period <= 1) {
    a.sw(R{6}, R{4}, 0);
  } else {
    a.andi(R{7}, R{2}, static_cast<i32>(store_period - 1));
    a.bne(R{7}, R{0}, "nostore");
    a.sw(R{6}, R{4}, 0);
    a.label("nostore");
  }
  a.subi(R{2}, R{2}, 1);
  a.bne(R{2}, R{0}, "loop");
  a.halt();
  return a.finish();
}

u64 run(cpu::EccPolicy ecc, unsigned co_runners, int store_period) {
  core::SimConfig cfg;
  cfg.deployment = core::HierarchyDeployment::from_policy(ecc);
  for (unsigned i = 0; i < co_runners; ++i) {
    sim::TrafficPattern t;
    t.gap_cycles = 0;
    t.base = 0x4000'0000 + i * 0x0100'0000;
    cfg.traffic.push_back(t);
  }
  return core::run_program(cfg, worker(600, store_period)).cycles;
}

}  // namespace

int main() {
  std::printf(
      "Motivation (paper §II.A): execution-time inflation under shared-bus\n"
      "contention, WB+SECDED vs WT+parity DL1, for store densities from\n"
      "every-iteration to 1-in-8.\n\n");

  for (int period : {1, 4, 8}) {
    report::Table t({"co-runners", "WB cycles", "WB slowdown", "WT cycles",
                     "WT slowdown", "WT/WB"});
    const u64 wb0 = run(cpu::EccPolicy::kLaec, 0, period);
    const u64 wt0 = run(cpu::EccPolicy::kWtParity, 0, period);
    for (unsigned n = 0; n <= 3; ++n) {
      const u64 wb = run(cpu::EccPolicy::kLaec, n, period);
      const u64 wt = run(cpu::EccPolicy::kWtParity, n, period);
      t.add_row(
          {std::to_string(n), std::to_string(wb),
           report::Table::num(static_cast<double>(wb) / wb0, 2) + "x",
           std::to_string(wt),
           report::Table::num(static_cast<double>(wt) / wt0, 2) + "x",
           report::Table::num(static_cast<double>(wt) / wb, 2) + "x"});
    }
    std::printf("stores every %d iteration(s):\n%s\n", period,
                t.to_text().c_str());
  }
  std::printf(
      "Shape check vs ref [9]: WT slowdown grows with co-runners towards\n"
      "multiples of the solo run; WB stays nearly flat.\n");
  return 0;
}
