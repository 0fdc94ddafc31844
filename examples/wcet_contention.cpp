// Motivation experiment (paper §II.A, ref [9]): on a shared bus, a
// write-through DL1 turns every store into bus traffic, so co-runner
// contention inflates execution time far more than under write-back —
// the reason the paper insists on WB DL1 + SECDED in the first place.
//
//   $ ./build/examples/wcet_contention
#include <cstdio>

#include "core/simulator.hpp"
#include "isa/assembler.hpp"
#include "report/table.hpp"
#include "sim/system.hpp"

namespace {

using namespace laec;
using isa::R;

isa::Program store_loop(int iters) {
  isa::Assembler a("stores");
  const Addr buf = a.data_fill(256, 0);
  a.li(R{1}, buf);
  a.li(R{2}, static_cast<u32>(iters));
  a.label("loop");
  a.andi(R{3}, R{2}, 0xff);
  a.slli(R{4}, R{3}, 2);
  a.add(R{4}, R{1}, R{4});
  a.sw(R{2}, R{4}, 0);
  a.lw(R{5}, R{4}, 0);
  a.add(R{6}, R{6}, R{5});
  a.subi(R{2}, R{2}, 1);
  a.bne(R{2}, R{0}, "loop");
  a.halt();
  return a.finish();
}

u64 run(cpu::EccPolicy ecc, unsigned co_runners) {
  core::SimConfig cfg;
  cfg.deployment = core::HierarchyDeployment::from_policy(ecc);
  for (unsigned i = 0; i < co_runners; ++i) {
    sim::TrafficPattern t;
    t.gap_cycles = 0;  // saturating co-runner (worst-case-style pressure)
    t.base = 0x4000'0000 + i * 0x0100'0000;
    cfg.traffic.push_back(t);
  }
  const auto stats = core::run_program(cfg, store_loop(400));
  return stats.cycles;
}

}  // namespace

int main() {
  std::printf(
      "Store-heavy task on core 0; 0-3 saturating co-runners on the bus.\n"
      "WCET-style slowdown = cycles(contended) / cycles(alone).\n\n");

  report::Table t({"co-runners", "WB+SECDED (LAEC) cycles", "slowdown",
                   "WT+parity cycles", "slowdown"});
  const u64 wb0 = run(cpu::EccPolicy::kLaec, 0);
  const u64 wt0 = run(cpu::EccPolicy::kWtParity, 0);
  for (unsigned n = 0; n <= 3; ++n) {
    const u64 wb = run(cpu::EccPolicy::kLaec, n);
    const u64 wt = run(cpu::EccPolicy::kWtParity, n);
    t.add_row({std::to_string(n), std::to_string(wb),
               report::Table::num(static_cast<double>(wb) / wb0, 2) + "x",
               std::to_string(wt),
               report::Table::num(static_cast<double>(wt) / wt0, 2) + "x"});
  }
  std::printf("%s\n", t.to_text().c_str());
  std::printf(
      "The WT column degrades several times faster: contention on every\n"
      "store is what the paper's WB-DL1 (and hence LAEC) eliminates.\n");
  return 0;
}
