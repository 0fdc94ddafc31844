// Reproduces the paper's pipeline chronograms (Figs. 2, 3, 4, 5, 7a, 7b)
// as cycle-aligned text grids — experiment E4.
//
//   $ ./build/examples/chronogram
#include <cstdio>
#include <memory>
#include <string>

#include "core/simulator.hpp"
#include "isa/assembler.hpp"
#include "report/chronogram.hpp"
#include "sim/system.hpp"

namespace {

using namespace laec;
using isa::R;

void show(const char* title, cpu::EccPolicy ecc, bool addr_producer,
          bool dependent_consumer,
          cpu::EccSlotPolicy slot = cpu::EccSlotPolicy::kAuto) {
  isa::Assembler a("fig");
  a.data_words({0x1234, 0, 0, 0, 0, 0, 0, 0});
  if (addr_producer) a.add(R{1}, R{4}, R{6});
  a.lw(R{3}, R{1}, R{2});
  if (dependent_consumer) {
    a.add(R{5}, R{3}, R{4});
  } else {
    a.add(R{5}, R{6}, R{4});
  }
  a.halt();
  const isa::Program p = a.finish();

  core::SimConfig cfg;
  cfg.deployment = core::HierarchyDeployment::from_policy(ecc);
  cfg.ecc_slot = slot;
  cfg.record_chronogram = true;
  sim::System sys(core::make_system_config(cfg));
  sys.load_program(p);

  // Warm the caches: the figures assume L1 hits.
  {
    auto& icache = sys.core(0).l1i().cache();
    std::vector<u8> line(icache.line_bytes());
    for (Addr addr = p.text_base;
         addr < p.text_base + 4 * p.text.size();
         addr += icache.line_bytes()) {
      sys.memsys().memory().read_block(addr, line.data(), icache.line_bytes());
      icache.fill(addr, line.data(), false);
    }
    auto& dcache = sys.core(0).dl1().cache();
    std::vector<u8> dline(dcache.line_bytes());
    sys.memsys().memory().read_block(p.data_base, dline.data(),
                                     dcache.line_bytes());
    dcache.fill(p.data_base, dline.data(), false);
  }
  auto& pipe = sys.core(0).pipeline();
  pipe.set_reg(1, p.data_base);
  pipe.set_reg(2, 0);
  pipe.set_reg(4, addr_producer ? p.data_base : 7);
  pipe.set_reg(6, 0);
  for (int i = 0; i < 200 && !sys.core(0).halted(); ++i) sys.tick();

  std::printf("%s  [%s]\n", title, std::string(to_string(ecc)).c_str());
  std::printf("%s\n", report::render_grid(pipe.chronogram()).c_str());
}

}  // namespace

int main() {
  std::printf("Pipeline chronograms reproducing the paper's figures.\n");
  std::printf("(Stage names: F D RA Exe M ECC Exc WB; '.' = not in pipe)\n\n");

  show("Fig. 2 - data dependency stall on the baseline (no ECC)",
       cpu::EccPolicy::kNoEcc, false, true);
  show("Fig. 3 - Extra Cache Cycle: M spans two cycles on load hits",
       cpu::EccPolicy::kExtraCycle, false, true);
  show("Fig. 4 - Extra Stage: dependent consumer stalls two cycles",
       cpu::EccPolicy::kExtraStage, false, true);
  show("Fig. 5 - Extra Stage: independent instructions flow freely",
       cpu::EccPolicy::kExtraStage, false, false);
  show("Fig. 7a - LAEC look-ahead: DL1 read in Exe, ECC in M;\n"
       "          the consumer sees baseline timing",
       cpu::EccPolicy::kLaec, false, true);
  show("Fig. 7b - LAEC blocked by an address producer at distance 1",
       cpu::EccPolicy::kLaec, true, true, cpu::EccSlotPolicy::kAlways);
  return 0;
}
