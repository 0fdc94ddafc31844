// Quickstart: assemble a small program, run it on the LAEC-protected core,
// and read back results and statistics.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "core/simulator.hpp"
#include "isa/assembler.hpp"
#include "sim/system.hpp"

int main() {
  using namespace laec;
  using isa::R;

  // 1. Write a program: sum an array of 32 words through the DL1.
  isa::Assembler a("quickstart");
  std::vector<u32> values;
  for (u32 i = 1; i <= 32; ++i) values.push_back(i * i);
  const Addr array = a.data_words(values);
  const Addr result = a.data_fill(1, 0);

  a.li(R{1}, array);       // cursor
  a.li(R{2}, 32);          // remaining
  a.li(R{3}, 0);           // accumulator
  a.label("loop");
  a.lw(R{4}, R{1}, 0);     // load through the SECDED-protected DL1
  a.add(R{3}, R{3}, R{4}); // consumer at distance 1 — the paper's hot case
  a.addi(R{1}, R{1}, 4);
  a.subi(R{2}, R{2}, 1);
  a.bne(R{2}, R{0}, "loop");
  a.li(R{10}, result);
  a.sw(R{3}, R{10}, 0);
  a.halt();
  const isa::Program program = a.finish();

  // 2. Configure the machine. set_scheme picks the protection scheme by
  //    key: no-ecc / extra-cycle / extra-stage / laec / wt-parity, a codec
  //    name, or a compound hierarchy key (`laec_cli schemes` lists them).
  core::SimConfig cfg;
  cfg.set_scheme("laec");

  // 3. Run (run_program builds the NGMP-like system, loads, and simulates).
  const core::RunStats stats = core::run_program(cfg, program);

  // 4. Inspect. For memory readback keep the system alive instead:
  sim::System system(core::make_system_config(cfg));
  system.load_program(program);
  system.run();
  const u32 sum = system.read_word_final(result);

  std::printf("sum(1..32 squares)      = %u (expect 11440)\n", sum);
  std::printf("cycles                  = %llu\n",
              static_cast<unsigned long long>(stats.cycles));
  std::printf("instructions            = %llu (CPI %.2f)\n",
              static_cast<unsigned long long>(stats.instructions), stats.cpi);
  std::printf("loads                   = %llu (%.1f%% hits)\n",
              static_cast<unsigned long long>(stats.loads),
              100.0 * stats.hit_fraction());
  std::printf("LAEC anticipated loads  = %llu\n",
              static_cast<unsigned long long>(stats.laec_anticipated));
  std::printf("LAEC blocked (data dep) = %llu\n",
              static_cast<unsigned long long>(stats.laec_data_hazard));
  return sum == 11440 ? 0 : 1;
}
