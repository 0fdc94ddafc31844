// Soft-error demonstration: the same single-bit-upset storm against three
// DL1 protection schemes.
//
//   - SECDED write-back DL1 (LAEC): corrected in-line, results intact;
//   - parity write-through DL1: recovered by refetch from the clean L2;
//   - unprotected DL1: silent data corruption.
//
//   $ ./build/examples/fault_injection
#include <cstdio>

#include "core/simulator.hpp"
#include "report/table.hpp"
#include "sim/system.hpp"
#include "workloads/eembc.hpp"

int main() {
  using namespace laec;

  const auto kernel = workloads::kernel_by_name("tblook").build();

  report::Table table({"DL1 scheme", "corrected", "parity refetches",
                       "detected-uncorrectable", "self-check"});

  for (const char* scheme : {"laec", "wt-parity", "no-ecc"}) {
    core::SimConfig cfg;
    cfg.set_scheme(scheme);
    ecc::InjectorConfig inj;
    inj.single_flip_prob = 0.002;  // one flip every ~500 word reads
    inj.seed = 2024;
    cfg.faults = inj;

    sim::System sys(core::make_system_config(cfg));
    const auto injector = core::attach_injector(sys, cfg);
    sys.load_program(kernel.program);
    sys.run();
    const auto stats = core::collect_stats(sys, true);

    int bad = 0;
    for (const auto& [addr, expect] : kernel.expected) {
      bad += sys.read_word_final(addr) != expect;
    }
    table.add_row({scheme,
                   std::to_string(stats.ecc_corrected),
                   std::to_string(stats.parity_refetches),
                   std::to_string(stats.ecc_detected_uncorrectable),
                   bad == 0 ? "PASS"
                            : "FAIL (" + std::to_string(bad) + " words)"});
  }

  std::printf("Single-bit soft-error storm vs DL1 protection "
              "(kernel: tblook, p_flip=0.002/word-read)\n\n%s\n",
              table.to_text().c_str());
  std::printf("SECDED corrects transparently; parity+WT recovers by "
              "refetch; an unprotected WB cache silently corrupts.\n");
  return 0;
}
