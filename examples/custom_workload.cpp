// Two ways to bring your own workload:
//   1. assemble a program with isa::Assembler (runs on the real caches);
//   2. synthesize a calibrated trace with workloads::SyntheticTrace
//      (oracle DL1 outcomes, exact Table II-style parameters).
//
//   $ ./build/examples/custom_workload
#include <cstdio>

#include "core/simulator.hpp"
#include "isa/assembler.hpp"
#include "report/table.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace laec;
using isa::R;

// A histogram kernel: data-dependent table update (load-add-store chains).
isa::Program histogram_program() {
  isa::Assembler a("histogram");
  std::vector<u32> samples;
  Rng rng(99);
  for (int i = 0; i < 512; ++i) {
    samples.push_back(static_cast<u32>(rng.below(16)));
  }
  const Addr data = a.data_words(samples);
  const Addr bins = a.data_fill(16, 0);
  a.li(R{1}, data);
  a.li(R{2}, 512);
  a.li(R{3}, bins);
  a.label("loop");
  a.lw(R{4}, R{1}, 0);       // sample
  a.slli(R{5}, R{4}, 2);     // bin offset (address producer...)
  a.add(R{5}, R{3}, R{5});
  a.lw(R{6}, R{5}, 0);       // ...for this load: LAEC falls back
  a.addi(R{6}, R{6}, 1);
  a.sw(R{6}, R{5}, 0);
  a.addi(R{1}, R{1}, 4);
  a.subi(R{2}, R{2}, 1);
  a.bne(R{2}, R{0}, "loop");
  a.halt();
  return a.finish();
}

}  // namespace

int main() {
  const char* const kSchemes[] = {"no-ecc", "extra-cycle", "extra-stage",
                                  "laec"};

  std::printf("=== 1. Assembled workload (histogram) across schemes ===\n\n");
  report::Table t1({"scheme", "cycles", "CPI", "vs no-ECC"});
  u64 base = 0;
  for (const char* scheme : kSchemes) {
    core::SimConfig cfg;
    cfg.set_scheme(scheme);
    const auto s = core::run_program(cfg, histogram_program());
    if (base == 0) base = s.cycles;  // no-ecc leads
    t1.add_row({scheme, std::to_string(s.cycles),
                report::Table::num(s.cpi, 2),
                report::Table::num(100.0 * (static_cast<double>(s.cycles) /
                                                static_cast<double>(base) -
                                            1.0),
                                   1) +
                    "%"});
  }
  std::printf("%s\n", t1.to_text().c_str());

  std::printf("=== 2. Synthetic trace with chosen characteristics ===\n\n");
  workloads::SyntheticParams sp;
  sp.load_frac = 0.30;   // make it load-heavy
  sp.hit_frac = 0.95;
  sp.dep_frac = 0.70;    // most loads immediately consumed
  sp.addr_dep_frac = 0.20;
  sp.num_ops = 50'000;

  report::Table t2({"scheme", "cycles", "anticipated", "vs no-ECC"});
  base = 0;
  for (const char* scheme : kSchemes) {
    core::SimConfig cfg;
    cfg.set_scheme(scheme);
    workloads::SyntheticTrace trace(sp);
    const auto s = core::run_trace(cfg, trace);
    if (base == 0) base = s.cycles;  // no-ecc leads
    t2.add_row({scheme, std::to_string(s.cycles),
                std::to_string(s.laec_anticipated),
                report::Table::num(100.0 * (static_cast<double>(s.cycles) /
                                                static_cast<double>(base) -
                                            1.0),
                                   1) +
                    "%"});
  }
  std::printf("%s\n", t2.to_text().c_str());
  return 0;
}
