// Shared helpers for the pipeline / system / kernel tests.
#pragma once

#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "isa/assembler.hpp"
#include "sim/system.hpp"

namespace laec::test {

/// A SimConfig with fast, deterministic defaults for unit tests.
inline core::SimConfig test_config(cpu::EccPolicy ecc) {
  core::SimConfig cfg;
  cfg.deployment = core::HierarchyDeployment::from_policy(ecc);
  cfg.max_cycles = 20'000'000;
  return cfg;
}

/// Pre-fill a core's L1I with the program's text lines so chronograms are
/// not distorted by cold instruction misses.
inline void prefill_icache(sim::System& sys, const isa::Program& p,
                           unsigned core = 0) {
  auto& icache = sys.core(core).l1i().cache();
  const u32 lb = icache.line_bytes();
  const Addr begin = p.text_base & ~(lb - 1);
  const Addr end = p.text_base + static_cast<Addr>(4 * p.text.size());
  std::vector<u8> line(lb);
  for (Addr a = begin; a < end; a += lb) {
    sys.memsys().memory().read_block(a, line.data(), lb);
    icache.fill(a, line.data(), false);
  }
}

/// Pre-fill one DL1 line (making the next access a guaranteed hit).
inline void prefill_dl1(sim::System& sys, Addr addr, unsigned core = 0) {
  auto& dcache = sys.core(core).dl1().cache();
  const u32 lb = dcache.line_bytes();
  const Addr base = addr & ~(lb - 1);
  std::vector<u8> line(lb);
  sys.memsys().memory().read_block(base, line.data(), lb);
  dcache.fill(base, line.data(), false);
}

/// Assemble-run-return: run `p` to completion under `cfg` and return stats.
inline core::RunStats run(const core::SimConfig& cfg, const isa::Program& p) {
  return core::run_program(cfg, p);
}

/// Run and also expose the system for post-mortem inspection.
struct RunWithSystem {
  std::unique_ptr<sim::System> system;
  std::unique_ptr<ecc::FaultInjector> injector;  // when cfg.faults set
  core::RunStats stats;
};

inline RunWithSystem run_keep_system(const core::SimConfig& cfg,
                                     const isa::Program& p,
                                     bool warm_icache = false) {
  RunWithSystem r;
  r.system = std::make_unique<sim::System>(
      core::make_system_config(cfg, /*trace_mode=*/false));
  r.injector = core::attach_injector(*r.system, cfg);
  r.system->load_program(p);
  if (warm_icache) prefill_icache(*r.system, p);
  const auto res = r.system->run();
  r.stats = core::collect_stats(*r.system, res.completed);
  return r;
}

}  // namespace laec::test
