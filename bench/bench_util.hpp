// Shared helpers for the benchmark harnesses that regenerate the paper's
// tables and figures.
#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "runner/sweep_runner.hpp"
#include "workloads/eembc.hpp"
#include "workloads/synthetic.hpp"

namespace laec::bench {

/// Shared argv loop for the bench mains: consumes the sweep flags every
/// bench accepts (--threads=N) into `opts` and hands anything else to
/// `extra` (return false to reject). Prints `usage` and returns false on a
/// bad or malformed flag.
template <typename ExtraFn>
[[nodiscard]] inline bool parse_bench_args(int argc, char** argv,
                                           runner::SweepOptions& opts,
                                           const char* usage,
                                           ExtraFn&& extra) {
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--threads=", 0) == 0) {
        opts.threads = static_cast<unsigned>(std::stoul(arg.substr(10)));
      } else if (!extra(arg)) {
        throw std::invalid_argument(arg);
      }
    }
  } catch (const std::exception&) {
    std::fprintf(stderr, "%s", usage);
    return false;
  }
  return true;
}

[[nodiscard]] inline bool parse_bench_args(int argc, char** argv,
                                           runner::SweepOptions& opts,
                                           const char* usage) {
  return parse_bench_args(argc, argv, opts, usage,
                          [](const std::string&) { return false; });
}

inline core::SimConfig config_for(cpu::EccPolicy ecc) {
  core::SimConfig cfg;
  cfg.deployment = core::HierarchyDeployment::from_policy(ecc);
  return cfg;
}

/// Run one kernel under one scheme (program mode: real caches).
inline core::RunStats run_kernel(const workloads::KernelEntry& k,
                                 cpu::EccPolicy ecc) {
  const auto built = k.build();
  auto cfg = config_for(ecc);
  return core::run_program(cfg, built.program);
}

/// Run one benchmark's calibrated synthetic trace under one scheme.
inline core::RunStats run_calibrated(const workloads::KernelEntry& k,
                                     cpu::EccPolicy ecc,
                                     u64 num_ops = 120'000) {
  auto cfg = config_for(ecc);
  workloads::SyntheticTrace trace(
      workloads::SyntheticParams::from_kernel(k, num_ops));
  return core::run_trace(cfg, trace);
}

inline double ratio(u64 num, u64 den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Append `grid`'s points to an existing point list, re-indexing them to
/// follow on (one run_sweep call = one pool, one header, grid-ordered
/// rows). Returns the offset of the appended block.
inline std::size_t append_points(std::vector<runner::SweepPoint>& points,
                                 const runner::SweepGrid& grid) {
  const std::size_t split = points.size();
  for (auto& p : grid.points()) {
    p.index = points.size();
    points.push_back(std::move(p));
  }
  return split;
}

}  // namespace laec::bench
