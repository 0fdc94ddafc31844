// Ablation A3: sensitivity of the Fig. 8 result to machine parameters —
// DL1 geometry, write-buffer depth, divide latency and L2/memory latency.
// Uses three representative kernels on the real hierarchy.
//
// The whole (kernel x variant x scheme) grid — 120 points — runs in one
// parallel runner::run_sweep call; rows are folded back into the paper-style
// sensitivity table afterwards. --threads=N pins the pool size.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "report/table.hpp"
#include "runner/sweep_runner.hpp"

namespace {

using namespace laec;

// matrix: 3 KB resident; tblook: tiny tables + divides; cacheb: streams
// 64 KB (smashes any DL1) — together they expose geometry sensitivity.
const std::vector<std::string> kKernels = {"matrix", "tblook", "cacheb"};

std::vector<runner::ConfigVariant> variants() {
  return {
      {"defaults", [](core::SimConfig&) {}},
      {"DL1 1KB", [](core::SimConfig& c) { c.dl1_size_bytes = 1 * 1024; }},
      {"DL1 128KB",
       [](core::SimConfig& c) { c.dl1_size_bytes = 128 * 1024; }},
      {"DL1 direct-mapped", [](core::SimConfig& c) { c.dl1_ways = 1; }},
      {"write buffer depth 1",
       [](core::SimConfig& c) { c.write_buffer_depth = 1; }},
      {"write buffer depth 32",
       [](core::SimConfig& c) { c.write_buffer_depth = 32; }},
      {"div latency 1", [](core::SimConfig& c) { c.div_latency = 1; }},
      {"div latency 34", [](core::SimConfig& c) { c.div_latency = 34; }},
      {"memory 80 cycles", [](core::SimConfig& c) { c.memory_cycles = 80; }},
      {"memory 8 cycles", [](core::SimConfig& c) { c.memory_cycles = 8; }},
  };
}

}  // namespace

int main(int argc, char** argv) {
  runner::SweepOptions opts;
  if (!bench::parse_bench_args(argc, argv, opts,
                               "usage: ablation_sweep [--threads=N]\n")) {
    return 2;
  }

  std::printf(
      "Parameter sensitivity of the scheme overheads (avg over matrix,\n"
      "tblook, cacheb; real hierarchy). Each row changes one parameter\n"
      "from the defaults (16KB 4-way DL1, depth-8 WB, div=12, mem=26).\n\n");

  const auto vars = variants();
  runner::SweepGrid grid;
  grid.workloads(kKernels)
      .variants(vars)
      .schemes(runner::fig8_scheme_keys())
      .mode(runner::RunMode::kProgram);
  const auto summary = runner::run_sweep(grid, opts);

  // Grid order is workload-major (kernel x variant x scheme); fold into
  // per-variant average overheads over the three kernels.
  const std::size_t ns = runner::fig8_scheme_keys().size();
  const std::size_t nv = vars.size();
  std::vector<double> sum_ec(nv, 0), sum_es(nv, 0), sum_la(nv, 0);
  for (std::size_t k = 0; k < kKernels.size(); ++k) {
    for (std::size_t v = 0; v < nv; ++v) {
      const std::size_t base_idx = (k * nv + v) * ns;
      const u64 base = summary.results[base_idx].stats.cycles;
      const auto over = [&](std::size_t scheme) {
        return bench::ratio(summary.results[base_idx + scheme].stats.cycles,
                            base) -
               1.0;
      };
      sum_ec[v] += over(1);
      sum_es[v] += over(2);
      sum_la[v] += over(3);
    }
  }

  const double n = static_cast<double>(kKernels.size());
  report::Table t({"configuration", "Extra Cycle", "Extra Stage", "LAEC"});
  for (std::size_t v = 0; v < nv; ++v) {
    t.add_row({vars[v].name, report::Table::pct(sum_ec[v] / n),
               report::Table::pct(sum_es[v] / n),
               report::Table::pct(sum_la[v] / n)});
  }
  std::printf("%s\n", t.to_text().c_str());
  std::printf(
      "Reading: larger caches / faster memory increase the *relative*\n"
      "weight of load-use stalls, widening the gap LAEC recovers; slow\n"
      "dividers and tiny caches dilute it.\n");
  return summary.self_check_failures == 0 ? 0 : 1;
}
