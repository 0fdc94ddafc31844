// Figure 8 (experiment E3): execution-time increase of Extra Cycle, Extra
// Stage and LAEC over the no-ECC baseline, per benchmark and on average.
//
// Two reproductions are printed:
//   (a) calibrated-trace mode — each benchmark's Table II parameters drive
//       the synthetic generator, so the workload characteristics match the
//       paper's by construction (the addr-producer fraction is the one free
//       parameter, recorded in EXPERIMENTS.md);
//   (b) kernel mode — our EEMBC-like kernels on the real cache hierarchy.
//
// Both grids (16 benchmarks x 4 schemes) run N-way parallel through
// runner::run_sweep; pass --threads=N to pin the pool size and --csv to
// also stream the raw per-point rows to stdout.
//
// Paper anchors: Extra Cycle ~ +17% avg (up to +20%), Extra Stage ~ +10%
// (cacheb ~ +2%), LAEC < +4% avg (<1% on several; ~Extra Stage on
// aifftr/aiifft/bitmnp/matrix).
#include <cstdio>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "report/sink.hpp"
#include "report/table.hpp"
#include "runner/sweep_runner.hpp"

namespace {

using namespace laec;

struct Row {
  std::string name;
  double ec, es, la;  // exec-time increase vs no-ECC
};

/// Fold one sweep's slice of results (grid order: workload-major, the
/// baseline-first runner::fig8_scheme_keys() axis inner) into per-benchmark
/// overhead rows.
std::vector<Row> to_rows(const std::vector<runner::PointResult>& rs,
                         std::size_t begin, std::size_t end) {
  const std::size_t ns = runner::fig8_scheme_keys().size();
  std::vector<Row> rows;
  for (std::size_t i = begin; i + ns <= end; i += ns) {
    const u64 base = rs[i].stats.cycles;
    Row r;
    r.name = rs[i].point.workload;
    r.ec = bench::ratio(rs[i + 1].stats.cycles, base) - 1.0;
    r.es = bench::ratio(rs[i + 2].stats.cycles, base) - 1.0;
    r.la = bench::ratio(rs[i + 3].stats.cycles, base) - 1.0;
    rows.push_back(r);
  }
  return rows;
}

void print(std::FILE* out, const char* title, const std::vector<Row>& rows) {
  report::Table t({"benchmark", "Extra Cycle", "Extra Stage", "LAEC"});
  double sec = 0, ses = 0, sla = 0;
  for (const auto& r : rows) {
    t.add_row({r.name, report::Table::pct(r.ec), report::Table::pct(r.es),
               report::Table::pct(r.la)});
    sec += r.ec;
    ses += r.es;
    sla += r.la;
  }
  const double n = static_cast<double>(rows.size());
  t.add_row({"average", report::Table::pct(sec / n),
             report::Table::pct(ses / n), report::Table::pct(sla / n)});
  std::fprintf(out, "%s\n%s\n", title, t.to_text().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  runner::SweepOptions opts;
  bool csv = false;
  if (!bench::parse_bench_args(argc, argv, opts,
                               "usage: fig8_exec_time [--threads=N] [--csv]\n",
                               [&](const std::string& arg) {
                                 if (arg == "--csv") return csv = true;
                                 return false;
                               })) {
    return 2;
  }
  // With --csv, stdout carries exactly one header + one row per point;
  // the human-readable report moves to stderr.
  report::CsvWriter csv_sink(std::cout);
  if (csv) opts.sink = &csv_sink;
  std::FILE* txt = csv ? stderr : stdout;

  std::fprintf(
      txt,
      "Figure 8 — execution time increase vs the no-ECC baseline.\n"
      "Paper: Extra Cycle ~17%% avg, Extra Stage ~10%% avg, LAEC <4%% avg.\n\n");

  // Both reproductions run as ONE batched sweep (one thread pool, one
  // streamed header): calibrated-trace points first, kernel points second.
  runner::SweepGrid calibrated;
  calibrated.all_workloads()
      .schemes(runner::fig8_scheme_keys())
      .mode(runner::RunMode::kTrace)
      .trace_ops(120'000);
  runner::SweepGrid kernels;
  kernels.all_workloads()
      .schemes(runner::fig8_scheme_keys())
      .mode(runner::RunMode::kProgram);

  auto points = calibrated.points();
  const std::size_t split = bench::append_points(points, kernels);

  const auto summary = runner::run_sweep(points, opts);
  print(txt, "(a) calibrated traces (Table II parameters by construction):",
        to_rows(summary.results, 0, split));
  print(txt, "(b) EEMBC-like kernels on the full cache hierarchy:",
        to_rows(summary.results, split, summary.results.size()));
  if (summary.self_check_failures != 0) {
    std::fprintf(stderr, "self-check failures: %zu\n",
                 summary.self_check_failures);
    return 1;
  }

  std::fprintf(
      txt,
      "Expected shape: LAEC <= Extra Stage <= Extra Cycle everywhere;\n"
      "cacheb near zero for all; LAEC ~= Extra Stage on aifftr / aiifft /\n"
      "bitmnp / matrix (address producer immediately before the load).\n");
  return 0;
}
