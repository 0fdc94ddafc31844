// Headline extension (fig10): FIT-vs-codec under an adjacent-MBU-dominated
// upset process — where adjacent correction buys orders of magnitude of
// MTTF.
//
// The paper's schemes are compared on TIMING; this experiment compares the
// deployable DL1 codecs on RELIABILITY, with the Monte Carlo campaign
// engine doing the statistics. Every (kernel x codec) cell runs N
// independent fault-injection trials under the same accelerated Poisson
// upset process (raw rate in FIT/Mbit, scaled-node MBU shape mix where
// adjacent doubles dominate and triples are common), classifies each trial
// (masked / corrected / DUE-recovered / SDC / data-loss) and derives FIT
// and MTTF with Wilson confidence intervals:
//
//   laec                  SECDED (39,32): singles corrected; adjacent
//                         doubles only DETECTED (DUE), triples miscorrect
//   sec-daec-39-32        + adjacent doubles corrected in place
//   sec-daec-taec-45-32   + adjacent triples corrected in place
//   parity-i2-32          two-way interleaved parity, WT + refetch: every
//                         adjacent burst detected, clusters can slip
//   dec-bch-45-32         DEC-TED BCH: ANY double corrected, triples
//                         detected — the non-burst alternative
//
// The acceptance claim: MTTF(sec-daec-taec) >= MTTF(sec-daec) >=
// MTTF(secded), with the SECDED baseline actually failing (its FIT > 0) so
// the comparison means something. Exit 0 iff demonstrated.
//
// Pass --threads=N to pin the pool size, --trials=N per cell (default 48),
// --rate=F (FIT/Mbit, default 1000), --accel=A (default 4e15), --all for
// all 16 kernels (default: a representative trio), --csv to stream the
// campaign rows.
#include <cstdio>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "reliability/campaign.hpp"
#include "report/sink.hpp"
#include "report/table.hpp"

namespace {

using namespace laec;

const std::vector<std::string> kSchemes = {
    "laec", "sec-daec-39-32", "sec-daec-taec-45-32", "parity-i2-32",
    "dec-bch-45-32"};

}  // namespace

int main(int argc, char** argv) {
  runner::SweepOptions popts;  // only .threads is used
  u64 trials = 48;
  double rate = 1000.0;
  double accel = 4e15;
  bool all = false, csv = false;
  if (!bench::parse_bench_args(
          argc, argv, popts,
          "usage: fig10_reliability [--threads=N] [--trials=N] [--rate=F]\n"
          "                         [--accel=A] [--all] [--csv]\n",
          [&](const std::string& arg) {
            if (arg.rfind("--trials=", 0) == 0) {
              trials = std::stoull(arg.substr(9));
              return true;
            }
            if (arg.rfind("--rate=", 0) == 0) {
              rate = std::stod(arg.substr(7));
              return true;
            }
            if (arg.rfind("--accel=", 0) == 0) {
              accel = std::stod(arg.substr(8));
              return true;
            }
            if (arg == "--all") return all = true;
            if (arg == "--csv") return csv = true;
            return false;
          })) {
    return 2;
  }
  std::FILE* txt = csv ? stderr : stdout;

  // Adjacent-MBU-dominated shape mix: the scaled-node regime where burst
  // correction is the whole game.
  reliability::MbuPatternTable patterns;
  patterns.single = 0.10;
  patterns.adjacent_double = 0.70;
  patterns.adjacent_triple = 0.15;
  patterns.clustered = 0.05;

  reliability::CampaignGrid grid;
  if (all) {
    grid.all_workloads();
  } else {
    // Read-modify-write state kernels: their loads frequently hit DIRTY
    // words, the case where a write-back DL1's detected-but-uncorrectable
    // adjacent double has no clean copy to refetch (data loss) — exactly
    // the failure mode adjacent correction removes.
    grid.workloads({"puwmod", "iirflt", "aiifft"});
  }
  grid.schemes(kSchemes);
  grid.rates({{"adj-mbu", rate, patterns}});

  reliability::CampaignSpec spec;
  spec.accel = accel;
  spec.trials = static_cast<unsigned>(trials);
  // A deliberately small DL1 (fig9's trick) keeps dirty lines resident and
  // exposed: a write-back DL1's adjacent-double weakness is the DUE on a
  // DIRTY word, where refetch recovery has nothing clean to refetch.
  spec.base.dl1_size_bytes = 2 * 1024;

  std::fprintf(
      txt,
      "fig10 — reliability campaign: FIT per DL1 codec under an adjacent-\n"
      "MBU-dominated upset process (%g FIT/Mbit raw, accel %g, shape mix\n"
      "single/adj2/adj3/cluster = %.2f/%.2f/%.2f/%.2f, %llu trials/cell).\n\n",
      rate, accel, patterns.single, patterns.adjacent_double,
      patterns.adjacent_triple, patterns.clustered,
      static_cast<unsigned long long>(trials));

  reliability::CampaignOptions opts;
  opts.threads = popts.threads;
  report::CsvWriter csv_sink(std::cout);
  if (csv) opts.sink = &csv_sink;

  const auto summary = reliability::run_campaign(grid, spec, opts);

  // Per-cell table plus a per-scheme pool (failures and device-hours sum;
  // FIT is failures per 1e9 pooled device-hours).
  struct Pool {
    u64 failures = 0;
    u64 trials = 0;
    double device_hours = 0.0;
    [[nodiscard]] double fit() const {
      return device_hours <= 0.0
                 ? 0.0
                 : static_cast<double>(failures) / device_hours * 1e9;
    }
  };
  std::map<std::string, Pool> pools;

  report::Table t({"benchmark", "codec", "events", "corr", "DUE-rec", "SDC",
                   "loss", "FIT", "ci", "MTTF (h)"});
  for (const auto& c : summary.cells) {
    Pool& p = pools[c.cell.scheme];
    p.failures += c.failures();
    p.trials += c.trials;
    p.device_hours += c.device_hours;
    char fit_s[32], ci_s[48], mttf_s[32];
    std::snprintf(fit_s, sizeof fit_s, "%.3g", c.est.fit);
    std::snprintf(ci_s, sizeof ci_s, "[%.3g, %.3g]", c.est.fit_lo,
                  c.est.fit_hi);
    std::snprintf(mttf_s, sizeof mttf_s, "%.3g", c.est.mttf_hours);
    t.add_row({c.cell.workload, c.cell.scheme, std::to_string(c.events),
               std::to_string(c.corrected), std::to_string(c.due_recovered),
               std::to_string(c.sdc), std::to_string(c.data_loss), fit_s,
               ci_s, mttf_s});
  }
  std::fprintf(txt, "%s\n", t.to_text().c_str());

  report::Table pt({"codec", "trials", "failures", "pooled FIT",
                    "pooled MTTF (h)"});
  for (const auto& key : kSchemes) {
    const Pool& p = pools[key];
    char fit_s[32], mttf_s[32];
    std::snprintf(fit_s, sizeof fit_s, "%.3g", p.fit());
    std::snprintf(mttf_s, sizeof mttf_s, "%.3g",
                  p.fit() > 0.0 ? 1e9 / p.fit()
                                : std::numeric_limits<double>::infinity());
    pt.add_row({key, std::to_string(p.trials), std::to_string(p.failures),
                fit_s, mttf_s});
  }
  std::fprintf(txt, "%s\n", pt.to_text().c_str());

  // The headline ordering, on pooled FIT (lower FIT = higher MTTF; an
  // infinite MTTF is FIT 0). SECDED must actually fail for the claim to
  // have content.
  const double fit_secded = pools["laec"].fit();
  const double fit_daec = pools["sec-daec-39-32"].fit();
  const double fit_taec = pools["sec-daec-taec-45-32"].fit();
  const bool demonstrated =
      fit_secded > 0.0 && fit_taec <= fit_daec && fit_daec <= fit_secded;
  std::fprintf(
      txt,
      "MTTF ordering sec-daec-taec >= sec-daec >= secded: %s\n"
      "(pooled FIT %.3g <= %.3g <= %.3g)\n",
      demonstrated ? "DEMONSTRATED" : "NOT demonstrated", fit_taec, fit_daec,
      fit_secded);
  return demonstrated ? 0 : 1;
}
