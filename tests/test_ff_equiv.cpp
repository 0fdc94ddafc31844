// Snapshot fast-forward equivalence: `fast_forward = true` (restore a
// golden snapshot and simulate only the suffix of each live trial) and
// `fast_forward = false` (simulate every trial from reset) must produce
// byte-identical CSV rows and identical severity totals. Same contract
// shape as the pruning, LUT-decode and fast-path equivalence suites; the
// snapshot frame itself is covered by test_snapshot.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ecc/registry.hpp"
#include "mem/residency.hpp"
#include "reliability/campaign.hpp"
#include "reliability/schedule.hpp"
#include "report/sink.hpp"
#include "runner/sweep_runner.hpp"
#include "sim/snapshot.hpp"

namespace laec::reliability {
namespace {

CampaignGrid grid_for(const std::vector<std::string>& schemes,
                      const MbuPatternTable& mix,
                      const std::string& workload = "rspeed") {
  CampaignGrid grid;
  grid.workloads({workload}).schemes(schemes);
  grid.rates({{"hot", 1000.0, mix}});
  return grid;
}

CampaignSpec spec_for(core::InjectTarget target, double accel,
                      unsigned trials = 6) {
  CampaignSpec spec;
  spec.accel = accel;
  spec.trials = trials;
  spec.target = target;
  spec.base.dl1_size_bytes = 2 * 1024;
  return spec;
}

std::string campaign_csv(const CampaignGrid& grid, CampaignSpec spec,
                         bool ff, unsigned threads = 1) {
  spec.fast_forward = ff;
  std::ostringstream out;
  report::CsvWriter sink(out);
  CampaignOptions opts;
  opts.threads = threads;
  opts.sink = &sink;
  (void)run_campaign(grid, spec, opts);
  return out.str();
}

/// Run both modes and assert rows byte-identical plus severity totals
/// equal field by field. Returns the fast-forwarded total.
u64 expect_equivalent(const CampaignGrid& grid, const CampaignSpec& spec,
                      const std::string& label) {
  CampaignSpec ff = spec, ref = spec;
  ff.fast_forward = true;
  ref.fast_forward = false;
  const auto a = run_campaign(grid, ff);
  const auto b = run_campaign(grid, ref);
  EXPECT_EQ(a.cells.size(), b.cells.size()) << label;
  u64 ff_total = 0;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const auto& x = a.cells[i];
    const auto& y = b.cells[i];
    const std::string at = label + " cell " + std::to_string(i);
    EXPECT_EQ(campaign_to_row(x), campaign_to_row(y)) << at;
    EXPECT_EQ(x.trials, y.trials) << at;
    EXPECT_EQ(x.events, y.events) << at;
    EXPECT_EQ(x.events_dropped, y.events_dropped) << at;
    EXPECT_EQ(x.masked, y.masked) << at;
    EXPECT_EQ(x.corrected, y.corrected) << at;
    EXPECT_EQ(x.due_recovered, y.due_recovered) << at;
    EXPECT_EQ(x.sdc, y.sdc) << at;
    EXPECT_EQ(x.data_loss, y.data_loss) << at;
    EXPECT_EQ(x.total_cycles, y.total_cycles) << at;
    EXPECT_EQ(x.pruned, y.pruned) << at;
    // Bookkept in both modes; only whether the restore HAPPENS differs.
    EXPECT_EQ(x.fast_forwarded, y.fast_forwarded) << at;
    EXPECT_EQ(x.cycles_skipped, y.cycles_skipped) << at;
    EXPECT_DOUBLE_EQ(x.device_hours, y.device_hours) << at;
    // Pruned trials are never counted fast-forwarded, so the two can
    // never overlap past the cell's trial count.
    EXPECT_LE(x.pruned + x.fast_forwarded, x.trials) << at;
    ff_total += x.fast_forwarded;
  }
  return ff_total;
}

// ------------------------------------------------------------- tier 1 ----

// accel high enough that most storms carry live deliveries: the restore
// path carries real weight at this operating point. One test per inject
// target; the DL1 one additionally asserts the point actually
// fast-forwards (the L1I/L2 windows of this workload may prune fully).
TEST(FfEquiv, Dl1TargetAtASaturatedOperatingPoint) {
  // puwmod closes enough DL1 windows that the default snapshot cadence
  // lands several checkpoints before typical first deliveries.
  const MbuPatternTable mix{0.4, 0.4, 0.1, 0.1};
  const auto grid = grid_for({"laec", "sec-daec-39-32"}, mix, "puwmod");
  const u64 ff = expect_equivalent(
      grid, spec_for(core::InjectTarget::kDl1, 1e16), "target=dl1");
  // The operating point actually fast-forwards — otherwise this test is
  // vacuous.
  EXPECT_GT(ff, 0u);
}

TEST(FfEquiv, L1iTargetAtALiveOperatingPoint) {
  // The L1I closes a window per resident-line fetch — millions per run —
  // so full saturation would deliver an upset to nearly every fetch and
  // each delivery costs a detect-and-refetch round trip (hundred-second
  // trials). A lower acceleration keeps a sprinkling of live deliveries,
  // which is all the equivalence contract needs.
  const MbuPatternTable mix{0.4, 0.4, 0.1, 0.1};
  const auto grid = grid_for({"laec", "sec-daec-39-32"}, mix);
  (void)expect_equivalent(grid, spec_for(core::InjectTarget::kL1i, 1e12),
                          "target=l1i");
}

TEST(FfEquiv, L2TargetAtASaturatedOperatingPoint) {
  const MbuPatternTable mix{0.4, 0.4, 0.1, 0.1};
  const auto grid = grid_for({"laec", "sec-daec-39-32"}, mix);
  (void)expect_equivalent(grid, spec_for(core::InjectTarget::kL2, 1e16),
                          "target=l2");
}

TEST(FfEquiv, PruningHeavyOperatingPointStillIdentical) {
  // Low acceleration: pruning classifies most trials analytically and the
  // few simulated ones still restore. Fast-forward must compose with
  // pruning without disturbing either bookkeeping column.
  const MbuPatternTable mix{0.4, 0.4, 0.1, 0.1};
  const auto grid = grid_for({"laec", "sec-daec-39-32"}, mix);
  (void)expect_equivalent(grid, spec_for(core::InjectTarget::kDl1, 1e15),
                          "pruning-heavy");
}

TEST(FfEquiv, NoPruneModeStillIdentical) {
  // With pruning off every trial simulates; prunable trials resume from the
  // LAST snapshot (pure speed, not counted fast-forwarded). Rows must stay
  // identical across the full 2x2 of {prune, ff}.
  const MbuPatternTable mix{0.4, 0.4, 0.1, 0.1};
  const auto grid = grid_for({"laec", "secded-39-32"}, mix);
  CampaignSpec spec = spec_for(core::InjectTarget::kDl1, 1e16, 8);
  std::string ref;
  for (const bool prune : {true, false}) {
    for (const bool ff : {true, false}) {
      CampaignSpec s = spec;
      s.prune = prune;
      const std::string csv = campaign_csv(grid, s, ff);
      if (ref.empty()) {
        ref = csv;
        EXPECT_FALSE(ref.empty());
      } else {
        EXPECT_EQ(csv, ref) << "prune=" << prune << " ff=" << ff;
      }
    }
  }
}

TEST(FfEquiv, SnapshotCadenceDoesNotChangeRows) {
  // The snapshot schedule is an implementation knob, not a statistics knob:
  // any cadence (including 0 = capture disabled) yields identical rows.
  const MbuPatternTable mix{0.5, 0.5, 0.0, 0.0};
  const auto grid = grid_for({"laec"}, mix);
  CampaignSpec spec = spec_for(core::InjectTarget::kDl1, 1e16, 8);
  spec.snapshot_every = 0;  // no snapshots: ff has nothing to restore
  const std::string ref = campaign_csv(grid, spec, /*ff=*/true);
  for (const unsigned every : {64u, 256u, 4096u}) {
    CampaignSpec s = spec;
    s.snapshot_every = every;
    EXPECT_EQ(campaign_csv(grid, s, true), ref) << "every=" << every;
    EXPECT_EQ(campaign_csv(grid, s, false), ref) << "every=" << every;
  }
  // A tiny byte budget forces keep-every-k thinning mid-run; still
  // identical rows (fewer restores, same statistics).
  CampaignSpec s = spec;
  s.snapshot_every = 4;
  s.snapshot_mem_mb = 1;
  {
    // Precondition: the golden run really thins under this budget, and
    // keeps more than the single-entry guard's one snapshot.
    runner::SweepPoint p;
    p.workload = "rspeed";
    p.config = s.base;
    p.config.set_scheme("laec");
    p.config.inject_target = s.target;
    p.mode = runner::RunMode::kProgram;
    sim::SnapshotStore store(s.snapshot_every, u64{s.snapshot_mem_mb} << 20);
    mem::ResidencyRecorder rec;
    (void)runner::run_golden_point(p, CampaignOptions{}.base_seed, &rec,
                                   &store);
    ASSERT_GT(store.stride(), 1u);
    ASSERT_GT(store.size(), 1u);
  }
  EXPECT_EQ(campaign_csv(grid, s, true), ref);
}

TEST(FfEquiv, CsvBytesIdenticalAcrossThreadCounts) {
  const MbuPatternTable mix{0.5, 0.5, 0.0, 0.0};
  const auto grid = grid_for({"laec", "secded-39-32"}, mix);
  const auto spec = spec_for(core::InjectTarget::kDl1, 1e16, 10);
  const std::string ref = campaign_csv(grid, spec, /*ff=*/false, 1);
  EXPECT_FALSE(ref.empty());
  EXPECT_EQ(campaign_csv(grid, spec, true, 1), ref);
  EXPECT_EQ(campaign_csv(grid, spec, true, 8), ref);
}

/// Every counter of two StatSets, by name (a name one set lacks reads 0).
void expect_same_counters(const StatSet& a, const StatSet& b,
                          const std::string& at) {
  for (const auto& [name, v] : a.items()) {
    EXPECT_EQ(v, b.value(name)) << at << name;
  }
  for (const auto& [name, v] : b.items()) {
    EXPECT_EQ(a.value(name), v) << at << name;
  }
}

TEST(FfEquiv, RejoinedTrialsMatchFullSimulation) {
  // Trial by trial, below the rows: every live trial of a cell runs once
  // with its golden run (restored, rejoined and spliced where it can be)
  // and once from reset without it, and the two results must agree on
  // everything a PointResult carries.
  struct Cell {
    const char* workload;
    const char* scheme;
    core::InjectTarget target;
    double accel;
    u64 max_cycles;  ///< 0: the default
  };
  const Cell cells[] = {
      {"puwmod", "laec", core::InjectTarget::kDl1, 1e16, 0},
      {"puwmod", "sec-daec-39-32", core::InjectTarget::kDl1, 1e16, 0},
      {"iirflt", "sec-daec-taec-45-32", core::InjectTarget::kDl1, 1e16, 0},
      // pntrch's chase outgrows the 2 KB DL1, so its L2 words are read
      // again; most kernels' L2 windows all prune.
      {"pntrch", "laec", core::InjectTarget::kL2, 1e15, 0},
      // An undetected L1I upset can send a kernel into a loop: the cap
      // keeps such a trial short (it never rejoins).
      {"puwmod", "laec", core::InjectTarget::kL1i, 1e16, 300'000},
  };
  const RatePoint rate = *tech_preset("28nm");
  const u64 seed = CampaignOptions{}.base_seed;
  u64 live = 0, rejoined = 0, jumped = 0, never = 0;
  for (const Cell& c : cells) {
    CampaignSpec spec = spec_for(c.target, c.accel);
    if (c.max_cycles != 0) spec.base.max_cycles = c.max_cycles;
    runner::SweepPoint base;
    base.workload = c.workload;
    base.config = spec.base;
    base.config.set_scheme(c.scheme);
    base.config.inject_target = c.target;
    base.mode = runner::RunMode::kProgram;
    auto golden = std::make_shared<runner::GoldenRun>(runner::GoldenRun{
        sim::SnapshotStore(spec.snapshot_every,
                           u64{spec.snapshot_mem_mb} << 20),
        {}});
    mem::ResidencyRecorder rec;
    golden->result =
        runner::run_golden_point(base, seed, &rec, &golden->snapshots);
    const auto windows = rec.take_windows();
    const unsigned bits = target_codeword_bits(base.config);
    const double scale = window_lambda_scale(spec, rate.fit_per_mbit, bits);

    std::vector<runner::SweepPoint> spliced, full;
    for (unsigned t = 0; t < 32; ++t) {
      runner::SweepPoint p = base;
      p.replicate = t;
      p.config.faults.emplace();
      auto sched = draw_trial_schedule(windows, scale, rate.patterns, bits,
                                       runner::fault_seed(seed, p));
      if (!sched.has_live()) continue;
      p.config.faults->schedule =
          std::make_shared<const ecc::TrialSchedule>(std::move(sched));
      p.index = full.size();
      full.push_back(p);
      p.golden = golden;
      spliced.push_back(std::move(p));
    }
    runner::SweepOptions opts;
    opts.threads = 2;
    opts.base_seed = seed;
    const auto a = runner::run_sweep(spliced, opts).results;
    const auto b = runner::run_sweep(full, opts).results;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      const runner::PointResult& x = a[i];
      const runner::PointResult& y = b[i];
      const std::string at = std::string(c.workload) + "/" + c.scheme + "/" +
                             std::string(core::to_string(c.target)) +
                             " trial " + std::to_string(x.point.replicate) +
                             ": ";
      EXPECT_EQ(runner::to_row(x), runner::to_row(y)) << at;
      // The RunStats fields the row leaves out.
      EXPECT_EQ(x.stats.data_loss_events, y.stats.data_loss_events) << at;
      EXPECT_EQ(x.stats.dl1_fill_words, y.stats.dl1_fill_words) << at;
      EXPECT_EQ(x.stats.l1i_fetches, y.stats.l1i_fetches) << at;
      EXPECT_EQ(x.stats.l1i_fill_words, y.stats.l1i_fill_words) << at;
      EXPECT_EQ(x.stats.l2_reads, y.stats.l2_reads) << at;
      EXPECT_EQ(x.stats.l2_writes, y.stats.l2_writes) << at;
      EXPECT_EQ(x.stats.l2_fill_words, y.stats.l2_fill_words) << at;
      expect_same_counters(x.stats.pipeline_stats, y.stats.pipeline_stats,
                           at + "pipeline.");
      expect_same_counters(x.stats.dl1_stats, y.stats.dl1_stats, at + "dl1.");
      expect_same_counters(x.stats.l1i_stats, y.stats.l1i_stats, at + "l1i.");
      expect_same_counters(x.stats.l2_stats, y.stats.l2_stats, at + "l2.");
      expect_same_counters(x.stats.bus_stats, y.stats.bus_stats, at + "bus.");
      EXPECT_EQ(x.self_check_ok, y.self_check_ok) << at;
      EXPECT_EQ(x.faults_injected, y.faults_injected) << at;
      EXPECT_EQ(x.faults_dropped, y.faults_dropped) << at;
      EXPECT_FALSE(y.rejoin.at_end || y.rejoin.jumps > 0) << at;
      ++live;
      if (x.rejoin.at_end) ++rejoined;
      if (x.rejoin.jumps > 0) ++jumped;
      if (!x.rejoin.at_end && x.rejoin.jumps == 0) ++never;
    }
  }
  // Every way through the replay loop ran: a rejoin at the end, a jump
  // between two deliveries, and a trial simulated to its end.
  EXPECT_GE(rejoined, 1u) << live << " live trials";
  EXPECT_GE(jumped, 1u) << live << " live trials";
  EXPECT_GE(never, 1u) << live << " live trials";
}

}  // namespace
}  // namespace laec::reliability
