// Snapshot fast-forward equivalence: `fast_forward = true` (restore a
// golden snapshot and simulate only the suffix of each live trial) and
// `fast_forward = false` (simulate every trial from reset) must produce
// byte-identical CSV rows and identical severity totals. Same contract
// shape as the pruning, LUT-decode and fast-path equivalence suites; the
// snapshot frame itself is covered by test_snapshot.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "ecc/registry.hpp"
#include "reliability/campaign.hpp"
#include "report/sink.hpp"

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
  s.snapshot_every = 64;
  s.snapshot_mem_mb = 1;
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

}  // namespace
}  // namespace laec::reliability
