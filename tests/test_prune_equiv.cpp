// Golden-run pruning equivalence: `prune = true` (classify provably-masked
// trials analytically) and `prune = false` (simulate every trial) must
// produce byte-identical CSV rows and identical severity totals. This is
// the contract the two-pass accelerator stands on — same guarantee shape
// as the LUT-decode and fast-path equivalence suites.
//
// This binary covers every inject target and a mixed MBU table at two
// operating points (mostly-pruned and fully-live); the exhaustive
// codec x MBU-shape x target sweep lives in test_prune_equiv_exhaustive
// (label: slow).
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
                      const MbuPatternTable& mix) {
  CampaignGrid grid;
  grid.workloads({"rspeed"}).schemes(schemes);
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
                         bool prune, unsigned threads = 1) {
  spec.prune = prune;
  std::ostringstream out;
  report::CsvWriter sink(out);
  CampaignOptions opts;
  opts.threads = threads;
  opts.sink = &sink;
  (void)run_campaign(grid, spec, opts);
  return out.str();
}

/// Run both modes and assert rows byte-identical plus severity totals
/// equal field by field. Returns the pruned-trial total of the pruned run.
u64 expect_equivalent(const CampaignGrid& grid, const CampaignSpec& spec,
                      const std::string& label) {
  CampaignSpec pruned = spec, full = spec;
  pruned.prune = true;
  full.prune = false;
  const auto a = run_campaign(grid, pruned);
  const auto b = run_campaign(grid, full);
  EXPECT_EQ(a.cells.size(), b.cells.size()) << label;
  u64 pruned_total = 0;
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
    EXPECT_EQ(x.pruned, y.pruned) << at;  // bookkept in both modes
    EXPECT_DOUBLE_EQ(x.device_hours, y.device_hours) << at;
    // A pruned trial is masked by construction: pruning can never classify
    // more trials masked than the cell actually has.
    EXPECT_LE(x.pruned, x.masked) << at;
    pruned_total += x.pruned;
  }
  return pruned_total;
}

// ------------------------------------------------------------- tier 1 ----

TEST(PruneEquiv, EveryInjectTargetAtAMostlyPrunedOperatingPoint) {
  // accel low enough that most storms land exclusively on dead windows:
  // the analytic classification path carries real weight here.
  const MbuPatternTable mix{0.4, 0.4, 0.1, 0.1};
  u64 pruned = 0;
  for (const auto target : {core::InjectTarget::kDl1, core::InjectTarget::kL1i,
                            core::InjectTarget::kL2}) {
    const auto grid = grid_for({"laec", "sec-daec-39-32"}, mix);
    pruned += expect_equivalent(
        grid, spec_for(target, 1e15),
        "target=" + std::string(core::to_string(target)));
  }
  // The operating point actually prunes — otherwise this test is vacuous.
  EXPECT_GT(pruned, 0u);
}

TEST(PruneEquiv, SaturatedOperatingPointStillIdentical) {
  // Acceleration high enough that every window — live ones included —
  // fires and the per-access flip budget overflows (events_dropped > 0):
  // nothing is prunable, and the pruned run must degrade to exactly the
  // simulate-everything run, surplus accounting included.
  const MbuPatternTable mix{0.2, 0.6, 0.15, 0.05};
  const auto grid = grid_for({"laec", "dec-bch-45-32"}, mix);
  const u64 pruned = expect_equivalent(
      grid, spec_for(core::InjectTarget::kDl1, 1e30), "saturated");
  EXPECT_EQ(pruned, 0u);
}

TEST(PruneEquiv, CsvBytesIdenticalAcrossThreadCounts) {
  const MbuPatternTable mix{0.5, 0.5, 0.0, 0.0};
  const auto grid = grid_for({"laec", "secded-39-32"}, mix);
  const auto spec = spec_for(core::InjectTarget::kDl1, 1e15, 10);
  const std::string ref = campaign_csv(grid, spec, /*prune=*/false, 1);
  EXPECT_FALSE(ref.empty());
  EXPECT_EQ(campaign_csv(grid, spec, true, 1), ref);
  EXPECT_EQ(campaign_csv(grid, spec, true, 8), ref);
}

TEST(PruneEquiv, StoppingRuleFiresIdenticallyUnderPruning) {
  // Early stopping consumes per-batch severity counts; a pruned batch must
  // trip the rule at exactly the same trial count.
  const MbuPatternTable mix{1.0, 0.0, 0.0, 0.0};
  const auto grid = grid_for({"laec"}, mix);
  CampaignSpec spec = spec_for(core::InjectTarget::kDl1, 1e15, 64);
  spec.min_trials = 4;
  spec.batch = 4;
  spec.target_half_width = 0.45;
  spec.prune = true;
  const auto a = run_campaign(grid, spec);
  spec.prune = false;
  const auto b = run_campaign(grid, spec);
  ASSERT_EQ(a.cells.size(), 1u);
  ASSERT_EQ(b.cells.size(), 1u);
  EXPECT_EQ(a.cells[0].trials, b.cells[0].trials);
  EXPECT_EQ(a.cells[0].trials, 4u);
}

}  // namespace
}  // namespace laec::reliability
