// Exhaustive golden-run pruning equivalence sweep: every registered
// deployable codec x every pure MBU pattern shape x every inject target,
// pruned vs simulate-everything, rows byte-identical and severity totals
// equal. The fast cross-section of this contract runs in tier-1
// (test_prune_equiv); this is the full grid, labelled slow.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "ecc/registry.hpp"
#include "reliability/campaign.hpp"

namespace laec::reliability {
namespace {

CampaignGrid grid_for(const std::string& scheme,
                      const MbuPatternTable& mix) {
  CampaignGrid grid;
  grid.workloads({"rspeed"}).schemes({scheme});
  grid.rates({{"hot", 1000.0, mix}});
  return grid;
}

CampaignSpec spec_for(core::InjectTarget target) {
  CampaignSpec spec;
  // Mid accel: a blend of pruned and simulated trials per cell.
  spec.accel = 3e15;
  spec.trials = 6;
  spec.target = target;
  spec.base.dl1_size_bytes = 2 * 1024;
  return spec;
}

/// Deployable codec keys, deduplicated by canonical codec name (legacy
/// aliases construct the same instances; 64-bit-word codes cannot back the
/// 32-bit-word arrays).
std::vector<std::string> deployable_codec_keys() {
  std::vector<std::string> keys;
  std::set<std::string> seen;
  for (const auto& key : ecc::registered_codecs()) {
    const auto codec = ecc::make_codec(key);
    if (codec->data_bits() != 32) continue;
    if (!seen.insert(std::string(codec->name())).second) continue;
    keys.push_back(key);
  }
  return keys;
}

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
    EXPECT_EQ(x.pruned, y.pruned) << at;
    EXPECT_DOUBLE_EQ(x.device_hours, y.device_hours) << at;
    EXPECT_LE(x.pruned, x.masked) << at;
    pruned_total += x.pruned;
  }
  return pruned_total;
}

TEST(PruneEquivExhaustive, EveryCodecEveryShapeEveryTarget) {
  const std::vector<std::pair<const char*, MbuPatternTable>> shapes = {
      {"single", {1.0, 0.0, 0.0, 0.0}},
      {"adj2", {0.0, 1.0, 0.0, 0.0}},
      {"adj3", {0.0, 0.0, 1.0, 0.0}},
      {"cluster", {0.0, 0.0, 0.0, 1.0}},
  };
  const auto codecs = deployable_codec_keys();
  ASSERT_GE(codecs.size(), 6u);
  u64 pruned = 0;
  for (const auto& codec : codecs) {
    for (const auto& [shape, mix] : shapes) {
      for (const auto target :
           {core::InjectTarget::kDl1, core::InjectTarget::kL1i,
            core::InjectTarget::kL2}) {
        pruned += expect_equivalent(
            grid_for(codec, mix), spec_for(target),
            codec + std::string("/") + shape + "/" +
                std::string(core::to_string(target)));
      }
    }
  }
  EXPECT_GT(pruned, 0u);
}

}  // namespace
}  // namespace laec::reliability
