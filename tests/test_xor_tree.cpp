#include "ecc/xor_tree.hpp"

#include <gtest/gtest.h>

#include "ecc/registry.hpp"

namespace laec::ecc {
namespace {

const LinearCode& secded32() { return linear_code("secded-39-32"); }
const LinearCode& secded64() { return linear_code("secded-72-64"); }

TEST(XorTree, EncoderCosts32) {
  const auto g = estimate_encoder(secded32());
  // 7 rows, each covering a balanced share of 32 odd-weight-column bits
  // (total column weight = sum of popcounts >= 3*32 = 96 -> ~14 per row).
  EXPECT_GE(g.xor2_gates, 7u * (10 - 1));
  EXPECT_LE(g.depth_levels, 5u);  // ceil(log2(~16))
  EXPECT_GE(g.depth_levels, 4u);
}

TEST(XorTree, CheckerDeeperThanEncoder) {
  const auto enc = estimate_encoder(secded32());
  const auto chk = estimate_checker(secded32());
  EXPECT_GT(chk.depth_levels, enc.depth_levels);
  EXPECT_GT(chk.total_gates(), enc.total_gates());
}

TEST(XorTree, ParityShallowerThanSecded) {
  // The architectural point of Table I: parity is cheap enough for the hit
  // path, SECDED is not — hence the paper's schemes.
  const auto par = estimate_checker(linear_code("parity-32"));
  const auto sec = estimate_checker(secded32());
  EXPECT_LT(par.depth_levels, sec.depth_levels);
  EXPECT_LT(par.total_gates(), sec.total_gates());
}

TEST(XorTree, DelayScalesWithLevels) {
  GateEstimate g;
  g.depth_levels = 10;
  EXPECT_DOUBLE_EQ(estimate_delay_ps(g, 35.0), 350.0);
  EXPECT_DOUBLE_EQ(estimate_delay_ps(g, 20.0), 200.0);
}

TEST(XorTree, SecdedCheckFitsInOneCycleAt150MHz) {
  // Supports the paper's premise (§II.B item 3, refs [13][18]): a SECDED
  // check is shorter than a full DL1 access but too long to *append* to it
  // within the same cycle at the LEON4's 150 MHz once array access time is
  // accounted for.
  const auto chk = estimate_checker(secded32());
  const double ps = estimate_delay_ps(chk);
  EXPECT_LT(ps, 1e6 / 150.0 * 1e3 / 2);  // < half a 150 MHz cycle
}

TEST(XorTree, WiderCodesCostMore) {
  EXPECT_GT(estimate_checker(secded64()).total_gates(),
            estimate_checker(secded32()).total_gates());
  const LinearCode secded16(6, hsiao_columns(16, 6), Corrects::kSingles);
  EXPECT_GT(estimate_encoder(secded32()).total_gates(),
            estimate_encoder(secded16).total_gates());
}

}  // namespace
}  // namespace laec::ecc
