#include "energy/energy.hpp"

#include <gtest/gtest.h>

#include <string_view>

#include "ecc/registry.hpp"

namespace laec::energy {
namespace {

core::RunStats fake_stats(u64 cycles, u64 insts, u64 loads, u64 stores,
                          u64 anticipated) {
  core::RunStats s;
  s.cycles = cycles;
  s.instructions = insts;
  s.loads = loads;
  s.stores = stores;
  s.laec_anticipated = anticipated;
  return s;
}

core::HierarchyDeployment scheme(std::string_view key) {
  return core::HierarchyDeployment::parse(key);
}

TEST(Energy, LeakageProportionalToCycles) {
  EnergyParams p;
  const auto a = compute(p, fake_stats(1'000'000, 700'000, 170'000, 50'000, 0),
                         scheme("extra-stage"));
  const auto b = compute(p, fake_stats(2'000'000, 700'000, 170'000, 50'000, 0),
                         scheme("extra-stage"));
  EXPECT_NEAR(b.leakage_uj / a.leakage_uj, 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(a.dynamic_uj, b.dynamic_uj);  // same event counts
}

TEST(Energy, LaecHardwareAdderIsUnderOnePercent) {
  // The paper's §IV.A claim: the extra RF ports + adder cost < 1% power.
  EnergyParams p;
  const auto s = fake_stats(1'000'000, 700'000, 170'000, 50'000, 120'000);
  const auto e = compute(p, s, scheme("laec"));
  EXPECT_GT(e.laec_adder_uj, 0.0);
  EXPECT_LT(e.laec_dynamic_fraction(), 0.01);
}

TEST(Energy, SecdedCostsMoreThanParityThanNone) {
  EnergyParams p;
  const auto s = fake_stats(1'000'000, 700'000, 170'000, 50'000, 0);
  const auto none = compute(p, s, scheme("no-ecc"));
  const auto par = compute(p, s, scheme("wt-parity"));
  const auto sec = compute(p, s, scheme("extra-stage"));
  EXPECT_LT(none.dynamic_uj, par.dynamic_uj);
  EXPECT_LT(par.dynamic_uj, sec.dynamic_uj);
}

TEST(Energy, NoEccPolicyHasNoLaecAdder) {
  EnergyParams p;
  const auto s = fake_stats(1'000'000, 700'000, 170'000, 50'000, 99'999);
  const auto e = compute(p, s, scheme("no-ecc"));
  EXPECT_DOUBLE_EQ(e.laec_adder_uj, 0.0);
}

TEST(Energy, CalibratedTableAndGeometryFallback) {
  EnergyParams p;
  // Reference point: secded-39-32 IS the calibration anchor.
  const auto secded = codec_energy(p, *ecc::make_codec("secded-39-32"));
  EXPECT_DOUBLE_EQ(secded.check_pj, p.secded_check_pj);
  EXPECT_DOUBLE_EQ(secded.encode_pj, p.secded_encode_pj);
  // SEC-DAEC shares the encoder but pays for the adjacent-pair comparators
  // in the checker — calibrated above the anchor, below naive 2x.
  const auto daec = codec_energy(p, *ecc::make_codec("sec-daec-39-32"));
  EXPECT_GT(daec.check_pj, secded.check_pj);
  EXPECT_LT(daec.check_pj, 2.0 * secded.check_pj);
  EXPECT_DOUBLE_EQ(daec.encode_pj, secded.encode_pj);
  // Parity-class detectors: one tree per interleave way.
  const auto par = codec_energy(p, *ecc::make_codec("parity-32"));
  EXPECT_DOUBLE_EQ(par.check_pj, p.parity_pj);
  const auto i2 = codec_energy(p, *ecc::make_codec("parity-i2-32"));
  EXPECT_DOUBLE_EQ(i2.check_pj, 2.0 * p.parity_pj);
  // Unprotected arrays are free.
  const auto none = codec_energy(p, *ecc::make_codec("none"));
  EXPECT_DOUBLE_EQ(none.check_pj, 0.0);
  // Uncalibrated syndrome geometry falls back to check-bit scaling: a
  // codec the table does not know scales by r/7 off the anchor.
  class FakeDec final : public ecc::Codec {
   public:
    [[nodiscard]] std::string_view name() const override {
      return "dec-45-32";
    }
    [[nodiscard]] unsigned data_bits() const override { return 32; }
    [[nodiscard]] unsigned check_bits() const override { return 13; }
    [[nodiscard]] u64 encode(u64) const override { return 0; }
    [[nodiscard]] Decoded decode(u64 d, u64) const override {
      return {ecc::CheckStatus::kOk, d, 0};
    }
    [[nodiscard]] bool corrects_single() const override { return true; }
  } fake;
  const auto dec = codec_energy(p, fake);
  EXPECT_DOUBLE_EQ(dec.check_pj, p.secded_check_pj * 13.0 / 7.0);
}

TEST(Energy, PerLevelEccEnergyFollowsTheDeployedHierarchy) {
  EnergyParams p;
  auto s = fake_stats(1'000'000, 700'000, 170'000, 50'000, 0);
  s.l1i_fetches = 600'000;
  s.l1i_fill_words = 8'000;
  s.l2_reads = 40'000;
  s.l2_writes = 10'000;
  s.l2_fill_words = 32'000;

  const auto base = compute(p, s, scheme("laec"));
  EXPECT_GT(base.dl1_ecc_uj, 0.0);
  EXPECT_GT(base.l1i_ecc_uj, 0.0);
  EXPECT_GT(base.l2_ecc_uj, 0.0);

  // Upgrading only the L2 changes only the L2 share (and the total).
  const auto daec_l2 =
      compute(p, s, scheme("laec+l2:sec-daec-39-32"));
  EXPECT_DOUBLE_EQ(daec_l2.dl1_ecc_uj, base.dl1_ecc_uj);
  EXPECT_DOUBLE_EQ(daec_l2.l1i_ecc_uj, base.l1i_ecc_uj);
  EXPECT_GT(daec_l2.l2_ecc_uj, base.l2_ecc_uj);
  EXPECT_GT(daec_l2.dynamic_uj, base.dynamic_uj);

  // The per-level shares are part of (not on top of) the dynamic total.
  EXPECT_LT(base.dl1_ecc_uj + base.l1i_ecc_uj + base.l2_ecc_uj,
            base.dynamic_uj);
}

TEST(Energy, TotalIsDynamicPlusLeakage) {
  EnergyParams p;
  const auto s = fake_stats(500'000, 300'000, 80'000, 20'000, 10'000);
  const auto e = compute(p, s, scheme("laec"));
  EXPECT_DOUBLE_EQ(e.total_uj(), e.dynamic_uj + e.leakage_uj);
  EXPECT_GT(e.dynamic_uj, 0.0);
  EXPECT_GT(e.leakage_uj, 0.0);
}

}  // namespace
}  // namespace laec::energy
