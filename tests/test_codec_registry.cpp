// Codec interface + registry + string-keyed deployment tests:
//  * every registered name constructs and its codec round-trips data;
//  * unknown names fail with a clear error naming the known schemes;
//  * user registration is a one-liner and immediately constructible;
//  * enum round-trips (CheckStatus / EccPolicy / HazardRule) are
//    exhaustive in both directions — no "?" placeholders;
//  * HierarchyDeployment::parse covers policy keys, codec keys and
//    placement:codec combinations.
#include "ecc/registry.hpp"

#include <gtest/gtest.h>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "core/deployment.hpp"
#include "core/simulator.hpp"
#include "cpu/pipeline_config.hpp"

namespace laec {
namespace {

TEST(CodecRegistry, EveryRegisteredNameConstructsAndRoundTrips) {
  for (const auto& name : ecc::registered_codecs()) {
    SCOPED_TRACE(name);
    const auto codec = ecc::make_codec(name);
    ASSERT_NE(codec, nullptr);
    EXPECT_FALSE(codec->name().empty());
    EXPECT_GT(codec->data_bits(), 0u);
    EXPECT_EQ(codec->codeword_bits(),
              codec->data_bits() + codec->check_bits());
    // Clean encode/decode round-trip on random words.
    Rng rng(0xc0dec);
    for (int i = 0; i < 64; ++i) {
      const u64 v = rng.next_u64() & low_mask(codec->data_bits());
      const auto d = codec->decode(v, codec->encode(v));
      ASSERT_EQ(d.status, ecc::CheckStatus::kOk);
      ASSERT_EQ(d.data, v);
    }
  }
}

TEST(CodecRegistry, InstancesAreSharedAndStable) {
  const auto a = ecc::make_codec("secded-39-32");
  const auto b = ecc::make_codec("secded-39-32");
  EXPECT_EQ(a.get(), b.get()) << "stateless codecs should be cached";
}

TEST(CodecRegistry, UnknownNameFailsWithClearError) {
  try {
    (void)ecc::make_codec("no-such-code-99-88");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no-such-code-99-88"), std::string::npos);
    EXPECT_NE(msg.find("secded-39-32"), std::string::npos)
        << "error should name the known schemes: " << msg;
  }
}

TEST(CodecRegistry, CapabilitiesMatchSchemes) {
  EXPECT_FALSE(ecc::make_codec("none")->corrects_single());
  EXPECT_FALSE(ecc::make_codec("parity-32")->corrects_single());
  EXPECT_TRUE(ecc::make_codec("secded-39-32")->corrects_single());
  EXPECT_TRUE(ecc::make_codec("secded-39-32")->detects_double());
  EXPECT_FALSE(ecc::make_codec("secded-39-32")->corrects_adjacent_double());
  EXPECT_TRUE(ecc::make_codec("sec-daec-39-32")->corrects_single());
  EXPECT_TRUE(ecc::make_codec("sec-daec-39-32")->corrects_adjacent_double());
  EXPECT_FALSE(ecc::make_codec("sec-daec-39-32")->detects_double())
      << "SEC-DAEC may miscorrect non-adjacent doubles";
}

TEST(CodecRegistry, UserRegistrationIsOneLine) {
  // The one-file drop-in path: register, construct by name, appears in the
  // listing. (A second registration of the same name must throw.)
  static const bool registered = ecc::register_codec(
      "test-parity-32", [] { return std::make_shared<ecc::ParityCodec>(32); });
  EXPECT_TRUE(registered);
  EXPECT_TRUE(ecc::codec_registered("test-parity-32"));
  EXPECT_EQ(ecc::make_codec("test-parity-32")->check_bits(), 1u);
  EXPECT_THROW(
      ecc::register_codec("test-parity-32",
                          [] { return std::make_shared<ecc::ParityCodec>(32); }),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Exhaustive enum string round-trips (no "?" placeholders anywhere).
// ---------------------------------------------------------------------------

TEST(EnumRoundTrips, CheckStatus) {
  for (const auto st :
       {ecc::CheckStatus::kOk, ecc::CheckStatus::kCorrected,
        ecc::CheckStatus::kCorrectedAdjacent,
        ecc::CheckStatus::kDetectedUncorrectable}) {
    const auto s = to_string(st);
    EXPECT_EQ(s.find('?'), std::string_view::npos);
    const auto back = ecc::check_status_from_string(s);
    ASSERT_TRUE(back.has_value()) << s;
    EXPECT_EQ(*back, st);
  }
  EXPECT_FALSE(ecc::check_status_from_string("").has_value());
}

TEST(EnumRoundTrips, EccPolicyAndHazardRule) {
  for (const auto p :
       {cpu::EccPolicy::kNoEcc, cpu::EccPolicy::kExtraCycle,
        cpu::EccPolicy::kExtraStage, cpu::EccPolicy::kLaec,
        cpu::EccPolicy::kWtParity}) {
    const auto s = to_string(p);
    EXPECT_EQ(s.find('?'), std::string_view::npos);
    const auto back = cpu::ecc_policy_from_string(s);
    ASSERT_TRUE(back.has_value()) << s;
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(cpu::ecc_policy_from_string("secded").has_value());
  for (const auto r : {cpu::HazardRule::kExact, cpu::HazardRule::kPaperLiteral}) {
    const auto back = cpu::hazard_rule_from_string(to_string(r));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, r);
  }
}

// ---------------------------------------------------------------------------
// String-keyed scheme selection (HierarchyDeployment::parse).
// ---------------------------------------------------------------------------

TEST(SchemeKeys, PolicyKeysExpandToCanonicalDeployments) {
  const auto laec = core::HierarchyDeployment::parse("laec");
  EXPECT_EQ(laec.codec, "secded-39-32");
  EXPECT_EQ(laec.timing, cpu::EccPolicy::kLaec);
  EXPECT_EQ(laec.write_policy, mem::WritePolicy::kWriteBack);

  const auto wt = core::HierarchyDeployment::parse("wt-parity");
  EXPECT_EQ(wt.codec, "parity-32");
  EXPECT_EQ(wt.write_policy, mem::WritePolicy::kWriteThrough);
  EXPECT_EQ(wt.alloc_policy, mem::AllocPolicy::kNoWriteAllocate);

  const auto none = core::HierarchyDeployment::parse("no-ecc");
  EXPECT_EQ(none.codec, "none");
  EXPECT_EQ(none.timing, cpu::EccPolicy::kNoEcc);
}

TEST(SchemeKeys, CodecKeysPickTheirNaturalArrangement) {
  const auto daec = core::HierarchyDeployment::parse("sec-daec-39-32");
  EXPECT_EQ(daec.codec, "sec-daec-39-32");
  EXPECT_EQ(daec.timing, cpu::EccPolicy::kLaec);
  EXPECT_EQ(daec.write_policy, mem::WritePolicy::kWriteBack);

  const auto par = core::HierarchyDeployment::parse("parity-32");
  EXPECT_EQ(par.timing, cpu::EccPolicy::kWtParity);
  EXPECT_EQ(par.write_policy, mem::WritePolicy::kWriteThrough);

  const auto none = core::HierarchyDeployment::parse("none");
  EXPECT_EQ(none.timing, cpu::EccPolicy::kNoEcc);
}

TEST(SchemeKeys, PlacementColonCodecCombines) {
  const auto d = core::HierarchyDeployment::parse("extra-stage:sec-daec-39-32");
  EXPECT_EQ(d.name, "extra-stage:sec-daec-39-32");
  EXPECT_EQ(d.codec, "sec-daec-39-32");
  EXPECT_EQ(d.timing, cpu::EccPolicy::kExtraStage);
  // Detect-only codecs cannot sit in a correcting placement.
  EXPECT_THROW((void)core::HierarchyDeployment::parse("extra-stage:parity-32"),
               std::invalid_argument);
  EXPECT_THROW((void)core::HierarchyDeployment::parse("bogus:secded-39-32"),
               std::invalid_argument);
}

TEST(SchemeKeys, SixtyFourBitCodecsAreRejectedForTheDl1) {
  // The cache arrays protect 32-bit words; the 64-bit geometries exist in
  // the library (and the registry) but cannot be deployed in the DL1.
  EXPECT_THROW((void)core::HierarchyDeployment::parse("secded-72-64"),
               std::invalid_argument);
  EXPECT_THROW((void)core::HierarchyDeployment::parse("laec:sec-daec-72-64"),
               std::invalid_argument);
}

TEST(SchemeKeys, UnknownKeyFailsWithKnownChoices) {
  try {
    (void)core::HierarchyDeployment::parse("quantum-ecc");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("quantum-ecc"), std::string::npos);
    EXPECT_NE(msg.find("laec"), std::string::npos);
    EXPECT_NE(msg.find("sec-daec-39-32"), std::string::npos);
  }
}

TEST(SchemeKeys, SimConfigDefaultsToLaecAndSetSchemeReplacesIt) {
  core::SimConfig cfg;
  EXPECT_EQ(cfg.deployment.name, "laec");
  EXPECT_EQ(cfg.deployment.codec, "secded-39-32");
  cfg.set_scheme("sec-daec-39-32");
  EXPECT_EQ(cfg.deployment.codec, "sec-daec-39-32");
  EXPECT_EQ(cfg.deployment.timing, cpu::EccPolicy::kLaec);
  const auto sc = core::make_system_config(cfg);
  ASSERT_NE(sc.core.dl1.cache.codec, nullptr);
  EXPECT_EQ(sc.core.dl1.cache.codec->name(), "sec-daec-39-32");
  EXPECT_TRUE(sc.core.dl1.cache.codec->corrects_adjacent_double());
}

}  // namespace
}  // namespace laec
