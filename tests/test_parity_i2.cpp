// Interleaved parity (parity-i2-32) property tests — exhaustive over flip
// positions:
//  * clean words round-trip;
//  * every single flip (data or check) is detected;
//  * every ADJACENT double flip is detected (the capability plain parity
//    lacks and the reason this codec exists);
//  * same-class double flips are silent (the documented parity limitation);
//  * the registry serves it and the deployment layer gives it the
//    write-through detect-only arrangement.
#include <gtest/gtest.h>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "core/deployment.hpp"
#include "ecc/registry.hpp"

namespace laec {
namespace {

std::vector<u64> sample_words() {
  std::vector<u64> words = {0u, 0xffffffffu, 0xa5a5a5a5u, 0x00000001u,
                            0x80000000u, 0x55555555u};
  Rng rng(0x1f2);
  for (int i = 0; i < 32; ++i) words.push_back(rng.next_u64() & 0xffffffffu);
  return words;
}

TEST(InterleavedParity, CleanWordsRoundTrip) {
  const auto codec = ecc::make_codec("parity-i2-32");
  EXPECT_EQ(codec->data_bits(), 32u);
  EXPECT_EQ(codec->check_bits(), 2u);
  for (const u64 w : sample_words()) {
    const auto d = codec->decode(w, codec->encode(w));
    EXPECT_EQ(d.status, ecc::CheckStatus::kOk);
    EXPECT_EQ(d.data, w);
  }
}

TEST(InterleavedParity, EverySingleFlipIsDetected) {
  const auto codec = ecc::make_codec("parity-i2-32");
  for (const u64 w : sample_words()) {
    const u64 check = codec->encode(w);
    for (unsigned bit = 0; bit < codec->codeword_bits(); ++bit) {
      const u64 data = bit < 32 ? flip_bit(w, bit) : w;
      const u64 chk = bit < 32 ? check : flip_bit(check, bit - 32);
      const auto d = codec->decode(data, chk);
      ASSERT_EQ(d.status, ecc::CheckStatus::kDetectedUncorrectable)
          << "word " << std::hex << w << " bit " << std::dec << bit;
    }
  }
}

TEST(InterleavedParity, EveryAdjacentDoubleFlipIsDetected) {
  const auto codec = ecc::make_codec("parity-i2-32");
  ASSERT_TRUE(codec->detects_adjacent_double());
  for (const u64 w : sample_words()) {
    const u64 check = codec->encode(w);
    // All adjacent pairs across the 34-bit codeword, including the
    // data/check boundary (31,32) and the check pair (32,33).
    for (unsigned a = 0; a + 1 < codec->codeword_bits(); ++a) {
      u64 data = w;
      u64 chk = check;
      for (const unsigned bit : {a, a + 1}) {
        if (bit < 32) {
          data = flip_bit(data, bit);
        } else {
          chk = flip_bit(chk, bit - 32);
        }
      }
      const auto d = codec->decode(data, chk);
      ASSERT_EQ(d.status, ecc::CheckStatus::kDetectedUncorrectable)
          << "word " << std::hex << w << " pair " << std::dec << a;
    }
  }
}

TEST(InterleavedParity, SameClassDoubleFlipsAreSilent) {
  // The fundamental limitation: two flips in the SAME interleave class
  // (distance 2, 4, ...) cancel within their parity tree. Documented, not
  // corrected — exactly like plain parity for any even-weight error.
  const auto codec = ecc::make_codec("parity-i2-32");
  for (const u64 w : sample_words()) {
    const u64 check = codec->encode(w);
    for (unsigned a = 0; a + 2 < 32; a += 5) {
      const u64 data = flip_bit(flip_bit(w, a), a + 2);
      const auto d = codec->decode(data, check);
      ASSERT_EQ(d.status, ecc::CheckStatus::kOk) << "pair " << a;
      ASSERT_NE(d.data, w) << "silent corruption is delivered as stored";
    }
  }
}

TEST(InterleavedParity, CapabilityFlags) {
  const auto codec = ecc::make_codec("parity-i2-32");
  EXPECT_FALSE(codec->corrects_single());
  EXPECT_FALSE(codec->detects_double());
  EXPECT_FALSE(codec->corrects_adjacent_double());
  EXPECT_TRUE(codec->detects_adjacent_double());
  // Plain parity does NOT have the adjacent-double guarantee; SECDED and
  // SEC-DAEC get it via the stronger capabilities.
  EXPECT_FALSE(ecc::make_codec("parity-32")->detects_adjacent_double());
  EXPECT_TRUE(ecc::make_codec("secded-39-32")->detects_adjacent_double());
  EXPECT_TRUE(ecc::make_codec("sec-daec-39-32")->detects_adjacent_double());
}

TEST(InterleavedParity, DeploysAsDetectOnlyScheme) {
  // Bare-codec DL1 key: detect-only -> the write-through parity arrangement.
  const auto d = core::HierarchyDeployment::parse("parity-i2-32");
  EXPECT_EQ(d.dl1.codec, "parity-i2-32");
  EXPECT_EQ(d.timing, cpu::EccPolicy::kWtParity);
  EXPECT_EQ(d.write_policy, mem::WritePolicy::kWriteThrough);
  EXPECT_EQ(d.dl1.recovery, mem::RecoveryPolicy::kInvalidateRefetch);
  // And as a cheap L1I upgrade in a compound key.
  const auto h = core::HierarchyDeployment::parse("laec+l1i:parity-i2-32");
  EXPECT_EQ(h.l1i.codec, "parity-i2-32");
  EXPECT_EQ(h.l1i.recovery, mem::RecoveryPolicy::kInvalidateRefetch);
  // A correcting placement must reject it.
  EXPECT_THROW((void)core::HierarchyDeployment::parse("laec:parity-i2-32"),
               std::invalid_argument);
}

}  // namespace
}  // namespace laec
