// DEC-TED BCH (45,32) property tests, the random-double counterpart of
// tests/test_sec_daec_taec.cpp:
//  * exhaustive single-flip correction over every codeword position;
//  * exhaustive DOUBLE-flip correction over every C(45,2) pair — adjacent
//    or not, the capability this code adds over the burst family;
//  * random triple flips are always detected, never miscorrected (TED,
//    the d = 6 guarantee);
//  * registry integration: a deployable 32-bit drop-in with the
//    corrects_double capability flag set, usable as a DL1 scheme key.
#include <gtest/gtest.h>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "core/deployment.hpp"
#include "ecc/registry.hpp"

namespace laec::ecc {
namespace {

const LinearCode& dec_bch32() { return linear_code("dec-bch-45-32"); }

std::vector<u64> word_battery(unsigned width) {
  std::vector<u64> words = {0, low_mask(width),
                            0xaaaaaaaaaaaaaaaaull & low_mask(width),
                            0x5555555555555555ull & low_mask(width)};
  Rng rng(0xbc4 + width);
  for (int i = 0; i < 4; ++i) {
    words.push_back(rng.next_u64() & low_mask(width));
  }
  return words;
}

/// Apply a codeword-position flip to a (data, check) pair.
void flip_cw(const LinearCode& c, u64& data, u64& check, unsigned pos) {
  if (pos < c.data_bits()) {
    data = flip_bit(data, pos);
  } else {
    check = flip_bit(check, pos - c.data_bits());
  }
}

TEST(DecBch, Geometry) {
  EXPECT_EQ(dec_bch32().data_bits(), 32u);
  EXPECT_EQ(dec_bch32().check_bits(), 13u);
  EXPECT_EQ(dec_bch32().codeword_bits(), 45u);
}

TEST(DecBch, CleanWordsDecodeClean) {
  const LinearCode& c = dec_bch32();
  for (const u64 w : word_battery(c.data_bits())) {
    const u64 chk = c.encode(w);
    const auto r = c.decode(w, chk);
    EXPECT_EQ(r.status, CheckStatus::kOk);
    EXPECT_EQ(r.data, w);
    EXPECT_EQ(r.check, chk);
  }
}

TEST(DecBch, ExhaustiveSingleFlipCorrection) {
  const LinearCode& c = dec_bch32();
  for (const u64 w : word_battery(c.data_bits())) {
    const u64 chk = c.encode(w);
    for (unsigned pos = 0; pos < c.codeword_bits(); ++pos) {
      u64 data = w, check = chk;
      flip_cw(c, data, check, pos);
      const auto r = c.decode(data, check);
      EXPECT_EQ(r.status, CheckStatus::kCorrected) << "pos " << pos;
      EXPECT_EQ(r.data, w) << "pos " << pos;
      EXPECT_EQ(r.check, chk) << "pos " << pos;
    }
  }
}

TEST(DecBch, ExhaustiveDoubleFlipCorrection) {
  // EVERY pair of codeword positions — the 990 patterns SEC-DAEC only
  // handles when adjacent — must decode back to the original word.
  const LinearCode& c = dec_bch32();
  for (const u64 w : word_battery(c.data_bits())) {
    const u64 chk = c.encode(w);
    for (unsigned p = 0; p < c.codeword_bits(); ++p) {
      for (unsigned q = p + 1; q < c.codeword_bits(); ++q) {
        u64 data = w, check = chk;
        flip_cw(c, data, check, p);
        flip_cw(c, data, check, q);
        const auto r = c.decode(data, check);
        const auto want = q == p + 1 ? CheckStatus::kCorrectedAdjacent
                                     : CheckStatus::kCorrected;
        ASSERT_EQ(r.status, want) << "pair " << p << "," << q;
        ASSERT_EQ(r.data, w) << "pair " << p << "," << q;
        ASSERT_EQ(r.check, chk) << "pair " << p << "," << q;
      }
    }
  }
}

TEST(DecBch, RandomTriplesAreDetectedNeverMiscorrected) {
  // d = 6: a weight-3 error pattern is at distance >= 3 from every
  // codeword, outside every decode sphere — always flagged.
  const LinearCode& c = dec_bch32();
  Rng rng(0x3b3);
  for (int trial = 0; trial < 3000; ++trial) {
    const u64 w = rng.next_u64() & low_mask(c.data_bits());
    const u64 chk = c.encode(w);
    unsigned p = static_cast<unsigned>(rng.below(c.codeword_bits()));
    unsigned q = static_cast<unsigned>(rng.below(c.codeword_bits()));
    unsigned r3 = static_cast<unsigned>(rng.below(c.codeword_bits()));
    if (p == q || q == r3 || p == r3) continue;
    u64 data = w, check = chk;
    flip_cw(c, data, check, p);
    flip_cw(c, data, check, q);
    flip_cw(c, data, check, r3);
    const auto r = c.decode(data, check);
    ASSERT_EQ(r.status, CheckStatus::kDetectedUncorrectable)
        << "triple " << p << "," << q << "," << r3;
  }
}

TEST(DecBch, RegistryDropInWithDoubleCorrectionCapability) {
  ASSERT_TRUE(codec_registered("dec-bch-45-32"));
  const auto c = make_codec("dec-bch-45-32");
  EXPECT_EQ(c->name(), "dec-bch-45-32");
  EXPECT_EQ(c->data_bits(), 32u);
  EXPECT_EQ(c->check_bits(), 13u);
  EXPECT_TRUE(c->corrects_single());
  EXPECT_TRUE(c->corrects_double());
  EXPECT_TRUE(c->corrects_adjacent_double());
  EXPECT_TRUE(c->detects_double());
  EXPECT_TRUE(c->detects_adjacent_double());
  EXPECT_FALSE(c->corrects_adjacent_triple());

  // Round trip through the Codec interface, including a non-adjacent
  // double repaired in place.
  const u64 w = 0xdecbc132u;
  const u64 chk = c->encode(w);
  const auto clean = c->decode(w, chk);
  EXPECT_EQ(clean.status, CheckStatus::kOk);
  const auto fixed = c->decode(w ^ (1u << 3) ^ (1u << 27), chk);
  EXPECT_EQ(fixed.status, CheckStatus::kCorrected);
  EXPECT_EQ(fixed.data, w);
}

TEST(DecBch, DeployableAsDl1SchemeKey) {
  // A correcting codec named bare rides the write-back DL1 under the LAEC
  // placement, like every other correcting drop-in.
  const auto dep = core::HierarchyDeployment::parse("dec-bch-45-32");
  EXPECT_EQ(dep.dl1.codec, "dec-bch-45-32");
  EXPECT_EQ(dep.timing, cpu::EccPolicy::kLaec);
  EXPECT_EQ(dep.write_policy, mem::WritePolicy::kWriteBack);
  EXPECT_EQ(core::HierarchyDeployment::parse(dep.canonical_key()).dl1.codec,
            dep.dl1.codec);
}

}  // namespace
}  // namespace laec::ecc
