// SEC-DAEC-TAEC (45,32) property tests, mirroring tests/test_sec_daec.cpp
// and extending it to the triple-adjacent capability (arXiv:2002.07507):
//  * exhaustive single-flip correction over every codeword position;
//  * exhaustive ADJACENT double-flip correction over every adjacent pair;
//  * exhaustive ADJACENT triple-flip correction over every adjacent triple
//    — the capability this code adds over SEC-DAEC;
//  * random NON-adjacent double flips are never silently accepted;
//  * registry integration: the codec is a deployable 32-bit drop-in with
//    the corrects_adjacent_triple capability flag set.
#include <gtest/gtest.h>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "ecc/registry.hpp"

namespace laec::ecc {
namespace {

const LinearCode& sec_daec_taec32() {
  return linear_code("sec-daec-taec-45-32");
}

std::vector<u64> word_battery(unsigned width) {
  std::vector<u64> words = {0, low_mask(width),
                            0xaaaaaaaaaaaaaaaaull & low_mask(width),
                            0x5555555555555555ull & low_mask(width)};
  for (unsigned b = 0; b < width; ++b) {
    words.push_back(u64{1} << b);                       // walking one
    words.push_back(~(u64{1} << b) & low_mask(width));  // walking zero
  }
  Rng rng(0x7aec + width);
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

TEST(SecDaecTaec, Geometry) {
  EXPECT_EQ(sec_daec_taec32().data_bits(), 32u);
  EXPECT_EQ(sec_daec_taec32().check_bits(), 13u);
  EXPECT_EQ(sec_daec_taec32().codeword_bits(), 45u);
}

TEST(SecDaecTaec, CleanDecodes) {
  const LinearCode& c = sec_daec_taec32();
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const u64 v = rng.next_u64() & low_mask(c.data_bits());
    const auto r = c.decode(v, c.encode(v));
    ASSERT_EQ(r.status, CheckStatus::kOk);
    ASSERT_EQ(r.data, v);
  }
}

// Exhaustive single-error property: every codeword position, over a
// structured word battery, round-trips with kCorrected.
TEST(SecDaecTaec, ExhaustiveSingleFlipCorrected) {
  const LinearCode& c = sec_daec_taec32();
  for (const u64 w : word_battery(c.data_bits())) {
    const u64 chk = c.encode(w);
    for (unsigned pos = 0; pos < c.codeword_bits(); ++pos) {
      u64 data = w;
      u64 check = chk;
      flip_cw(c, data, check, pos);
      const auto r = c.decode(data, check);
      ASSERT_EQ(r.status, CheckStatus::kCorrected)
          << "word 0x" << std::hex << w << " pos " << std::dec << pos;
      ASSERT_EQ(r.data, w);
      ASSERT_EQ(r.check, chk);
    }
  }
}

// Exhaustive ADJACENT double-error property: every one of the n-1 adjacent
// pairs round-trips with kCorrectedAdjacent.
TEST(SecDaecTaec, ExhaustiveAdjacentDoubleFlipCorrected) {
  const LinearCode& c = sec_daec_taec32();
  for (const u64 w : word_battery(c.data_bits())) {
    const u64 chk = c.encode(w);
    for (unsigned pos = 0; pos + 1 < c.codeword_bits(); ++pos) {
      u64 data = w;
      u64 check = chk;
      flip_cw(c, data, check, pos);
      flip_cw(c, data, check, pos + 1);
      const auto r = c.decode(data, check);
      ASSERT_EQ(r.status, CheckStatus::kCorrectedAdjacent)
          << "word 0x" << std::hex << w << " pair " << std::dec << pos;
      ASSERT_EQ(r.data, w);
      ASSERT_EQ(r.check, chk);
    }
  }
}

// Exhaustive ADJACENT triple-error property: every one of the n-2 adjacent
// triples round-trips — the headline capability over SEC-DAEC.
TEST(SecDaecTaec, ExhaustiveAdjacentTripleFlipCorrected) {
  const LinearCode& c = sec_daec_taec32();
  for (const u64 w : word_battery(c.data_bits())) {
    const u64 chk = c.encode(w);
    for (unsigned pos = 0; pos + 2 < c.codeword_bits(); ++pos) {
      u64 data = w;
      u64 check = chk;
      flip_cw(c, data, check, pos);
      flip_cw(c, data, check, pos + 1);
      flip_cw(c, data, check, pos + 2);
      const auto r = c.decode(data, check);
      ASSERT_EQ(r.status, CheckStatus::kCorrectedAdjacent)
          << "word 0x" << std::hex << w << " triple " << std::dec << pos;
      ASSERT_EQ(r.data, w);
      ASSERT_EQ(r.check, chk);
    }
  }
}

// Non-adjacent double flips: never silently accepted, never mistaken for a
// single (odd/even syndrome parity). Either flagged, or miscorrected onto
// an adjacent burst — in which case the delivered word is self-consistent
// but different from the original.
TEST(SecDaecTaec, RandomNonAdjacentDoubleFlipNeverSilent) {
  const LinearCode& c = sec_daec_taec32();
  Rng rng(0xbadd);
  const unsigned n = c.codeword_bits();
  u64 detected = 0, miscorrected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const u64 w = rng.next_u64() & low_mask(c.data_bits());
    const u64 chk = c.encode(w);
    const unsigned a = static_cast<unsigned>(rng.below(n));
    unsigned b = static_cast<unsigned>(rng.below(n));
    if (b + 1 == a || b == a || b == a + 1) continue;  // adjacency guard
    u64 data = w;
    u64 check = chk;
    flip_cw(c, data, check, a);
    flip_cw(c, data, check, b);
    const auto r = c.decode(data, check);
    ASSERT_NE(r.status, CheckStatus::kOk)
        << "silent double error at " << a << "," << b;
    ASSERT_NE(r.status, CheckStatus::kCorrected);
    if (r.status == CheckStatus::kDetectedUncorrectable) {
      ++detected;
    } else {
      ASSERT_EQ(r.status, CheckStatus::kCorrectedAdjacent);
      ++miscorrected;
      ASSERT_EQ(c.encode(r.data), r.check);
      ASSERT_TRUE(r.data != w || r.check != chk);
    }
  }
  // At r = 13 the even-weight syndrome space (2^12) dwarfs the 44 adjacent
  // pairs, so detection dominates — but alias hits still occur.
  EXPECT_GT(detected, 3000u);
}

// Exhaustive non-adjacent double sweep on one word: no pair is ever
// reported clean or single.
TEST(SecDaecTaec, ExhaustiveNonAdjacentDoubleNeverSilent) {
  const LinearCode& c = sec_daec_taec32();
  const u64 w = 0x89abcdefull;
  const u64 chk = c.encode(w);
  const unsigned n = c.codeword_bits();
  for (unsigned i = 0; i < n; ++i) {
    for (unsigned j = i + 2; j < n; ++j) {
      u64 data = w;
      u64 check = chk;
      flip_cw(c, data, check, i);
      flip_cw(c, data, check, j);
      const auto r = c.decode(data, check);
      ASSERT_NE(r.status, CheckStatus::kOk) << "pair " << i << "," << j;
      ASSERT_NE(r.status, CheckStatus::kCorrected) << "pair " << i << "," << j;
    }
  }
}

// Registry integration: a one-file drop-in, deployable at 32-bit word
// granularity, with the full capability ladder advertised.
TEST(SecDaecTaec, RegistryDropIn) {
  ASSERT_TRUE(codec_registered("sec-daec-taec-45-32"));
  const auto codec = make_codec("sec-daec-taec-45-32");
  EXPECT_EQ(codec->name(), "sec-daec-taec-45-32");
  EXPECT_EQ(codec->data_bits(), 32u);
  EXPECT_EQ(codec->check_bits(), 13u);
  EXPECT_TRUE(codec->corrects_single());
  EXPECT_TRUE(codec->corrects_adjacent_double());
  EXPECT_TRUE(codec->corrects_adjacent_triple());
  EXPECT_TRUE(codec->detects_adjacent_double());
  EXPECT_FALSE(codec->detects_double());

  // The Codec interface reports triples as the adjacent-corrected family.
  const u64 w = 0x1234abcdu;
  u64 data = w;
  u64 check = codec->encode(w);
  for (unsigned pos = 10; pos < 13; ++pos) data = flip_bit(data, pos);
  const auto r = codec->decode(data, check);
  EXPECT_EQ(r.status, CheckStatus::kCorrectedAdjacent);
  EXPECT_EQ(r.data, w);

  // And the devirtualized thunk agrees with the virtual encoder.
  const auto fn = codec->encode_thunk();
  for (u64 v : {u64{0}, u64{0xffffffff}, u64{0xdeadbeef}}) {
    EXPECT_EQ(fn(codec.get(), v), codec->encode(v));
  }
}

}  // namespace
}  // namespace laec::ecc
