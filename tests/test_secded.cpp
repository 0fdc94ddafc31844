#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "ecc/linear_code.hpp"

namespace laec::ecc {
namespace {

/// Hsiao SECDED at the standard geometries: (13,8), (22,16), (39,32),
/// (72,64).
LinearCode secded_code(unsigned width) {
  const unsigned r = width == 8 ? 5 : width == 16 ? 6 : width == 32 ? 7 : 8;
  return LinearCode(r, hsiao_columns(width, r), Corrects::kSingles);
}
const LinearCode& secded8() {
  static const LinearCode c = secded_code(8);
  return c;
}
const LinearCode& secded16() {
  static const LinearCode c = secded_code(16);
  return c;
}
const LinearCode& secded32() {
  static const LinearCode c = secded_code(32);
  return c;
}
const LinearCode& secded64() {
  static const LinearCode c = secded_code(64);
  return c;
}

TEST(Secded, Geometries) {
  EXPECT_EQ(secded8().check_bits(), 5u);
  EXPECT_EQ(secded16().check_bits(), 6u);
  EXPECT_EQ(secded32().check_bits(), 7u);
  EXPECT_EQ(secded64().check_bits(), 8u);
  EXPECT_EQ(secded32().codeword_bits(), 39u);
  EXPECT_EQ(secded64().codeword_bits(), 72u);
}

TEST(Secded, ColumnsAreDistinctOddWeight) {
  for (const LinearCode* c :
       {&secded8(), &secded16(), &secded32(), &secded64()}) {
    std::set<u64> seen;
    for (unsigned i = 0; i < c->data_bits(); ++i) {
      const u64 col = c->column(i);
      EXPECT_EQ(popcount64(col) % 2, 1) << "column " << i;
      EXPECT_GE(popcount64(col), 3) << "column " << i;
      EXPECT_TRUE(seen.insert(col).second) << "duplicate column " << i;
    }
  }
}

TEST(Secded, CleanDecodes) {
  Rng rng(1);
  const LinearCode& c = secded32();
  for (int i = 0; i < 1000; ++i) {
    const u64 v = rng.next_u64() & 0xffffffff;
    const auto r = c.decode(v, c.encode(v));
    EXPECT_EQ(r.status, CheckStatus::kOk);
    EXPECT_EQ(r.data, v);
  }
}

struct FlipCase {
  unsigned width;
  unsigned pos;  // codeword bit to flip
};

class SecdedSingleFlip
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(SecdedSingleFlip, EverySingleFlipCorrected) {
  const auto [width, pos] = GetParam();
  const LinearCode c = secded_code(width);
  if (pos >= c.codeword_bits()) GTEST_SKIP();
  Rng rng(width * 1000 + pos);
  for (int trial = 0; trial < 8; ++trial) {
    const u64 v = rng.next_u64() & low_mask(width);
    u64 data = v;
    u64 check = c.encode(v);
    if (pos < width) {
      data = flip_bit(data, pos);
    } else {
      check = flip_bit(check, pos - width);
    }
    const auto r = c.decode(data, check);
    EXPECT_EQ(r.status, CheckStatus::kCorrected);
    EXPECT_EQ(r.data, v) << "width=" << width << " pos=" << pos;
    EXPECT_EQ(r.check, c.encode(v));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPositions, SecdedSingleFlip,
    ::testing::Combine(::testing::Values(8u, 16u, 32u, 64u),
                       ::testing::Range(0u, 72u)));

TEST(Secded, EveryDoubleFlipDetected32) {
  // Exhaustive over all C(39,2) = 741 bit pairs of the (39,32) code.
  const LinearCode& c = secded32();
  const u64 v = 0x89abcdefull;
  const u64 chk = c.encode(v);
  const unsigned n = c.codeword_bits();
  for (unsigned i = 0; i < n; ++i) {
    for (unsigned j = i + 1; j < n; ++j) {
      u64 data = v;
      u64 check = chk;
      for (unsigned p : {i, j}) {
        if (p < 32) {
          data = flip_bit(data, p);
        } else {
          check = flip_bit(check, p - 32);
        }
      }
      EXPECT_EQ(c.decode(data, check).status,
                CheckStatus::kDetectedUncorrectable)
          << "pair " << i << "," << j;
    }
  }
}

TEST(Secded, EveryDoubleFlipDetected64) {
  const LinearCode& c = secded64();
  const u64 v = 0x0123456789abcdefull;
  const u64 chk = c.encode(v);
  const unsigned n = c.codeword_bits();
  for (unsigned i = 0; i < n; ++i) {
    for (unsigned j = i + 1; j < n; ++j) {
      u64 data = v;
      u64 check = chk;
      for (unsigned p : {i, j}) {
        if (p < 64) {
          data = flip_bit(data, p);
        } else {
          check = flip_bit(check, p - 64);
        }
      }
      EXPECT_EQ(c.decode(data, check).status,
                CheckStatus::kDetectedUncorrectable);
    }
  }
}

// Exhaustive single-error property: for EVERY codeword bit position of the
// (39,32) code and a structured battery of data words (all-zeros, all-ones,
// every walking-one, every walking-zero, alternating patterns, plus random
// words), decode(encode(w) with bit p flipped) must round-trip to w with
// kCorrected status. This is the full single-bit fault space of the DL1
// word codec — 39 positions x 70 words — not a sampled subset.
TEST(Secded, ExhaustiveSingleFlipRoundTrip32) {
  const LinearCode& c = secded32();
  std::vector<u64> words = {0x00000000ull, 0xffffffffull, 0xaaaaaaaaull,
                            0x55555555ull};
  for (unsigned b = 0; b < 32; ++b) {
    words.push_back(u64{1} << b);          // walking one
    words.push_back(~(u64{1} << b) & 0xffffffffull);  // walking zero
  }
  Rng rng(0x5ec);
  for (int i = 0; i < 2; ++i) words.push_back(rng.next_u64() & 0xffffffffull);

  for (const u64 w : words) {
    const u64 chk = c.encode(w);
    // Clean round-trip first.
    const auto clean = c.decode(w, chk);
    ASSERT_EQ(clean.status, CheckStatus::kOk);
    ASSERT_EQ(clean.data, w);
    for (unsigned pos = 0; pos < c.codeword_bits(); ++pos) {
      u64 data = w;
      u64 check = chk;
      if (pos < 32) {
        data = flip_bit(data, pos);
      } else {
        check = flip_bit(check, pos - 32);
      }
      const auto r = c.decode(data, check);
      ASSERT_EQ(r.status, CheckStatus::kCorrected)
          << "word 0x" << std::hex << w << " pos " << std::dec << pos;
      ASSERT_EQ(r.data, w);
      ASSERT_EQ(r.check, chk);
    }
  }
}

// Exhaustive double-error property over the same word battery: every one of
// the C(39,2) = 741 flip pairs must be flagged detected-uncorrectable (and
// never silently "corrected" into valid-looking data) for every word.
TEST(Secded, ExhaustiveDoubleFlipDetection32AcrossWords) {
  const LinearCode& c = secded32();
  const std::vector<u64> words = {0x00000000ull, 0xffffffffull,
                                  0xaaaaaaaaull, 0x55555555ull,
                                  0xdeadbeefull, 0x01234567ull};
  const unsigned n = c.codeword_bits();
  for (const u64 w : words) {
    const u64 chk = c.encode(w);
    for (unsigned i = 0; i < n; ++i) {
      for (unsigned j = i + 1; j < n; ++j) {
        u64 data = w;
        u64 check = chk;
        for (unsigned p : {i, j}) {
          if (p < 32) {
            data = flip_bit(data, p);
          } else {
            check = flip_bit(check, p - 32);
          }
        }
        ASSERT_EQ(c.decode(data, check).status,
                  CheckStatus::kDetectedUncorrectable)
            << "word 0x" << std::hex << w << " pair " << std::dec << i << ","
            << j;
      }
    }
  }
}

// The check bits themselves round-trip: re-encoding corrected data always
// reproduces the corrected check word, for every single-flip position of
// every width the library ships.
TEST(Secded, CorrectedCheckBitsConsistentAllWidths) {
  for (const LinearCode* c :
       {&secded8(), &secded16(), &secded32(), &secded64()}) {
    Rng rng(c->data_bits());
    const u64 mask = c->data_bits() == 64 ? ~u64{0}
                                          : (u64{1} << c->data_bits()) - 1;
    const u64 w = rng.next_u64() & mask;
    const u64 chk = c->encode(w);
    for (unsigned pos = 0; pos < c->codeword_bits(); ++pos) {
      u64 data = w;
      u64 check = chk;
      if (pos < c->data_bits()) {
        data = flip_bit(data, pos);
      } else {
        check = flip_bit(check, pos - c->data_bits());
      }
      const auto r = c->decode(data, check);
      ASSERT_EQ(r.status, CheckStatus::kCorrected);
      ASSERT_EQ(c->encode(r.data), r.check)
          << "width " << c->data_bits() << " pos " << pos;
    }
  }
}

TEST(Secded, SyndromeZeroOnlyWhenClean) {
  const LinearCode& c = secded32();
  const u64 v = 0x13572468;
  EXPECT_EQ(c.syndrome(v, c.encode(v)), 0u);
  EXPECT_NE(c.syndrome(flip_bit(v, 9), c.encode(v)), 0u);
}

}  // namespace
}  // namespace laec::ecc
