#include <gtest/gtest.h>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "ecc/linear_code.hpp"

namespace laec::ecc {
namespace {

/// One even-parity bit over `data_bits` bits.
LinearCode parity_code(unsigned data_bits) {
  return LinearCode(1, parity_columns(data_bits, 1), Corrects::kNothing);
}

TEST(Parity, CleanWordPasses) {
  const LinearCode c = parity_code(32);
  for (u64 v : {0ull, 1ull, 0xdeadbeefull, 0xffffffffull}) {
    const u64 p = c.encode(v);
    const auto r = c.decode(v, p);
    EXPECT_EQ(r.status, CheckStatus::kOk);
    EXPECT_EQ(r.data, v);
  }
}

class ParitySingleFlip : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParitySingleFlip, EverySingleDataFlipDetected) {
  const LinearCode c = parity_code(32);
  const u64 v = 0x1234abcd;
  const u64 p = c.encode(v);
  const auto r = c.decode(flip_bit(v, GetParam()), p);
  EXPECT_EQ(r.status, CheckStatus::kDetectedUncorrectable);
}

INSTANTIATE_TEST_SUITE_P(AllBits, ParitySingleFlip, ::testing::Range(0u, 32u));

TEST(Parity, CheckBitFlipDetected) {
  const LinearCode c = parity_code(32);
  const u64 v = 0x55aa55aa;
  const u64 p = c.encode(v);
  EXPECT_EQ(c.decode(v, p ^ 1).status, CheckStatus::kDetectedUncorrectable);
}

TEST(Parity, DoubleFlipIsSilent) {
  // The fundamental parity weakness: even numbers of flips pass. This is
  // why WB caches need SECDED (paper §II).
  const LinearCode c = parity_code(32);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const u64 v = rng.next_u64() & 0xffffffff;
    const u64 p = c.encode(v);
    const unsigned a = static_cast<unsigned>(rng.below(32));
    unsigned b = static_cast<unsigned>(rng.below(31));
    if (b >= a) ++b;
    const auto r = c.decode(flip_bit(flip_bit(v, a), b), p);
    EXPECT_EQ(r.status, CheckStatus::kOk);
  }
}

TEST(Parity, NarrowWidths) {
  for (unsigned w : {8u, 16u}) {
    const LinearCode c = parity_code(w);
    const u64 v = 0xa5;
    const u64 p = c.encode(v);
    EXPECT_EQ(c.decode(v, p).status, CheckStatus::kOk);
    EXPECT_EQ(c.decode(flip_bit(v, 2), p).status,
              CheckStatus::kDetectedUncorrectable);
  }
}

}  // namespace
}  // namespace laec::ecc
