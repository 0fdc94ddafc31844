// Codec error-pattern atlas: an exhaustive oracle for every registered codec
// with check bits, written only against the ecc::Codec interface.
//
// For each canonical codec it
//  * pins an FNV-1a digest of the data columns of its parity-check matrix
//    (encode(1 << i) is column i of a systematic code);
//  * runs every error pattern of weight 1..4 over the codeword through the
//    reference decode() and the syndrome-table decode_lut(), which must agree
//    on (status, data, check) for every pattern;
//  * pins, per weight, how many patterns are corrected (original word and
//    check bits delivered), miscorrected (a correction that delivers
//    anything else), detected (detected-uncorrectable) and undetected
//    (reported clean), and how many carry the kCorrectedAdjacent status;
//  * derives the six capability flags from the enumeration and checks them
//    against the codec's accessors and a pinned table.
//
// The largest case is C(72,4) = 1,028,790 patterns (the 72-64 codes).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/hash.hpp"
#include "ecc/registry.hpp"

namespace laec::ecc {
namespace {

/// Outcome counts of every error pattern of one weight.
struct Tally {
  u64 corrected = 0;
  u64 miscorrected = 0;
  u64 detected = 0;
  u64 undetected = 0;
  u64 adjacent_status = 0;  ///< patterns reported kCorrectedAdjacent
  bool operator==(const Tally&) const = default;
};

/// The six capability flags, in the order of `laec_cli schemes`' columns.
struct Flags {
  bool corrects_single = false;
  bool corrects_adjacent_double = false;
  bool corrects_adjacent_triple = false;
  bool corrects_double = false;
  bool detects_adjacent_double = false;
  bool detects_double = false;
  bool operator==(const Flags&) const = default;
};

struct Atlas {
  u64 h_digest = 0;
  std::array<Tally, 4> weight{};  ///< weight[w - 1]: patterns of weight w
  Flags flags;
};

struct Pinned {
  const char* name;
  Atlas atlas;
};

// Per codec: the H digest; per weight 1..4 {corrected, miscorrected,
// detected, undetected, reported adjacent}; the flags {corrects single,
// adjacent double, adjacent triple, any double; detects adjacent double,
// any double}. A failing case prints its measured entry in this format.
// clang-format off
const Pinned kPinned[] = {
    {"dec-bch-45-32",
     {0xae2a520a67d4214aull,
      {{{45, 0, 0, 0, 0},
        {990, 0, 0, 0, 44},
        {0, 0, 14190, 0, 0},
        {0, 33225, 115770, 0, 1427}}},
      {true, true, false, true, true, true}}},
    {"parity-32",
     {0x23d3db4a449f1525ull,
      {{{0, 0, 33, 0, 0},
        {0, 0, 0, 528, 0},
        {0, 0, 5456, 0, 0},
        {0, 0, 0, 40920, 0}}},
      {false, false, false, false, false, false}}},
    {"parity-i2-32",
     {0xa2edb01a5c9ff925ull,
      {{{0, 0, 34, 0, 0},
        {0, 0, 289, 272, 0},
        {0, 0, 5984, 0, 0},
        {0, 0, 23120, 23256, 0}}},
      {false, false, false, false, true, false}}},
    {"sec-daec-39-32",
     {0x48821de0a773aaccull,
      {{{39, 0, 0, 0, 0},
        {38, 402, 301, 0, 440},
        {0, 5488, 3651, 0, 0},
        {0, 48883, 31996, 1372, 48883}}},
      {true, true, false, false, true, false}}},
    {"sec-daec-72-64",
     {0x6bbbc2aacf9e2e0dull,
      {{{72, 0, 0, 0, 0},
        {71, 1342, 1143, 0, 1413},
        {0, 34112, 25528, 0, 0},
        {0, 571369, 448893, 8528, 571369}}},
      {true, true, false, false, true, false}}},
    {"sec-daec-taec-45-32",
     {0xc726cf83350778e8ull,
      {{{45, 0, 0, 0, 0},
        {44, 62, 884, 0, 106},
        {43, 1201, 12946, 0, 392},
        {0, 4085, 144697, 213, 4085}}},
      {true, true, true, false, true, false}}},
    {"secded-39-32",
     {0x00f93ac7929da67dull,
      {{{39, 0, 0, 0, 0},
        {0, 0, 741, 0, 0},
        {0, 5500, 3639, 0, 0},
        {0, 0, 80876, 1375, 0}}},
      {true, false, false, false, true, true}}},
    {"secded-72-64",
     {0x1ddffdde07e1bbfaull,
      {{{72, 0, 0, 0, 0},
        {0, 0, 2556, 0, 0},
        {0, 33856, 25784, 0, 0},
        {0, 0, 1020326, 8464, 0}}},
      {true, false, false, false, true, true}}},
};
// clang-format on

/// Calls fn(data_mask, check_mask, contiguous) for every pattern of `w`
/// flipped bits over an n-bit codeword whose first k bits are data.
template <typename Fn>
void for_each_pattern(unsigned n, unsigned k, unsigned w, Fn&& fn) {
  std::vector<unsigned> pos(w);
  for (unsigned i = 0; i < w; ++i) pos[i] = i;
  while (true) {
    u64 data = 0, check = 0;
    for (const unsigned p : pos) {
      if (p < k) {
        data |= u64{1} << p;
      } else {
        check |= u64{1} << (p - k);
      }
    }
    fn(data, check, pos[w - 1] - pos[0] == w - 1);
    int i = static_cast<int>(w) - 1;
    while (i >= 0 &&
           pos[static_cast<unsigned>(i)] == n - w + static_cast<unsigned>(i)) {
      --i;
    }
    if (i < 0) return;
    ++pos[static_cast<unsigned>(i)];
    for (unsigned j = static_cast<unsigned>(i) + 1; j < w; ++j) {
      pos[j] = pos[j - 1] + 1;
    }
  }
}

Atlas build_atlas(const Codec& c) {
  Atlas a;
  const unsigned k = c.data_bits();
  const unsigned n = c.codeword_bits();
  const u64 dmask = low_mask(k);

  std::string columns;
  for (unsigned i = 0; i < k; ++i) {
    const u64 col = c.encode(u64{1} << i);
    for (unsigned b = 0; b < 8; ++b) {
      columns.push_back(static_cast<char>((col >> (8 * b)) & 0xffu));
    }
  }
  a.h_digest = fnv1a(columns, kFnvOffset);

  const auto* lut = c.decode_lut();
  EXPECT_NE(lut, nullptr) << c.name();
  if (lut == nullptr) return a;

  // Adjacent (contiguous) patterns of weight 2 and 3, tallied apart for the
  // adjacent-burst flags.
  std::array<Tally, 4> burst{};
  u64 index = 0;
  for (unsigned w = 1; w <= 4; ++w) {
    for_each_pattern(n, k, w, [&](u64 ed, u64 ec, bool contiguous) {
      // A different codeword under every pattern: the decode of a linear
      // code must not depend on it.
      const u64 d0 = splitmix64(index++) & dmask;
      const u64 c0 = c.encode(d0);
      const u64 data = d0 ^ ed;
      const u64 check = c0 ^ ec;
      const auto ref = c.decode(data, check);
      const auto tab = lut->decode(data, check);
      if (ref.status != tab.status || ref.data != tab.data ||
          ref.check != tab.check) {
        ADD_FAILURE() << c.name() << ": decode and decode_lut disagree on "
                      << "data 0x" << std::hex << data << " check 0x" << check;
      }
      for (Tally* t : {&a.weight[w - 1], contiguous ? &burst[w - 1] : nullptr}) {
        if (t == nullptr) continue;
        if (ref.status == CheckStatus::kOk) {
          ++t->undetected;
        } else if (ref.status == CheckStatus::kDetectedUncorrectable) {
          ++t->detected;
        } else if (ref.data == d0 && ref.check == c0) {
          ++t->corrected;
        } else {
          ++t->miscorrected;
        }
        t->adjacent_status += ref.status == CheckStatus::kCorrectedAdjacent;
      }
    });
  }

  const auto all = [](const Tally& t) {
    return t.corrected + t.miscorrected + t.detected + t.undetected;
  };
  const auto corrects = [&](const Tally& t) { return t.corrected == all(t); };
  const auto detects = [&](const Tally& t) {
    return t.corrected + t.detected == all(t);
  };
  a.flags.corrects_single = corrects(a.weight[0]);
  a.flags.corrects_adjacent_double = corrects(burst[1]);
  a.flags.corrects_adjacent_triple = corrects(burst[2]);
  a.flags.corrects_double = corrects(a.weight[1]);
  a.flags.detects_adjacent_double = detects(burst[1]);
  a.flags.detects_double = detects(a.weight[1]);
  return a;
}

std::string format(const std::string& name, const Atlas& a) {
  std::string out = "    {\"" + name + "\",\n     {0x";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016llxull,\n      {{",
                static_cast<unsigned long long>(a.h_digest));
  out += buf;
  for (unsigned w = 0; w < 4; ++w) {
    const Tally& t = a.weight[w];
    std::snprintf(buf, sizeof buf, "%s{%llu, %llu, %llu, %llu, %llu}",
                  w == 0 ? "" : ",\n        ",
                  static_cast<unsigned long long>(t.corrected),
                  static_cast<unsigned long long>(t.miscorrected),
                  static_cast<unsigned long long>(t.detected),
                  static_cast<unsigned long long>(t.undetected),
                  static_cast<unsigned long long>(t.adjacent_status));
    out += buf;
  }
  const Flags& f = a.flags;
  const auto b = [](bool v) { return v ? "true" : "false"; };
  out += std::string("}},\n      {") + b(f.corrects_single) + ", " +
         b(f.corrects_adjacent_double) + ", " + b(f.corrects_adjacent_triple) +
         ", " + b(f.corrects_double) + ", " + b(f.detects_adjacent_double) +
         ", " + b(f.detects_double) + "}}},";
  return out;
}

Flags accessor_flags(const Codec& c) {
  return {c.corrects_single(),         c.corrects_adjacent_double(),
          c.corrects_adjacent_triple(), c.corrects_double(),
          c.detects_adjacent_double(),  c.detects_double()};
}

/// Canonical names of the registered codecs with check bits, sorted (the
/// legacy aliases build codecs under their canonical names).
std::vector<std::string> protected_codec_names() {
  std::set<std::string> names;
  for (const auto& key : registered_codecs()) {
    const auto c = make_codec(key);
    if (c->check_bits() > 0) names.insert(std::string(c->name()));
  }
  return {names.begin(), names.end()};
}

TEST(CodecAtlas, EveryProtectedCodecIsPinned) {
  std::set<std::string> pinned;
  for (const Pinned& p : kPinned) pinned.insert(p.name);
  EXPECT_EQ(protected_codec_names(),
            std::vector<std::string>(pinned.begin(), pinned.end()));
}

class CodecAtlasOf : public ::testing::TestWithParam<std::string> {};

TEST_P(CodecAtlasOf, MatchesThePinnedAtlas) {
  const auto codec = make_codec(GetParam());
  ASSERT_EQ(codec->name(), GetParam());
  const Atlas got = build_atlas(*codec);
  EXPECT_EQ(got.flags, accessor_flags(*codec))
      << "the capability accessors disagree with the enumeration";
  const Pinned* want = nullptr;
  for (const Pinned& p : kPinned) {
    if (GetParam() == p.name) want = &p;
  }
  ASSERT_NE(want, nullptr) << "no pinned atlas; measured:\n"
                           << format(GetParam(), got);
  EXPECT_EQ(got.h_digest, want->atlas.h_digest);
  for (unsigned w = 0; w < 4; ++w) {
    EXPECT_EQ(got.weight[w], want->atlas.weight[w]) << "weight " << w + 1;
  }
  EXPECT_EQ(got.flags, want->atlas.flags);
  if (HasFailure()) ADD_FAILURE() << "measured:\n" << format(GetParam(), got);
}

INSTANTIATE_TEST_SUITE_P(
    Registered, CodecAtlasOf,
    ::testing::ValuesIn(protected_codec_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string id = info.param;
      for (char& ch : id) {
        if (ch == '-') ch = '_';
      }
      return id;
    });

}  // namespace
}  // namespace laec::ecc
