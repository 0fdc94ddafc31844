// LUT-vs-matrix equivalence of the table-driven codec layer.
//
// Every built-in codec tabulates its linear encode into a byte-sliced
// EncodeLut and its matrix decode into a dense syndrome DecodeLut
// (src/ecc/lut.hpp). The contract is bit-identity: for every codec, every
// syndrome and any data word, the table path must reproduce the matrix
// path's (status, data, check) triple exactly — the caches switch between
// the two with CacheConfig::use_lut_decode and the sweep determinism
// contract compares their CSV output byte-for-byte. The syndrome spaces
// are small enough (<= 2^13) to verify EXHAUSTIVELY here.
//
// Also pins down Codec::decode_line's fallback semantics: a detected-but-
// uncorrectable word passes through AS STORED on the writeback path, for
// the default per-word loop and for the LUT override alike.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "ecc/codec.hpp"
#include "ecc/registry.hpp"

namespace laec::ecc {
namespace {

/// Every registered codec with check bits, deduplicated by canonical name
/// (the legacy aliases construct the same instances).
std::vector<std::shared_ptr<const Codec>> protected_codecs() {
  std::vector<std::shared_ptr<const Codec>> out;
  std::set<std::string> seen;
  for (const auto& key : registered_codecs()) {
    auto c = make_codec(key);
    if (c->check_bits() == 0) continue;
    if (!seen.insert(std::string(c->name())).second) continue;
    out.push_back(std::move(c));
  }
  return out;
}

TEST(LutDecode, EveryBuiltinCodecHasADenseSyndromeTable) {
  for (const auto& c : protected_codecs()) {
    const DecodeLut* lut = c->decode_lut();
    ASSERT_NE(lut, nullptr) << c->name();
    EXPECT_EQ(lut->size(), std::size_t{1} << c->check_bits()) << c->name();
  }
}

TEST(LutDecode, ExhaustiveSyndromesMatchMatrixDecode) {
  Rng rng(0xdec0deu);
  for (const auto& c : protected_codecs()) {
    SCOPED_TRACE(std::string(c->name()));
    const DecodeLut& lut = *c->decode_lut();
    const u64 dmask = low_mask(c->data_bits());
    const u64 cmask = low_mask(c->check_bits());
    std::vector<u64> words = {0, dmask, 0xa5a5a5a5a5a5a5a5ull & dmask,
                              0x0123456789abcdefull & dmask};
    for (int i = 0; i < 4; ++i) words.push_back(rng.next_u64() & dmask);
    const u64 nsyn = u64{1} << c->check_bits();
    for (u64 s = 0; s < nsyn; ++s) {
      for (const u64 d : words) {
        // Construct a stored pair whose syndrome is exactly s.
        const u64 check = (c->encode(d) ^ s) & cmask;
        const Decoded m = c->decode(d, check);
        const Decoded l = lut.decode(d, check);
        ASSERT_EQ(m.status, l.status) << "s=" << s << " d=" << d;
        ASSERT_EQ(m.data, l.data) << "s=" << s << " d=" << d;
        ASSERT_EQ(m.check, l.check) << "s=" << s << " d=" << d;
      }
    }
  }
}

TEST(LutEncode, ByteSlicedTablesMatchMatrixEncode) {
  // The table encoder against the underlying codes' row-mask encode, over the
  // full single-bit basis (the table's correctness by linearity reduces to
  // the basis) plus random words (which exercise the lane recombination).
  const auto check_against =
      [](const std::shared_ptr<const Codec>& codec, auto&& matrix) {
        SCOPED_TRACE(std::string(codec->name()));
        Rng rng(0x5eedu);
        const u64 dmask = low_mask(codec->data_bits());
        EXPECT_EQ(codec->encode(0), 0u);
        for (unsigned i = 0; i < codec->data_bits(); ++i) {
          const u64 w = u64{1} << i;
          ASSERT_EQ(codec->encode(w), matrix(w)) << "bit " << i;
        }
        for (int i = 0; i < 256; ++i) {
          const u64 w = rng.next_u64() & dmask;
          ASSERT_EQ(codec->encode(w), matrix(w)) << "w=" << w;
          // Bits above data_bits are ignored, exactly like the matrix path.
          ASSERT_EQ(codec->encode(w | ~dmask), matrix(w)) << "w=" << w;
        }
      };
  for (const auto& c : protected_codecs()) {
    const LinearCode& code = linear_code(c->name());
    check_against(c, [&code](u64 w) { return code.encode(w); });
  }
}

TEST(LutEncode, EncodeThunkAndLineAgreeWithEncode) {
  Rng rng(0x11e5u);
  for (const auto& c : protected_codecs()) {
    SCOPED_TRACE(std::string(c->name()));
    const auto fn = c->encode_thunk();
    u32 data[16];
    u16 check[16];
    for (u32& w : data) w = static_cast<u32>(rng.next_u64());
    c->encode_line(data, check, 16);
    for (int i = 0; i < 16; ++i) {
      const u64 expect = c->encode(data[i]);
      EXPECT_EQ(fn(c.get(), data[i]), expect);
      EXPECT_EQ(check[i], static_cast<u16>(expect));
    }
  }
}

/// Thin forwarding wrapper that inherits the BASE-CLASS decode_line and
/// encode_line defaults while delegating the per-word pair to a real codec
/// — the reference semantics the LUT overrides must reproduce.
class GenericView final : public Codec {
 public:
  explicit GenericView(std::shared_ptr<const Codec> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] unsigned data_bits() const override {
    return inner_->data_bits();
  }
  [[nodiscard]] unsigned check_bits() const override {
    return inner_->check_bits();
  }
  [[nodiscard]] u64 encode(u64 data) const override {
    return inner_->encode(data);
  }
  [[nodiscard]] Decoded decode(u64 data, u64 check) const override {
    return inner_->decode(data, check);
  }

 private:
  std::shared_ptr<const Codec> inner_;
};

TEST(DecodeLine, UncorrectableWordsPassThroughUnmodified) {
  // For every codec: build a line holding a clean word, a correctable word
  // (when the scheme corrects at all) and a word with a syndrome the scheme
  // REPORTS BUT CANNOT REPAIR, then assert — against the per-word decode —
  // that both the default fallback loop and the LUT override deliver the
  // corrected view for the former and the STORED word for the latter.
  Rng rng(0xfa11bacc);
  for (const auto& c : protected_codecs()) {
    SCOPED_TRACE(std::string(c->name()));
    const u64 cmask = low_mask(c->check_bits());

    // Scan the syndrome space for a detected-uncorrectable exemplar and,
    // where available, a correcting one (parity-class codes have none).
    u64 due_syndrome = 0, fix_syndrome = 0;
    bool have_due = false, have_fix = false;
    for (u64 s = 1; s < (u64{1} << c->check_bits()); ++s) {
      const auto r = c->decode(0, s);
      if (!have_due && r.status == CheckStatus::kDetectedUncorrectable) {
        due_syndrome = s;
        have_due = true;
      }
      if (!have_fix && is_corrected(r.status)) {
        fix_syndrome = s;
        have_fix = true;
      }
      if (have_due && have_fix) break;
    }
    ASSERT_TRUE(have_due) << "no DUE syndrome in the whole space?";

    constexpr std::size_t kWords = 12;
    u32 data[kWords];
    u16 check[kWords];
    for (std::size_t i = 0; i < kWords; ++i) {
      data[i] = static_cast<u32>(rng.next_u64());
      u64 s = 0;  // clean by default
      if (i % 3 == 1) s = due_syndrome;
      if (i % 3 == 2 && have_fix) s = fix_syndrome;
      check[i] = static_cast<u16>((c->encode(data[i]) ^ s) & cmask);
    }

    u32 via_lut[kWords];
    u32 via_default[kWords];
    c->decode_line(data, check, via_lut, kWords);
    GenericView(c).decode_line(data, check, via_default, kWords);

    std::size_t due_seen = 0;
    for (std::size_t i = 0; i < kWords; ++i) {
      const auto r = c->decode(data[i], check[i]);
      const u32 expect =
          is_corrected(r.status) ? static_cast<u32>(r.data) : data[i];
      EXPECT_EQ(via_default[i], expect) << "word " << i;
      EXPECT_EQ(via_lut[i], expect) << "word " << i;
      if (r.status == CheckStatus::kDetectedUncorrectable) {
        // The pass-through contract, stated directly.
        EXPECT_EQ(via_lut[i], data[i]) << "word " << i;
        EXPECT_EQ(via_default[i], data[i]) << "word " << i;
        ++due_seen;
      }
    }
    EXPECT_GT(due_seen, 0u) << "line never exercised the pass-through case";
  }
}

}  // namespace
}  // namespace laec::ecc
