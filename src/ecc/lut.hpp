// Table-driven fast paths for linear block codecs.
//
// Every built-in scheme is a LINEAR map over GF(2): check bits are XORs of
// data bits, and the decode correction depends only on the syndrome
// s = encode(data) ^ stored_check. That structure admits two dense tables,
// both precomputed once at codec construction:
//
//  * EncodeLut — byte-sliced encode. `tab[j][b]` holds the check bits of the
//    word with byte value `b` in byte lane `j` and zeros elsewhere; by
//    linearity the check bits of any word are the XOR of its per-lane
//    entries. This is the slice-by-N idiom tabulated CRCs use (a CRC is just
//    another linear GF(2) map): four table loads and three XORs per 32-bit
//    word, no matrix walk, no per-row parity reduction.
//
//  * DecodeLut — dense syndrome -> (status, correction-mask) table with
//    2^check_bits entries (8192 for the r=13 (45,32) codes, the widest we
//    register). Decode collapses to: table-encode the stored data, XOR with
//    the stored check to get the syndrome, load the entry, XOR the masks
//    onto the stored pair. No per-codec branching survives on this path.
//
// The tables are built GENERICALLY from the code's reference `decode`
// (LinearCode: row-mask syndrome plus pattern table): entry s is derived
// from decode(0, s), which by linearity (encode(0) == 0, so
// syndrome(0, s) == s) yields the correction masks for every (data, check)
// pair sharing that syndrome. The reference path stays alive as a separate
// implementation; tests/test_lut_decode.cpp proves the two bit-identical
// over every syndrome, tests/test_codec_atlas.cpp over every error pattern
// of weight 1..4, and SimConfig::lut_decode (--no-lut) routes whole
// simulations through the reference path so the sweep determinism contract
// covers the table layer end to end.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "common/bitops.hpp"
#include "common/types.hpp"
#include "ecc/code.hpp"

namespace laec::ecc {

/// Byte-sliced table encoder for a linear check-bit map of up to 64 data
/// bits and up to 16 check bits.
class EncodeLut {
 public:
  /// Tabulate `encode_word` (any callable u64 -> check bits). Exact for any
  /// linear map: the tables enumerate all 256 values of each byte lane, and
  /// linearity glues the lanes back together with XOR.
  template <typename Fn>
  void build(unsigned data_bits, Fn&& encode_word) {
    assert(data_bits >= 1 && data_bits <= 64);
    nbytes_ = (data_bits + 7) / 8;
    dmask_ = low_mask(data_bits);
    for (unsigned j = 0; j < nbytes_; ++j) {
      for (unsigned b = 0; b < 256; ++b) {
        tab_[j][b] =
            static_cast<u16>(encode_word(static_cast<u64>(b) << (8 * j)));
      }
    }
  }

  /// Check bits of a 32-bit data word: four loads, three XORs.
  [[nodiscard]] u16 encode32(u32 w) const {
    return static_cast<u16>(tab_[0][w & 0xffu] ^ tab_[1][(w >> 8) & 0xffu] ^
                            tab_[2][(w >> 16) & 0xffu] ^ tab_[3][w >> 24]);
  }

  /// Check bits of a full data word (lanes above nbytes_ hold zeros, so the
  /// 32-bit fast shape is safe for the narrow codecs).
  [[nodiscard]] u64 encode(u64 w) const {
    w &= dmask_;
    u16 acc = encode32(static_cast<u32>(w));
    if (nbytes_ > 4) {
      const u32 hi = static_cast<u32>(w >> 32);
      acc = static_cast<u16>(acc ^ tab_[4][hi & 0xffu] ^
                             tab_[5][(hi >> 8) & 0xffu] ^
                             tab_[6][(hi >> 16) & 0xffu] ^ tab_[7][hi >> 24]);
    }
    return acc;
  }

  /// Bit-sliced span encode: one table-driven pass over the line, no
  /// per-word virtual dispatch, no matrix walk.
  void encode_line(const u32* data, u16* check, std::size_t n) const {
    for (std::size_t i = 0; i < n; ++i) check[i] = encode32(data[i]);
  }

 private:
  u16 tab_[8][256] = {};  ///< per-byte-lane check-bit columns
  u64 dmask_ = 0;
  unsigned nbytes_ = 0;
};

/// Dense syndrome -> correction table. One entry per syndrome value; decode
/// is a table encode, one load and two XORs.
class DecodeLut {
 public:
  struct Entry {
    u64 data_xor = 0;   ///< correction mask over the data word
    u16 check_xor = 0;  ///< correction mask over the stored check bits
    CheckStatus status = CheckStatus::kOk;
  };

  /// Build from the code's reference decode (any callable
  /// (u64 data, u64 check) -> Decoded). Keeps a copy of the encoder so
  /// decode is self-contained.
  template <typename Fn>
  void build(const EncodeLut& enc, unsigned data_bits, unsigned check_bits,
             Fn&& reference_decode) {
    assert(check_bits >= 1 && check_bits <= 16);
    enc_ = enc;
    dmask_ = low_mask(data_bits);
    cmask_ = low_mask(check_bits);
    entries_.resize(std::size_t{1} << check_bits);
    for (u64 s = 0; s < entries_.size(); ++s) {
      // decode(0, s) sees syndrome s (encode(0) == 0); whatever it flips
      // relative to the stored pair is, by linearity, the correction every
      // word with this syndrome receives.
      const Decoded r = reference_decode(u64{0}, s);
      entries_[s] = {r.data, static_cast<u16>(r.check ^ s), r.status};
    }
  }

  [[nodiscard]] Decoded decode(u64 data, u64 check) const {
    const u64 c = check & cmask_;
    const Entry& e = entries_[enc_.encode(data) ^ c];
    return {e.status, (data & dmask_) ^ e.data_xor, c ^ e.check_xor};
  }

  /// Corrected view of `n` stored words, matching Codec::decode_line's
  /// default semantics exactly: corrected data when the scheme can repair,
  /// the stored word untouched otherwise (including detected-but-
  /// uncorrectable words — the writeback path must never launder those).
  void decode_line(const u32* data, const u16* check, u32* out,
                   std::size_t n) const;

  [[nodiscard]] const EncodeLut& encoder() const { return enc_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  EncodeLut enc_;
  std::vector<Entry> entries_;
  u64 dmask_ = 0;
  u64 cmask_ = 0;
};

}  // namespace laec::ecc
