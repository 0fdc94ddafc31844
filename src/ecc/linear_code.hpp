// One linear block code behind every codec that has check bits.
//
// Parity, Hsiao SECDED (the paper's DL1/L2 code), SEC-DAEC and SEC-DAEC-TAEC
// (arXiv:2002.07507, arXiv:2307.16195) and the DEC-TED BCH code are all
// binary linear codes. They differ only in the data columns of their
// parity-check matrix H and in which error patterns they correct, so one
// LinearCode holds both and every family keeps just its column construction
// (below).
//
// Codeword bit order is [0, k) data, [k, k + r) check, matching the cache
// arrays' injection layout. H is systematic: check bit j owns the unit
// column e_j, data bit i owns column c_i, and encode(d) XORs the columns of
// d's set bits (one row-mask parity per check bit).
//
// Decoding is syndrome decoding, s = encode(data) ^ check:
//   * s == 0: the word is delivered as stored (kOk);
//   * s names a correctable pattern: that pattern is flipped. A contiguous
//     burst of two or more bits reports kCorrectedAdjacent (the adjacent-MBU
//     family the cache counters aggregate), any other correction kCorrected;
//   * otherwise: kDetectedUncorrectable, data and check bits as stored.
// The syndrome -> pattern table is built at construction from the code's
// correctable patterns, which must have pairwise distinct nonzero
// syndromes. A pattern outside that set whose syndrome lands on one is
// miscorrected; one with syndrome 0 goes undetected (tests/
// test_codec_atlas.cpp counts both for every registered code).
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "ecc/code.hpp"
#include "ecc/codec.hpp"
#include "ecc/lut.hpp"

namespace laec::ecc {

/// The error patterns a code corrects. Every class but kNothing includes
/// the single-bit patterns.
enum class Corrects {
  kNothing,  ///< detect-only (parity)
  kSingles,  ///< single bits (Hsiao SECDED)
  kBursts2,  ///< and adjacent pairs (SEC-DAEC)
  kBursts3,  ///< and adjacent pairs and triples (SEC-DAEC-TAEC)
  kPairs,    ///< and any pair, adjacent or not (DEC BCH)
};

class LinearCode {
 public:
  /// `columns[i]` is data bit i's `check_bits`-bit column of H. Throws
  /// std::invalid_argument when the geometry is out of range (1..64 data
  /// bits, 1..16 check bits) or two correctable patterns share a syndrome.
  LinearCode(unsigned check_bits, std::vector<u64> columns,
             Corrects corrects);

  [[nodiscard]] unsigned data_bits() const {
    return static_cast<unsigned>(columns_.size());
  }
  [[nodiscard]] unsigned check_bits() const { return r_; }
  [[nodiscard]] unsigned codeword_bits() const { return data_bits() + r_; }
  /// Nonzero error patterns the syndrome table corrects.
  [[nodiscard]] unsigned corrected_patterns() const { return corrected_; }

  /// Column of data bit `i` in H.
  [[nodiscard]] u64 column(unsigned i) const { return columns_[i]; }
  /// Number of data bits feeding check bit `row` (row weight of H).
  [[nodiscard]] unsigned row_weight(unsigned row) const;

  /// Check bits for a data word (low check_bits() bits of the result).
  [[nodiscard]] u64 encode(u64 data) const;
  /// Raw syndrome of a stored (data, check) pair.
  [[nodiscard]] u64 syndrome(u64 data, u64 check) const;
  /// Decode a stored pair through the syndrome table (see the file comment).
  [[nodiscard]] Decoded decode(u64 data, u64 check) const;

 private:
  /// What one syndrome does to a stored pair: the bits it flips and the
  /// status it reports.
  struct Fix {
    u64 data = 0;
    u16 check = 0;
    CheckStatus status = CheckStatus::kDetectedUncorrectable;
  };

  unsigned r_ = 0;
  unsigned corrected_ = 0;
  std::vector<u64> columns_;    ///< per data bit: its r-bit column
  std::vector<u64> row_masks_;  ///< per check bit: mask over data bits
  std::vector<Fix> fixes_;      ///< per syndrome; size 2^r
};

// --- column constructions, one per family ----------------------------------

/// Parity: check bit w is the even parity of the data bits i with
/// i % ways == w. One way is plain parity (an all-ones row); two ways is
/// interleaved parity, whose two classes split every adjacent pair.
[[nodiscard]] std::vector<u64> parity_columns(unsigned data_bits,
                                              unsigned ways);

/// Hsiao SECDED (Hsiao 1970): distinct odd-weight columns, lightest weight
/// class first, each pick the column that keeps the heaviest row lightest
/// (then the lowest value), so every syndrome XOR tree has about the same
/// depth. Odd weights make every double error an even, hence unmatched,
/// syndrome.
[[nodiscard]] std::vector<u64> hsiao_columns(unsigned data_bits,
                                             unsigned check_bits);

/// SEC-DAEC (burst 2) and SEC-DAEC-TAEC (burst 3): a backtracking search for
/// distinct columns of the given weights such that every burst of 1..`burst`
/// adjacent codeword bits (data, the data/check seam and the check bits) has
/// its own nonzero syndrome. Candidates are tried with the same preference
/// as hsiao_columns, so the result is reproducible and the trees stay
/// shallow. Throws std::invalid_argument when no assignment exists.
[[nodiscard]] std::vector<u64> burst_columns(
    unsigned data_bits, unsigned check_bits, unsigned burst,
    std::initializer_list<unsigned> weights);

/// DEC-TED BCH with 13 check bits: a two-error-correcting binary BCH code
/// over GF(2^6) (primitive polynomial x^6 + x + 1) shortened to
/// data_bits + 13 <= 63 bits, plus an overall parity row, so raw column p is
/// [1; alpha^p; alpha^(3p)] and the minimum distance is 6. The matrix is
/// row-reduced until the check positions carry the identity; row
/// operations keep the code, so every pair stays correctable and every
/// triple detectable.
[[nodiscard]] std::vector<u64> dec_bch_columns(unsigned data_bits);

/// The Codec of a LinearCode. It tabulates the code into a byte-sliced
/// EncodeLut and a dense syndrome DecodeLut and serves encode(), the
/// devirtualized thunk, the span encoder/decoder and decode_lut() from
/// those tables, so they can never disagree with one another. decode()
/// stays the code's row-mask syndrome and pattern-table decode: the input
/// the tables are built from and the --no-lut reference path. The six
/// capability flags are measured on that decode at construction: a
/// corrects_* flag holds when every pattern of its class decodes to the
/// original word, a detects_* flag when every one decodes to it or is
/// flagged detected-uncorrectable.
class LinearCodec final : public Codec {
 public:
  LinearCodec(std::string name, LinearCode code);

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] unsigned data_bits() const override {
    return code_.data_bits();
  }
  [[nodiscard]] unsigned check_bits() const override {
    return code_.check_bits();
  }
  [[nodiscard]] u64 encode(u64 data) const override {
    return enc_.encode(data);
  }
  [[nodiscard]] Decoded decode(u64 data, u64 check) const override {
    return code_.decode(data, check);
  }
  void encode_line(const u32* data, u16* check,
                   std::size_t n) const override {
    enc_.encode_line(data, check, n);
  }
  void decode_line(const u32* data, const u16* check, u32* out,
                   std::size_t n) const override {
    dec_.decode_line(data, check, out, n);
  }
  [[nodiscard]] EncodeFn encode_thunk() const override {
    return +[](const Codec* c, u64 data) {
      return static_cast<const LinearCodec*>(c)->enc_.encode(data);
    };
  }
  [[nodiscard]] const DecodeLut* decode_lut() const override { return &dec_; }

  [[nodiscard]] bool corrects_single() const override {
    return flags_.corrects_single;
  }
  [[nodiscard]] bool detects_double() const override {
    return flags_.detects_double;
  }
  [[nodiscard]] bool corrects_adjacent_double() const override {
    return flags_.corrects_adjacent_double;
  }
  [[nodiscard]] bool detects_adjacent_double() const override {
    return flags_.detects_adjacent_double;
  }
  [[nodiscard]] bool corrects_adjacent_triple() const override {
    return flags_.corrects_adjacent_triple;
  }
  [[nodiscard]] bool corrects_double() const override {
    return flags_.corrects_double;
  }

  [[nodiscard]] const LinearCode& code() const { return code_; }

 private:
  struct Flags {
    bool corrects_single = false;
    bool detects_double = false;
    bool corrects_adjacent_double = false;
    bool detects_adjacent_double = false;
    bool corrects_adjacent_triple = false;
    bool corrects_double = false;
  };

  std::string name_;
  LinearCode code_;
  EncodeLut enc_;
  DecodeLut dec_;
  Flags flags_;
};

}  // namespace laec::ecc
