#include "ecc/linear_code.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/bitops.hpp"

namespace laec::ecc {

namespace {

/// A set of flipped codeword bits, as the masks it XORs onto a stored pair.
struct Pattern {
  u64 data = 0;
  u64 check = 0;
};

/// Codeword bit p of a code with k data bits.
Pattern bit_at(unsigned k, unsigned p) {
  return p < k ? Pattern{u64{1} << p, 0} : Pattern{0, u64{1} << (p - k)};
}

/// Calls fn(pattern, burst) for the patterns of `weight` flipped bits among
/// the n codeword bits (k data bits first): every contiguous run when
/// `runs_only` or weight == 1, otherwise every pair. `burst` is true for a
/// contiguous run of two or more bits.
template <typename Fn>
void for_each_pattern(unsigned k, unsigned n, unsigned weight,
                      bool runs_only, Fn&& fn) {
  if (runs_only || weight == 1) {
    for (unsigned p = 0; p + weight <= n; ++p) {
      Pattern e;
      for (unsigned i = p; i < p + weight; ++i) {
        e.data ^= bit_at(k, i).data;
        e.check ^= bit_at(k, i).check;
      }
      fn(e, weight > 1);
    }
    return;
  }
  for (unsigned p = 0; p < n; ++p) {
    for (unsigned q = p + 1; q < n; ++q) {
      fn(Pattern{bit_at(k, p).data ^ bit_at(k, q).data,
                 bit_at(k, p).check ^ bit_at(k, q).check},
         q == p + 1);
    }
  }
}

/// Longest correctable run of each class (kPairs adds every pair on top).
unsigned longest_run(Corrects c) {
  switch (c) {
    case Corrects::kNothing: return 0;
    case Corrects::kSingles:
    case Corrects::kPairs: return 1;
    case Corrects::kBursts2: return 2;
    case Corrects::kBursts3: return 3;
  }
  return 0;
}

/// Rows holding the most data bits so far. A column that touches none of
/// them keeps the heaviest row's weight, so the column picks prefer it.
u64 heaviest_rows(const std::vector<unsigned>& row_weight) {
  const unsigned top = *std::max_element(row_weight.begin(), row_weight.end());
  u64 rows = 0;
  for (unsigned row = 0; row < row_weight.size(); ++row) {
    if (row_weight[row] == top) rows |= u64{1} << row;
  }
  return rows;
}

void add_row_weights(std::vector<unsigned>& row_weight, u64 col, int sign) {
  for (unsigned row = 0; row < row_weight.size(); ++row) {
    row_weight[row] = static_cast<unsigned>(
        static_cast<int>(row_weight[row]) +
        sign * static_cast<int>(get_bit(col, row)));
  }
}

/// Backtracking state of burst_columns. Candidates for data bit i are tried
/// in the order (resulting heaviest row weight, column value).
struct BurstSearch {
  unsigned k, r, burst;
  std::vector<u64> candidates;      ///< allowed columns, ascending
  std::vector<u64> columns;         ///< placed so far
  std::vector<unsigned> row_weight;
  std::vector<bool> taken;          ///< syndrome already names a pattern
  std::vector<u64> claimed;         ///< taken syndromes, in claim order

  [[nodiscard]] u64 at(unsigned p) const {
    return p < k ? columns[p] : u64{1} << (p - k);
  }

  /// Claims the syndrome of every run data bit i completes: the runs of
  /// 1..burst bits ending at i and, for the last data bit, the runs that
  /// cross into the check bits. False when one is already taken.
  bool claim(unsigned i) {
    const unsigned n = k + r;
    for (unsigned len = 1; len <= burst; ++len) {
      for (unsigned end = i; end < i + len && end < n; ++end) {
        if (end + 1 < len) continue;     // would start before bit 0
        if (end > i && i + 1 < k) break;  // reaches unplaced data bits
        u64 s = 0;
        for (unsigned p = end + 1 - len; p <= end; ++p) s ^= at(p);
        if (taken[s]) return false;
        taken[s] = true;
        claimed.push_back(s);
      }
    }
    return true;
  }

  bool place(unsigned i) {
    if (i == k) return true;
    const u64 heavy = heaviest_rows(row_weight);
    for (const bool touches_heavy : {false, true}) {
      for (const u64 col : candidates) {
        if (((col & heavy) != 0) != touches_heavy) continue;
        columns.push_back(col);
        const std::size_t mark = claimed.size();
        if (claim(i)) {
          add_row_weights(row_weight, col, +1);
          if (place(i + 1)) return true;
          add_row_weights(row_weight, col, -1);
        }
        for (std::size_t j = mark; j < claimed.size(); ++j) {
          taken[claimed[j]] = false;
        }
        claimed.resize(mark);
        columns.pop_back();
      }
    }
    return false;
  }
};

/// GF(2^6) multiplication by x, primitive polynomial x^6 + x + 1.
constexpr u64 gf64_mul_x(u64 a) {
  a <<= 1;
  if (a & 0x40u) a ^= 0x43u;
  return a & 0x3fu;
}

}  // namespace

LinearCode::LinearCode(unsigned check_bits, std::vector<u64> columns,
                       Corrects corrects)
    : r_(check_bits), columns_(std::move(columns)) {
  const unsigned k = data_bits();
  if (k < 1 || k > 64 || r_ < 1 || r_ > 16) {
    throw std::invalid_argument(
        "LinearCode: needs 1..64 data bits and 1..16 check bits");
  }
  row_masks_.assign(r_, 0);
  for (unsigned i = 0; i < k; ++i) {
    if ((columns_[i] >> r_) != 0) {
      throw std::invalid_argument(
          "LinearCode: column wider than the check bits");
    }
    for (unsigned row = 0; row < r_; ++row) {
      if (get_bit(columns_[i], row)) {
        row_masks_[row] = set_bit(row_masks_[row], i, 1);
      }
    }
  }

  // Syndrome 0 is the clean word; every correctable pattern claims its own
  // syndrome; the rest stay detected-uncorrectable.
  fixes_.assign(std::size_t{1} << r_, Fix{});
  fixes_[0].status = CheckStatus::kOk;
  const auto correct = [this](const Pattern& e, bool burst) {
    Fix& f = fixes_[syndrome(e.data, e.check)];
    if (f.status != CheckStatus::kDetectedUncorrectable) {
      throw std::invalid_argument(
          "LinearCode: two correctable patterns share a syndrome");
    }
    f = {e.data, static_cast<u16>(e.check),
         burst ? CheckStatus::kCorrectedAdjacent : CheckStatus::kCorrected};
    ++corrected_;
  };
  const unsigned n = codeword_bits();
  for (unsigned len = 1; len <= longest_run(corrects); ++len) {
    for_each_pattern(k, n, len, true, correct);
  }
  if (corrects == Corrects::kPairs) for_each_pattern(k, n, 2, false, correct);
}

unsigned LinearCode::row_weight(unsigned row) const {
  return static_cast<unsigned>(popcount64(row_masks_[row]));
}

u64 LinearCode::encode(u64 data) const {
  data &= low_mask(data_bits());
  u64 check = 0;
  for (unsigned row = 0; row < r_; ++row) {
    check = set_bit(check, row, parity64(data & row_masks_[row]));
  }
  return check;
}

u64 LinearCode::syndrome(u64 data, u64 check) const {
  return encode(data) ^ (check & low_mask(r_));
}

Decoded LinearCode::decode(u64 data, u64 check) const {
  data &= low_mask(data_bits());
  check &= low_mask(r_);
  const Fix& f = fixes_[encode(data) ^ check];
  return {f.status, data ^ f.data, check ^ f.check};
}

std::vector<u64> parity_columns(unsigned data_bits, unsigned ways) {
  std::vector<u64> columns(data_bits);
  for (unsigned i = 0; i < data_bits; ++i) columns[i] = u64{1} << (i % ways);
  return columns;
}

std::vector<u64> hsiao_columns(unsigned data_bits, unsigned check_bits) {
  std::vector<u64> columns;
  std::vector<unsigned> row_weight(check_bits, 0);
  for (unsigned w = 3; w <= check_bits && columns.size() < data_bits;
       w += 2) {
    std::vector<u64> klass;  // the unused weight-w columns, ascending
    for (u64 c = 0; c < (u64{1} << check_bits); ++c) {
      if (static_cast<unsigned>(popcount64(c)) == w) klass.push_back(c);
    }
    while (columns.size() < data_bits && !klass.empty()) {
      const u64 heavy = heaviest_rows(row_weight);
      auto pick = std::find_if(klass.begin(), klass.end(),
                               [heavy](u64 c) { return (c & heavy) == 0; });
      if (pick == klass.end()) pick = klass.begin();
      columns.push_back(*pick);
      add_row_weights(row_weight, *pick, +1);
      klass.erase(pick);
    }
  }
  if (columns.size() != data_bits) {
    throw std::invalid_argument("hsiao_columns: too few odd-weight columns");
  }
  return columns;
}

std::vector<u64> burst_columns(unsigned data_bits, unsigned check_bits,
                               unsigned burst,
                               std::initializer_list<unsigned> weights) {
  if (check_bits < 1 || check_bits > 16 || burst < 1) {
    throw std::invalid_argument("burst_columns: bad geometry");
  }
  BurstSearch s{data_bits, check_bits, burst, {}, {}, {}, {}, {}};
  for (u64 c = 0; c < (u64{1} << check_bits); ++c) {
    const auto w = static_cast<unsigned>(popcount64(c));
    if (std::find(weights.begin(), weights.end(), w) != weights.end()) {
      s.candidates.push_back(c);
    }
  }
  s.row_weight.assign(check_bits, 0);
  s.taken.assign(std::size_t{1} << check_bits, false);
  s.taken[0] = true;  // the clean word
  // The runs inside the check bits are fixed by the layout.
  for (unsigned len = 1; len <= burst; ++len) {
    for (unsigned j = 0; j + len <= check_bits; ++j) {
      s.taken[low_mask(len) << j] = true;
    }
  }
  if (!s.place(0)) {
    throw std::invalid_argument("burst_columns: no column assignment exists");
  }
  return std::move(s.columns);
}

std::vector<u64> dec_bch_columns(unsigned data_bits) {
  constexpr unsigned r = 13;  // 1 parity + 6 (alpha^p) + 6 (alpha^3p)
  const unsigned n = data_bits + r;
  if (data_bits < 1 || n > 63) {
    throw std::invalid_argument("dec_bch_columns: n must be at most 63");
  }
  std::vector<u64> alpha(63);
  alpha[0] = 1;
  for (unsigned i = 1; i < 63; ++i) alpha[i] = gf64_mul_x(alpha[i - 1]);

  // H as r rows of n-bit masks.
  std::vector<u64> rows(r, 0);
  for (unsigned p = 0; p < n; ++p) {
    const u64 raw = 1u | (alpha[p] << 1) | (alpha[(3 * p) % 63] << 7);
    for (unsigned row = 0; row < r; ++row) {
      if (get_bit(raw, row)) rows[row] = set_bit(rows[row], p, 1);
    }
  }
  // Gauss-Jordan: check position data_bits + j becomes unit column e_j.
  for (unsigned j = 0; j < r; ++j) {
    const unsigned pivot_col = data_bits + j;
    unsigned pivot_row = j;
    while (pivot_row < r && !get_bit(rows[pivot_row], pivot_col)) ++pivot_row;
    if (pivot_row == r) {
      throw std::invalid_argument("dec_bch_columns: singular check block");
    }
    std::swap(rows[j], rows[pivot_row]);
    for (unsigned i = 0; i < r; ++i) {
      if (i != j && get_bit(rows[i], pivot_col)) rows[i] ^= rows[j];
    }
  }
  std::vector<u64> columns(data_bits, 0);
  for (unsigned row = 0; row < r; ++row) {
    for (unsigned i = 0; i < data_bits; ++i) {
      if (get_bit(rows[row], i)) columns[i] = set_bit(columns[i], row, 1);
    }
  }
  return columns;
}

LinearCodec::LinearCodec(std::string name, LinearCode code)
    : name_(std::move(name)), code_(std::move(code)) {
  enc_.build(code_.data_bits(), [this](u64 w) { return code_.encode(w); });
  dec_.build(enc_, code_.data_bits(), code_.check_bits(),
             [this](u64 data, u64 check) { return code_.decode(data, check); });

  // A linear decode depends on the syndrome alone, so each pattern is tried
  // on the all-zero codeword.
  const unsigned k = code_.data_bits();
  const unsigned n = code_.codeword_bits();
  const auto every = [&](unsigned weight, bool runs_only, bool or_flagged) {
    bool all = true;
    for_each_pattern(k, n, weight, runs_only, [&](const Pattern& e, bool) {
      const Decoded r = code_.decode(e.data, e.check);
      const bool exact = is_corrected(r.status) && r.data == 0 && r.check == 0;
      all = all && (exact || (or_flagged &&
                              r.status == CheckStatus::kDetectedUncorrectable));
    });
    return all;
  };
  flags_.corrects_single = every(1, true, false);
  flags_.corrects_adjacent_double = every(2, true, false);
  flags_.corrects_adjacent_triple = every(3, true, false);
  flags_.corrects_double = every(2, false, false);
  flags_.detects_adjacent_double = every(2, true, true);
  flags_.detects_double = every(2, false, true);
}

}  // namespace laec::ecc
