#include "ecc/xor_tree.hpp"

#include <algorithm>
#include <cassert>

namespace laec::ecc {

namespace {

unsigned ceil_log2(unsigned n) {
  unsigned d = 0;
  unsigned v = 1;
  while (v < n) {
    v <<= 1;
    ++d;
  }
  return d;
}

}  // namespace

GateEstimate estimate_encoder(const LinearCode& code) {
  // One balanced XOR tree per check bit over its row of H.
  GateEstimate g;
  for (unsigned row = 0; row < code.check_bits(); ++row) {
    const unsigned w = code.row_weight(row);
    assert(w >= 1);
    g.xor2_gates += w - 1;
    g.depth_levels = std::max(g.depth_levels, ceil_log2(w));
  }
  return g;
}

GateEstimate estimate_checker(const LinearCode& code) {
  const unsigned k = code.data_bits();
  const unsigned r = code.check_bits();
  GateEstimate g;
  // Syndrome trees: each row XORs its data bits plus its own check bit.
  for (unsigned row = 0; row < r; ++row) {
    const unsigned w = code.row_weight(row) + 1;
    g.xor2_gates += w - 1;
    g.depth_levels = std::max(g.depth_levels, ceil_log2(w));
  }
  if (code.corrected_patterns() == 0) return g;  // detector only
  // Column match: one r-input AND (with selective inversion) per data bit.
  g.and2_gates += k * (r - 1);
  // Correction: one XOR2 per data bit, in parallel.
  g.xor2_gates += k;
  g.depth_levels += ceil_log2(r) + 1;
  // Multi-bit patterns: one more r-input match each, OR-ed (one extra gate
  // level) into the per-data-bit correction select.
  const unsigned multi = code.corrected_patterns() - code.codeword_bits();
  if (multi > 0) {
    g.and2_gates += multi * (r - 1) + k;
    g.depth_levels += 1;
  }
  return g;
}

double estimate_delay_ps(const GateEstimate& g, double ps_per_level) {
  return static_cast<double>(g.depth_levels) * ps_per_level;
}

}  // namespace laec::ecc
