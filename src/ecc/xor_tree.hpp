// Gate-level cost model for the encoder and checker logic of a linear code.
//
// The paper argues (citing Strukov'06 and Duwe'15) that a SECDED check fits
// comfortably within one DL1 pipeline stage; Table I's processors likewise
// trade ECC latency against frequency. This model makes the argument
// quantitative for *our* codes: each check/syndrome bit is a balanced
// fanin-2 XOR tree over its row of H, so
//
//   depth(row)  = ceil(log2(row_weight))      XOR levels
//   gates(row)  = row_weight - 1              XOR2 gates
//
// plus, for the corrector, an r-input syndrome match (AND/NOR tree) per
// correctable column and one final XOR per data bit.
#pragma once

#include "ecc/linear_code.hpp"

namespace laec::ecc {

/// Aggregate logic estimate in unit gates / levels-of-logic.
struct GateEstimate {
  unsigned depth_levels = 0;  ///< critical path in 2-input gate levels
  unsigned xor2_gates = 0;
  unsigned and2_gates = 0;
  unsigned total_gates() const { return xor2_gates + and2_gates; }
};

/// Cost of computing the check bits for a write (encoder).
[[nodiscard]] GateEstimate estimate_encoder(const LinearCode& code);

/// Cost of computing the syndrome and correcting (checker + corrector); this
/// is the logic that sits in the load path and motivates the whole paper.
/// A detect-only code stops at the syndrome trees; a correcting one adds a
/// syndrome match and a correction XOR per data bit, and a code that also
/// corrects multi-bit patterns (SEC-DAEC's adjacent pairs) one more match
/// per such pattern, OR-folded into each data bit's correction select
/// (Dutta-Touba-style decoder).
[[nodiscard]] GateEstimate estimate_checker(const LinearCode& code);

/// Convert a gate-level estimate to picoseconds given a per-level delay
/// (FO4-style). Default 35 ps/level is representative of a 65 nm process,
/// the node the paper's CACTI numbers use.
[[nodiscard]] double estimate_delay_ps(const GateEstimate& g,
                                       double ps_per_level = 35.0);

}  // namespace laec::ecc
