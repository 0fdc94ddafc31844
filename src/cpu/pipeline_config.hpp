// Configuration vocabulary for the in-order pipeline and its DL1 ECC
// deployment — the four schemes the paper compares plus the write-through
// baseline from the motivation section.
#pragma once

#include <optional>
#include <string_view>

#include "common/types.hpp"
#include "isa/program.hpp"

namespace laec::cpu {

/// How DL1 error protection is deployed (paper §II.B, §III).
enum class EccPolicy : u8 {
  /// Ideal unprotected write-back DL1 (the paper's baseline; 7 stages).
  kNoEcc,
  /// Memory stage spans two cycles on DL1 load hits (§III.C; 7 stages).
  kExtraCycle,
  /// Eighth pipeline stage checks DL1 load-hit data (§III.D; 8 stages).
  kExtraStage,
  /// Look-Ahead Error Correction: anticipate address generation, DL1 access
  /// and ECC check by one cycle when hazards allow (§III.E; 8 stages).
  kLaec,
  /// Write-through DL1 + parity, SECDED in L2 — the classic LEON arrangement
  /// (§II.A; 7 stages). Loads behave like kNoEcc; every store crosses the bus.
  kWtParity,
};

[[nodiscard]] constexpr std::string_view to_string(EccPolicy p) {
  switch (p) {
    case EccPolicy::kNoEcc: return "no-ecc";
    case EccPolicy::kExtraCycle: return "extra-cycle";
    case EccPolicy::kExtraStage: return "extra-stage";
    case EccPolicy::kLaec: return "laec";
    case EccPolicy::kWtParity: return "wt-parity";
  }
  // Every enumerator is handled above; reaching here is a caller bug.
  return "invalid-ecc-policy";
}

/// Inverse of to_string(EccPolicy); nullopt for unknown spellings.
[[nodiscard]] constexpr std::optional<EccPolicy> ecc_policy_from_string(
    std::string_view s) {
  if (s == "no-ecc") return EccPolicy::kNoEcc;
  if (s == "extra-cycle") return EccPolicy::kExtraCycle;
  if (s == "extra-stage") return EccPolicy::kExtraStage;
  if (s == "laec") return EccPolicy::kLaec;
  if (s == "wt-parity") return EccPolicy::kWtParity;
  return std::nullopt;
}

/// Does the policy add an 8th (ECC) pipeline stage?
[[nodiscard]] constexpr bool has_ecc_stage(EccPolicy p) {
  return p == EccPolicy::kExtraStage || p == EccPolicy::kLaec;
}

/// When may LAEC anticipate a load (DESIGN.md §2)?
enum class HazardRule : u8 {
  /// Operand-earliness model: anticipate iff every address source is
  /// available (register file or bypass) by the end of the cycle before RA.
  /// Subsumes and refines the paper's stated rule.
  kExact,
  /// kExact plus the paper's literal distance-1 producer check only —
  /// anticipation is additionally denied when the immediately preceding
  /// instruction writes an address source, even if (through bubbles) its
  /// value would arrive in time.
  kPaperLiteral,
};

[[nodiscard]] constexpr std::string_view to_string(HazardRule r) {
  switch (r) {
    case HazardRule::kExact: return "exact";
    case HazardRule::kPaperLiteral: return "paper";
  }
  return "invalid-hazard-rule";
}

/// Inverse of to_string(HazardRule); nullopt for unknown spellings.
[[nodiscard]] constexpr std::optional<HazardRule> hazard_rule_from_string(
    std::string_view s) {
  if (s == "exact") return HazardRule::kExact;
  if (s == "paper") return HazardRule::kPaperLiteral;
  return std::nullopt;
}

/// Whether non-memory instructions traverse the ECC stage slot in LAEC mode
/// (the paper's Figs. 7a/7b disagree on this cell; timing is unaffected).
enum class EccSlotPolicy : u8 {
  kAuto,    ///< skip the ECC slot when the Exception stage is free (Fig. 7a)
  kAlways,  ///< always traverse (Fig. 7b's first row)
};

struct PipelineParams {
  EccPolicy ecc = EccPolicy::kNoEcc;
  HazardRule hazard_rule = HazardRule::kExact;
  EccSlotPolicy ecc_slot = EccSlotPolicy::kAuto;

  /// EX-stage occupancy of multiply / divide (the LEON4 divider is iterative
  /// and non-pipelined; divide-heavy EEMBC kernels feel this).
  unsigned mul_latency = 1;
  unsigned div_latency = 12;

  /// Extension (beyond the paper, which mentions but does not evaluate
  /// prefetcher-style prediction in §III.A): when the exact look-ahead is
  /// blocked by a data hazard, let a confident stride prediction read the
  /// DL1 early anyway, verified against the real address in the same EX
  /// cycle (no flush hardware; a mispredict merely replays from M).
  bool stride_predictor = false;

  /// Allow LAEC anticipation while an older unresolved branch is in EX.
  /// The anticipated DL1 read happens in the load's own EX stage, one cycle
  /// after any distance-1 branch resolves, so this is safe; disable to model
  /// a conservative implementation that also suppresses the early *address
  /// computation* under a branch shadow.
  bool lookahead_under_branch_shadow = true;

  bool record_chronogram = false;
};

}  // namespace laec::cpu
