// Common vocabulary for the error-code subsystem.
//
// The simulated caches store real check bits next to every protected word and
// run the real codec on every access, so injected faults propagate (or are
// corrected) exactly as they would in hardware.
#pragma once

#include <optional>
#include <string_view>

#include "common/types.hpp"

namespace laec::ecc {

/// Outcome of checking one protected word.
enum class CheckStatus {
  kOk,                     ///< syndrome clean, data delivered as stored
  kCorrected,              ///< single-bit error corrected on the fly
  kCorrectedAdjacent,      ///< adjacent double error corrected (SEC-DAEC)
  kDetectedUncorrectable,  ///< error detected but not correctable
};

[[nodiscard]] constexpr std::string_view to_string(CheckStatus s) {
  switch (s) {
    case CheckStatus::kOk: return "ok";
    case CheckStatus::kCorrected: return "corrected";
    case CheckStatus::kCorrectedAdjacent: return "corrected-adjacent";
    case CheckStatus::kDetectedUncorrectable: return "detected-uncorrectable";
  }
  return "invalid-check-status";
}

/// Inverse of to_string(CheckStatus); nullopt for unknown spellings.
[[nodiscard]] constexpr std::optional<CheckStatus> check_status_from_string(
    std::string_view s) {
  if (s == "ok") return CheckStatus::kOk;
  if (s == "corrected") return CheckStatus::kCorrected;
  if (s == "corrected-adjacent") return CheckStatus::kCorrectedAdjacent;
  if (s == "detected-uncorrectable") {
    return CheckStatus::kDetectedUncorrectable;
  }
  return std::nullopt;
}

/// Did the decoder deliver usable data (clean or repaired)?
[[nodiscard]] constexpr bool is_corrected(CheckStatus s) {
  return s == CheckStatus::kCorrected || s == CheckStatus::kCorrectedAdjacent;
}

}  // namespace laec::ecc
