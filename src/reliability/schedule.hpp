// Pass 2 of the two-pass campaign accelerator: pre-draw a trial's whole
// Poisson fault storm over the golden run's recorded exposure windows,
// without simulating anything.
//
// Soundness: a campaign cell's trials all execute the identical trace (the
// replicate index mixes only into the fault seed), so the golden run's
// per-word exposure windows — and the injector-consultation ordinal of each
// live window — are exact for every trial. Walking the windows in recorded
// order with the trial's own RNG reproduces, event for event, the storm the
// trial would draw: each window suffers >= 1 upset with probability
// 1 - exp(-lambda_w), lambda_w = rate * bits * accel * gap_cycles; live
// windows (closed by a read) draw their events' MBU shapes and deliver them
// at that read; dead windows (closed by a write / eviction / end of run)
// only count their events — they are architecturally masked, no read can
// ever observe them. A trial whose storm has NO live delivery is therefore
// provably masked end to end and needs no simulation; anything else is
// replayed through the full simulator with the pre-drawn schedule, so the
// classification (and every CSV byte) is identical with pruning on or off.
//
// Cost: the hit test of a window draws one uniform u when its hit
// probability p is strictly between 0 and 1, and none otherwise (a zero
// gap, or p rounding to 1 at lambda >= ~37.4). For 0 < lambda < 0.5, p is
// below lambda, so a u at or above lambda (plus a 2^-40 relative margin)
// is a miss without evaluating p; expm1 runs only for the rare near-hit.
// The RNG stream and every comparison are those of Rng::chance(p), so the
// schedules are the same bit for bit. The campaign draws a round's storms
// on its thread pool: a draw depends only on its arguments.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "ecc/injector.hpp"
#include "mem/residency.hpp"

namespace laec::reliability {

struct CampaignSpec;

/// Relative probabilities of the spatial shape of one upset event.
/// Weights need not sum to 1; they are normalized by total(). The default
/// table is SEU-only.
struct MbuPatternTable {
  double single = 1.0;
  double adjacent_double = 0.0;
  double adjacent_triple = 0.0;
  /// 2-4 distinct flips inside an 8-bit physical neighbourhood — the
  /// diagonal/split cluster geometry adjacent-correcting codes do NOT
  /// guarantee to handle.
  double clustered = 0.0;

  [[nodiscard]] double total() const {
    return single + adjacent_double + adjacent_triple + clustered;
  }
  [[nodiscard]] bool operator==(const MbuPatternTable&) const = default;
};

/// Accelerated Poisson mean per cycle of exposure for one codeword:
/// multiply by a window's gap_cycles to get that window's event rate.
/// FIT/Mbit -> upsets per bit-hour -> accelerated upsets per word-cycle.
[[nodiscard]] double window_lambda_scale(const CampaignSpec& spec,
                                         double fit_per_mbit,
                                         unsigned codeword_bits);

/// Number of events in a window that drew at least one: zero-truncated
/// Poisson(lambda), inverse-transform, capped at FlipSet::kMax.
[[nodiscard]] unsigned draw_event_count(Rng& rng, double lambda);

/// Draw one event's shape from `patterns` into `flips`, as bit positions
/// in [0, word_bits). Returns false — consuming no RNG — when the table is
/// all-zero.
bool draw_pattern_event(Rng& rng, const MbuPatternTable& patterns,
                        unsigned word_bits, ecc::FlipSet& flips);

/// Draw one trial's storm over `windows` (in recorded order) from a fresh
/// Rng(seed). Deterministic: depends only on the arguments.
[[nodiscard]] ecc::TrialSchedule draw_trial_schedule(
    const std::vector<mem::AccessWindow>& windows, double lambda_scale,
    const MbuPatternTable& patterns, unsigned word_bits, u64 seed);

}  // namespace laec::reliability
