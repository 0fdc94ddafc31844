#include "reliability/schedule.hpp"

#include <cmath>

#include "reliability/campaign.hpp"

namespace laec::reliability {

double window_lambda_scale(const CampaignSpec& spec, double fit_per_mbit,
                           unsigned codeword_bits) {
  // FIT/Mbit -> upsets per bit-hour -> accelerated upsets per word-CYCLE.
  const double per_bit_hour = fit_per_mbit * 1e-9 / (1024.0 * 1024.0);
  const double per_word_hour =
      per_bit_hour * static_cast<double>(codeword_bits) * spec.accel;
  return per_word_hour / (spec.freq_mhz * 1e6) / 3600.0;
}

unsigned draw_event_count(Rng& rng, double lambda) {
  // Largest event count one access window can meaningfully attempt: the
  // FlipSet holds kMax flips and the smallest event is a single, so
  // anything past kMax is guaranteed surplus (it still counts as dropped).
  constexpr unsigned kMaxEventsPerAccess = ecc::FlipSet::kMax;
  const double lam = lambda;
  // P(K >= 1) and P(K = 1); at extreme acceleration exp(-lam) underflows to
  // 0 and the distribution's mass sits far above the cap — saturate.
  const double denom = -std::expm1(-lam);
  const double p1 = std::exp(-lam) * lam;
  if (!(denom > 0.0) || !(p1 > 0.0)) return kMaxEventsPerAccess;
  // Inverse transform over the zero-truncated pmf p_k / denom.
  double u = rng.uniform() * denom;
  double pk = p1;
  unsigned k = 1;
  while (u > pk && k < kMaxEventsPerAccess) {
    u -= pk;
    ++k;
    pk *= lam / static_cast<double>(k);
  }
  return k;
}

bool draw_pattern_event(Rng& rng, const MbuPatternTable& t,
                        unsigned word_bits, ecc::FlipSet& flips) {
  const double total = t.total();
  if (total <= 0) return false;
  const unsigned n = word_bits;
  double u = rng.uniform() * total;
  if ((u -= t.single) < 0 || n < 3) {
    flips.push(static_cast<unsigned>(rng.below(n)));
    return true;
  }
  if ((u -= t.adjacent_double) < 0) {
    const unsigned a = static_cast<unsigned>(rng.below(n - 1));
    flips.push(a);
    flips.push(a + 1);
    return true;
  }
  if ((u -= t.adjacent_triple) < 0) {
    const unsigned a = static_cast<unsigned>(rng.below(n - 2));
    flips.push(a);
    flips.push(a + 1);
    flips.push(a + 2);
    return true;
  }
  // Clustered: 2-4 distinct flips inside an 8-bit physical window (narrower
  // when the codeword itself is).
  const unsigned window = n < 8 ? n : 8;
  const unsigned start = static_cast<unsigned>(rng.below(n - window + 1));
  unsigned want = 2 + static_cast<unsigned>(rng.below(3));
  if (want > window) want = window;
  unsigned chosen[4];
  unsigned count = 0;
  while (count < want) {
    const unsigned off = static_cast<unsigned>(rng.below(window));
    bool dup = false;
    for (unsigned i = 0; i < count; ++i) dup = dup || chosen[i] == off;
    if (dup) continue;
    chosen[count++] = off;
    flips.push(start + off);
  }
  return true;
}

ecc::TrialSchedule draw_trial_schedule(
    const std::vector<mem::AccessWindow>& windows, double lambda_scale,
    const MbuPatternTable& patterns, unsigned word_bits, u64 seed) {
  // Margin of the lazy hit test: p = -expm1(-lam) < lam for every lam > 0,
  // and expm1 is accurate to well under 2^-40 relative, so a uniform at or
  // above lam * kLazyMargin misses the exact comparison too.
  constexpr double kLazyMargin = 1.0 + 0x1.0p-40;
  ecc::TrialSchedule s;
  Rng rng(seed);
  u64 consult = 0;
  for (const mem::AccessWindow& w : windows) {
    const double lam = lambda_scale * static_cast<double>(w.gap_cycles);
    // The window is hit with p = 1 - exp(-lam). For 0 < lam < 0.5, p lies
    // strictly inside (0, 1), so Rng::chance(p) would draw exactly one
    // uniform u and hit iff u < p: draw u here and call expm1 only for the
    // rare u that the cheap bound cannot reject. Every other lam keeps
    // chance's own no-draw cases: zero-gap windows (back-to-back touches in
    // one cycle) and p rounding to 1 consume no RNG, so the stream stays
    // aligned with the one chance walk over the same windows.
    bool hit;
    if (lam > 0.0 && lam < 0.5) {
      const double u = rng.uniform();
      hit = u < lam * kLazyMargin && u < -std::expm1(-lam);
    } else {
      hit = rng.chance(-std::expm1(-lam));
    }
    if (hit) {
      const unsigned events = draw_event_count(rng, lam);
      if (w.live) {
        ecc::FlipSet flips;
        for (unsigned e = 0; e < events; ++e) {
          // Per-access budget: a clustered event needs up to 4 slots;
          // overflow is counted, never silently lost.
          if (flips.size() + 4u <= ecc::FlipSet::kMax) {
            if (draw_pattern_event(rng, patterns, word_bits, flips)) {
              ++s.events;
            }
          } else {
            ++s.dropped_events;
          }
        }
        if (!flips.empty()) s.deliveries.emplace_back(consult, flips);
      } else {
        // Dead window: the upsets happened, but the word is overwritten or
        // discarded before any read — count them (they belong in the AVF
        // denominator), deliver nothing, draw no shapes.
        s.events += events;
      }
    }
    if (w.live) ++consult;
  }
  return s;
}

}  // namespace laec::reliability
