#include "ecc/injector.hpp"

#include <cassert>

namespace laec::ecc {

FaultInjector::FaultInjector(const InjectorConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed) {
  if (cfg_.schedule != nullptr) {
    // Replay mode: the whole storm was already drawn. Pre-seed the event
    // accounting so injected_total()/faults_dropped() report the storm's
    // totals (delivered AND architecturally masked events) exactly as the
    // analytic fold does — campaign rows must not depend on which path ran.
    injected_pattern_ = cfg_.schedule->events;
    dropped_events_ = cfg_.schedule->dropped_events;
  }
}

void FaultInjector::script_flip(u64 word_index, unsigned bit) {
  scripted_.emplace_back(word_index, bit);
}

void FaultInjector::fast_forward(u64 consults) {
  assert(cfg_.schedule != nullptr && "fast_forward is replay-mode only");
  consults_ = consults;
  // Every delivery below the target ordinal was made before a rejoin's
  // jump; a first restore has none below it. O(deliveries), which is tiny.
  const auto& d = cfg_.schedule->deliveries;
  next_delivery_ = 0;
  while (next_delivery_ < d.size() && d[next_delivery_].first < consults_) {
    ++next_delivery_;
  }
}

FlipSet FaultInjector::flips_for_access(u64 word_index) {
  FlipSet flips;
  if (cfg_.schedule != nullptr) {
    // Replay mode: deliveries are keyed by consultation ordinal, not word
    // index — the golden run already resolved WHICH word each consultation
    // touches, and the trace is identical across a cell's trials.
    const auto& d = cfg_.schedule->deliveries;
    if (next_delivery_ < d.size() && d[next_delivery_].first == consults_) {
      flips = d[next_delivery_].second;
      ++next_delivery_;
    }
    ++consults_;
    return flips;
  }
  // Scripted flips first (entries matching this word fire together). The
  // inline FlipSet keeps the Bernoulli draw's 2 slots in reserve; an
  // (absurdly long) scripted pile-up past that stays queued and fires on
  // the word's NEXT access instead of overflowing.
  constexpr unsigned kReserve = 2;
  for (auto it = scripted_.begin();
       it != scripted_.end() && flips.size() + kReserve < FlipSet::kMax;) {
    if (it->first == word_index) {
      flips.push(it->second);
      ++injected_scripted_;
      it = scripted_.erase(it);
    } else {
      ++it;
    }
  }
  if (cfg_.double_flip_prob > 0 && rng_.chance(cfg_.double_flip_prob)) {
    if (cfg_.adjacent_doubles) {
      const unsigned a = static_cast<unsigned>(rng_.below(cfg_.word_bits - 1));
      flips.push(a);
      flips.push(a + 1);
    } else {
      const unsigned a = static_cast<unsigned>(rng_.below(cfg_.word_bits));
      unsigned b = static_cast<unsigned>(rng_.below(cfg_.word_bits - 1));
      if (b >= a) ++b;  // distinct second position
      flips.push(a);
      flips.push(b);
    }
    ++injected_double_;
  } else if (cfg_.single_flip_prob > 0 && rng_.chance(cfg_.single_flip_prob)) {
    flips.push(static_cast<unsigned>(rng_.below(cfg_.word_bits)));
    ++injected_single_;
  }
  return flips;
}

}  // namespace laec::ecc
