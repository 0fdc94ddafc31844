// Soft-error (bit flip) injection for the simulated memory arrays.
//
// Three modes:
//  * scripted faults — exact (word index, bit position) pairs queued by tests
//    and examples; injected on the next matching access;
//  * random faults — Bernoulli per-word-access flip probabilities for single
//    and double upsets, driven by the deterministic library RNG (the paper's
//    fault model: "we do not consider MBUs", §V); scripted and random flips
//    compose;
//  * replay — the reliability campaign mode: a whole trial storm, pre-drawn
//    over a golden run's exposure windows (reliability/schedule.hpp), is
//    delivered verbatim by consultation ordinal.
#pragma once

#include <cassert>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace laec::ecc {

/// Flip positions sampled for one word access. A fixed-capacity inline
/// array: the hot injection path (every read of every protected word under
/// a fault storm) allocates nothing. Random storms produce at most 2 flips
/// per access; scripted campaigns fill the capacity the random draw does
/// not reserve, with any surplus left queued for the word's next access
/// (see FaultInjector::flips_for_access), and pre-drawn schedules budget
/// their deliveries the same way, so the capacity can never overflow.
class FlipSet {
 public:
  static constexpr unsigned kMax = 8;

  void push(unsigned bit) {
    assert(count_ < kMax && "FlipSet overflow");
    if (count_ >= kMax) return;  // release builds: drop rather than corrupt
    bits_[count_++] = bit;
  }

  [[nodiscard]] bool full() const { return count_ >= kMax; }

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] unsigned size() const { return count_; }
  [[nodiscard]] unsigned operator[](unsigned i) const {
    assert(i < count_);
    return bits_[i];
  }
  [[nodiscard]] const unsigned* begin() const { return bits_; }
  [[nodiscard]] const unsigned* end() const { return bits_ + count_; }

  [[nodiscard]] bool operator==(const FlipSet& o) const {
    if (count_ != o.count_) return false;
    for (unsigned i = 0; i < count_; ++i) {
      if (bits_[i] != o.bits_[i]) return false;
    }
    return true;
  }

 private:
  unsigned bits_[kMax] = {};
  unsigned count_ = 0;
};

/// A trial's complete fault storm, pre-drawn by the campaign pruner from a
/// golden run's recorded exposure windows (see reliability/schedule.hpp).
/// `deliveries` lists the flips reaching the decoder, keyed by injector
/// consultation ordinal (i.e. the i-th read of the target array); events on
/// dead windows are counted in `events` but never delivered — they are
/// architecturally masked, the whole point of the two-pass campaign.
struct TrialSchedule {
  std::vector<std::pair<u64, FlipSet>> deliveries;  ///< (consult ordinal, flips), ascending
  u64 events = 0;          ///< every upset event drawn, delivered or masked
  u64 dropped_events = 0;  ///< live-window events past the FlipSet budget
  /// Does any event reach a live window? False means the trial is provably
  /// masked and need not be simulated at all.
  [[nodiscard]] bool has_live() const { return !deliveries.empty(); }
};

struct InjectorConfig {
  /// Probability that an accessed stored word has suffered exactly one bit
  /// flip since it was written.
  double single_flip_prob = 0.0;
  /// Probability of exactly two flips (SECDED's detected-uncorrectable case).
  double double_flip_prob = 0.0;
  /// Make every double upset strike an ADJACENT bit pair — the dominant
  /// real-world MBU geometry, and the case SEC-DAEC corrects while SECDED
  /// only detects. When false, double-flip positions are independent.
  bool adjacent_doubles = false;
  /// Bits eligible for flipping: data bits plus check bits of one word.
  unsigned word_bits = 39;  // (39,32) SECDED codeword by default
  u64 seed = 0x5eed;
  /// Replay mode: when set, the injector delivers this pre-drawn schedule
  /// verbatim — no RNG, no probabilities — by counting consultations. The
  /// campaign pruner uses it so a simulated trial consumes exactly the
  /// storm that was drawn analytically. Overrides every random mode.
  std::shared_ptr<const TrialSchedule> schedule;
};

class FaultInjector {
 public:
  FaultInjector() : FaultInjector(InjectorConfig{}) {}
  explicit FaultInjector(const InjectorConfig& cfg);

  /// Queue a deterministic flip: the next access to word `word_index` flips
  /// codeword bit `bit`. Multiple entries for the same word accumulate.
  void script_flip(u64 word_index, unsigned bit);

  /// Sample the flips to apply to an access of `word_index`. Returns bit
  /// positions within the codeword ([0, word_bits)), allocation-free.
  [[nodiscard]] FlipSet flips_for_access(u64 word_index);

  /// Replay mode only: jump the consultation cursor to `consults` without
  /// delivering anything, as if the fault-free prefix had been consulted.
  /// Used by snapshot fast-forward — the restored golden state at ordinal C
  /// already IS the state after C clean consultations, and the snapshot is
  /// chosen at-or-before the schedule's next delivery so nothing can be
  /// skipped over. Event totals (pre-seeded from the schedule) are
  /// untouched.
  void fast_forward(u64 consults);

  /// Replay mode: consultations so far, fast-forwarded ones included.
  [[nodiscard]] u64 consults() const { return consults_; }
  /// Replay mode: schedule entries delivered (or fast-forwarded past).
  [[nodiscard]] std::size_t deliveries_done() const { return next_delivery_; }

  [[nodiscard]] bool enabled() const {
    return cfg_.schedule != nullptr || cfg_.single_flip_prob > 0 ||
           cfg_.double_flip_prob > 0 || !scripted_.empty();
  }

  [[nodiscard]] u64 injected_single() const { return injected_single_; }
  [[nodiscard]] u64 injected_double() const { return injected_double_; }
  [[nodiscard]] u64 injected_scripted() const { return injected_scripted_; }
  /// Replay mode: the schedule's upset events (delivered and masked alike).
  [[nodiscard]] u64 injected_pattern() const { return injected_pattern_; }
  /// Replay mode: the schedule's events that did NOT fit an access's
  /// FlipSet budget (extreme-acceleration saturation). A nonzero count
  /// means the campaign's acceleration outran the modeled per-word fault
  /// capacity — visible in the campaign CSV, not silent.
  [[nodiscard]] u64 faults_dropped() const { return dropped_events_; }
  /// Every injection event this injector delivered, across all modes.
  [[nodiscard]] u64 injected_total() const {
    return injected_single_ + injected_double_ + injected_scripted_ +
           injected_pattern_;
  }

 private:
  InjectorConfig cfg_;
  Rng rng_;
  std::deque<std::pair<u64, unsigned>> scripted_;
  u64 injected_single_ = 0;
  u64 injected_double_ = 0;
  u64 injected_scripted_ = 0;
  u64 injected_pattern_ = 0;
  u64 dropped_events_ = 0;
  // Replay-mode cursor: consultations seen / next schedule entry to deliver.
  u64 consults_ = 0;
  std::size_t next_delivery_ = 0;
};

}  // namespace laec::ecc
