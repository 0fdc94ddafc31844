// Stride-based address prediction — the alternative look-ahead mechanism
// the paper mentions and deliberately does not pursue (§III.A: "cache
// designs could incorporate a predictor similar to the ones employed in
// hardware data prefetchers"). Implemented here as an *extension* so the
// trade-off can be measured (bench/ablation_predictor).
//
// Composition with LAEC: when the exact look-ahead is blocked by a data
// hazard, a confident stride prediction lets the DL1 read still happen in
// EX, in parallel with the real address computation. The true address is
// compared in the same cycle, so no wrong data can ever be consumed and no
// flush hardware is needed:
//   * match  -> the early read was valid; SECDED checks in M (LAEC timing);
//   * mismatch -> the read is discarded and the Memory stage replays the
//     access on the true address (Extra Stage timing) — the only costs are
//     a wasted DL1 read (energy) and the port occupancy.
#pragma once

#include <optional>
#include <vector>

#include "common/types.hpp"

namespace laec::core {

struct StridePredictorParams {
  unsigned entries = 64;        ///< direct-mapped by PC
  unsigned confidence_max = 3;  ///< saturating counter ceiling
  unsigned confidence_predict = 2;  ///< minimum confidence to predict
};

class StridePredictor {
 public:
  explicit StridePredictor(const StridePredictorParams& p = {});

  /// Predicted effective address for the load at `pc`, if confident.
  [[nodiscard]] std::optional<Addr> predict(Addr pc) const;

  /// Learn from the resolved address of the load at `pc`.
  void train(Addr pc, Addr actual);

  [[nodiscard]] u64 lookups() const { return lookups_; }
  [[nodiscard]] u64 predictions() const { return predictions_; }

  /// Snapshot field list (protocol: sim/snapshot.hpp).
  template <class V>
  void visit_state(V& v) {
    v.shape("entries", table_.size());
    v.fixed("table", table_);
    v.stats("lookups", lookups_);
    v.stats("predictions", predictions_);
  }

 private:
  struct Entry {
    bool valid = false;
    Addr pc_tag = 0;
    Addr last_addr = 0;
    i32 stride = 0;
    unsigned confidence = 0;

    template <class V>
    void visit_state(V& v) {
      v("valid", valid);
      v("pc_tag", pc_tag);
      v("last_addr", last_addr);
      v("stride", stride);
      v("confidence", confidence);
    }
  };

  [[nodiscard]] std::size_t index(Addr pc) const {
    return (pc >> 2) % params_.entries;
  }

  StridePredictorParams params_;
  std::vector<Entry> table_;
  mutable u64 lookups_ = 0;
  mutable u64 predictions_ = 0;
};

}  // namespace laec::core
