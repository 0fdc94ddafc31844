// Synthetic bus traffic generators.
//
// They model the *other* cores of the NGMP for contention studies (the
// paper's own experiments run a single active core, §IV; the motivation
// experiment E6 needs co-runners hammering the shared bus).
#pragma once

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "mem/bus.hpp"

namespace laec::sim {

struct TrafficPattern {
  /// Cycles between the completion of one transaction and the submission of
  /// the next (0 = back-to-back, maximum pressure).
  unsigned gap_cycles = 0;
  mem::BusOp op = mem::BusOp::kReadLine;
  Addr base = 0x4000'0000;
  u32 stride = 32;
  u32 footprint_bytes = 1u << 20;  ///< wrap the address stream
};

class TrafficGenerator {
 public:
  TrafficGenerator(unsigned requester_id, mem::Bus& bus,
                   const TrafficPattern& pattern);

  /// Advance one cycle: submit a new transaction when idle and the gap has
  /// elapsed; reap completed ones.
  void tick(Cycle now);

  [[nodiscard]] u64 transactions() const { return completed_; }

  /// Snapshot field list (protocol: sim/snapshot.hpp).
  template <class V>
  void visit_state(V& v) {
    v("pending", pending_);
    v("token", token_);
    v("next_submit", next_submit_);
    v("cursor", cursor_);
    v.stats("completed", completed_);
  }

 private:
  unsigned id_;
  mem::Bus& bus_;
  TrafficPattern pattern_;
  bool pending_ = false;
  mem::Bus::Token token_ = 0;
  Cycle next_submit_ = 0;
  Addr cursor_ = 0;
  u64 completed_ = 0;
};

}  // namespace laec::sim
