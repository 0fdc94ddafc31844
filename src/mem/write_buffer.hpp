// The store (write) buffer sitting between the pipeline's Memory stage and
// the DL1, with the exact semantics the paper gives for the NGMP (§III.B):
//
//  * stores are deposited here by the Memory stage and drain to the DL1 (or,
//    under write-through, across the bus to the L2) when the port is idle;
//  * a load must wait until the buffer is *completely empty* before it may
//    access the DL1 ("to avoid consistency issues");
//  * when the buffer fills up, further stores stall with backpressure until
//    the buffer fully drains (hysteresis, not one-free-slot).
#pragma once

#include <deque>
#include <stdexcept>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace laec::mem {

struct PendingStore {
  Addr addr = 0;
  unsigned bytes = 4;
  u32 value = 0;
  /// Oracle-mode (synthetic trace) stores carry a pre-classified outcome.
  bool forced = false;
  bool forced_hit = true;

  template <class V>
  void visit_state(V& v) {
    v("addr", addr);
    v("bytes", bytes);
    v("value", value);
    v("forced", forced);
    v("forced_hit", forced_hit);
  }
};

struct WriteBufferParams {
  unsigned depth = 8;
};

class WriteBuffer {
 public:
  explicit WriteBuffer(const WriteBufferParams& p = {}) : params_(p) {
    // A zero-depth buffer could never accept a store: the core would stall
    // until the cycle limit.
    if (p.depth == 0) {
      throw std::invalid_argument("write buffer depth must be at least 1");
    }
    occupancy_max_ = &stats_.counter("max_occupancy");
    pushes_ = &stats_.counter("pushes");
    full_stall_events_ = &stats_.counter("full_stall_events");
  }

  [[nodiscard]] bool empty() const { return q_.empty(); }
  [[nodiscard]] std::size_t size() const { return q_.size(); }
  [[nodiscard]] unsigned depth() const { return params_.depth; }

  /// May the Memory stage deposit a store this cycle? False while the
  /// buffer is in drain-until-empty backpressure mode.
  [[nodiscard]] bool can_push() const {
    return !block_until_empty_ && q_.size() < params_.depth;
  }

  /// Deposit a store. Call only when can_push().
  void push(const PendingStore& s) {
    q_.push_back(s);
    ++*pushes_;
    if (q_.size() > *occupancy_max_) *occupancy_max_ = q_.size();
    if (q_.size() == params_.depth) block_until_empty_ = true;
  }

  /// Record that a store wanted to push but could not (stat only).
  void note_blocked_push() { ++*full_stall_events_; }

  [[nodiscard]] const PendingStore& front() const { return q_.front(); }

  void pop() {
    q_.pop_front();
    if (q_.empty()) block_until_empty_ = false;
  }

  [[nodiscard]] StatSet& stats() { return stats_; }
  [[nodiscard]] const StatSet& stats() const { return stats_; }

  /// Snapshot field list (protocol: sim/snapshot.hpp).
  template <class V>
  void visit_state(V& v) {
    v("queue", q_);
    v("block_until_empty", block_until_empty_);
    v.stats("stats", stats_);
  }

 private:
  WriteBufferParams params_;
  std::deque<PendingStore> q_;
  bool block_until_empty_ = false;
  StatSet stats_;
  u64* occupancy_max_ = nullptr;
  u64* pushes_ = nullptr;
  u64* full_stall_events_ = nullptr;
};

}  // namespace laec::mem
