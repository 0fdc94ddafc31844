// Shared processor bus (NGMP-style AMBA-like, non-split).
//
// One transaction occupies the bus end-to-end: request phase, target service
// (L2 and, on an L2 miss, main memory), response phase. Requesters are
// granted round-robin. This is the shared resource whose contention makes
// write-through DL1 caches so expensive in multicores (paper §II.A and
// ref [9]) — every WT store becomes a kWriteWord transaction here.
//
// The bus ticks every simulated cycle but is mostly idle: it keeps a count
// of queued (submitted, not yet granted) transactions and skips the
// round-robin scan when the count is zero. The count is derived from the
// queues: a snapshot does not carry it, and a restore recomputes it.
#pragma once

#include <array>
#include <deque>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace laec::mem {

struct BusParams {
  unsigned request_cycles = 2;   ///< address/command phase on the bus
  unsigned response_cycles = 2;  ///< data return phase on the bus
};

enum class BusOp : u8 {
  kReadLine,   ///< L1 refill (I or D)
  kWriteLine,  ///< dirty L1 line writeback
  kWriteWord,  ///< write-through store (word or sub-word)
};

struct BusTransaction {
  unsigned requester = 0;  ///< core id (or traffic-generator id)
  BusOp op = BusOp::kReadLine;
  Addr addr = 0;
  unsigned bytes = 4;    ///< kWriteWord only
  u32 value = 0;         ///< kWriteWord only
  std::vector<u8> line;  ///< kWriteLine: payload; kReadLine: filled on service

  // Filled in by the bus.
  Cycle submitted_at = 0;
  Cycle granted_at = kNeverCycle;
  Cycle completes_at = kNeverCycle;
  bool done = false;

  /// Snapshot field list (protocol: sim/snapshot.hpp).
  template <class V>
  void visit_state(V& v) {
    v("requester", requester);
    v("op", op);
    v("addr", addr);
    v("bytes", bytes);
    v("value", value);
    v("line", line);
    v("submitted_at", submitted_at);
    v("granted_at", granted_at);
    v("completes_at", completes_at);
    v("done", done);
  }
};

/// The device at the far end of the bus (our MemorySystem: L2 + DRAM).
/// `service` performs the data movement and returns the service latency in
/// cycles (excluding the bus request/response phases).
class BusTarget {
 public:
  virtual ~BusTarget() = default;
  virtual unsigned service(BusTransaction& t) = 0;
};

class Bus {
 public:
  using Token = u64;

  Bus(const BusParams& params, BusTarget& target, unsigned num_requesters);

  /// Queue a transaction for `t.requester`. FIFO order per requester.
  Token submit(BusTransaction t, Cycle now);

  [[nodiscard]] bool done(Token token) const;
  [[nodiscard]] const BusTransaction& peek(Token token) const;

  /// Retrieve a completed transaction and free its slot.
  BusTransaction take(Token token);

  /// Advance arbitration/timing. Call once per cycle, after the cores.
  /// Inline: an idle bus with nothing queued has nothing to do.
  void tick(Cycle now) {
    if (active_ != kNoToken || queued_ != 0) advance(now);
  }

  [[nodiscard]] bool idle() const { return active_ == kNoToken; }

  [[nodiscard]] StatSet& stats() { return stats_; }
  [[nodiscard]] const StatSet& stats() const { return stats_; }

  /// Snapshot field list (protocol: sim/snapshot.hpp).
  template <class V>
  void visit_state(V& v) {
    v.shape("requesters", num_requesters_);
    v.fixed("queues", queues_);
    v("slots", slots_);
    v("active", active_);
    v("rr_next", rr_next_);
    v.stats("stats", stats_);
    if constexpr (V::kRestoring) {
      queued_ = 0;
      for (const auto& q : queues_) queued_ += q.size();
    }
  }

 private:
  static constexpr Token kNoToken = ~Token{0};

  /// A transaction slot; a token indexes slots_. Dead slots are reused.
  struct Slot {
    bool live = false;
    BusTransaction txn;

    template <class V>
    void visit_state(V& v) {
      v("live", live);
      v("txn", txn);
    }
  };

  /// tick() of a bus that is busy or has transactions queued.
  void advance(Cycle now);

  BusParams params_;
  BusTarget& target_;
  unsigned num_requesters_;

  std::vector<std::deque<Token>> queues_;  // per requester
  std::size_t queued_ = 0;  ///< tokens in queues_, summed over requesters
  std::vector<Slot> slots_;
  Token active_ = kNoToken;
  unsigned rr_next_ = 0;  // round-robin pointer

  StatSet stats_;
  u64* n_transactions_ = nullptr;
  u64* busy_cycles_ = nullptr;
  u64* wait_cycles_ = nullptr;
  /// Per-operation grant counters ("read_line", "write_line",
  /// "write_word"), indexed by BusOp. Each is registered at its operation's
  /// first grant, so the StatSet's registration order (which snapshots
  /// carry) is the one a by-name lookup per grant gives; clear() keeps
  /// registrations, so a pointer stays valid across restores.
  std::array<u64*, 3> op_counters_{};
};

}  // namespace laec::mem
