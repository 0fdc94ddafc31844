// Per-core L1 controllers: blocking DL1 (data) and L1I (instruction).
//
// The controllers own the miss state machines. Timing of the *hit path*
// (which pipeline stage reads the array, where the ECC check lands) is the
// pipeline's business; the controllers answer hits combinationally and turn
// misses into bus transactions that the pipeline polls to completion.
//
// Error handling on the hit path:
//  * SECDED single-bit errors are corrected in-line (and scrubbed);
//  * parity errors on a clean line are recovered by invalidate + refetch
//    (the LEON WT scheme, paper §II.A) — the access is replayed as a miss;
//  * uncorrectable errors on a *dirty* line mean data loss; they are counted
//    as `data_loss_events` and recovered by refetch of the stale copy, which
//    mirrors what a real safety-critical system would log as a DUE.
//
// Fetch hint: instruction fetch walks a line word by word, so the L1I keeps
// the handle of the line its last fetch hit and offers it to find_line()
// first. The cache re-checks the way's valid bit and tag on every use, so
// the hint is never state: it is not part of a snapshot, and a stale one
// (after a refill, an invalidation or a restore) just falls back to the set
// walk.
#pragma once

#include <optional>

#include "ecc/injector.hpp"
#include "mem/bus.hpp"
#include "mem/cache.hpp"

namespace laec::mem {

struct OracleParams {
  /// Synthetic-trace mode: outcomes are pre-classified, no arrays are kept.
  bool enabled = false;
  /// Cycles from miss initiation until the (pretend) refill completes.
  /// Calibrated so the trace-mode baseline CPI lands near the paper's
  /// effective ~1.3; every trace-mode run uses it.
  unsigned miss_cycles = 8;
};

struct L1Params {
  CacheConfig cache;
  OracleParams oracle;
};

/// Common reply shape for pipeline-visible accesses.
struct L1LoadReply {
  bool complete = false;
  bool hit = false;  ///< valid when complete: did the *original* access hit?
  u32 value = 0;
  ecc::CheckStatus check = ecc::CheckStatus::kOk;
};

struct L1StoreReply {
  bool complete = false;
  bool hit = false;
};

class DL1Controller {
 public:
  DL1Controller(const L1Params& params, Bus& bus, unsigned core_id);

  /// Attempt a load. Call once per cycle while it returns !complete.
  /// `forced_hit` drives oracle mode (ignored otherwise).
  L1LoadReply load(Addr a, unsigned bytes, Cycle now,
                   std::optional<bool> forced_hit = std::nullopt);

  /// Attempt a store (invoked by the write-buffer drain).
  /// Under write-back: write-allocate; under write-through: bus word write
  /// plus in-place update when the line is resident (no allocate).
  L1StoreReply store(Addr a, unsigned bytes, u32 value, Cycle now,
                     std::optional<bool> forced_hit = std::nullopt);

  /// Nonbinding probe: would `a` hit right now? (No LRU update, no faults.)
  [[nodiscard]] bool would_hit(Addr a) const;

  /// True while a miss/writeback transaction is outstanding.
  [[nodiscard]] bool busy() const { return state_ != State::kIdle; }

  /// Flush all dirty lines straight into `sink` (end-of-run finalization).
  template <typename Sink>
  void flush_dirty(Sink&& sink) {
    cache_.flush_dirty(sink);
  }

  /// Emit a dirty eviction whose bus writeback is still in flight (the line
  /// is no longer in the cache, so this copy is the only one). Part of
  /// end-of-run finalization; cleared afterwards.
  template <typename Sink>
  void flush_pending_writeback(Sink&& sink) {
    if (pending_evict_copy_.has_value()) {
      sink(pending_evict_copy_->first, pending_evict_copy_->second.data());
      pending_evict_copy_.reset();
    }
  }

  [[nodiscard]] SetAssocCache& cache() { return cache_; }
  [[nodiscard]] StatSet& stats() { return stats_; }
  [[nodiscard]] const StatSet& stats() const { return stats_; }

  /// Snapshot field list (protocol: sim/snapshot.hpp).
  template <class V>
  void visit_state(V& v) {
    v("state", state_);
    v("miss_addr", miss_addr_);
    v("token", token_);
    v("token_live", token_live_);
    v("oracle_done", oracle_done_);
    v("wb_token", wb_token_);
    v("wb_live", wb_live_);
    v("pending_evict_copy", pending_evict_copy_);
    v("cache", cache_);
    v.stats("stats", stats_);
  }

 private:
  enum class State { kIdle, kLoadMiss, kStoreMiss, kWriteThrough, kOracleMiss };

  void start_read_line(Addr a, Cycle now, State next);
  /// Install a completed refill; queue the dirty victim for writeback.
  void finish_fill(Cycle now);

  L1Params params_;
  Bus& bus_;
  unsigned core_id_;
  SetAssocCache cache_;

  State state_ = State::kIdle;
  Addr miss_addr_ = 0;
  Bus::Token token_ = 0;
  bool token_live_ = false;
  Cycle oracle_done_ = 0;
  Bus::Token wb_token_ = 0;
  bool wb_live_ = false;
  // Retained copy of an in-flight dirty eviction for end-of-run flushing.
  std::optional<std::pair<Addr, std::vector<u8>>> pending_evict_copy_;

  StatSet stats_;
  u64* n_loads_ = nullptr;
  u64* n_load_hits_ = nullptr;
  u64* n_stores_ = nullptr;
  u64* n_store_hits_ = nullptr;
  u64* n_parity_refetch_ = nullptr;
  u64* n_data_loss_ = nullptr;
};

class L1IController {
 public:
  L1IController(const L1Params& params, Bus& bus, unsigned core_id);

  struct FetchReply {
    bool complete = false;
    bool hit = false;
    u32 word = 0;
  };

  /// Attempt an instruction fetch. Call once per cycle while !complete.
  FetchReply fetch(Addr a, Cycle now);

  [[nodiscard]] SetAssocCache& cache() { return cache_; }
  [[nodiscard]] StatSet& stats() { return stats_; }
  [[nodiscard]] const StatSet& stats() const { return stats_; }

  /// Snapshot field list (protocol: sim/snapshot.hpp).
  template <class V>
  void visit_state(V& v) {
    v("miss_pending", miss_pending_);
    v("miss_addr", miss_addr_);
    v("token", token_);
    v("cache", cache_);
    v.stats("stats", stats_);
  }

 private:
  L1Params params_;
  Bus& bus_;
  unsigned core_id_;
  SetAssocCache cache_;

  bool miss_pending_ = false;
  Addr miss_addr_ = 0;
  Bus::Token token_ = 0;
  /// The line the last fetch read (see "Fetch hint" above).
  SetAssocCache::LineRef last_line_;

  StatSet stats_;
  u64* n_fetches_ = nullptr;
  u64* n_hits_ = nullptr;
  u64* n_parity_refetch_ = nullptr;
};

}  // namespace laec::mem
