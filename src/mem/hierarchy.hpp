// MemorySystem: the far side of the bus — shared write-back L2 (SECDED) plus
// main memory — and the factory for the bus itself.
//
// Matches the NGMP arrangement the paper simulates: private L1s per core, a
// shared bus, a shared L2, then off-chip memory (paper §III.B, §IV).
#pragma once

#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "ecc/registry.hpp"
#include "mem/bus.hpp"
#include "mem/cache.hpp"
#include "mem/memory.hpp"

namespace laec::mem {

struct L2Params {
  CacheConfig cache{
      .name = "l2",
      .size_bytes = 256 * 1024,
      .line_bytes = 32,
      .ways = 4,
      .write_policy = WritePolicy::kWriteBack,
      .alloc_policy = AllocPolicy::kWriteAllocate,
      .codec = ecc::make_codec("secded-39-32"),
      .scrub_on_correct = true,
  };
  /// Array access latency for a hit; the SECDED check latency is folded in,
  /// which is cheap at L2 because overall miss latencies dominate (§II.A).
  unsigned hit_cycles = 4;
  unsigned write_cycles = 2;
  /// Main-memory access on an L2 miss.
  unsigned memory_cycles = 26;
  /// Installing the refilled line into the L2 array.
  unsigned refill_cycles = 2;
};

struct MemorySystemParams {
  BusParams bus;
  L2Params l2;
  unsigned num_requesters = 4;
};

class MemorySystem final : public BusTarget {
 public:
  explicit MemorySystem(const MemorySystemParams& params);

  [[nodiscard]] Bus& bus() { return *bus_; }
  [[nodiscard]] MainMemory& memory() { return memory_; }
  [[nodiscard]] SetAssocCache& l2() { return l2_; }

  /// Memory-side recovery events: "l2_refetches" (lines dropped and
  /// refetched from memory after a detected error), "l2_data_loss_events"
  /// (uncorrectable error on a dirty line — the writeback copy is gone;
  /// the refetch restores the stale memory image), and
  /// "l2_unrecovered_reads" (every recovery retry was itself struck — the
  /// word was served with a standing detected error).
  [[nodiscard]] StatSet& stats() { return stats_; }
  [[nodiscard]] const StatSet& stats() const { return stats_; }

  /// Advance one cycle (drives bus arbitration). Call after the cores.
  void tick(Cycle now) { bus_->tick(now); }

  /// Write every dirty L2 line back to memory (end-of-run finalization).
  void flush_l2();

  /// Snapshot field list (protocol: sim/snapshot.hpp). The refill staging
  /// buffer is transient scratch, not state.
  template <class V>
  void visit_state(V& v) {
    v("memory", memory_);
    v("l2", l2_);
    v("bus", *bus_);
    v.stats("stats", stats_);
  }

  // BusTarget: execute a granted transaction, return service latency.
  unsigned service(BusTransaction& t) override;

 private:
  /// Ensure the line containing `a` is resident in L2; returns the extra
  /// latency incurred (0 when it already hit).
  unsigned ensure_l2_line(Addr a);

  /// Read one protected word from the L2, applying the configured recovery
  /// on detected errors (invalidate + refetch from memory; a dirty line is
  /// a data-loss event). Adds any recovery latency to `lat`.
  WordRead read_l2_word(Addr a, unsigned& lat);

  MemorySystemParams params_;
  MainMemory memory_;
  SetAssocCache l2_;
  /// Refill staging buffer, reused across misses (no per-miss allocation).
  std::vector<u8> refill_buf_;
  std::unique_ptr<Bus> bus_;
  StatSet stats_;
  u64* n_l2_refetch_ = nullptr;
  u64* n_l2_data_loss_ = nullptr;
  u64* n_l2_unrecovered_ = nullptr;
};

}  // namespace laec::mem
