// Core and System: the full NGMP-like machine.
//
// A Core bundles one pipeline with its private L1I, DL1 and write buffer and
// runs the write-buffer drain state machine. A System instantiates N cores
// around the shared bus + L2 + memory, plus optional synthetic traffic
// generators, and owns the global cycle loop.
#pragma once

#include <memory>
#include <vector>

#include "cpu/pipeline.hpp"
#include "ecc/registry.hpp"
#include "mem/hierarchy.hpp"
#include "sim/traffic.hpp"

namespace laec::sim {

struct CoreConfig {
  cpu::PipelineParams pipeline;
  mem::L1Params dl1{
      .cache = {.name = "dl1",
                .size_bytes = 16 * 1024,
                .line_bytes = 32,
                .ways = 4,
                .write_policy = mem::WritePolicy::kWriteBack,
                .alloc_policy = mem::AllocPolicy::kWriteAllocate,
                .codec = ecc::make_codec("secded-39-32"),
                .scrub_on_correct = true},
      .oracle = {}};
  // The instruction cache is read-only: lines are refilled, never written,
  // so it carries no write/alloc policy — L1IController marks the array
  // read_only and recovers every detected error by invalidate-and-refetch.
  mem::L1Params l1i{
      .cache = {.name = "l1i",
                .size_bytes = 16 * 1024,
                .line_bytes = 32,
                .ways = 4,
                .codec = ecc::make_codec("parity-32"),
                .scrub_on_correct = false,
                .recovery = mem::RecoveryPolicy::kInvalidateRefetch},
      .oracle = {}};
  mem::WriteBufferParams wbuf;
};

class Core {
 public:
  Core(unsigned id, const CoreConfig& cfg, mem::Bus& bus,
       cpu::TraceSource* trace = nullptr);

  void start(Addr entry) { pipe_->start(entry); }
  void tick(Cycle now);
  [[nodiscard]] bool halted() const { return pipe_->halted(); }

  [[nodiscard]] cpu::Pipeline& pipeline() { return *pipe_; }
  [[nodiscard]] const cpu::Pipeline& pipeline() const { return *pipe_; }
  [[nodiscard]] mem::DL1Controller& dl1() { return *dl1_; }
  [[nodiscard]] mem::L1IController& l1i() { return *l1i_; }
  /// Trace (oracle) mode cores fetch from a synthetic source and keep no
  /// instruction cache; l1i() is only valid when this returns true.
  [[nodiscard]] bool has_l1i() const { return l1i_ != nullptr; }
  [[nodiscard]] mem::WriteBuffer& wbuf() { return wbuf_; }
  [[nodiscard]] unsigned id() const { return id_; }

  /// Snapshot field list (protocol: sim/snapshot.hpp).
  template <class V>
  void visit_state(V& v) {
    v("dl1", *dl1_);
    v("l1i", l1i_);
    v("wbuf", wbuf_);
    v("pipeline", *pipe_);
  }

 private:
  unsigned id_;
  std::unique_ptr<mem::DL1Controller> dl1_;
  std::unique_ptr<mem::L1IController> l1i_;
  mem::WriteBuffer wbuf_;
  std::unique_ptr<cpu::Pipeline> pipe_;
  bool trace_mode_ = false;
};

struct SystemConfig {
  unsigned num_cores = 1;
  CoreConfig core;
  mem::MemorySystemParams memsys;
  /// Co-runner traffic generators (requester ids follow the cores).
  std::vector<TrafficPattern> traffic;
  u64 max_cycles = 500'000'000;
};

class System {
 public:
  /// `trace` (optional) feeds core 0 synthetic operations instead of a
  /// program image fetched through its L1I.
  explicit System(const SystemConfig& cfg, cpu::TraceSource* trace = nullptr);

  [[nodiscard]] Core& core(unsigned i) { return *cores_[i]; }
  [[nodiscard]] unsigned num_cores() const {
    return static_cast<unsigned>(cores_.size());
  }
  [[nodiscard]] mem::MemorySystem& memsys() { return *memsys_; }

  /// Copy a program image into simulated memory and point core `core_id`'s
  /// fetch at its entry.
  void load_program(const isa::Program& p, unsigned core_id = 0);

  struct RunResult {
    u64 cycles = 0;       ///< cycles simulated by core 0's pipeline
    bool completed = false;  ///< halted before the max_cycles safety stop
  };

  /// Run until core `core_id` halts (or the cycle limit trips).
  RunResult run(unsigned core_id = 0);

  /// Advance the whole system one cycle.
  void tick();

  [[nodiscard]] Cycle now() const { return now_; }

  /// Stable pointer to the cycle counter, for observers (e.g. the residency
  /// recorder) that need to timestamp cache events without a System reference.
  [[nodiscard]] const Cycle* cycle_counter() const { return &now_; }

  /// Architecturally final word at `a`: flushes DL1s and the L2 into memory
  /// the first time it is called after a run, then reads memory.
  u32 read_word_final(Addr a);

  /// Flush every dirty line (all DL1s, then L2) into main memory. A no-op
  /// when nothing has simulated since the last flush (the state is already
  /// final); tick() re-arms it.
  void flush_all();

  /// Snapshot field list (protocol: sim/snapshot.hpp, which wraps it in a
  /// versioned, checksummed frame). The restore target must be built from
  /// the same configuration; injector/recorder attachments are not covered
  /// and must be re-made afterwards.
  template <class V>
  void visit_state(V& v) {
    v("now", now_);
    v.shape("cores", cores_.size());
    v.fixed("cores", cores_);
    v.shape("traffic", traffic_.size());
    v.fixed("traffic", traffic_);
    v("memsys", *memsys_);
    if constexpr (V::kRestoring) flushed_ = false;  // restored mid-run
  }

 private:
  SystemConfig cfg_;
  std::unique_ptr<mem::MemorySystem> memsys_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<std::unique_ptr<TrafficGenerator>> traffic_;
  Cycle now_ = 0;
  bool flushed_ = false;  ///< memory is architecturally final right now
};

}  // namespace laec::sim
