// Cycle-accurate in-order single-issue pipeline (NGMP/LEON4-like).
//
// Stage order (paper Fig. 1): F D RA EX M [EC] XC WB — seven stages, eight
// when the DL1 ECC deployment adds the ECC stage (Extra Stage / LAEC).
//
// Timing contract (DESIGN.md §2):
//  * a result with `ready_end = t` is usable by a stage executing in t+1;
//  * instructions stall *in EX* until their operands are available
//    (chronograms show repeated "Exe" cells, matching the paper's figures);
//  * checked load-hit data becomes available at the end of M (no-ECC,
//    LAEC-anticipated), of the second M cycle (Extra Cycle), or of the EC
//    stage (Extra Stage, LAEC fallback);
//  * DL1 misses are checked at the L2/memory level and carry no ECC penalty;
//  * loads wait at their access stage until the write buffer is fully empty;
//    stores stall when the buffer is full, until it fully drains (§III.B).
//
// LAEC (the paper's contribution) is implemented in core/lookahead.hpp; the
// pipeline consults it when a load enters the RA stage and, on success, reads
// the DL1 during EX and checks the code during M.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "cpu/pipeline_config.hpp"
#include "cpu/trace_source.hpp"
#include "isa/program.hpp"
#include "mem/l1.hpp"
#include "mem/write_buffer.hpp"
#include "report/chronogram.hpp"

namespace laec::core {
class LookaheadUnit;  // the paper's mechanism; owned by the pipeline
class StridePredictor;  // optional extension (PipelineParams::stride_predictor)
}

namespace laec::cpu {

/// Pipeline stage indices. kEC exists only under 8-stage policies.
enum Stage : unsigned { kF, kD, kRA, kEX, kM, kEC, kXC, kWB, kNumStages };

[[nodiscard]] std::string_view stage_name(Stage s);

/// Why a load was (not) anticipated; recorded per dynamic load.
enum class LookaheadOutcome : u8 {
  kAnticipated,
  kDataHazard,      ///< address operands not available one cycle early
  kResourceHazard,  ///< previous instruction is a non-anticipated load
  kBranchShadow,    ///< suppressed under an unresolved branch (optional rule)
  kPolicyOff,       ///< not running LAEC
  kDynamicFallback, ///< anticipated at RA but port collision at EX
};

class Pipeline {
 public:
  Pipeline(const PipelineParams& params, mem::DL1Controller& dl1,
           mem::L1IController* l1i, mem::WriteBuffer& wbuf,
           TraceSource* trace = nullptr);
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Point fetch at the program entry (the image itself must already be in
  /// simulated memory — see sim::System).
  void start(Addr entry);

  /// Advance one cycle. Returns false once the core has halted.
  bool cycle(Cycle now);

  [[nodiscard]] bool halted() const { return halted_; }

  /// Did a load claim the DL1 port this cycle? (Write-buffer drain yields.)
  [[nodiscard]] bool dl1_port_claimed(Cycle now) const {
    return dl1_port_cycle_ == now;
  }

  [[nodiscard]] u32 reg(unsigned i) const { return regs_[i]; }
  void set_reg(unsigned i, u32 v) {
    if (i != 0) regs_[i] = v;
  }

  [[nodiscard]] StatSet& stats() { return stats_; }
  [[nodiscard]] const StatSet& stats() const { return stats_; }
  [[nodiscard]] report::ChronogramRecorder& chronogram() { return chrono_; }
  [[nodiscard]] const report::ChronogramRecorder& chronogram() const {
    return chrono_;
  }
  [[nodiscard]] const PipelineParams& params() const { return params_; }

  /// Snapshot field list (protocol: sim/snapshot.hpp). Throws
  /// std::logic_error when chronogram recording is enabled (event history
  /// is not snapshot state).
  template <class V>
  void visit_state(V& v) {
    if (chrono_.enabled()) {
      throw std::logic_error(
          "pipeline snapshots do not cover chronogram recording");
    }
    v("slots", slots_);
    v("regs", regs_);
    v("reg_write_stamp", reg_write_stamp_);
    v("fetch_pc", fetch_pc_);
    v("next_seq", next_seq_);
    v("fetch_stopped", fetch_stopped_);
    v("ifetch_inflight", ifetch_inflight_);
    v("ifetch_discard", ifetch_discard_);
    v("ifetch_discard_addr", ifetch_discard_addr_);
    v("redirect_cycle", redirect_cycle_);
    v("halted", halted_);
    v("dl1_port_cycle", dl1_port_cycle_);
    v("last_anticipated_seq", last_anticipated_seq_);
    v("dep_watch", dep_watch_);
    v("predictor", predictor_);
    v.stats("stats", stats_);
  }

 private:
  friend class laec::core::LookaheadUnit;

  struct Slot {
    bool valid = false;
    isa::DecodedInst inst;
    Seq seq = 0;
    Addr pc = 0;
    std::string label;  // chronogram label (filled lazily)

    // Fetch state.
    bool fetch_done = false;

    // Result availability: end-of-cycle at which the destination value is
    // bypassable; kNeverCycle until known.
    Cycle ready_end = kNeverCycle;

    // EX state.
    bool ex_started = false;
    unsigned ex_cycles_left = 0;
    bool ex_done = false;

    // Memory state.
    bool anticipated = false;
    LookaheadOutcome la_outcome = LookaheadOutcome::kPolicyOff;
    bool addr_known = false;
    Addr eff_addr = 0;
    // Stride-predictor extension state.
    bool addr_predicted = false;
    Addr predicted_addr = 0;
    bool predictor_trained = false;
    bool mem_done = false;   // DL1 access resolved (load) / WB push done (store)
    bool load_hit = false;
    bool ecc_checked = false;  // checked data available (miss refills arrive checked)
    unsigned m_extra_cycles = 0;  // Extra Cycle second-M bookkeeping
    u32 store_data = 0;
    bool store_data_latched = false;

    // Branch state.
    bool branch_done = false;
    Cycle branch_resolve_cycle = kNeverCycle;

    // Trace mode.
    bool forced_mem = false;
    bool forced_hit = true;

    template <class V>
    void visit_state(V& v) {
      v("valid", valid);
      v("inst", inst);
      v("seq", seq);
      v("pc", pc);
      v("label", label);
      v("fetch_done", fetch_done);
      v("ready_end", ready_end);
      v("ex_started", ex_started);
      v("ex_cycles_left", ex_cycles_left);
      v("ex_done", ex_done);
      v("anticipated", anticipated);
      v("la_outcome", la_outcome);
      v("addr_known", addr_known);
      v("eff_addr", eff_addr);
      v("addr_predicted", addr_predicted);
      v("predicted_addr", predicted_addr);
      v("predictor_trained", predictor_trained);
      v("mem_done", mem_done);
      v("load_hit", load_hit);
      v("ecc_checked", ecc_checked);
      v("m_extra_cycles", m_extra_cycles);
      v("store_data", store_data);
      v("store_data_latched", store_data_latched);
      v("branch_done", branch_done);
      v("branch_resolve_cycle", branch_resolve_cycle);
      v("forced_mem", forced_mem);
      v("forced_hit", forced_hit);
    }

    /// Cheap empty-marking for the stage-advance hot path. Every other
    /// field is only ever read behind `valid`, and every new instruction
    /// enters as a freshly-constructed Slot moved in by do_f, so dropping
    /// the flag is equivalent to — and much cheaper than — assigning a
    /// default-constructed Slot over ~100 bytes of state.
    void release() { valid = false; }
  };

  // --- per-cycle stage processing, called in WB -> F order ------------------
  void do_retire(Cycle now);
  void do_xc(Cycle now);
  void do_ec(Cycle now);
  void do_m(Cycle now);
  void do_ex(Cycle now);
  void do_ra(Cycle now);
  void do_d(Cycle now);
  void do_f(Cycle now);

  // --- helpers ---------------------------------------------------------------
  [[nodiscard]] bool uses_ec_stage() const {
    return has_ecc_stage(params_.ecc);
  }
  /// Is the value of register `r` available to a consumer executing in
  /// `use_cycle` for instruction `reader_seq`? (Scans in-flight writers.)
  [[nodiscard]] bool operand_ready(u8 r, Seq reader_seq, Cycle use_cycle) const;
  /// Youngest in-flight writer of `r` older than `reader_seq`, or nullptr.
  [[nodiscard]] const Slot* youngest_writer(u8 r, Seq reader_seq) const;
  [[nodiscard]] bool all_exec_srcs_ready(const Slot& s, Cycle use_cycle) const;
  void write_result(Slot& s, u32 value, Cycle ready_end);
  [[nodiscard]] u32 compute_alu(const isa::DecodedInst& d) const;
  [[nodiscard]] bool branch_taken(const isa::DecodedInst& d) const;
  void squash_younger_than(Seq seq, Addr new_pc, Cycle now);
  void record_all(Cycle now);
  void claim_dl1_port(Cycle now) { dl1_port_cycle_ = now; }
  [[nodiscard]] bool dl1_port_free(Cycle now) const {
    return dl1_port_cycle_ != now;
  }
  /// Read-for-execute value of a source register (regfile + eager updates).
  [[nodiscard]] u32 src_value(u8 r) const { return regs_[r]; }
  void finish_load(Slot& s, u32 raw, Cycle ready_end);
  [[nodiscard]] static u32 extend_load(const isa::DecodedInst& d, u32 raw);
  /// The slot holding dynamic instruction seq, if still in flight.
  [[nodiscard]] const Slot* find_seq(Seq seq) const;
  [[nodiscard]] const Slot& slot(unsigned stage) const { return slots_[stage]; }
  [[nodiscard]] Stage stage_of(const Slot* s) const {
    return static_cast<Stage>(s - slots_.data());
  }

  PipelineParams params_;
  mem::DL1Controller& dl1_;
  mem::L1IController* l1i_;  // null in trace mode
  mem::WriteBuffer& wbuf_;
  TraceSource* trace_;
  std::unique_ptr<laec::core::LookaheadUnit> lookahead_;
  std::unique_ptr<laec::core::StridePredictor> predictor_;
  /// Train the stride table once per load, when its address resolves.
  void train_predictor(Slot& s);

  std::array<Slot, kNumStages> slots_{};
  std::array<u32, isa::kNumRegs> regs_{};
  // The register file is updated eagerly as results become available, which
  // can be out of program order across registers AND within one register
  // (an older load checked late in EC may complete after a younger ALU op).
  // Writes carry the writer's seq; an older write never clobbers a younger
  // one. Stamp is seq+1 (0 = never written).
  std::array<Seq, isa::kNumRegs> reg_write_stamp_{};

  Addr fetch_pc_ = 0;
  Seq next_seq_ = 0;
  bool fetch_stopped_ = false;  // HALT decoded or trace exhausted
  bool ifetch_inflight_ = false;
  bool ifetch_discard_ = false;
  Addr ifetch_discard_addr_ = 0;
  Cycle redirect_cycle_ = kNeverCycle;
  bool halted_ = false;
  Cycle dl1_port_cycle_ = kNeverCycle;
  Seq last_anticipated_seq_ = kNoSeq;

  // Dependent-load characterization (Table II): remember the destinations of
  // the two most recently retired loads and watch the next two retirees.
  struct DepWatch {
    u8 reg = 0;
    int remaining = 0;
    bool consumed = false;
    bool counted = false;

    template <class V>
    void visit_state(V& v) {
      v("reg", reg);
      v("remaining", remaining);
      v("consumed", consumed);
      v("counted", counted);
    }
  };
  std::array<DepWatch, 2> dep_watch_{};
  void retire_characterize(const Slot& s);

  StatSet stats_;
  report::ChronogramRecorder chrono_;

  // Hot counters.
  u64* c_cycles_ = nullptr;
  u64* c_instructions_ = nullptr;
  u64* c_loads_ = nullptr;
  u64* c_load_hits_ = nullptr;
  u64* c_stores_ = nullptr;
  u64* c_branches_ = nullptr;
  u64* c_taken_ = nullptr;
  u64* c_squashed_ = nullptr;
  u64* c_dep_loads_ = nullptr;
  u64* c_stall_operand_ = nullptr;
  u64* c_stall_load_use_ = nullptr;
  u64* c_stall_struct_m_ = nullptr;
  u64* c_stall_wb_drain_ = nullptr;
  u64* c_stall_wb_full_ = nullptr;
  u64* c_stall_miss_ = nullptr;
  u64* c_stall_imiss_ = nullptr;
  u64* c_la_anticipated_ = nullptr;
  u64* c_la_data_hazard_ = nullptr;
  u64* c_la_resource_hazard_ = nullptr;
  u64* c_la_fallback_ = nullptr;
  u64* c_la_miss_cancel_ = nullptr;
  u64* c_la_shadow_ = nullptr;
  u64* c_due_events_ = nullptr;
  u64* c_pred_used_ = nullptr;
  u64* c_pred_wrong_ = nullptr;
  u64* c_pred_blocked_ = nullptr;
};

}  // namespace laec::cpu
