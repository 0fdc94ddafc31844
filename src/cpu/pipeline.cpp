#include "cpu/pipeline.hpp"

#include <cassert>
#include <stdexcept>

#include "core/lookahead.hpp"
#include "core/predictor.hpp"
#include "isa/disasm.hpp"

namespace laec::cpu {

std::string_view stage_name(Stage s) {
  switch (s) {
    case kF: return "F";
    case kD: return "D";
    case kRA: return "RA";
    case kEX: return "Exe";
    case kM: return "M";
    case kEC: return "ECC";
    case kXC: return "Exc";
    case kWB: return "WB";
    default: return "?";
  }
}

Pipeline::Pipeline(const PipelineParams& params, mem::DL1Controller& dl1,
                   mem::L1IController* l1i, mem::WriteBuffer& wbuf,
                   TraceSource* trace)
    : params_(params), dl1_(dl1), l1i_(l1i), wbuf_(wbuf), trace_(trace) {
  assert((trace_ != nullptr || l1i_ != nullptr) &&
         "need an L1I (program mode) or a trace source");
  lookahead_ = std::make_unique<core::LookaheadUnit>(params_);
  if (params_.stride_predictor) {
    predictor_ = std::make_unique<core::StridePredictor>();
  }
  chrono_.set_enabled(params_.record_chronogram);

  c_cycles_ = &stats_.counter("cycles");
  c_instructions_ = &stats_.counter("instructions");
  c_loads_ = &stats_.counter("loads");
  c_load_hits_ = &stats_.counter("load_hits");
  c_stores_ = &stats_.counter("stores");
  c_branches_ = &stats_.counter("branches");
  c_taken_ = &stats_.counter("taken_branches");
  c_squashed_ = &stats_.counter("squashed");
  c_dep_loads_ = &stats_.counter("dep_loads");
  c_stall_operand_ = &stats_.counter("stall_ex_operand");
  c_stall_load_use_ = &stats_.counter("stall_ex_load_use");
  c_stall_struct_m_ = &stats_.counter("stall_ex_structural_m");
  c_stall_wb_drain_ = &stats_.counter("stall_wb_drain");
  c_stall_wb_full_ = &stats_.counter("stall_wb_full");
  c_stall_miss_ = &stats_.counter("stall_dl1_miss");
  c_stall_imiss_ = &stats_.counter("stall_l1i_miss");
  c_la_anticipated_ = &stats_.counter("laec_anticipated");
  c_la_data_hazard_ = &stats_.counter("laec_data_hazard");
  c_la_resource_hazard_ = &stats_.counter("laec_resource_hazard");
  c_la_fallback_ = &stats_.counter("laec_dynamic_fallback");
  c_la_miss_cancel_ = &stats_.counter("laec_miss_cancel");
  c_la_shadow_ = &stats_.counter("laec_branch_shadow");
  c_due_events_ = &stats_.counter("due_events");
  c_pred_used_ = &stats_.counter("pred_used");
  c_pred_wrong_ = &stats_.counter("pred_mispredict");
  c_pred_blocked_ = &stats_.counter("pred_blocked");
}

void Pipeline::train_predictor(Slot& s) {
  if (predictor_ == nullptr || s.predictor_trained) return;
  s.predictor_trained = true;
  predictor_->train(s.pc, s.eff_addr);
}

Pipeline::~Pipeline() = default;

void Pipeline::start(Addr entry) {
  for (Slot& s : slots_) s = Slot{};
  regs_.fill(0);
  reg_write_stamp_.fill(0);
  fetch_pc_ = entry;
  next_seq_ = 0;
  fetch_stopped_ = false;
  ifetch_inflight_ = false;
  ifetch_discard_ = false;
  halted_ = false;
  dl1_port_cycle_ = kNeverCycle;
  dep_watch_ = {};
}

const Pipeline::Slot* Pipeline::find_seq(Seq seq) const {
  for (const Slot& s : slots_) {
    if (s.valid && s.seq == seq) return &s;
  }
  return nullptr;
}

const Pipeline::Slot* Pipeline::youngest_writer(u8 r, Seq reader_seq) const {
  if (r == 0) return nullptr;  // r0 is constant
  const Slot* best = nullptr;
  for (const Slot& s : slots_) {
    if (!s.valid || s.seq >= reader_seq) continue;
    const auto dest = s.inst.dest();
    if (!dest.has_value() || *dest != r) continue;
    if (best == nullptr || s.seq > best->seq) best = &s;
  }
  return best;
}

bool Pipeline::operand_ready(u8 r, Seq reader_seq, Cycle use_cycle) const {
  const Slot* w = youngest_writer(r, reader_seq);
  if (w == nullptr) return true;  // value is architectural
  return w->ready_end != kNeverCycle && w->ready_end + 1 <= use_cycle;
}

bool Pipeline::all_exec_srcs_ready(const Slot& s, Cycle use_cycle) const {
  for (const auto& src : s.inst.exec_srcs()) {
    if (src.has_value() && !operand_ready(*src, s.seq, use_cycle)) {
      return false;
    }
  }
  return true;
}

void Pipeline::write_result(Slot& s, u32 value, Cycle ready_end) {
  const auto dest = s.inst.dest();
  if (dest.has_value() && s.seq + 1 >= reg_write_stamp_[*dest]) {
    regs_[*dest] = value;
    reg_write_stamp_[*dest] = s.seq + 1;
  }
  s.ready_end = ready_end;
}

u32 Pipeline::extend_load(const isa::DecodedInst& d, u32 raw) {
  switch (d.op) {
    case isa::Op::kLb:
      return static_cast<u32>(static_cast<i32>(static_cast<i8>(raw & 0xff)));
    case isa::Op::kLbu:
      return raw & 0xff;
    case isa::Op::kLh:
      return static_cast<u32>(
          static_cast<i32>(static_cast<i16>(raw & 0xffff)));
    case isa::Op::kLhu:
      return raw & 0xffff;
    default:
      return raw;
  }
}

void Pipeline::finish_load(Slot& s, u32 raw, Cycle ready_end) {
  write_result(s, extend_load(s.inst, raw), ready_end);
}

u32 Pipeline::compute_alu(const isa::DecodedInst& d) const {
  const u32 a = src_value(d.rs1);
  const u32 b = d.uses_imm ? static_cast<u32>(d.imm) : src_value(d.rs2);
  switch (d.op) {
    case isa::Op::kAdd: return a + b;
    case isa::Op::kSub: return a - b;
    case isa::Op::kAnd: return a & b;
    case isa::Op::kOr: return a | b;
    case isa::Op::kXor: return a ^ b;
    case isa::Op::kSll: return a << (b & 31u);
    case isa::Op::kSrl: return a >> (b & 31u);
    case isa::Op::kSra:
      return static_cast<u32>(static_cast<i32>(a) >> (b & 31u));
    case isa::Op::kSlt:
      return static_cast<i32>(a) < static_cast<i32>(b) ? 1u : 0u;
    case isa::Op::kSltu: return a < b ? 1u : 0u;
    case isa::Op::kMul:
      return static_cast<u32>(static_cast<u64>(a) * static_cast<u64>(b));
    case isa::Op::kMulh:
      return static_cast<u32>(
          (static_cast<i64>(static_cast<i32>(a)) *
           static_cast<i64>(static_cast<i32>(b))) >> 32);
    case isa::Op::kDiv: {
      if (b == 0) return ~u32{0};
      const i64 q = static_cast<i64>(static_cast<i32>(a)) /
                    static_cast<i64>(static_cast<i32>(b));
      return static_cast<u32>(q);
    }
    case isa::Op::kRem: {
      if (b == 0) return a;
      const i64 r = static_cast<i64>(static_cast<i32>(a)) %
                    static_cast<i64>(static_cast<i32>(b));
      return static_cast<u32>(r);
    }
    case isa::Op::kLui:
      return static_cast<u32>(d.imm) << 12;
    default:
      return 0;
  }
}

bool Pipeline::branch_taken(const isa::DecodedInst& d) const {
  const u32 a = src_value(d.rs1);
  const u32 b = src_value(d.rs2);
  switch (d.op) {
    case isa::Op::kBeq: return a == b;
    case isa::Op::kBne: return a != b;
    case isa::Op::kBlt: return static_cast<i32>(a) < static_cast<i32>(b);
    case isa::Op::kBge: return static_cast<i32>(a) >= static_cast<i32>(b);
    case isa::Op::kBltu: return a < b;
    case isa::Op::kBgeu: return a >= b;
    default: return false;
  }
}

void Pipeline::squash_younger_than(Seq seq, Addr new_pc, Cycle now) {
  (void)now;
  for (unsigned st = kF; st <= kRA; ++st) {
    Slot& s = slots_[st];
    if (s.valid && s.seq > seq) {
      chrono_.erase(s.seq);
      ++*c_squashed_;
      if (st == kF && !s.fetch_done && ifetch_inflight_) {
        ifetch_inflight_ = false;
        ifetch_discard_ = true;  // keep polling the L1I until it settles
        ifetch_discard_addr_ = s.pc;
      }
      s.release();
    }
  }
  fetch_pc_ = new_pc;
  fetch_stopped_ = false;  // a wrong-path HALT may have stopped fetch
  redirect_cycle_ = now;   // fetch restarts at the target next cycle
}

void Pipeline::record_all(Cycle now) {
  if (!chrono_.enabled()) return;
  for (unsigned st = kF; st < kNumStages; ++st) {
    Slot& s = slots_[st];
    if (!s.valid) continue;
    if (s.label.empty()) {
      s.label = s.fetch_done ? isa::paper_style(s.inst) : "(fetch)";
    } else if (s.fetch_done && s.label == "(fetch)") {
      s.label = isa::paper_style(s.inst);
    }
    chrono_.record(s.seq, s.label, now, std::string(stage_name(
        static_cast<Stage>(st))));
  }
}

// ---------------------------------------------------------------------------
// Stage processing
// ---------------------------------------------------------------------------

void Pipeline::retire_characterize(const Slot& s) {
  // Watch expiry / consumption for Table II's "% of dependent loads".
  for (DepWatch& w : dep_watch_) {
    if (w.remaining <= 0) continue;
    bool consumes = false;
    for (const auto& src : s.inst.exec_srcs()) {
      if (src.has_value() && *src == w.reg) consumes = true;
    }
    const auto sd = s.inst.store_data_src();
    if (sd.has_value() && *sd == w.reg) consumes = true;
    if (consumes && !w.counted) {
      w.counted = true;
      ++*c_dep_loads_;
    }
    // A redefinition kills the watched value (unless this instruction also
    // consumed it, which we already counted).
    const auto dest = s.inst.dest();
    if (dest.has_value() && *dest == w.reg) {
      w.remaining = 0;
      continue;
    }
    --w.remaining;
  }

  if (s.inst.is_load()) {
    const auto dest = s.inst.dest();
    if (dest.has_value()) {
      // Reuse the expired (or least-recent) watch slot.
      DepWatch* victim = &dep_watch_[0];
      for (DepWatch& w : dep_watch_) {
        if (w.remaining <= 0) {
          victim = &w;
          break;
        }
      }
      *victim = DepWatch{*dest, 2, false, false};
    }
  }
}

void Pipeline::do_retire(Cycle now) {
  (void)now;
  Slot& s = slots_[kWB];
  if (!s.valid) return;
  ++*c_instructions_;
  retire_characterize(s);
  switch (s.inst.cls()) {
    case isa::OpClass::kLoad:
      ++*c_loads_;
      if (s.load_hit) ++*c_load_hits_;
      switch (s.la_outcome) {
        case LookaheadOutcome::kAnticipated: ++*c_la_anticipated_; break;
        case LookaheadOutcome::kDataHazard: ++*c_la_data_hazard_; break;
        case LookaheadOutcome::kResourceHazard: ++*c_la_resource_hazard_; break;
        case LookaheadOutcome::kBranchShadow: ++*c_la_shadow_; break;
        case LookaheadOutcome::kDynamicFallback: ++*c_la_fallback_; break;
        case LookaheadOutcome::kPolicyOff: break;
      }
      break;
    case isa::OpClass::kStore:
      ++*c_stores_;
      break;
    case isa::OpClass::kBranch:
    case isa::OpClass::kJump:
      ++*c_branches_;
      break;
    case isa::OpClass::kHalt:
      halted_ = true;
      break;
    default:
      break;
  }
  s.release();
}

void Pipeline::do_xc(Cycle now) {
  (void)now;
  Slot& s = slots_[kXC];
  if (!s.valid) return;
  // The exception stage reports detected-uncorrectable errors; data loss
  // accounting happens in the DL1 controller. Pass through.
  if (!slots_[kWB].valid) {
    slots_[kWB] = std::move(s);
    s.release();
  }
}

void Pipeline::do_ec(Cycle now) {
  Slot& s = slots_[kEC];
  if (!s.valid) return;
  // The ECC stage: checked load-hit data becomes bypassable at the end of
  // this cycle (Extra Stage / LAEC fallback path).
  if (s.inst.is_load() && s.mem_done && !s.ecc_checked) {
    finish_load(s, s.store_data /*holds raw load value*/, now);
    s.ecc_checked = true;
  }
  if (!slots_[kXC].valid) {
    slots_[kXC] = std::move(s);
    s.release();
  }
}

void Pipeline::do_m(Cycle now) {
  Slot& s = slots_[kM];
  if (!s.valid) return;

  if (!s.mem_done) {
    if (s.inst.is_load()) {
      assert(!s.anticipated && "anticipated loads access DL1 in EX");
      if (!wbuf_.empty()) {
        ++*c_stall_wb_drain_;
        return;
      }
      claim_dl1_port(now);
      const auto reply = dl1_.load(
          s.eff_addr, isa::mem_access_bytes(s.inst.op), now,
          s.forced_mem ? std::optional<bool>(s.forced_hit) : std::nullopt);
      if (!reply.complete) {
        ++*c_stall_miss_;
        return;
      }
      s.mem_done = true;
      s.load_hit = reply.hit;
      if (reply.check == ecc::CheckStatus::kDetectedUncorrectable) {
        ++*c_due_events_;
      }
      if (reply.hit) {
        switch (params_.ecc) {
          case EccPolicy::kNoEcc:
          case EccPolicy::kWtParity:
            // Delivered (and, for WT+parity, detect-checked) within M.
            finish_load(s, reply.value, now);
            s.ecc_checked = true;
            break;
          case EccPolicy::kExtraCycle:
            // The check consumes a second, non-pipelined M cycle.
            s.store_data = reply.value;  // stash raw value
            s.m_extra_cycles = 1;
            break;
          case EccPolicy::kExtraStage:
          case EccPolicy::kLaec:
            // Checked in the EC stage; stash the raw value until then.
            s.store_data = reply.value;
            break;
        }
      } else {
        // Miss: the refill arrived checked from L2/memory — no DL1 ECC
        // penalty in any scheme (paper §III.D).
        finish_load(s, reply.value, now);
        s.ecc_checked = true;
      }
    } else if (s.inst.is_store()) {
      if (!wbuf_.can_push()) {
        wbuf_.note_blocked_push();
        ++*c_stall_wb_full_;
        return;
      }
      mem::PendingStore ps;
      ps.addr = s.eff_addr;
      ps.bytes = isa::mem_access_bytes(s.inst.op);
      ps.value = s.store_data;
      ps.forced = s.forced_mem;
      ps.forced_hit = s.forced_hit;
      wbuf_.push(ps);
      s.mem_done = true;
    } else {
      s.mem_done = true;  // non-memory ops do nothing in M
    }
  } else if (s.m_extra_cycles > 0) {
    // Second M cycle of the Extra Cache Cycle scheme: the check completes
    // at the end of this cycle and the load may then leave M.
    --s.m_extra_cycles;
    if (s.m_extra_cycles > 0) return;
    finish_load(s, s.store_data, now);
    s.ecc_checked = true;
  }

  if (!s.mem_done) return;
  if (s.m_extra_cycles > 0) return;  // first of the two M cycles
  if (s.inst.is_load() && s.anticipated && !s.ecc_checked) {
    // LAEC look-ahead: the SECDED check runs in M, one cycle early — data
    // is bypassable exactly as in the unprotected design.
    finish_load(s, s.store_data, now);
    s.ecc_checked = true;
  }

  // Advance to EC or XC.
  bool want_ec;
  if (!uses_ec_stage()) {
    want_ec = false;
  } else if (params_.ecc == EccPolicy::kExtraStage) {
    want_ec = true;  // rigid 8-stage flow (paper Figs. 4-5)
  } else {
    // LAEC: memory ops traverse the EC slot; others per EccSlotPolicy.
    if (s.inst.is_mem()) {
      want_ec = true;
    } else if (params_.ecc_slot == EccSlotPolicy::kAlways) {
      want_ec = true;
    } else {
      want_ec = slots_[kXC].valid;  // skip when XC is free (Fig. 7a)
    }
  }
  if (want_ec) {
    if (!slots_[kEC].valid) {
      slots_[kEC] = std::move(s);
      s.release();
    }
  } else {
    if (!slots_[kXC].valid) {
      slots_[kXC] = std::move(s);
      s.release();
    } else if (uses_ec_stage() && !slots_[kEC].valid) {
      slots_[kEC] = std::move(s);
      s.release();
    }
  }
}

void Pipeline::do_ex(Cycle now) {
  Slot& s = slots_[kEX];
  if (!s.valid) return;

  if (!s.ex_done) {
    switch (s.inst.cls()) {
      case isa::OpClass::kAlu: {
        if (!s.ex_started) {
          if (!all_exec_srcs_ready(s, now)) {
            // Attribute the stall to its producer kind.
            bool load_block = false;
            for (const auto& src : s.inst.exec_srcs()) {
              if (!src.has_value()) continue;
              const Slot* w = youngest_writer(*src, s.seq);
              if (w != nullptr &&
                  (w->ready_end == kNeverCycle || w->ready_end + 1 > now) &&
                  w->inst.is_load()) {
                load_block = true;
              }
            }
            ++*(load_block ? c_stall_load_use_ : c_stall_operand_);
            return;
          }
          s.ex_started = true;
          s.ex_cycles_left =
              (s.inst.op == isa::Op::kDiv || s.inst.op == isa::Op::kRem)
                  ? params_.div_latency
                  : (s.inst.op == isa::Op::kMul || s.inst.op == isa::Op::kMulh)
                        ? params_.mul_latency
                        : 1;
        }
        --s.ex_cycles_left;
        if (s.ex_cycles_left > 0) return;  // iterative unit occupies EX
        write_result(s, compute_alu(s.inst), now);
        s.ex_done = true;
        break;
      }
      case isa::OpClass::kBranch: {
        if (!all_exec_srcs_ready(s, now)) {
          bool load_block = false;
          for (const auto& src : s.inst.exec_srcs()) {
            if (!src.has_value()) continue;
            const Slot* w = youngest_writer(*src, s.seq);
            if (w != nullptr && w->inst.is_load()) load_block = true;
          }
          ++*(load_block ? c_stall_load_use_ : c_stall_operand_);
          return;
        }
        s.branch_done = true;
        s.branch_resolve_cycle = now;
        s.ex_done = true;
        if (branch_taken(s.inst)) {
          ++*c_taken_;
          squash_younger_than(
              s.seq, s.pc + 4 * static_cast<u32>(s.inst.imm), now);
        }
        break;
      }
      case isa::OpClass::kJump: {
        if (!all_exec_srcs_ready(s, now)) {
          ++*c_stall_operand_;
          return;
        }
        write_result(s, s.pc + 4, now);
        s.branch_done = true;
        s.branch_resolve_cycle = now;
        s.ex_done = true;
        ++*c_taken_;
        const Addr target =
            s.inst.op == isa::Op::kJal
                ? s.pc + 4 * static_cast<u32>(s.inst.imm)
                : (src_value(s.inst.rs1) + static_cast<u32>(s.inst.imm)) & ~3u;
        squash_younger_than(s.seq, target, now);
        break;
      }
      case isa::OpClass::kLoad: {
        if (s.anticipated && !s.mem_done && !s.ex_started) {
          // Dynamic resource check: an older load claimed the port this
          // cycle (stall skew) — fall back to the Extra Stage path.
          if (!dl1_port_free(now)) {
            s.anticipated = false;
            s.la_outcome = LookaheadOutcome::kDynamicFallback;
          } else if (!wbuf_.empty() || dl1_.busy()) {
            // The anticipated access cannot issue this cycle (write buffer
            // draining, or an older transaction holds the blocking DL1).
            // Stalling here in EX would hold the pipe one stage earlier
            // than Extra Stage does — strictly worse. Fall back instead:
            // the M stage will wait out the same conditions, at identical
            // cost to Extra Stage.
            s.anticipated = false;
            s.la_outcome = LookaheadOutcome::kDynamicFallback;
          } else if (const bool probe_hit =
                         s.forced_mem ? s.forced_hit
                                      : dl1_.would_hit(s.eff_addr);
                     !probe_hit) {
            // The EX-stage tag probe misses: cancel the look-ahead and let
            // the Memory stage run the miss exactly as Extra Stage would.
            // (Misses carry no ECC penalty anywhere, §III.D, and keeping
            // miss timing identical preserves the paper's "never slower
            // than Extra Stage" guarantee even through bus arbitration.)
            s.anticipated = false;
            ++*c_la_miss_cancel_;
          } else {
            claim_dl1_port(now);
            const auto reply = dl1_.load(
                s.eff_addr, isa::mem_access_bytes(s.inst.op), now,
                s.forced_mem ? std::optional<bool>(s.forced_hit)
                             : std::nullopt);
            if (!reply.complete) {
              // Tag probe said hit but the access turned into a refetch
              // (parity/SECDED uncorrectable recovery): keep polling the
              // controller from EX.
              s.ex_started = true;
              ++*c_stall_miss_;
              return;
            }
            s.mem_done = true;
            s.load_hit = reply.hit;
            if (reply.check == ecc::CheckStatus::kDetectedUncorrectable) {
              ++*c_due_events_;
            }
            if (reply.hit) {
              s.store_data = reply.value;  // checked next cycle, in M
            } else {
              finish_load(s, reply.value, now);
              s.ecc_checked = true;
            }
            s.ex_done = true;
            break;
          }
        }
        if (s.anticipated && s.ex_started && !s.mem_done) {
          // Polling an anticipated miss started from EX.
          const auto reply = dl1_.load(
              s.eff_addr, isa::mem_access_bytes(s.inst.op), now,
              s.forced_mem ? std::optional<bool>(s.forced_hit) : std::nullopt);
          if (!reply.complete) {
            ++*c_stall_miss_;
            return;
          }
          s.mem_done = true;
          s.load_hit = reply.hit;
          finish_load(s, reply.value, now);
          s.ecc_checked = true;
          s.ex_done = true;
          break;
        }
        if (!s.anticipated) {
          // Normal path: compute the effective address here; the DL1 is
          // accessed from M.
          if (!s.addr_known) {
            if (!all_exec_srcs_ready(s, now)) {
              ++*c_stall_operand_;
              return;
            }
            if (!s.forced_mem) {
              s.eff_addr = src_value(s.inst.rs1) +
                           (s.inst.uses_imm ? static_cast<u32>(s.inst.imm)
                                            : src_value(s.inst.rs2));
            }
            const unsigned bytes = isa::mem_access_bytes(s.inst.op);
            s.eff_addr &= ~static_cast<Addr>(bytes - 1);
            s.addr_known = true;
            train_predictor(s);

            // Stride-predictor extension: the predicted DL1 read happens
            // during this same EX cycle, in parallel with the address add;
            // the comparison below is the (combinational) verification.
            if (s.addr_predicted) {
              const bool match = s.predicted_addr == s.eff_addr;
              const bool issuable =
                  match && dl1_port_free(now) && wbuf_.empty() &&
                  !dl1_.busy() &&
                  (s.forced_mem ? s.forced_hit : dl1_.would_hit(s.eff_addr));
              if (!match) {
                ++*c_pred_wrong_;
              } else if (!issuable) {
                ++*c_pred_blocked_;
              } else {
                claim_dl1_port(now);
                const auto reply = dl1_.load(
                    s.eff_addr, isa::mem_access_bytes(s.inst.op), now,
                    s.forced_mem ? std::optional<bool>(s.forced_hit)
                                 : std::nullopt);
                if (reply.complete) {
                  ++*c_pred_used_;
                  s.anticipated = true;  // SECDED check lands in M
                  s.mem_done = true;
                  s.load_hit = reply.hit;
                  s.store_data = reply.value;
                  if (reply.check ==
                      ecc::CheckStatus::kDetectedUncorrectable) {
                    ++*c_due_events_;
                  }
                }
              }
            }
          }
          s.ex_done = true;
        } else if (s.mem_done) {
          s.ex_done = true;
        }
        break;
      }
      case isa::OpClass::kStore: {
        // Address operands are needed at EX entry; the store datum may
        // arrive through an end-of-cycle bypass (needed at M entry).
        if (!all_exec_srcs_ready(s, now)) {
          ++*c_stall_operand_;
          return;
        }
        const auto sd = s.inst.store_data_src();
        if (sd.has_value() && !operand_ready(*sd, s.seq, now + 1)) {
          const Slot* w = youngest_writer(*sd, s.seq);
          ++*((w != nullptr && w->inst.is_load()) ? c_stall_load_use_
                                                  : c_stall_operand_);
          return;
        }
        if (!s.forced_mem) {
          s.eff_addr = src_value(s.inst.rs1) +
                       (s.inst.uses_imm ? static_cast<u32>(s.inst.imm)
                                        : src_value(s.inst.rs2));
        }
        const unsigned bytes = isa::mem_access_bytes(s.inst.op);
        s.eff_addr &= ~static_cast<Addr>(bytes - 1);
        s.addr_known = true;
        if (sd.has_value()) s.store_data = src_value(*sd);
        s.store_data_latched = true;
        s.ex_done = true;
        break;
      }
      case isa::OpClass::kNop:
      case isa::OpClass::kHalt:
        s.ex_done = true;
        break;
    }
  }

  if (!s.ex_done) return;
  if (!slots_[kM].valid) {
    slots_[kM] = std::move(s);
    s.release();
  } else {
    ++*c_stall_struct_m_;
  }
}

void Pipeline::do_ra(Cycle now) {
  Slot& s = slots_[kRA];
  if (!s.valid) return;

  // LAEC decision point: re-evaluated every RA cycle until dispatch.
  if (params_.ecc == EccPolicy::kLaec && s.inst.is_load() && !s.anticipated) {
    const auto d = lookahead_->decide(*this, s.seq, now);
    s.la_outcome = d.outcome;
    if (d.anticipate) {
      s.anticipated = true;
      s.addr_predicted = false;
      if (!s.forced_mem) {
        // The RA-stage adder computes the address one cycle early, using
        // the two extra register-file ports / existing bypasses (Fig. 6).
        s.eff_addr = src_value(s.inst.rs1) +
                     (s.inst.uses_imm ? static_cast<u32>(s.inst.imm)
                                      : src_value(s.inst.rs2));
      }
      const unsigned bytes = isa::mem_access_bytes(s.inst.op);
      s.eff_addr &= ~static_cast<Addr>(bytes - 1);
      s.addr_known = true;
      train_predictor(s);
    } else if (predictor_ != nullptr && !s.addr_predicted &&
               d.outcome == LookaheadOutcome::kDataHazard) {
      // Extension: the exact look-ahead is blocked, but a confident stride
      // prediction can still drive an early (EX-stage) DL1 read, verified
      // against the real address in the same cycle.
      const auto predicted = predictor_->predict(s.pc);
      if (predicted.has_value()) {
        s.addr_predicted = true;
        const unsigned bytes = isa::mem_access_bytes(s.inst.op);
        s.predicted_addr = *predicted & ~static_cast<Addr>(bytes - 1);
      }
    }
  }

  if (!slots_[kEX].valid) {
    slots_[kEX] = std::move(s);
    s.release();
  }
}

void Pipeline::do_d(Cycle now) {
  (void)now;
  Slot& s = slots_[kD];
  if (!s.valid) return;
  if (!slots_[kRA].valid) {
    slots_[kRA] = std::move(s);
    s.release();
  }
}

void Pipeline::do_f(Cycle now) {
  Slot& s = slots_[kF];
  if (s.valid) {
    // An instruction parked in F: either still fetching (L1I miss) or
    // waiting for D to free up.
    if (!s.fetch_done) {
      assert(l1i_ != nullptr);
      const auto reply = l1i_->fetch(s.pc, now);
      if (!reply.complete) {
        ++*c_stall_imiss_;
        return;
      }
      s.inst = isa::decode(reply.word);
      s.fetch_done = true;
      ifetch_inflight_ = false;
      if (chrono_.enabled()) s.label = isa::paper_style(s.inst);
      if (s.inst.op == isa::Op::kHalt) fetch_stopped_ = true;
    }
    if (slots_[kD].valid) return;  // D stalled; hold in F
    slots_[kD] = std::move(s);
    s.release();
    return;  // F freed at end of cycle; the next fetch starts next cycle
  }

  if (fetch_stopped_ || halted_) return;
  if (redirect_cycle_ == now) return;  // redirect lands; fetch resumes next cycle

  // Drain a discarded (squashed) in-flight instruction fetch first.
  if (ifetch_discard_) {
    assert(l1i_ != nullptr);
    const auto reply = l1i_->fetch(ifetch_discard_addr_, now);
    if (!reply.complete) return;
    ifetch_discard_ = false;
    return;  // one dead cycle to restart fetch at the redirect target
  }

  Slot ns;
  ns.valid = true;
  ns.seq = next_seq_++;
  ns.pc = fetch_pc_;

  if (trace_ != nullptr) {
    auto op = trace_->next();
    if (!op.has_value()) {
      fetch_stopped_ = true;
      --next_seq_;
      return;
    }
    ns.inst = op->inst;
    ns.fetch_done = true;
    ns.forced_mem = op->forced_mem;
    ns.forced_hit = op->forced_hit;
    ns.eff_addr = op->eff_addr;
    fetch_pc_ += 4;
    if (ns.inst.op == isa::Op::kHalt) fetch_stopped_ = true;
  } else {
    const auto reply = l1i_->fetch(ns.pc, now);
    fetch_pc_ += 4;
    if (reply.complete) {
      ns.inst = isa::decode(reply.word);
      ns.fetch_done = true;
      if (ns.inst.op == isa::Op::kHalt) fetch_stopped_ = true;
    } else {
      ifetch_inflight_ = true;
      ++*c_stall_imiss_;
    }
  }

  if (chrono_.enabled()) {
    ns.label = ns.fetch_done ? isa::paper_style(ns.inst) : "(fetch)";
    chrono_.record(ns.seq, ns.label, now, "F");
  }
  // The instruction occupies F *this* cycle; if it already has its word and
  // D is free it advances at the end of the cycle (D next cycle), keeping
  // one-instruction-per-cycle fetch throughput.
  if (ns.fetch_done && !slots_[kD].valid) {
    slots_[kD] = std::move(ns);
  } else {
    slots_[kF] = std::move(ns);
  }
}

bool Pipeline::cycle(Cycle now) {
  if (halted_) return false;
  ++*c_cycles_;
  if (params_.max_cycles != 0 && *c_cycles_ > params_.max_cycles) {
    halted_ = true;
    return false;
  }

  record_all(now);

  do_retire(now);
  if (halted_) return false;
  do_xc(now);
  do_ec(now);
  do_m(now);
  do_ex(now);
  do_ra(now);
  do_d(now);
  do_f(now);

  if (fetch_stopped_) {
    bool any = false;
    for (const Slot& s : slots_) any = any || s.valid;
    if (!any) halted_ = true;
  }
  return !halted_;
}

}  // namespace laec::cpu
