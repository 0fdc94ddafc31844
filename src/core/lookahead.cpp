#include "core/lookahead.hpp"

namespace laec::core {

using cpu::LookaheadOutcome;
using cpu::Pipeline;

LookaheadDecision LookaheadUnit::decide(const Pipeline& pipe, Seq load_seq,
                                        Cycle ra_cycle) const {
  LookaheadDecision d;
  if (params_.ecc != cpu::EccPolicy::kLaec) {
    d.outcome = LookaheadOutcome::kPolicyOff;
    return d;
  }
  const Pipeline::Slot* load = pipe.find_seq(load_seq);
  if (load == nullptr || !load->inst.is_load()) {
    d.outcome = LookaheadOutcome::kPolicyOff;
    return d;
  }

  // Optional conservative rule: no early address generation in the shadow
  // of an unresolved branch (only a distance-1 branch can still be
  // unresolved while the load is in RA).
  if (!params_.lookahead_under_branch_shadow) {
    // A branch resolving in EX produces its outcome at the *end* of the
    // cycle; the RA-stage logic working during the same cycle must treat
    // it as unresolved. The simulator processes EX before RA (and may have
    // already advanced the branch into M), so scan all older in-flight
    // branches for one still unresolved or resolved only this cycle.
    for (unsigned st = cpu::kF; st < cpu::kNumStages; ++st) {
      const Pipeline::Slot& b = pipe.slot(st);
      if (b.valid && b.seq < load_seq && b.inst.is_branch() &&
          (!b.branch_done || b.branch_resolve_cycle >= ra_cycle)) {
        d.outcome = LookaheadOutcome::kBranchShadow;
        return d;
      }
    }
  }

  // Data hazard: every address source must be ready one cycle earlier than
  // a normal load would need it — i.e. by the end of cycle ra_cycle-1, so
  // the RA-stage adder can consume it during ra_cycle.
  for (const auto& src : load->inst.exec_srcs()) {
    if (!src.has_value()) continue;
    if (!pipe.operand_ready(*src, *load, ra_cycle)) {
      d.outcome = LookaheadOutcome::kDataHazard;
      return d;
    }
  }

  const Pipeline::Slot* prev =
      load_seq == 0 ? nullptr : pipe.find_seq(load_seq - 1);

  if (params_.hazard_rule == cpu::HazardRule::kPaperLiteral) {
    // Paper-literal add-on: "when the instruction prior to the load
    // produces the address register of the load, we cannot anticipate".
    // Applied even if bubbles mean the value would actually arrive in time.
    if (prev != nullptr && prev->valid) {
      const auto dest = prev->inst.dest();
      if (dest.has_value()) {
        for (const auto& src : load->inst.exec_srcs()) {
          if (src.has_value() && *src == *dest) {
            d.outcome = LookaheadOutcome::kDataHazard;
            return d;
          }
        }
      }
    }
  }

  // Resource hazard: the previous instruction is a non-anticipated load
  // about to occupy the DL1 port from its Memory stage in exactly the cycle
  // our anticipated Execute-stage read would need it (lockstep case). At
  // evaluation time it is either still in EX, or already moved into M this
  // cycle with its access still ahead of it (the simulator processes EX
  // before RA, so "in M, access not yet performed" is the same lockstep
  // situation). Residual collisions from stall skew are caught dynamically
  // at EX entry.
  if (prev != nullptr && prev->valid && prev->inst.is_load() &&
      !prev->anticipated) {
    const auto st = pipe.stage_of(prev);
    if (st == cpu::kEX || (st == cpu::kM && !prev->mem_done)) {
      d.outcome = LookaheadOutcome::kResourceHazard;
      return d;
    }
  }

  d.anticipate = true;
  d.outcome = LookaheadOutcome::kAnticipated;
  return d;
}

}  // namespace laec::core
