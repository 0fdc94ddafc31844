#include "mem/bus.hpp"

#include <cassert>

namespace laec::mem {

Bus::Bus(const BusParams& params, BusTarget& target, unsigned num_requesters)
    : params_(params), target_(target), num_requesters_(num_requesters) {
  queues_.resize(num_requesters);
  n_transactions_ = &stats_.counter("transactions");
  busy_cycles_ = &stats_.counter("busy_cycles");
  wait_cycles_ = &stats_.counter("wait_cycles");
}

Bus::Token Bus::submit(BusTransaction t, Cycle now) {
  assert(t.requester < num_requesters_);
  t.submitted_at = now;
  Token tok;
  // Reuse a dead slot when available to bound memory in long runs.
  for (tok = 0; tok < slots_.size(); ++tok) {
    if (!slots_[static_cast<std::size_t>(tok)].live) break;
  }
  if (tok == slots_.size()) slots_.emplace_back();
  Slot& slot = slots_[static_cast<std::size_t>(tok)];
  slot.live = true;
  slot.txn = std::move(t);
  queues_[slot.txn.requester].push_back(tok);
  ++queued_;
  return tok;
}

bool Bus::done(Token token) const {
  assert(slots_.at(static_cast<std::size_t>(token)).live);
  return slots_[static_cast<std::size_t>(token)].txn.done;
}

const BusTransaction& Bus::peek(Token token) const {
  assert(slots_.at(static_cast<std::size_t>(token)).live);
  return slots_[static_cast<std::size_t>(token)].txn;
}

BusTransaction Bus::take(Token token) {
  assert(slots_.at(static_cast<std::size_t>(token)).live);
  Slot& slot = slots_[static_cast<std::size_t>(token)];
  assert(slot.txn.done);
  slot.live = false;
  return std::move(slot.txn);
}

void Bus::advance(Cycle now) {
  if (active_ != kNoToken) {
    ++*busy_cycles_;
    BusTransaction& t = slots_[static_cast<std::size_t>(active_)].txn;
    if (now >= t.completes_at) {
      t.done = true;
      active_ = kNoToken;
    } else {
      return;
    }
  }
  if (queued_ == 0) return;
  // Round-robin grant among requesters with pending work.
  for (unsigned i = 0; i < num_requesters_; ++i) {
    const unsigned r = (rr_next_ + i) % num_requesters_;
    if (queues_[r].empty()) continue;
    const Token tok = queues_[r].front();
    queues_[r].pop_front();
    --queued_;
    rr_next_ = (r + 1) % num_requesters_;

    BusTransaction& t = slots_[static_cast<std::size_t>(tok)].txn;
    t.granted_at = now;
    *wait_cycles_ += now - t.submitted_at;
    ++*n_transactions_;
    u64*& op_count = op_counters_[static_cast<std::size_t>(t.op)];
    if (op_count == nullptr) [[unlikely]] {
      op_count = &stats_.counter(t.op == BusOp::kReadLine    ? "read_line"
                                 : t.op == BusOp::kWriteLine ? "write_line"
                                                             : "write_word");
    }
    ++*op_count;
    // Data movement happens at grant time; the transaction then occupies
    // the bus for its full latency. With blocking requesters this is
    // indistinguishable from movement-at-completion.
    const unsigned service = target_.service(t);
    const unsigned total =
        params_.request_cycles + service + params_.response_cycles;
    t.completes_at = now + total;
    active_ = tok;
    ++*busy_cycles_;
    return;
  }
}

}  // namespace laec::mem
