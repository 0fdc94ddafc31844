#include "mem/l1.hpp"

#include <cassert>

namespace laec::mem {

// ---------------------------------------------------------------------------
// DL1Controller
// ---------------------------------------------------------------------------

DL1Controller::DL1Controller(const L1Params& params, Bus& bus,
                             unsigned core_id)
    : params_(params), bus_(bus), core_id_(core_id), cache_(params.cache) {
  n_loads_ = &stats_.counter("loads");
  n_load_hits_ = &stats_.counter("load_hits");
  n_stores_ = &stats_.counter("stores");
  n_store_hits_ = &stats_.counter("store_hits");
  n_parity_refetch_ = &stats_.counter("parity_refetches");
  n_data_loss_ = &stats_.counter("data_loss_events");
}

bool DL1Controller::would_hit(Addr a) const { return cache_.contains(a); }

void DL1Controller::start_read_line(Addr a, Cycle now, State next) {
  BusTransaction t;
  t.requester = core_id_;
  t.op = BusOp::kReadLine;
  t.addr = cache_.line_base(a);
  t.bytes = cache_.line_bytes();
  token_ = bus_.submit(std::move(t), now);
  token_live_ = true;
  miss_addr_ = a;
  state_ = next;
}

void DL1Controller::finish_fill(Cycle now) {
  BusTransaction t = bus_.take(token_);
  token_live_ = false;
  assert(t.line.size() == cache_.line_bytes());
  auto ev = cache_.fill(t.addr, t.line.data(), /*dirty=*/false);
  if (ev.has_value() && ev->dirty) {
    BusTransaction wb;
    wb.requester = core_id_;
    wb.op = BusOp::kWriteLine;
    wb.addr = ev->line_addr;
    wb.line = ev->data;
    pending_evict_copy_.emplace(ev->line_addr, std::move(ev->data));
    wb_token_ = bus_.submit(std::move(wb), now);
    wb_live_ = true;
  }
}

L1LoadReply DL1Controller::load(Addr a, unsigned bytes, Cycle now,
                                std::optional<bool> forced_hit) {
  L1LoadReply r;

  // Retire a completed eviction writeback opportunistically.
  if (wb_live_ && bus_.done(wb_token_)) {
    bus_.take(wb_token_);
    wb_live_ = false;
    pending_evict_copy_.reset();  // safely in the L2 now
  }

  if (params_.oracle.enabled) {
    switch (state_) {
      case State::kIdle: {
        ++*n_loads_;
        const bool hit = forced_hit.value_or(true);
        if (hit) {
          ++*n_load_hits_;
          r.complete = true;
          r.hit = true;
          return r;
        }
        state_ = State::kOracleMiss;
        oracle_done_ = now + params_.oracle.miss_cycles;
        return r;
      }
      case State::kOracleMiss:
        if (now >= oracle_done_) {
          state_ = State::kIdle;
          r.complete = true;
          r.hit = false;
        }
        return r;
      default:
        return r;
    }
  }

  switch (state_) {
    case State::kIdle: {
      if (SetAssocCache::LineRef line = cache_.find_line(a)) {
        WordRead w = cache_.read(line, a, bytes);
        // Parity (or SECDED double error): recover by refetch. A dirty
        // line has no clean copy anywhere -> data loss event.
        if (needs_refetch(w.check, params_.cache.recovery, line.dirty())) {
          if (w.check == ecc::CheckStatus::kDetectedUncorrectable &&
              line.dirty()) {
            ++*n_data_loss_;
          }
          ++*n_parity_refetch_;
          cache_.invalidate(line);
          ++*n_loads_;  // counts as a (miss) access
          start_read_line(a, now, State::kLoadMiss);
          return r;
        }
        ++*n_loads_;
        ++*n_load_hits_;
        r.complete = true;
        r.hit = true;
        r.value = w.value;
        r.check = w.check;
        return r;
      }
      // A pending dirty-eviction writeback must finish before a new miss
      // can use the transaction slot.
      if (wb_live_) return r;
      ++*n_loads_;
      start_read_line(a, now, State::kLoadMiss);
      return r;
    }
    case State::kLoadMiss: {
      if (bus_.done(token_)) {
        finish_fill(now);
        state_ = State::kIdle;
        SetAssocCache::LineRef line = cache_.find_line(a);
        WordRead w = cache_.read(line, a, bytes);
        // The freshly refilled line is clean, but a new fault can strike
        // this very read — apply the same recovery as the hit path: drop
        // the line and let the next poll replay the miss.
        if (needs_refetch(w.check, params_.cache.recovery, line.dirty())) {
          ++*n_parity_refetch_;
          cache_.invalidate(line);
          return r;
        }
        r.complete = true;
        r.hit = false;
        r.value = w.value;
        r.check = w.check;
      }
      return r;
    }
    default:
      return r;  // store machinery busy; caller keeps polling
  }
}

L1StoreReply DL1Controller::store(Addr a, unsigned bytes, u32 value, Cycle now,
                                  std::optional<bool> forced_hit) {
  L1StoreReply r;

  if (wb_live_ && bus_.done(wb_token_)) {
    bus_.take(wb_token_);
    wb_live_ = false;
    pending_evict_copy_.reset();  // safely in the L2 now
  }

  if (params_.oracle.enabled) {
    switch (state_) {
      case State::kIdle: {
        ++*n_stores_;
        const bool hit = forced_hit.value_or(true);
        if (hit) {
          ++*n_store_hits_;
          r.complete = true;
          r.hit = true;
          return r;
        }
        state_ = State::kOracleMiss;
        oracle_done_ = now + params_.oracle.miss_cycles;
        return r;
      }
      case State::kOracleMiss:
        if (now >= oracle_done_) {
          state_ = State::kIdle;
          r.complete = true;
        }
        return r;
      default:
        return r;
    }
  }

  const bool write_through =
      params_.cache.write_policy == WritePolicy::kWriteThrough;

  switch (state_) {
    case State::kIdle: {
      if (write_through) {
        // Update the local copy when present (clean), then post the word
        // write to the L2 over the bus.
        ++*n_stores_;
        if (SetAssocCache::LineRef line = cache_.find_line(a)) {
          ++*n_store_hits_;
          cache_.write(line, a, bytes, value, /*mark_dirty=*/false);
        }
        BusTransaction t;
        t.requester = core_id_;
        t.op = BusOp::kWriteWord;
        t.addr = a;
        t.bytes = bytes;
        t.value = value;
        token_ = bus_.submit(std::move(t), now);
        token_live_ = true;
        state_ = State::kWriteThrough;
        return r;
      }
      // Write-back, write-allocate.
      if (SetAssocCache::LineRef line = cache_.find_line(a)) {
        ++*n_stores_;
        ++*n_store_hits_;
        cache_.write(line, a, bytes, value, /*mark_dirty=*/true);
        r.complete = true;
        r.hit = true;
        return r;
      }
      if (wb_live_) return r;  // wait for eviction slot
      ++*n_stores_;
      start_read_line(a, now, State::kStoreMiss);
      return r;
    }
    case State::kStoreMiss: {
      if (bus_.done(token_)) {
        finish_fill(now);
        cache_.write(a, bytes, value, /*mark_dirty=*/true);
        state_ = State::kIdle;
        r.complete = true;
        r.hit = false;
      }
      return r;
    }
    case State::kWriteThrough: {
      if (bus_.done(token_)) {
        bus_.take(token_);
        token_live_ = false;
        state_ = State::kIdle;
        r.complete = true;
        r.hit = true;
      }
      return r;
    }
    default:
      return r;
  }
}

// ---------------------------------------------------------------------------
// L1IController
// ---------------------------------------------------------------------------

namespace {

/// The instruction cache is architecturally read-only: no store path, no
/// dirty lines, invalidate-and-refetch as the only recovery. Enforced in
/// the array itself so a stray write throws instead of corrupting state.
L1Params read_only_l1i(L1Params p) {
  p.cache.read_only = true;
  return p;
}

}  // namespace

L1IController::L1IController(const L1Params& params, Bus& bus,
                             unsigned core_id)
    : params_(read_only_l1i(params)),
      bus_(bus),
      core_id_(core_id),
      cache_(params_.cache) {
  n_fetches_ = &stats_.counter("fetches");
  n_hits_ = &stats_.counter("hits");
  n_parity_refetch_ = &stats_.counter("parity_refetches");
}

L1IController::FetchReply L1IController::fetch(Addr a, Cycle now) {
  FetchReply r;
  if (!miss_pending_) {
    if (SetAssocCache::LineRef line = cache_.find_line(a)) {
      WordRead w = cache_.read(line, a, 4);
      if (needs_refetch(w.check, params_.cache.recovery,
                        /*line_dirty=*/false)) {
        // Instruction lines are always clean: recover by refetch (the only
        // path — the array rejects in-place writes).
        ++*n_parity_refetch_;
        cache_.invalidate(line);
      } else {
        ++*n_fetches_;
        ++*n_hits_;
        r.complete = true;
        r.hit = true;
        r.word = w.value;
        return r;
      }
    }
    ++*n_fetches_;
    BusTransaction t;
    t.requester = core_id_;
    t.op = BusOp::kReadLine;
    t.addr = cache_.line_base(a);
    t.bytes = cache_.line_bytes();
    token_ = bus_.submit(std::move(t), now);
    miss_pending_ = true;
    miss_addr_ = a;
    return r;
  }
  if (bus_.done(token_)) {
    BusTransaction t = bus_.take(token_);
    cache_.fill(t.addr, t.line.data(), /*dirty=*/false);
    miss_pending_ = false;
    SetAssocCache::LineRef line = cache_.find_line(a);
    WordRead w = cache_.read(line, a, 4);
    // A fault can strike the post-refill read itself; recover exactly like
    // the hit path (drop the line, replay the fetch as a fresh miss)
    // rather than handing a known-bad instruction word to the pipeline.
    if (needs_refetch(w.check, params_.cache.recovery,
                      /*line_dirty=*/false)) {
      ++*n_parity_refetch_;
      cache_.invalidate(line);
      return r;
    }
    r.complete = true;
    r.hit = false;
    r.word = w.value;
  }
  return r;
}

}  // namespace laec::mem
