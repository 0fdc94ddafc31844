#include "mem/hierarchy.hpp"

#include <cassert>

namespace laec::mem {

MemorySystem::MemorySystem(const MemorySystemParams& params)
    : params_(params), l2_(params.l2.cache) {
  bus_ = std::make_unique<Bus>(params.bus, *this, params.num_requesters);
  n_l2_refetch_ = &stats_.counter("l2_refetches");
  n_l2_data_loss_ = &stats_.counter("l2_data_loss_events");
  n_l2_unrecovered_ = &stats_.counter("l2_unrecovered_reads");
}

unsigned MemorySystem::ensure_l2_line(Addr a) {
  if (l2_.contains(a)) return 0;
  const Addr base = l2_.line_base(a);
  refill_buf_.resize(l2_.line_bytes());  // no-op after the first miss
  memory_.read_block(base, refill_buf_.data(), l2_.line_bytes());
  auto ev = l2_.fill(base, refill_buf_.data(), /*dirty=*/false);
  unsigned extra = params_.l2.memory_cycles + params_.l2.refill_cycles;
  if (ev.has_value() && ev->dirty) {
    memory_.write_block(ev->line_addr, ev->data.data(),
                        static_cast<unsigned>(ev->data.size()));
    // The dirty victim's writeback overlaps the refill on real systems;
    // we charge the array write only.
    extra += params_.l2.write_cycles;
  }
  return extra;
}

WordRead MemorySystem::read_l2_word(Addr a, unsigned& lat) {
  SetAssocCache::LineRef line = l2_.find_line(a);
  WordRead w = l2_.read(line, a, 4);
  // Recovery on a detected error: drop the line and refetch the copy in
  // memory. For an uncorrectable error on a CLEAN line that copy is good
  // (lossless, like the L1 parity refetch); on a DIRTY line the writeback
  // data exists nowhere else — the refetch restores a stale image and the
  // event is logged as data loss (what a safety-critical system reports as
  // a DUE). Under kInvalidateRefetch even corrected clean words are
  // re-fetched rather than trusted. A fresh fault can strike the refetched
  // word too (random storms inject per access), so recovery loops — the
  // cap only bounds the pathological always-struck case, where the last
  // read's status is surfaced to the caller rather than retried forever.
  for (int attempt = 0; attempt < 4; ++attempt) {
    if (!needs_refetch(w.check, l2_.config().recovery, line.dirty())) {
      break;
    }
    if (w.check == ecc::CheckStatus::kDetectedUncorrectable &&
        line.dirty()) {
      ++*n_l2_data_loss_;
    }
    ++*n_l2_refetch_;
    l2_.invalidate(line);
    lat += ensure_l2_line(a);
    line = l2_.find_line(a);
    w = l2_.read(line, a, 4);
  }
  if (needs_refetch(w.check, l2_.config().recovery, line.dirty())) {
    // Every retry was re-struck (only reachable under pathological
    // injection rates): the word goes out as read, and the event is
    // accounted so the corruption is never mistaken for a clean serve.
    ++*n_l2_unrecovered_;
  }
  return w;
}

unsigned MemorySystem::service(BusTransaction& t) {
  switch (t.op) {
    case BusOp::kReadLine: {
      // Serve the requester's line size (L1 lines may be smaller or larger
      // than L2 lines); every spanned L2 line is made resident first.
      unsigned lat = params_.l2.hit_cycles;
      const u32 n = t.bytes >= 4 ? t.bytes : l2_.line_bytes();
      t.line.resize(n);
      // Read through the protected array word by word so the L2 codec (and
      // any injected L2 faults) take effect.
      for (u32 off = 0; off < n; off += 4) {
        lat += ensure_l2_line(t.addr + off);
        const WordRead w = read_l2_word(t.addr + off, lat);
        t.line[off + 0] = static_cast<u8>(w.value & 0xff);
        t.line[off + 1] = static_cast<u8>((w.value >> 8) & 0xff);
        t.line[off + 2] = static_cast<u8>((w.value >> 16) & 0xff);
        t.line[off + 3] = static_cast<u8>((w.value >> 24) & 0xff);
      }
      return lat;
    }
    case BusOp::kWriteLine: {
      // Dirty L1 eviction. When the payload exactly covers an L2 line,
      // write-validate: a full-line overwrite needs no memory fetch even
      // on an L2 miss. Otherwise merge through resident lines.
      unsigned lat = params_.l2.write_cycles;
      const u32 n = static_cast<u32>(t.line.size());
      if (n == l2_.line_bytes() && !l2_.contains(t.addr)) {
        auto ev = l2_.fill(t.addr, t.line.data(), /*dirty=*/true);
        if (ev.has_value() && ev->dirty) {
          memory_.write_block(ev->line_addr, ev->data.data(),
                              static_cast<unsigned>(ev->data.size()));
          lat += params_.l2.write_cycles;
        }
        return lat;
      }
      for (u32 off = 0; off < n; off += 4) {
        lat += ensure_l2_line(t.addr + off);
        u32 v = static_cast<u32>(t.line[off]) |
                (static_cast<u32>(t.line[off + 1]) << 8) |
                (static_cast<u32>(t.line[off + 2]) << 16) |
                (static_cast<u32>(t.line[off + 3]) << 24);
        l2_.write(t.addr + off, 4, v, /*mark_dirty=*/true);
      }
      return lat;
    }
    case BusOp::kWriteWord: {
      // Write-through store. The L2 is write-back write-allocate.
      unsigned lat = params_.l2.write_cycles;
      lat += ensure_l2_line(t.addr);
      l2_.write(t.addr, t.bytes, t.value, /*mark_dirty=*/true);
      return lat;
    }
  }
  assert(false && "unreachable");
  return 0;
}

void MemorySystem::flush_l2() {
  l2_.flush_dirty([this](Addr base, const u8* data) {
    memory_.write_block(base, data, l2_.line_bytes());
  });
}

}  // namespace laec::mem
