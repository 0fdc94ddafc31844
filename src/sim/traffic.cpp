#include "sim/traffic.hpp"

namespace laec::sim {

TrafficGenerator::TrafficGenerator(unsigned requester_id, mem::Bus& bus,
                                   const TrafficPattern& pattern)
    : id_(requester_id), bus_(bus), pattern_(pattern) {}

void TrafficGenerator::tick(Cycle now) {
  if (pending_) {
    if (bus_.done(token_)) {
      bus_.take(token_);
      pending_ = false;
      ++completed_;
      next_submit_ = now + pattern_.gap_cycles;
    }
    return;
  }
  if (now < next_submit_) return;
  mem::BusTransaction t;
  t.requester = id_;
  t.op = pattern_.op;
  t.addr = pattern_.base + cursor_;
  if (t.op == mem::BusOp::kWriteLine) {
    t.line.assign(32, 0xa5);
  } else if (t.op == mem::BusOp::kWriteWord) {
    t.bytes = 4;
    t.value = 0xdeadbeef;
  }
  cursor_ = (cursor_ + pattern_.stride) % pattern_.footprint_bytes;
  token_ = bus_.submit(std::move(t), now);
  pending_ = true;
}

}  // namespace laec::sim
