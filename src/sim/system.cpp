#include "sim/system.hpp"

#include <cassert>
#include <stdexcept>

namespace laec::sim {

Core::Core(unsigned id, const CoreConfig& cfg, mem::Bus& bus,
           cpu::TraceSource* trace)
    : id_(id), wbuf_(cfg.wbuf), trace_mode_(trace != nullptr) {
  dl1_ = std::make_unique<mem::DL1Controller>(cfg.dl1, bus, id);
  if (!trace_mode_) {
    l1i_ = std::make_unique<mem::L1IController>(cfg.l1i, bus, id);
  }
  pipe_ = std::make_unique<cpu::Pipeline>(cfg.pipeline, *dl1_, l1i_.get(),
                                          wbuf_, trace);
}

void Core::tick(Cycle now) {
  if (!pipe_->halted()) pipe_->cycle(now);

  // Write-buffer drain: one store progresses whenever the DL1 port was not
  // claimed by a load this cycle. Loads never overlap a drain because they
  // wait for the buffer to be empty (paper §III.B).
  if (!wbuf_.empty() && !pipe_->dl1_port_claimed(now)) {
    const mem::PendingStore& ps = wbuf_.front();
    const auto reply =
        dl1_->store(ps.addr, ps.bytes, ps.value, now,
                    ps.forced ? std::optional<bool>(ps.forced_hit)
                              : std::nullopt);
    if (reply.complete) wbuf_.pop();
  }
}

System::System(const SystemConfig& cfg, cpu::TraceSource* trace) : cfg_(cfg) {
  if (cfg.num_cores == 0) {
    throw std::invalid_argument("a system needs at least one core");
  }
  mem::MemorySystemParams mp = cfg.memsys;
  mp.num_requesters =
      cfg.num_cores + static_cast<unsigned>(cfg.traffic.size());
  memsys_ = std::make_unique<mem::MemorySystem>(mp);
  for (unsigned i = 0; i < cfg.num_cores; ++i) {
    cores_.push_back(std::make_unique<Core>(i, cfg.core, memsys_->bus(),
                                            i == 0 ? trace : nullptr));
  }
  for (std::size_t i = 0; i < cfg.traffic.size(); ++i) {
    traffic_.push_back(std::make_unique<TrafficGenerator>(
        cfg.num_cores + static_cast<unsigned>(i), memsys_->bus(),
        cfg.traffic[i]));
  }
}

void System::load_program(const isa::Program& p, unsigned core_id) {
  mem::MainMemory& m = memsys_->memory();
  for (std::size_t i = 0; i < p.text.size(); ++i) {
    m.write_u32(p.text_base + static_cast<Addr>(4 * i), p.text[i]);
  }
  for (std::size_t i = 0; i < p.data.size(); ++i) {
    m.write_u8(p.data_base + static_cast<Addr>(i), p.data[i]);
  }
  cores_[core_id]->start(p.entry);
}

void System::tick() {
  for (auto& c : cores_) c->tick(now_);
  for (auto& t : traffic_) t->tick(now_);
  memsys_->tick(now_);
  ++now_;
  flushed_ = false;  // simulation resumed; memory is no longer final
}

System::RunResult System::run(unsigned core_id) {
  RunResult r;
  while (!cores_[core_id]->halted() && now_ < cfg_.max_cycles) {
    tick();
  }
  r.completed = cores_[core_id]->halted();
  r.cycles = cores_[core_id]->pipeline().stats().value("cycles");
  return r;
}

void System::flush_all() {
  // Flushing is idempotent — after one pass every line is clean, the write
  // buffers are empty and the pending-writeback copies are retired — so a
  // repeat call (the self-check loop reads hundreds of words back to back)
  // would only re-walk every cache array to find nothing. Skip it until
  // the simulation advances again.
  if (flushed_) return;
  flushed_ = true;
  mem::MainMemory& m = memsys_->memory();
  // Age order, oldest copies first: L2 dirty lines, then dirty evictions
  // whose bus writeback is still in flight, then resident dirty DL1 lines,
  // and finally stores still sitting in the write buffers (a halted core
  // may stop simulating before its last stores drain).
  memsys_->flush_l2();
  for (auto& c : cores_) {
    const auto line_sink = [&](Addr base, const u8* data) {
      m.write_block(base, data, c->dl1().cache().line_bytes());
    };
    c->dl1().flush_pending_writeback(line_sink);
    c->dl1().flush_dirty(line_sink);
    while (!c->wbuf().empty()) {
      const mem::PendingStore& s = c->wbuf().front();
      switch (s.bytes) {
        case 1: m.write_u8(s.addr, static_cast<u8>(s.value)); break;
        case 2: m.write_u16(s.addr, static_cast<u16>(s.value)); break;
        default: m.write_u32(s.addr, s.value); break;
      }
      c->wbuf().pop();
    }
  }
}

u32 System::read_word_final(Addr a) {
  flush_all();
  return memsys_->memory().read_u32(a);
}

}  // namespace laec::sim
