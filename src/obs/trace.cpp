#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <utility>

namespace laec::obs {
namespace {

/// Minimal JSON string escaper (same rules as the JSONL sink: quote,
/// backslash, and control characters; everything else passes through).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

u32 trace_thread_id() {
  static std::atomic<u32> next{0};
  thread_local u32 id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void Tracer::enable(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  ring_.clear();
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
  head_ = 0;
  total_ = 0;
  epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_release);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_release); }

u64 Tracer::now_us() const {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - epoch_)
                              .count());
}

void Tracer::record(TraceEvent ev) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(ev));
    return;
  }
  // Flight-recorder overwrite: replace the oldest event.
  ring_[head_] = std::move(ev);
  head_ = (head_ + 1) % capacity_;
}

void Tracer::instant(std::string name, std::vector<TraceArg> args) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name = std::move(name);
  ev.phase = 'i';
  ev.ts_us = now_us();
  ev.tid = trace_thread_id();
  ev.args = std::move(args);
  record(std::move(ev));
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // Oldest-first: once the ring wrapped, head_ is the oldest slot.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

u64 Tracer::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

u64 Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_ - ring_.size();
}

std::string event_to_json(const TraceEvent& ev) {
  std::string out = "{\"name\":\"" + json_escape(ev.name) +
                    "\",\"cat\":\"laec\",\"ph\":\"";
  out += ev.phase;
  out += "\",\"ts\":" + std::to_string(ev.ts_us);
  if (ev.phase == 'X') {
    out += ",\"dur\":" + std::to_string(ev.dur_us);
  }
  if (ev.phase == 'i') {
    out += ",\"s\":\"t\"";  // instant scope: thread
  }
  out += ",\"pid\":0,\"tid\":" + std::to_string(ev.tid);
  if (!ev.args.empty()) {
    out += ",\"args\":{";
    bool first = true;
    for (const TraceArg& a : ev.args) {
      if (!first) out += ',';
      first = false;
      out += '"';
      out += json_escape(a.key);
      out += "\":";
      if (a.is_num) {
        out += std::to_string(a.num);
      } else {
        out += '"';
        out += json_escape(a.str);
        out += '"';
      }
    }
    out += '}';
  }
  out += '}';
  return out;
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  const std::vector<TraceEvent> evs = events();
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < evs.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << event_to_json(evs[i]);
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":\""
      << dropped() << "\"}}\n";
}

Tracer& Tracer::global() {
  static Tracer t;
  return t;
}

Span::Span(std::string_view name) {
  Tracer& t = Tracer::global();
  if (!t.enabled()) return;
  live_ = true;
  ev_.name = std::string(name);
  ev_.phase = 'X';
  ev_.ts_us = t.now_us();
  ev_.tid = trace_thread_id();
}

Span::~Span() { close(); }

void Span::close() {
  if (!live_) return;
  live_ = false;
  Tracer& t = Tracer::global();
  const u64 end = t.now_us();
  ev_.dur_us = end > ev_.ts_us ? end - ev_.ts_us : 0;
  t.record(std::move(ev_));
}

void Span::arg(std::string_view key, u64 v) {
  if (!live_) return;
  ev_.args.push_back(TraceArg{std::string(key), {}, v, true});
}

void Span::arg(std::string_view key, std::string_view v) {
  if (!live_) return;
  ev_.args.push_back(TraceArg{std::string(key), std::string(v), 0, false});
}

bool write_trace_file(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  Tracer::global().write_chrome_trace(out);
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace laec::obs
