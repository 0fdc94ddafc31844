// Structured event tracer: spans and instants with args, recorded into a
// thread-safe in-memory ring buffer ("flight recorder") and rendered as
// Chrome trace-event JSON that chrome://tracing and Perfetto open directly.
//
// Cost model: the tracer is OFF by default; every instrumentation site
// guards on one relaxed atomic load (Span's constructor / Tracer::enabled),
// so an untraced run pays a predicted-not-taken branch per span. When the
// tracer is on, recording takes a short mutex push into a pre-sized ring;
// instrumentation sits at trial/frame/round granularity — never inside the
// per-access simulation loop — so even a traced run's rows and results are
// untouched (tracing reads the clock, never the RNG or the row stream).
//
// When the ring fills, the oldest events are overwritten (flight-recorder
// semantics) and dropped() reports how many were lost.
//
// Everything runs in one process, so every event carries pid 0; the thread
// pool's workers tell themselves apart by tid.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace laec::obs {

/// One span/instant argument; rendered as a JSON number or string.
struct TraceArg {
  std::string key;
  std::string str;
  u64 num = 0;
  bool is_num = false;
};

/// One Chrome trace event. phase 'X' = complete span (ts + dur),
/// 'i' = instant.
struct TraceEvent {
  std::string name;
  char phase = 'X';
  u64 ts_us = 0;
  u64 dur_us = 0;
  u32 tid = 0;
  std::vector<TraceArg> args;
};

/// Stable small integer id for the calling thread (assigned on first use,
/// process-wide). Rendered as the Chrome "tid" field.
[[nodiscard]] u32 trace_thread_id();

/// The flight recorder. One process-wide instance behind global().
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 18;

  /// Arm the tracer: clears the ring, re-zeroes the time epoch, and sets
  /// the ring capacity (events beyond it overwrite the oldest).
  void enable(std::size_t capacity = kDefaultCapacity);
  void disable();
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Microseconds since enable() (steady clock).
  [[nodiscard]] u64 now_us() const;

  /// Record a fully-formed event (no-op when disabled).
  void record(TraceEvent ev);

  /// Record an instant event stamped now on the calling thread.
  void instant(std::string name, std::vector<TraceArg> args = {});

  /// Events currently in the ring, oldest first.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Total events recorded since enable() (including overwritten ones).
  [[nodiscard]] u64 total_recorded() const;
  /// Events lost to ring overwrite since enable().
  [[nodiscard]] u64 dropped() const;

  /// Render the ring as one complete Chrome trace JSON document.
  void write_chrome_trace(std::ostream& out) const;

  [[nodiscard]] static Tracer& global();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  // next write slot once the ring is full
  u64 total_ = 0;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII complete-span: stamps start on construction, records an 'X' event
/// with the measured duration on destruction. Free when the tracer is
/// disabled (one relaxed load, no allocation).
class Span {
 public:
  explicit Span(std::string_view name);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  /// Attach an argument (no-op on a disabled span).
  void arg(std::string_view key, u64 v);
  void arg(std::string_view key, std::string_view v);

  /// End the span now (records the event); the destructor then no-ops.
  void close();

  [[nodiscard]] bool live() const { return live_; }

 private:
  bool live_ = false;
  TraceEvent ev_;
};

/// Serialize one event as a single-line JSON object (no trailing newline).
[[nodiscard]] std::string event_to_json(const TraceEvent& ev);

/// Write the global tracer's ring to `path` as a complete Chrome trace
/// document. Returns false (and leaves errno from the failed stream) on
/// I/O error.
[[nodiscard]] bool write_trace_file(const std::string& path);

}  // namespace laec::obs
