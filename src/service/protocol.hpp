// Length-prefixed framing protocol of the campaign daemon.
//
// Transport is a Unix-domain stream socket; every message is one frame:
//
//   u32 payload length (little-endian) | u8 frame type | payload
//
// Conversation ("submit" client):
//   server -> client   kHello   "LAECSRV" + u32 protocol version
//   client -> server   kSubmit  serialize_job(CampaignJob)
//   server -> client   kRowHeader  string list (column names)
//   server -> client   kRow ...    string list (one row's cells), in grid
//                                  order — byte-identical to a local run
//   server -> client   kDone    u64 cells, u64 trials, u64 failures
// or
//   server -> client   kError   human-readable message (job rejected or
//                               failed; connection closes after)
// The daemon runs the whole job as one campaign, which emits its rows only
// once every cell is done: the header and rows arrive together at the
// end, and a job that fails sends kError without any of them.
//
// Shutdown: a client sends kShutdown instead of kSubmit; the server
// acknowledges with kDone (zeros) and stops accepting. Rows travel as
// CELL STRINGS, not formatted text — the client renders them through its
// report::RowWriter (csv or jsonl), so one daemon serves every output
// format and the bytes match the equivalent local run exactly.
//
// Status ("status" client): a client sends kStatus (empty payload)
// instead of kSubmit; the server replies with one kStatus frame carrying a
// DaemonStatus snapshot (uptime, pool size, job/cell/trial/row counts,
// plus the daemon process's metrics registry as name/kind/value entries)
// and the connection closes. Purely observational — a status probe never
// perturbs a job or its row bytes.
//
// Frame payloads are capped (kMaxFramePayload) and decoded with the
// bounds-checked wire reader: truncated, oversized or trailing-garbage
// frames raise WireError instead of desynchronizing the stream.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace laec::service {

inline constexpr char kProtocolMagic[7] = {'L', 'A', 'E', 'C',
                                           'S', 'R', 'V'};
/// v2: kStatus frame; v3: the status frame lost its queue depth,
/// in-flight cell count and per-worker table with the cell queue.
inline constexpr u32 kProtocolVersion = 3;

/// Frames bigger than this are rejected before allocation. Jobs scale
/// with grid size (tens of bytes per cell); 64 MiB is ~1M cells.
inline constexpr u32 kMaxFramePayload = 64u << 20;

enum class FrameType : u8 {
  kHello = 1,
  kSubmit = 2,
  kRowHeader = 3,
  kRow = 4,
  kDone = 5,
  kError = 6,
  kShutdown = 7,
  kStatus = 8,
};

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Blocking full-frame write to a connected socket fd (or a pipe). Throws
/// std::runtime_error on EOF/error (peer went away); a socket peer that
/// hung up never raises SIGPIPE.
void write_frame(int fd, FrameType type, std::string_view payload);

/// Blocking full-frame read. Throws WireError for oversized/corrupt
/// length fields and std::runtime_error for EOF mid-frame.
[[nodiscard]] Frame read_frame(int fd);

/// The kHello payload this build emits.
[[nodiscard]] std::string hello_payload();
/// Validate a received kHello payload (magic + compatible version).
void check_hello(std::string_view payload);

/// String-list payloads (kRowHeader / kRow cells).
[[nodiscard]] std::string encode_string_list(
    const std::vector<std::string>& items);
[[nodiscard]] std::vector<std::string> decode_string_list(
    std::string_view payload);

/// kDone payload.
struct DoneSummary {
  u64 cells = 0;
  u64 trials = 0;
  u64 failures = 0;
};
[[nodiscard]] std::string encode_done(const DoneSummary& d);
[[nodiscard]] DoneSummary decode_done(std::string_view payload);

/// One metric in a kStatus reply. Counters and gauges carry `value`;
/// histograms carry count in `value` plus sum and the p50/p99 estimates
/// (the full bucket vector stays daemon-side — the probe wants the
/// digest, not the raw buckets).
struct StatusMetric {
  std::string name;
  u8 kind = 0;  ///< obs::MetricKind as u8
  u64 value = 0;
  u64 sum = 0;
  u64 p50 = 0;
  u64 p99 = 0;
};

/// kStatus reply payload: one self-describing snapshot of the daemon.
struct DaemonStatus {
  u64 uptime_ms = 0;
  u32 workers = 0;  ///< threads of the pool each job runs on
  u64 jobs_accepted = 0;
  u64 jobs_rejected = 0;
  u64 cells_done = 0;   ///< over finished jobs
  u64 trials_done = 0;  ///< over finished jobs
  u64 rows_streamed = 0;
  std::vector<StatusMetric> metrics;  ///< daemon-side registry digest
};
[[nodiscard]] std::string encode_status(const DaemonStatus& s);
[[nodiscard]] DaemonStatus decode_status(std::string_view payload);

}  // namespace laec::service
