// Campaign work-queue daemon over Unix-domain sockets.
//
// `laec_cli serve --socket=PATH` runs a persistent daemon: a pool of
// worker threads pulls campaign CELLS from one in-process MPMC queue
// (queue.hpp); each connection thread parses a submitted CampaignJob,
// enqueues its shard's cells, and streams the finished rows back in grid
// order. Because every cell is independently deterministic (trial seeds
// derive from workload identity + trial index, and the stopping rule sees
// only the cell's own trials), a cell computed by any daemon worker is
// bit-identical to the same cell in a local `laec_cli campaign` run — so
// the streamed rows are byte-identical to local output at any --threads,
// and multiple client hosts/processes can shard one campaign by submitting
// complementary --shard slices to the same daemon.
//
// In-order emission IS the determinism contract: workers finish cells in
// any order, but the connection thread emits slot g only after slots
// 0..g-1 — the reorder discipline run_sweep's emitter uses for its pool,
// applied to a socket.
#pragma once

#include <atomic>
#include <string>

#include "report/sink.hpp"
#include "service/job.hpp"
#include "service/protocol.hpp"

namespace laec::service {

struct ServeOptions {
  std::string socket_path;
  /// Worker threads running cells; 0 = hardware concurrency.
  unsigned workers = 0;
  /// Optional external stop flag (tests); SIGTERM-style shutdown also
  /// arrives as a kShutdown frame from `laec_cli stop`.
  std::atomic<bool>* stop = nullptr;
  /// Heartbeat / lifecycle messages (nullptr silences the daemon).
  bool verbose = true;
};

/// Run the daemon until a kShutdown frame (or *stop) arrives. Returns 0
/// on clean shutdown. Throws std::runtime_error when the socket cannot
/// be created/bound. Removes the socket file on exit.
int run_daemon(const ServeOptions& opts);

struct SubmitSummary {
  u64 cells_run = 0;
  u64 trials_run = 0;
  u64 failures = 0;
};

/// Submit a campaign job to a daemon and stream its rows into `rows`
/// (begin/row/end called exactly as a local run would). Throws
/// std::runtime_error / WireError on connection or protocol failure, or
/// when the daemon rejects the job (kError).
SubmitSummary submit_job(const std::string& socket_path,
                         const CampaignJob& job, report::RowWriter& rows);

/// Ask a daemon to shut down (waits for acknowledgement).
void request_shutdown(const std::string& socket_path);

/// Probe a daemon's observable state (kStatus frame): uptime, queue depth,
/// in-flight cells, per-worker progress, and the daemon-side metrics
/// digest. Purely observational — never perturbs scheduling or rows.
[[nodiscard]] DaemonStatus request_status(const std::string& socket_path);

}  // namespace laec::service
