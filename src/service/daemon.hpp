// Campaign daemon over Unix-domain sockets.
//
// `laec_cli serve --socket=PATH` runs a persistent daemon. Each
// connection thread parses a submitted CampaignJob and runs it as ONE
// reliability::run_campaign call on `--workers` threads of the runner's
// pool (the connection thread is one of them): the engine a local
// `laec_cli campaign` run uses. Rate cells of a (workload, scheme) share one golden run, the
// campaign slices the job's shard and emits its rows in grid order, and
// the connection thread sends them on as they come. So the streamed rows
// are byte-identical to a local run at any --threads, and several client
// hosts or processes can shard one campaign by submitting complementary
// --shard slices to the same daemon.
//
// One job holds the pool at a time (one mutex; the others wait for it).
// The daemon therefore never runs more than `--workers` simulation
// threads, and the campaign.* gauges in a status reply describe the job
// that is running.
#pragma once

#include <atomic>
#include <string>

#include "report/sink.hpp"
#include "service/job.hpp"
#include "service/protocol.hpp"

namespace laec::service {

struct ServeOptions {
  std::string socket_path;
  /// Threads of the pool each job runs on; 0 = hardware concurrency.
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

/// Probe a daemon's observable state (kStatus frame): uptime, pool size,
/// job and row counts, and the daemon-side metrics digest. Purely
/// observational: never perturbs a job or its rows.
[[nodiscard]] DaemonStatus request_status(const std::string& socket_path);

}  // namespace laec::service
