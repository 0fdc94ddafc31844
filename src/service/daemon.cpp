#include "service/daemon.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <list>
#include <mutex>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <vector>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/protocol.hpp"
#include "service/wire.hpp"
#include "workloads/eembc.hpp"

#if !defined(_WIN32)
#include <cerrno>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#define LAEC_HAVE_SOCKETS 1
#else
#define LAEC_HAVE_SOCKETS 0
#endif

namespace laec::service {

#if LAEC_HAVE_SOCKETS

namespace {

/// RAII fd.
struct Fd {
  int fd = -1;
  Fd() = default;
  explicit Fd(int f) : fd(f) {}
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& o) noexcept : fd(o.fd) { o.fd = -1; }
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

/// Shared observable state of one daemon instance: everything the kStatus
/// frame reports. Counters are relaxed atomics, so a status probe reads a
/// near-consistent snapshot and never waits for a running job.
struct DaemonState {
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  unsigned workers = 1;  ///< threads of the pool every job runs on
  /// Held by the job that runs on the pool; later jobs wait for it, so the
  /// daemon never runs more than `workers` simulation threads.
  std::mutex pool;
  std::atomic<u64> jobs_accepted{0};
  std::atomic<u64> jobs_rejected{0};
  std::atomic<u64> cells_done{0};
  std::atomic<u64> trials_done{0};
  std::atomic<u64> rows_streamed{0};

  [[nodiscard]] u64 uptime_ms() const {
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
};

/// The sink of a job's campaign: the header goes to the client as one
/// kRowHeader frame and each row, in grid order, as one kRow frame.
class FrameRowWriter final : public report::RowWriter {
 public:
  FrameRowWriter(int fd, DaemonState& state) : fd_(fd), state_(state) {}

  void begin(const std::vector<std::string>& headers) override {
    write_frame(fd_, FrameType::kRowHeader, encode_string_list(headers));
  }

  void row(const std::vector<std::string>& cells) override {
    write_frame(fd_, FrameType::kRow, encode_string_list(cells));
    state_.rows_streamed.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  int fd_;
  DaemonState& state_;
};

void log_line(const ServeOptions& opts, const std::string& msg) {
  if (!opts.verbose) return;
  obs::log_info("laec-serve", msg);
}

/// Assemble the kStatus reply: daemon counters plus a digest of the
/// process-wide metrics registry (histograms reduced to count/sum/p50/p99).
/// The campaign.* gauges in it describe the job on the pool.
DaemonStatus collect_status(const DaemonState& state) {
  DaemonStatus s;
  s.uptime_ms = state.uptime_ms();
  s.workers = state.workers;
  s.jobs_accepted = state.jobs_accepted.load(std::memory_order_relaxed);
  s.jobs_rejected = state.jobs_rejected.load(std::memory_order_relaxed);
  s.cells_done = state.cells_done.load(std::memory_order_relaxed);
  s.trials_done = state.trials_done.load(std::memory_order_relaxed);
  s.rows_streamed = state.rows_streamed.load(std::memory_order_relaxed);
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  s.metrics.reserve(snap.metrics.size());
  for (const obs::MetricValue& m : snap.metrics) {
    StatusMetric sm;
    sm.name = m.name;
    sm.kind = static_cast<u8>(m.kind);
    if (m.kind == obs::MetricKind::kHistogram) {
      sm.value = m.hist.count;
      sm.sum = m.hist.sum;
      sm.p50 = m.hist.percentile(0.50);
      sm.p99 = m.hist.percentile(0.99);
    } else {
      sm.value = m.value;
    }
    s.metrics.push_back(std::move(sm));
  }
  return s;
}

/// One accepted connection. Its thread serves it and closes the fd; the
/// accept loop joins the thread once `finished` is set, and at shutdown
/// ends a connection that is still waiting for its request frame.
struct Connection {
  std::thread thread;
  std::mutex mu;  ///< guards fd, awaiting and closing
  int fd = -1;
  bool awaiting = true;  ///< no request frame has been read yet
  bool closing = false;  ///< the daemon stopped while it was awaiting
  std::atomic<bool> finished{false};

  /// After the request frame arrived: may it be served? Not once the
  /// daemon has stopped (the socket is already shut down then).
  bool begin_request() {
    const std::lock_guard<std::mutex> hold(mu);
    awaiting = false;
    return !closing;
  }

  /// At shutdown: wake a connection blocked reading its request frame (an
  /// idle client), so its thread ends. One that is serving a request (a
  /// running or waiting job) is left to finish.
  void interrupt_if_awaiting() {
    const std::lock_guard<std::mutex> hold(mu);
    if (awaiting && fd >= 0) {
      closing = true;
      ::shutdown(fd, SHUT_RDWR);
    }
  }

  void close_fd() {
    const std::lock_guard<std::mutex> hold(mu);
    ::close(fd);
    fd = -1;
  }
};

/// Serve one connection: hello, read a frame, dispatch. Returns true if
/// the client requested daemon shutdown.
bool serve_connection(Connection& conn, DaemonState& state,
                      const ServeOptions& opts) {
  const int fd = conn.fd;
  write_frame(fd, FrameType::kHello, hello_payload());
  const Frame req = read_frame(fd);
  if (!conn.begin_request()) return false;
  obs::Span frame_span("daemon-frame");
  frame_span.arg("type", static_cast<u64>(req.type));

  if (req.type == FrameType::kShutdown) {
    write_frame(fd, FrameType::kDone, encode_done({}));
    return true;
  }
  if (req.type == FrameType::kStatus) {
    write_frame(fd, FrameType::kStatus, encode_status(collect_status(state)));
    return false;
  }
  if (req.type != FrameType::kSubmit) {
    write_frame(fd, FrameType::kError,
                "expected a submit, status or stop frame");
    return false;
  }

  CampaignJob job;
  try {
    job = parse_job(req.payload);
    // Build each cell's config of this shard once up front, so an unknown
    // scheme or workload is rejected as kError before anything simulates.
    for (const auto& c : job.cells) {
      if (c.index % job.shard_count != job.shard_index) continue;
      core::SimConfig probe = job.spec.base;
      probe.set_scheme(c.scheme);
      (void)workloads::kernel_by_name(c.workload);
    }
  } catch (const std::exception& e) {
    state.jobs_rejected.fetch_add(1, std::memory_order_relaxed);
    obs::log_warn("laec-serve", std::string("job rejected: ") + e.what());
    write_frame(fd, FrameType::kError,
                std::string("job rejected: ") + e.what());
    return false;
  }

  state.jobs_accepted.fetch_add(1, std::memory_order_relaxed);
  log_line(opts, "job accepted");

  // The job runs as one campaign on the pool, exactly as a local
  // `laec_cli campaign --threads=<workers>` run: the cells of a workload
  // and timing class share one golden run, and run_campaign slices the
  // shard and emits the rows in grid order.
  FrameRowWriter rows(fd, state);
  reliability::CampaignOptions copts;
  copts.threads = state.workers;
  copts.shard_index = job.shard_index;
  copts.shard_count = job.shard_count;
  copts.base_seed = job.base_seed;
  copts.sink = &rows;
  reliability::CampaignSummary sum;
  try {
    const std::lock_guard<std::mutex> hold(state.pool);
    sum = reliability::run_campaign(job.cells, job.spec, copts);
  } catch (const std::exception& e) {
    write_frame(fd, FrameType::kError, std::string("job failed: ") + e.what());
    return false;
  }
  state.cells_done.fetch_add(sum.cells_run, std::memory_order_relaxed);
  state.trials_done.fetch_add(sum.trials_run, std::memory_order_relaxed);

  DoneSummary done;
  done.cells = sum.cells_run;
  done.trials = sum.trials_run;
  done.failures = sum.failures;
  write_frame(fd, FrameType::kDone, encode_done(done));
  log_line(opts, "job done: " + std::to_string(done.cells) + " cells, " +
                     std::to_string(done.trials) + " trials");
  return false;
}

Fd connect_to(const std::string& socket_path) {
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (fd.fd < 0) {
    throw std::runtime_error("cannot create unix socket");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd.fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) < 0) {
    throw std::runtime_error("cannot connect to daemon at " + socket_path +
                             " (is `laec_cli serve` running?)");
  }
  return fd;
}

}  // namespace

int run_daemon(const ServeOptions& opts) {
  if (opts.socket_path.empty()) {
    throw std::invalid_argument("run_daemon: socket path is empty");
  }
  Fd listener(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (listener.fd < 0) {
    throw std::runtime_error("cannot create unix socket");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts.socket_path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " + opts.socket_path);
  }
  std::memcpy(addr.sun_path, opts.socket_path.c_str(),
              opts.socket_path.size() + 1);
  ::unlink(opts.socket_path.c_str());  // stale socket from a dead daemon
  if (::bind(listener.fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) < 0) {
    throw std::runtime_error("cannot bind " + opts.socket_path);
  }
  if (::listen(listener.fd, 16) < 0) {
    throw std::runtime_error("cannot listen on " + opts.socket_path);
  }

  DaemonState state;
  state.workers = opts.workers == 0
                      ? std::max(1u, std::thread::hardware_concurrency())
                      : opts.workers;
  log_line(opts, "listening on " + opts.socket_path + " with " +
                     std::to_string(state.workers) + " workers");

  std::atomic<bool> shutdown{false};
  std::list<Connection> connections;  // a thread holds its element's address
  // Join the threads of finished connections, so a long-lived daemon holds
  // one thread (and one stack) per open connection, not per connection
  // it ever accepted.
  const auto reap = [&connections] {
    for (auto it = connections.begin(); it != connections.end();) {
      if (!it->finished.load(std::memory_order_acquire)) {
        ++it;
        continue;
      }
      it->thread.join();
      it = connections.erase(it);
    }
  };
  while (!shutdown.load(std::memory_order_acquire) &&
         (opts.stop == nullptr ||
          !opts.stop->load(std::memory_order_acquire))) {
    reap();
    pollfd pfd{listener.fd, POLLIN, 0};
    const int rv = ::poll(&pfd, 1, 200);  // wake to re-check stop flags
    if (rv < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rv == 0) continue;
    const int fd = ::accept(listener.fd, nullptr, nullptr);
    if (fd < 0) continue;
    Connection& conn = connections.emplace_back();
    conn.fd = fd;
    try {
      conn.thread = std::thread([&conn, &state, &shutdown, &opts] {
        try {
          if (serve_connection(conn, state, opts)) {
            shutdown.store(true, std::memory_order_release);
          }
        } catch (const std::exception& e) {
          // Peer vanished mid-conversation; the daemon itself lives on.
          if (opts.verbose) {
            obs::log_warn("laec-serve",
                          std::string("connection dropped: ") + e.what());
          }
        }
        conn.close_fd();
        conn.finished.store(true, std::memory_order_release);
      });
    } catch (const std::system_error& e) {
      // No thread to serve it: turn this client away, keep the others.
      conn.close_fd();
      connections.pop_back();
      obs::log_warn("laec-serve",
                    std::string("connection refused: ") + e.what());
    }
  }

  // Running and waiting jobs finish before the daemon exits; a client
  // that never sent its request frame is disconnected.
  for (Connection& conn : connections) conn.interrupt_if_awaiting();
  for (Connection& conn : connections) conn.thread.join();
  ::unlink(opts.socket_path.c_str());
  log_line(opts, "shut down cleanly");
  return 0;
}

SubmitSummary submit_job(const std::string& socket_path,
                         const CampaignJob& job, report::RowWriter& rows) {
  Fd fd = connect_to(socket_path);
  const Frame hello = read_frame(fd.fd);
  if (hello.type != FrameType::kHello) {
    throw WireError("daemon did not greet with a hello frame");
  }
  check_hello(hello.payload);
  write_frame(fd.fd, FrameType::kSubmit, serialize_job(job));

  SubmitSummary sum;
  bool begun = false;
  for (;;) {
    const Frame f = read_frame(fd.fd);
    switch (f.type) {
      case FrameType::kRowHeader:
        rows.begin(decode_string_list(f.payload));
        begun = true;
        break;
      case FrameType::kRow:
        if (!begun) throw WireError("daemon sent a row before the header");
        rows.row(decode_string_list(f.payload));
        break;
      case FrameType::kDone: {
        const DoneSummary d = decode_done(f.payload);
        sum.cells_run = d.cells;
        sum.trials_run = d.trials;
        sum.failures = d.failures;
        if (begun) rows.end();
        return sum;
      }
      case FrameType::kError:
        throw std::runtime_error("daemon: " + f.payload);
      default:
        throw WireError("unexpected frame type from daemon");
    }
  }
}

void request_shutdown(const std::string& socket_path) {
  Fd fd = connect_to(socket_path);
  const Frame hello = read_frame(fd.fd);
  if (hello.type != FrameType::kHello) {
    throw WireError("daemon did not greet with a hello frame");
  }
  check_hello(hello.payload);
  write_frame(fd.fd, FrameType::kShutdown, {});
  (void)read_frame(fd.fd);  // wait for the kDone acknowledgement
}

DaemonStatus request_status(const std::string& socket_path) {
  Fd fd = connect_to(socket_path);
  const Frame hello = read_frame(fd.fd);
  if (hello.type != FrameType::kHello) {
    throw WireError("daemon did not greet with a hello frame");
  }
  check_hello(hello.payload);
  write_frame(fd.fd, FrameType::kStatus, {});
  const Frame reply = read_frame(fd.fd);
  if (reply.type == FrameType::kError) {
    throw std::runtime_error("daemon: " + reply.payload);
  }
  if (reply.type != FrameType::kStatus) {
    throw WireError("unexpected frame type from daemon");
  }
  return decode_status(reply.payload);
}

#else  // !LAEC_HAVE_SOCKETS

int run_daemon(const ServeOptions&) {
  throw std::runtime_error(
      "the campaign daemon needs Unix-domain sockets, which this platform "
      "lacks");
}

SubmitSummary submit_job(const std::string&, const CampaignJob&,
                         report::RowWriter&) {
  throw std::runtime_error(
      "the campaign daemon needs Unix-domain sockets, which this platform "
      "lacks");
}

void request_shutdown(const std::string&) {
  throw std::runtime_error(
      "the campaign daemon needs Unix-domain sockets, which this platform "
      "lacks");
}

DaemonStatus request_status(const std::string&) {
  throw std::runtime_error(
      "the campaign daemon needs Unix-domain sockets, which this platform "
      "lacks");
}

#endif

}  // namespace laec::service
