#include "service/protocol.hpp"

#include <stdexcept>

#include "service/wire.hpp"

#if !defined(_WIN32)
#include <cerrno>
#include <unistd.h>
#define LAEC_HAVE_SOCKETS 1
#else
#define LAEC_HAVE_SOCKETS 0
#endif

namespace laec::service {

#if LAEC_HAVE_SOCKETS

namespace {

void write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("socket write failed (peer gone?)");
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

void read_all(int fd, char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t r = ::read(fd, data, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("socket read failed");
    }
    if (r == 0) {
      throw std::runtime_error("socket closed mid-frame");
    }
    data += r;
    n -= static_cast<std::size_t>(r);
  }
}

}  // namespace

void write_frame(int fd, FrameType type, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    throw WireError("frame payload exceeds protocol cap");
  }
  ByteWriter head;
  head.put_u32(static_cast<u32>(payload.size()));
  head.put_u8(static_cast<u8>(type));
  write_all(fd, head.bytes().data(), head.bytes().size());
  write_all(fd, payload.data(), payload.size());
}

Frame read_frame(int fd) {
  char head[5];
  read_all(fd, head, sizeof head);
  ByteReader r(std::string_view(head, sizeof head));
  const u32 len = r.get_u32();
  const u8 type = r.get_u8();
  if (len > kMaxFramePayload) {
    throw WireError("frame length " + std::to_string(len) +
                    " exceeds protocol cap");
  }
  Frame f;
  f.type = static_cast<FrameType>(type);
  f.payload.resize(len);
  read_all(fd, f.payload.data(), len);
  return f;
}

#else  // !LAEC_HAVE_SOCKETS

void write_frame(int, FrameType, std::string_view) {
  throw std::runtime_error("sockets are unavailable on this platform");
}

Frame read_frame(int) {
  throw std::runtime_error("sockets are unavailable on this platform");
}

#endif

std::string hello_payload() {
  ByteWriter w;
  ByteWriter magic;
  for (const char c : kProtocolMagic) magic.put_u8(static_cast<u8>(c));
  w.put_string(magic.bytes());
  w.put_u32(kProtocolVersion);
  return w.take();
}

void check_hello(std::string_view payload) {
  ByteReader r(payload);
  const std::string magic = r.get_string();
  if (magic.size() != sizeof kProtocolMagic ||
      magic.compare(0, sizeof kProtocolMagic, kProtocolMagic,
                    sizeof kProtocolMagic) != 0) {
    throw WireError("peer is not a laec campaign daemon (bad hello magic)");
  }
  const u32 version = r.get_u32();
  if (version != kProtocolVersion) {
    throw WireError("daemon speaks protocol version " +
                    std::to_string(version) + "; this build speaks " +
                    std::to_string(kProtocolVersion));
  }
  r.expect_end();
}

std::string encode_string_list(const std::vector<std::string>& items) {
  ByteWriter w;
  w.put_u32(static_cast<u32>(items.size()));
  for (const auto& s : items) w.put_string(s);
  return w.take();
}

std::vector<std::string> decode_string_list(std::string_view payload) {
  ByteReader r(payload);
  const u32 n = r.get_u32();
  if (n > payload.size()) {
    throw WireError("string list claims an implausible item count");
  }
  std::vector<std::string> items;
  items.reserve(n);
  for (u32 i = 0; i < n; ++i) items.push_back(r.get_string());
  r.expect_end();
  return items;
}

std::string encode_done(const DoneSummary& d) {
  ByteWriter w;
  w.put_u64(d.cells);
  w.put_u64(d.trials);
  w.put_u64(d.failures);
  return w.take();
}

DoneSummary decode_done(std::string_view payload) {
  ByteReader r(payload);
  DoneSummary d;
  d.cells = r.get_u64();
  d.trials = r.get_u64();
  d.failures = r.get_u64();
  r.expect_end();
  return d;
}

std::string encode_status(const DaemonStatus& s) {
  ByteWriter w;
  w.put_u64(s.uptime_ms);
  w.put_u32(s.workers);
  w.put_u64(s.jobs_accepted);
  w.put_u64(s.jobs_rejected);
  w.put_u64(s.cells_done);
  w.put_u64(s.trials_done);
  w.put_u64(s.rows_streamed);
  w.put_u32(static_cast<u32>(s.metrics.size()));
  for (const StatusMetric& m : s.metrics) {
    w.put_string(m.name);
    w.put_u8(m.kind);
    w.put_u64(m.value);
    w.put_u64(m.sum);
    w.put_u64(m.p50);
    w.put_u64(m.p99);
  }
  return w.take();
}

DaemonStatus decode_status(std::string_view payload) {
  ByteReader r(payload);
  DaemonStatus s;
  s.uptime_ms = r.get_u64();
  s.workers = r.get_u32();
  s.jobs_accepted = r.get_u64();
  s.jobs_rejected = r.get_u64();
  s.cells_done = r.get_u64();
  s.trials_done = r.get_u64();
  s.rows_streamed = r.get_u64();
  const u32 nm = r.get_u32();
  if (nm > payload.size()) {
    throw WireError("status claims an implausible metric count");
  }
  s.metrics.reserve(nm);
  for (u32 i = 0; i < nm; ++i) {
    StatusMetric m;
    m.name = r.get_string();
    m.kind = r.get_u8();
    m.value = r.get_u64();
    m.sum = r.get_u64();
    m.p50 = r.get_u64();
    m.p99 = r.get_u64();
    s.metrics.push_back(std::move(m));
  }
  r.expect_end();
  return s;
}

}  // namespace laec::service
