#include "service/checkpoint.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common/hash.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/wire.hpp"

namespace laec::service {

namespace {

// One CellCounters field on the wire: the u64 tallies as u64, device_hours
// as its IEEE bits.
void put(ByteWriter& w, u64 v) { w.put_u64(v); }
void put(ByteWriter& w, double v) { w.put_double(v); }
void get(ByteReader& r, u64& v) { v = r.get_u64(); }
void get(ByteReader& r, double& v) { v = r.get_double(); }

}  // namespace

void save_checkpoint(const std::string& path, u64 identity,
                     const std::vector<reliability::CellProgress>& cells) {
  obs::Span span("checkpoint-write");
  span.arg("path", path);
  span.arg("cells", static_cast<u64>(cells.size()));
  ByteWriter payload;
  payload.put_u32(kCheckpointVersion);
  payload.put_u64(identity);
  payload.put_u32(static_cast<u32>(cells.size()));
  for (const auto& c : cells) {
    payload.put_u64(static_cast<u64>(c.index));
    payload.put_u32(c.done);
    payload.put_u8(c.finished ? 1 : 0);
    reliability::visit_counters(c, [&](const auto& f) { put(payload, f); });
  }

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("checkpoint: cannot create " + tmp);
    }
    ByteWriter head;
    head.put_u64(fnv1a(payload.bytes()));
    out.write(kCheckpointMagic, sizeof kCheckpointMagic);
    out.write(head.bytes().data(),
              static_cast<std::streamsize>(head.bytes().size()));
    out.write(payload.bytes().data(),
              static_cast<std::streamsize>(payload.bytes().size()));
    out.flush();
    if (!out) {
      throw std::runtime_error("checkpoint: write to " + tmp +
                               " failed (disk full?)");
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: cannot rename " + tmp + " to " +
                             path + ": " + ec.message());
  }
  auto& reg = obs::Registry::global();
  reg.counter("checkpoint.writes").add();
  reg.counter("checkpoint.bytes_written")
      .add(sizeof kCheckpointMagic + 8 + payload.bytes().size());
  obs::log_debug("laec-checkpoint",
                 "wrote " + path + " (" +
                     std::to_string(payload.bytes().size()) +
                     " payload bytes, " + std::to_string(cells.size()) +
                     " cells)");
}

std::vector<reliability::CellProgress> load_checkpoint(
    const std::string& path, u64 identity) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw WireError("checkpoint: cannot open " + path);
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (bytes.size() < sizeof kCheckpointMagic + 8) {
    throw WireError("checkpoint: " + path + " is truncated");
  }
  if (bytes.compare(0, sizeof kCheckpointMagic, kCheckpointMagic,
                    sizeof kCheckpointMagic) != 0) {
    throw WireError("checkpoint: " + path + " is not a checkpoint file");
  }
  ByteReader head(
      std::string_view(bytes).substr(sizeof kCheckpointMagic, 8));
  const u64 sum = head.get_u64();
  const std::string_view payload =
      std::string_view(bytes).substr(sizeof kCheckpointMagic + 8);
  if (fnv1a(payload) != sum) {
    throw WireError("checkpoint: " + path +
                    " checksum mismatch (corrupt or torn write)");
  }

  ByteReader r(payload);
  const u32 version = r.get_u32();
  if (version != kCheckpointVersion) {
    throw WireError("checkpoint: " + path + " is version " +
                    std::to_string(version) + "; this build reads " +
                    std::to_string(kCheckpointVersion));
  }
  const u64 file_identity = r.get_u64();
  if (file_identity != identity) {
    throw WireError(
        "checkpoint: " + path +
        " was taken under a different campaign configuration (grid, "
        "spec, seed, shard or geometry changed); refusing to resume");
  }
  // The cell count sizes nothing up front: a lying count runs out of bytes
  // (WireError) long before it could exhaust memory.
  const u32 n = r.get_u32();
  std::vector<reliability::CellProgress> cells;
  for (u32 i = 0; i < n; ++i) {
    reliability::CellProgress c;
    c.index = static_cast<std::size_t>(r.get_u64());
    c.done = r.get_u32();
    c.finished = r.get_u8() != 0;
    reliability::visit_counters(c, [&](auto& f) { get(r, f); });
    cells.push_back(c);
  }
  r.expect_end();
  return cells;
}

}  // namespace laec::service
