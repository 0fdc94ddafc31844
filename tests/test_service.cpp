// Service plumbing: the wire codec, the framing protocol, CampaignJob
// serialization, and the campaign daemon end to end — rows streamed over
// the socket must be byte-identical to a local run_campaign of the same
// job.
#include "service/daemon.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <filesystem>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "obs/metrics.hpp"
#include "reliability/campaign.hpp"
#include "service/job.hpp"
#include "service/protocol.hpp"
#include "service/wire.hpp"

namespace laec::service {
namespace {

// --- wire codec -------------------------------------------------------------

TEST(Wire, RoundTripsEveryType) {
  ByteWriter w;
  w.put_u8(0xab);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefull);
  w.put_double(0.1 + 0.2);
  const std::string_view with_nul("nul\0inside", 10);  // binary-safe?
  w.put_string(with_nul);
  w.put_string("");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefull);
  EXPECT_EQ(std::bit_cast<u64>(r.get_double()),
            std::bit_cast<u64>(0.1 + 0.2));
  EXPECT_EQ(r.get_string(), std::string(with_nul));
  EXPECT_EQ(r.get_string(), "");
  r.expect_end();
}

TEST(Wire, ReaderRejectsTruncationAndTrailingBytes) {
  ByteWriter w;
  w.put_u32(7);
  ByteReader r(w.bytes());
  EXPECT_THROW((void)r.get_u64(), WireError);  // only 4 bytes there
  ByteReader r2(w.bytes());
  (void)r2.get_u8();
  EXPECT_THROW(r2.expect_end(), WireError);  // 3 bytes left over
  ByteReader r3(std::string_view("\x10\x00\x00\x00ab", 6));
  EXPECT_THROW((void)r3.get_string(), WireError);  // length 16, have 2
}

// --- protocol ---------------------------------------------------------------

TEST(Protocol, StringListAndDoneRoundTrip) {
  const std::vector<std::string> items = {"a", "", "with,comma", "\n"};
  EXPECT_EQ(decode_string_list(encode_string_list(items)), items);

  DoneSummary d;
  d.cells = 3;
  d.trials = 99;
  d.failures = 7;
  const DoneSummary back = decode_done(encode_done(d));
  EXPECT_EQ(back.cells, 3u);
  EXPECT_EQ(back.trials, 99u);
  EXPECT_EQ(back.failures, 7u);
}

TEST(Protocol, HelloIsValidatedStrictly) {
  check_hello(hello_payload());  // must not throw
  EXPECT_THROW(check_hello("garbage"), WireError);
  ByteWriter w;
  w.put_string("LAECSRV");
  w.put_u32(kProtocolVersion + 1);
  EXPECT_THROW(check_hello(w.bytes()), WireError);
}

TEST(Protocol, FramesTravelThroughARealFd) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload(100000, 'x');  // bigger than one pipe buffer
  std::thread writer([&] { write_frame(fds[1], FrameType::kRow, payload); });
  const Frame f = read_frame(fds[0]);
  writer.join();
  EXPECT_EQ(f.type, FrameType::kRow);
  EXPECT_EQ(f.payload, payload);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Protocol, RejectsOversizedFrames) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ByteWriter head;
  head.put_u32(kMaxFramePayload + 1);
  head.put_u8(static_cast<u8>(FrameType::kRow));
  ASSERT_EQ(::write(fds[1], head.bytes().data(), head.bytes().size()),
            static_cast<ssize_t>(head.bytes().size()));
  EXPECT_THROW((void)read_frame(fds[0]), WireError);
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- CampaignJob ------------------------------------------------------------

CampaignJob sample_job() {
  reliability::CampaignGrid grid;
  grid.workloads({"a2time"}).schemes({"laec", "sec-daec-39-32"});
  grid.rates({*reliability::tech_preset("40nm")});
  CampaignJob job;
  job.cells = grid.cells();
  job.spec.trials = 8;
  job.spec.min_trials = 4;
  job.spec.batch = 4;
  job.base_seed = 0x1234;
  job.shard_index = 0;
  job.shard_count = 1;
  return job;
}

TEST(CampaignJob, SerializeParseRoundTrips) {
  const CampaignJob job = sample_job();
  const CampaignJob back = parse_job(serialize_job(job));
  EXPECT_EQ(back.base_seed, job.base_seed);
  EXPECT_EQ(back.shard_index, job.shard_index);
  EXPECT_EQ(back.shard_count, job.shard_count);
  EXPECT_EQ(back.spec.trials, job.spec.trials);
  EXPECT_EQ(back.spec.batch, job.spec.batch);
  ASSERT_EQ(back.cells.size(), job.cells.size());
  for (std::size_t i = 0; i < job.cells.size(); ++i) {
    EXPECT_EQ(back.cells[i].index, job.cells[i].index);
    EXPECT_EQ(back.cells[i].workload, job.cells[i].workload);
    EXPECT_EQ(back.cells[i].scheme, job.cells[i].scheme);
    EXPECT_EQ(back.cells[i].rate.label, job.cells[i].rate.label);
    EXPECT_EQ(back.cells[i].rate.fit_per_mbit, job.cells[i].rate.fit_per_mbit);
  }
  // The round-trip preserves the identity hash (the checkpoint guard).
  EXPECT_EQ(campaign_identity(back), campaign_identity(job));
}

TEST(CampaignJob, IdentityReactsToEveryConfigurationAxis) {
  // One perturbation per field serialize_job writes: job header, every
  // spec field, every put_config field, the cell list and every rate
  // weight. A field dropped from serialize_job leaves the identity
  // unchanged; one dropped from parse_job breaks the round trip.
  using Perturb = std::function<void(CampaignJob&)>;
  const std::vector<std::pair<const char*, Perturb>> axes = {
      {"base_seed", [](CampaignJob& j) { j.base_seed ^= 1; }},
      {"shard",
       [](CampaignJob& j) {
         j.shard_index = 1;
         j.shard_count = 2;
       }},
      {"accel", [](CampaignJob& j) { j.spec.accel *= 2; }},
      {"freq_mhz", [](CampaignJob& j) { j.spec.freq_mhz += 1; }},
      {"trials", [](CampaignJob& j) { j.spec.trials += 1; }},
      {"min_trials", [](CampaignJob& j) { j.spec.min_trials += 1; }},
      {"batch", [](CampaignJob& j) { j.spec.batch += 1; }},
      {"confidence", [](CampaignJob& j) { j.spec.confidence = 0.99; }},
      {"target_half_width",
       [](CampaignJob& j) { j.spec.target_half_width = 0.1; }},
      {"target",
       [](CampaignJob& j) { j.spec.target = core::InjectTarget::kL2; }},
      // A --no-prune / --no-ff run is the same campaign rows-wise, but the
      // operator asked for the reference path: never resume across it.
      {"prune", [](CampaignJob& j) { j.spec.prune = false; }},
      {"fast_forward", [](CampaignJob& j) { j.spec.fast_forward = false; }},
      {"snapshot_every", [](CampaignJob& j) { j.spec.snapshot_every += 1; }},
      {"snapshot_mem_mb",
       [](CampaignJob& j) { j.spec.snapshot_mem_mb += 1; }},
      {"hazard_rule",
       [](CampaignJob& j) { j.spec.base.hazard_rule = cpu::HazardRule::kPaperLiteral; }},
      {"stride_predictor",
       [](CampaignJob& j) { j.spec.base.stride_predictor = true; }},
      {"lut_decode", [](CampaignJob& j) { j.spec.base.lut_decode = false; }},
      {"force_generic_ecc_path",
       [](CampaignJob& j) { j.spec.base.force_generic_ecc_path = true; }},
      {"dl1_size_bytes",
       [](CampaignJob& j) { j.spec.base.dl1_size_bytes *= 2; }},
      {"dl1_ways", [](CampaignJob& j) { j.spec.base.dl1_ways *= 2; }},
      {"dl1_line_bytes",
       [](CampaignJob& j) { j.spec.base.dl1_line_bytes *= 2; }},
      {"l1i_size_bytes",
       [](CampaignJob& j) { j.spec.base.l1i_size_bytes *= 2; }},
      {"write_buffer_depth",
       [](CampaignJob& j) { j.spec.base.write_buffer_depth += 1; }},
      {"mul_latency", [](CampaignJob& j) { j.spec.base.mul_latency += 1; }},
      {"div_latency", [](CampaignJob& j) { j.spec.base.div_latency += 1; }},
      {"bus_request_cycles",
       [](CampaignJob& j) { j.spec.base.bus_request_cycles += 1; }},
      {"bus_response_cycles",
       [](CampaignJob& j) { j.spec.base.bus_response_cycles += 1; }},
      {"l2_hit_cycles", [](CampaignJob& j) { j.spec.base.l2_hit_cycles += 1; }},
      {"l2_write_cycles",
       [](CampaignJob& j) { j.spec.base.l2_write_cycles += 1; }},
      {"memory_cycles", [](CampaignJob& j) { j.spec.base.memory_cycles += 1; }},
      {"num_cores", [](CampaignJob& j) { j.spec.base.num_cores += 1; }},
      {"max_cycles", [](CampaignJob& j) { j.spec.base.max_cycles += 1; }},
      {"cell count", [](CampaignJob& j) { j.cells.pop_back(); }},
      {"cell index", [](CampaignJob& j) { j.cells[0].index += 10; }},
      {"cell workload", [](CampaignJob& j) { j.cells[0].workload = "rspeed"; }},
      {"cell scheme", [](CampaignJob& j) { j.cells[0].scheme = "no-ecc"; }},
      {"rate label", [](CampaignJob& j) { j.cells[0].rate.label = "hot"; }},
      {"rate fit", [](CampaignJob& j) { j.cells[0].rate.fit_per_mbit += 1; }},
      {"weight single",
       [](CampaignJob& j) { j.cells[0].rate.patterns.single += 0.5; }},
      {"weight adjacent_double",
       [](CampaignJob& j) { j.cells[0].rate.patterns.adjacent_double += 0.5; }},
      {"weight adjacent_triple",
       [](CampaignJob& j) { j.cells[0].rate.patterns.adjacent_triple += 0.5; }},
      {"weight clustered",
       [](CampaignJob& j) { j.cells[0].rate.patterns.clustered += 0.5; }},
  };
  const CampaignJob base = sample_job();
  const u64 id = campaign_identity(base);
  for (const auto& [name, perturb] : axes) {
    CampaignJob j = base;
    perturb(j);
    const u64 changed = campaign_identity(j);
    EXPECT_NE(changed, id) << name << " is not part of the identity";
    EXPECT_EQ(campaign_identity(parse_job(serialize_job(j))), changed)
        << name << " does not survive parse_job";
  }
}

TEST(CampaignJob, OlderJobVersionIsRejectedByName) {
  // Version 3 carried the fixed exposure window v4 dropped; its bytes must
  // fail loudly, not shift every later field by four bytes.
  std::string bytes = serialize_job(sample_job());
  ByteWriter v3;
  v3.put_u32(3);
  bytes.replace(0, 4, v3.bytes());
  try {
    (void)parse_job(bytes);
    FAIL() << "a version-3 job parsed";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("version 3"), std::string::npos)
        << e.what();
  }
}

TEST(CampaignJob, ParseRejectsTruncatedAndAlienBytes) {
  const std::string bytes = serialize_job(sample_job());
  EXPECT_THROW((void)parse_job(bytes.substr(0, bytes.size() / 2)), WireError);
  EXPECT_THROW((void)parse_job("alien"), WireError);
  EXPECT_THROW((void)parse_job(bytes + "trailing"), WireError);
}

// --- hostile bytes ----------------------------------------------------------

/// "decoded" or "wire-error" when `decode` accepts or refuses `bytes` the
/// allowed ways; any other exception comes back as its message.
std::string decode_outcome(
    const std::function<void(std::string_view)>& decode,
    std::string_view bytes) {
  try {
    decode(bytes);
    return "decoded";
  } catch (const WireError&) {
    return "wire-error";
  } catch (const std::exception& e) {
    return std::string("threw: ") + e.what();
  }
}

TEST(Protocol, EveryTruncationAndBitFlipDecodesOrThrowsWireError) {
  // Every payload a peer can send: each proper prefix must throw WireError,
  // and each single-bit flip must decode or throw WireError, nothing else
  // (the sanitizer build also catches a read out of bounds). A job that
  // decodes must name only enumerators this build knows: a campaign run
  // under any other yields a row that describes no real configuration.
  DaemonStatus status;
  status.uptime_ms = 123456;
  status.workers = 4;
  status.jobs_accepted = 5;
  status.jobs_rejected = 1;
  status.cells_done = 40;
  status.trials_done = 4000;
  status.rows_streamed = 40;
  status.metrics.push_back({"campaign.golden_runs", 0, 4, 0, 0, 0});
  status.metrics.push_back({"sweep.point_us", 2, 17, 90210, 55, 780});
  const DoneSummary done{3, 99, 7};
  const auto check_job = [](std::string_view b) {
    const CampaignJob j = parse_job(b);
    if (j.spec.target > core::InjectTarget::kL2) {
      throw std::logic_error("decoded an unknown inject target");
    }
    if (j.spec.base.hazard_rule > cpu::HazardRule::kPaperLiteral) {
      throw std::logic_error("decoded an unknown hazard rule");
    }
  };
  const std::vector<
      std::tuple<const char*, std::string,
                 std::function<void(std::string_view)>>>
      payloads = {
          {"hello", hello_payload(),
           [](std::string_view b) { check_hello(b); }},
          {"done", encode_done(done),
           [](std::string_view b) { (void)decode_done(b); }},
          {"string list", encode_string_list({"a", "", "with,comma", "\n"}),
           [](std::string_view b) { (void)decode_string_list(b); }},
          {"status", encode_status(status),
           [](std::string_view b) { (void)decode_status(b); }},
          {"2-cell job", serialize_job(sample_job()), check_job},
      };
  for (const auto& [name, bytes, decode] : payloads) {
    ASSERT_EQ(decode_outcome(decode, bytes), "decoded") << name;
    for (std::size_t n = 0; n < bytes.size(); ++n) {
      EXPECT_EQ(decode_outcome(decode, std::string_view(bytes).substr(0, n)),
                "wire-error")
          << name << " cut to " << n << " of " << bytes.size() << " bytes";
    }
    for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
      std::string flipped = bytes;
      flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
      const std::string got = decode_outcome(decode, flipped);
      EXPECT_TRUE(got == "decoded" || got == "wire-error")
          << name << " with byte " << bit / 8 << " bit " << bit % 8
          << " flipped: " << got;
    }
  }
}

// --- daemon end to end ------------------------------------------------------

struct DaemonFixture {
  std::string socket_path;
  std::atomic<bool> stop{false};
  std::thread thread;

  DaemonFixture() {
    static int counter = 0;
    socket_path = (std::filesystem::temp_directory_path() /
                   ("laec-test-daemon-" + std::to_string(::getpid()) + "-" +
                    std::to_string(counter++) + ".sock"))
                      .string();
    thread = std::thread([this] {
      ServeOptions so;
      so.socket_path = socket_path;
      so.workers = 2;
      so.stop = &stop;
      so.verbose = false;
      (void)run_daemon(so);
    });
    // Wait for the socket to appear.
    for (int i = 0; i < 200; ++i) {
      if (std::filesystem::exists(socket_path)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  ~DaemonFixture() {
    if (std::filesystem::exists(socket_path)) {
      try {
        request_shutdown(socket_path);
      } catch (const std::exception&) {
        stop.store(true);
      }
    } else {
      stop.store(true);
    }
    if (thread.joinable()) thread.join();
  }
};

std::string local_csv(const CampaignJob& job, unsigned shard_index = 0,
                      unsigned shard_count = 1) {
  std::ostringstream out;
  report::CsvWriter w(out);
  reliability::CampaignOptions o;
  o.threads = 1;
  o.base_seed = job.base_seed;
  o.shard_index = shard_index;
  o.shard_count = shard_count;
  o.sink = &w;
  (void)reliability::run_campaign(job.cells, job.spec, o);
  return out.str();
}

std::string submit_csv(const std::string& socket_path, CampaignJob job) {
  std::ostringstream out;
  report::CsvWriter w(out);
  (void)submit_job(socket_path, job, w);
  return out.str();
}

TEST(Daemon, StreamsRowsByteIdenticalToALocalRun) {
  DaemonFixture daemon;
  const CampaignJob job = sample_job();
  EXPECT_EQ(submit_csv(daemon.socket_path, job), local_csv(job));
}

TEST(Daemon, ComplementaryShardClientsCoverTheGrid) {
  DaemonFixture daemon;
  CampaignJob job = sample_job();

  job.shard_index = 0;
  job.shard_count = 2;
  const std::string shard0 = submit_csv(daemon.socket_path, job);
  EXPECT_EQ(shard0, local_csv(job, 0, 2));

  job.shard_index = 1;
  const std::string shard1 = submit_csv(daemon.socket_path, job);
  EXPECT_EQ(shard1, local_csv(job, 1, 2));

  EXPECT_NE(shard0, shard1);
}

TEST(Daemon, OneJobRunsAsOneCampaign) {
  // A 2-scheme x 2-rate job is one campaign on the daemon's pool: each
  // (workload, scheme) runs one golden run that its other rate cell
  // reuses, and the campaign.trials_done gauge counts the whole job.
  DaemonFixture daemon;
  CampaignJob job = sample_job();
  reliability::CampaignGrid grid;
  grid.workloads({"a2time"}).schemes({"laec", "sec-daec-39-32"});
  grid.rates({*reliability::tech_preset("40nm"),
              *reliability::tech_preset("28nm")});
  job.cells = grid.cells();
  ASSERT_EQ(job.cells.size(), 4u);

  obs::Registry& reg = obs::Registry::global();
  const u64 runs = reg.counter("campaign.golden_runs").value();
  const u64 hits = reg.counter("campaign.golden_cache_hits").value();
  const std::string got = submit_csv(daemon.socket_path, job);
  EXPECT_EQ(reg.counter("campaign.golden_runs").value() - runs, 2u);
  EXPECT_EQ(reg.counter("campaign.golden_cache_hits").value() - hits, 2u);
  EXPECT_EQ(reg.gauge("campaign.trials_done").value(), 4u * job.spec.trials);
  EXPECT_EQ(got, local_csv(job));
}

TEST(Daemon, ConcurrentClientsBothGetExactRows) {
  DaemonFixture daemon;
  const CampaignJob job = sample_job();
  const std::string want = local_csv(job);
  std::string got_a, got_b;
  std::thread a([&] { got_a = submit_csv(daemon.socket_path, job); });
  std::thread b([&] { got_b = submit_csv(daemon.socket_path, job); });
  a.join();
  b.join();
  EXPECT_EQ(got_a, want);
  EXPECT_EQ(got_b, want);
}

TEST(Daemon, RejectsJobsWithUnknownSchemeOrWorkload) {
  DaemonFixture daemon;
  CampaignJob job = sample_job();
  job.cells[0].workload = "no-such-kernel";
  std::ostringstream out;
  report::CsvWriter w(out);
  EXPECT_THROW((void)submit_job(daemon.socket_path, job, w),
               std::runtime_error);
  // The daemon survives a rejected job and still serves good ones.
  EXPECT_EQ(submit_csv(daemon.socket_path, sample_job()),
            local_csv(sample_job()));
}

TEST(Daemon, ImpossibleGeometryGetsAnErrorFrameAndTheDaemonLivesOn) {
  // Job bytes come off a socket: a zero-way DL1 must come back as an error
  // frame, never a crashed daemon.
  DaemonFixture daemon;
  CampaignJob job = sample_job();
  job.spec.base.dl1_ways = 0;
  std::ostringstream out;
  report::CsvWriter w(out);
  try {
    (void)submit_job(daemon.socket_path, job, w);
    FAIL() << "a zero-way DL1 job was served";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("ways"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(submit_csv(daemon.socket_path, sample_job()),
            local_csv(sample_job()));
}

TEST(Daemon, ShutdownRequestStopsTheDaemon) {
  std::string path;
  {
    DaemonFixture daemon;
    path = daemon.socket_path;
    ASSERT_TRUE(std::filesystem::exists(path));
    request_shutdown(path);
    // Destructor joins; a second shutdown in ~DaemonFixture is a no-op
    // because the socket file is gone.
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(Daemon, ShutdownLetsAcceptedJobsFinish) {
  // Two accepted jobs, one on the pool and one waiting for it, when the
  // stop request arrives: both still get every row before the daemon
  // exits.
  std::string path;
  CampaignJob job = sample_job();
  job.spec.trials = 96;  // long enough that neither job is done at the stop
  std::string got_a, got_b;
  {
    DaemonFixture daemon;
    path = daemon.socket_path;
    std::thread a([&] { got_a = submit_csv(path, job); });
    std::thread b([&] { got_b = submit_csv(path, job); });
    DaemonStatus seen;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    do {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      seen = request_status(path);
    } while (seen.jobs_accepted < 2 &&
             std::chrono::steady_clock::now() < deadline);
    request_shutdown(path);
    a.join();
    b.join();
    EXPECT_EQ(seen.jobs_accepted, 2u);
    EXPECT_EQ(seen.cells_done, 0u) << "a job finished before the stop";
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  const std::string want = local_csv(job);
  EXPECT_EQ(got_a, want);
  EXPECT_EQ(got_b, want);
}

}  // namespace
}  // namespace laec::service
