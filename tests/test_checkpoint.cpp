// Checkpoint/resume: the hard contract is that an interrupted-then-resumed
// campaign emits byte-identical rows to an uninterrupted run — across one
// interruption, across an interruption at EVERY round boundary, and with
// the sequential stopping rule ending cells early. Plus the durability
// guards: corrupt / truncated / wrong-version / wrong-identity checkpoint
// files are rejected loudly.
#include "service/checkpoint.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"
#include "reliability/campaign.hpp"
#include "service/job.hpp"
#include "service/wire.hpp"

namespace laec::service {
namespace {

using reliability::CampaignCell;
using reliability::CampaignOptions;
using reliability::CampaignSpec;
using reliability::CellProgress;

/// Unique temp file per test, removed on destruction.
struct TempPath {
  std::string path;
  explicit TempPath(const char* tag) {
    static int counter = 0;
    path = (std::filesystem::temp_directory_path() /
            ("laec-ckpt-test-" + std::string(tag) + "-" +
             std::to_string(::getpid()) + "-" + std::to_string(counter++)))
               .string();
  }
  ~TempPath() {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
};

/// Every counter of cell 0 holds a distinct nonzero value, so swapping any
/// two fields in the layout changes the bytes.
std::vector<CellProgress> sample_cells() {
  std::vector<CellProgress> cells(2);
  cells[0].index = 0;
  cells[0].done = 15;
  cells[0].finished = true;
  cells[0].trials = 15;
  cells[0].events = 17;
  cells[0].events_dropped = 6;
  cells[0].masked = 5;
  cells[0].corrected = 4;
  cells[0].due_recovered = 3;
  cells[0].sdc = 2;
  cells[0].data_loss = 1;
  cells[0].total_cycles = 123456789;
  cells[0].pruned = 7;
  cells[0].fast_forwarded = 8;
  cells[0].cycles_skipped = 987654;
  cells[0].device_hours = 0.1 + 0.2;  // not exactly representable
  cells[1].index = 3;
  cells[1].done = 4;
  cells[1].trials = 4;
  cells[1].masked = 4;
  cells[1].device_hours = 1e-300;  // tiny: formatting would destroy it
  return cells;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Checkpoint, SaveLoadRoundTripsEveryFieldBitExactly) {
  TempPath tmp("roundtrip");
  const auto cells = sample_cells();
  save_checkpoint(tmp.path, 0xfeedbeef, cells);
  const auto loaded = load_checkpoint(tmp.path, 0xfeedbeef);
  ASSERT_EQ(loaded.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(loaded[i].index, cells[i].index);
    EXPECT_EQ(loaded[i].done, cells[i].done);
    EXPECT_EQ(loaded[i].finished, cells[i].finished);
    EXPECT_EQ(loaded[i].trials, cells[i].trials);
    EXPECT_EQ(loaded[i].events, cells[i].events);
    EXPECT_EQ(loaded[i].events_dropped, cells[i].events_dropped);
    EXPECT_EQ(loaded[i].masked, cells[i].masked);
    EXPECT_EQ(loaded[i].corrected, cells[i].corrected);
    EXPECT_EQ(loaded[i].due_recovered, cells[i].due_recovered);
    EXPECT_EQ(loaded[i].sdc, cells[i].sdc);
    EXPECT_EQ(loaded[i].data_loss, cells[i].data_loss);
    EXPECT_EQ(loaded[i].total_cycles, cells[i].total_cycles);
    EXPECT_EQ(loaded[i].pruned, cells[i].pruned);
    EXPECT_EQ(loaded[i].fast_forwarded, cells[i].fast_forwarded);
    EXPECT_EQ(loaded[i].cycles_skipped, cells[i].cycles_skipped);
    // Bit-exact, not approximately equal: resumed rows must be
    // byte-identical, and device_hours feeds FIT/MTTF columns.
    EXPECT_EQ(std::bit_cast<u64>(loaded[i].device_hours),
              std::bit_cast<u64>(cells[i].device_hours));
  }
}

TEST(Checkpoint, RejectsMissingCorruptTruncatedAndForeignFiles) {
  TempPath tmp("guards");
  EXPECT_THROW((void)load_checkpoint(tmp.path, 1), WireError);  // missing

  save_checkpoint(tmp.path, 1, sample_cells());
  const std::string bytes = read_bytes(tmp.path);
  const auto write_bytes = [&](const std::string& b) {
    std::ofstream out(tmp.path, std::ios::binary | std::ios::trunc);
    out.write(b.data(), static_cast<std::streamsize>(b.size()));
  };

  {  // wrong identity
    EXPECT_THROW((void)load_checkpoint(tmp.path, 2), WireError);
  }
  {  // bad magic
    std::string bad = bytes;
    bad[0] = 'X';
    write_bytes(bad);
    EXPECT_THROW((void)load_checkpoint(tmp.path, 1), WireError);
  }
  {  // flipped payload bit -> checksum mismatch
    std::string bad = bytes;
    bad[bytes.size() - 3] = static_cast<char>(bad[bytes.size() - 3] ^ 1);
    write_bytes(bad);
    EXPECT_THROW((void)load_checkpoint(tmp.path, 1), WireError);
  }
  {  // truncation
    write_bytes(bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW((void)load_checkpoint(tmp.path, 1), WireError);
  }
  {  // unsupported version: rebuild with version+1 and a VALID checksum,
     // so the version check itself is what fires
    ByteWriter payload;
    payload.put_u32(kCheckpointVersion + 1);
    payload.put_string("");  // shape does not matter past the version
    ByteWriter file;
    for (const char c : kCheckpointMagic) file.put_u8(static_cast<u8>(c));
    file.put_u64(fnv1a(payload.bytes()));
    std::string all = file.take();
    all += payload.bytes();
    write_bytes(all);
    EXPECT_THROW((void)load_checkpoint(tmp.path, 1), WireError);
  }
}

TEST(Checkpoint, PayloadLayoutIsPinned) {
  // A save/load pair rewritten in a new field order still round-trips, yet
  // every existing checkpoint file would stop resuming correctly. Pin the
  // bytes: this hash may only change together with kCheckpointVersion.
  TempPath tmp("pin");
  save_checkpoint(tmp.path, 0x1aec, sample_cells());
  const std::string bytes = read_bytes(tmp.path);
  const std::size_t head = sizeof kCheckpointMagic + 8;
  ASSERT_GT(bytes.size(), head);
  const std::string_view payload = std::string_view(bytes).substr(head);
  // version, identity, cell count; per cell index, done, finished, twelve
  // u64 counters and the device-hours bits.
  EXPECT_EQ(payload.size(), 4u + 8u + 4u + 2u * (8u + 4u + 1u + 13u * 8u));
  EXPECT_EQ(kCheckpointVersion, 3u);
  EXPECT_EQ(fnv1a(payload), 0x7310b3fa66904240ull);
}

TEST(Checkpoint, SaveIsAtomicViaRename) {
  TempPath tmp("atomic");
  save_checkpoint(tmp.path, 7, sample_cells());
  EXPECT_FALSE(std::filesystem::exists(tmp.path + ".tmp"));
  EXPECT_TRUE(std::filesystem::exists(tmp.path));
}

// --- resume byte-identity ---------------------------------------------------

struct CampaignSetup {
  std::vector<CampaignCell> cells;
  CampaignSpec spec;
  u64 identity = 0;
};

CampaignSetup small_campaign(double target_half_width = 0.0) {
  reliability::CampaignGrid grid;
  grid.workloads({"a2time"}).schemes({"laec", "sec-daec-39-32"});
  grid.rates({*reliability::tech_preset("40nm")});
  CampaignSetup s;
  s.cells = grid.cells();
  s.spec.trials = 12;
  s.spec.min_trials = 4;
  s.spec.batch = 4;
  s.spec.target_half_width = target_half_width;
  CampaignJob job;
  job.spec = s.spec;
  job.cells = s.cells;
  s.identity = campaign_identity(job);
  return s;
}

std::string run_to_csv(const CampaignSetup& s, const CampaignOptions& base) {
  std::ostringstream out;
  report::CsvWriter w(out);
  CampaignOptions o = base;
  o.threads = 1;
  o.sink = &w;
  const auto sum = reliability::run_campaign(s.cells, s.spec, o);
  EXPECT_FALSE(sum.interrupted);
  return out.str();
}

/// Run the campaign but stop after `rounds` rounds, checkpointing every
/// round. Returns true if it was actually interrupted (false = finished).
bool run_interrupted(const CampaignSetup& s, const std::string& ckpt,
                     unsigned rounds, bool resume_first) {
  std::ostringstream out;
  report::CsvWriter w(out);
  CampaignOptions o;
  o.threads = 1;
  o.sink = &w;
  std::vector<CellProgress> restored;
  if (resume_first) {
    restored = load_checkpoint(ckpt, s.identity);
    o.resume_from = &restored;
  }
  unsigned seen = 0;
  o.on_round = [&](const std::vector<CellProgress>& p) {
    ++seen;
    save_checkpoint(ckpt, s.identity, p);
  };
  o.should_stop = [&] { return seen >= rounds; };
  const auto sum = reliability::run_campaign(s.cells, s.spec, o);
  if (sum.interrupted) {
    EXPECT_TRUE(out.str().empty()) << "interrupted runs must emit no rows";
  }
  return sum.interrupted;
}

std::string resume_to_csv(const CampaignSetup& s, const std::string& ckpt) {
  std::ostringstream out;
  report::CsvWriter w(out);
  CampaignOptions o;
  o.threads = 1;
  o.sink = &w;
  const auto restored = load_checkpoint(ckpt, s.identity);
  o.resume_from = &restored;
  const auto sum = reliability::run_campaign(s.cells, s.spec, o);
  EXPECT_FALSE(sum.interrupted);
  return out.str();
}

TEST(CheckpointResume, InterruptedThenResumedIsByteIdentical) {
  const auto s = small_campaign();
  const std::string base = run_to_csv(s, {});

  TempPath ckpt("resume1");
  ASSERT_TRUE(run_interrupted(s, ckpt.path, 1, false));
  EXPECT_EQ(resume_to_csv(s, ckpt.path), base);
}

TEST(CheckpointResume, InterruptingEveryRoundStillConverges) {
  // Kill-and-resume after every single round: each resume advances one
  // more round, and the final emission is still byte-identical.
  const auto s = small_campaign();
  const std::string base = run_to_csv(s, {});

  TempPath ckpt("resume-all");
  ASSERT_TRUE(run_interrupted(s, ckpt.path, 1, false));
  int safety = 0;
  while (run_interrupted(s, ckpt.path, 1, true)) {
    ASSERT_LT(++safety, 64) << "campaign never converged";
  }
  EXPECT_EQ(resume_to_csv(s, ckpt.path), base);
}

TEST(CheckpointResume, StoppingRuleCellsSurviveTheInterrupt) {
  // A loose CI target makes cells finish at different rounds; the cursors
  // must preserve each cell's own stopping trajectory.
  const auto s = small_campaign(0.45);
  const std::string base = run_to_csv(s, {});

  TempPath ckpt("resume-ci");
  if (!run_interrupted(s, ckpt.path, 1, false)) {
    GTEST_SKIP() << "every cell stopped in round one; nothing to resume";
  }
  EXPECT_EQ(resume_to_csv(s, ckpt.path), base);
}

TEST(CheckpointResume, FullyFinishedCheckpointJustReEmits) {
  const auto s = small_campaign();
  const std::string base = run_to_csv(s, {});

  TempPath ckpt("resume-done");
  // Run to completion while checkpointing every round.
  {
    std::ostringstream out;
    report::CsvWriter w(out);
    CampaignOptions o;
    o.threads = 1;
    o.sink = &w;
    o.on_round = [&](const std::vector<CellProgress>& p) {
      save_checkpoint(ckpt.path, s.identity, p);
    };
    (void)reliability::run_campaign(s.cells, s.spec, o);
  }
  // Resuming a finished checkpoint runs zero trials and emits everything.
  EXPECT_EQ(resume_to_csv(s, ckpt.path), base);
}

TEST(CheckpointResume, RejectsCursorsForForeignCells) {
  const auto s = small_campaign();
  std::vector<CellProgress> bogus(1);
  bogus[0].index = 999;  // not a cell of this campaign
  CampaignOptions o;
  o.threads = 1;
  o.resume_from = &bogus;
  EXPECT_THROW((void)reliability::run_campaign(s.cells, s.spec, o),
               std::invalid_argument);
}

TEST(CheckpointResume, RejectsInconsistentCursors) {
  const auto s = small_campaign();
  std::vector<CellProgress> bad(1);
  bad[0].index = 0;
  bad[0].done = 4;
  bad[0].trials = 4;
  bad[0].masked = 1;  // counters sum to 1, not 4
  CampaignOptions o;
  o.threads = 1;
  o.resume_from = &bad;
  EXPECT_THROW((void)reliability::run_campaign(s.cells, s.spec, o),
               std::invalid_argument);
}

}  // namespace
}  // namespace laec::service
