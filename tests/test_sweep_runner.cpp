// SweepRunner determinism: the whole point of the runner is that threading
// and sharding are pure mechanism — the result rows, their order and the
// batched aggregates must be byte-identical at any thread count, and the
// union of shards must equal the unsharded run.
#include "runner/sweep_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <sstream>
#include <thread>

#include "report/sink.hpp"

namespace laec::runner {
namespace {

using cpu::EccPolicy;
using cpu::HazardRule;

SweepGrid small_trace_grid() {
  SweepGrid g;
  g.workloads({"tblook", "canrdr", "matrix"})
      .schemes({"no-ecc", "laec", "extra-stage"})
      .mode(RunMode::kTrace)
      .trace_ops(4'000);
  return g;
}

/// Run the grid at `threads` threads and return the streamed CSV text.
std::string csv_at(const SweepGrid& grid, unsigned threads,
                   unsigned shard_count = 1, unsigned shard_index = 0) {
  std::ostringstream out;
  report::CsvWriter sink(out);
  SweepOptions opts;
  opts.threads = threads;
  opts.shard_count = shard_count;
  opts.shard_index = shard_index;
  opts.sink = &sink;
  const auto summary = run_sweep(grid, opts);
  EXPECT_EQ(summary.self_check_failures, 0u);
  return out.str();
}

TEST(SweepGrid, ExpansionIsStableAndComplete) {
  const auto pts = small_trace_grid().points();
  ASSERT_EQ(pts.size(), 9u);  // 3 workloads x 3 schemes
  // Workload-major, fixed inner order; indices are positional.
  EXPECT_EQ(pts[0].workload, "tblook");
  EXPECT_EQ(pts[0].config.deployment.name, "no-ecc");
  EXPECT_EQ(pts[1].config.deployment.name, "laec");
  EXPECT_EQ(pts[3].workload, "canrdr");
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].index, i);
    EXPECT_EQ(pts[i].variant, "default");
  }
}

TEST(SweepGrid, ReplicatesAxisExpandsInnermostWithTrialIndices) {
  SweepGrid g;
  g.workloads({"tblook"}).schemes({"no-ecc", "laec"});
  g.replicates(3).mode(RunMode::kTrace);
  const auto pts = g.points();
  ASSERT_EQ(pts.size(), 6u);  // 2 schemes x 3 replicates, replicate inner
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].index, i);
    EXPECT_EQ(pts[i].replicate, i % 3);
  }
  EXPECT_EQ(pts[2].config.deployment.name, "no-ecc");
  EXPECT_EQ(pts[3].config.deployment.name, "laec");
  // Replicates share the workload-identity seed; what varies per trial is
  // mixed in inside run_point (program mode: the fault stream; trace
  // mode: the synthetic trace itself).
  EXPECT_EQ(point_seed(1, pts[0]), point_seed(1, pts[1]));
  EXPECT_THROW((void)g.replicates(0), std::invalid_argument);
}

TEST(SweepRunner, TraceReplicatesAreIndependentSamples) {
  SweepGrid g;
  g.workloads({"tblook"})
      .schemes({"laec"})
      .replicates(3)
      .mode(RunMode::kTrace)
      .trace_ops(4000);
  const auto summary = run_sweep(g.points(), {});
  ASSERT_EQ(summary.results.size(), 3u);
  // Replicate 0 keeps the historical trace; later replicates draw fresh
  // traces — byte-identical rows across them would make Monte Carlo
  // statistics on the replicate axis spurious.
  EXPECT_NE(summary.results[0].stats.cycles, summary.results[1].stats.cycles);
  EXPECT_NE(summary.results[1].stats.cycles, summary.results[2].stats.cycles);
}

TEST(SweepGrid, VariantsApplyTweaksOnTopOfBaseConfig) {
  core::SimConfig base;
  base.write_buffer_depth = 2;
  SweepGrid g;
  g.workloads({"tblook"})
      .schemes({"laec"})
      .base_config(base)
      .variants({{"small", [](core::SimConfig& c) { c.dl1_size_bytes = 1024; }},
                 {"big", [](core::SimConfig& c) {
                    c.dl1_size_bytes = 128 * 1024;
                  }}});
  const auto pts = g.points();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].variant, "small");
  EXPECT_EQ(pts[0].config.dl1_size_bytes, 1024u);
  EXPECT_EQ(pts[1].config.dl1_size_bytes, 128u * 1024u);
  // Base config survives the tweak; grid-swept axes are overwritten.
  EXPECT_EQ(pts[0].config.write_buffer_depth, 2u);
  EXPECT_EQ(pts[0].config.deployment.name, "laec");
}

TEST(SweepGrid, StringSchemeAxisCarriesDeploymentsIntoPoints) {
  SweepGrid g;
  g.workloads({"tblook"})
      .schemes({"no-ecc", "sec-daec-39-32", "extra-stage:sec-daec-39-32"})
      .mode(RunMode::kTrace);
  const auto pts = g.points();
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts[1].config.deployment.dl1.codec, "sec-daec-39-32");
  EXPECT_EQ(pts[1].config.deployment.timing, EccPolicy::kLaec);
  EXPECT_EQ(pts[2].config.deployment.timing, EccPolicy::kExtraStage);
  // Policy keys expand to their canonical deployments.
  SweepGrid policy;
  policy.workloads({"tblook"}).schemes({"wt-parity"});
  const auto ppts = policy.points();
  ASSERT_EQ(ppts.size(), 1u);
  EXPECT_EQ(ppts[0].config.deployment.dl1.codec, "parity-32");
}

TEST(SweepGrid, CompoundHierarchyKeysSweepPerLevelCodecs) {
  SweepGrid g;
  g.workloads({"tblook"})
      .schemes({"laec", "laec+l2:sec-daec-39-32",
                "laec+l1i:parity-i2-32+l2:sec-daec-39-32"})
      .mode(RunMode::kTrace);
  const auto pts = g.points();
  ASSERT_EQ(pts.size(), 3u);
  // All three points share the DL1 deployment; the levels differ.
  for (const auto& p : pts) {
    EXPECT_EQ(p.config.deployment.dl1.codec, "secded-39-32");
    EXPECT_EQ(p.config.deployment.timing, cpu::EccPolicy::kLaec);
  }
  EXPECT_EQ(pts[0].config.deployment.l2.codec, "secded-39-32");
  EXPECT_EQ(pts[1].config.deployment.l2.codec, "sec-daec-39-32");
  EXPECT_EQ(pts[2].config.deployment.l1i.codec, "parity-i2-32");
  // Rows carry the per-level codec columns.
  const std::string csv = csv_at(g, 2);
  EXPECT_NE(csv.find("laec+l1i:parity-i2-32+l2:sec-daec-39-32"),
            std::string::npos)
      << csv;
  EXPECT_NE(csv.find("parity-i2-32"), std::string::npos);
}

TEST(SweepGrid, UnknownSchemeKeyThrowsOnExpansion) {
  SweepGrid g;
  g.workloads({"tblook"}).schemes({"laec", "not-a-scheme"});
  EXPECT_THROW((void)g.points(), std::invalid_argument);
}

TEST(SweepRunner, RowsCarrySchemeAndCodecNames) {
  SweepGrid g;
  g.workloads({"tblook"})
      .schemes({"secded-39-32", "sec-daec-39-32"})
      .mode(RunMode::kTrace)
      .trace_ops(1'000);
  const std::string csv = csv_at(g, 2);
  EXPECT_NE(csv.find(",codec_dl1,codec_l1i,codec_l2,"), std::string::npos)
      << csv;
  EXPECT_NE(csv.find("secded-39-32"), std::string::npos);
  EXPECT_NE(csv.find("sec-daec-39-32"), std::string::npos);
  // Column count of every row matches the header arity.
  std::istringstream in(csv);
  std::string line;
  std::getline(in, line);
  const auto commas = std::count(line.begin(), line.end(), ',');
  EXPECT_EQ(static_cast<std::size_t>(commas) + 1, row_headers().size());
  while (std::getline(in, line)) {
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), commas);
  }
}

TEST(PointSeed, DependsOnWorkloadIdentityNotGridPosition) {
  const auto pts = small_trace_grid().points();
  // Same workload, different ecc -> same seed (fair scheme comparisons).
  EXPECT_EQ(point_seed(1, pts[0]), point_seed(1, pts[1]));
  // Different workload -> different seed.
  EXPECT_NE(point_seed(1, pts[0]), point_seed(1, pts[3]));
  // Different base seed -> different seed.
  EXPECT_NE(point_seed(1, pts[0]), point_seed(2, pts[0]));
}

TEST(SweepRunner, ByteIdenticalRowsAtOneTwoAndEightThreads) {
  const auto grid = small_trace_grid();
  const std::string t1 = csv_at(grid, 1);
  const std::string t2 = csv_at(grid, 2);
  const std::string t8 = csv_at(grid, 8);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
  // Header + 9 data rows.
  EXPECT_EQ(std::count(t1.begin(), t1.end(), '\n'), 10);
}

TEST(SweepRunner, AggregatesMatchAtAnyThreadCount) {
  const auto grid = small_trace_grid();
  SweepOptions a, b;
  a.threads = 1;
  b.threads = 8;
  const auto ra = run_sweep(grid, a);
  const auto rb = run_sweep(grid, b);
  EXPECT_EQ(ra.points_run, 9u);
  EXPECT_EQ(ra.totals.items(), rb.totals.items());
  EXPECT_GT(ra.totals.value("cycles"), 0u);
  EXPECT_EQ(ra.totals.value("points"), 9u);
  EXPECT_EQ(ra.totals.value("completed"), 9u);
}

TEST(SweepRunner, ShardsPartitionTheGridExactly) {
  const auto grid = small_trace_grid();
  const auto pts = grid.points();
  const std::string full = csv_at(grid, 4);

  // Collect every shard's data rows (skipping the per-shard header).
  std::map<std::string, int> shard_rows;
  for (unsigned shard = 0; shard < 3; ++shard) {
    std::istringstream in(csv_at(grid, 4, 3, shard));
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) ++shard_rows[line];
  }
  std::map<std::string, int> full_rows;
  std::istringstream in(full);
  std::string line;
  std::getline(in, line);
  while (std::getline(in, line)) ++full_rows[line];

  EXPECT_EQ(shard_rows, full_rows);
  EXPECT_EQ(static_cast<std::size_t>(full_rows.size()), pts.size());
}

TEST(SweepRunner, ProgramModeRunsSelfChecks) {
  SweepGrid g;
  g.workloads({"tblook"}).schemes({"laec"}).mode(RunMode::kProgram);
  const auto summary = run_sweep(g, {});
  ASSERT_EQ(summary.results.size(), 1u);
  EXPECT_TRUE(summary.results[0].self_check_ok);
  EXPECT_TRUE(summary.results[0].stats.completed);
  EXPECT_EQ(summary.totals.value("self_check_failures"), 0u);
}

TEST(SweepRunner, InvalidShardOptionsThrow) {
  SweepGrid g;
  g.workloads({"tblook"}).mode(RunMode::kTrace).trace_ops(100);
  SweepOptions bad;
  bad.shard_count = 0;
  EXPECT_THROW((void)run_sweep(g, bad), std::invalid_argument);
  bad.shard_count = 2;
  bad.shard_index = 2;
  EXPECT_THROW((void)run_sweep(g, bad), std::invalid_argument);
}

TEST(SweepRunner, TraceModeWithFaultInjectionThrowsBeforeRunning) {
  core::SimConfig faulty;
  faulty.faults.emplace();
  faulty.faults->single_flip_prob = 0.01;
  SweepGrid g;
  g.workloads({"tblook"}).base_config(faulty).mode(RunMode::kTrace);
  EXPECT_THROW((void)run_sweep(g, {}), std::invalid_argument);
}

TEST(SweepRunner, UnknownWorkloadThrowsBeforeRunning) {
  SweepGrid g;
  g.workloads({"no-such-kernel"}).mode(RunMode::kTrace);
  EXPECT_THROW((void)run_sweep(g, {}), std::out_of_range);
}

TEST(SweepRunner, ConsumerTakesResultsAndCanStopTheSweep) {
  const auto points = small_trace_grid().points();
  ASSERT_GE(points.size(), 6u);
  // Every result reaches the consumer, moved in; the sweep keeps none.
  std::vector<char> seen(points.size(), 0);
  SweepOptions opts;
  opts.threads = 4;
  opts.consume = [&](PointResult&& r) {
    ++seen.at(r.point.index);
    return false;
  };
  const auto all = run_sweep(points, opts);
  EXPECT_TRUE(all.results.empty());
  for (const char n : seen) EXPECT_EQ(n, 1);
  // On one thread the points run in order, so a stop at the third result
  // leaves the rest unstarted and unconsumed.
  std::size_t consumed = 0;
  opts.threads = 1;
  opts.consume = [&](PointResult&&) { return ++consumed == 3; };
  (void)run_sweep(points, opts);
  EXPECT_EQ(consumed, 3u);
  // A consumer takes every result: a sink cannot share them.
  std::ostringstream out;
  report::CsvWriter sink(out);
  opts.sink = &sink;
  EXPECT_THROW((void)run_sweep(points, opts), std::invalid_argument);
}

TEST(ParallelFor, VisitsEveryIndexOnceAndRethrowsTheFirstFailure) {
  std::vector<std::atomic<int>> hits(97);
  parallel_for(hits.size(), 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  parallel_for(0, 4, [](std::size_t) { FAIL() << "no index to visit"; });
  EXPECT_THROW(parallel_for(64, 4,
                            [](std::size_t i) {
                              if (i == 5) throw std::invalid_argument("bad");
                            }),
               std::invalid_argument);
}

TEST(ParallelFor, StaticScheduleDealsIndicesBackAndForth) {
  constexpr unsigned kThreads = 3;
  std::vector<std::thread::id> ran_on(31);
  parallel_for(
      ran_on.size(), kThreads,
      [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); },
      Schedule::kStatic);
  // Round r hands index r*T + w to worker w (r even) or T-1-w (r odd);
  // worker w runs index w of round 0, and the caller is worker 0.
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  for (std::size_t i = 0; i < ran_on.size(); ++i) {
    const std::size_t round = i / kThreads, slot = i % kThreads;
    const std::size_t worker = round % 2 == 0 ? slot : kThreads - 1 - slot;
    EXPECT_EQ(ran_on[i], ran_on[worker]) << "index " << i;
  }
  EXPECT_THROW(parallel_for(
                   64, 4,
                   [](std::size_t i) {
                     if (i == 5) throw std::invalid_argument("bad");
                   },
                   Schedule::kStatic),
               std::invalid_argument);
}

TEST(RowSinks, CsvEscapesAndJsonPairsUpHeaders) {
  std::ostringstream csv;
  report::CsvWriter c(csv);
  c.begin({"a", "b"});
  c.row({"x,y", "q\"z"});
  EXPECT_EQ(csv.str(), "a,b\n\"x,y\",\"q\"\"z\"\n");

  std::ostringstream js;
  report::JsonLinesWriter j(js);
  j.begin({"a", "b"});
  j.row({"1", "two\nlines"});
  EXPECT_EQ(js.str(), "{\"a\":\"1\",\"b\":\"two\\nlines\"}\n");

  EXPECT_NE(report::make_row_writer("csv", csv), nullptr);
  EXPECT_NE(report::make_row_writer("jsonl", js), nullptr);
  EXPECT_EQ(report::make_row_writer("xml", js), nullptr);
}

}  // namespace
}  // namespace laec::runner
