// Fast-path / slow-path equivalence suite.
//
// The hot-path refactor split every cache word read into a devirtualized
// clean-hit fast test and a cold generic decode path. The refactor's
// contract is observational invisibility: for ANY deployment and ANY fault
// pattern, routing every read through the generic path
// (SimConfig::force_generic_ecc_path) must produce bit-identical results —
// same cycles, same ECC event counts, same CSV row, same self-check
// verdict. This suite runs representative kernels under every registered
// 32-bit codec with fault injection enabled and asserts exactly that, then
// checks the multi-process sweep driver merges rows byte-identically at
// --procs=1/2/4.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "ecc/registry.hpp"
#include "runner/multiproc.hpp"
#include "runner/sweep_runner.hpp"

namespace laec {
namespace {

/// Deployable codec keys, deduplicated by canonical codec name (the legacy
/// aliases construct the same instances).
std::vector<std::string> deployable_codec_keys() {
  std::vector<std::string> keys;
  std::set<std::string> seen;
  for (const auto& key : ecc::registered_codecs()) {
    const auto codec = ecc::make_codec(key);
    if (codec->data_bits() != 32) continue;
    if (!seen.insert(std::string(codec->name())).second) continue;
    keys.push_back(key);
  }
  return keys;
}

/// The storm every point runs under: singles and adjacent doubles at rates
/// high enough to exercise correction, scrubbing and refetch recovery.
core::SimConfig injected_config() {
  core::SimConfig cfg;
  cfg.faults.emplace();
  cfg.faults->single_flip_prob = 0.002;
  cfg.faults->double_flip_prob = 0.001;
  cfg.faults->adjacent_doubles = true;
  return cfg;
}

std::vector<runner::SweepPoint> equivalence_points(bool force_generic) {
  core::SimConfig cfg = injected_config();
  cfg.force_generic_ecc_path = force_generic;
  runner::SweepGrid grid;
  grid.workloads({"tblook", "matrix"})
      .schemes(deployable_codec_keys())
      .base_config(cfg);
  return grid.points();
}

TEST(FastPathEquivalence, EveryCodecUnderInjectionMatchesGenericPath) {
  runner::SweepOptions opts;
  opts.threads = 1;
  const auto fast = runner::run_sweep(equivalence_points(false), opts);
  const auto slow = runner::run_sweep(equivalence_points(true), opts);

  ASSERT_EQ(fast.results.size(), slow.results.size());
  ASSERT_GT(fast.results.size(), 0u);

  u64 ecc_events = 0;
  for (std::size_t i = 0; i < fast.results.size(); ++i) {
    const auto& f = fast.results[i];
    const auto& s = slow.results[i];
    // The rendered CSV row covers scheme, cycles, CPI and every retained
    // per-level ECC counter — the exact observable surface of a sweep.
    EXPECT_EQ(runner::to_row(f), runner::to_row(s))
        << "row " << i << " (" << f.point.workload << " / "
        << f.point.config.deployment.name << ")";
    EXPECT_EQ(f.self_check_ok, s.self_check_ok) << "row " << i;
    ecc_events += f.stats.ecc_corrected + f.stats.ecc_detected_uncorrectable +
                  f.stats.parity_refetches;
  }
  // The storm must actually have exercised the slow path, or this suite
  // proves nothing.
  EXPECT_GT(ecc_events, 0u);

  // Batched totals agree too (every counter, not just the row columns).
  EXPECT_EQ(fast.totals.items(), slow.totals.items());
}

TEST(FastPathEquivalence, LutDecodeMatchesMatrixDecodeUnderInjection) {
  // The syndrome-LUT decode layer (SimConfig::lut_decode, --no-lut) must be
  // observationally invisible exactly like the fast/generic routing: every
  // codec, injection on, rows and totals byte-identical. Run the matrix
  // path through BOTH routings so the toggle is proven orthogonal to
  // force_generic_ecc_path.
  runner::SweepOptions opts;
  opts.threads = 1;
  core::SimConfig matrix_cfg = injected_config();
  matrix_cfg.lut_decode = false;
  runner::SweepGrid matrix_grid;
  matrix_grid.workloads({"tblook", "matrix"})
      .schemes(deployable_codec_keys())
      .base_config(matrix_cfg);
  const auto lut = runner::run_sweep(equivalence_points(false), opts);
  const auto mat = runner::run_sweep(matrix_grid.points(), opts);
  core::SimConfig generic_cfg = matrix_cfg;
  generic_cfg.force_generic_ecc_path = true;
  runner::SweepGrid generic_grid;
  generic_grid.workloads({"tblook", "matrix"})
      .schemes(deployable_codec_keys())
      .base_config(generic_cfg);
  const auto mat_generic = runner::run_sweep(generic_grid.points(), opts);

  ASSERT_EQ(lut.results.size(), mat.results.size());
  ASSERT_GT(lut.results.size(), 0u);
  u64 ecc_events = 0;
  for (std::size_t i = 0; i < lut.results.size(); ++i) {
    const auto& l = lut.results[i];
    EXPECT_EQ(runner::to_row(l), runner::to_row(mat.results[i]))
        << "row " << i << " (" << l.point.workload << " / "
        << l.point.config.deployment.name << ")";
    EXPECT_EQ(runner::to_row(l), runner::to_row(mat_generic.results[i]))
        << "row " << i << " (generic matrix)";
    EXPECT_EQ(l.self_check_ok, mat.results[i].self_check_ok) << "row " << i;
    ecc_events += l.stats.ecc_corrected + l.stats.ecc_detected_uncorrectable +
                  l.stats.parity_refetches;
  }
  EXPECT_GT(ecc_events, 0u);
  EXPECT_EQ(lut.totals.items(), mat.totals.items());
  EXPECT_EQ(lut.totals.items(), mat_generic.totals.items());
}

TEST(FastPathEquivalence, CleanRunMatchesGenericPath) {
  // No injector at all: the pure fast path against the pure generic path.
  runner::SweepGrid fast_grid, slow_grid;
  core::SimConfig slow_cfg;
  slow_cfg.force_generic_ecc_path = true;
  fast_grid.workloads({"matrix"}).schemes(runner::fig8_scheme_keys());
  slow_grid.workloads({"matrix"})
      .schemes(runner::fig8_scheme_keys())
      .base_config(slow_cfg);
  runner::SweepOptions opts;
  opts.threads = 1;
  const auto fast = runner::run_sweep(fast_grid.points(), opts);
  const auto slow = runner::run_sweep(slow_grid.points(), opts);
  ASSERT_EQ(fast.results.size(), slow.results.size());
  for (std::size_t i = 0; i < fast.results.size(); ++i) {
    EXPECT_EQ(runner::to_row(fast.results[i]), runner::to_row(slow.results[i]))
        << "row " << i;
  }
  EXPECT_EQ(fast.totals.items(), slow.totals.items());
}

TEST(FastPathEquivalence, ProcsMergeIsByteIdentical) {
  // The multi-process driver must reproduce the in-process row stream
  // byte-for-byte at any process count, injection included.
  const auto points = equivalence_points(false);
  std::string reference;
  for (const unsigned procs : {1u, 2u, 4u}) {
    runner::ProcOptions opts;
    opts.procs = procs;
    opts.format = "csv";
    opts.worker.threads = 1;
    std::ostringstream out;
    const auto summary = runner::run_sweep_procs(points, opts, out);
    EXPECT_EQ(summary.failed_workers, 0u) << "procs=" << procs;
    EXPECT_EQ(summary.points_run, points.size()) << "procs=" << procs;
    EXPECT_GT(summary.cycles, 0u);
    if (procs == 1) {
      reference = out.str();
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(out.str(), reference) << "procs=" << procs;
    }
  }
}

TEST(FastPathEquivalence, MergeKeepsSurvivorRowsWhenOneShardDiesEarly) {
  // A worker that died early leaves a short (or empty) shard file; the
  // merge must still emit every row the surviving workers finished, in
  // rotation order, instead of stopping at the first exhausted file.
  namespace fs = std::filesystem;
  const std::string prefix =
      (fs::temp_directory_path() / "laec-merge-test").string();
  const std::vector<std::string> paths = {prefix + ".0", prefix + ".1",
                                          prefix + ".2"};
  const std::vector<std::vector<std::string>> rows = {
      {"h", "a0"},             // died after one row
      {"h", "b0", "b1", "b2"},
      {"h", "c0", "c1", "c2"},
  };
  for (std::size_t j = 0; j < paths.size(); ++j) {
    std::ofstream f(paths[j], std::ios::trunc);
    for (const auto& r : rows[j]) f << r << '\n';
  }
  std::ostringstream out;
  runner::merge_shard_rows(paths, /*csv_header=*/true, out);
  EXPECT_EQ(out.str(), "h\na0\nb0\nc0\nb1\nc1\nb2\nc2\n");

  // Shard 0 empty (worker died before flushing anything): the header must
  // come from the first shard that has one. A torn final line (no trailing
  // newline — a worker killed mid-write) is dropped, not merged corrupt.
  {
    std::ofstream(paths[0], std::ios::trunc);
    std::ofstream f1(paths[1], std::ios::trunc);
    f1 << "h\nb0\nb1\n";
    f1.close();
    std::ofstream f2(paths[2], std::ios::trunc);
    f2 << "h\nc0\nc1-torn";  // no trailing newline
    f2.close();
    std::ostringstream out2;
    runner::merge_shard_rows(paths, /*csv_header=*/true, out2);
    EXPECT_EQ(out2.str(), "h\nb0\nc0\nb1\n");
  }
  for (const auto& p : paths) std::remove(p.c_str());
}

TEST(FastPathEquivalence, ProcsComposesWithOuterShard) {
  // --shard=I/N further subdivided across workers: every worker slice is a
  // subset of the parent shard, and the merged rows equal the parent
  // shard's in-process rows.
  const auto points = equivalence_points(false);
  for (unsigned shard = 0; shard < 2; ++shard) {
    runner::ProcOptions in_proc;
    in_proc.procs = 1;
    in_proc.worker.threads = 1;
    in_proc.worker.shard_index = shard;
    in_proc.worker.shard_count = 2;
    std::ostringstream ref;
    (void)runner::run_sweep_procs(points, in_proc, ref);

    runner::ProcOptions forked = in_proc;
    forked.procs = 3;
    std::ostringstream merged;
    const auto summary = runner::run_sweep_procs(points, forked, merged);
    EXPECT_EQ(summary.failed_workers, 0u);
    EXPECT_EQ(merged.str(), ref.str()) << "shard " << shard << "/2";
  }
}

}  // namespace
}  // namespace laec
