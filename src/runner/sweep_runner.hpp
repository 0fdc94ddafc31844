// SweepRunner — batched, sharded execution of SimConfig grids.
//
// Every headline result of the paper (Fig. 8 exec-time ratios, Table II
// characterization, the ablation sensitivity tables) is an embarrassingly
// parallel sweep: run each (workload × ecc policy × hazard rule × machine
// geometry) point, digest the stats, tabulate. SweepRunner is the one
// engine behind all of them:
//
//   * a SweepGrid builder expands the cross product into a deterministic,
//     stable list of SweepPoints (grid order never depends on threading);
//   * run_sweep() shards the points over a std::thread pool (parallel_for)
//     — workers pull indices from an atomic cursor, so load-imbalanced
//     kernels do not leave threads idle;
//   * each point gets a deterministic RNG seed derived from (base_seed,
//     grid index) by splitmix64, so trace generation and fault injection
//     reproduce bit-for-bit at any thread count and on any shard;
//   * results are batched into StatSet aggregates and streamed to an
//     optional report::RowWriter in grid order (a small reorder window
//     holds completed rows until their predecessors finish).
//
// Multi-machine scaling uses shard_count/shard_index: shard k of N runs the
// points with index % N == k; the union of all shards is the full grid.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/simulator.hpp"
#include "report/sink.hpp"
#include "sim/snapshot.hpp"
#include "workloads/eembc.hpp"

namespace laec::runner {

/// How a point's workload drives the simulated system.
enum class RunMode {
  kProgram,  ///< assemble + run the self-checking kernel on the real caches
  kTrace,    ///< calibrated synthetic trace (oracle DL1 outcomes)
};

[[nodiscard]] constexpr std::string_view to_string(RunMode m) {
  return m == RunMode::kProgram ? "program" : "trace";
}

struct GoldenRun;

/// One experiment: a workload under one fully-specified configuration.
struct SweepPoint {
  std::size_t index = 0;   ///< position in the expanded grid (stable)
  std::string workload;    ///< kernel name (workloads::kernel_by_name)
  std::string variant;     ///< human label of the config variant
  core::SimConfig config;
  RunMode mode = RunMode::kProgram;
  u64 trace_ops = 120'000;
  /// Monte Carlo trial index (the reliability campaign's trials axis).
  /// Replicates share the point's workload-identity seed — so every scheme
  /// sees the identical trace — but the FAULT storm's seed mixes this in,
  /// giving each trial an independent fault stream that is still
  /// seed-paired across schemes (trial t of scheme A and scheme B seed the
  /// same storm; the realized sequences diverge where codeword widths or
  /// recovery paths differ). 0 (the default) reproduces the pre-replicate
  /// seeding exactly.
  u64 replicate = 0;
  /// Fast-forward: the fault-free golden run of this point's workload and
  /// configuration. A program-mode replay point (config.faults with a
  /// pre-drawn schedule) that carries one simulates only the stretches of
  /// its storm the golden run cannot stand in for
  /// (core::run_program_replay). Null = simulate everything from reset.
  std::shared_ptr<const GoldenRun> golden;
};

struct PointResult {
  SweepPoint point;
  core::RunStats stats;
  /// Program mode: did every architecturally-final word match the kernel's
  /// C++ reference model? (Trace mode has no checks; stays true.)
  bool self_check_ok = true;
  /// Fault events the point's injector delivered (0 when faults unset).
  u64 faults_injected = 0;
  /// Fault events the injector sampled but could not deliver (per-access
  /// flip budget exhausted under extreme acceleration).
  u64 faults_dropped = 0;
  /// How a point with a golden run rejoined it (never, for one without).
  core::Rejoin rejoin;
};

/// A point's fault-free golden run (run_golden_point with snapshots): what
/// a replay point needs to skip the stretches of its trial that are the
/// golden run's. One serves every point of its timing class
/// (core::HierarchyDeployment::timing_class): `result` is the fault-free
/// result all of them share, and the snapshots carry no check bits, so a
/// restore derives them with the point's own codecs.
struct GoldenRun {
  sim::SnapshotStore snapshots;
  PointResult result;
};

/// Named SimConfig mutation (geometry / latency variants for ablations).
struct ConfigVariant {
  std::string name;
  std::function<void(core::SimConfig&)> tweak;
};

/// Cross-product grid builder. Order of expansion is fixed:
/// workload (outer) × variant × scheme × hazard × replicate (inner).
class SweepGrid {
 public:
  SweepGrid& workloads(std::vector<std::string> names);
  /// All 16 EEMBC-like kernels, Table II order.
  SweepGrid& all_workloads();
  /// The scheme axis, string-keyed: each entry is a HierarchyDeployment
  /// key — a policy name ("laec"), a registered codec name
  /// ("sec-daec-39-32"), "placement:codec", or a compound hierarchy key
  /// ("laec+l2:sec-daec-39-32").
  SweepGrid& schemes(std::vector<std::string> keys);
  SweepGrid& hazards(std::vector<cpu::HazardRule> rules);
  SweepGrid& variants(std::vector<ConfigVariant> variants);
  SweepGrid& base_config(core::SimConfig cfg);
  SweepGrid& mode(RunMode m);
  SweepGrid& trace_ops(u64 ops);
  /// Monte Carlo trials axis: expand every point into `n` replicates
  /// (innermost, replicate = 0..n-1). Program mode varies the FAULT
  /// stream per replicate (see SweepPoint::replicate); trace mode varies
  /// the synthetic TRACE itself (there is no storm to vary). n must
  /// be >= 1.
  SweepGrid& replicates(u64 n);

  /// Expand into the deterministic point list. Throws std::invalid_argument
  /// when a scheme key does not parse (unknown codec/placement).
  [[nodiscard]] std::vector<SweepPoint> points() const;

 private:
  std::vector<std::string> workloads_;
  std::vector<std::string> schemes_{"laec"};
  std::vector<cpu::HazardRule> hazards_{cpu::HazardRule::kExact};
  std::vector<ConfigVariant> variants_;
  core::SimConfig base_;
  RunMode mode_ = RunMode::kProgram;
  u64 trace_ops_ = 120'000;
  u64 replicates_ = 1;
};

struct SweepOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  unsigned threads = 0;
  /// Horizontal sharding: this process runs points with
  /// index % shard_count == shard_index.
  unsigned shard_count = 1;
  unsigned shard_index = 0;
  /// Base of the per-point deterministic seed derivation.
  u64 base_seed = 0x1aec;
  /// Optional streaming sink; rows arrive in grid order.
  report::RowWriter* sink = nullptr;
  /// Optional consumer, for a caller that folds results as they come in:
  /// each point's result is moved into it as soon as the point finishes,
  /// in completion order, one call at a time, on the pool thread that ran
  /// the point. The sweep then keeps, totals and emits nothing (`sink`
  /// must be unset; SweepSummary::results stays empty). Returning true
  /// stops the sweep: no point starts after that, points already running
  /// finish, and their results are dropped.
  std::function<bool(PointResult&&)> consume;
};

/// Digest of a whole sweep (this shard's slice).
struct SweepSummary {
  std::vector<PointResult> results;  ///< grid order (empty with a consumer)
  /// Batched counter aggregates over every point (cycles, instructions,
  /// loads, ... plus the merged pipeline/DL1/bus StatSets).
  StatSet totals;
  std::size_t points_run = 0;
  std::size_t self_check_failures = 0;
};

/// The paper's four-scheme comparison axis as scheme keys, baseline FIRST
/// ("no-ecc", "extra-cycle", "extra-stage", "laec"). Folding code (fig8,
/// ablations, CLI sweeps) relies on the baseline leading each workload
/// block to form overhead ratios — always sweep via this list.
[[nodiscard]] const std::vector<std::string>& fig8_scheme_keys();

/// Column names of the per-point result row, in emission order.
[[nodiscard]] const std::vector<std::string>& row_headers();

/// Render one result as a row matching row_headers().
[[nodiscard]] std::vector<std::string> to_row(const PointResult& r);

/// Deterministic per-point seed, mixed from base_seed and the point's
/// *workload identity* (name + trace length) — NOT its grid index or the
/// thread that happens to run it. Points that differ only in ECC policy,
/// hazard rule or geometry variant therefore replay the identical trace /
/// fault sequence, which keeps scheme-vs-scheme ratios (Fig. 8) fair.
[[nodiscard]] u64 point_seed(u64 base_seed, const SweepPoint& point);

/// The fault-storm seed a program-mode point's injector runs with:
/// point_seed mixed with the replicate index (and only here), so a cell's
/// trials share one trace but draw independent storms. Exposed so the
/// campaign pruner can pre-draw a trial's storm without simulating it.
[[nodiscard]] u64 fault_seed(u64 base_seed, const SweepPoint& point);

/// Run `point` fault-free (cfg.faults cleared, replicate pinned to 0 — the
/// golden trace every trial in the cell shares), with `recorder` observing
/// the array cfg.inject_target names. Program mode only. `snapshots`, when
/// non-null, receives full-state checkpoints at its configured consultation
/// cadence (see core::run_program_keep_system).
[[nodiscard]] PointResult run_golden_point(
    const SweepPoint& point, u64 base_seed, mem::ResidencyRecorder* recorder,
    sim::SnapshotStore* snapshots = nullptr);

/// How parallel_for hands indices to its T workers.
enum class Schedule {
  /// Each worker pulls the next index from an atomic cursor: uneven bodies
  /// balance out, and which thread runs an index follows timing.
  kDynamic,
  /// Indices are dealt out in rounds of T, back and forth: worker w runs
  /// w, 2T-1-w, 2T+w, 4T-1-w, ... Which worker runs an index never depends
  /// on timing, so neither does which thread allocates what; dealing back
  /// and forth spreads runs of similar neighbours over all workers.
  kStatic,
};

/// The one thread pool behind run_sweep and the campaign's golden pass:
/// call body(i) for every i in [0, n) on up to `threads` threads (0 =
/// hardware concurrency; the caller is worker 0), handing out indices by
/// `schedule`. The first exception a body throws stops the pool from
/// starting new indices and is rethrown here after every worker has
/// returned.
void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& body,
                  Schedule schedule = Schedule::kDynamic);

/// Run `points` under `opts`. Throws std::out_of_range for unknown
/// workload names and std::invalid_argument for bad shard options.
[[nodiscard]] SweepSummary run_sweep(const std::vector<SweepPoint>& points,
                                     const SweepOptions& opts = {});

/// Convenience: expand the grid and run it.
[[nodiscard]] inline SweepSummary run_sweep(const SweepGrid& grid,
                                            const SweepOptions& opts = {}) {
  return run_sweep(grid.points(), opts);
}

}  // namespace laec::runner
