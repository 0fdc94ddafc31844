// Monte Carlo reliability campaigns: SEU/MBU sampling -> per-scheme
// FIT / MTTF / AVF with confidence intervals.
//
// The paper's argument — and the whole SEC-DAEC(-TAEC) design space around
// it — is a reliability-per-cost trade, yet raw fault-injection counters
// ("this run saw 37 corrections") say nothing about failure RATES. This
// subsystem turns the existing pieces (SweepRunner trials, the codec
// registry, the replaying injector) into a statistics-grade evaluator:
//
//   * a campaign cell is one (workload, scheme, rate) point; the rate is a
//     raw per-bit SEU rate in FIT/Mbit (technology-node presets bundle the
//     rate with that node's characteristic MBU shape mix);
//   * fault arrivals are a Poisson process in device time, accelerated by
//     spec.accel so upsets actually land inside a few hundred microseconds
//     of simulated execution: each recorded exposure window of a word
//     suffers >= 1 upset with probability
//     1 - exp(-rate_bit * codeword_bits * accel * gap), gap being the
//     window's length; the event's spatial shape (single / adjacent-double
//     / adjacent-triple / clustered) is drawn from the cell's MBU pattern
//     table and lands on live codeword bits of the targeted cache (the
//     per-window draw is reliability/schedule.hpp);
//   * every cell runs N independent trials (SweepPoint replicates — same
//     trace, independent fault sequences, paired across schemes) and each
//     trial is classified by severity: masked, corrected, DUE-recovered,
//     SDC (self-check failed with nothing detected) or data-loss;
//   * failures (SDC + data-loss) over the trials' de-accelerated
//     device-hours give FIT and MTTF, with Wilson confidence intervals;
//     AVF is the per-fault derating factor (failing trials per injected
//     event). An optional sequential stopping rule ends a cell early once
//     its CI is tight enough.
//
// Execution: one thread pool (runner::parallel_for) runs everything. The
// first round's plan first runs the golden pass — one fault-free run per
// distinct (workload, scheme) of the slice, dealt to the pool's workers in
// key order — and every round then hands its simulated trials to one
// run_sweep call.
//
// Determinism contract (same as the sweep runner's): rows are identical at
// any --threads and any --shard split. Trial seeds derive from (base_seed,
// workload identity, trial index) — never from thread layout — and the
// stopping rule sees each cell's own trials only, so sharding cells across
// machines or daemon workers cannot change any cell's trajectory.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/simulator.hpp"
#include "reliability/schedule.hpp"
#include "reliability/stats.hpp"
#include "report/sink.hpp"
#include "runner/sweep_runner.hpp"

namespace laec::reliability {

/// One point of the rate axis: a raw per-bit SEU rate plus the MBU shape
/// mix it arrives with.
struct RatePoint {
  std::string label;  ///< what the CSV "rate" column reports
  double fit_per_mbit = 1000.0;
  MbuPatternTable patterns;
};

/// Technology-node presets: per-bit SEU rates and MBU shape mixes
/// proportioned like the published scaling trend (raw per-bit SER shrinks
/// with the node while the multi-cell share grows). Synthetic but
/// literature-proportioned, like the energy model's CACTI substitution —
/// ratios between nodes are meaningful, absolute FIT is a placeholder.
[[nodiscard]] const std::vector<RatePoint>& tech_presets();

/// Look up a preset by name ("65nm", "40nm", "28nm"); nullopt if unknown.
[[nodiscard]] std::optional<RatePoint> tech_preset(std::string_view name);

/// Parse a rate-axis token: a preset name, or a numeric FIT/Mbit value
/// (which inherits `default_patterns`). A numeric token must be one finite,
/// positive decimal number with nothing around it. nullopt otherwise.
[[nodiscard]] std::optional<RatePoint> parse_rate(
    std::string_view token, const MbuPatternTable& default_patterns);

/// Campaign-wide knobs (the per-cell axes live in CampaignGrid).
struct CampaignSpec {
  /// Fault-process time acceleration. 1e16 makes a ~1000 FIT/Mbit storm
  /// land a handful of events on a typical kernel trial.
  double accel = 1e16;
  double freq_mhz = 150.0;  ///< LEON4-class clock (Table I)
  /// Trials per cell (the maximum, when the stopping rule is armed).
  unsigned trials = 96;
  /// Trials to run before the stopping rule may fire.
  unsigned min_trials = 24;
  /// Stopping-rule check granularity (and scheduling batch size).
  unsigned batch = 24;
  double confidence = 0.95;
  /// Sequential stopping: end a cell once the Wilson CI half-width on its
  /// failure probability drops to this, checked at batch boundaries after
  /// min_trials. 0 disables early stopping (always run `trials`).
  double target_half_width = 0.0;
  /// Which cache array the storm strikes.
  core::InjectTarget target = core::InjectTarget::kDl1;
  /// Two-pass pruning (the default): run each cell's workload once
  /// fault-free with a residency recorder, pre-draw every trial's storm
  /// over the recorded exposure windows, and classify trials whose events
  /// all land on dead windows WITHOUT simulating them (their device-hours
  /// are accounted analytically from the golden run). Rows are
  /// byte-identical with pruning on or off — `prune = false` is the
  /// simulate-everything reference path, same contract as
  /// CacheConfig::use_lut_decode.
  bool prune = true;
  /// Snapshot fast-forward (the default): the golden run drops full-state
  /// snapshots every `snapshot_every` injector consultations (under the
  /// `snapshot_mem_mb` budget, keep-every-k thinned), and every simulated
  /// trial restores the latest snapshot at-or-before its first delivery
  /// ordinal instead of re-simulating the fault-free prefix. Rows are
  /// byte-identical with fast-forward on or off — `fast_forward = false` is
  /// the simulate-everything reference path, same contract shape as `prune`
  /// and CacheConfig::use_lut_decode. Composes multiplicatively with
  /// pruning: pruning kills dead-storm trials, fast-forward shrinks the
  /// live ones.
  bool fast_forward = true;
  /// Golden-run snapshot cadence, in injector-consultation ordinals.
  /// 0 disables capture (and therefore fast-forwarding). The default is a
  /// measured balance: finer strides shave a little more fault-free prefix
  /// per trial but the golden run pays capture cost per snapshot, and past
  /// ~stride 256 the capture savings dominate on every EEMBC-class kernel.
  unsigned snapshot_every = 256;
  /// Per-(workload, scheme) snapshot byte budget in MiB; keep-every-k
  /// thinning halves snapshot density whenever it would be exceeded.
  /// 0 = unlimited.
  unsigned snapshot_mem_mb = 256;
  /// Geometry / latency base configuration of every trial.
  core::SimConfig base;
};

/// One campaign cell: a (workload, scheme, rate) grid point.
struct CampaignCell {
  std::size_t index = 0;  ///< position in the expanded grid (stable)
  std::string workload;
  std::string scheme;  ///< HierarchyDeployment key
  RatePoint rate;
};

/// Cross-product grid builder, SweepGrid's shape: workload (outer) x
/// scheme x rate (inner).
class CampaignGrid {
 public:
  CampaignGrid& workloads(std::vector<std::string> names);
  CampaignGrid& all_workloads();
  CampaignGrid& schemes(std::vector<std::string> keys);
  CampaignGrid& rates(std::vector<RatePoint> rates);

  /// Expand into the deterministic cell list. Throws std::invalid_argument
  /// for unknown scheme keys or an empty/invalid rate axis.
  [[nodiscard]] std::vector<CampaignCell> cells() const;

 private:
  std::vector<std::string> workloads_;
  std::vector<std::string> schemes_{"laec"};
  std::vector<RatePoint> rates_;
};

/// Severity classification of one trial, worst outcome wins.
enum class TrialOutcome {
  kMasked,        ///< faults (if any) never surfaced: no event, clean output
  kCorrected,     ///< ECC repaired everything in place
  kDueRecovered,  ///< detected-uncorrectable, recovered by refetch
  kSdc,           ///< silent data corruption: wrong output, nothing flagged
  kDataLoss,      ///< detected but unrecoverable (dirty-line DUE)
};

[[nodiscard]] constexpr std::string_view to_string(TrialOutcome o) {
  switch (o) {
    case TrialOutcome::kMasked: return "masked";
    case TrialOutcome::kCorrected: return "corrected";
    case TrialOutcome::kDueRecovered: return "due-recovered";
    case TrialOutcome::kSdc: return "sdc";
    case TrialOutcome::kDataLoss: return "data-loss";
  }
  return "invalid-trial-outcome";
}

/// Classify a finished trial (pure; exposed for tests).
[[nodiscard]] TrialOutcome classify_trial(const runner::PointResult& r);

/// Does the outcome count as a reliability FAILURE (feeds FIT/MTTF)?
[[nodiscard]] constexpr bool is_failure(TrialOutcome o) {
  return o == TrialOutcome::kSdc || o == TrialOutcome::kDataLoss;
}

/// Codeword width (data + check bits) of the cache level cfg's storm
/// targets — delegates to core::injector_word_bits, the same definition
/// attach_injector sizes the flip universe with.
[[nodiscard]] unsigned target_codeword_bits(const core::SimConfig& cfg);

/// The per-cell tallies a campaign accumulates, shared by the live
/// CellResult and its resumable CellProgress cursor (copying one into the
/// other is a base-class assignment). visit_counters() is their one field
/// list, in checkpoint order.
struct CellCounters {
  u64 trials = 0;
  u64 events = 0;  ///< fault events injected across the cell's trials
  /// Upset events the acceleration demanded but the per-access flip budget
  /// could not hold (extreme --accel saturation). Nonzero means the cell's
  /// effective injected rate is below the configured one — the campaign
  /// surfaces it as a CSV column instead of silently truncating.
  u64 events_dropped = 0;
  u64 masked = 0;
  u64 corrected = 0;
  u64 due_recovered = 0;
  u64 sdc = 0;
  u64 data_loss = 0;
  u64 total_cycles = 0;
  /// Trials whose pre-drawn storm was provably masked (every event on a
  /// dead exposure window). Counted identically with pruning on or off;
  /// only whether they were SIMULATED differs.
  u64 pruned = 0;
  /// Trials that had a golden snapshot at-or-before their first delivery
  /// ordinal available — i.e. whose fault-free prefix is (with
  /// spec.fast_forward) skipped by a snapshot restore. Like `pruned`,
  /// counted identically with fast-forward on or off (and with pruning on
  /// or off: pruned trials are excluded); only whether the restore actually
  /// HAPPENS differs, so rows stay byte-identical across modes.
  u64 fast_forwarded = 0;
  /// Simulated cycles those snapshots cover (the sum of each fast-forwarded
  /// trial's snapshot cycle): the heartbeat's estimate of simulation work
  /// the restores avoid. Not a CSV column — identical across modes but an
  /// estimate, not a measurement.
  u64 cycles_skipped = 0;
  /// De-accelerated real device-hours the trials represent. Must round-trip
  /// bit-exactly through a checkpoint to keep resumed rows byte-identical.
  double device_hours = 0.0;

  [[nodiscard]] u64 failures() const { return sdc + data_loss; }
};

/// Call v(field) on every CellCounters field, in checkpoint order (const or
/// mutable `c`).
template <class Counters, class V>
void visit_counters(Counters& c, V&& v) {
  v(c.trials);
  v(c.events);
  v(c.events_dropped);
  v(c.masked);
  v(c.corrected);
  v(c.due_recovered);
  v(c.sdc);
  v(c.data_loss);
  v(c.total_cycles);
  v(c.pruned);
  v(c.fast_forwarded);
  v(c.cycles_skipped);
  v(c.device_hours);
}

/// Aggregated result of one cell.
struct CellResult : CellCounters {
  CampaignCell cell;
  /// Which array the storm struck (copied from the spec for the row).
  core::InjectTarget target = core::InjectTarget::kDl1;
  /// Per-fault derating factor: failing trials / injected events (0 when
  /// no event landed). The classic AVF-style estimate of P(fault ->
  /// failure); accurate when events-per-trial is around 1 (a trial counts
  /// at most one failure, so heavily accelerated storms understate it).
  double avf = 0.0;
  /// Resident-time-weighted fault exposure: mean per-word inter-access gap
  /// in cycles over the golden run's recorded windows.
  double mean_exposure_cycles = 0.0;
  RateEstimate est;  ///< p_fail + CI, FIT (+ CI), MTTF
};

/// Restorable cursor of one cell mid-campaign: how many trials ran and the
/// counters they accumulated. Trial seeds derive from (base_seed, workload
/// identity, trial index), so "resume trial `done`" reproduces the exact
/// storm an uninterrupted run would have drawn — the cursor IS the full
/// per-cell RNG state.
struct CellProgress : CellCounters {
  std::size_t index = 0;  ///< grid index of the cell
  unsigned done = 0;      ///< trials completed (the trial cursor)
  bool finished = false;  ///< trial budget exhausted or stopping rule fired
};

struct CampaignOptions {
  /// Worker threads of the golden pass and the trial sweeps; 0 = hardware
  /// concurrency.
  unsigned threads = 0;
  /// Horizontal sharding over CELLS: this process runs cells with
  /// index % shard_count == shard_index.
  unsigned shard_count = 1;
  unsigned shard_index = 0;
  u64 base_seed = 0x1aec;
  /// Optional streaming sink; one row per finished cell, in grid order.
  report::RowWriter* sink = nullptr;
  /// Resume support: per-cell cursors restored before the first round
  /// (grid-index-matched; every entry must belong to this shard's slice).
  /// The caller (service checkpoint layer) owns validation of WHERE the
  /// cursors came from; run_campaign validates they fit this campaign.
  const std::vector<CellProgress>* resume_from = nullptr;
  /// Fired after every batched round (and therefore after the final one)
  /// with the current cursor of every cell in this shard's slice, in grid
  /// order. The checkpoint layer persists these; the CLI heartbeat renders
  /// them. Must not touch the sink.
  std::function<void(const std::vector<CellProgress>&)> on_round;
  /// Polled between rounds (after on_round). Returning true stops the
  /// campaign WITHOUT emitting rows — the summary comes back
  /// interrupted=true and a later resume_from run re-emits everything,
  /// byte-identical to an uninterrupted run.
  std::function<bool()> should_stop;
};

/// Digest of a whole campaign (this shard's slice).
struct CampaignSummary {
  std::vector<CellResult> cells;  ///< grid order
  std::size_t cells_run = 0;
  u64 trials_run = 0;
  u64 failures = 0;  ///< SDC + data-loss trials across every cell
  /// should_stop fired: no rows were emitted, cells is empty; resume from
  /// the last on_round cursor set to finish the campaign.
  bool interrupted = false;
};

/// Column names of the per-cell campaign row, in emission order.
[[nodiscard]] const std::vector<std::string>& campaign_row_headers();

/// Render one cell result as a row matching campaign_row_headers().
[[nodiscard]] std::vector<std::string> campaign_to_row(const CellResult& r);

/// Run `cells` under `spec`. Throws std::invalid_argument for bad shard
/// options, a spec with no trials, or a base configuration no system can
/// be built from (rethrown from the pool thread that hit it).
[[nodiscard]] CampaignSummary run_campaign(
    const std::vector<CampaignCell>& cells, const CampaignSpec& spec,
    const CampaignOptions& opts = {});

/// Convenience: expand the grid and run it.
[[nodiscard]] inline CampaignSummary run_campaign(
    const CampaignGrid& grid, const CampaignSpec& spec,
    const CampaignOptions& opts = {}) {
  return run_campaign(grid.cells(), spec, opts);
}

}  // namespace laec::reliability
