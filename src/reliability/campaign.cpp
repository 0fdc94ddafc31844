#include "reliability/campaign.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/deployment.hpp"
#include "ecc/registry.hpp"
#include "mem/residency.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "reliability/schedule.hpp"
#include "sim/snapshot.hpp"
#include "workloads/eembc.hpp"

namespace laec::reliability {

namespace {

std::string fmt_u64(u64 v) { return std::to_string(v); }

std::string fmt_g(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

const std::vector<RatePoint>& tech_presets() {
  // Raw per-bit SER shrinks with the node while the multi-cell-upset share
  // grows — the published scaling trend, in placeholder absolute units.
  static const std::vector<RatePoint> kPresets = {
      {"65nm", 1400.0, {0.88, 0.09, 0.02, 0.01}},
      {"40nm", 1100.0, {0.72, 0.18, 0.07, 0.03}},
      {"28nm", 900.0, {0.55, 0.25, 0.13, 0.07}},
  };
  return kPresets;
}

std::optional<RatePoint> tech_preset(std::string_view name) {
  for (const auto& p : tech_presets()) {
    if (p.label == name) return p;
  }
  return std::nullopt;
}

std::optional<RatePoint> parse_rate(
    std::string_view token, const MbuPatternTable& default_patterns) {
  if (auto p = tech_preset(token); p.has_value()) return p;
  // The whole token must be one plain decimal number: from_chars takes no
  // whitespace, '+' or hex prefix, and out-of-range values fail outright.
  double fit = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] =
      std::from_chars(token.data(), end, fit, std::chars_format::general);
  if (ec != std::errc{} || ptr != end || !std::isfinite(fit) || !(fit > 0.0)) {
    return std::nullopt;
  }
  RatePoint r;
  r.label = std::string(token);
  r.fit_per_mbit = fit;
  r.patterns = default_patterns;
  return r;
}

CampaignGrid& CampaignGrid::workloads(std::vector<std::string> names) {
  workloads_ = std::move(names);
  return *this;
}

CampaignGrid& CampaignGrid::all_workloads() {
  workloads_.clear();
  for (const auto& k : workloads::eembc_kernels()) {
    workloads_.push_back(k.name);
  }
  return *this;
}

CampaignGrid& CampaignGrid::schemes(std::vector<std::string> keys) {
  schemes_ = std::move(keys);
  return *this;
}

CampaignGrid& CampaignGrid::rates(std::vector<RatePoint> rates) {
  rates_ = std::move(rates);
  return *this;
}

std::vector<CampaignCell> CampaignGrid::cells() const {
  if (rates_.empty()) {
    throw std::invalid_argument("CampaignGrid: the rates axis is empty");
  }
  for (const auto& r : rates_) {
    if (!std::isfinite(r.fit_per_mbit) || !(r.fit_per_mbit > 0.0) ||
        !(r.patterns.total() > 0.0)) {
      throw std::invalid_argument("CampaignGrid: rate \"" + r.label +
                                  "\" needs a positive finite FIT rate and "
                                  "a non-empty pattern table");
    }
  }
  // Parse every scheme key once up front (throws for unknown keys).
  for (const auto& s : schemes_) {
    (void)core::HierarchyDeployment::parse(s);
  }
  std::vector<CampaignCell> out;
  out.reserve(workloads_.size() * schemes_.size() * rates_.size());
  for (const auto& w : workloads_) {
    for (const auto& s : schemes_) {
      for (const auto& r : rates_) {
        CampaignCell c;
        c.index = out.size();
        c.workload = w;
        c.scheme = s;
        c.rate = r;
        out.push_back(std::move(c));
      }
    }
  }
  return out;
}

TrialOutcome classify_trial(const runner::PointResult& r) {
  const core::RunStats& s = r.stats;
  // Severity precedence, worst first. Detected-but-lost beats SDC: a trial
  // with data-loss accounting had its failure FLAGGED even when the
  // self-check also caught it.
  if (s.data_loss_events + s.l2_data_loss_events > 0) {
    return TrialOutcome::kDataLoss;
  }
  if (!r.self_check_ok || !s.completed) return TrialOutcome::kSdc;
  if (s.ecc_detected_uncorrectable + s.parity_refetches +
          s.l1i_detected_uncorrectable + s.l1i_refetches +
          s.l2_detected_uncorrectable + s.l2_refetches >
      0) {
    return TrialOutcome::kDueRecovered;
  }
  if (s.ecc_corrected + s.l1i_corrected + s.l2_corrected > 0) {
    return TrialOutcome::kCorrected;
  }
  return TrialOutcome::kMasked;
}

unsigned target_codeword_bits(const core::SimConfig& cfg) {
  // The one definition attach_injector also uses: the Poisson rate is
  // normalized over exactly the bits the injector can flip.
  return core::injector_word_bits(cfg);
}

const std::vector<std::string>& campaign_row_headers() {
  static const std::vector<std::string> kHeaders = {
      "workload",      "ecc",       "codec_dl1", "codec_l1i",
      "codec_l2",      "target",    "rate",      "fit_mbit_raw",
      "trials",        "events",    "events_dropped", "masked", "corrected",
      "due_recovered", "sdc",       "data_loss", "p_fail",
      "ci_lo",         "ci_hi",     "avf",       "fit",
      "fit_lo",        "fit_hi",    "mttf_hours", "device_hours",
      "cycles",        "pruned",    "fast_forwarded",
      "mean_exposure_cycles"};
  return kHeaders;
}

std::vector<std::string> campaign_to_row(const CellResult& r) {
  const core::HierarchyDeployment dep =
      core::HierarchyDeployment::parse(r.cell.scheme);
  return {r.cell.workload,
          dep.name,
          dep.codec,
          dep.l1i.codec,
          dep.l2.codec,
          std::string(to_string(r.target)),
          r.cell.rate.label,
          fmt_g(r.cell.rate.fit_per_mbit),
          fmt_u64(r.trials),
          fmt_u64(r.events),
          fmt_u64(r.events_dropped),
          fmt_u64(r.masked),
          fmt_u64(r.corrected),
          fmt_u64(r.due_recovered),
          fmt_u64(r.sdc),
          fmt_u64(r.data_loss),
          fmt_g(r.est.p_fail),
          fmt_g(r.est.p_lo),
          fmt_g(r.est.p_hi),
          fmt_g(r.avf),
          fmt_g(r.est.fit),
          fmt_g(r.est.fit_lo),
          fmt_g(r.est.fit_hi),
          fmt_g(r.est.mttf_hours),
          fmt_g(r.device_hours),
          fmt_u64(r.total_cycles),
          fmt_u64(r.pruned),
          fmt_u64(r.fast_forwarded),
          fmt_g(r.mean_exposure_cycles)};
}

namespace {

/// Pass-1 artifacts of one timing class of one workload, produced once by a
/// fault-free run: the recorded exposure windows every trial's storm is
/// drawn over, the golden result a provably-masked trial is
/// classified/accounted from, and the full-state snapshots fast-forwarded
/// trials restore and rejoin (the runner::GoldenRun a trial point carries).
/// Every cell of the class SHARES one GoldenCell: its rate cells (the
/// golden run clears faults and the point seed excludes the rate label),
/// and its schemes, which differ only in codecs, scrub and recovery
/// (core::HierarchyDeployment::timing_class): a fault-free run never
/// decodes an error, so its timing, result and windows are the same, and
/// its snapshots carry no check bits, which a restore derives with the
/// trial's own codecs. The snapshots are captured unconditionally (with
/// fast-forward on OR off, as long as snapshot_every > 0) so the
/// fast_forwarded column counts identically in both modes; --no-ff differs
/// only in whether trials use them.
struct GoldenCell : runner::GoldenRun {
  explicit GoldenCell(const CampaignSpec& spec)
      : runner::GoldenRun{
            sim::SnapshotStore(spec.snapshot_every,
                               static_cast<u64>(spec.snapshot_mem_mb) << 20),
            {}} {}
  std::vector<mem::AccessWindow> windows;
  double mean_exposure = 0.0;
};

/// Per-cell running state of the campaign engine.
struct CellState {
  CellResult res;
  core::SimConfig cfg;  ///< scheme + faults applied, seed left to run_sweep
  unsigned done = 0;
  bool finished = false;
  std::shared_ptr<const GoldenCell> golden;  ///< shared across the class
  /// The first cell of the slice whose storms are drawn from the same
  /// inputs (link_storm_sources); trial t of both is one schedule.
  std::size_t storm_source = 0;
  double lambda_scale = 0.0;  ///< accelerated upsets per exposure cycle
  unsigned word_bits = 0;     ///< targeted codec's codeword width
  bool overrun_warned = false;  ///< a runaway trial was logged for the cell
};

CellProgress cell_progress(const CellState& st) {
  CellProgress p;
  static_cast<CellCounters&>(p) = st.res;
  p.index = st.res.cell.index;
  p.done = st.done;
  p.finished = st.finished;
  return p;
}

void restore_progress(CellState& st, const CellProgress& p,
                      const CampaignSpec& spec) {
  if (p.done > spec.trials || p.trials != p.done || p.pruned > p.trials ||
      p.fast_forwarded + p.pruned > p.trials ||
      p.masked + p.corrected + p.due_recovered + p.sdc + p.data_loss !=
          p.trials) {
    throw std::invalid_argument(
        "run_campaign: resume cursor for cell " + std::to_string(p.index) +
        " is inconsistent with this campaign (corrupt checkpoint or "
        "changed spec?)");
  }
  st.done = p.done;
  st.finished = p.finished || p.done >= spec.trials;
  static_cast<CellCounters&>(st.res) = p;
}

/// Fold one classified trial into the cell. Shared by the simulated and
/// analytic paths so the accumulation arithmetic (including the
/// device-hours floating-point expression) cannot diverge between them.
void fold_outcome(CellState& st, TrialOutcome o, u64 events, u64 dropped,
                  u64 cycles, const CampaignSpec& spec) {
  st.res.trials += 1;
  st.res.events += events;
  st.res.events_dropped += dropped;
  switch (o) {
    case TrialOutcome::kMasked: st.res.masked += 1; break;
    case TrialOutcome::kCorrected: st.res.corrected += 1; break;
    case TrialOutcome::kDueRecovered: st.res.due_recovered += 1; break;
    case TrialOutcome::kSdc: st.res.sdc += 1; break;
    case TrialOutcome::kDataLoss: st.res.data_loss += 1; break;
  }
  st.res.total_cycles += cycles;
  st.res.device_hours += static_cast<double>(cycles) /
                         (spec.freq_mhz * 1e6) / 3600.0 * spec.accel;
}

/// What the fold keeps of a simulated trial. The sweep hands over the whole
/// PointResult as the trial finishes; only this waits for its round.
struct TrialRecord {
  TrialOutcome outcome = TrialOutcome::kMasked;
  u64 events = 0;   ///< faults the injector delivered
  u64 dropped = 0;  ///< faults past the per-access flip budget
  u64 cycles = 0;
  core::Rejoin rejoin;
};

TrialRecord record_of(const runner::PointResult& r) {
  return {classify_trial(r), r.faults_injected, r.faults_dropped,
          r.stats.cycles, r.rejoin};
}

/// Count how a fast-forwarded trial rejoined its golden run. Rows are
/// untouched: the rejoin only decides how much of the trial simulated.
void note_rejoin(const core::Rejoin& rejoin) {
  auto& reg = obs::Registry::global();
  if (rejoin.at_end) reg.counter("campaign.trials_rejoined").add();
  reg.counter("campaign.rejoin_jumps").add(rejoin.jumps);
  reg.counter("campaign.cycles_rejoined").add(rejoin.cycles);
}

/// Make a runaway trial visible: one that ran past twice its golden run's
/// cycles is counted, traced and logged (once per cell). Rows are untouched.
void note_overrun(CellState& st, unsigned replicate, u64 cycles) {
  const u64 golden_cycles = st.golden->result.stats.cycles;
  if (cycles <= 2 * golden_cycles) return;
  obs::Registry::global().counter("campaign.trials_over_2x_golden").add();
  obs::Tracer::global().instant(
      "trial-overrun", {{"workload", st.res.cell.workload, 0, false},
                        {"scheme", st.res.cell.scheme, 0, false},
                        {"replicate", {}, replicate, true},
                        {"cycles", {}, cycles, true},
                        {"golden_cycles", {}, golden_cycles, true}});
  if (st.overrun_warned) return;
  st.overrun_warned = true;
  obs::log_warn("campaign",
                "cell " + std::to_string(st.res.cell.index) + " (" +
                    st.res.cell.workload + ", " + st.res.cell.scheme +
                    "): trial " + std::to_string(replicate) + " ran " +
                    std::to_string(cycles) + " cycles, over twice " +
                    "its golden run's " + std::to_string(golden_cycles));
}

/// Fold a pruned trial: every event is provably masked, so the trial's
/// classification, cycle count and device-hours are the golden run's. The
/// storm's events still count (they are real upsets the AVF denominator
/// must see — exactly what the injector reports when the same schedule is
/// simulated instead).
void fold_pruned(CellState& st, const ecc::TrialSchedule& sched,
                 const CampaignSpec& spec) {
  const GoldenCell& g = *st.golden;
  fold_outcome(st, classify_trial(g.result), sched.events,
               sched.dropped_events, g.result.stats.cycles, spec);
  st.res.pruned += 1;
}

/// The SweepPoint of one of this cell's trials.
runner::SweepPoint cell_point(const CellState& st, unsigned replicate) {
  runner::SweepPoint p;
  p.workload = st.res.cell.workload;
  p.variant = st.res.cell.rate.label;
  p.config = st.cfg;
  p.mode = runner::RunMode::kProgram;
  p.replicate = replicate;
  return p;
}

/// The cycle a trial's simulation starts from: its first golden snapshot's,
/// or nullopt (ordered before every cycle) when it runs from reset.
std::optional<Cycle> resume_cycle(const runner::SweepPoint& p) {
  if (p.golden == nullptr) return std::nullopt;
  const auto start =
      core::replay_start(p.golden->snapshots, *p.config.faults->schedule);
  if (start == nullptr) return std::nullopt;
  return start->cycle;
}

/// Pass 1 for one timing class of one workload (`st` is its first cell,
/// `schemes` the class's scheme keys): a fault-free run of the kernel with
/// the residency recorder on the targeted array, dropping full-state
/// snapshots at the spec's cadence. Deterministic, so every shard and every
/// thread layout reconstructs the identical windows and snapshots.
std::shared_ptr<const GoldenCell> run_golden(const CellState& st,
                                             const std::string& schemes,
                                             const CampaignSpec& spec,
                                             u64 base_seed) {
  obs::Span span("golden-run");
  span.arg("workload", st.res.cell.workload);
  span.arg("class", schemes);
  auto g = std::make_shared<GoldenCell>(spec);
  mem::ResidencyRecorder rec;
  g->result = runner::run_golden_point(cell_point(st, 0), base_seed, &rec,
                                       &g->snapshots);
  g->windows = rec.take_windows();
  g->mean_exposure = mem::mean_exposure_cycles(g->windows);
  auto& reg = obs::Registry::global();
  reg.counter("campaign.golden_runs").add();
  auto& window_hist = reg.histogram("campaign.exposure_window_cycles");
  for (const mem::AccessWindow& w : g->windows) {
    window_hist.record(w.gap_cycles);
  }
  span.arg("windows", static_cast<u64>(g->windows.size()));
  span.arg("snapshots", static_cast<u64>(g->snapshots.size()));
  span.arg("snapshot_bytes", g->snapshots.bytes());
  return g;
}

/// The golden pass: one run_golden per timing class of each workload of
/// the slice, on the trial pool under the same thread budget, before any
/// trial is planned. A class is the cells' deployment reduced to
/// core::HierarchyDeployment::timing_class(); every other SimConfig field
/// comes from spec.base and is the same for every cell. Every cell of a
/// class shares its GoldenCell; the cells past a class's first count as
/// cache hits. Returns the distinct golden cells.
///
/// The classes are dealt to the workers in sorted order (Schedule::kStatic),
/// so a class's golden run lands on the same worker in every call, whatever
/// the cell order or timing. Its snapshots then reuse the heap memory that
/// worker's thread freed in the previous call. Under a dynamic schedule
/// they move between per-thread heaps from call to call, and a repeated
/// campaign's peak memory grows by what one heap keeps while another
/// needs it.
std::vector<std::shared_ptr<const GoldenCell>> run_golden_pass(
    std::vector<CellState>& states, const CampaignSpec& spec,
    const CampaignOptions& opts) {
  const auto key = [](const CellState& st) {
    return std::make_pair(st.res.cell.workload,
                          st.cfg.deployment.timing_class());
  };
  struct Golden {
    const CellState* cell = nullptr;  ///< first cell of the class
    std::string schemes;  ///< its scheme keys, comma-separated (span name)
    std::shared_ptr<const GoldenCell> built;
  };
  std::map<std::pair<std::string, core::HierarchyDeployment>, Golden> by_key;
  for (const CellState& st : states) {
    const std::string& scheme = st.res.cell.scheme;
    const auto [it, fresh] = by_key.try_emplace(key(st), Golden{&st, scheme, nullptr});
    const std::string listed = "," + it->second.schemes + ",";
    if (!fresh && listed.find("," + scheme + ",") == std::string::npos) {
      it->second.schemes += "," + scheme;
    }
  }
  std::vector<Golden*> order;  // class order: the order they are dealt in
  for (auto& kv : by_key) order.push_back(&kv.second);
  obs::Registry::global()
      .counter("campaign.golden_cache_hits")
      .add(states.size() - order.size());
  runner::parallel_for(
      order.size(), opts.threads,
      [&](std::size_t k) {
        order[k]->built = run_golden(*order[k]->cell, order[k]->schemes, spec,
                                     opts.base_seed);
      },
      runner::Schedule::kStatic);
  for (CellState& st : states) st.golden = by_key.at(key(st)).built;
  std::vector<std::shared_ptr<const GoldenCell>> goldens;
  for (const Golden* g : order) goldens.push_back(g->built);
  return goldens;
}

/// Point every cell at the first cell of the slice that draws its storms
/// from the same inputs: the same golden windows (so the same workload,
/// and trial for trial the same seed, which omits the scheme), lambda
/// scale, MBU table and codeword width. draw_trial_schedule is a pure
/// function of those, so such cells (same-width schemes of one timing
/// class at one rate) see trial t's storm alike: the planner draws it once
/// and hands both the one schedule, which pairs their trials by
/// construction.
void link_storm_sources(std::vector<CellState>& states) {
  for (std::size_t i = 0; i < states.size(); ++i) {
    CellState& a = states[i];
    a.storm_source = i;
    for (std::size_t j = 0; j < i; ++j) {
      const CellState& b = states[j];
      if (a.golden == b.golden && a.word_bits == b.word_bits &&
          a.lambda_scale == b.lambda_scale &&
          a.res.cell.rate.patterns == b.res.cell.rate.patterns) {
        a.storm_source = b.storm_source;
        break;
      }
    }
  }
}

/// One trial's disposition within a round.
struct TrialPlan {
  bool prunable = false;  ///< storm has no live delivery (provably masked)
  unsigned replicate = 0;
  /// Set when the trial is folded analytically (prune mode, prunable).
  std::shared_ptr<const ecc::TrialSchedule> schedule;
  /// The golden snapshot at-or-before this trial's FIRST live delivery
  /// ordinal — the fast_forwarded column's evidence. Non-prunable trials
  /// only, and computed with fast-forward on AND off (only whether the
  /// restore happens differs), so the count is mode-invariant.
  std::shared_ptr<const sim::SnapshotStore::Entry> snapshot;
  std::size_t record = 0;  ///< into its round's records otherwise
};

/// A batched round: every unfinished cell's next `batch` trials.
struct Round {
  /// Per cell (index into states, grid order), its trials in trial order.
  std::vector<std::pair<std::size_t, std::vector<TrialPlan>>> slices;
  std::vector<TrialRecord> records;  ///< its simulated trials'
  std::size_t outstanding = 0;       ///< simulated trials not recorded yet
};

/// Rounds planned in one draw pass, and their simulated trials.
struct Plan {
  std::vector<Round> rounds;
  /// Every round's simulated trials: round by round, each round's longest
  /// suffix first. A point's index is its position in trial order over the
  /// plan.
  std::vector<runner::SweepPoint> points;
  /// Per point index: its round and its record there.
  std::vector<std::pair<std::size_t, std::size_t>> where;
};

/// Planned trials at which a pass takes no further round. A pass holds
/// every planned trial's storm and every simulated trial's point (about
/// 1 KB each) until its rounds fold, so this bounds a long campaign's
/// memory; the pool drains only between passes, thousands of trials apart.
constexpr std::size_t kPassTrials = 2048;

/// Pass 2 for up to `max_rounds` rounds, and no round once kPassTrials
/// trials are planned: pre-draw every pending trial's storm over its
/// cell's golden windows. A storm with no live delivery is provably masked
/// — under pruning it folds analytically and never simulates; otherwise
/// the trial carries its schedule into the sweep, so the simulated storm
/// is the drawn storm, event for event. Each distinct storm is drawn once,
/// on the pool, into its own slot; a draw depends only on its inputs, so
/// the slots are the same under any thread layout.
Plan plan_rounds(const std::vector<CellState>& states,
                 const CampaignSpec& spec, const CampaignOptions& opts,
                 unsigned batch, unsigned max_rounds) {
  struct Pending {
    std::size_t round = 0;
    std::size_t si = 0;  ///< index into states
    unsigned replicate = 0;
    std::size_t storm = 0;  ///< index into storms
  };
  struct Storm {
    std::size_t si = 0;  ///< a cell that draws it
    unsigned replicate = 0;
    std::shared_ptr<const ecc::TrialSchedule> sched;
  };
  // The pending trials: round-major, then in grid order, then in trial
  // order — the order the rounds fold them in.
  std::vector<Pending> pending;
  std::vector<Storm> storms;
  std::map<std::pair<std::size_t, unsigned>, std::size_t> storm_of;
  for (std::size_t r = 0; r < max_rounds && pending.size() < kPassTrials;
       ++r) {
    const std::size_t before = pending.size();
    for (std::size_t si = 0; si < states.size(); ++si) {
      const CellState& st = states[si];
      const u64 first = st.done + u64{batch} * r;
      if (st.finished || first >= spec.trials) continue;
      const auto bn = static_cast<unsigned>(
          std::min<u64>(batch, spec.trials - first));
      for (unsigned t = 0; t < bn; ++t) {
        const auto replicate = static_cast<unsigned>(first + t);
        const auto [it, fresh] = storm_of.try_emplace(
            std::make_pair(st.storm_source, replicate), storms.size());
        if (fresh) storms.push_back({si, replicate, nullptr});
        pending.push_back({r, si, replicate, it->second});
      }
    }
    if (pending.size() == before) break;
  }
  runner::parallel_for(storms.size(), opts.threads, [&](std::size_t i) {
    Storm& d = storms[i];
    const CellState& st = states[d.si];
    d.sched = std::make_shared<const ecc::TrialSchedule>(draw_trial_schedule(
        st.golden->windows, st.lambda_scale, st.res.cell.rate.patterns,
        st.word_bits,
        runner::fault_seed(opts.base_seed, cell_point(st, d.replicate))));
  });
  obs::Registry::global().counter("campaign.storms_drawn").add(storms.size());

  Plan plan;
  for (const Pending& pd : pending) {
    if (pd.round == plan.rounds.size()) plan.rounds.emplace_back();
    Round& rd = plan.rounds.back();
    const CellState& st = states[pd.si];
    if (rd.slices.empty() || rd.slices.back().first != pd.si) {
      rd.slices.emplace_back(pd.si, std::vector<TrialPlan>{});
    }
    const std::shared_ptr<const ecc::TrialSchedule>& sched =
        storms[pd.storm].sched;
    TrialPlan tp;
    tp.replicate = pd.replicate;
    tp.prunable = !sched->has_live();
    if (!tp.prunable) {
      tp.snapshot = core::replay_start(st.golden->snapshots, *sched);
    }
    if (spec.prune && tp.prunable) {
      tp.schedule = sched;
    } else {
      runner::SweepPoint p = cell_point(st, pd.replicate);
      if (spec.fast_forward) {
        // Skip the fault-free prefix, and every later stretch the trial
        // spends back on the golden run. A dead-storm trial simulated in
        // no-prune mode delivers nothing at all, so it resumes from the
        // last snapshot and runs to the end. Such restores are pure
        // speed: they are NOT counted as fast_forwarded, keeping the
        // column prune-mode-invariant.
        p.golden = st.golden;
      }
      p.config.faults->schedule = sched;
      p.index = plan.points.size();
      tp.record = rd.outstanding++;
      plan.where.emplace_back(plan.rounds.size() - 1, tp.record);
      plan.points.push_back(std::move(p));
    }
    rd.slices.back().second.push_back(std::move(tp));
  }
  for (Round& rd : plan.rounds) rd.records.resize(rd.outstanding);
  // Hand the pool the rounds in order, each round's longest trials first.
  // A trial simulates from its first snapshot's cycle on (one with no
  // snapshot from reset; where it rejoins the golden run is only known
  // once it runs), so the dynamic schedule starts a round's long suffixes
  // early and fills in behind them with its short ones, then with the next
  // round's. Round r's last trial thus starts after about r rounds of
  // work, and it folds about then. A point's index keeps its trial-order
  // position, through which its result reaches its round.
  const auto order = [&plan](const runner::SweepPoint& p) {
    return std::make_pair(plan.where[p.index].first, resume_cycle(p));
  };
  std::stable_sort(plan.points.begin(), plan.points.end(),
                   [&order](const runner::SweepPoint& a,
                            const runner::SweepPoint& b) {
                     return order(a) < order(b);
                   });
  return plan;
}

}  // namespace

CampaignSummary run_campaign(const std::vector<CampaignCell>& cells,
                             const CampaignSpec& spec,
                             const CampaignOptions& opts) {
  if (opts.shard_count == 0 || opts.shard_index >= opts.shard_count) {
    throw std::invalid_argument(
        "run_campaign: shard_index/shard_count invalid");
  }
  if (spec.trials == 0) {
    throw std::invalid_argument("run_campaign: spec.trials must be >= 1");
  }
  const unsigned batch = std::max(1u, spec.batch);
  const unsigned min_trials =
      std::min(std::max(1u, spec.min_trials), spec.trials);

  // This shard's slice, in grid order. Each cell's SimConfig is built once:
  // scheme applied, storm targeted, per-cycle Poisson rate derived from the
  // rate and the targeted codec's codeword width. The InjectorConfig starts
  // empty — every trial's storm is pre-drawn over the golden run's exposure
  // windows and attached as a replay schedule, with pruning on AND off (the
  // two modes differ only in which trials simulate).
  std::vector<CellState> states;
  for (const auto& c : cells) {
    if (c.index % opts.shard_count != opts.shard_index) continue;
    CellState st;
    st.res.cell = c;
    st.res.target = spec.target;
    st.cfg = spec.base;
    st.cfg.set_scheme(c.scheme);
    st.cfg.inject_target = spec.target;
    st.cfg.faults.emplace();
    st.word_bits = target_codeword_bits(st.cfg);
    st.lambda_scale =
        window_lambda_scale(spec, c.rate.fit_per_mbit, st.word_bits);
    states.push_back(std::move(st));
  }

  // Restore resume cursors (grid-index-matched). A cursor that names a
  // cell outside this shard's slice means the checkpoint belongs to a
  // different campaign/shard — hard error, never mixed statistics.
  if (opts.resume_from != nullptr) {
    for (const CellProgress& p : *opts.resume_from) {
      CellState* match = nullptr;
      for (CellState& st : states) {
        if (st.res.cell.index == p.index) {
          match = &st;
          break;
        }
      }
      if (match == nullptr) {
        throw std::invalid_argument(
            "run_campaign: resume cursor names cell " +
            std::to_string(p.index) +
            ", which is not in this campaign shard");
      }
      restore_progress(*match, p, spec);
    }
  }

  CampaignSummary summary;
  std::vector<std::shared_ptr<const GoldenCell>> goldens;

  const auto snapshot_progress = [&states] {
    std::vector<CellProgress> out;
    out.reserve(states.size());
    for (const CellState& st : states) out.push_back(cell_progress(st));
    return out;
  };

  // Publish this shard's cursor totals as registry gauges, so the
  // --progress heartbeat (and any other observer) renders purely from a
  // metrics snapshot. Gauges are set, not added: a resumed campaign's
  // restored counts are included because they live in the cursors.
  const auto publish_metrics = [&states, &goldens, &spec] {
    auto& reg = obs::Registry::global();
    u64 finished = 0, trials = 0, pruned = 0, ff = 0, skipped = 0,
        events = 0, snap_bytes = 0, budget_done = 0;
    for (const CellState& st : states) {
      if (st.finished) ++finished;
      trials += st.res.trials;
      pruned += st.res.pruned;
      ff += st.res.fast_forwarded;
      skipped += st.res.cycles_skipped;
      events += st.res.events;
      // A cell the stopping rule ended early counts as its full budget
      // towards the ETA denominator: its remaining trials never run.
      budget_done += st.finished ? spec.trials : st.done;
    }
    for (const auto& g : goldens) snap_bytes += g->snapshots.bytes();
    reg.gauge("snapshot.bytes_in_use").set(snap_bytes);
    reg.gauge("campaign.cells_total").set(states.size());
    reg.gauge("campaign.cells_finished").set(finished);
    reg.gauge("campaign.trials_done").set(trials);
    reg.gauge("campaign.trials_pruned").set(pruned);
    reg.gauge("campaign.trials_fast_forwarded").set(ff);
    reg.gauge("campaign.cycles_skipped").set(skipped);
    reg.gauge("campaign.fault_events").set(events);
    reg.gauge("campaign.trials_budget_done").set(budget_done);
    reg.gauge("campaign.trials_target")
        .set(static_cast<u64>(states.size()) * spec.trials);
  };

  // Fold one round into its cells in strict trial order, interleaving
  // analytic and simulated results exactly as an unpruned run would fold
  // them, then apply the stopping rule per cell. A cell's trajectory
  // depends only on its own trial outcomes — deterministic under any
  // thread count or shard layout.
  const auto fold_round = [&](const Round& rd) {
    for (const auto& [si, plans] : rd.slices) {
      CellState& st = states[si];
      for (const TrialPlan& plan : plans) {
        if (plan.schedule != nullptr) {
          fold_pruned(st, *plan.schedule, spec);
          continue;
        }
        const TrialRecord& t = rd.records[plan.record];
        fold_outcome(st, t.outcome, t.events, t.dropped, t.cycles, spec);
        note_overrun(st, plan.replicate, t.cycles);
        note_rejoin(t.rejoin);
        // Unpruned reference mode still REPORTS the prunable count, so
        // the column is byte-identical across modes.
        if (plan.prunable) st.res.pruned += 1;
        if (plan.snapshot != nullptr) {
          st.res.fast_forwarded += 1;
          st.res.cycles_skipped += plan.snapshot->cycle;
        }
      }
      st.done += static_cast<unsigned>(plans.size());
      if (st.done >= spec.trials) {
        st.finished = true;
      } else if (spec.target_half_width > 0.0 && st.done >= min_trials) {
        const Interval ci = wilson_interval(st.res.failures(), st.done,
                                            spec.confidence);
        st.finished = ci.half_width() <= spec.target_half_width;
      }
    }
  };

  // Batched rounds: every unfinished cell contributes its next `batch`
  // trials to a round, and the rounds fold in order, each as soon as all of
  // its simulated trials are in. Only the stopping rule can end a cell
  // early, and it decides from the folds. Without it, a pass plans rounds
  // up to kPassTrials trials and hands all their simulated trials to ONE
  // run_sweep call, round by round, so the pool does not drain at a round
  // boundary; with it, a pass plans one round. Interruption (should_stop)
  // is honoured only after a fold, so every resume cursor sits on the
  // batch grid an uninterrupted run walks; a stop requested mid-round
  // takes effect when that round folds, and the trials of later rounds
  // still running then are dropped.
  const unsigned rounds_per_pass =
      spec.target_half_width > 0.0 ? 1u : ~0u;
  bool any_round = false;
  for (bool first = true;; first = false) {
    obs::Span round_span("campaign.round");
    // The first pass's plan runs pass 1 for the whole slice first.
    obs::Span plan_span("prune-plan");
    if (first) {
      goldens = run_golden_pass(states, spec, opts);
      link_storm_sources(states);
    }
    Plan plan = plan_rounds(states, spec, opts, batch, rounds_per_pass);
    if (plan_span.live()) {
      u64 planned = 0;
      for (const Round& rd : plan.rounds) {
        for (const auto& [si, plans] : rd.slices) planned += plans.size();
      }
      plan_span.arg("rounds", static_cast<u64>(plan.rounds.size()));
      plan_span.arg("trials", planned);
      plan_span.arg("pruned_analytic",
                    planned - static_cast<u64>(plan.points.size()));
      plan_span.arg("simulated", static_cast<u64>(plan.points.size()));
    }
    plan_span.close();
    if (plan.rounds.empty()) break;

    // Fold every round whose results are all in, in round order, then drop
    // them. Runs on a pool thread once the sweep has started, serialized
    // by it, so on_round and should_stop are too. True: stop.
    std::size_t next = 0;
    const auto fold_ready = [&]() -> bool {
      while (next < plan.rounds.size() && plan.rounds[next].outstanding == 0) {
        Round& rd = plan.rounds[next++];
        fold_round(rd);
        rd = Round{};
        any_round = true;
        publish_metrics();
        if (opts.on_round) opts.on_round(snapshot_progress());
        if (opts.should_stop && opts.should_stop()) return true;
      }
      return false;
    };
    bool stop = fold_ready();
    if (!stop && !plan.points.empty()) {
      runner::SweepOptions sopts;
      sopts.threads = opts.threads;
      sopts.base_seed = opts.base_seed;
      sopts.consume = [&](runner::PointResult&& r) {
        const auto [ri, at] = plan.where[r.point.index];
        Round& rd = plan.rounds[ri];
        rd.records[at] = record_of(r);
        --rd.outstanding;
        stop = fold_ready();
        return stop;
      };
      (void)runner::run_sweep(plan.points, sopts);
    }
    if (stop) {
      summary.interrupted = true;
      return summary;
    }
  }

  // A resume that had nothing left to run still reports its cursors once
  // (the CLI heartbeat and checkpoint writer see the final state).
  if (!any_round) {
    publish_metrics();
    if (opts.on_round) opts.on_round(snapshot_progress());
  }

  // Finalize and emit in grid order.
  summary.cells.reserve(states.size());
  if (opts.sink != nullptr) opts.sink->begin(campaign_row_headers());
  for (CellState& st : states) {
    st.res.mean_exposure_cycles = st.golden->mean_exposure;
    st.res.avf = st.res.events == 0
                     ? 0.0
                     : static_cast<double>(st.res.failures()) /
                           static_cast<double>(st.res.events);
    st.res.est = estimate_rates(st.res.failures(), st.res.trials,
                                st.res.device_hours, spec.confidence);
    summary.cells_run += 1;
    summary.trials_run += st.res.trials;
    summary.failures += st.res.failures();
    if (opts.sink != nullptr) opts.sink->row(campaign_to_row(st.res));
    summary.cells.push_back(std::move(st.res));
  }
  if (opts.sink != nullptr) opts.sink->end();
  return summary;
}

}  // namespace laec::reliability
