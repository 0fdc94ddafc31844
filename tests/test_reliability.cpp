// Reliability campaign engine tests:
//  * Wilson interval / rate-estimator arithmetic (pure functions);
//  * trial outcome classification and its severity precedence;
//  * the storm's flip universe: the targeted codec's codeword width;
//  * campaign grid expansion and validation;
//  * determinism: identical FIT/CI rows at any thread count, the
//    sweep-runner contract extended to campaigns, with one golden run per
//    timing class of a workload shared by all of its cells;
//  * the pairing contract: same-width schemes of a class share every
//    trial's storm;
//  * rounds streamed through one sweep, interrupted after any fold;
//  * CI width monotonically shrinking with the trial count, and the
//    sequential stopping rule ending cells early.
#include "reliability/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "mem/residency.hpp"
#include "obs/metrics.hpp"
#include "reliability/stats.hpp"
#include "report/sink.hpp"
#include "runner/sweep_runner.hpp"

namespace laec::reliability {
namespace {

// ---------------------------------------------------------------- stats --

TEST(WilsonInterval, BracketsTheSampleProportionAndStaysIn01) {
  for (const auto& [f, n] : std::vector<std::pair<u64, u64>>{
           {0, 10}, {1, 10}, {5, 10}, {10, 10}, {3, 200}, {199, 200}}) {
    const Interval ci = wilson_interval(f, n, 0.95);
    const double p = static_cast<double>(f) / static_cast<double>(n);
    EXPECT_GE(ci.lo, 0.0);
    EXPECT_LE(ci.hi, 1.0);
    EXPECT_LE(ci.lo, p + 1e-12) << f << "/" << n;
    EXPECT_GE(ci.hi, p - 1e-12) << f << "/" << n;
    EXPECT_GT(ci.hi, ci.lo);
  }
}

TEST(WilsonInterval, ZeroFailuresGiveZeroLowerBoundAndPositiveUpper) {
  const Interval ci = wilson_interval(0, 50, 0.95);
  EXPECT_DOUBLE_EQ(ci.lo, 0.0);
  EXPECT_GT(ci.hi, 0.0);
  EXPECT_LT(ci.hi, 0.2);
}

TEST(WilsonInterval, MatchesKnownReference) {
  // 5/10 at 95%: the textbook Wilson interval is about [0.2366, 0.7634].
  const Interval ci = wilson_interval(5, 10, 0.95);
  EXPECT_NEAR(ci.lo, 0.2366, 5e-4);
  EXPECT_NEAR(ci.hi, 0.7634, 5e-4);
  // z for 95% two-sided.
  EXPECT_NEAR(z_for_confidence(0.95), 1.959964, 1e-5);
  EXPECT_NEAR(z_for_confidence(0.99), 2.575829, 1e-5);
}

TEST(WilsonInterval, WidthShrinksMonotonicallyWithTrialCount) {
  // Fixed observed ratio, growing n: the interval must tighten every step.
  for (const double ratio : {0.0, 0.1, 0.5}) {
    double prev = 1.0;
    for (const u64 n : {10u, 40u, 160u, 640u, 2560u}) {
      const u64 f = static_cast<u64>(ratio * static_cast<double>(n));
      const double hw = wilson_interval(f, n, 0.95).half_width();
      EXPECT_LT(hw, prev) << "ratio " << ratio << " n " << n;
      prev = hw;
    }
  }
}

TEST(WilsonInterval, DegenerateInputsStayFiniteAndIn01) {
  // trials == 0: no information — the vacuous interval, not NaN (a NaN
  // half-width would make the sequential stopping rule's comparison
  // silently false forever).
  const Interval none = wilson_interval(0, 0, 0.95);
  EXPECT_DOUBLE_EQ(none.lo, 0.0);
  EXPECT_DOUBLE_EQ(none.hi, 1.0);

  // successes == trials: p = 1 collapses p*(1-p) to zero; the interval
  // must still be finite, ordered, and pinned to 1 at the top.
  for (const u64 n : {1u, 2u, 50u}) {
    const Interval all = wilson_interval(n, n, 0.95);
    EXPECT_TRUE(std::isfinite(all.lo)) << n;
    EXPECT_GT(all.lo, 0.0) << n;
    EXPECT_LE(all.lo, 1.0) << n;
    EXPECT_DOUBLE_EQ(all.hi, 1.0) << n;
    EXPECT_LE(all.lo, all.hi) << n;
  }

  // successes > trials (a caller folding multi-event counters): saturated,
  // never NaN from a negative p*(1-p).
  const Interval over = wilson_interval(7, 3, 0.95);
  EXPECT_TRUE(std::isfinite(over.lo));
  EXPECT_DOUBLE_EQ(over.hi, 1.0);

  // Non-finite confidence degrades to the vacuous interval.
  for (const double conf : {std::nan(""), HUGE_VAL}) {
    const Interval bad = wilson_interval(5, 10, conf);
    EXPECT_DOUBLE_EQ(bad.lo, 0.0);
    EXPECT_DOUBLE_EQ(bad.hi, 1.0);
  }

  // And the stopping-rule consumer view: half_width is always finite.
  EXPECT_TRUE(std::isfinite(wilson_interval(0, 0, 0.95).half_width()));
  EXPECT_TRUE(std::isfinite(wilson_interval(4, 4, 0.95).half_width()));
}

TEST(RateEstimate, PFailIsReportedEvenWithoutATimeBase) {
  // Regression: the early return for device_hours <= 0 used to skip the
  // p_fail assignment, reporting 0 for cells with real failures.
  const RateEstimate e = estimate_rates(3, 10, 0.0, 0.95);
  EXPECT_DOUBLE_EQ(e.p_fail, 0.3);
  EXPECT_TRUE(std::isinf(e.mttf_hours));
  EXPECT_DOUBLE_EQ(e.fit, 0.0);
  EXPECT_GT(e.p_hi, e.p_lo);
}

TEST(RateEstimate, ZeroFailuresGiveZeroFitInfiniteMttfFiniteUpperBound) {
  const RateEstimate e = estimate_rates(0, 100, 1e6, 0.95);
  EXPECT_DOUBLE_EQ(e.fit, 0.0);
  EXPECT_TRUE(std::isinf(e.mttf_hours));
  EXPECT_GT(e.fit_hi, 0.0);
  EXPECT_DOUBLE_EQ(e.fit_lo, 0.0);
}

TEST(RateEstimate, FitAndMttfAreConsistent) {
  // 10 failures over 1e7 device-hours: 1 per 1e6 h = 1000 FIT.
  const RateEstimate e = estimate_rates(10, 100, 1e7, 0.95);
  EXPECT_NEAR(e.fit, 1000.0, 1e-9);
  EXPECT_NEAR(e.mttf_hours, 1e6, 1e-6);
  EXPECT_LT(e.fit_lo, e.fit);
  EXPECT_GT(e.fit_hi, e.fit);
}

// ------------------------------------------------------- classification --

runner::PointResult trial() {
  runner::PointResult r;
  r.stats.completed = true;
  r.self_check_ok = true;
  r.faults_injected = 1;
  return r;
}

TEST(ClassifyTrial, SeverityLadder) {
  EXPECT_EQ(classify_trial(trial()), TrialOutcome::kMasked);

  auto corrected = trial();
  corrected.stats.ecc_corrected = 2;
  EXPECT_EQ(classify_trial(corrected), TrialOutcome::kCorrected);

  auto l2c = trial();
  l2c.stats.l2_corrected = 1;
  EXPECT_EQ(classify_trial(l2c), TrialOutcome::kCorrected);

  auto due = trial();
  due.stats.ecc_corrected = 2;
  due.stats.ecc_detected_uncorrectable = 1;
  EXPECT_EQ(classify_trial(due), TrialOutcome::kDueRecovered);

  auto refetch = trial();
  refetch.stats.l1i_refetches = 1;
  EXPECT_EQ(classify_trial(refetch), TrialOutcome::kDueRecovered);

  auto sdc = trial();
  sdc.stats.ecc_corrected = 3;
  sdc.self_check_ok = false;
  EXPECT_EQ(classify_trial(sdc), TrialOutcome::kSdc);

  auto hang = trial();
  hang.stats.completed = false;
  EXPECT_EQ(classify_trial(hang), TrialOutcome::kSdc);

  auto loss = trial();
  loss.stats.data_loss_events = 1;
  loss.self_check_ok = false;  // detected loss beats silent corruption
  EXPECT_EQ(classify_trial(loss), TrialOutcome::kDataLoss);

  auto l2loss = trial();
  l2loss.stats.l2_data_loss_events = 1;
  EXPECT_EQ(classify_trial(l2loss), TrialOutcome::kDataLoss);

  EXPECT_TRUE(is_failure(TrialOutcome::kSdc));
  EXPECT_TRUE(is_failure(TrialOutcome::kDataLoss));
  EXPECT_FALSE(is_failure(TrialOutcome::kDueRecovered));
}

// ---------------------------------------------------------- flip universe --

TEST(EventProb, TargetCodewordBitsFollowTheDeployedCodec) {
  core::SimConfig cfg;
  cfg.set_scheme("laec");
  EXPECT_EQ(target_codeword_bits(cfg), 39u);  // secded-39-32
  cfg.set_scheme("sec-daec-taec-45-32");
  EXPECT_EQ(target_codeword_bits(cfg), 45u);
  cfg.set_scheme("laec");
  cfg.inject_target = core::InjectTarget::kL1i;
  EXPECT_EQ(target_codeword_bits(cfg), 33u);  // parity-32
  cfg.inject_target = core::InjectTarget::kL2;
  EXPECT_EQ(target_codeword_bits(cfg), 39u);
}

// ------------------------------------------------------------ the grid --

TEST(CampaignGrid, ExpansionIsStableWorkloadSchemeRate) {
  CampaignGrid grid;
  grid.workloads({"rspeed", "puwmod"})
      .schemes({"laec", "sec-daec-39-32"})
      .rates({*tech_preset("40nm"), *tech_preset("28nm")});
  const auto cells = grid.cells();
  ASSERT_EQ(cells.size(), 8u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
  }
  EXPECT_EQ(cells[0].workload, "rspeed");
  EXPECT_EQ(cells[0].scheme, "laec");
  EXPECT_EQ(cells[0].rate.label, "40nm");
  EXPECT_EQ(cells[1].rate.label, "28nm");
  EXPECT_EQ(cells[2].scheme, "sec-daec-39-32");
  EXPECT_EQ(cells[4].workload, "puwmod");
}

TEST(CampaignGrid, ValidatesSchemesAndRates) {
  CampaignGrid no_rates;
  no_rates.workloads({"rspeed"});
  EXPECT_THROW((void)no_rates.cells(), std::invalid_argument);

  CampaignGrid bad_scheme;
  bad_scheme.workloads({"rspeed"})
      .schemes({"no-such-codec"})
      .rates({*tech_preset("40nm")});
  EXPECT_THROW((void)bad_scheme.cells(), std::invalid_argument);

  CampaignGrid bad_rate;
  RatePoint r;
  r.label = "dead";
  r.fit_per_mbit = 0.0;
  bad_rate.workloads({"rspeed"}).rates({r});
  EXPECT_THROW((void)bad_rate.cells(), std::invalid_argument);
}

TEST(RateParsing, PresetsAndNumbers) {
  const MbuPatternTable mix{0.5, 0.5, 0.0, 0.0};
  const auto preset = parse_rate("28nm", mix);
  ASSERT_TRUE(preset.has_value());
  EXPECT_EQ(preset->label, "28nm");
  EXPECT_NE(preset->patterns, mix);  // presets carry their own mix

  const auto numeric = parse_rate("1500", mix);
  ASSERT_TRUE(numeric.has_value());
  EXPECT_DOUBLE_EQ(numeric->fit_per_mbit, 1500.0);
  EXPECT_EQ(numeric->patterns, mix);

  EXPECT_FALSE(parse_rate("13nm", mix).has_value());
  EXPECT_FALSE(parse_rate("-4", mix).has_value());
  EXPECT_FALSE(parse_rate("12x", mix).has_value());
  // The numeric branch takes one finite plain decimal, nothing else.
  for (const char* bad : {"inf", "infinity", " 900", "0x3e8", "1e999"}) {
    EXPECT_FALSE(parse_rate(bad, mix).has_value()) << '"' << bad << '"';
  }
  const auto sci = parse_rate("1.5e3", mix);
  ASSERT_TRUE(sci.has_value());
  EXPECT_DOUBLE_EQ(sci->fit_per_mbit, 1500.0);
  EXPECT_EQ(sci->label, "1.5e3");

  // A RatePoint built by hand must be finite too.
  CampaignGrid grid;
  grid.workloads({"rspeed"}).rates(
      {{"inf", std::numeric_limits<double>::infinity(), mix}});
  EXPECT_THROW((void)grid.cells(), std::invalid_argument);
}

// -------------------------------------------------- campaign execution --

/// A small but event-rich campaign: one cheap RMW kernel, two schemes,
/// one hot rate.
CampaignGrid small_grid() {
  CampaignGrid grid;
  grid.workloads({"rspeed"}).schemes({"laec", "sec-daec-39-32"});
  MbuPatternTable mix{0.2, 0.6, 0.15, 0.05};
  grid.rates({{"hot", 1000.0, mix}});
  return grid;
}

CampaignSpec small_spec(unsigned trials) {
  CampaignSpec spec;
  spec.accel = 2e17;  // rspeed is load-light; make events actually land
  spec.trials = trials;
  spec.base.dl1_size_bytes = 2 * 1024;
  return spec;
}

/// Render a whole campaign as CSV text.
std::string campaign_csv(const CampaignGrid& grid, const CampaignSpec& spec,
                         unsigned threads) {
  std::ostringstream out;
  report::CsvWriter sink(out);
  CampaignOptions opts;
  opts.threads = threads;
  opts.sink = &sink;
  (void)run_campaign(grid, spec, opts);
  return out.str();
}

TEST(Campaign, RowsAreByteIdenticalAtOneAndEightThreads) {
  // Two rate points: every cell of a timing class shares one golden run,
  // which the golden pass runs on the pool.
  CampaignGrid grid = small_grid();
  const MbuPatternTable mix{0.2, 0.6, 0.15, 0.05};
  grid.rates({{"hot", 1000.0, mix}, {"warm", 300.0, mix}});
  const std::size_t cells = grid.cells().size();
  const std::size_t keys = 1;  // rspeed x the LAEC placement
  ASSERT_EQ(cells, 4u);
  const auto spec = small_spec(10);
  auto& reg = obs::Registry::global();
  std::vector<std::string> csv;
  for (const unsigned threads : {1u, 8u}) {
    const u64 runs = reg.counter("campaign.golden_runs").value();
    const u64 hits = reg.counter("campaign.golden_cache_hits").value();
    csv.push_back(campaign_csv(grid, spec, threads));
    EXPECT_EQ(reg.counter("campaign.golden_runs").value() - runs, keys)
        << "threads=" << threads;
    EXPECT_EQ(reg.counter("campaign.golden_cache_hits").value() - hits,
              cells - keys)
        << "threads=" << threads;
  }
  EXPECT_FALSE(csv[0].empty());
  EXPECT_EQ(csv[0], csv[1]);
}

TEST(Campaign, TimingTwinsShareOneGoldenRun) {
  // laec, sec-daec-39-32 and dec-bch-45-32 differ in the DL1's codec
  // alone: one timing class, whose one golden run serves all their rate
  // cells. extra-stage moves the check in the pipeline: a class of its own.
  // Rows equal the simulate-everything reference (no pruning, no
  // fast-forward) at 1 and 8 threads, and each scheme's rows equal those
  // of a grid of that scheme alone, which runs its own golden run.
  const std::vector<std::string> schemes = {"laec", "sec-daec-39-32",
                                            "dec-bch-45-32", "extra-stage"};
  CampaignGrid grid;
  grid.workloads({"puwmod"})
      .schemes(schemes)
      .rates({*tech_preset("40nm"), *tech_preset("28nm")});
  CampaignSpec spec;
  spec.accel = 1e16;
  spec.trials = 8;
  spec.base.dl1_size_bytes = 2 * 1024;
  CampaignSpec reference = spec;
  reference.prune = false;
  reference.fast_forward = false;
  const std::string want = campaign_csv(grid, reference, 4);
  ASSERT_FALSE(want.empty());
  auto& reg = obs::Registry::global();
  for (const unsigned threads : {1u, 8u}) {
    const u64 runs = reg.counter("campaign.golden_runs").value();
    const u64 hits = reg.counter("campaign.golden_cache_hits").value();
    EXPECT_EQ(campaign_csv(grid, spec, threads), want) << threads;
    EXPECT_EQ(reg.counter("campaign.golden_runs").value() - runs, 2u)
        << threads;
    EXPECT_EQ(reg.counter("campaign.golden_cache_hits").value() - hits, 6u)
        << threads;
  }
  // The rows of the scheme in `ecc`'s column (the second) of a CSV.
  const auto rows_of = [](const std::string& csv, const std::string& ecc) {
    std::vector<std::string> rows;
    std::istringstream in(csv);
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      const std::size_t a = line.find(',') + 1;
      if (line.substr(a, line.find(',', a) - a) == ecc) rows.push_back(line);
    }
    return rows;
  };
  for (const std::string& scheme : schemes) {
    CampaignGrid alone = grid;
    alone.schemes({scheme});
    const u64 runs = reg.counter("campaign.golden_runs").value();
    const std::string own = campaign_csv(alone, spec, 4);
    EXPECT_EQ(reg.counter("campaign.golden_runs").value() - runs, 1u);
    const std::string ecc = core::HierarchyDeployment::parse(scheme).name;
    ASSERT_EQ(rows_of(own, ecc).size(), 2u) << scheme;
    EXPECT_EQ(rows_of(own, ecc), rows_of(want, ecc)) << scheme;
  }
}

TEST(Campaign, SameWidthSchemesDrawOneStorm) {
  // A storm is a pure function of the golden windows, the lambda scale, the
  // MBU table, the codeword width and a seed that omits the scheme. So the
  // 39-bit laec and sec-daec-39-32 see trial t's storm alike, and the
  // 45-bit dec-bch-45-32 does not. Drawn from each scheme's own golden run,
  // the schedules agree trial for trial...
  const RatePoint rate = *tech_preset("28nm");
  CampaignSpec spec;
  spec.accel = 1e16;
  spec.trials = 24;
  spec.base.dl1_size_bytes = 2 * 1024;
  const u64 base_seed = CampaignOptions{}.base_seed;
  const auto storms = [&](const std::string& scheme) {
    runner::SweepPoint p;
    p.workload = "puwmod";
    p.config = spec.base;
    p.config.set_scheme(scheme);
    mem::ResidencyRecorder rec;
    (void)runner::run_golden_point(p, base_seed, &rec);
    const auto windows = rec.take_windows();
    const unsigned bits = target_codeword_bits(p.config);
    const double scale = window_lambda_scale(spec, rate.fit_per_mbit, bits);
    std::vector<ecc::TrialSchedule> out;
    for (unsigned t = 0; t < spec.trials; ++t) {
      p.replicate = t;
      out.push_back(draw_trial_schedule(windows, scale, rate.patterns, bits,
                                        runner::fault_seed(base_seed, p)));
    }
    return out;
  };
  const auto laec = storms("laec");
  const auto sec_daec = storms("sec-daec-39-32");
  const auto bch = storms("dec-bch-45-32");
  unsigned live = 0, bch_differs = 0;
  for (unsigned t = 0; t < spec.trials; ++t) {
    EXPECT_EQ(laec[t].deliveries, sec_daec[t].deliveries) << t;
    EXPECT_EQ(laec[t].events, sec_daec[t].events) << t;
    EXPECT_EQ(laec[t].dropped_events, sec_daec[t].dropped_events) << t;
    live += laec[t].has_live() ? 1 : 0;
    bch_differs += laec[t].deliveries != bch[t].deliveries ||
                           laec[t].events != bch[t].events
                       ? 1
                       : 0;
  }
  EXPECT_GT(live, 0u);  // the comparison is not between empty storms
  EXPECT_GE(bch_differs, 1u);
  // ...and a campaign over the three draws each distinct storm once: one
  // per trial for the 39-bit pair, one per trial for the 45-bit code.
  CampaignGrid grid;
  grid.workloads({"puwmod"})
      .schemes({"laec", "sec-daec-39-32", "dec-bch-45-32"})
      .rates({rate});
  auto& reg = obs::Registry::global();
  const u64 drawn = reg.counter("campaign.storms_drawn").value();
  (void)campaign_csv(grid, spec, 4);
  EXPECT_EQ(reg.counter("campaign.storms_drawn").value() - drawn,
            2u * spec.trials);
}

TEST(Campaign, StreamedRoundsResumeFromAnyFold) {
  // With the stopping rule off, all four rounds are planned in one pass and
  // their trials share one sweep; the rounds fold in order as their results
  // come in. should_stop after fold k ends the sweep, and fold k's cursors,
  // on the batch grid, resume to the uninterrupted rows.
  const CampaignGrid grid = small_grid();
  CampaignSpec spec = small_spec(16);
  spec.batch = 4;
  const std::string want = campaign_csv(grid, spec, 1);
  for (const unsigned threads : {1u, 4u}) {
    for (const unsigned k : {1u, 2u, 3u}) {
      std::vector<CellProgress> cursors;
      unsigned folds = 0;
      std::ostringstream out;
      report::CsvWriter sink(out);
      CampaignOptions opts;
      opts.threads = threads;
      opts.sink = &sink;
      opts.on_round = [&](const std::vector<CellProgress>& p) {
        ++folds;
        cursors = p;
      };
      opts.should_stop = [&] { return folds >= k; };
      const CampaignSummary sum = run_campaign(grid, spec, opts);
      EXPECT_TRUE(sum.interrupted) << threads << " threads, k=" << k;
      EXPECT_TRUE(out.str().empty());
      EXPECT_EQ(folds, k);
      for (const CellProgress& c : cursors) {
        EXPECT_EQ(c.done, k * spec.batch) << threads << " threads, k=" << k;
      }
      CampaignOptions again;
      again.threads = threads;
      std::ostringstream rest;
      report::CsvWriter rest_sink(rest);
      again.sink = &rest_sink;
      again.resume_from = &cursors;
      EXPECT_FALSE(run_campaign(grid, spec, again).interrupted);
      EXPECT_EQ(rest.str(), want) << threads << " threads, k=" << k;
    }
  }
}

TEST(Campaign, StopLandsAtTheNextFold) {
  // A stop requested during round 0 (should_stop is true from its first
  // poll on) lands when round 0 folds. On one thread the rounds are handed
  // off in order, so round 0 folds as soon as its own trials are in, and no
  // trial of a later round has started by then: the trials run are exactly
  // those of a campaign one round long.
  CampaignGrid grid;
  grid.workloads({"puwmod"})
      .schemes({"laec", "extra-stage"})
      .rates({*tech_preset("28nm")});
  CampaignSpec spec;
  spec.accel = 1e16;  // most trials simulate
  spec.trials = 16;
  spec.batch = 4;
  spec.base.dl1_size_bytes = 2 * 1024;
  CampaignSpec one_round = spec;
  one_round.trials = spec.batch;
  const obs::Histogram& runs =
      obs::Registry::global().histogram("sweep.point_us");
  CampaignOptions opts;
  opts.threads = 1;
  u64 before = runs.count();
  (void)run_campaign(grid, one_round, opts);
  const u64 round0 = runs.count() - before;
  ASSERT_GT(round0, 0u);

  unsigned folds = 0;
  u64 at_first_fold = 0;
  std::vector<CellProgress> cursors;
  opts.on_round = [&](const std::vector<CellProgress>& p) {
    if (folds++ == 0) at_first_fold = runs.count() - before;
    cursors = p;
  };
  opts.should_stop = [] { return true; };
  before = runs.count();
  EXPECT_TRUE(run_campaign(grid, spec, opts).interrupted);
  EXPECT_EQ(folds, 1u);
  EXPECT_EQ(at_first_fold, round0);
  EXPECT_EQ(runs.count() - before, round0);
  for (const CellProgress& c : cursors) EXPECT_EQ(c.done, spec.batch);
}

TEST(Campaign, ImpossibleGeometryReachesTheCallerFromThePool) {
  // The golden pass builds the first systems on pool threads; a geometry
  // the cache refuses must surface as the caller's exception, not as
  // std::terminate on a worker.
  CampaignSpec spec = small_spec(4);
  spec.base.dl1_ways = 3;
  CampaignOptions opts;
  opts.threads = 4;
  EXPECT_THROW((void)run_campaign(small_grid(), spec, opts),
               std::invalid_argument);
}

TEST(Campaign, ShardsPartitionTheCells) {
  const auto cells = small_grid().cells();  // 2 cells
  const auto spec = small_spec(4);
  CampaignOptions a, b;
  a.shard_count = b.shard_count = 2;
  a.shard_index = 0;
  b.shard_index = 1;
  const auto ra = run_campaign(cells, spec, a);
  const auto rb = run_campaign(cells, spec, b);
  EXPECT_EQ(ra.cells_run + rb.cells_run, cells.size());
  ASSERT_EQ(ra.cells.size(), 1u);
  ASSERT_EQ(rb.cells.size(), 1u);
  EXPECT_NE(ra.cells[0].cell.index, rb.cells[0].cell.index);
}

TEST(Campaign, EventsScaleWithTheRateAxis) {
  CampaignGrid grid;
  grid.workloads({"rspeed"}).schemes({"laec"});
  MbuPatternTable mix{1.0, 0.0, 0.0, 0.0};
  grid.rates({{"cool", 10.0, mix}, {"hot", 1000.0, mix}});
  const auto sum = run_campaign(grid, small_spec(8));
  ASSERT_EQ(sum.cells.size(), 2u);
  EXPECT_LT(sum.cells[0].events, sum.cells[1].events);
  EXPECT_GT(sum.cells[1].events, 0u);
}

TEST(Campaign, ExtremeAccelSurfacesDroppedEventsInsteadOfSilentTruncation) {
  // Acceleration high enough that every access window holds a pile-up of
  // events far past the per-access flip budget. The campaign must stay
  // finite and deterministic, deliver what fits, and report the surplus in
  // the events_dropped column rather than silently clipping the rate.
  const auto grid = small_grid();
  CampaignSpec spec = small_spec(6);
  spec.accel = 1e30;
  const auto sum = run_campaign(grid, spec);
  ASSERT_EQ(sum.cells.size(), 2u);
  for (const auto& c : sum.cells) {
    EXPECT_GT(c.events, 0u) << c.cell.scheme;
    EXPECT_GT(c.events_dropped, 0u) << c.cell.scheme;
    // Estimators stay well-defined at the saturation point.
    EXPECT_TRUE(std::isfinite(c.est.p_fail)) << c.cell.scheme;
    EXPECT_TRUE(std::isfinite(c.est.p_lo)) << c.cell.scheme;
    EXPECT_TRUE(std::isfinite(c.est.p_hi)) << c.cell.scheme;
    EXPECT_TRUE(std::isfinite(c.avf)) << c.cell.scheme;
    // The column renders.
    const auto row = campaign_to_row(c);
    EXPECT_EQ(row.size(), campaign_row_headers().size());
  }
  // Determinism holds under saturation too.
  EXPECT_EQ(campaign_csv(grid, spec, 1), campaign_csv(grid, spec, 8));
}

TEST(Campaign, CiWidthShrinksWithTrialCount) {
  // The ISSUE's monotonicity claim, end to end: the same cell at 4x the
  // trials must report a tighter confidence interval.
  const auto grid = small_grid();
  const auto s16 = run_campaign(grid, small_spec(16));
  const auto s64 = run_campaign(grid, small_spec(64));
  ASSERT_EQ(s16.cells.size(), s64.cells.size());
  for (std::size_t i = 0; i < s16.cells.size(); ++i) {
    const auto hw = [](const CellResult& c) {
      return (c.est.p_hi - c.est.p_lo) / 2.0;
    };
    EXPECT_LT(hw(s64.cells[i]), hw(s16.cells[i])) << "cell " << i;
    EXPECT_EQ(s16.cells[i].trials, 16u);
    EXPECT_EQ(s64.cells[i].trials, 64u);
  }
}

TEST(Campaign, StoppingRuleEndsCellsEarly) {
  const auto grid = small_grid();
  CampaignSpec spec = small_spec(64);
  spec.min_trials = 4;
  spec.batch = 4;
  spec.target_half_width = 0.45;  // generous: satisfied at 4 trials
  const auto sum = run_campaign(grid, spec);
  for (const auto& c : sum.cells) {
    EXPECT_EQ(c.trials, 4u) << c.cell.scheme;
  }
  // Disarmed rule: every cell runs the full budget.
  spec.target_half_width = 0.0;
  spec.trials = 8;
  const auto full = run_campaign(grid, spec);
  for (const auto& c : full.cells) {
    EXPECT_EQ(c.trials, 8u);
  }
}

TEST(Campaign, RowSchemaCarriesTheEstimators) {
  const auto& h = campaign_row_headers();
  for (const char* col :
       {"workload", "ecc", "rate", "trials", "fit", "fit_lo", "fit_hi",
        "mttf_hours", "avf", "ci_lo", "ci_hi", "sdc", "data_loss",
        "events_dropped", "pruned", "mean_exposure_cycles"}) {
    EXPECT_NE(std::find(h.begin(), h.end(), col), h.end()) << col;
  }
  const auto sum = run_campaign(small_grid(), small_spec(4));
  ASSERT_FALSE(sum.cells.empty());
  const auto row = campaign_to_row(sum.cells[0]);
  EXPECT_EQ(row.size(), h.size());
}

}  // namespace
}  // namespace laec::reliability
