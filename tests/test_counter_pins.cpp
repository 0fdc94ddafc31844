// Counter pins: every named counter the simulator keeps, digested over
// fixed grids and pinned.
//
// CSV rows carry about thirty counters; the rest (the pipeline's stall_*
// and laec_* breakdowns, the bus's per-operation counts, the cache arrays'
// read/write/fill tallies) appear in no row and no benchmark digest. A
// change to the cycle loop that must not change what it computes has to
// leave all of them alone, so each test below folds every counter of every
// StatSet a run reports (pipeline, DL1, L1I, L2, bus), plus `completed`,
// the self-check and the injector's delivery counts, into one FNV-1a
// digest per grid and compares it with a pinned value.
//
// A failing pin means the simulated machine now behaves differently. That
// is only ever right for a change that is meant to move results; re-pin
// then, and say why in the change log.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "runner/sweep_runner.hpp"

namespace laec::runner {
namespace {

/// The digest of one sweep, and its total simulated cycles (a readable
/// figure to compare when the digest moves).
struct Pin {
  u64 digest = 0;
  u64 cycles = 0;
};

/// Every counter of `set`, by name (not registration order), as
/// "prefix.name=value" lines.
void append_counters(std::string& text, const char* prefix,
                     const StatSet& set) {
  std::map<std::string, u64> by_name;
  for (const auto& [name, value] : set.items()) by_name[name] += value;
  for (const auto& [name, value] : by_name) {
    text += prefix;
    text += '.';
    text += name;
    text += '=';
    text += std::to_string(value);
    text += '\n';
  }
}

Pin pin_of(const std::vector<SweepPoint>& points) {
  SweepOptions opts;
  opts.threads = 0;  // results do not depend on the thread count
  const SweepSummary sum = run_sweep(points, opts);
  EXPECT_EQ(sum.results.size(), points.size());
  std::string text;
  Pin pin;
  for (const PointResult& r : sum.results) {
    const core::RunStats& s = r.stats;
    text += "point " + std::to_string(r.point.index) + ' ' +
            r.point.workload + ' ' + r.point.config.deployment.name + '\n';
    text += "completed=" + std::to_string(s.completed) + '\n';
    text += "self_check=" + std::to_string(r.self_check_ok) + '\n';
    text += "faults_injected=" + std::to_string(r.faults_injected) + '\n';
    text += "faults_dropped=" + std::to_string(r.faults_dropped) + '\n';
    append_counters(text, "pipeline", s.pipeline_stats);
    append_counters(text, "dl1", s.dl1_stats);
    append_counters(text, "l1i", s.l1i_stats);
    append_counters(text, "l2", s.l2_stats);
    append_counters(text, "bus", s.bus_stats);
    pin.cycles += s.cycles;
  }
  pin.digest = fnv1a(text);
  return pin;
}

void expect_pin(const std::vector<SweepPoint>& points, u64 digest,
                u64 cycles) {
  const Pin got = pin_of(points);
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llx",
                static_cast<unsigned long long>(got.digest));
  EXPECT_EQ(got.cycles, cycles);
  EXPECT_EQ(got.digest, digest) << "counter digest is now " << hex;
}

/// Append `grid`'s points to `points`, renumbered to follow them.
void append(std::vector<SweepPoint>& points, const SweepGrid& grid) {
  for (SweepPoint& p : grid.points()) {
    p.index = points.size();
    points.push_back(std::move(p));
  }
}

SweepGrid fig8_grid(RunMode mode) {
  SweepGrid g;
  g.all_workloads().schemes(fig8_scheme_keys()).mode(mode);
  return g;
}

// The 64 points of Fig. 8 (16 kernels x 4 schemes) on the full hierarchy.
TEST(CounterPins, Fig8GridInProgramMode) {
  const auto points = fig8_grid(RunMode::kProgram).points();
  ASSERT_EQ(points.size(), 64u);
  expect_pin(points, 0xe7ca206644f9adb0ull, 4'319'995);
}

// The same grid on calibrated traces: oracle DL1 outcomes, so every
// memory op takes the pipeline's forced_mem path.
TEST(CounterPins, Fig8GridInCalibratedTraceMode) {
  const auto points = fig8_grid(RunMode::kTrace).points();
  ASSERT_EQ(points.size(), 64u);
  expect_pin(points, 0xafd3f23ffdc8d709ull, 11'098'312);
}

// Fault storms drawn by the injector (its seed follows from the sweep's
// fixed base seed) on each array, bounded like the campaign tests'
// runaway trials. The rates scale with how rarely each array is read.
TEST(CounterPins, InjectedPointsOnEveryTarget) {
  struct Target {
    core::InjectTarget target;
    double single_flip_prob;
  };
  std::vector<SweepPoint> points;
  for (const Target& t : {Target{core::InjectTarget::kDl1, 1e-3},
                          Target{core::InjectTarget::kL1i, 2e-4},
                          Target{core::InjectTarget::kL2, 5e-2}}) {
    core::SimConfig base;
    base.dl1_size_bytes = 2 * 1024;
    base.max_cycles = 300'000;
    base.inject_target = t.target;
    ecc::InjectorConfig faults;
    faults.single_flip_prob = t.single_flip_prob;
    faults.double_flip_prob = t.single_flip_prob / 2;
    faults.adjacent_doubles = true;
    base.faults = faults;
    append(points, SweepGrid()
                       .workloads({"puwmod", "tblook"})
                       .schemes({"laec", "sec-daec-39-32", "wt-parity"})
                       .base_config(base));
  }
  ASSERT_EQ(points.size(), 18u);
  expect_pin(points, 0x25eba1925c9e180bull, 2'500'470);
}

// Paths the Fig. 8 grid leaves idle: the stride-predicted look-ahead (on
// kernels whose loads follow their address producer), and a bus shared
// with co-runner traffic (several requesters queued at once).
TEST(CounterPins, PredictorAndBusContentionVariants) {
  core::SimConfig predicted;
  predicted.stride_predictor = true;
  core::SimConfig contended;
  for (unsigned i = 0; i < 3; ++i) {
    sim::TrafficPattern t;
    t.gap_cycles = 5 * i;
    t.op = i == 1 ? mem::BusOp::kWriteLine : mem::BusOp::kReadLine;
    t.base = 0x4000'0000 + (i << 20);
    contended.traffic.push_back(t);
  }
  std::vector<SweepPoint> points;
  append(points, SweepGrid()
                     .workloads({"aifftr", "bitmnp", "matrix"})
                     .schemes({"laec"})
                     .base_config(predicted));
  append(points, SweepGrid()
                     .workloads({"puwmod", "rspeed", "tblook"})
                     .schemes({"laec", "wt-parity"})
                     .base_config(contended));
  ASSERT_EQ(points.size(), 9u);
  expect_pin(points, 0x00c1ccd16154f08bull, 683'213);
}

}  // namespace
}  // namespace laec::runner
