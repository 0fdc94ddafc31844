#include "runner/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "common/hash.hpp"
#include "ecc/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/system.hpp"
#include "workloads/synthetic.hpp"

namespace laec::runner {

namespace {

std::string fmt_u64(u64 v) { return std::to_string(v); }

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

/// Run a single point to completion. The caller has already validated the
/// workload name, so kernel_by_name cannot throw here.
PointResult run_point(const SweepPoint& point, u64 base_seed,
                      mem::ResidencyRecorder* recorder = nullptr,
                      sim::SnapshotStore* snapshots = nullptr) {
  PointResult r;
  r.point = point;

  core::SimConfig cfg = point.config;
  const u64 seed = point_seed(base_seed, point);
  if (cfg.faults.has_value()) {
    cfg.faults->seed = fault_seed(base_seed, point);
  }

  const auto& entry = workloads::kernel_by_name(point.workload);
  if (point.mode == RunMode::kTrace) {
    auto params = workloads::SyntheticParams::from_kernel(entry,
                                                          point.trace_ops);
    // Trace mode has no fault storm for the replicate to vary, so it
    // varies the TRACE instead — each replicate is an independent
    // synthetic-workload sample. Replicate 0 keeps the historical seed.
    params.seed =
        point.replicate == 0
            ? seed
            : splitmix64(seed ^ (point.replicate * kSplitmixGamma));
    workloads::SyntheticTrace trace(params);
    r.stats = core::run_trace(cfg, trace);
    return r;
  }

  const auto built = entry.build();
  // Fast-forward: a replay trial with a golden run simulates only the
  // stretches of its storm that are not the golden run's. The rows are
  // byte-identical with the from-reset path (the ff-equiv suite and CI gate
  // hold this contract).
  auto run = point.golden != nullptr
                 ? core::run_program_replay(cfg, built.program,
                                            point.golden->snapshots,
                                            point.golden->result.stats)
                 : core::run_program_keep_system(cfg, built.program, recorder,
                                                 snapshots);
  r.stats = std::move(run.stats);
  r.rejoin = run.rejoin;
  if (run.injector != nullptr) {
    r.faults_injected = run.injector->injected_total();
    r.faults_dropped = run.injector->faults_dropped();
  }
  // A trial completed from its golden run ends in the golden run's state.
  if (run.rejoin.at_end) {
    r.self_check_ok = point.golden->result.self_check_ok;
    return r;
  }
  for (const auto& [addr, expect] : built.expected) {
    if (run.system->read_word_final(addr) != expect) {
      r.self_check_ok = false;
      break;
    }
  }
  return r;
}

void accumulate(StatSet& totals, const PointResult& r) {
  totals.counter("points") += 1;
  totals.counter("self_check_failures") += r.self_check_ok ? 0 : 1;
  totals.counter("completed") += r.stats.completed ? 1 : 0;
  totals.counter("cycles") += r.stats.cycles;
  totals.counter("instructions") += r.stats.instructions;
  totals.counter("loads") += r.stats.loads;
  totals.counter("load_hits") += r.stats.load_hits;
  totals.counter("stores") += r.stats.stores;
  totals.counter("dep_loads") += r.stats.dep_loads;
  totals.counter("laec_anticipated") += r.stats.laec_anticipated;
  totals.counter("laec_data_hazard") += r.stats.laec_data_hazard;
  totals.counter("laec_resource_hazard") += r.stats.laec_resource_hazard;
  totals.counter("ecc_corrected") += r.stats.ecc_corrected;
  totals.counter("ecc_corrected_adjacent") += r.stats.ecc_corrected_adjacent;
  totals.counter("ecc_detected_uncorrectable") +=
      r.stats.ecc_detected_uncorrectable;
  totals.counter("parity_refetches") += r.stats.parity_refetches;
  totals.counter("data_loss_events") += r.stats.data_loss_events;
  totals.counter("l1i_corrected") += r.stats.l1i_corrected;
  totals.counter("l1i_detected_uncorrectable") +=
      r.stats.l1i_detected_uncorrectable;
  totals.counter("l1i_refetches") += r.stats.l1i_refetches;
  totals.counter("l2_corrected") += r.stats.l2_corrected;
  totals.counter("l2_corrected_adjacent") += r.stats.l2_corrected_adjacent;
  totals.counter("l2_detected_uncorrectable") +=
      r.stats.l2_detected_uncorrectable;
  totals.counter("l2_refetches") += r.stats.l2_refetches;
  totals.counter("l2_data_loss_events") += r.stats.l2_data_loss_events;
  totals.counter("bus_transactions") += r.stats.bus_transactions;
  totals.counter("bus_wait_cycles") += r.stats.bus_wait_cycles;
  for (const auto& sub :
       {std::make_pair("pipeline.", &r.stats.pipeline_stats),
        std::make_pair("dl1.", &r.stats.dl1_stats),
        std::make_pair("l1i.", &r.stats.l1i_stats),
        std::make_pair("l2.", &r.stats.l2_stats),
        std::make_pair("bus.", &r.stats.bus_stats)}) {
    for (const auto& [name, value] : sub.second->items()) {
      totals.counter(std::string(sub.first) + name) += value;
    }
  }
}

}  // namespace

SweepGrid& SweepGrid::workloads(std::vector<std::string> names) {
  workloads_ = std::move(names);
  return *this;
}

SweepGrid& SweepGrid::all_workloads() {
  workloads_.clear();
  for (const auto& k : workloads::eembc_kernels()) {
    workloads_.push_back(k.name);
  }
  return *this;
}

SweepGrid& SweepGrid::schemes(std::vector<std::string> keys) {
  schemes_ = std::move(keys);
  return *this;
}

SweepGrid& SweepGrid::hazards(std::vector<cpu::HazardRule> rules) {
  hazards_ = std::move(rules);
  return *this;
}

SweepGrid& SweepGrid::variants(std::vector<ConfigVariant> variants) {
  variants_ = std::move(variants);
  return *this;
}

SweepGrid& SweepGrid::base_config(core::SimConfig cfg) {
  base_ = std::move(cfg);
  return *this;
}

SweepGrid& SweepGrid::mode(RunMode m) {
  mode_ = m;
  return *this;
}

SweepGrid& SweepGrid::trace_ops(u64 ops) {
  trace_ops_ = ops;
  return *this;
}

SweepGrid& SweepGrid::replicates(u64 n) {
  if (n == 0) {
    throw std::invalid_argument("SweepGrid::replicates: n must be >= 1");
  }
  replicates_ = n;
  return *this;
}

std::vector<SweepPoint> SweepGrid::points() const {
  // A single identity variant keeps the expansion uniform.
  static const ConfigVariant kIdentity{"default", nullptr};
  const std::vector<ConfigVariant>* variants = &variants_;
  const std::vector<ConfigVariant> identity{kIdentity};
  if (variants->empty()) variants = &identity;

  // Parse every scheme key once up front (throws for unknown keys before
  // any simulation runs).
  std::vector<core::HierarchyDeployment> deployments;
  deployments.reserve(schemes_.size());
  for (const auto& s : schemes_) {
    deployments.push_back(core::HierarchyDeployment::parse(s));
  }

  std::vector<SweepPoint> out;
  out.reserve(workloads_.size() * variants->size() * deployments.size() *
              hazards_.size() * replicates_);
  for (const auto& w : workloads_) {
    for (const auto& v : *variants) {
      for (const auto& dep : deployments) {
        for (const auto hz : hazards_) {
          for (u64 rep = 0; rep < replicates_; ++rep) {
            SweepPoint p;
            p.index = out.size();
            p.workload = w;
            p.variant = v.name;
            p.config = base_;
            if (v.tweak) v.tweak(p.config);
            p.config.deployment = dep;
            p.config.hazard_rule = hz;
            p.mode = mode_;
            p.trace_ops = trace_ops_;
            p.replicate = rep;
            out.push_back(std::move(p));
          }
        }
      }
    }
  }
  return out;
}

u64 point_seed(u64 base_seed, const SweepPoint& point) {
  u64 h = splitmix64(base_seed);
  h = splitmix64(h ^ fnv1a(point.workload, kFnvOffset));
  h = splitmix64(h ^ point.trace_ops);
  return h;
}

u64 fault_seed(u64 base_seed, const SweepPoint& point) {
  // Mixing the replicate index here (and only here) keeps the trace
  // identical across a cell's trials while giving each trial its own
  // fault sequence; replicate 0 reproduces the historical seed exactly.
  return splitmix64(point_seed(base_seed, point) ^ 0xfa17u ^
                    (point.replicate * kSplitmixGamma));
}

PointResult run_golden_point(const SweepPoint& point, u64 base_seed,
                             mem::ResidencyRecorder* recorder,
                             sim::SnapshotStore* snapshots) {
  if (point.mode != RunMode::kProgram) {
    throw std::invalid_argument(
        "run_golden_point requires program mode: trace-mode points keep no "
        "arrays to record residency in");
  }
  SweepPoint golden = point;
  golden.config.faults.reset();
  golden.replicate = 0;  // the shared trace; replicates differ only in storms
  golden.golden = nullptr;
  return run_point(golden, base_seed, recorder, snapshots);
}

const std::vector<std::string>& fig8_scheme_keys() {
  static const std::vector<std::string> kKeys = {"no-ecc", "extra-cycle",
                                                 "extra-stage", "laec"};
  return kKeys;
}

const std::vector<std::string>& row_headers() {
  // The ecc_* columns are the DL1's (original names retained); the l1i_*/
  // l2_* blocks carry the other levels of the hierarchy deployment.
  static const std::vector<std::string> kHeaders = {
      "workload", "variant", "mode", "ecc", "codec_dl1", "codec_l1i",
      "codec_l2", "hazard", "completed", "cycles", "instructions", "cpi",
      "loads", "load_hits", "dep_loads", "stores", "laec_anticipated",
      "laec_data_hazard", "laec_resource_hazard", "ecc_corrected",
      "ecc_corrected_adjacent", "ecc_detected_uncorrectable",
      "parity_refetches", "l1i_corrected", "l1i_due", "l1i_refetches",
      "l2_corrected", "l2_corrected_adjacent", "l2_due", "l2_refetches",
      "l2_data_loss", "bus_transactions", "bus_wait_cycles", "self_check"};
  return kHeaders;
}

std::vector<std::string> to_row(const PointResult& r) {
  const auto& s = r.stats;
  const core::HierarchyDeployment& dep = r.point.config.deployment;
  return {r.point.workload,
          r.point.variant,
          std::string(to_string(r.point.mode)),
          dep.name,
          dep.codec,
          dep.l1i.codec,
          dep.l2.codec,
          std::string(to_string(r.point.config.hazard_rule)),
          s.completed ? "1" : "0",
          fmt_u64(s.cycles),
          fmt_u64(s.instructions),
          fmt_double(s.cpi),
          fmt_u64(s.loads),
          fmt_u64(s.load_hits),
          fmt_u64(s.dep_loads),
          fmt_u64(s.stores),
          fmt_u64(s.laec_anticipated),
          fmt_u64(s.laec_data_hazard),
          fmt_u64(s.laec_resource_hazard),
          fmt_u64(s.ecc_corrected),
          fmt_u64(s.ecc_corrected_adjacent),
          fmt_u64(s.ecc_detected_uncorrectable),
          fmt_u64(s.parity_refetches),
          fmt_u64(s.l1i_corrected),
          fmt_u64(s.l1i_detected_uncorrectable),
          fmt_u64(s.l1i_refetches),
          fmt_u64(s.l2_corrected),
          fmt_u64(s.l2_corrected_adjacent),
          fmt_u64(s.l2_detected_uncorrectable),
          fmt_u64(s.l2_refetches),
          fmt_u64(s.l2_data_loss_events),
          fmt_u64(s.bus_transactions),
          fmt_u64(s.bus_wait_cycles),
          r.self_check_ok ? "ok" : "FAIL"};
}

void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& body,
                  Schedule schedule) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned requested = threads == 0 ? hw : threads;
  const unsigned n_threads = static_cast<unsigned>(
      std::min<std::size_t>(requested, std::max<std::size_t>(1, n)));

  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> stop{false};
  std::mutex failure_mutex;
  std::exception_ptr failure;  // first body exception
  const auto worker = [&](unsigned w) {
    try {
      for (std::size_t k = 0;; ++k) {
        const std::size_t i =
            schedule == Schedule::kStatic
                ? k * n_threads + (k % 2 == 0 ? w : n_threads - 1 - w)
                : cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= n || stop.load(std::memory_order_relaxed)) return;
        body(i);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(failure_mutex);
      if (failure == nullptr) failure = std::current_exception();
      stop.store(true, std::memory_order_relaxed);
    }
  };

  // The calling thread is worker 0.
  std::vector<std::thread> pool;
  pool.reserve(n_threads - 1);
  try {
    for (unsigned t = 1; t < n_threads; ++t) pool.emplace_back(worker, t);
  } catch (const std::system_error&) {
    // No more threads to be had: the caller runs the missing workers' share.
  }
  worker(0);
  for (auto t = static_cast<unsigned>(pool.size()) + 1; t < n_threads; ++t) {
    worker(t);
  }
  for (auto& t : pool) t.join();
  if (failure != nullptr) std::rethrow_exception(failure);
}

SweepSummary run_sweep(const std::vector<SweepPoint>& points,
                       const SweepOptions& opts) {
  if (opts.shard_count == 0 || opts.shard_index >= opts.shard_count) {
    throw std::invalid_argument("run_sweep: shard_index/shard_count invalid");
  }
  // Validate every point up front so bad input fails before any simulation:
  // workload names must resolve, and trace (oracle) points cannot carry
  // fault injection (there are no arrays to inject into). What only system
  // construction can check (cache geometry) throws from a worker; the first
  // such exception stops the pool and is rethrown here.
  {
    std::set<std::string> seen;
    for (const auto& p : points) {
      if (seen.insert(p.workload).second) {
        (void)workloads::kernel_by_name(p.workload);  // throws if unknown
      }
      if (p.mode == RunMode::kTrace && p.config.faults.has_value()) {
        throw std::invalid_argument(
            "run_sweep: point " + std::to_string(p.index) +
            " combines trace mode with fault injection, which requires "
            "program mode (the oracle keeps no arrays to inject into)");
      }
      if (p.golden != nullptr &&
          (p.mode != RunMode::kProgram || !p.config.faults.has_value() ||
           p.config.faults->schedule == nullptr)) {
        throw std::invalid_argument(
            "run_sweep: point " + std::to_string(p.index) +
            " carries a golden run without a program-mode replay schedule "
            "(fast-forward is only sound for pre-drawn storms)");
      }
    }
  }

  // This shard's slice, in grid order.
  std::vector<const SweepPoint*> mine;
  for (const auto& p : points) {
    if (p.index % opts.shard_count == opts.shard_index) mine.push_back(&p);
  }

  SweepSummary summary;
  summary.results.resize(mine.size());
  if (opts.sink != nullptr) opts.sink->begin(row_headers());

  std::vector<char> done(mine.size(), 0);
  std::size_t next_emit = 0;
  std::mutex emit_mutex;

  // Emit (sink + callback + aggregate) every contiguous finished prefix.
  // Called with emit_mutex held; emission is therefore in grid order and
  // byte-identical for any thread count.
  const auto drain = [&] {
    while (next_emit < mine.size() && done[next_emit]) {
      const PointResult& r = summary.results[next_emit];
      accumulate(summary.totals, r);
      summary.points_run += 1;
      if (!r.self_check_ok) summary.self_check_failures += 1;
      if (opts.sink != nullptr) opts.sink->row(to_row(r));
      if (opts.on_result) opts.on_result(r);
      ++next_emit;
    }
  };

  // Per-point wall time feeds the heartbeat's p50/p99 (tracer on or off);
  // the clock reads sit at point granularity, never inside the sim loop.
  obs::Histogram& point_us =
      obs::Registry::global().histogram("sweep.point_us");
  parallel_for(mine.size(), opts.threads, [&](std::size_t i) {
    const SweepPoint& p = *mine[i];
    obs::Span span("trial");
    if (span.live()) {
      span.arg("workload", p.workload);
      span.arg("replicate", static_cast<u64>(p.replicate));
      if (p.golden != nullptr) {
        if (const auto start = core::replay_start(
                p.golden->snapshots, *p.config.faults->schedule)) {
          span.arg("ff_ordinal", start->ordinal);
        }
      }
    }
    const auto t0 = std::chrono::steady_clock::now();
    PointResult r = run_point(p, opts.base_seed);
    point_us.record(static_cast<u64>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    if (span.live() && p.golden != nullptr) {
      span.arg("rejoined", static_cast<u64>(r.rejoin.at_end));
      span.arg("jumps", r.rejoin.jumps);
    }
    span.close();
    std::lock_guard<std::mutex> lock(emit_mutex);
    summary.results[i] = std::move(r);
    done[i] = 1;
    drain();
  });

  if (opts.sink != nullptr) opts.sink->end();
  return summary;
}

}  // namespace laec::runner
