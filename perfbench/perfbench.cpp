// The repo benchmark's measuring process. run.py builds and drives it; see
// README.md in this directory for the workloads and every metric.
//
//   laec_perfbench --workloads=NAME[,NAME...] --seed=N --seconds=S
//                  [--trace] [--setup-only]
//
// Set-up builds each workload's inputs; with --setup-only the process then
// prints its ready time (and the machine's CPU tick counters, for steal)
// and exits. Otherwise one untimed warm-up call per workload follows, whose
// row digest becomes the reference every timed repetition must reproduce.
// Repetitions then run round-robin over the named workloads until S
// seconds have passed, each one call to run_campaign or run_sweep at 2
// worker threads. With --trace, odd repetitions arm the obs::Tracer flight
// recorder and feed the per-layer ledger, even ones stay untraced (their
// wall times price the tracing), and direct calls into each layer's public
// functions add the microbenchmark figures. After the loop, the
// reference-path check and the deterministic model figures run untimed.
// The last stdout line is one JSON document.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/simulator.hpp"
#include "ecc/registry.hpp"
#include "ledger.hpp"
#include "mem/residency.hpp"
#include "obs/trace.hpp"
#include "reliability/campaign.hpp"
#include "reliability/schedule.hpp"
#include "report/sink.hpp"
#include "runner/sweep_runner.hpp"
#include "sim/snapshot.hpp"
#include "workloads/eembc.hpp"
#include "workloads/synthetic.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace laec;
using Clock = std::chrono::steady_clock;

/// Worker threads of every timed call: half of the 4-core shared host the
/// benchmark was tuned on, so a neighbour's load moves the figures less.
constexpr unsigned kThreads = 2;
/// Base seed of every timed call, so the storms (and with them rows,
/// pruned/fast-forwarded counts and cycles stepped) are the same in every
/// run; --seed permutes the order the work is submitted in instead.
constexpr u64 kStormSeed = 0x1aec;
/// Trials per cell of the reference-path check (full simulation is ~10x
/// slower than the accelerated stack, so it runs on a reduced count).
constexpr unsigned kReferenceTrials = 12;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Busy and stolen CPU ticks summed over the machine's CPUs (/proc/stat;
/// zeros where it does not exist).
struct CpuTicks {
  long long busy = 0, steal = 0;
};

CpuTicks cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  long long user = 0, nice = 0, sys = 0, idle = 0, iowait = 0, irq = 0,
            softirq = 0, steal = 0;
  f >> cpu >> user >> nice >> sys >> idle >> iowait >> irq >> softirq >> steal;
  if (!f) return {};
  return {user + nice + sys + irq + softirq, steal};
}

/// Share of the CPU time the machine wanted between two readings that the
/// hypervisor gave to other guests. On the shared virtual machines the
/// benchmark runs on it comes in bursts of seconds and moves wall times by
/// up to ±20%; host times are reported net of it (wall x (1 - share)),
/// which is the wall time itself on bare metal.
double steal_share(const CpuTicks& a, const CpuTicks& b) {
  const double stolen = static_cast<double>(b.steal - a.steal);
  const double wanted = stolen + static_cast<double>(b.busy - a.busy);
  return wanted > 0.0 ? stolen / wanted : 0.0;
}

struct Workload {
  std::string name;
  bool campaign = false;
  std::vector<reliability::CampaignCell> cells;
  reliability::CampaignSpec spec;
  std::vector<runner::SweepPoint> points;
};

template <class T>
void shuffle(std::vector<T>& v, u64 seed) {
  Rng rng(seed);
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

/// The three operating points. Campaigns: 28 nm storms on a 2 KB DL1, 96
/// trials per cell, the default prune + fast-forward stack. The sweep: the
/// Fig. 8 grid in program mode. The seed permutes the campaign cells or the
/// sweep's kernel blocks: results do not depend on the order, the
/// golden-run sequence and the pool's schedule do.
Workload make_workload(const std::string& name, u64 seed) {
  Workload w;
  w.name = name;
  if (name == "campaign-prune" || name == "campaign-saturated") {
    const bool prune = name == "campaign-prune";
    w.campaign = true;
    reliability::CampaignGrid grid;
    grid.workloads({"puwmod", prune ? "rspeed" : "iirflt"})
        .schemes({"laec", "sec-daec-39-32"})
        .rates({*reliability::tech_preset("28nm")});
    w.cells = grid.cells();
    shuffle(w.cells, seed);
    w.spec.accel = prune ? 1e15 : 1e16;
    w.spec.base.dl1_size_bytes = 2 * 1024;
    return w;
  }
  if (name == "sweep-fig8") {
    std::vector<std::string> names;
    for (const auto& k : workloads::eembc_kernels()) names.emplace_back(k.name);
    shuffle(names, seed);
    runner::SweepGrid grid;
    grid.workloads(names)
        .schemes(runner::fig8_scheme_keys())
        .mode(runner::RunMode::kProgram);
    w.points = grid.points();
    return w;
  }
  throw std::invalid_argument("unknown workload " + name);
}

struct OpResult {
  double wall_s = 0.0;
  double steal = 0.0;  ///< steal_share over the call
  u64 trials = 0;  ///< campaign trials classified, or sweep points run
  std::string digest;
  bool self_check_ok = true;
  reliability::CampaignSummary campaign;
  runner::SweepSummary sweep;
};

/// One timed call: the whole workload through the public entry point.
OpResult run_op(const Workload& w) {
  OpResult r;
  std::ostringstream csv;
  report::CsvWriter sink(csv);
  const CpuTicks k0 = cpu_ticks();
  const auto t0 = Clock::now();
  if (w.campaign) {
    reliability::CampaignOptions opts;
    opts.threads = kThreads;
    opts.base_seed = kStormSeed;
    opts.sink = &sink;
    r.campaign = reliability::run_campaign(w.cells, w.spec, opts);
    r.trials = r.campaign.trials_run;
  } else {
    runner::SweepOptions opts;
    opts.threads = kThreads;
    opts.base_seed = kStormSeed;
    opts.sink = &sink;
    r.sweep = runner::run_sweep(w.points, opts);
    r.trials = r.sweep.points_run;
    r.self_check_ok = r.sweep.self_check_failures == 0;
  }
  r.wall_s = secs_since(t0);
  r.steal = steal_share(k0, cpu_ticks());
  r.digest = perfbench::row_digest(csv.str());
  return r;
}

/// Modelled statistics of the LAEC runs of a workload (sim time, exact).
struct Model {
  u64 cycles = 0, instructions = 0, loads = 0, load_hits = 0, bus_wait = 0,
      anticipated = 0, blocked = 0;
  void add(const core::RunStats& s) {
    cycles += s.cycles;
    instructions += s.instructions;
    loads += s.loads;
    load_hits += s.load_hits;
    bus_wait += s.bus_wait_cycles;
    anticipated += s.laec_anticipated;
    blocked += s.laec_data_hazard + s.laec_resource_hazard;
  }
};

double frac(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Deterministic figures of one workload at one seed, computed untimed.
struct Facts {
  u64 cycles_stepped = 0;  ///< simulated cycles actually stepped per call
  u64 trial_cycles = 0;    ///< the trial pool's share of cycles_stepped
  double laec_overhead_pct = 0.0;
  double pruned_frac = 0.0;
  double ff_frac = 0.0;
  Model model;
};

core::SimConfig cell_config(const Workload& w, const std::string& scheme) {
  core::SimConfig cfg = w.spec.base;
  cfg.set_scheme(scheme);
  cfg.inject_target = w.spec.target;
  return cfg;
}

runner::SweepPoint golden_point(const std::string& workload,
                                const core::SimConfig& cfg) {
  runner::SweepPoint p;
  p.workload = workload;
  p.config = cfg;
  p.mode = runner::RunMode::kProgram;
  return p;
}

Facts facts_of(const Workload& w, const OpResult& op) {
  Facts f;
  const auto& keys = runner::fig8_scheme_keys();
  const std::string& baseline = keys.front();
  if (keys.back() != "laec") {
    throw std::logic_error("the Fig. 8 scheme axis no longer ends in laec");
  }
  if (!w.campaign) {
    // Grid order: workload-major, the baseline-first Fig. 8 scheme axis
    // inner, LAEC last.
    const std::size_t ns = runner::fig8_scheme_keys().size();
    const auto& rs = op.sweep.results;
    double overhead = 0.0;
    for (std::size_t i = 0; i + ns <= rs.size(); i += ns) {
      overhead += frac(static_cast<double>(rs[i + ns - 1].stats.cycles),
                       static_cast<double>(rs[i].stats.cycles)) -
                  1.0;
      f.model.add(rs[i + ns - 1].stats);
    }
    f.laec_overhead_pct = 100.0 * overhead / static_cast<double>(rs.size() / ns);
    for (const auto& r : rs) f.cycles_stepped += r.stats.cycles;
    f.trial_cycles = f.cycles_stepped;
    return f;
  }
  // Campaign: one golden run per cell (each cell is a distinct (workload,
  // scheme) here), then every simulated trial's suffix: a trial's cycles
  // minus the snapshot prefix it restored; pruned trials step nothing.
  u64 trials = 0, pruned = 0, ff = 0;
  double overhead = 0.0;
  unsigned kernels = 0;
  for (const auto& c : op.campaign.cells) {
    const auto golden = runner::run_golden_point(
        golden_point(c.cell.workload, cell_config(w, c.cell.scheme)), kStormSeed,
        nullptr);
    const u64 g = golden.stats.cycles;
    f.cycles_stepped += g;
    f.trial_cycles += c.total_cycles - c.pruned * g - c.cycles_skipped;
    trials += c.trials;
    pruned += c.pruned;
    ff += c.fast_forwarded;
    if (c.cell.scheme == "laec") {
      f.model.add(golden.stats);
      const auto base = runner::run_golden_point(
          golden_point(c.cell.workload, cell_config(w, baseline)), kStormSeed,
          nullptr);
      overhead += frac(static_cast<double>(g),
                       static_cast<double>(base.stats.cycles)) -
                  1.0;
      ++kernels;
    }
  }
  f.cycles_stepped += f.trial_cycles;
  f.laec_overhead_pct = kernels > 0 ? 100.0 * overhead / kernels : 0.0;
  f.pruned_frac = frac(static_cast<double>(pruned), static_cast<double>(trials));
  f.ff_frac = frac(static_cast<double>(ff), static_cast<double>(trials));
  return f;
}

/// The simulate-everything reference: the same call with prune and
/// fast-forward off (campaigns, on kReferenceTrials per cell, against the
/// default stack at the same count), or with the generic decode path and
/// matrix decode forced (sweep). True when the rows agree.
bool reference_matches(const Workload& w, const std::string& fast_digest) {
  Workload ref = w;
  if (w.campaign) {
    Workload fast = w;
    fast.spec.trials = kReferenceTrials;
    ref.spec.trials = kReferenceTrials;
    ref.spec.prune = false;
    ref.spec.fast_forward = false;
    return run_op(ref).digest == run_op(fast).digest;
  }
  for (auto& p : ref.points) {
    p.config.force_generic_ecc_path = true;
    p.config.lut_decode = false;
  }
  return run_op(ref).digest == fast_digest;
}

/// One measured figure and its unit.
struct Value {
  double v = 0.0;
  const char* unit = "";
};
using Sample = std::map<std::string, Value>;

double mib(std::size_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

/// Per-layer figures of one traced call from its span events.
/// [call_begin, call_end] is the call's own interval on the tracer clock;
/// it stands in for the campaign.round spans a sweep does not have.
Sample span_ledger(const std::vector<obs::TraceEvent>& evs, u64 call_begin,
                   u64 call_end) {
  const auto self = perfbench::self_times_us(evs);
  struct Window {
    u64 begin, end;
    u64 lo = ~u64{0}, hi = 0, busy = 0, trials = 0;
  };
  std::vector<Window> windows;
  for (const auto& e : evs) {
    if (e.phase == 'X' && e.name == "campaign.round") {
      windows.push_back({e.ts_us, e.ts_us + e.dur_us});
    }
  }
  if (windows.empty()) windows.push_back({call_begin, call_end});

  u64 golden = 0, plan = 0, capture = 0, captures = 0, restore = 0,
      restores = 0, snapshot_bytes = 0, trial = 0;
  std::vector<double> trial_ms;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const auto& e = evs[i];
    if (e.phase != 'X') continue;
    if (e.name == "golden-run") {
      golden += self[i];
      for (const auto& a : e.args) {
        if (a.key == "snapshot_bytes") snapshot_bytes += a.num;
      }
    } else if (e.name == "prune-plan") {
      plan += self[i];
    } else if (e.name == "snapshot-capture") {
      capture += e.dur_us;
      ++captures;
    } else if (e.name == "snapshot-restore") {
      restore += e.dur_us;
      ++restores;
    } else if (e.name == "trial") {
      trial += e.dur_us;
      trial_ms.push_back(static_cast<double>(e.dur_us) * 1e-3);
      for (auto& win : windows) {
        if (e.ts_us < win.begin || e.ts_us > win.end) continue;
        win.lo = std::min(win.lo, e.ts_us);
        win.hi = std::max(win.hi, e.ts_us + e.dur_us);
        win.busy += e.dur_us;
        ++win.trials;
        break;
      }
    }
  }
  // The pool of one call spans its first trial start to its last trial end;
  // everything else in the window is the serial (Amdahl) part.
  double wall = 0.0, pool = 0.0, capacity = 0.0, busy = 0.0;
  for (const auto& win : windows) {
    wall += static_cast<double>(win.end - win.begin);
    if (win.trials == 0) continue;
    const double hull = static_cast<double>(win.hi - win.lo);
    pool += hull;
    capacity += hull * static_cast<double>(std::min<u64>(kThreads, win.trials));
    busy += static_cast<double>(win.busy);
  }
  const auto secs = [](u64 us) { return Value{us * 1e-6, "s"}; };
  const auto count = [](u64 n) { return Value{static_cast<double>(n), "count"}; };
  Sample s;
  s["reliability.golden_self_s"] = secs(golden);
  s["reliability.plan_self_s"] = secs(plan);
  s["reliability.serial_frac"] = {frac(wall - pool, wall), "ratio"};
  s["sim.capture_s"] = secs(capture);
  s["sim.captures"] = count(captures);
  s["sim.snapshot_mb"] = {mib(snapshot_bytes), "MiB"};
  s["sim.restore_s"] = secs(restore);
  s["sim.restores"] = count(restores);
  s["runner.trial_s"] = secs(trial);
  s["runner.trials_simulated"] = count(trial_ms.size());
  s["runner.trial_p50_ms"] = {perfbench::percentile(trial_ms, 0.5), "ms"};
  s["runner.trial_p90_ms"] = {perfbench::percentile(trial_ms, 0.9), "ms"};
  s["runner.pool_idle_frac"] = {frac(capacity - busy, capacity), "ratio"};
  s["core.suffix_sim_s"] = secs(trial - std::min(restore, trial));
  return s;
}

/// Run `body` (which returns units of work done) until `budget_s` has
/// passed; returns units per second.
double rate_for(double budget_s, const std::function<double()>& body) {
  double units = 0.0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    units += body();
    elapsed = secs_since(t0);
  } while (elapsed < budget_s);
  return units / elapsed;
}

/// Direct calls into each layer's public functions, each for `budget_s`.
/// Inputs: a golden puwmod run (laec, the pruning point's 2 KB DL1 and
/// storm), its recorded windows and its final system state.
Sample layer_microbench(double budget_s) {
  const Workload w = make_workload("campaign-prune", 0);
  const core::SimConfig cfg = cell_config(w, "laec");
  const auto built = workloads::kernel_by_name("puwmod").build();
  mem::ResidencyRecorder rec;
  const core::ProgramRun run =
      core::run_program_keep_system(cfg, built.program, &rec);
  const std::vector<mem::AccessWindow> windows = rec.take_windows();
  Sample s;

  const auto& rate = w.cells.front().rate;
  const unsigned bits = reliability::target_codeword_bits(cfg);
  const double scale =
      reliability::window_lambda_scale(w.spec, rate.fit_per_mbit, bits);
  u64 seed = 0;
  s["reliability.draw_windows_per_s"] = {
      rate_for(budget_s,
               [&] {
                 (void)reliability::draw_trial_schedule(
                     windows, scale, rate.patterns, bits, ++seed);
                 return static_cast<double>(windows.size());
               }),
      "1/s"};

  std::string blob;
  s["sim.capture_mb_per_s"] = {rate_for(budget_s,
                                        [&] {
                                          blob = sim::save_system_state(
                                              *run.system);
                                          return mib(blob.size());
                                        }),
                               "MiB/s"};
  s["sim.restore_mb_per_s"] = {rate_for(budget_s,
                                        [&] {
                                          sim::restore_system_state(
                                              *run.system, blob);
                                          return mib(blob.size());
                                        }),
                               "MiB/s"};

  // The pipeline alone: calibrated synthetic traces with an oracle DL1.
  const core::SimConfig trace_cfg;  // LAEC, the default scheme
  std::size_t k = 0;
  s["cpu.trace_sim_cycles_per_s"] = {
      rate_for(budget_s,
               [&] {
                 const auto& kernels = workloads::eembc_kernels();
                 workloads::SyntheticTrace trace(
                     workloads::SyntheticParams::from_kernel(
                         kernels[k++ % kernels.size()], 20'000));
                 return static_cast<double>(
                     core::run_trace(trace_cfg, trace).cycles);
               }),
      "cycles/s"};

  // LAEC's DL1 codec, whole lines of random words.
  const auto codec = ecc::make_codec("secded-39-32");
  constexpr std::size_t kWords = 4096;
  std::vector<u32> data(kWords), out(kWords);
  std::vector<u16> check(kWords);
  Rng rng(0x1aec);
  for (auto& d : data) d = rng.next_u32();
  s["ecc.encode_line_words_per_s"] = {
      rate_for(budget_s,
               [&] {
                 codec->encode_line(data.data(), check.data(), kWords);
                 return static_cast<double>(kWords);
               }),
      "words/s"};
  s["ecc.decode_line_words_per_s"] = {
      rate_for(budget_s,
               [&] {
                 codec->decode_line(data.data(), check.data(), out.data(),
                                    kWords);
                 return static_cast<double>(kWords);
               }),
      "words/s"};
  if (out != data) throw std::runtime_error("codec round trip changed data");
  return s;
}

struct Stats {
  std::vector<double> v;
  std::string unit;
};

void json_num(std::ostringstream& o, double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  o << buf;
}

void json_stats(std::ostringstream& o, const std::map<std::string, Stats>& m) {
  o << '{';
  bool first = true;
  for (const auto& [name, st] : m) {
    if (!first) o << ',';
    first = false;
    o << '"' << name << "\":{\"median\":";
    json_num(o, perfbench::median(st.v));
    o << ",\"q1\":";
    json_num(o, perfbench::percentile(st.v, 0.25));
    o << ",\"q3\":";
    json_num(o, perfbench::percentile(st.v, 0.75));
    o << ",\"n\":" << st.v.size() << ",\"unit\":\"" << st.unit << "\"}";
  }
  o << '}';
}

/// What a timed repetition keeps: whole summaries, kept for every
/// repetition, would inflate peak RSS with the run length.
struct Rep {
  double net_s = 0.0;  ///< wall time net of steal
  double steal = 0.0;
  u64 trials = 0;
  std::string digest;
  Sample ledger;  ///< traced repetitions only
};

struct Run {
  Workload w;
  OpResult warm;
  u64 attempted = 0, failed = 0;
  std::vector<Rep> untraced, traced;
  std::map<std::string, Stats> metrics;
};

/// One repetition; a throw or a failed self-check counts as a failed
/// operation (rows that differ from the warm-up's are counted after the
/// loop). A throwing repetition comes back with an empty digest.
Rep attempt(Run& r, bool traced) {
  ++r.attempted;
  Rep rep;
  OpResult op;
  try {
    auto& tracer = obs::Tracer::global();
    if (traced) tracer.enable();
    const u64 begin = tracer.now_us();
    op = run_op(r.w);
    if (traced) {
      const u64 end = tracer.now_us();
      const auto evs = tracer.events();
      const u64 dropped = tracer.dropped();
      tracer.disable();
      if (dropped != 0) {
        throw std::runtime_error("trace ring dropped " +
                                 std::to_string(dropped) + " events");
      }
      rep.ledger = span_ledger(evs, begin, end);
    }
  } catch (const std::exception& e) {
    obs::Tracer::global().disable();
    std::fprintf(stderr, "perfbench: %s: %s\n", r.w.name.c_str(), e.what());
    ++r.failed;
    return rep;
  }
  if (!op.self_check_ok) {
    std::fprintf(stderr, "perfbench: %s: a sweep point failed its self-check\n",
                 r.w.name.c_str());
    ++r.failed;
  }
  rep.net_s = op.wall_s * (1.0 - op.steal);
  rep.steal = op.steal;
  rep.trials = op.trials;
  rep.digest = std::move(op.digest);
  return rep;
}

std::vector<std::string> split(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  for (std::string part; std::getline(ss, part, ',');) out.push_back(part);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> names;
  u64 seed = 0x1aec;
  double seconds = 10.0;
  bool trace = false, setup_only = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--workloads=", 0) == 0) {
        names = split(a.substr(12));
      } else if (a.rfind("--seed=", 0) == 0) {
        seed = std::stoull(a.substr(7), nullptr, 0);
      } else if (a.rfind("--seconds=", 0) == 0) {
        seconds = std::stod(a.substr(10));
      } else if (a == "--trace") {
        trace = true;
      } else if (a == "--setup-only") {
        setup_only = true;
      } else {
        throw std::invalid_argument(a);
      }
    }
    if (names.empty()) throw std::invalid_argument("no --workloads");
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "usage: laec_perfbench --workloads=NAME[,NAME...] --seed=N "
                 "--seconds=S [--trace] [--setup-only] (%s)\n",
                 e.what());
    return 2;
  }

  // Set-up: every workload's inputs.
  std::vector<Run> runs;
  try {
    for (const auto& n : names) {
      Run r;
      r.w = make_workload(n, seed);
      runs.push_back(std::move(r));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    return 1;
  }
  const auto ready = Clock::now();
  const long long ready_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          ready.time_since_epoch())
          .count();
  const CpuTicks ready_ticks = cpu_ticks();
  if (setup_only) {
    std::printf("{\"ready_ns\":%lld,\"busy_ticks\":%lld,\"steal_ticks\":%lld}\n",
                ready_ns, ready_ticks.busy, ready_ticks.steal);
    return 0;
  }

  // One untimed warm-up call per workload: it fills caches and the
  // allocator's pools, and its rows are the reference every timed call
  // must reproduce.
  try {
    for (Run& r : runs) r.warm = run_op(r.w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: warm-up failed: %s\n", e.what());
    return 1;
  }

  // Layer microbenchmarks take a fixed share of a traced run's time.
  Sample micro;
  const double loop_s = trace ? seconds * 0.85 : seconds;
  if (trace) {
    try {
      micro = layer_microbench(seconds * 0.15 / 6.0);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: layer microbenchmark: %s\n", e.what());
      return 1;
    }
  }

  // Timed repetitions, round-robin over the workloads.
  const auto t0 = Clock::now();
  const std::size_t min_reps = trace ? 4 : 3;
  for (std::size_t rep = 0;; ++rep) {
    for (Run& r : runs) {
      const bool traced = trace && rep % 2 == 1;
      Rep one = attempt(r, traced);
      if (one.digest.empty()) continue;
      (traced ? r.traced : r.untraced).push_back(std::move(one));
    }
    if (rep + 1 >= min_reps && secs_since(t0) >= loop_s) break;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  // Untimed checks and deterministic figures.
  for (Run& r : runs) {
    std::vector<std::string> digests;
    for (const auto* reps : {&r.untraced, &r.traced}) {
      for (const Rep& one : *reps) digests.push_back(one.digest);
    }
    if (const auto bad = perfbench::count_mismatches(digests, r.warm.digest)) {
      std::fprintf(stderr, "perfbench: %s: %zu repetition(s) changed rows\n",
                   r.w.name.c_str(), bad);
      r.failed += bad;
    }
    ++r.attempted;
    Facts f;
    try {
      if (!reference_matches(r.w, r.warm.digest)) {
        std::fprintf(stderr,
                     "perfbench: %s: rows differ from the reference path\n",
                     r.w.name.c_str());
        ++r.failed;
      }
      f = facts_of(r.w, r.warm);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s: check failed: %s\n",
                   r.w.name.c_str(), e.what());
      ++r.failed;
    }
    auto& m = r.metrics;
    const auto put = [&m](const std::string& k, double v, const char* unit) {
      m[k].v.push_back(v);
      m[k].unit = unit;
    };
    if (!trace) {
      for (const Rep& one : r.untraced) {
        put("trials_per_s", frac(static_cast<double>(one.trials), one.net_s),
            "1/s");
        put("sim_cycles_per_s",
            frac(static_cast<double>(f.cycles_stepped), one.net_s),
            "cycles/s");
        put("steal_frac", one.steal, "ratio");
      }
      put("peak_rss_mb", peak_rss_mb, "MiB");
      put("laec_overhead_pct", f.laec_overhead_pct, "%");
      put("failed_frac",
          frac(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
          "ratio");
      continue;
    }
    for (const Rep& one : r.traced) {
      for (const auto& [k, v] : one.ledger) put(k, v.v, v.unit);
      put("core.sim_cycles_per_s",
          frac(static_cast<double>(f.trial_cycles),
               one.ledger.at("core.suffix_sim_s").v),
          "cycles/s");
    }
    for (const auto& [k, v] : micro) put(k, v.v, v.unit);
    std::vector<double> plain, armed;
    for (const Rep& one : r.untraced) plain.push_back(one.net_s);
    for (const Rep& one : r.traced) armed.push_back(one.net_s);
    put("obs.trace_overhead_frac",
        frac(perfbench::median(armed), perfbench::median(plain)) - 1.0,
        "ratio");
    put("reliability.pruned_frac", f.pruned_frac, "ratio");
    put("reliability.ff_frac", f.ff_frac, "ratio");
    put("reliability.cycles_stepped", static_cast<double>(f.cycles_stepped),
        "cycles");
    const Model& md = f.model;
    put("cpu.cpi_laec", frac(md.cycles, md.instructions), "cycles/instr");
    put("mem.dl1_hit_frac", frac(md.load_hits, md.loads), "ratio");
    put("mem.bus_wait_cycles", static_cast<double>(md.bus_wait), "cycles");
    put("core.laec_anticipated_frac", frac(md.anticipated, md.loads), "ratio");
    put("core.laec_hazard_blocked_frac", frac(md.blocked, md.loads), "ratio");
  }

  std::ostringstream o;
  o << "{\"ready_ns\":" << ready_ns << ",\"busy_ticks\":" << ready_ticks.busy
    << ",\"steal_ticks\":" << ready_ticks.steal << ",\"compiler\":\"" << __VERSION__
    << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
    << "\",\"threads\":" << kThreads << ",\"seed\":" << seed
    << ",\"workloads\":{";
  bool any_failed = false;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    any_failed = any_failed || r.failed != 0;
    o << (i ? "," : "") << '"' << r.w.name << "\":{\"attempted\":"
      << r.attempted << ",\"failed\":" << r.failed << ",\"digest\":\""
      << r.warm.digest << "\",\"reps\":" << r.untraced.size() + r.traced.size()
      << ",\"" << (trace ? "layers" : "metrics") << "\":";
    json_stats(o, r.metrics);
    o << '}';
  }
  o << "}}";
  std::printf("%s\n", o.str().c_str());
  return any_failed ? 1 : 0;
}
