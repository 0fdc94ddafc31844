// laec_cli — command-line driver for the simulator.
//
//   laec_cli list
//       List the built-in EEMBC-like kernels.
//   laec_cli schemes
//       List the ECC deployment keys and every registered codec.
//   laec_cli run <kernel> [options]
//       Run a kernel and print statistics (and verify its self-checks).
//   laec_cli trace <kernel|custom> [options]
//       Run the benchmark's calibrated synthetic trace.
//   laec_cli compare <kernel> [options]
//       Run all four schemes and print the Fig. 8-style comparison row.
//   laec_cli sweep [kernel] [options]
//       Run the full (workload x scheme) experiment grid N-way parallel
//       through runner::run_sweep and stream one row per point. Without a
//       kernel argument this is the Fig. 8 grid (16 kernels x 4 schemes).
//       Rows are byte-identical at any --threads.
//   laec_cli campaign [kernel] [options]
//       Monte Carlo reliability campaign: run N fault-injection trials per
//       (workload x scheme x rate) cell and emit one row per cell with
//       FIT / MTTF / AVF estimates and Wilson confidence intervals.
//       Composes with --threads / --shard exactly like sweep (byte-identical
//       rows at any layout; the golden runs share the trial thread pool).
//       With --checkpoint=FILE the campaign persists per-cell trial cursors
//       every round; an interrupted run (SIGINT/SIGTERM, exit code 3)
//       resumes with --resume and emits rows byte-identical to an
//       uninterrupted run.
//   laec_cli serve --socket=PATH [--workers=N]
//       Campaign daemon over a Unix-domain socket: each connection submits
//       a job, which runs as one campaign on an N-thread pool (one job at
//       a time), and gets its rows back in grid order.
//   laec_cli submit [kernel] --socket=PATH [options]
//       Submit a campaign to a daemon and stream the rows here. Accepts
//       the campaign grid flags plus --shard (complementary clients shard
//       one campaign); rows are byte-identical to a local run.
//   laec_cli status --socket=PATH
//       Probe a running daemon: uptime, pool size, job/cell/trial/row
//       counts and the daemon's metrics digest, whose campaign.* gauges
//       describe the running job. Purely observational — never perturbs
//       a job or its row bytes.
//   laec_cli stop --socket=PATH
//       Ask a daemon to shut down cleanly.
//
// Options:
//   --ecc=<scheme>[,<scheme>...] (default laec). A scheme key is a policy
//       name (no-ecc, extra-cycle, extra-stage, laec, wt-parity), a
//       registered codec name (e.g. secded-39-32, sec-daec-39-32),
//       placement:codec (e.g. extra-stage:sec-daec-39-32), or a compound
//       hierarchy key with per-cache segments
//       (e.g. laec+l1i:secded-39-32+l2:sec-daec-39-32). The comma list
//       is sweep-only and becomes the sweep's scheme axis.
//   --hazard=<exact|paper>       LAEC hazard rule
//   --stride-predictor           enable the A4 extension
//   --dl1-kb=<n> --dl1-ways=<n> --wbuf=<n> --div=<n> --mem=<n>
//   --ops=<n>                    trace length (trace mode)
//   --inject-single=<p>          per-access single-bit-flip probability
//   --inject-double=<p>          per-access double-bit-flip probability
//   --inject-adjacent            make double flips strike adjacent bits
//   --inject-target=<dl1|l1i|l2> which cache array the storm strikes
//   --csv                        machine-readable one-line output
//
// Sweep/campaign options:
//   --threads=<n>                worker threads (0 = hardware concurrency)
//   --shard=<i>/<n>              run shard i of n (results union to the grid)
//   --format=<csv|jsonl>         row format (default csv); any other value
//                                is refused before --out is opened
//   --out=<file>                 write rows to a file instead of stdout; a
//                                regular file is written beside itself and
//                                renamed over only when the command
//                                succeeds, so a failed or refused command
//                                leaves it untouched; a failed write (disk
//                                full) exits 2
//   --trace                      calibrated-trace mode (sweep only)
//   --trace=FILE                 flight recorder: write a Chrome trace-event
//                                JSON of the run (golden runs, prune plans,
//                                trials, snapshot restores, checkpoint
//                                writes ...) viewable in chrome://tracing /
//                                Perfetto. Rows stay byte-identical with
//                                tracing on or off (sweep / campaign /
//                                serve)
//   --seed=<n>                   base seed for per-point deterministic RNG
//                                (decimal or 0x-prefixed hex)
//
// Campaign options:
//   --rates=<r>[,<r>...]         rate axis: tech presets (65nm, 40nm, 28nm)
//                                or numeric raw FIT/Mbit values
//   --trials=<n>                 Monte Carlo trials per cell (default 96)
//   --min-trials=<n> --batch=<n> stopping-rule schedule
//   --confidence=<c>             CI level (default 0.95)
//   --ci-width=<w>               stop a cell early once the Wilson CI
//                                half-width on p_fail drops to w
//   --accel=<a>                  fault-process time acceleration
//   --mbu=s:W,adj2:W,adj3:W,cluster:W
//                                MBU pattern-probability table; overrides
//                                every rate's shape mix (without it,
//                                presets carry their own and numeric rates
//                                use the 40nm mix)
//   --inject-target=dl1|l1i|l2   which cache array the campaign strikes
//   --prune | --no-prune         golden-run residency pruning on (default)
//                                or off; rows are byte-identical either
//                                way, --no-prune simulates every trial
//   --ff | --no-ff               snapshot fast-forward on (default) or off:
//                                skip every fault-free stretch of a trial
//                                (its prefix, and wherever it rejoins the
//                                golden run); rows are byte-identical
//                                either way, --no-ff simulates everything
//   --snapshot-every=N           golden snapshot cadence, in injector
//                                consultations (default 256, 0 disables)
//   --snapshot-mem=MB            snapshot memory budget per golden run
//                                (default 256, keep-every-k thinning)
//   --checkpoint=FILE            persist per-cell trial cursors each round
//   --resume                     continue a checkpointed campaign
//   --stop-after-rounds=N        deterministic interruption (CI smoke)
//   --progress[=SECS]            heartbeat on stderr (default every 5 s)
//
// Service options:
//   --socket=PATH                Unix-domain socket (serve/submit/status/stop)
//   --workers=N                  threads of the daemon's pool, which runs
//                                one job at a time (0 = hw concurrency)
#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/deployment.hpp"
#include "core/simulator.hpp"
#include "ecc/registry.hpp"
#include "ecc/xor_tree.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "reliability/campaign.hpp"
#include "report/sink.hpp"
#include "report/table.hpp"
#include "runner/sweep_runner.hpp"
#include "service/checkpoint.hpp"
#include "service/daemon.hpp"
#include "service/job.hpp"
#include "workloads/eembc.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace laec;

struct CliOptions {
  std::string command;
  std::string kernel;
  core::SimConfig cfg;
  u64 trace_ops = 120'000;
  bool csv = false;
  bool ok = true;

  /// --inject-target given: must be paired with an injection rate, else
  /// the storm silently never fires.
  bool inject_target_explicit = false;

  // Sweep mode.
  bool ecc_explicit = false;  ///< --ecc given: sweep only those schemes
  std::vector<std::string> ecc_schemes;  ///< parsed --ecc comma list
  bool sweep_trace = false;
  unsigned threads = 0;
  unsigned shard_index = 0;
  unsigned shard_count = 1;
  u64 base_seed = 0x1aec;
  std::string format = "csv";
  std::string out_path;
  /// --trace=FILE: flight-recorder output (Chrome trace-event JSON).
  /// Distinct from the bare --trace sweep-mode flag. Valid for sweep,
  /// campaign and serve (validated in main, not via a flag class).
  std::string trace_path;
  /// Sweep-only flags seen on the command line (rejected for other
  /// commands instead of being silently ignored).
  std::vector<std::string> sweep_only_flags;

  // Campaign mode.
  reliability::CampaignSpec campaign;
  std::vector<std::string> rate_tokens;
  reliability::MbuPatternTable mbu;  ///< --mbu table for numeric rates
  bool mbu_explicit = false;
  std::vector<std::string> campaign_only_flags;

  // Checkpoint / progress (local campaign runs only).
  std::string checkpoint_path;
  bool resume = false;
  unsigned stop_after_rounds = 0;
  bool progress = false;
  unsigned progress_secs = 5;
  std::vector<std::string> local_campaign_flags;

  // Service mode (serve / submit / stop).
  std::string socket_path;
  unsigned serve_workers = 0;
  bool workers_explicit = false;
  std::vector<std::string> service_flags;
};

/// Split a comma list into its non-empty items.
std::vector<std::string> split_csv(const std::string& v) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= v.size()) {
    const auto comma = v.find(',', start);
    const std::string item =
        v.substr(start, comma == std::string::npos ? v.size() - start
                                                   : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// The one parser behind every numeric flag: the whole string must be a
/// plain number inside [lo, hi] — no sign, whitespace or trailing text, and
/// nothing the target type cannot hold ("2abc", "-1" and "4294967297" for
/// an unsigned are all errors). The range test also rejects NaN. `hex`
/// additionally admits a 0x prefix on integers. nullopt on any failure.
template <class T>
std::optional<T> parse_number(std::string_view s, T lo, T hi,
                              bool hex = false) {
  int base = 10;
  if (hex && (s.starts_with("0x") || s.starts_with("0X"))) {
    s.remove_prefix(2);
    base = 16;
  }
  if (s.empty() || s.front() == '-' || s.front() == '+') return std::nullopt;
  T v{};
  std::from_chars_result res;
  if constexpr (std::is_floating_point_v<T>) {
    res = std::from_chars(s.data(), s.data() + s.size(), v);
  } else {
    res = std::from_chars(s.data(), s.data() + s.size(), v, base);
  }
  if (res.ec != std::errc{} || res.ptr != s.data() + s.size()) {
    return std::nullopt;
  }
  if (!(v >= lo && v <= hi)) return std::nullopt;
  return v;
}

/// parse_number for a flag: store the value, or report and poison the
/// options.
template <class T>
bool take_number(const std::string& flag, const std::string& v, CliOptions& o,
                 T& out, T lo = T{}, T hi = std::numeric_limits<T>::max(),
                 bool hex = false) {
  if (const auto parsed = parse_number(v, lo, hi, hex); parsed.has_value()) {
    out = *parsed;
    return true;
  }
  const auto text = [](T b) {
    if constexpr (std::is_floating_point_v<T>) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%g", b);
      return std::string(buf);
    } else {
      return std::to_string(b);
    }
  };
  std::fprintf(stderr, "%s wants %s from %s to %s, not %s\n", flag.c_str(),
               std::is_floating_point_v<T> ? "a number" : "a whole number",
               text(lo).c_str(), text(hi).c_str(), v.c_str());
  o.ok = false;
  return false;
}

/// Probabilities and other unit-interval knobs.
bool take_fraction(const std::string& flag, const std::string& v,
                   CliOptions& o, double& out) {
  return take_number(flag, v, o, out, 0.0, 1.0);
}

/// Split a comma-separated --ecc value into scheme keys and validate each
/// against HierarchyDeployment::parse. The first key also configures the
/// single-run config (run/trace/compare use exactly one scheme).
void parse_ecc(const std::string& v, CliOptions& o) {
  for (const std::string& key : split_csv(v)) {
    try {
      (void)core::HierarchyDeployment::parse(key);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--ecc: %s\n", e.what());
      o.ok = false;
      return;
    }
    o.ecc_schemes.push_back(key);
  }
  if (o.ecc_schemes.empty()) {
    std::fprintf(stderr, "--ecc wants at least one scheme key\n");
    o.ok = false;
    return;
  }
  o.cfg.set_scheme(o.ecc_schemes.front());
  o.ecc_explicit = true;
  if (o.ecc_schemes.size() > 1) {
    o.sweep_only_flags.push_back("--ecc=<comma list>");
  }
}

/// Parse an --mbu pattern table: comma list of key:weight pairs with keys
/// single|s, adj2, adj3, cluster|clustered. Returns false on a bad entry.
bool parse_mbu(const std::string& v, reliability::MbuPatternTable& t) {
  t = {0.0, 0.0, 0.0, 0.0};
  for (const std::string& item : split_csv(v)) {
    const auto colon = item.find(':');
    if (colon == std::string::npos) return false;
    const std::string key = item.substr(0, colon);
    const auto w = parse_number(std::string_view(item).substr(colon + 1),
                                0.0, std::numeric_limits<double>::max());
    if (!w.has_value()) return false;
    if (key == "single" || key == "s") {
      t.single = *w;
    } else if (key == "adj2") {
      t.adjacent_double = *w;
    } else if (key == "adj3") {
      t.adjacent_triple = *w;
    } else if (key == "cluster" || key == "clustered") {
      t.clustered = *w;
    } else {
      return false;
    }
  }
  return t.total() > 0.0;
}

CliOptions parse(int argc, char** argv) {
  CliOptions o;
  if (argc < 2) {
    o.ok = false;
    return o;
  }
  o.command = argv[1];
  int i = 2;
  if ((o.command == "run" || o.command == "trace" ||
       o.command == "compare" || o.command == "sweep" ||
       o.command == "campaign" || o.command == "submit") &&
      argc >= 3 && argv[2][0] != '-') {
    o.kernel = argv[2];
    i = 3;
  }
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* key) -> std::string {
      const std::size_t n = std::strlen(key);
      if (arg.rfind(key, 0) == 0 && arg.size() > n && arg[n] == '=') {
        return arg.substr(n + 1);
      }
      return "";
    };
    if (auto v = value("--ecc"); !v.empty()) {
      parse_ecc(v, o);
    } else if (auto h = value("--hazard"); !h.empty()) {
      const auto rule = cpu::hazard_rule_from_string(h);
      if (!rule.has_value()) {
        std::fprintf(stderr, "--hazard wants exact or paper, not %s\n",
                     h.c_str());
        o.ok = false;
      } else {
        o.cfg.hazard_rule = *rule;
      }
    } else if (arg == "--stride-predictor") {
      o.cfg.stride_predictor = true;
    } else if (arg == "--no-lut") {
      o.cfg.lut_decode = false;
    } else if (arg == "--lut") {
      o.cfg.lut_decode = true;
    } else if (arg == "--no-prune") {
      o.campaign.prune = false;
      o.campaign_only_flags.push_back(arg);
    } else if (arg == "--prune") {
      o.campaign.prune = true;
      o.campaign_only_flags.push_back(arg);
    } else if (arg == "--no-ff") {
      o.campaign.fast_forward = false;
      o.campaign_only_flags.push_back(arg);
    } else if (arg == "--ff") {
      o.campaign.fast_forward = true;
      o.campaign_only_flags.push_back(arg);
    } else if (auto se = value("--snapshot-every"); !se.empty()) {
      (void)take_number("--snapshot-every", se, o, o.campaign.snapshot_every);
      o.campaign_only_flags.push_back("--snapshot-every");
    } else if (auto sm = value("--snapshot-mem"); !sm.empty()) {
      (void)take_number("--snapshot-mem", sm, o, o.campaign.snapshot_mem_mb);
      o.campaign_only_flags.push_back("--snapshot-mem");
    } else if (auto v2 = value("--dl1-kb"); !v2.empty()) {
      u32 kb = 0;
      if (take_number("--dl1-kb", v2, o, kb, u32{0}, ~u32{0} / 1024)) {
        o.cfg.dl1_size_bytes = kb * 1024;
      }
    } else if (auto v3 = value("--dl1-ways"); !v3.empty()) {
      (void)take_number("--dl1-ways", v3, o, o.cfg.dl1_ways);
    } else if (auto v4 = value("--wbuf"); !v4.empty()) {
      (void)take_number("--wbuf", v4, o, o.cfg.write_buffer_depth);
    } else if (auto v5 = value("--div"); !v5.empty()) {
      (void)take_number("--div", v5, o, o.cfg.div_latency);
    } else if (auto v6 = value("--mem"); !v6.empty()) {
      (void)take_number("--mem", v6, o, o.cfg.memory_cycles);
    } else if (auto v7 = value("--ops"); !v7.empty()) {
      (void)take_number("--ops", v7, o, o.trace_ops);
    } else if (auto is = value("--inject-single"); !is.empty()) {
      if (!o.cfg.faults.has_value()) o.cfg.faults.emplace();
      (void)take_fraction("--inject-single", is, o,
                          o.cfg.faults->single_flip_prob);
    } else if (auto id = value("--inject-double"); !id.empty()) {
      if (!o.cfg.faults.has_value()) o.cfg.faults.emplace();
      (void)take_fraction("--inject-double", id, o,
                          o.cfg.faults->double_flip_prob);
    } else if (arg == "--inject-adjacent") {
      if (!o.cfg.faults.has_value()) o.cfg.faults.emplace();
      o.cfg.faults->adjacent_doubles = true;
    } else if (auto it = value("--inject-target"); !it.empty()) {
      const auto target = core::inject_target_from_string(it);
      if (!target.has_value()) {
        std::fprintf(stderr, "--inject-target wants dl1, l1i or l2, not %s\n",
                     it.c_str());
        o.ok = false;
      } else {
        o.cfg.inject_target = *target;
        o.inject_target_explicit = true;
      }
    } else if (arg == "--csv") {
      o.csv = true;
    } else if (auto t = value("--threads"); !t.empty()) {
      (void)take_number("--threads", t, o, o.threads);
      o.sweep_only_flags.push_back("--threads");
    } else if (auto s = value("--shard"); !s.empty()) {
      o.sweep_only_flags.push_back("--shard");
      const auto slash = s.find('/');
      if (slash == std::string::npos) {
        std::fprintf(stderr, "--shard wants <index>/<count>\n");
        o.ok = false;
      } else {
        (void)take_number("--shard", s.substr(0, slash), o, o.shard_index);
        (void)take_number("--shard", s.substr(slash + 1), o, o.shard_count);
      }
    } else if (auto f = value("--format"); !f.empty()) {
      // The formats report::make_row_writer builds.
      if (f != "csv" && f != "jsonl") {
        std::fprintf(stderr, "--format wants csv or jsonl, not %s\n",
                     f.c_str());
        o.ok = false;
      }
      o.format = f;
      o.sweep_only_flags.push_back("--format");
    } else if (auto p = value("--out"); !p.empty()) {
      o.out_path = p;
      o.sweep_only_flags.push_back("--out");
    } else if (auto sd = value("--seed"); !sd.empty()) {
      // Hex too: the default seed is conventionally written 0x1aec.
      (void)take_number("--seed", sd, o, o.base_seed, u64{0}, ~u64{0},
                        /*hex=*/true);
      o.sweep_only_flags.push_back("--seed");
    } else if (arg == "--trace") {
      o.sweep_trace = true;
      o.sweep_only_flags.push_back("--trace");
    } else if (auto tf = value("--trace"); !tf.empty()) {
      // --trace=FILE is the flight recorder; bare --trace (above) is the
      // synthetic-trace sweep mode. The '=' disambiguates.
      o.trace_path = tf;
    } else if (auto rv = value("--rates"); !rv.empty()) {
      o.campaign_only_flags.push_back("--rates");
      o.rate_tokens = split_csv(rv);
      if (o.rate_tokens.empty()) {
        std::fprintf(stderr, "--rates wants at least one preset or number\n");
        o.ok = false;
      }
    } else if (auto tv = value("--trials"); !tv.empty()) {
      (void)take_number("--trials", tv, o, o.campaign.trials);
      o.campaign_only_flags.push_back("--trials");
    } else if (auto mv = value("--min-trials"); !mv.empty()) {
      (void)take_number("--min-trials", mv, o, o.campaign.min_trials);
      o.campaign_only_flags.push_back("--min-trials");
    } else if (auto bv = value("--batch"); !bv.empty()) {
      (void)take_number("--batch", bv, o, o.campaign.batch);
      o.campaign_only_flags.push_back("--batch");
    } else if (auto cv = value("--confidence"); !cv.empty()) {
      (void)take_fraction("--confidence", cv, o, o.campaign.confidence);
      o.campaign_only_flags.push_back("--confidence");
    } else if (auto wv = value("--ci-width"); !wv.empty()) {
      (void)take_fraction("--ci-width", wv, o, o.campaign.target_half_width);
      o.campaign_only_flags.push_back("--ci-width");
    } else if (auto av = value("--accel"); !av.empty()) {
      (void)take_number("--accel", av, o, o.campaign.accel, 0.0,
                        std::numeric_limits<double>::max());
      o.campaign_only_flags.push_back("--accel");
    } else if (auto ck = value("--checkpoint"); !ck.empty()) {
      o.checkpoint_path = ck;
      o.local_campaign_flags.push_back("--checkpoint");
    } else if (arg == "--resume") {
      o.resume = true;
      o.local_campaign_flags.push_back("--resume");
    } else if (auto sr = value("--stop-after-rounds"); !sr.empty()) {
      (void)take_number("--stop-after-rounds", sr, o, o.stop_after_rounds);
      o.local_campaign_flags.push_back("--stop-after-rounds");
      if (o.stop_after_rounds == 0) {
        std::fprintf(stderr, "--stop-after-rounds wants at least 1 round\n");
        o.ok = false;
      }
    } else if (arg == "--progress") {
      o.progress = true;
      o.local_campaign_flags.push_back("--progress");
    } else if (auto pg = value("--progress"); !pg.empty()) {
      o.progress = true;
      (void)take_number("--progress", pg, o, o.progress_secs);
      o.local_campaign_flags.push_back("--progress");
    } else if (auto sk = value("--socket"); !sk.empty()) {
      o.socket_path = sk;
      o.service_flags.push_back("--socket");
    } else if (auto wk = value("--workers"); !wk.empty()) {
      (void)take_number("--workers", wk, o, o.serve_workers);
      o.workers_explicit = true;
      o.service_flags.push_back("--workers");
    } else if (auto uv = value("--mbu"); !uv.empty()) {
      o.campaign_only_flags.push_back("--mbu");
      if (!parse_mbu(uv, o.mbu)) {
        std::fprintf(stderr,
                     "--mbu wants key:weight pairs (single/adj2/adj3/"
                     "cluster) with a positive total, not %s\n",
                     uv.c_str());
        o.ok = false;
      } else {
        o.mbu_explicit = true;
      }
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      o.ok = false;
    }
  }
  if (o.command == "campaign") {
    // The campaign derives its own storm from the rate axis; the Bernoulli
    // --inject-* flags would fight it.
    if (o.cfg.faults.has_value()) {
      std::fprintf(stderr,
                   "campaign samples its own faults from --rates; drop "
                   "--inject-single/--inject-double/--inject-adjacent\n");
      o.ok = false;
    }
    o.campaign.target = o.cfg.inject_target;
  } else if (o.inject_target_explicit && !o.cfg.faults.has_value()) {
    std::fprintf(stderr,
                 "--inject-target needs an injection rate "
                 "(--inject-single=P or --inject-double=P)\n");
    o.ok = false;
  }
  return o;
}

// --- service / checkpoint helpers -------------------------------------------

/// SIGINT/SIGTERM request a graceful stop: the campaign stops when the
/// round running at the signal folds (checkpoint saved by on_round), drops
/// the later rounds' trials in flight and exits 3; the daemon's accept
/// loop drains and shuts down.
std::atomic<bool> g_stop_requested{false};

void handle_stop_signal(int) {
  g_stop_requested.store(true, std::memory_order_release);
}

void install_stop_handlers() {
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
}

/// The one path rows take out of the CLI: stdout or --out=FILE, written by
/// the --format writer. A command opens it only after every check that can
/// refuse the command. When FILE is a regular file or does not exist yet,
/// rows go to FILE.tmp beside it, which finish() renames over FILE once
/// every row is out; every other exit (an error, an interrupted campaign,
/// an exception) removes it, so a command that fails leaves an earlier
/// result file as it was. Anything else (a device such as /dev/full, a
/// FIFO, a symlink) is written directly and never renamed over. The
/// drivers (run_sweep, run_campaign, submit_job) end the writer.
struct RowOutput {
  std::ofstream file;
  std::ostream* stream = &std::cout;
  std::string label = "<stdout>";  ///< --out, or <stdout>
  std::string temp;  ///< FILE.tmp while it holds rows, else empty
  std::unique_ptr<report::RowWriter> writer;

  RowOutput() = default;
  RowOutput(const RowOutput&) = delete;
  RowOutput& operator=(const RowOutput&) = delete;
  ~RowOutput() {
    if (temp.empty()) return;
    file.close();
    std::remove(temp.c_str());
  }

  /// False, after a diagnostic, when --out cannot be opened.
  bool open(const CliOptions& o) {
    if (!o.out_path.empty()) {
      std::error_code ec;
      const auto type = std::filesystem::symlink_status(o.out_path, ec).type();
      const bool replace = type == std::filesystem::file_type::regular ||
                           type == std::filesystem::file_type::not_found;
      const std::string path = replace ? o.out_path + ".tmp" : o.out_path;
      file.open(path);
      if (!file) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return false;
      }
      if (replace) temp = path;
      stream = &file;
      label = o.out_path;
    }
    writer = report::make_row_writer(o.format, *stream);  // parse() checked
    return true;
  }

  /// 0, or 2 when a write failed: ENOSPC/EIO leave a sticky badbit, and a
  /// truncated result file must not pass as complete.
  int finish() {
    stream->flush();
    if (!temp.empty()) file.close();
    if (!stream->good()) {
      std::fprintf(stderr,
                   "error: writing rows to %s failed (disk full or I/O "
                   "error); the output is incomplete\n",
                   label.c_str());
      return 2;
    }
    if (temp.empty()) return 0;
    std::filesystem::rename(temp, label);  // a failure throws: exit 2
    temp.clear();
    return 0;
  }
};

/// Render one --progress heartbeat from the metrics registry. run_campaign
/// publishes its cursor totals as gauges every round (so a resumed run's
/// restored counts are included), making the heartbeat a pure VIEW over
/// the registry — the same numbers any other observer reads. The ETA uses
/// the completed-trials/s rate of the LAST heartbeat window (done -
/// prev_done over window_secs), not the cumulative average: under pruning,
/// a burst of analytically-classified trials would make the since-start
/// average wildly unrepresentative of the simulated trials still to come.
/// Returns the budget-done count for the caller to carry as the next
/// window's prev_done.
u64 print_heartbeat(double elapsed, double window_secs, u64 prev_done) {
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  const auto ull = [](u64 v) { return static_cast<unsigned long long>(v); };
  const u64 done_trials = snap.value("campaign.trials_budget_done");
  const u64 target_trials = snap.value("campaign.trials_target");
  double eta = -1.0;
  if (done_trials > prev_done && window_secs > 0.0 &&
      target_trials >= done_trials) {
    const double rate =
        static_cast<double>(done_trials - prev_done) / window_secs;
    eta = static_cast<double>(target_trials - done_trials) / rate;
  }
  char eta_buf[48] = "";
  if (eta >= 0.0) {
    std::snprintf(eta_buf, sizeof eta_buf, ", ETA %.0fs", eta);
  }
  std::fprintf(stderr,
               "campaign: %llu/%llu cells, %llu trials (%llu pruned, %llu "
               "fast-forwarded, ~%llu cycles skipped, %llu rejoined), %llu "
               "faults injected, %.0fs elapsed%s\n",
               ull(snap.value("campaign.cells_finished")),
               ull(snap.value("campaign.cells_total")),
               ull(snap.value("campaign.trials_done")),
               ull(snap.value("campaign.trials_pruned")),
               ull(snap.value("campaign.trials_fast_forwarded")),
               ull(snap.value("campaign.cycles_skipped")),
               ull(snap.value("campaign.trials_rejoined")),
               ull(snap.value("campaign.fault_events")), elapsed, eta_buf);
  // Second line: golden-run amortization, snapshot-store memory, and the
  // live trial-latency digest (sweep.point_us records every simulated
  // trial unconditionally — tracer on or off).
  char lat_buf[64] = "";
  if (const obs::MetricValue* lat = snap.find("sweep.point_us");
      lat != nullptr && lat->hist.count > 0) {
    std::snprintf(lat_buf, sizeof lat_buf,
                  ", trial p50 %lluus p99 %lluus",
                  ull(lat->hist.percentile(0.50)),
                  ull(lat->hist.percentile(0.99)));
  }
  std::fprintf(
      stderr,
      "campaign: %llu golden runs (%llu cache hits), snapshots %.1f MB%s\n",
      ull(snap.value("campaign.golden_runs")),
      ull(snap.value("campaign.golden_cache_hits")),
      static_cast<double>(snap.value("snapshot.bytes_in_use")) /
          (1024.0 * 1024.0),
      lat_buf);
  return done_trials;
}

void print_stats(const CliOptions& o, const core::RunStats& s,
                 int check_failures) {
  const core::HierarchyDeployment& dep = o.cfg.deployment;
  if (o.csv) {
    std::printf(
        "%s,%s,%llu,%llu,%.4f,%llu,%llu,%llu,%llu,%llu,%d\n",
        o.kernel.c_str(), dep.name.c_str(),
        static_cast<unsigned long long>(s.cycles),
        static_cast<unsigned long long>(s.instructions), s.cpi,
        static_cast<unsigned long long>(s.loads),
        static_cast<unsigned long long>(s.load_hits),
        static_cast<unsigned long long>(s.laec_anticipated),
        static_cast<unsigned long long>(s.ecc_corrected),
        static_cast<unsigned long long>(s.ecc_detected_uncorrectable),
        check_failures);
    return;
  }
  std::printf("scheme            : %s   (codec %s)\n", dep.name.c_str(),
              dep.dl1.codec.c_str());
  std::printf("cycles            : %llu\n",
              static_cast<unsigned long long>(s.cycles));
  std::printf("instructions      : %llu   (CPI %.3f)\n",
              static_cast<unsigned long long>(s.instructions), s.cpi);
  std::printf("loads             : %llu   (%.1f%% hit, %.1f%% dependent)\n",
              static_cast<unsigned long long>(s.loads),
              100.0 * s.hit_fraction(), 100.0 * s.dep_fraction());
  if (dep.timing == cpu::EccPolicy::kLaec) {
    std::printf("LAEC anticipated  : %llu   (data hz %llu, resource hz %llu)\n",
                static_cast<unsigned long long>(s.laec_anticipated),
                static_cast<unsigned long long>(s.laec_data_hazard),
                static_cast<unsigned long long>(s.laec_resource_hazard));
    if (o.cfg.stride_predictor) {
      std::printf("stride predictor  : used %llu, mispredicted %llu\n",
                  static_cast<unsigned long long>(
                      s.pipeline_stats.value("pred_used")),
                  static_cast<unsigned long long>(
                      s.pipeline_stats.value("pred_mispredict")));
    }
  }
  std::printf(
      "ECC events (DL1)  : %llu corrected (%llu adjacent-double), "
      "%llu detected-uncorrectable\n",
      static_cast<unsigned long long>(s.ecc_corrected),
      static_cast<unsigned long long>(s.ecc_corrected_adjacent),
      static_cast<unsigned long long>(s.ecc_detected_uncorrectable));
  std::printf(
      "ECC events (L1I)  : %llu corrected, %llu DUE, %llu refetches "
      "(codec %s)\n",
      static_cast<unsigned long long>(s.l1i_corrected),
      static_cast<unsigned long long>(s.l1i_detected_uncorrectable),
      static_cast<unsigned long long>(s.l1i_refetches),
      dep.l1i.codec.c_str());
  std::printf(
      "ECC events (L2)   : %llu corrected (%llu adjacent-double), %llu DUE, "
      "%llu refetches, %llu data-loss (codec %s)\n",
      static_cast<unsigned long long>(s.l2_corrected),
      static_cast<unsigned long long>(s.l2_corrected_adjacent),
      static_cast<unsigned long long>(s.l2_detected_uncorrectable),
      static_cast<unsigned long long>(s.l2_refetches),
      static_cast<unsigned long long>(s.l2_data_loss_events),
      dep.l2.codec.c_str());
  if (check_failures >= 0) {
    std::printf("self-check        : %s\n",
                check_failures == 0
                    ? "PASS"
                    : ("FAIL (" + std::to_string(check_failures) + " words)")
                          .c_str());
  }
}

int cmd_list() {
  report::Table t({"kernel", "description", "paper %hit/%dep/%load"});
  for (const auto& k : workloads::eembc_kernels()) {
    t.add_row({k.name, k.description,
               std::to_string(k.paper.hit_pct) + "/" +
                   std::to_string(k.paper.dep_pct) + "/" +
                   std::to_string(k.paper.load_pct)});
  }
  std::printf("%s", t.to_text().c_str());
  return 0;
}

int cmd_schemes() {
  std::printf("Deployment keys (policy names):\n");
  report::Table d({"key", "codec", "write policy", "check placement"});
  for (const auto& key : core::HierarchyDeployment::policy_keys()) {
    const auto dep = core::HierarchyDeployment::parse(key);
    d.add_row({dep.name, dep.dl1.codec,
               dep.write_policy == mem::WritePolicy::kWriteBack
                   ? "write-back"
                   : "write-through",
               std::string(to_string(dep.timing))});
  }
  std::printf("%s\n", d.to_text().c_str());

  std::printf(
      "Hierarchy deployments: join per-cache segments with '+'. The first\n"
      "segment is the DL1 scheme (any key above, a codec name, or\n"
      "placement:codec); l1i:<codec> and l2:<codec> override the other\n"
      "levels (defaults: l1i parity-32, l2 secded-39-32). Segments accept\n"
      ":scrub/:no-scrub and :correct/:refetch recovery flags.\n"
      "  e.g. --ecc=laec+l1i:parity-i2-32+l2:sec-daec-39-32\n\n");

  std::printf(
      "Registered codecs (32-bit-word codecs are deployable in any cache\n"
      "level as --ecc segments; 64-bit geometries are library-only for\n"
      "now):\n");
  report::Table t({"name", "k", "r", "corrects", "adj-corr", "adj3-corr",
                   "2-corr", "adj-DED", "DED", "deployable"});
  for (const auto& name : ecc::registered_codecs()) {
    const auto c = ecc::make_codec(name);
    t.add_row({name, std::to_string(c->data_bits()),
               std::to_string(c->check_bits()),
               c->corrects_single() ? "yes" : "no",
               c->corrects_adjacent_double() ? "yes" : "no",
               c->corrects_adjacent_triple() ? "yes" : "no",
               c->corrects_double() ? "yes" : "no",
               c->detects_adjacent_double() ? "yes" : "no",
               c->detects_double() ? "yes" : "no",
               c->data_bits() == 32 ? "yes" : "no"});
  }
  std::printf("%s\n", t.to_text().c_str());

  const auto chk39 = ecc::estimate_checker(ecc::linear_code("secded-39-32"));
  const auto daec39 =
      ecc::estimate_checker(ecc::linear_code("sec-daec-39-32"));
  std::printf(
      "Checker logic (gate model): secded-39-32 depth %u (%.0f ps), "
      "sec-daec-39-32 depth %u (%.0f ps)\n",
      chk39.depth_levels, ecc::estimate_delay_ps(chk39), daec39.depth_levels,
      ecc::estimate_delay_ps(daec39));
  return 0;
}

int cmd_run(const CliOptions& o) {
  const auto& entry = workloads::kernel_by_name(o.kernel);
  const auto built = entry.build();
  const auto run = core::run_program_keep_system(o.cfg, built.program);
  int bad = 0;
  for (const auto& [addr, expect] : built.expected) {
    bad += run.system->read_word_final(addr) != expect;
  }
  print_stats(o, run.stats, bad);
  return bad == 0 && run.stats.completed ? 0 : 1;
}

int cmd_trace(const CliOptions& o) {
  const auto& entry = workloads::kernel_by_name(o.kernel);
  workloads::SyntheticTrace trace(
      workloads::SyntheticParams::from_kernel(entry, o.trace_ops));
  const auto stats = core::run_trace(o.cfg, trace);
  print_stats(o, stats, -1);
  return stats.completed ? 0 : 1;
}

int cmd_compare(const CliOptions& o) {
  const auto& entry = workloads::kernel_by_name(o.kernel);
  const auto built = entry.build();
  report::Table t({"scheme", "cycles", "CPI", "vs no-ECC"});
  u64 base = 0;
  for (const auto& key : runner::fig8_scheme_keys()) {
    core::SimConfig cfg = o.cfg;
    cfg.set_scheme(key);
    const auto s = core::run_program(cfg, built.program);
    if (key == "no-ecc") base = s.cycles;
    t.add_row({key, std::to_string(s.cycles),
               report::Table::num(s.cpi, 3),
               report::Table::pct(
                   base == 0 ? 0.0
                             : static_cast<double>(s.cycles) /
                                       static_cast<double>(base) -
                                   1.0)});
  }
  std::printf("%s", t.to_text().c_str());
  return 0;
}

int cmd_sweep(const CliOptions& o) {
  runner::SweepGrid grid;
  if (o.kernel.empty() || o.kernel == "all") {
    grid.all_workloads();
  } else {
    grid.workloads({o.kernel});
  }
  if (o.ecc_explicit) {
    grid.schemes(o.ecc_schemes);
  } else {
    grid.schemes(runner::fig8_scheme_keys());
  }
  // The hazard axis would otherwise overwrite a --hazard choice with its
  // default; sweep exactly the requested rule.
  grid.hazards({o.cfg.hazard_rule});
  grid.base_config(o.cfg)
      .mode(o.sweep_trace ? runner::RunMode::kTrace
                          : runner::RunMode::kProgram)
      .trace_ops(o.trace_ops);

  RowOutput out;
  if (!out.open(o)) return 2;

  runner::SweepOptions opts;
  opts.threads = o.threads;
  opts.shard_index = o.shard_index;
  opts.shard_count = o.shard_count;
  opts.base_seed = o.base_seed;
  opts.sink = out.writer.get();
  if (!o.trace_path.empty()) obs::Tracer::global().enable();
  const auto summary = runner::run_sweep(grid.points(), opts);
  if (!o.trace_path.empty() && !obs::write_trace_file(o.trace_path)) {
    std::fprintf(stderr, "cannot write trace file %s\n",
                 o.trace_path.c_str());
  }

  std::fprintf(stderr,
               "sweep: %zu points, %llu cycles simulated, "
               "%zu self-check failures\n",
               summary.points_run,
               static_cast<unsigned long long>(summary.totals.value("cycles")),
               summary.self_check_failures);
  if (const int rc = out.finish(); rc != 0) return rc;
  return summary.self_check_failures == 0 ? 0 : 1;
}

/// Expand the campaign grid and spec from the CLI flags — shared between
/// the local campaign driver and the daemon submit client so both run THE
/// SAME campaign for the same flags (the byte-identity contract depends
/// on it). Returns false after printing a diagnostic.
bool build_campaign_inputs(const CliOptions& o,
                           reliability::CampaignSpec& spec,
                           std::vector<reliability::CampaignCell>& cells) {
  reliability::CampaignGrid grid;
  if (o.kernel.empty() || o.kernel == "all") {
    grid.all_workloads();
  } else {
    grid.workloads({o.kernel});
  }
  if (o.ecc_explicit) {
    grid.schemes(o.ecc_schemes);
  } else {
    grid.schemes({"laec", "sec-daec-39-32", "sec-daec-taec-45-32"});
  }

  // Rate axis: presets carry their own MBU mix, numeric rates default to
  // the 40nm mix — and an explicit --mbu table overrides BOTH (the
  // operator's storm shape always wins).
  const reliability::MbuPatternTable numeric_patterns =
      o.mbu_explicit ? o.mbu : reliability::tech_preset("40nm")->patterns;
  std::vector<std::string> tokens = o.rate_tokens;
  if (tokens.empty()) tokens.push_back("40nm");
  std::vector<reliability::RatePoint> rates;
  for (const auto& tok : tokens) {
    auto r = reliability::parse_rate(tok, numeric_patterns);
    if (!r.has_value()) {
      std::fprintf(stderr,
                   "--rates: \"%s\" is neither a tech preset (65nm, 40nm, "
                   "28nm) nor a positive finite FIT/Mbit number\n",
                   tok.c_str());
      return false;
    }
    if (o.mbu_explicit) r->patterns = o.mbu;
    rates.push_back(std::move(*r));
  }
  grid.rates(std::move(rates));

  spec = o.campaign;
  spec.base = o.cfg;
  cells = grid.cells();
  return true;
}

/// The CampaignJob the CLI flags describe: feeds the daemon client AND the
/// checkpoint identity hash, so a checkpoint refuses to resume under any
/// changed grid / spec / seed / shard.
service::CampaignJob campaign_job_from(
    const CliOptions& o, const reliability::CampaignSpec& spec,
    std::vector<reliability::CampaignCell> cells) {
  service::CampaignJob job;
  job.spec = spec;
  job.cells = std::move(cells);
  job.base_seed = o.base_seed;
  job.shard_index = o.shard_index;
  job.shard_count = o.shard_count;
  return job;
}

int cmd_campaign(const CliOptions& o) {
  reliability::CampaignSpec spec;
  std::vector<reliability::CampaignCell> cells;
  if (!build_campaign_inputs(o, spec, cells)) return 2;

  const bool checkpointing = !o.checkpoint_path.empty();
  if (o.resume && !checkpointing) {
    std::fprintf(stderr, "--resume needs --checkpoint=FILE\n");
    return 2;
  }

  // Drive run_campaign directly so the checkpoint cursors, heartbeat and
  // graceful-stop hooks see every round.
  const u64 identity =
      service::campaign_identity(campaign_job_from(o, spec, cells));
  std::vector<reliability::CellProgress> restored;
  reliability::CampaignOptions copts;
  copts.threads = o.threads;
  copts.shard_index = o.shard_index;
  copts.shard_count = o.shard_count;
  copts.base_seed = o.base_seed;

  if (checkpointing) {
    if (o.resume) {
      try {
        restored = service::load_checkpoint(o.checkpoint_path, identity);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "cannot resume from %s: %s\n",
                     o.checkpoint_path.c_str(), e.what());
        return 2;
      }
      copts.resume_from = &restored;
    } else if (std::filesystem::exists(o.checkpoint_path)) {
      std::fprintf(stderr,
                   "checkpoint %s already exists; pass --resume to "
                   "continue it or remove the file\n",
                   o.checkpoint_path.c_str());
      return 2;
    }
  }

  RowOutput out;
  if (!out.open(o)) return 2;
  copts.sink = out.writer.get();

  install_stop_handlers();
  if (!o.trace_path.empty()) obs::Tracer::global().enable();
  unsigned rounds = 0;
  const auto start = std::chrono::steady_clock::now();
  auto last_beat = start;
  u64 last_done = 0;
  copts.on_round = [&](const std::vector<reliability::CellProgress>& p) {
    ++rounds;
    if (checkpointing) {
      service::save_checkpoint(o.checkpoint_path, identity, p);
    }
    if (o.progress) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_beat >= std::chrono::seconds(o.progress_secs) ||
          rounds == 1) {
        const double elapsed =
            std::chrono::duration<double>(now - start).count();
        // On the first beat last_beat == start, so the "window" spans
        // the whole run so far — still a measured rate, never stale.
        const double window =
            std::chrono::duration<double>(now - last_beat).count();
        last_done = print_heartbeat(elapsed, window, last_done);
        last_beat = now;
      }
    }
  };
  copts.should_stop = [&] {
    return g_stop_requested.load(std::memory_order_acquire) ||
           (o.stop_after_rounds != 0 && rounds >= o.stop_after_rounds);
  };

  const auto summary = reliability::run_campaign(cells, spec, copts);
  // Dump the flight recorder even for interrupted runs — a trace of the
  // rounds that DID happen is exactly what a post-mortem wants.
  if (!o.trace_path.empty() && !obs::write_trace_file(o.trace_path)) {
    std::fprintf(stderr, "cannot write trace file %s\n",
                 o.trace_path.c_str());
  }
  if (summary.interrupted) {
    if (checkpointing) {
      std::fprintf(stderr,
                   "campaign: interrupted after %u round(s); cursors "
                   "saved to %s — rerun with --resume to finish\n",
                   rounds, o.checkpoint_path.c_str());
    } else {
      std::fprintf(stderr,
                   "campaign: interrupted after %u round(s); no "
                   "--checkpoint given, progress was discarded\n",
                   rounds);
    }
    return 3;
  }
  if (const int rc = out.finish(); rc != 0) return rc;
  std::fprintf(stderr,
               "campaign: %zu cells, %llu trials, %llu failing trials "
               "(SDC + data-loss)\n",
               summary.cells_run,
               static_cast<unsigned long long>(summary.trials_run),
               static_cast<unsigned long long>(summary.failures));
  return 0;
}

int cmd_serve(const CliOptions& o) {
  if (o.socket_path.empty()) {
    std::fprintf(stderr, "serve needs --socket=PATH\n");
    return 2;
  }
  install_stop_handlers();
  if (!o.trace_path.empty()) obs::Tracer::global().enable();
  service::ServeOptions so;
  so.socket_path = o.socket_path;
  so.workers = o.serve_workers;
  so.stop = &g_stop_requested;
  const int rc = service::run_daemon(so);
  if (!o.trace_path.empty() &&
      !obs::write_trace_file(o.trace_path)) {
    std::fprintf(stderr, "cannot write trace file %s\n",
                 o.trace_path.c_str());
  }
  return rc;
}

int cmd_status(const CliOptions& o) {
  if (o.socket_path.empty()) {
    std::fprintf(stderr, "status needs --socket=PATH\n");
    return 2;
  }
  const service::DaemonStatus s = service::request_status(o.socket_path);
  const auto ull = [](u64 v) { return static_cast<unsigned long long>(v); };
  const double up_secs = static_cast<double>(s.uptime_ms) / 1000.0;
  std::printf("daemon at %s: up %.1fs, %u worker thread(s)\n",
              o.socket_path.c_str(), up_secs, s.workers);
  std::printf("  jobs: %llu accepted, %llu rejected\n",
              ull(s.jobs_accepted), ull(s.jobs_rejected));
  std::printf("  done: %llu cells, %llu trials, %llu rows streamed\n",
              ull(s.cells_done), ull(s.trials_done), ull(s.rows_streamed));
  if (!s.metrics.empty()) {
    report::Table t({"metric", "kind", "value", "sum", "p50", "p99"});
    for (const auto& m : s.metrics) {
      const char* kind = m.kind == 2   ? "histogram"
                         : m.kind == 1 ? "gauge"
                                       : "counter";
      const bool hist = m.kind == 2;
      t.add_row({m.name, kind, std::to_string(m.value),
                 hist ? std::to_string(m.sum) : "-",
                 hist ? std::to_string(m.p50) : "-",
                 hist ? std::to_string(m.p99) : "-"});
    }
    std::printf("%s", t.to_text().c_str());
  }
  return 0;
}

int cmd_submit(const CliOptions& o) {
  if (o.socket_path.empty()) {
    std::fprintf(stderr, "submit needs --socket=PATH\n");
    return 2;
  }
  reliability::CampaignSpec spec;
  std::vector<reliability::CampaignCell> cells;
  if (!build_campaign_inputs(o, spec, cells)) return 2;

  RowOutput out;
  if (!out.open(o)) return 2;
  const auto summary = service::submit_job(
      o.socket_path, campaign_job_from(o, spec, std::move(cells)),
      *out.writer);
  if (const int rc = out.finish(); rc != 0) return rc;
  std::fprintf(stderr,
               "submit: %llu cells, %llu trials, %llu failing trials "
               "(SDC + data-loss)\n",
               static_cast<unsigned long long>(summary.cells_run),
               static_cast<unsigned long long>(summary.trials_run),
               static_cast<unsigned long long>(summary.failures));
  return 0;
}

int cmd_stop(const CliOptions& o) {
  if (o.socket_path.empty()) {
    std::fprintf(stderr, "stop needs --socket=PATH\n");
    return 2;
  }
  service::request_shutdown(o.socket_path);
  std::fprintf(stderr, "daemon at %s stopped\n", o.socket_path.c_str());
  return 0;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: laec_cli <list|schemes|run|trace|compare|sweep|campaign|"
      "serve|submit|status|stop> [kernel] [options]\n"
      "  --ecc=SCHEME[,SCHEME...]   policy name, codec name,\n"
      "                             placement:codec, or compound hierarchy\n"
      "                             key like laec+l2:sec-daec-39-32 (see\n"
      "                             `laec_cli schemes`; comma list is\n"
      "                             sweep/campaign-only)\n"
      "  --hazard=exact|paper  --stride-predictor  --csv\n"
      "  --no-lut / --lut           matrix-math vs syndrome-LUT decode\n"
      "                             (bit-identical; --no-lut is the\n"
      "                             validation reference path)\n"
      "  --dl1-kb=N --dl1-ways=N --wbuf=N --div=N --mem=N --ops=N\n"
      "  --inject-single=P  --inject-double=P  --inject-adjacent\n"
      "  --inject-target=dl1|l1i|l2\n"
      "sweep/campaign mode:\n"
      "  --threads=N  --shard=I/N  --format=csv|jsonl\n"
      "  --out=FILE  --trace  --seed=N\n"
      "  --trace=FILE               flight recorder: Chrome trace-event\n"
      "                             JSON of the run (open in Perfetto /\n"
      "                             chrome://tracing); rows stay byte-\n"
      "                             identical traced or not (also: serve)\n"
      "campaign mode:\n"
      "  --rates=R[,R...]  (65nm|40nm|28nm or FIT/Mbit)  --trials=N\n"
      "  --min-trials=N  --batch=N  --confidence=C  --ci-width=W\n"
      "  --accel=A  --mbu=single:W,adj2:W,adj3:W,cluster:W\n"
      "  --prune / --no-prune       golden-run residency pruning: classify\n"
      "                             provably-masked trials without\n"
      "                             simulating them (byte-identical rows;\n"
      "                             --no-prune is the reference path)\n"
      "  --ff / --no-ff             snapshot fast-forward: restore a golden\n"
      "                             checkpoint instead of re-simulating each\n"
      "                             trial's fault-free prefix, and skip ahead\n"
      "                             (or stop) wherever a trial's state is\n"
      "                             the golden run's again after a delivery\n"
      "                             (byte-identical rows; --no-ff is the\n"
      "                             simulate-everything reference path)\n"
      "  --snapshot-every=N         golden snapshot cadence in injector\n"
      "                             consultations (default 256; 0 disables)\n"
      "  --snapshot-mem=MB          snapshot budget per golden run, one per\n"
      "                             workload and timing class (default 256;\n"
      "                             keep-every-k thinning)\n"
      "  --checkpoint=FILE  --resume  --stop-after-rounds=N  "
      "--progress[=SECS]\n"
      "service mode (serve/submit/status/stop):\n"
      "  --socket=PATH  (submit also takes the campaign grid flags)\n"
      "  --workers=N                serve: threads of the pool each job\n"
      "                             runs on, one job at a time\n"
      "                             (0 = hardware concurrency)\n"
      "  laec_cli status --socket=PATH   probe a daemon: uptime, pool\n"
      "                             size, job/cell/trial/row counts,\n"
      "                             metrics digest (campaign.* gauges\n"
      "                             describe the running job)\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliOptions o = parse(argc, argv);
    if (!o.ok) {
      usage();
      return 2;
    }
    const bool grid_cmd = o.command == "sweep" || o.command == "campaign" ||
                          o.command == "submit";
    if (!grid_cmd && !o.sweep_only_flags.empty()) {
      std::fprintf(stderr,
                   "%s only applies to the sweep/campaign/submit commands\n",
                   o.sweep_only_flags.front().c_str());
      usage();
      return 2;
    }
    if (o.command == "submit") {
      for (const auto& f : o.sweep_only_flags) {
        if (f == "--threads" || f == "--trace") {
          std::fprintf(stderr,
                       "%s does not apply to submit (the daemon owns its "
                       "own worker pool)\n",
                       f.c_str());
          usage();
          return 2;
        }
      }
    }
    if (o.command != "campaign" && o.command != "submit" &&
        !o.campaign_only_flags.empty()) {
      std::fprintf(stderr, "%s only applies to the campaign/submit commands\n",
                   o.campaign_only_flags.front().c_str());
      usage();
      return 2;
    }
    if (o.command != "campaign" && !o.local_campaign_flags.empty()) {
      std::fprintf(stderr,
                   "%s only applies to the (local) campaign command\n",
                   o.local_campaign_flags.front().c_str());
      usage();
      return 2;
    }
    const bool service_cmd = o.command == "serve" || o.command == "submit" ||
                             o.command == "status" || o.command == "stop";
    if (!service_cmd && !o.service_flags.empty()) {
      std::fprintf(stderr,
                   "%s only applies to the serve/submit/status/stop "
                   "commands\n",
                   o.service_flags.front().c_str());
      usage();
      return 2;
    }
    if (!o.trace_path.empty() && o.command != "sweep" &&
        o.command != "campaign" && o.command != "serve") {
      std::fprintf(stderr,
                   "--trace=FILE only applies to the sweep, campaign and "
                   "serve commands\n");
      usage();
      return 2;
    }
    if (o.command != "serve" && o.workers_explicit) {
      std::fprintf(stderr, "--workers only applies to the serve command\n");
      usage();
      return 2;
    }
    if (o.command == "campaign" && o.sweep_trace) {
      std::fprintf(stderr,
                   "--trace only applies to sweep: campaigns need program "
                   "mode (real arrays to inject into)\n");
      usage();
      return 2;
    }
    if (o.command == "list") return cmd_list();
    if (o.command == "schemes") return cmd_schemes();
    if (o.command == "run") return cmd_run(o);
    if (o.command == "trace") return cmd_trace(o);
    if (o.command == "compare") return cmd_compare(o);
    if (o.command == "sweep") return cmd_sweep(o);
    if (o.command == "campaign") return cmd_campaign(o);
    if (o.command == "serve") return cmd_serve(o);
    if (o.command == "submit") return cmd_submit(o);
    if (o.command == "status") return cmd_status(o);
    if (o.command == "stop") return cmd_stop(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  usage();
  return 2;
}
