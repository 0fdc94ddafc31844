#include "core/simulator.hpp"

#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "ecc/registry.hpp"
#include "mem/residency.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/snapshot.hpp"

namespace laec::core {

sim::SystemConfig make_system_config(const SimConfig& cfg, bool trace_mode) {
  sim::SystemConfig sc;
  sc.num_cores = cfg.num_cores;
  sc.max_cycles = cfg.max_cycles;
  sc.traffic = cfg.traffic;

  sc.memsys.bus.request_cycles = cfg.bus_request_cycles;
  sc.memsys.bus.response_cycles = cfg.bus_response_cycles;
  sc.memsys.l2.hit_cycles = cfg.l2_hit_cycles;
  sc.memsys.l2.write_cycles = cfg.l2_write_cycles;
  sc.memsys.l2.memory_cycles = cfg.memory_cycles;

  cpu::PipelineParams& pp = sc.core.pipeline;
  pp.hazard_rule = cfg.hazard_rule;
  pp.ecc_slot = cfg.ecc_slot;
  pp.stride_predictor = cfg.stride_predictor;
  pp.mul_latency = cfg.mul_latency;
  pp.div_latency = cfg.div_latency;
  pp.record_chronogram = cfg.record_chronogram;
  pp.lookahead_under_branch_shadow = cfg.lookahead_under_branch_shadow;
  pp.max_cycles = cfg.max_cycles;

  // Expand the scheme descriptor: per-cache codec, scrub and recovery plus
  // the DL1 write policy and stage placement all flow from the hierarchy
  // deployment.
  const HierarchyDeployment& dep = cfg.deployment;
  pp.ecc = dep.timing;

  mem::CacheConfig& dc = sc.core.dl1.cache;
  dc.size_bytes = cfg.dl1_size_bytes;
  dc.ways = cfg.dl1_ways;
  dc.line_bytes = cfg.dl1_line_bytes;
  dc.write_policy = dep.write_policy;
  dc.alloc_policy = dep.alloc_policy;
  dc.codec = ecc::make_codec(dep.codec);
  dc.scrub_on_correct = dep.scrub_on_correct;
  dc.recovery = dep.recovery;
  dc.force_generic_path = cfg.force_generic_ecc_path;
  dc.use_lut_decode = cfg.lut_decode;
  sc.core.dl1.oracle.enabled = trace_mode;
  sc.core.dl1.oracle.miss_cycles = cfg.oracle_miss_cycles;

  mem::CacheConfig& ic = sc.core.l1i.cache;
  ic.size_bytes = cfg.l1i_size_bytes;
  ic.line_bytes = cfg.dl1_line_bytes;
  ic.codec = ecc::make_codec(dep.l1i.codec);
  ic.scrub_on_correct = dep.l1i.scrub_on_correct;
  ic.recovery = dep.l1i.recovery;
  ic.force_generic_path = cfg.force_generic_ecc_path;
  ic.use_lut_decode = cfg.lut_decode;

  mem::CacheConfig& l2c = sc.memsys.l2.cache;
  l2c.codec = ecc::make_codec(dep.l2.codec);
  l2c.scrub_on_correct = dep.l2.scrub_on_correct;
  l2c.recovery = dep.l2.recovery;
  l2c.force_generic_path = cfg.force_generic_ecc_path;
  l2c.use_lut_decode = cfg.lut_decode;

  sc.core.wbuf.depth = cfg.write_buffer_depth;
  return sc;
}

namespace {

double cpi_of(const RunStats& r) {
  return r.instructions == 0 ? 0.0
                             : static_cast<double>(r.cycles) /
                                   static_cast<double>(r.instructions);
}

/// into += plus - minus, counter by counter (StatSets by name), and cpi
/// recomputed from the sums.
void add_difference(RunStats& into, const RunStats& plus,
                    const RunStats& minus) {
  visit_run_counters([&](auto field) {
    auto& x = into.*field;
    if constexpr (std::is_same_v<std::remove_cvref_t<decltype(x)>, StatSet>) {
      for (const auto& [name, v] : (plus.*field).items()) x.counter(name) += v;
      for (const auto& [name, v] : (minus.*field).items()) x.counter(name) -= v;
    } else {
      x += plus.*field - minus.*field;
    }
  });
  into.cpi = cpi_of(into);
}

/// The golden snapshot at which a trial checks whether it has rejoined the
/// golden run, after the delivery at ordinal `last` (`next`: the next
/// delivery's ordinal, ~0 when none is left), or null for no check. It is
/// the first snapshot past `last`, while the trial (at cycle `now`) has not
/// passed its cycle. With a delivery left, a match only pays when a later
/// snapshot still precedes that delivery to jump to, so there is no check
/// otherwise.
std::shared_ptr<const sim::SnapshotStore::Entry> rejoin_check(
    const sim::SnapshotStore& golden, u64 last, u64 next, Cycle now) {
  const auto at = golden.first_after(last);
  if (at == nullptr || at->cycle < now) return nullptr;
  if (next != ~u64{0}) {
    const auto jump = golden.best_at_or_before(next);
    if (jump == nullptr || jump->ordinal <= at->ordinal) return nullptr;
  }
  return at;
}

}  // namespace

RunStats collect_stats(sim::System& system, bool completed) {
  RunStats r;
  r.completed = completed;
  const StatSet& ps = system.core(0).pipeline().stats();
  const StatSet& ds = system.core(0).dl1().stats();
  const StatSet& cs = system.core(0).dl1().cache().stats();
  const StatSet& bs = system.memsys().bus().stats();

  r.cycles = ps.value("cycles");
  r.instructions = ps.value("instructions");
  r.cpi = cpi_of(r);
  r.loads = ps.value("loads");
  r.load_hits = ps.value("load_hits");
  r.stores = ps.value("stores");
  r.dep_loads = ps.value("dep_loads");
  r.laec_anticipated = ps.value("laec_anticipated");
  r.laec_data_hazard = ps.value("laec_data_hazard");
  r.laec_resource_hazard = ps.value("laec_resource_hazard");
  r.ecc_corrected = cs.value("ecc_corrected");
  r.ecc_corrected_adjacent = cs.value("ecc_corrected_adjacent");
  r.ecc_detected_uncorrectable = cs.value("ecc_detected_uncorrectable");
  r.parity_refetches = ds.value("parity_refetches");
  r.data_loss_events = ds.value("data_loss_events");
  r.dl1_fill_words =
      cs.value("fills") * (system.core(0).dl1().cache().line_bytes() / 4);
  r.bus_transactions = bs.value("transactions");
  r.bus_wait_cycles = bs.value("wait_cycles");

  // Per-level ECC events. Trace (oracle) mode feeds core 0 synthetic
  // operations and keeps no L1I at all.
  if (system.core(0).has_l1i()) {
    const StatSet& is = system.core(0).l1i().stats();
    const StatSet& ics = system.core(0).l1i().cache().stats();
    r.l1i_fetches = is.value("fetches");
    r.l1i_fill_words =
        ics.value("fills") * (system.core(0).l1i().cache().line_bytes() / 4);
    r.l1i_corrected = ics.value("ecc_corrected");
    r.l1i_detected_uncorrectable = ics.value("ecc_detected_uncorrectable");
    r.l1i_refetches = is.value("parity_refetches");
    r.l1i_stats.add(is);
    r.l1i_stats.add(ics);
  }
  const StatSet& l2cs = system.memsys().l2().stats();
  const StatSet& mss = system.memsys().stats();
  r.l2_reads = l2cs.value("reads");
  r.l2_writes = l2cs.value("writes");
  r.l2_fill_words =
      l2cs.value("fills") * (system.memsys().l2().line_bytes() / 4);
  r.l2_corrected = l2cs.value("ecc_corrected");
  r.l2_corrected_adjacent = l2cs.value("ecc_corrected_adjacent");
  r.l2_detected_uncorrectable = l2cs.value("ecc_detected_uncorrectable");
  r.l2_refetches = mss.value("l2_refetches");
  r.l2_data_loss_events = mss.value("l2_data_loss_events");
  r.l2_stats.add(l2cs);
  r.l2_stats.add(mss);

  r.pipeline_stats.add(ps);
  r.dl1_stats.add(ds);
  r.dl1_stats.add(cs);
  r.bus_stats.add(bs);
  return r;
}

unsigned injector_word_bits(const SimConfig& cfg) {
  const HierarchyDeployment& dep = cfg.deployment;
  std::string_view codec_key = dep.codec;
  if (cfg.inject_target == InjectTarget::kL1i) codec_key = dep.l1i.codec;
  if (cfg.inject_target == InjectTarget::kL2) codec_key = dep.l2.codec;
  const auto codec = ecc::make_codec(codec_key);
  return codec->check_bits() == 0 ? codec->data_bits()
                                  : codec->codeword_bits();
}

std::unique_ptr<ecc::FaultInjector> attach_injector(sim::System& system,
                                                    const SimConfig& cfg) {
  if (!cfg.faults.has_value()) return nullptr;
  // Size the flip universe to the targeted level's deployed codec codeword
  // (data + check bits) so fault rates stay comparable across schemes.
  ecc::InjectorConfig icfg = *cfg.faults;
  icfg.word_bits = injector_word_bits(cfg);
  auto injector = std::make_unique<ecc::FaultInjector>(icfg);
  switch (cfg.inject_target) {
    case InjectTarget::kDl1:
      system.core(0).dl1().set_injector(injector.get());
      break;
    case InjectTarget::kL1i:
      if (!system.core(0).has_l1i()) {
        throw std::invalid_argument(
            "inject_target=l1i requires program mode: the calibrated-trace "
            "(oracle) core keeps no instruction cache");
      }
      system.core(0).l1i().set_injector(injector.get());
      break;
    case InjectTarget::kL2:
      system.memsys().l2().set_injector(injector.get());
      break;
  }
  return injector;
}

void attach_recorder(sim::System& system, const SimConfig& cfg,
                     mem::ResidencyRecorder* recorder) {
  recorder->bind_clock(system.cycle_counter());
  switch (cfg.inject_target) {
    case InjectTarget::kDl1:
      system.core(0).dl1().cache().set_recorder(recorder);
      break;
    case InjectTarget::kL1i:
      if (!system.core(0).has_l1i()) {
        throw std::invalid_argument(
            "inject_target=l1i requires program mode: the calibrated-trace "
            "(oracle) core keeps no instruction cache");
      }
      system.core(0).l1i().cache().set_recorder(recorder);
      break;
    case InjectTarget::kL2:
      system.memsys().l2().set_recorder(recorder);
      break;
  }
}

ProgramRun run_program_keep_system(const SimConfig& cfg,
                                   const isa::Program& program,
                                   mem::ResidencyRecorder* recorder,
                                   sim::SnapshotStore* snapshots) {
  ProgramRun r;
  r.system =
      std::make_unique<sim::System>(make_system_config(cfg, /*trace_mode=*/false));
  r.injector = attach_injector(*r.system, cfg);
  if (recorder != nullptr) attach_recorder(*r.system, cfg, recorder);
  r.system->load_program(program);
  sim::System::RunResult run;
  if (snapshots != nullptr && snapshots->every() > 0) {
    if (recorder == nullptr) {
      throw std::invalid_argument(
          "snapshot capture requires a residency recorder: its live-window "
          "count is the injector-consultation clock snapshots are keyed by");
    }
    // Mirror sim::System::run, dropping a snapshot whenever the targeted
    // array's consultation count crosses the capture cadence. The ordinal
    // recorded with each snapshot is the EXACT consultation count at
    // capture (which may overshoot the threshold when one cycle performs
    // several reads); a trial restoring it fast-forwards to that count.
    sim::System& sys = *r.system;
    u64 next_threshold = snapshots->every();
    while (!sys.core(0).halted() && sys.now() < cfg.max_cycles) {
      sys.tick();
      const u64 consults = recorder->live_windows();
      if (consults >= next_threshold) {
        if (snapshots->begin_capture()) {
          obs::Span span("snapshot-capture");
          span.arg("ordinal", consults);
          span.arg("cycle", sys.now());
          snapshots->add(consults, sys.now(), sim::save_system_state(sys));
          obs::Registry::global().counter("snapshot.captures").add();
        }
        next_threshold = consults + snapshots->every();
      }
    }
    run.completed = sys.core(0).halted();
    run.cycles = sys.core(0).pipeline().stats().value("cycles");
  } else {
    run = r.system->run();
  }
  // Close trailing windows before stats/self-check flushes touch the
  // arrays (flush paths never consult the injector, so they are invisible
  // to the recorded consultation sequence either way).
  if (recorder != nullptr) recorder->finalize();
  r.stats = collect_stats(*r.system, run.completed);
  return r;
}

std::shared_ptr<const sim::SnapshotStore::Entry> replay_start(
    const sim::SnapshotStore& golden, const ecc::TrialSchedule& schedule) {
  return golden.best_at_or_before(schedule.deliveries.empty()
                                      ? ~u64{0}
                                      : schedule.deliveries.front().first);
}

ProgramRun run_program_replay(const SimConfig& cfg,
                              const isa::Program& program,
                              const sim::SnapshotStore& golden,
                              const RunStats& golden_stats) {
  const auto& deliveries = cfg.faults->schedule->deliveries;
  // Ordinal of delivery k; past every ordinal once the storm is spent.
  const auto delivery = [&](std::size_t k) {
    return k < deliveries.size() ? deliveries[k].first : ~u64{0};
  };
  ProgramRun r;
  r.system =
      std::make_unique<sim::System>(make_system_config(cfg, /*trace_mode=*/false));
  sim::System& sys = *r.system;
  const auto restore = [&](const sim::SnapshotStore::Entry& e) {
    obs::Span span("snapshot-restore");
    span.arg("ordinal", e.ordinal);
    span.arg("bytes", static_cast<u64>(e.blob->size()));
    sim::restore_system_state(sys, *e.blob);
    obs::Registry::global().counter("snapshot.restores").add();
  };
  // Restore first, THEN attach the injector: set_injector marks the array's
  // sticky ever_injected_ flag, and the replay-mode injector consumes no RNG,
  // so attachment order cannot perturb the simulated suffix. The program
  // image is already inside a snapshot.
  const auto start = replay_start(golden, *cfg.faults->schedule);
  if (start != nullptr) {
    restore(*start);
  } else {
    sys.load_program(program);
  }
  r.injector = attach_injector(sys, cfg);
  if (start != nullptr) r.injector->fast_forward(start->ordinal);

  RunStats excess;  // trial minus golden counters, summed over the matches
  std::shared_ptr<const sim::SnapshotStore::Entry> check;
  std::size_t delivered = 0;
  while (!sys.core(0).halted() && sys.now() < cfg.max_cycles) {
    sys.tick();
    if (r.injector->deliveries_done() != delivered) {
      delivered = r.injector->deliveries_done();
      check = rejoin_check(golden, delivery(delivered - 1), delivery(delivered),
                           sys.now());
    }
    if (check == nullptr || sys.now() != check->cycle) continue;
    const auto at = std::exchange(check, nullptr);
    if (r.injector->consults() != at->ordinal ||
        !sim::state_matches(sys, *at->blob)) {
      continue;  // a miss: simulate on, unchecked until the next delivery
    }
    // Only the counters differ; restoring the snapshot reads golden's.
    const RunStats trial = collect_stats(sys, false);
    restore(*at);
    add_difference(excess, trial, collect_stats(sys, false));
    if (delivered == deliveries.size()) {
      r.rejoin.at_end = true;
      r.rejoin.cycles += golden_stats.cycles - at->cycle;
      break;
    }
    const auto jump = golden.best_at_or_before(delivery(delivered));
    restore(*jump);
    r.injector->fast_forward(jump->ordinal);
    ++r.rejoin.jumps;
    r.rejoin.cycles += jump->cycle - at->cycle;
  }
  if (r.rejoin.at_end) {
    r.stats.completed = golden_stats.completed;
    add_difference(r.stats, golden_stats, RunStats{});
  } else {
    r.stats = collect_stats(sys, sys.core(0).halted());
  }
  add_difference(r.stats, excess, RunStats{});
  return r;
}

RunStats run_program(const SimConfig& cfg, const isa::Program& program) {
  return run_program_keep_system(cfg, program).stats;
}

RunStats run_trace(const SimConfig& cfg, cpu::TraceSource& trace) {
  if (cfg.faults.has_value()) {
    throw std::invalid_argument(
        "fault injection requires program mode: the calibrated-trace "
        "(oracle) DL1 keeps no arrays to inject into");
  }
  sim::System system(make_system_config(cfg, /*trace_mode=*/true), &trace);
  const auto run = system.run();
  return collect_stats(system, run.completed);
}

}  // namespace laec::core
