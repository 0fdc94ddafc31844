#include "core/simulator.hpp"

#include <memory>
#include <stdexcept>

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

RunStats collect_stats(sim::System& system, bool completed) {
  RunStats r;
  r.completed = completed;
  const StatSet& ps = system.core(0).pipeline().stats();
  const StatSet& ds = system.core(0).dl1().stats();
  const StatSet& cs = system.core(0).dl1().cache().stats();
  const StatSet& bs = system.memsys().bus().stats();

  r.cycles = ps.value("cycles");
  r.instructions = ps.value("instructions");
  r.cpi = r.instructions == 0
              ? 0.0
              : static_cast<double>(r.cycles) /
                    static_cast<double>(r.instructions);
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

ProgramRun run_program_resume(const SimConfig& cfg, const std::string& blob,
                              u64 consult_ordinal) {
  ProgramRun r;
  r.system =
      std::make_unique<sim::System>(make_system_config(cfg, /*trace_mode=*/false));
  // Restore first, THEN attach the injector: set_injector marks the array's
  // sticky ever_injected_ flag, and the replay-mode injector consumes no RNG,
  // so attachment order cannot perturb the simulated suffix.
  {
    obs::Span span("snapshot-restore");
    span.arg("ordinal", consult_ordinal);
    span.arg("bytes", static_cast<u64>(blob.size()));
    sim::restore_system_state(*r.system, blob);
    obs::Registry::global().counter("snapshot.restores").add();
  }
  r.injector = attach_injector(*r.system, cfg);
  if (r.injector != nullptr) r.injector->fast_forward(consult_ordinal);
  const auto run = r.system->run();
  r.stats = collect_stats(*r.system, run.completed);
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
