// Public entry point of the LAEC library.
//
// SimConfig captures every knob a study needs (which ECC deployment, cache
// geometry, latencies, fault injection); run_program / run_trace build the
// full NGMP-like system, run it, and return a digested RunStats. The
// examples and every benchmark harness sit on top of this facade; tests and
// power users can still assemble sim::System directly.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/deployment.hpp"
#include "cpu/pipeline_config.hpp"
#include "cpu/trace_source.hpp"
#include "ecc/injector.hpp"
#include "isa/program.hpp"
#include "sim/snapshot.hpp"
#include "sim/system.hpp"

namespace laec::mem {
class ResidencyRecorder;
}

namespace laec::core {

/// Which cache array a SimConfig's fault storm strikes.
enum class InjectTarget { kDl1, kL1i, kL2 };

[[nodiscard]] constexpr std::string_view to_string(InjectTarget t) {
  switch (t) {
    case InjectTarget::kDl1: return "dl1";
    case InjectTarget::kL1i: return "l1i";
    case InjectTarget::kL2: return "l2";
  }
  return "invalid-inject-target";
}

[[nodiscard]] constexpr std::optional<InjectTarget> inject_target_from_string(
    std::string_view s) {
  if (s == "dl1") return InjectTarget::kDl1;
  if (s == "l1i") return InjectTarget::kL1i;
  if (s == "l2") return InjectTarget::kL2;
  return std::nullopt;
}

struct SimConfig {
  /// Scheme descriptor for the whole hierarchy (per-cache codec + scrub +
  /// recovery, DL1 write policy + stage placement). Defaults to the paper's
  /// LAEC deployment; HierarchyDeployment::from_policy spells any of the
  /// paper's five policies.
  HierarchyDeployment deployment =
      HierarchyDeployment::from_policy(cpu::EccPolicy::kLaec);

  /// Select the scheme by key (policy name, codec name, "placement:codec",
  /// or a compound key like "laec+l2:sec-daec-39-32" — see
  /// HierarchyDeployment::parse). Throws std::invalid_argument for unknown
  /// keys.
  SimConfig& set_scheme(std::string_view key) {
    deployment = HierarchyDeployment::parse(key);
    return *this;
  }
  cpu::HazardRule hazard_rule = cpu::HazardRule::kExact;
  cpu::EccSlotPolicy ecc_slot = cpu::EccSlotPolicy::kAuto;
  /// Extension: stride-predicted look-ahead for data-hazard-blocked loads.
  bool stride_predictor = false;

  // Geometry (paper §IV: 4-way, 32 B lines, 16 KB DL1).
  u32 dl1_size_bytes = 16 * 1024;
  u32 dl1_ways = 4;
  u32 dl1_line_bytes = 32;
  u32 l1i_size_bytes = 16 * 1024;
  unsigned write_buffer_depth = 8;

  // Latencies.
  unsigned mul_latency = 1;
  unsigned div_latency = 12;
  unsigned bus_request_cycles = 2;
  unsigned bus_response_cycles = 2;
  unsigned l2_hit_cycles = 4;
  unsigned l2_write_cycles = 2;
  unsigned memory_cycles = 26;

  // System shape.
  unsigned num_cores = 1;
  std::vector<sim::TrafficPattern> traffic;  ///< co-runner bus pressure

  // Fault injection into one of the cache arrays (soft errors). Program
  // mode only: trace (oracle) mode keeps no arrays to inject into, so
  // run_trace and the sweep runner reject configs that combine the two.
  std::optional<ecc::InjectorConfig> faults;
  /// Which array the storm strikes (the flip universe is sized to that
  /// level's deployed codec).
  InjectTarget inject_target = InjectTarget::kDl1;

  /// Validation knob: run every cache word read through the generic decode
  /// (slow) path, bypassing the devirtualized clean-word fast test in all
  /// three arrays. The fast-path equivalence suite runs reference points
  /// this way and asserts identical stats/rows; leave false otherwise.
  bool force_generic_ecc_path = false;

  /// Decode through each codec's precomputed syndrome LUT (the default).
  /// --no-lut turns this off, routing every decode through the matrix-math
  /// reference implementation in all three arrays; the equivalence suite
  /// asserts the two modes produce byte-identical rows. Orthogonal to
  /// force_generic_ecc_path (which picks when to decode, not how).
  bool lut_decode = true;

  // Trace (oracle) mode tuning: forced-miss service time. Calibrated so
  // the trace-mode baseline CPI lands near the paper's effective ~1.3
  // (EXPERIMENTS.md, E3 calibration note).
  unsigned oracle_miss_cycles = 8;

  bool record_chronogram = false;
  bool lookahead_under_branch_shadow = true;
  u64 max_cycles = 500'000'000;
};

/// Expand a SimConfig into the full system configuration (exposed so tests
/// and ablations can tweak the result before building a System).
[[nodiscard]] sim::SystemConfig make_system_config(const SimConfig& cfg,
                                                   bool trace_mode = false);

struct RunStats {
  bool completed = false;
  u64 cycles = 0;
  u64 instructions = 0;
  double cpi = 0.0;
  u64 loads = 0;
  u64 load_hits = 0;
  u64 stores = 0;
  u64 dep_loads = 0;  ///< loads consumed at distance 1-2 (Table II)
  u64 laec_anticipated = 0;
  u64 laec_data_hazard = 0;
  u64 laec_resource_hazard = 0;
  u64 ecc_corrected = 0;
  u64 ecc_corrected_adjacent = 0;  ///< subset of ecc_corrected (SEC-DAEC)
  u64 ecc_detected_uncorrectable = 0;
  u64 parity_refetches = 0;
  u64 data_loss_events = 0;
  u64 dl1_fill_words = 0;  ///< words (re-)encoded by refills, line-size aware
  u64 bus_transactions = 0;
  u64 bus_wait_cycles = 0;

  // Per-level ECC events of the other protected arrays (the DL1's live in
  // the ecc_* fields above, kept under their original names).
  u64 l1i_fetches = 0;
  u64 l1i_fill_words = 0;  ///< words (re-)encoded by refills, line-size aware
  u64 l1i_corrected = 0;
  u64 l1i_detected_uncorrectable = 0;
  u64 l1i_refetches = 0;  ///< invalidate-and-refetch recoveries
  u64 l2_reads = 0;
  u64 l2_writes = 0;
  u64 l2_fill_words = 0;  ///< words (re-)encoded by refills, line-size aware
  u64 l2_corrected = 0;
  u64 l2_corrected_adjacent = 0;
  u64 l2_detected_uncorrectable = 0;
  u64 l2_refetches = 0;         ///< L2 lines dropped and refetched from memory
  u64 l2_data_loss_events = 0;  ///< DUE on a dirty L2 line (writeback lost)

  /// Table II ratios.
  [[nodiscard]] double load_fraction() const {
    return instructions == 0 ? 0.0
                             : static_cast<double>(loads) /
                                   static_cast<double>(instructions);
  }
  [[nodiscard]] double hit_fraction() const {
    return loads == 0 ? 0.0
                      : static_cast<double>(load_hits) /
                            static_cast<double>(loads);
  }
  [[nodiscard]] double dep_fraction() const {
    return loads == 0 ? 0.0
                      : static_cast<double>(dep_loads) /
                            static_cast<double>(loads);
  }

  StatSet pipeline_stats;
  StatSet dl1_stats;
  StatSet l1i_stats;
  StatSet l2_stats;
  StatSet bus_stats;
};

/// Call v(&RunStats::field) on every counter of RunStats: the u64 fields,
/// then the StatSets. Member pointers, so one list walks several RunStats
/// in step (a replay trial's counter splice). `completed` and `cpi` are
/// not counters.
template <class V>
void visit_run_counters(V&& v) {
  v(&RunStats::cycles);
  v(&RunStats::instructions);
  v(&RunStats::loads);
  v(&RunStats::load_hits);
  v(&RunStats::stores);
  v(&RunStats::dep_loads);
  v(&RunStats::laec_anticipated);
  v(&RunStats::laec_data_hazard);
  v(&RunStats::laec_resource_hazard);
  v(&RunStats::ecc_corrected);
  v(&RunStats::ecc_corrected_adjacent);
  v(&RunStats::ecc_detected_uncorrectable);
  v(&RunStats::parity_refetches);
  v(&RunStats::data_loss_events);
  v(&RunStats::dl1_fill_words);
  v(&RunStats::bus_transactions);
  v(&RunStats::bus_wait_cycles);
  v(&RunStats::l1i_fetches);
  v(&RunStats::l1i_fill_words);
  v(&RunStats::l1i_corrected);
  v(&RunStats::l1i_detected_uncorrectable);
  v(&RunStats::l1i_refetches);
  v(&RunStats::l2_reads);
  v(&RunStats::l2_writes);
  v(&RunStats::l2_fill_words);
  v(&RunStats::l2_corrected);
  v(&RunStats::l2_corrected_adjacent);
  v(&RunStats::l2_detected_uncorrectable);
  v(&RunStats::l2_refetches);
  v(&RunStats::l2_data_loss_events);
  v(&RunStats::pipeline_stats);
  v(&RunStats::dl1_stats);
  v(&RunStats::l1i_stats);
  v(&RunStats::l2_stats);
  v(&RunStats::bus_stats);
}

/// Assemble, run `program` on core 0 of a fresh system, digest the stats.
/// A fault injector described by cfg.faults is attached to the array named
/// by cfg.inject_target (core 0's DL1 or L1I, or the shared L2).
[[nodiscard]] RunStats run_program(const SimConfig& cfg,
                                   const isa::Program& program);

/// The injection flip universe of cfg's targeted cache level: the deployed
/// codec's codeword width (data + check bits; data bits alone for an
/// unprotected array). attach_injector sizes the injector with this, and
/// the reliability campaign normalizes its Poisson rates over the same
/// count — one definition, so the two can never disagree.
[[nodiscard]] unsigned injector_word_bits(const SimConfig& cfg);

/// Build the injector described by cfg.faults (flip universe sized by
/// injector_word_bits) and attach it to the targeted array of `system`.
/// Returns nullptr when cfg.faults is unset. Shared by
/// run_program_keep_system and the test harnesses so target wiring cannot
/// diverge.
[[nodiscard]] std::unique_ptr<ecc::FaultInjector> attach_injector(
    sim::System& system, const SimConfig& cfg);

/// Bind `recorder` to the system clock and hook it into the same array
/// cfg.inject_target names, mirroring attach_injector's wiring — the golden
/// run must observe exactly the word stream the injector would be consulted
/// on.
void attach_recorder(sim::System& system, const SimConfig& cfg,
                     mem::ResidencyRecorder* recorder);

/// How a replay trial used its golden run (run_program_replay).
struct Rejoin {
  /// The trial matched the golden run after its last delivery and was
  /// completed from the golden result; its system stopped at that snapshot,
  /// so its final-memory self-check is the golden run's too.
  bool at_end = false;
  /// Matches between two deliveries that jumped to a later snapshot.
  u64 jumps = 0;
  /// Golden cycles the matches spared the trial from simulating.
  u64 cycles = 0;
};

/// run_program, but keep the finished system alive for post-mortem
/// inspection (final-memory self-checks, chronograms). run_program and the
/// sweep runner both build on this so the wiring cannot diverge.
struct ProgramRun {
  std::unique_ptr<sim::System> system;
  std::unique_ptr<ecc::FaultInjector> injector;  ///< when cfg.faults set
  RunStats stats;
  Rejoin rejoin;  ///< run_program_replay only
};
/// `recorder`, when non-null, observes the targeted array for the whole run
/// (attached before the first cycle, finalized after the last).
/// `snapshots`, when non-null (requires `recorder`: its live-window count is
/// the consultation clock), makes the run drop full-state snapshots into the
/// store at its configured consultation cadence — the golden-run side of
/// campaign fast-forwarding.
[[nodiscard]] ProgramRun run_program_keep_system(
    const SimConfig& cfg, const isa::Program& program,
    mem::ResidencyRecorder* recorder = nullptr,
    sim::SnapshotStore* snapshots = nullptr);

/// The golden snapshot a replay trial of `schedule` starts from: the last
/// one at or before its first delivery (the last of all for a storm with
/// none), or null when it must run from reset.
[[nodiscard]] std::shared_ptr<const sim::SnapshotStore::Entry> replay_start(
    const sim::SnapshotStore& golden, const ecc::TrialSchedule& schedule);

/// Run a replay trial (cfg.faults with a pre-drawn schedule) alongside its
/// cell's golden run: `golden` holds the golden run's snapshots and
/// `golden_stats` its final stats. The trial simulates only the stretches
/// the golden run cannot stand in for:
///
///   * it restores replay_start and fast-forwards the injector there (or
///     loads `program` and runs from reset when there is none);
///   * after each delivery it checks, once, the first golden snapshot E
///     past it: when its cycle reaches E's, the trial has rejoined the
///     golden run iff its consultation count is E's and
///     sim::state_matches holds. With a delivery left (and a golden
///     snapshot later than E at or before it), a match restores that
///     snapshot and fast-forwards the injector to it; with none left, the
///     trial stops and is completed from `golden_stats`. A storm with no
///     delivery is never checked;
///   * a match restores E into the trial's own system to read the golden
///     counters there; trial minus golden at each match is carried to the
///     end and added to the final counters (StatSets by name, `cpi`
///     recomputed). Unsigned wrap-around keeps every sum exact.
///
/// The stats equal a from-reset run of the same storm, field for field.
/// Sound only while every trial of the cell replays the golden run's
/// instruction stream, which the campaign engine guarantees.
[[nodiscard]] ProgramRun run_program_replay(const SimConfig& cfg,
                                            const isa::Program& program,
                                            const sim::SnapshotStore& golden,
                                            const RunStats& golden_stats);

/// Same, but feed core 0 from a synthetic trace (oracle DL1 outcomes).
[[nodiscard]] RunStats run_trace(const SimConfig& cfg,
                                 cpu::TraceSource& trace);

/// Digest stats out of an already-run system (used by custom drivers).
[[nodiscard]] RunStats collect_stats(sim::System& system, bool completed);

}  // namespace laec::core
