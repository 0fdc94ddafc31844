// Simulation state snapshots: capture/restore the complete deterministic
// state of a sim::System, and a budgeted store of golden-run checkpoints.
//
// The campaign engine's soundness argument (reliability/schedule.hpp) says
// every trial in a cell replays the identical instruction/traffic stream and
// pre-draws its whole fault storm, so a faulty trial's architectural state is
// bit-identical to the golden run's up to the trial's first live delivery.
// A snapshot taken by the golden run at consultation ordinal C therefore IS
// the state of any trial whose first delivery ordinal d satisfies C <= d:
// restoring it and fast-forwarding the injector cursor to C simulates only
// the suffix, and the rows stay byte-identical with fast-forward on or off.
// The same holds after a delivery: a trial that reaches a golden
// snapshot's cycle with the snapshot's consultation count and exactly its
// state (state_matches) is the golden run again until its next delivery,
// so it may jump ahead, or stop and take the golden run's result, and only
// its counters differ (core::run_program_replay).
//
// A snapshot covers everything that evolves during a run: the cache arrays
// of DL1/L1I/L2 (every way's valid bit, plus the dirty bit, tag, LRU stamp,
// words and check bits of each valid way), the write buffer, bus
// slots/queues, main-memory pages, pipeline slots and registers, the stride
// predictor, traffic generators, the cycle counter, and every per-component
// stat counter. An invalid way's other fields are left out: no run reads
// them before a fill rewrites them, so a restore leaves them as they are.
// A snapshot deliberately excludes wiring that the constructor re-derives
// from the config (codecs, LUTs, hot counter pointers) and the
// injector/recorder attachments, which the resume path re-attaches after
// restore.
//
// Field-list protocol. Each component describes its state once, in
//
//   template <class V> void visit_state(V& v);
//
// and save, restore, state_matches, state_digest and diff_system_state all
// walk that one list, so they cannot disagree about what the state is. One
// walker drives four archives over it: save, restore, the exact
// state_matches comparison, and the diff's path recorder. The list names
// every field through the visitor:
//
//   v(name, field)        state: scalars, strings, std::array, vector and
//                         deque (length-prefixed, resized on restore),
//                         optional, pair, unordered_map (ascending keys),
//                         unique_ptr (presence must match on restore), or
//                         any type with its own visit_state;
//   v.stats(name, field)  a statistic (StatSet or counter): saved and
//                         restored like state, left out of state_matches
//                         and state_digest;
//   v.fixed(name, c)      a container the configuration sizes: its
//                         elements, no length (unique_ptr elements are
//                         dereferenced);
//   v.shape(name, n)      a configuration value (a count): written, and
//                         checked against this system on restore.
//
// V::kRestoring is true while restoring, for a field that is not saved
// but must be reset after a restore.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace laec::sim {

class System;

/// Bumped whenever the serialized layout changes; restore rejects blobs
/// from any other version. Part of the service-job identity so a daemon
/// never resumes a campaign across a layout change. test_snapshot pins the
/// bytes of reference blobs, so a layout change fails there first.
inline constexpr u32 kSnapshotVersion = 2;

/// Serialize the full deterministic state of `system` into a framed blob
/// (magic + version + checksum + payload). Throws std::logic_error when the
/// system holds state the format cannot carry (chronogram recording on).
[[nodiscard]] std::string save_system_state(const System& system);

/// Restore a blob produced by save_system_state into `system`, which must
/// have been constructed from the same configuration (geometry mismatches
/// are detected and rejected). Throws service::WireError on bad magic,
/// version mismatch, checksum mismatch, or layout/geometry mismatch.
void restore_system_state(System& system, std::string_view blob);

/// Does `system` hold exactly the state `blob` (a save_system_state frame)
/// holds? Every state leaf is compared, the cycle counter included;
/// statistics are not. One walk in step with the blob, no allocation,
/// stopping at the first difference. A short, foreign or other-geometry
/// blob is a difference: false, never an exception or a read past its end.
/// The checksum is not verified (a caller that acts on a match restores
/// the blob next, and restore verifies it). This is the test a replay
/// trial rejoins its golden run by; a digest would only make a match
/// likely.
[[nodiscard]] bool state_matches(const System& system, std::string_view blob);

/// 64-bit hash of the state fields of `system`, statistics excluded (the
/// cycle counter is state). Two systems built from the same configuration
/// with equal digests hold the same state, barring a hash collision,
/// whatever their counters say. For diagnostics; state_matches decides.
[[nodiscard]] u64 state_digest(const System& system);

/// One leaf field that differs between two systems.
struct FieldDiff {
  std::string path;    ///< e.g. "cores[0].dl1.cache.ways[17].words[3]"
  std::string a;       ///< value in the first system, "-" when absent
  std::string b;       ///< value in the second system, "-" when absent
  bool stats = false;  ///< the field is a statistic (see state_digest)
};

/// Field-by-field comparison of two systems built from the same
/// configuration, in field-list order. An array that differs is reported
/// once, at its first differing element.
[[nodiscard]] std::vector<FieldDiff> diff_system_state(const System& a,
                                                       const System& b);

/// Budgeted store of golden-run snapshots, ordered by consultation ordinal.
///
/// The golden run calls begin_capture() at every `every`-th consultation
/// threshold crossing and add()s the serialized state when the gate says
/// keep. When the byte budget would be exceeded the store thins itself to
/// keep-every-k: the keep stride doubles and every entry whose capture
/// sequence is off-stride is dropped, so density degrades uniformly over
/// the whole run (past and future captures alike) and deterministically —
/// the surviving set depends only on the capture sequence, never on timing.
class SnapshotStore {
 public:
  struct Entry {
    u64 seq = 0;      ///< capture sequence number (threshold-crossing index)
    u64 ordinal = 0;  ///< injector consultation ordinal at capture
    Cycle cycle = 0;  ///< system cycle at capture
    std::shared_ptr<const std::string> blob;
  };

  /// `every` = snapshot cadence in consultation ordinals (0 disables
  /// capture entirely); `budget_bytes` = total blob budget (0 = unlimited).
  explicit SnapshotStore(u64 every = 0, u64 budget_bytes = 0)
      : every_(every), budget_(budget_bytes) {}

  /// Capture cadence in consultation ordinals (0 = capture disabled).
  [[nodiscard]] u64 every() const { return every_; }

  /// The capture gate: advances the capture sequence and returns whether
  /// this threshold crossing should be serialized (i.e. it is on-stride).
  /// The caller serializes and add()s only when this returns true, so the
  /// cost of an off-stride crossing is one modulo.
  [[nodiscard]] bool begin_capture() {
    const bool keep = seq_ % stride_ == 0;
    ++seq_;
    return keep;
  }

  /// Record a captured snapshot; entries must arrive in ascending ordinal
  /// order (the golden run is sequential). Thins to budget afterwards.
  void add(u64 ordinal, Cycle cycle, std::string blob);

  /// Latest entry with entry->ordinal <= ordinal, or null when none exists.
  [[nodiscard]] std::shared_ptr<const Entry> best_at_or_before(
      u64 ordinal) const;

  /// Earliest entry with entry->ordinal > ordinal, or null when none exists.
  [[nodiscard]] std::shared_ptr<const Entry> first_after(u64 ordinal) const;

  /// Surviving entries, ordinal-ascending (tests and diagnostics walk this).
  [[nodiscard]] const std::vector<std::shared_ptr<const Entry>>& entries()
      const {
    return entries_;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] u64 bytes() const { return bytes_; }
  /// Current keep-every-k stride (1 until the budget forces thinning).
  [[nodiscard]] u64 stride() const { return stride_; }

 private:
  /// First entry with entry->ordinal > ordinal (end() when none).
  [[nodiscard]] std::vector<std::shared_ptr<const Entry>>::const_iterator
  first_past(u64 ordinal) const;

  u64 every_ = 0;
  u64 budget_ = 0;
  u64 seq_ = 0;     // capture sequence counter (counts every gate call)
  u64 stride_ = 1;  // keep captures whose seq % stride_ == 0
  u64 bytes_ = 0;
  std::vector<std::shared_ptr<const Entry>> entries_;
};

}  // namespace laec::sim
