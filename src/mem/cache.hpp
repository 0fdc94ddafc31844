// Generic set-associative cache array with per-word ECC side-arrays.
//
// One class backs all three simulated caches (L1I, DL1, L2). It stores real
// data words and real check bits (any registered ecc::Codec at 32-bit word
// granularity), runs the real codec on every word read, and applies injected
// faults to the stored arrays — so a flipped bit persists until the word is
// rewritten, exactly like a soft error in SRAM.
//
// Hot-path structure (the simulator spends most of its time here):
//  * the array stores 32-bit words directly, so a word read is one indexed
//    load — no per-access byte reassembly; all ways share one flat word
//    buffer and one flat check buffer, so building a cache is a handful of
//    allocations however many ways it has;
//  * set indexing is a shift and a mask: the constructor admits only
//    power-of-two geometry, so it derives the line shift and the set mask
//    once, and the set walk (inline, in this header) never divides;
//  * controllers locate a line once via find_line() and then read/write
//    through the returned LineRef, instead of re-walking the set for every
//    contains()/read()/line_dirty() question about the same access. A
//    controller that expects its next access in the same line (the L1I's
//    sequential fetch) passes the previous LineRef back as a hint, which
//    costs one valid-and-tag compare instead of the set walk;
//  * the per-read clean test is a devirtualized re-encode (a plain function
//    pointer snapshotted from the codec at construction) compared against
//    the stored check bits; only a mismatch — or an active fault storm —
//    takes the cold slow path that runs the full decoder, accounts ECC
//    events and scrubs;
//  * line fills encode through the codec's span API: one virtual call per
//    line, not one per word;
//  * statistics are plain struct members on the hot path, folded into the
//    named StatSet whenever stats() is read (the batch boundary).
//
// Timing is *not* modeled here: the pipeline decides in which stage the data
// read and the ECC check happen (that placement is the entire subject of the
// paper). This class only answers "hit?", moves bytes, and reports per-word
// check outcomes.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <memory>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "ecc/code.hpp"
#include "ecc/codec.hpp"
#include "ecc/injector.hpp"

namespace laec::mem {

class ResidencyRecorder;

enum class WritePolicy { kWriteBack, kWriteThrough };
enum class AllocPolicy { kWriteAllocate, kNoWriteAllocate };

/// How a protected array's controller handles errors the codec reports.
///  * kCorrectInPlace: trust the codec's in-line correction (SECDED and
///    stronger); only a detected-uncorrectable word forces a refetch.
///  * kInvalidateRefetch: treat any reported error as grounds to drop the
///    line and refetch the clean copy from the next level — the only option
///    for detect-only codes (parity), and the conservative arrangement the
///    LEON family uses even where correction would be possible. A dirty
///    line has no clean copy anywhere, so its corrections are always used
///    and its uncorrectable errors are data-loss events.
enum class RecoveryPolicy { kCorrectInPlace, kInvalidateRefetch };

[[nodiscard]] constexpr std::string_view to_string(RecoveryPolicy p) {
  return p == RecoveryPolicy::kCorrectInPlace ? "correct-in-place"
                                              : "invalidate-refetch";
}

/// The one recovery predicate every cache controller applies to a word
/// read: refetch on a detected-uncorrectable word always, and on a merely
/// corrected word when the policy distrusts in-place correction — unless
/// the line is dirty, in which case the correction is the only good copy.
[[nodiscard]] constexpr bool needs_refetch(ecc::CheckStatus status,
                                           RecoveryPolicy recovery,
                                           bool line_dirty) {
  if (status == ecc::CheckStatus::kDetectedUncorrectable) return true;
  return ecc::is_corrected(status) &&
         recovery == RecoveryPolicy::kInvalidateRefetch && !line_dirty;
}

struct CacheConfig {
  std::string name = "cache";
  u32 size_bytes = 16 * 1024;
  u32 line_bytes = 32;
  u32 ways = 4;
  WritePolicy write_policy = WritePolicy::kWriteBack;
  AllocPolicy alloc_policy = AllocPolicy::kWriteAllocate;
  /// Word codec; nullptr means unprotected. Construct by registry name
  /// (ecc::make_codec("secded-39-32")). Must protect 32-bit words (the
  /// array's word granularity).
  std::shared_ptr<const ecc::Codec> codec;
  /// Write the corrected word back into the array after a correction
  /// (scrubbing); prevents a second strike from accumulating.
  bool scrub_on_correct = true;
  /// Error-recovery arrangement of the owning controller (carried here so
  /// every consumer of the array sees one coherent per-cache descriptor).
  RecoveryPolicy recovery = RecoveryPolicy::kCorrectInPlace;
  /// Instruction-cache arrangement: the array is never written after a
  /// fill and never holds dirty lines. write() and dirty fills throw.
  bool read_only = false;
  /// Validation knob: route EVERY word read through the generic decode
  /// (slow) path, skipping the devirtualized clean-word fast test. The
  /// fast-path equivalence suite runs reference points through this and
  /// asserts bit-identical stats/rows; production configs never set it.
  bool force_generic_path = false;
  /// Decode words through the codec's precomputed syndrome LUT when it has
  /// one (every built-in linear codec does). Off = the codec's matrix-math
  /// decode(), the reference implementation; the equivalence suite asserts
  /// the two produce bit-identical rows. Orthogonal to force_generic_path
  /// (which picks WHEN to decode, not HOW).
  bool use_lut_decode = true;

  [[nodiscard]] u32 num_sets() const {
    return size_bytes / (line_bytes * ways);
  }
};

/// Outcome of reading one protected word from the array.
struct WordRead {
  u32 value = 0;
  ecc::CheckStatus check = ecc::CheckStatus::kOk;
};

/// A line evicted by a fill.
struct Eviction {
  Addr line_addr = 0;
  bool dirty = false;
  std::vector<u8> data;  ///< line contents (corrected view)
};

class SetAssocCache {
 private:
  struct Way {
    bool valid = false;
    bool dirty = false;
    Addr tag_addr = 0;  ///< line base address
    u64 lru_stamp = 0;
    std::span<u32> words;  ///< line data: this way's slice of words_
    std::span<u16> check;  ///< per-32-bit-word check bits: slice of check_

    /// An invalid way's other fields are dead: victim choice takes the
    /// first invalid way, every dirty/tag_addr read sits behind `valid`, and
    /// a fill rewrites them all. The list stops there, so snapshots, digests
    /// and diffs hold only state a run can observe, and a restore leaves an
    /// invalid way's leftovers as they are.
    template <class V>
    void visit_state(V& v) {
      v("valid", valid);
      if (!valid) return;
      v("dirty", dirty);
      v("tag_addr", tag_addr);
      v("lru_stamp", lru_stamp);
      v.fixed("words", words);
      v.fixed("check", check);
    }
  };

 public:
  /// Largest supported line size; bounds the stack scratch used by the
  /// bulk (span) decode on writebacks.
  static constexpr u32 kMaxLineBytes = 256;
  static constexpr u32 kMaxLineWords = kMaxLineBytes / 4;

  explicit SetAssocCache(const CacheConfig& cfg);
  // Every Way views the flat arrays through spans: a copy would alias the
  // source's storage. A move keeps the buffers, so the spans stay valid.
  SetAssocCache(const SetAssocCache&) = delete;
  SetAssocCache& operator=(const SetAssocCache&) = delete;
  SetAssocCache(SetAssocCache&&) = default;
  SetAssocCache& operator=(SetAssocCache&&) = default;

  [[nodiscard]] const CacheConfig& config() const { return cfg_; }

  /// Opaque handle to a resident line, returned by find_line(). Lets a
  /// controller resolve the set walk once per access and then ask
  /// dirty()/read()/write() questions without re-searching. Invalidated by
  /// the next fill() or invalidate() on this cache.
  class LineRef {
   public:
    LineRef() = default;
    explicit operator bool() const { return way_ != nullptr; }
    [[nodiscard]] bool dirty() const { return way_->dirty; }

   private:
    friend class SetAssocCache;
    explicit LineRef(Way* w) : way_(w) {}
    Way* way_ = nullptr;
  };

  /// Attach a fault injector (not owned). Pass nullptr to detach.
  void set_injector(ecc::FaultInjector* inj) {
    injector_ = inj;
    ever_injected_ = ever_injected_ || inj != nullptr;
  }

  /// Attach a residency recorder (not owned; golden runs only). Pass
  /// nullptr to detach. Off the hot path: every hook is null-gated.
  void set_recorder(ResidencyRecorder* rec) { recorder_ = rec; }

  // --- presence ------------------------------------------------------------
  /// Locate the resident line containing `a`; a null handle means miss.
  /// No LRU update, no fault injection, no stats.
  [[nodiscard]] LineRef find_line(Addr a) { return LineRef{find(a)}; }

  /// find_line(a), trying `hint` (an earlier handle of this cache) first:
  /// when its way is still valid and holds a's line, that way IS the line
  /// (a line lives in one way at most), so the set walk is skipped. Any
  /// handle is a safe hint, however many fills or invalidations ago it was
  /// returned, because the test reads the way's current valid bit and tag.
  [[nodiscard]] LineRef find_line(Addr a, LineRef hint) {
    if (hint.way_ != nullptr && hint.way_->valid &&
        hint.way_->tag_addr == line_base(a)) {
      return hint;
    }
    return find_line(a);
  }

  [[nodiscard]] bool contains(Addr a) const;
  [[nodiscard]] bool line_dirty(Addr a) const;

  // --- word access (address must be inside a resident line) ----------------
  /// Read `bytes` (1/2/4, naturally aligned) at `a` through a resident-line
  /// handle. Runs fault injection and the codec on the containing 32-bit
  /// word. Updates LRU.
  WordRead read(LineRef line, Addr a, unsigned bytes);

  /// Convenience form: find_line + read (single-shot callers and tests).
  WordRead read(Addr a, unsigned bytes) {
    LineRef line = find_line(a);
    return read(line, a, bytes);
  }

  /// Write `bytes` of `value` at `a` through a resident-line handle;
  /// recomputes the word's check bits. Marks the line dirty under
  /// write-back policy. Updates LRU.
  void write(LineRef line, Addr a, unsigned bytes, u32 value, bool mark_dirty);

  /// Convenience form: find_line + write.
  void write(Addr a, unsigned bytes, u32 value, bool mark_dirty) {
    LineRef line = find_line(a);
    write(line, a, bytes, value, mark_dirty);
  }

  // --- line management -------------------------------------------------------
  /// Install the line containing `a` with `line_bytes()` bytes of data.
  /// Returns the eviction (if a valid line was displaced).
  std::optional<Eviction> fill(Addr a, const u8* data, bool dirty);

  /// Invalidate the line containing `a` (no writeback). Used for parity
  /// recovery-by-refetch. Returns true when a line was present.
  bool invalidate(Addr a);

  /// Invalidate through a handle (the controller already resolved the
  /// line). The handle is dead afterwards.
  void invalidate(LineRef line);

  /// Read a whole resident line (corrected view; no LRU update, no
  /// injection — used for writebacks and tests).
  std::vector<u8> peek_line(Addr a) const;

  /// Flush every dirty line through `sink(line_addr, data)`; leaves the
  /// cache clean. Used at end-of-run to make memory architecturally final.
  /// Like hardware, the writeback read runs the codec: lines leave in
  /// their corrected view even when scrubbing is off.
  template <typename Sink>
  void flush_dirty(Sink&& sink) {
    for (u32 set = 0; set < cfg_.num_sets(); ++set) {
      for (u32 w = 0; w < cfg_.ways; ++w) {
        Way& way = ways_[set * cfg_.ways + w];
        if (way.valid && way.dirty) {
          sink(way.tag_addr, corrected_line_copy(way).data());
          way.dirty = false;
        }
      }
    }
  }

  /// Snapshot field list (protocol: sim/snapshot.hpp). Codec wiring,
  /// injector and recorder attachments are not state: the restore target
  /// is constructed from the same CacheConfig, and attachments are re-made
  /// by the caller afterwards.
  template <class V>
  void visit_state(V& v) {
    // Fold the hot-path deltas first, so the StatSet alone carries the
    // counts; afterwards live_ == flushed_, which keeps the delta fold
    // exact when the StatSet is then overwritten by a restore.
    flush_counters();
    v("lru_clock", lru_clock_);
    v.shape("ways", ways_.size());
    v.fixed("ways", ways_);
    v.stats("stats", stats_);
  }

  /// Named counters of this array. Reading the set is the batch boundary:
  /// the plain hot-path counters are folded into it here.
  [[nodiscard]] StatSet& stats() {
    flush_counters();
    return stats_;
  }
  [[nodiscard]] const StatSet& stats() const {
    flush_counters();
    return stats_;
  }

  [[nodiscard]] u32 line_bytes() const { return cfg_.line_bytes; }
  [[nodiscard]] Addr line_base(Addr a) const {
    return a & ~static_cast<Addr>(cfg_.line_bytes - 1);
  }

 private:
  /// Hot-path event counts: plain members (one increment, no indirection),
  /// folded into stats_ by flush_counters() at batch boundaries.
  struct Counters {
    u64 reads = 0;
    u64 writes = 0;
    u64 fills = 0;
    u64 dirty_evictions = 0;
    u64 corrected = 0;
    u64 corrected_adjacent = 0;
    u64 detected_uncorrectable = 0;
    u64 rmw_laundered = 0;
  };

  [[nodiscard]] u32 set_index(Addr a) const {
    return (a >> line_shift_) & set_mask_;
  }
  [[nodiscard]] Way* find(Addr a) {
    const Addr base = line_base(a);
    Way* set = &ways_[static_cast<std::size_t>(set_index(a)) * cfg_.ways];
    for (u32 w = 0; w < cfg_.ways; ++w) {
      if (set[w].valid && set[w].tag_addr == base) return &set[w];
    }
    return nullptr;
  }
  [[nodiscard]] const Way* find(Addr a) const {
    return const_cast<SetAssocCache*>(this)->find(a);
  }
  /// Is a fault storm live right now? (Attached AND has flips to deliver.)
  [[nodiscard]] bool inject_active() const {
    return injector_ != nullptr && injector_->enabled();
  }
  void recompute_check(Way& way, u32 word_idx);
  /// Global word index used to key fault injection (unique per line-word).
  [[nodiscard]] u64 word_key(const Way& way, u32 word_idx) const;
  /// Cold slow path: apply injector flips (when active), then run the full
  /// decoder on the stored word — ECC event accounting, scrubbing, status
  /// reporting. Everything read() does beyond the clean-word test.
  void inject_and_check(Way& way, u32 word_idx, WordRead& out);
  /// Decode + account + scrub, without the injection step (standing faults
  /// hit by the fast test after a storm was detached).
  void decode_and_account(Way& way, u32 word_idx, WordRead& out);
  /// One stored word through the selected decode implementation: the
  /// codec's syndrome LUT when enabled and available, its matrix-math
  /// decode() otherwise. The two are bit-identical by contract.
  [[nodiscard]] ecc::LutDecoded decode_word(u32 data, u16 check) const {
    if (lut_ != nullptr) return lut_->decode(data, check);
    const auto r = codec_->decode(data, check);
    return {r.status, r.data, r.check};
  }
  /// The line as the codec delivers it: every correctable word repaired
  /// (uncorrectable words stay as stored). The writeback/eviction view —
  /// hardware re-decodes on the writeback read, so corrupted raw bytes
  /// never escape just because scrubbing is off. No stats, no injection.
  [[nodiscard]] std::vector<u8> corrected_line_copy(const Way& way) const;
  /// Retire every word of a valid line with the recorder (eviction or
  /// invalidation). No-op when no recorder is attached.
  void retire_line(const Way& way);
  /// Fold the plain counters' deltas into the named StatSet.
  void flush_counters() const;

  CacheConfig cfg_;
  /// set_index(a) = (a >> line_shift_) & set_mask_: log2(line_bytes) and
  /// num_sets() - 1, derived once from the power-of-two geometry.
  u32 line_shift_ = 0;
  u32 set_mask_ = 0;
  const ecc::Codec* codec_ = nullptr;  ///< raw view of cfg_.codec (hot path)
  /// Devirtualized encoder snapshot (codec_->encode_thunk()); the per-read
  /// clean test calls it through a plain function pointer.
  ecc::Codec::EncodeFn encode_fn_ = nullptr;
  /// Syndrome-LUT snapshot (codec_->decode_lut()); nullptr when disabled
  /// via CacheConfig::use_lut_decode or the codec has no table.
  const ecc::DecodeLut* lut_ = nullptr;
  std::vector<Way> ways_;
  /// Every way's words and check bits, way after way; each Way's spans
  /// view its own slice.
  std::vector<u32> words_;
  std::vector<u16> check_;
  u64 lru_clock_ = 1;
  ecc::FaultInjector* injector_ = nullptr;
  ResidencyRecorder* recorder_ = nullptr;  ///< golden-run observer; usually null
  /// An injector has been attached at some point, so stored words may hold
  /// unscrubbed faults. Sticky (survives detach): gates the re-decode work
  /// on writeback/RMW paths so fault-free runs skip it entirely.
  bool ever_injected_ = false;

  mutable Counters live_;     ///< bumped on the hot path
  mutable Counters flushed_;  ///< portion already folded into stats_
  mutable StatSet stats_;

  // Registered StatSet slots the counters fold into.
  u64* n_read_ = nullptr;
  u64* n_write_ = nullptr;
  u64* n_fill_ = nullptr;
  u64* n_evict_dirty_ = nullptr;
  u64* n_corrected_ = nullptr;
  u64* n_corrected_adjacent_ = nullptr;
  u64* n_detected_uncorrectable_ = nullptr;
  /// Sub-word RMW merged over a word with a standing uncorrectable error,
  /// re-encoding it under valid check bits (also counted as detected-
  /// uncorrectable — this splits out the silent-laundering subset).
  u64* n_rmw_laundered_ = nullptr;
};

}  // namespace laec::mem
