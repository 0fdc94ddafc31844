#include "mem/cache.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "common/bitops.hpp"
#include "mem/residency.hpp"

// The correction/recovery/scrub machinery is deliberately out of the
// instruction stream of the clean-hit fast path: annotate it cold so the
// compiler keeps read()'s happy path branch-light and fall-through.
#if defined(__GNUC__) || defined(__clang__)
#define LAEC_COLD __attribute__((cold, noinline))
#else
#define LAEC_COLD
#endif

namespace laec::mem {

SetAssocCache::SetAssocCache(const CacheConfig& cfg)
    : cfg_(cfg), codec_(cfg.codec.get()) {
  // Geometry is user-settable (CLI flags, daemon job bytes), so every bound
  // is a runtime check, not an assert.
  const auto reject = [&](const std::string& why) {
    throw std::invalid_argument("cache \"" + cfg_.name + "\": " + why);
  };
  if (!is_pow2(cfg_.size_bytes) || !is_pow2(cfg_.line_bytes)) {
    reject("size " + std::to_string(cfg_.size_bytes) + " B and line " +
           std::to_string(cfg_.line_bytes) + " B must be powers of two");
  }
  if (cfg_.line_bytes % 4 != 0) {
    reject("line " + std::to_string(cfg_.line_bytes) +
           " B is not a whole number of 32-bit words");
  }
  // The bulk-decode scratch on the writeback path is a fixed stack array.
  if (cfg_.line_bytes > kMaxLineBytes) {
    reject("line_bytes " + std::to_string(cfg_.line_bytes) +
           " exceeds the supported maximum " + std::to_string(kMaxLineBytes));
  }
  if (cfg_.ways == 0 ||
      cfg_.size_bytes % (u64{cfg_.line_bytes} * cfg_.ways) != 0) {
    reject(std::to_string(cfg_.ways) + " ways of " +
           std::to_string(cfg_.line_bytes) + " B lines do not divide " +
           std::to_string(cfg_.size_bytes) + " B into whole sets");
  }
  assert((codec_ == nullptr || codec_->data_bits() == 32) &&
         "cache arrays protect 32-bit words");
  assert((codec_ == nullptr || codec_->check_bits() <= 16) &&
         "check side-array stores at most 16 bits per word");
  // A codec with no check bits is the same as no codec; drop it so the hot
  // path has a single "unprotected" test.
  if (codec_ != nullptr && codec_->check_bits() == 0) codec_ = nullptr;
  if (codec_ != nullptr) {
    encode_fn_ = codec_->encode_thunk();
    if (cfg_.use_lut_decode) lut_ = codec_->decode_lut();
  }
  line_shift_ = log2_pow2(cfg_.line_bytes);
  set_mask_ = cfg_.num_sets() - 1;
  const std::size_t nways =
      static_cast<std::size_t>(cfg_.num_sets()) * cfg_.ways;
  const std::size_t nwords = cfg_.line_bytes / 4;
  ways_.resize(nways);
  words_.assign(nways * nwords, 0);
  check_.assign(nways * nwords, 0);
  for (std::size_t i = 0; i < nways; ++i) {
    ways_[i].words = std::span<u32>(words_).subspan(i * nwords, nwords);
    ways_[i].check = std::span<u16>(check_).subspan(i * nwords, nwords);
  }
  n_read_ = &stats_.counter("reads");
  n_write_ = &stats_.counter("writes");
  n_fill_ = &stats_.counter("fills");
  n_evict_dirty_ = &stats_.counter("dirty_evictions");
  n_corrected_ = &stats_.counter("ecc_corrected");
  n_corrected_adjacent_ = &stats_.counter("ecc_corrected_adjacent");
  n_detected_uncorrectable_ = &stats_.counter("ecc_detected_uncorrectable");
  n_rmw_laundered_ = &stats_.counter("ecc_rmw_laundered");
}

void SetAssocCache::flush_counters() const {
  *n_read_ += live_.reads - flushed_.reads;
  *n_write_ += live_.writes - flushed_.writes;
  *n_fill_ += live_.fills - flushed_.fills;
  *n_evict_dirty_ += live_.dirty_evictions - flushed_.dirty_evictions;
  *n_corrected_ += live_.corrected - flushed_.corrected;
  *n_corrected_adjacent_ +=
      live_.corrected_adjacent - flushed_.corrected_adjacent;
  *n_detected_uncorrectable_ +=
      live_.detected_uncorrectable - flushed_.detected_uncorrectable;
  *n_rmw_laundered_ += live_.rmw_laundered - flushed_.rmw_laundered;
  flushed_ = live_;
}

bool SetAssocCache::contains(Addr a) const { return find(a) != nullptr; }

bool SetAssocCache::line_dirty(Addr a) const {
  const Way* w = find(a);
  return w != nullptr && w->dirty;
}

u64 SetAssocCache::word_key(const Way& way, u32 word_idx) const {
  return (static_cast<u64>(way.tag_addr) / 4) + word_idx;
}

void SetAssocCache::recompute_check(Way& way, u32 word_idx) {
  way.check[word_idx] =
      codec_ == nullptr
          ? u16{0}
          : static_cast<u16>(encode_fn_(codec_, way.words[word_idx]));
}

LAEC_COLD void SetAssocCache::decode_and_account(Way& way, u32 word_idx,
                                                 WordRead& out) {
  const auto r = decode_word(way.words[word_idx], way.check[word_idx]);
  out.value = static_cast<u32>(r.data);
  out.check = r.status;
  if (ecc::is_corrected(r.status)) {
    ++live_.corrected;
    if (r.status == ecc::CheckStatus::kCorrectedAdjacent) {
      ++live_.corrected_adjacent;
    }
    if (cfg_.scrub_on_correct) {
      way.words[word_idx] = static_cast<u32>(r.data);
      way.check[word_idx] = static_cast<u16>(r.check);
    }
  } else if (r.status == ecc::CheckStatus::kDetectedUncorrectable) {
    ++live_.detected_uncorrectable;
  }
}

LAEC_COLD void SetAssocCache::inject_and_check(Way& way, u32 word_idx,
                                               WordRead& out) {
  if (injector_ != nullptr && injector_->enabled()) {
    // Codeword layout for injection: bits [0,32) data, [32, 32+r) check.
    const auto flips = injector_->flips_for_access(word_key(way, word_idx));
    if (!flips.empty()) {
      u32 stored = way.words[word_idx];
      u32 check = way.check[word_idx];
      for (unsigned b : flips) {
        if (b < 32) {
          stored = static_cast<u32>(flip_bit(stored, b));
        } else {
          check = static_cast<u32>(flip_bit(check, b - 32));
        }
      }
      way.words[word_idx] = stored;
      way.check[word_idx] = static_cast<u16>(check);
    }
  }

  if (codec_ == nullptr) {
    out.value = way.words[word_idx];
    out.check = ecc::CheckStatus::kOk;
    return;
  }
  decode_and_account(way, word_idx, out);
}

WordRead SetAssocCache::read(LineRef line, Addr a, unsigned bytes) {
  assert(bytes == 1 || bytes == 2 || bytes == 4);
  assert((a & (bytes - 1)) == 0 && "misaligned access");
  Way* way = line.way_;
  assert(way != nullptr && "read() requires a resident line");
  ++live_.reads;
  way->lru_stamp = lru_clock_++;

  const u32 off = a & (cfg_.line_bytes - 1);
  const u32 word_idx = off / 4;
  if (recorder_ != nullptr) recorder_->on_read(word_key(*way, word_idx));
  WordRead word;
  if (!inject_active() && !cfg_.force_generic_path) [[likely]] {
    // Clean-hit fast path: re-encode the stored word through the
    // devirtualized encoder and compare against the stored check bits. A
    // zero syndrome delivers the word as stored; anything else (a standing
    // fault left by a detached storm) drops to the cold decode path.
    const u32 stored = way->words[word_idx];
    if (codec_ == nullptr ||
        encode_fn_(codec_, stored) == way->check[word_idx]) [[likely]] {
      word.value = stored;
    } else {
      decode_and_account(*way, word_idx, word);
    }
  } else {
    inject_and_check(*way, word_idx, word);
  }

  // Extract the addressed bytes from the (corrected) word.
  const u32 shift = (off & 3u) * 8;
  word.value = (word.value >> shift) & static_cast<u32>(low_mask(bytes * 8));
  return word;
}

void SetAssocCache::write(LineRef line, Addr a, unsigned bytes, u32 value,
                          bool mark_dirty) {
  if (cfg_.read_only) {
    throw std::logic_error("cache \"" + cfg_.name +
                           "\" is read-only: lines are refilled, never "
                           "written (invalidate-and-refetch is the only "
                           "recovery path)");
  }
  assert(bytes == 1 || bytes == 2 || bytes == 4);
  assert((a & (bytes - 1)) == 0 && "misaligned access");
  Way* way = line.way_;
  assert(way != nullptr && "write() requires a resident line");
  ++live_.writes;
  way->lru_stamp = lru_clock_++;

  const u32 off = a & (cfg_.line_bytes - 1);
  const u32 word_idx = off / 4;
  if (recorder_ != nullptr) recorder_->on_write(word_key(*way, word_idx));

  // Sub-word writes are read-modify-write on the protected word (the check
  // bits cover 32 bits, so hardware must merge before re-encoding). That
  // read runs the codec: with scrubbing off a standing correctable error
  // may sit in the array, and merging into the raw word would re-encode
  // the flip under fresh check bits — corruption laundered into a valid
  // codeword. Full-word writes overwrite everything, so only sub-word
  // merges pay for the decode — and only in runs that ever saw a fault
  // source (a clean run's stored words always re-encode to their stored
  // check bits).
  u32 word = way->words[word_idx];
  if (codec_ != nullptr && ever_injected_ && bytes < 4) {
    const auto r = decode_word(word, way->check[word_idx]);
    if (ecc::is_corrected(r.status)) {
      word = static_cast<u32>(r.data);
    } else if (r.status == ecc::CheckStatus::kDetectedUncorrectable) {
      // The store's bytes are architecturally new and the merge must
      // proceed, but the untouched bytes are known-bad and about to be
      // re-encoded under valid check bits — account the laundering so it
      // can never be mistaken for a clean word downstream.
      ++live_.detected_uncorrectable;
      ++live_.rmw_laundered;
    }
  }
  const u32 shift = (off & 3u) * 8;
  const u32 mask = static_cast<u32>(low_mask(bytes * 8)) << shift;
  word = (word & ~mask) | ((value << shift) & mask);
  way->words[word_idx] = word;
  recompute_check(*way, word_idx);
  if (mark_dirty && cfg_.write_policy == WritePolicy::kWriteBack) {
    way->dirty = true;
  }
}

std::optional<Eviction> SetAssocCache::fill(Addr a, const u8* data,
                                            bool dirty) {
  if (cfg_.read_only && dirty) {
    throw std::logic_error("cache \"" + cfg_.name +
                           "\" is read-only: it cannot hold dirty lines");
  }
  const Addr base = line_base(a);
  const u32 set = set_index(a);
  ++live_.fills;

  Way* victim = nullptr;
  for (u32 w = 0; w < cfg_.ways; ++w) {
    Way& way = ways_[static_cast<std::size_t>(set) * cfg_.ways + w];
    if (!way.valid) {
      victim = &way;
      break;
    }
    if (victim == nullptr || way.lru_stamp < victim->lru_stamp) victim = &way;
  }

  std::optional<Eviction> ev;
  if (victim->valid && victim->dirty) {
    ev.emplace();
    ev->line_addr = victim->tag_addr;
    ev->dirty = true;
    ev->data = corrected_line_copy(*victim);
    ++live_.dirty_evictions;
  }
  if (victim->valid) retire_line(*victim);

  victim->valid = true;
  victim->dirty = dirty;
  victim->tag_addr = base;
  victim->lru_stamp = lru_clock_++;
  const u32 nwords = cfg_.line_bytes / 4;
  std::memcpy(victim->words.data(), data, cfg_.line_bytes);
  if (codec_ != nullptr) {
    // One virtual call per line, not one per word.
    codec_->encode_line(victim->words.data(), victim->check.data(), nwords);
  }
  if (recorder_ != nullptr) {
    for (u32 i = 0; i < nwords; ++i) recorder_->on_install(word_key(*victim, i));
  }
  return ev;
}

bool SetAssocCache::invalidate(Addr a) {
  Way* way = find(a);
  if (way == nullptr) return false;
  retire_line(*way);
  way->valid = false;
  way->dirty = false;
  return true;
}

void SetAssocCache::invalidate(LineRef line) {
  retire_line(*line.way_);
  line.way_->valid = false;
  line.way_->dirty = false;
}

void SetAssocCache::retire_line(const Way& way) {
  if (recorder_ == nullptr) return;
  const u32 nwords = cfg_.line_bytes / 4;
  for (u32 i = 0; i < nwords; ++i) recorder_->on_retire(word_key(way, i));
}

std::vector<u8> SetAssocCache::corrected_line_copy(const Way& way) const {
  std::vector<u8> out(cfg_.line_bytes);
  const u32 nwords = cfg_.line_bytes / 4;
  // Without a fault source the array only ever holds words it encoded
  // itself, so every decode would be a no-op — skip the whole pass (dirty
  // evictions are on the simulator's hot path).
  if (codec_ == nullptr || !ever_injected_) {
    std::memcpy(out.data(), way.words.data(), cfg_.line_bytes);
    return out;
  }
  u32 fixed[kMaxLineWords];
  if (lut_ != nullptr) {
    // The built-in codecs' decode_line IS the LUT span decoder; one call.
    codec_->decode_line(way.words.data(), way.check.data(), fixed, nwords);
  } else {
    // Matrix reference path: the base-class decode_line default, inlined so
    // a --no-lut run never routes through the table-backed override.
    for (u32 i = 0; i < nwords; ++i) {
      const auto r = codec_->decode(way.words[i], way.check[i]);
      fixed[i] = ecc::is_corrected(r.status) ? static_cast<u32>(r.data)
                                             : way.words[i];
    }
  }
  std::memcpy(out.data(), fixed, cfg_.line_bytes);
  return out;
}

std::vector<u8> SetAssocCache::peek_line(Addr a) const {
  const Way* way = find(a);
  assert(way != nullptr);
  return corrected_line_copy(*way);
}

}  // namespace laec::mem
