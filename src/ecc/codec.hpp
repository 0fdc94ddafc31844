// Abstract codec interface of the error-code subsystem.
//
// Every protection scheme the simulated arrays can deploy implements
// ecc::Codec: NoneCodec for an unprotected array, LinearCodec
// (ecc/linear_code.hpp) for every code with check bits. The caches hold a
// std::shared_ptr<const Codec> and run it on every access; nothing
// downstream switches on an enum. Codecs are immutable after construction
// and safe to share across threads (the sweep runner hammers one instance
// from every worker).
//
// A new linear code is one ecc::register_codec call (see ecc/registry.hpp)
// building a LinearCodec from its H columns and what it corrects; a scheme
// that is not a linear code can still subclass Codec directly.
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>

#include "common/types.hpp"
#include "ecc/code.hpp"
#include "ecc/lut.hpp"

namespace laec::ecc {

class Codec {
 public:
  virtual ~Codec() = default;

  /// Registry key, e.g. "secded-39-32".
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual unsigned data_bits() const = 0;
  [[nodiscard]] virtual unsigned check_bits() const = 0;
  [[nodiscard]] unsigned codeword_bits() const {
    return data_bits() + check_bits();
  }

  /// Check bits for a data word (low check_bits() bits of the result).
  [[nodiscard]] virtual u64 encode(u64 data) const = 0;

  /// Decode a stored (data, check) pair, repairing what the scheme can.
  [[nodiscard]] virtual Decoded decode(u64 data, u64 check) const = 0;

  // --- line-granular batched API (simulator hot path) ----------------------
  // The cache arrays move whole lines on fills and writebacks; these span
  // entry points let them pay ONE virtual dispatch per line instead of one
  // per 32-bit word. The default implementations loop over encode()/decode()
  // so a drop-in scheme only has to implement the per-word pair;
  // LinearCodec overrides them with its table loops.

  /// Encode `n` consecutive 32-bit words into their check side-array slots.
  virtual void encode_line(const u32* data, u16* check, std::size_t n) const {
    for (std::size_t i = 0; i < n; ++i) {
      check[i] = static_cast<u16>(encode(data[i]));
    }
  }

  /// Corrected view of `n` stored words: `out[i]` is the decoded data when
  /// the scheme can repair it, the stored word otherwise (the writeback /
  /// eviction read). No status reporting — error accounting happens on the
  /// demand-access path, never on bulk copies.
  virtual void decode_line(const u32* data, const u16* check, u32* out,
                           std::size_t n) const {
    for (std::size_t i = 0; i < n; ++i) {
      const Decoded r = decode(data[i], check[i]);
      out[i] = is_corrected(r.status) ? static_cast<u32>(r.data) : data[i];
    }
  }

  /// Devirtualization hook for the per-access clean-word test. The cache
  /// arrays snapshot this plain function pointer once at construction and
  /// call it on every read — a direct call into the final class's encode,
  /// with no vtable dispatch on the clean path. The base fallback keeps
  /// virtual dispatch so external drop-in schemes work unchanged.
  using EncodeFn = u64 (*)(const Codec*, u64);
  [[nodiscard]] virtual EncodeFn encode_thunk() const {
    return +[](const Codec* c, u64 data) { return c->encode(data); };
  }

  /// Dense syndrome->correction table, or nullptr when the scheme has none
  /// (external drop-ins, the none codec). The cache arrays snapshot this
  /// once at construction — when present and enabled
  /// (CacheConfig::use_lut_decode), word decode becomes a table encode plus
  /// one load and two XORs instead of the row-mask syndrome walk. decode()
  /// itself always stays the reference path so SimConfig::lut_decode
  /// (--no-lut) can force whole runs through it.
  [[nodiscard]] virtual const DecodeLut* decode_lut() const { return nullptr; }

  // --- capability flags (drive cache recovery policy and reporting) -------
  /// Can a single-bit error be corrected in place?
  [[nodiscard]] virtual bool corrects_single() const { return false; }
  /// Is every double-bit error *guaranteed* to be flagged (never silently
  /// accepted, never miscorrected)?
  [[nodiscard]] virtual bool detects_double() const { return false; }
  /// Can an adjacent double-bit error be corrected in place?
  [[nodiscard]] virtual bool corrects_adjacent_double() const { return false; }
  /// Is every ADJACENT double-bit error flagged or repaired? Weaker than
  /// detects_double (interleaved parity has it without full DED); implied
  /// by full double detection or adjacent correction.
  [[nodiscard]] virtual bool detects_adjacent_double() const {
    return detects_double() || corrects_adjacent_double();
  }
  /// Can an adjacent TRIPLE-bit error be corrected in place (SEC-DAEC-TAEC
  /// class codes, arXiv:2002.07507)?
  [[nodiscard]] virtual bool corrects_adjacent_triple() const { return false; }
  /// Can ANY double-bit error — adjacent or not — be corrected in place
  /// (DEC class codes)? Implies corrects_adjacent_double.
  [[nodiscard]] virtual bool corrects_double() const { return false; }
};

/// Unprotected array: zero check bits, every word decodes clean.
class NoneCodec final : public Codec {
 public:
  [[nodiscard]] std::string_view name() const override { return "none"; }
  [[nodiscard]] unsigned data_bits() const override { return 32; }
  [[nodiscard]] unsigned check_bits() const override { return 0; }
  [[nodiscard]] u64 encode(u64) const override { return 0; }
  [[nodiscard]] Decoded decode(u64 data, u64) const override {
    return {CheckStatus::kOk, data, 0};
  }
};

}  // namespace laec::ecc
