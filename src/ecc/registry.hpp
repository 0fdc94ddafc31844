// String-keyed codec registry: the growth point of the ECC layer.
//
// Schemes are constructed by name — ecc::make_codec("secded-39-32") — so
// caches, the injector, sweeps, CSV rows and the CLI all speak the same
// vocabulary. A new linear code is one registration: its name, its check
// bits, the data columns of its H and what it corrects
// (ecc/linear_code.hpp):
//
//     using namespace laec::ecc;
//     const bool registered = register_codec("my-code-39-32", [] {
//       return std::make_shared<const LinearCodec>(
//           "my-code-39-32",
//           LinearCode(7, my_columns(), Corrects::kSingles));
//     });
//
// Codecs are immutable, so the registry hands out one shared const instance
// per code (constructed lazily on first use; construction builds the column
// search, the syndrome table and the LUTs once, not per cache). A legacy
// alias hands out its canonical name's instance.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "ecc/codec.hpp"
#include "ecc/linear_code.hpp"

namespace laec::ecc {

using CodecFactory = std::function<std::shared_ptr<const Codec>()>;

class CodecRegistry {
 public:
  /// The process-wide registry, pre-populated with the built-in schemes:
  /// none, parity-32, parity-i2-32, secded-39-32, secded-72-64,
  /// sec-daec-39-32, sec-daec-72-64, sec-daec-taec-45-32, dec-bch-45-32
  /// (plus the legacy aliases parity, secded, sec-daec).
  [[nodiscard]] static CodecRegistry& instance();

  /// Register a scheme. Throws std::invalid_argument when `name` is empty
  /// or already taken.
  void add(std::string name, CodecFactory factory);

  /// Construct (or return the cached instance of) the named scheme.
  /// Throws std::out_of_range naming the known schemes when unknown.
  [[nodiscard]] std::shared_ptr<const Codec> make(std::string_view name);

  [[nodiscard]] bool contains(std::string_view name) const;

  /// All registered names, sorted (aliases included).
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  CodecRegistry();

  struct Entry {
    CodecFactory factory;
    std::shared_ptr<const Codec> cached;  // lazily built, then shared
    std::string alias_of;  // canonical name, for a legacy alias
  };
  mutable std::mutex mu_;  // make() may race across sweep workers
  std::map<std::string, Entry, std::less<>> entries_;
};

/// Convenience forwarders onto CodecRegistry::instance().
[[nodiscard]] std::shared_ptr<const Codec> make_codec(std::string_view name);
[[nodiscard]] std::vector<std::string> registered_codecs();
[[nodiscard]] bool codec_registered(std::string_view name);

/// Static-initializer-friendly registration hook (returns true).
bool register_codec(std::string name, CodecFactory factory);

/// The LinearCode behind a registered codec (its H, for the gate model and
/// the construction tests). Throws std::invalid_argument when the named
/// codec is not a LinearCodec.
[[nodiscard]] const LinearCode& linear_code(std::string_view name);

}  // namespace laec::ecc
