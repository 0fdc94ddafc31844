// String-keyed codec registry: the growth point of the ECC layer.
//
// Schemes are constructed by name — ecc::make_codec("secded-39-32") — so
// caches, the injector, sweeps, CSV rows and the CLI all speak the same
// vocabulary and a new code is a one-file drop-in:
//
//     // my_code.cpp
//     namespace { const bool registered = laec::ecc::register_codec(
//         "my-code-39-32", [] { return std::make_shared<MyCodec>(); }); }
//
// Codecs are immutable, so the registry hands out one shared const instance
// per name (constructed lazily on first use; construction of the heavier
// codes builds H-matrices and syndrome LUTs once, not per cache).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "ecc/codec.hpp"

namespace laec::ecc {

using CodecFactory = std::function<std::shared_ptr<const Codec>()>;

class CodecRegistry {
 public:
  /// The process-wide registry, pre-populated with the built-in schemes:
  /// none, parity-32, parity-i2-32, secded-39-32, secded-72-64,
  /// sec-daec-39-32, sec-daec-72-64, sec-daec-taec-45-32 (plus the legacy
  /// aliases parity, secded, sec-daec).
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

}  // namespace laec::ecc
