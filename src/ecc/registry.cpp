#include "ecc/registry.hpp"

#include <stdexcept>
#include <utility>

#include "ecc/parity_i2.hpp"

namespace laec::ecc {

CodecRegistry& CodecRegistry::instance() {
  static CodecRegistry reg;
  return reg;
}

CodecRegistry::CodecRegistry() {
  const auto builtin = [this](std::string name, CodecFactory f) {
    entries_.emplace(std::move(name), Entry{std::move(f), nullptr});
  };
  builtin("none", [] { return std::make_shared<const NoneCodec>(); });
  builtin("parity-32",
          [] { return std::make_shared<const ParityCodec>(32); });
  builtin("parity-i2-32", [] {
    return std::make_shared<const InterleavedParityCodec>(32, 2,
                                                          "parity-i2-32");
  });
  builtin("secded-39-32", [] {
    return std::make_shared<const SecdedCodec>(secded32(), "secded-39-32");
  });
  builtin("secded-72-64", [] {
    return std::make_shared<const SecdedCodec>(secded64(), "secded-72-64");
  });
  builtin("sec-daec-39-32", [] {
    return std::make_shared<const SecDaecCodec>(sec_daec32(),
                                                "sec-daec-39-32");
  });
  builtin("sec-daec-72-64", [] {
    return std::make_shared<const SecDaecCodec>(sec_daec64(),
                                                "sec-daec-72-64");
  });
  builtin("sec-daec-taec-45-32", [] {
    return std::make_shared<const SecDaecTaecCodec>(sec_daec_taec32(),
                                                    "sec-daec-taec-45-32");
  });
  builtin("dec-bch-45-32", [] {
    return std::make_shared<const DecBchCodec>(dec_bch32(), "dec-bch-45-32");
  });
  // Short legacy spellings alias the 32-bit defaults.
  builtin("parity", [] { return std::make_shared<const ParityCodec>(32); });
  builtin("secded", [] {
    return std::make_shared<const SecdedCodec>(secded32(), "secded-39-32");
  });
  builtin("sec-daec", [] {
    return std::make_shared<const SecDaecCodec>(sec_daec32(),
                                                "sec-daec-39-32");
  });
}

void CodecRegistry::add(std::string name, CodecFactory factory) {
  if (name.empty()) {
    throw std::invalid_argument("CodecRegistry: empty scheme name");
  }
  if (!factory) {
    throw std::invalid_argument("CodecRegistry: null factory for " + name);
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] =
      entries_.emplace(std::move(name), Entry{std::move(factory), nullptr});
  if (!inserted) {
    throw std::invalid_argument("CodecRegistry: duplicate scheme name \"" +
                                it->first + "\"");
  }
}

std::shared_ptr<const Codec> CodecRegistry::make(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string known;
    for (const auto& [n, e] : entries_) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::out_of_range("unknown ECC scheme \"" + std::string(name) +
                            "\" (known: " + known + ")");
  }
  if (it->second.cached == nullptr) {
    it->second.cached = it->second.factory();
  }
  return it->second.cached;
}

bool CodecRegistry::contains(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.find(name) != entries_.end();
}

std::vector<std::string> CodecRegistry::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [n, e] : entries_) out.push_back(n);
  return out;
}

std::shared_ptr<const Codec> make_codec(std::string_view name) {
  return CodecRegistry::instance().make(name);
}

std::vector<std::string> registered_codecs() {
  return CodecRegistry::instance().names();
}

bool codec_registered(std::string_view name) {
  return CodecRegistry::instance().contains(name);
}

bool register_codec(std::string name, CodecFactory factory) {
  CodecRegistry::instance().add(std::move(name), std::move(factory));
  return true;
}

}  // namespace laec::ecc
