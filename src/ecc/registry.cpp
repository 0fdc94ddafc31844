#include "ecc/registry.hpp"

#include <stdexcept>
#include <utility>

namespace laec::ecc {

CodecRegistry& CodecRegistry::instance() {
  static CodecRegistry reg;
  return reg;
}

CodecRegistry::CodecRegistry() {
  const auto builtin = [this](std::string name, CodecFactory f) {
    entries_.emplace(std::move(name), Entry{std::move(f), nullptr, {}});
  };
  // A linear code under its canonical name (and a legacy alias, if any).
  const auto linear = [&](std::string name, LinearCode (*code)(),
                          std::string alias = {}) {
    if (!alias.empty()) {
      entries_.emplace(std::move(alias), Entry{nullptr, nullptr, name});
    }
    builtin(name, [name, code] {
      return std::make_shared<const LinearCodec>(name, code());
    });
  };
  builtin("none", [] { return std::make_shared<const NoneCodec>(); });
  linear("parity-32", [] {
    return LinearCode(1, parity_columns(32, 1), Corrects::kNothing);
  }, "parity");
  linear("parity-i2-32", [] {
    return LinearCode(2, parity_columns(32, 2), Corrects::kNothing);
  });
  linear("secded-39-32", [] {
    return LinearCode(7, hsiao_columns(32, 7), Corrects::kSingles);
  }, "secded");
  linear("secded-72-64", [] {
    return LinearCode(8, hsiao_columns(64, 8), Corrects::kSingles);
  });
  linear("sec-daec-39-32", [] {
    return LinearCode(7, burst_columns(32, 7, 2, {3, 5, 7}),
                      Corrects::kBursts2);
  }, "sec-daec");
  linear("sec-daec-72-64", [] {
    return LinearCode(8, burst_columns(64, 8, 2, {3, 5, 7}),
                      Corrects::kBursts2);
  });
  linear("sec-daec-taec-45-32", [] {
    return LinearCode(13, burst_columns(32, 13, 3, {3, 5}),
                      Corrects::kBursts3);
  });
  linear("dec-bch-45-32", [] {
    return LinearCode(13, dec_bch_columns(32), Corrects::kPairs);
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
  const auto [it, inserted] = entries_.emplace(
      std::move(name), Entry{std::move(factory), nullptr, {}});
  if (!inserted) {
    throw std::invalid_argument("CodecRegistry: duplicate scheme name \"" +
                                it->first + "\"");
  }
}

std::shared_ptr<const Codec> CodecRegistry::make(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string known;
    for (const auto& [n, e] : entries_) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::out_of_range("unknown ECC scheme \"" + std::string(name) +
                            "\" (known: " + known + ")");
  }
  if (!it->second.alias_of.empty()) it = entries_.find(it->second.alias_of);
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

const LinearCode& linear_code(std::string_view name) {
  // The registry keeps every codec it built, so the code outlives the call.
  const auto* c = dynamic_cast<const LinearCodec*>(make_codec(name).get());
  if (c == nullptr) {
    throw std::invalid_argument("codec \"" + std::string(name) +
                                "\" is not a linear code");
  }
  return c->code();
}

}  // namespace laec::ecc
