#include "common/stats.hpp"

#include <cassert>

namespace laec {

u64& StatSet::slot(std::size_t i) {
  return chunks_[i / kChunk][i % kChunk];
}

const u64& StatSet::slot(std::size_t i) const {
  return chunks_[i / kChunk][i % kChunk];
}

u64& StatSet::counter(const std::string& name) {
  auto it = index_.find(name);
  if (it != index_.end()) return slot(it->second);
  const std::size_t i = names_.size();
  if (i % kChunk == 0) {
    chunks_.push_back(std::make_unique<u64[]>(kChunk));
    for (std::size_t j = 0; j < kChunk; ++j) chunks_.back()[j] = 0;
  }
  names_.push_back(name);
  index_.emplace(name, i);
  return slot(i);
}

u64 StatSet::value(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? 0 : slot(it->second);
}

std::vector<std::pair<std::string, u64>> StatSet::items() const {
  std::vector<std::pair<std::string, u64>> out;
  out.reserve(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    out.emplace_back(names_[i], slot(i));
  }
  return out;
}

void StatSet::clear() {
  for (std::size_t i = 0; i < names_.size(); ++i) slot(i) = 0;
}

void StatSet::add(const StatSet& other) {
  for (const auto& [name, v] : other.items()) counter(name) += v;
}

}  // namespace laec
