// Lightweight named-counter registry used by every simulated structure.
//
// A StatSet owns an ordered collection of counters; structures register
// counters once at construction and bump them on the hot path through a
// plain u64 reference, so instrumentation costs one increment.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace laec {

/// Ordered set of named 64-bit counters.
class StatSet {
 public:
  /// Returns a stable reference to the counter named `name`, creating it
  /// (zero-initialized) on first use. References remain valid for the
  /// lifetime of the StatSet.
  u64& counter(const std::string& name);

  /// Value of a counter, or 0 when it was never registered.
  [[nodiscard]] u64 value(const std::string& name) const;

  /// All counters in registration order.
  [[nodiscard]] std::vector<std::pair<std::string, u64>> items() const;

  /// Reset every counter to zero (registrations are kept).
  void clear();

  /// Merge: add every counter of `other` into this set.
  void add(const StatSet& other);

 private:
  // Deque-like stability: counters are stored in a list of chunks so that
  // `counter()` references never dangle as the set grows.
  static constexpr std::size_t kChunk = 64;
  std::vector<std::unique_ptr<u64[]>> chunks_;
  std::vector<std::string> names_;           // registration order
  std::map<std::string, std::size_t> index_; // name -> slot
  u64& slot(std::size_t i);
  [[nodiscard]] const u64& slot(std::size_t i) const;
};

/// Fixed-bucket histogram for small integer samples (e.g. stall lengths).
class Histogram {
 public:
  explicit Histogram(std::size_t buckets = 16) : buckets_(buckets, 0) {}

  void record(u64 v) {
    ++count_;
    sum_ += v;
    if (v >= buckets_.size()) {
      ++overflow_;
    } else {
      ++buckets_[v];
    }
  }

  [[nodiscard]] u64 count() const { return count_; }
  [[nodiscard]] u64 sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  [[nodiscard]] u64 bucket(std::size_t i) const { return buckets_.at(i); }
  [[nodiscard]] u64 overflow() const { return overflow_; }
  [[nodiscard]] std::size_t num_buckets() const { return buckets_.size(); }

 private:
  std::vector<u64> buckets_;
  u64 overflow_ = 0;
  u64 count_ = 0;
  u64 sum_ = 0;
};

}  // namespace laec
