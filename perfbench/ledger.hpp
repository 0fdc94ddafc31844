// Pure arithmetic behind the benchmark's ledger and output check: span self
// time, percentiles, the row digest and digest comparison. No simulator
// state is touched here, so selftest.cpp can pin every function on small
// hand-made inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// Self time of every event in `evs`, indexed like `evs`: a complete ('X')
/// span's duration minus the part of it covered by its direct children on
/// the same thread. Instants get 0. Spans on one thread nest by interval:
/// a span is a child of the innermost still-open span whose interval
/// contains its start. Equal intervals nest by record order (a child closes,
/// and is therefore recorded, before its parent).
[[nodiscard]] inline std::vector<std::uint64_t> self_times_us(
    const std::vector<laec::obs::TraceEvent>& evs) {
  std::vector<std::uint64_t> self(evs.size(), 0);
  std::map<std::uint32_t, std::vector<std::size_t>> by_tid;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    if (evs[i].phase != 'X') continue;
    self[i] = evs[i].dur_us;
    by_tid[evs[i].tid].push_back(i);
  }
  for (auto& [tid, idx] : by_tid) {
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      if (evs[a].ts_us != evs[b].ts_us) return evs[a].ts_us < evs[b].ts_us;
      if (evs[a].dur_us != evs[b].dur_us) return evs[a].dur_us > evs[b].dur_us;
      return a > b;
    });
    std::vector<std::size_t> open;
    for (const std::size_t i : idx) {
      const std::uint64_t start = evs[i].ts_us;
      // A span starting at or after the top's end is not inside it (a
      // zero-length child there would cover nothing anyway).
      while (!open.empty() &&
             start >= evs[open.back()].ts_us + evs[open.back()].dur_us) {
        open.pop_back();
      }
      if (!open.empty()) {
        const auto& parent = evs[open.back()];
        const std::uint64_t end =
            std::min(start + evs[i].dur_us, parent.ts_us + parent.dur_us);
        const std::uint64_t covered = end > start ? end - start : 0;
        self[open.back()] -= std::min(covered, self[open.back()]);
      }
      open.push_back(i);
    }
  }
  return self;
}

/// The q-quantile (0 <= q <= 1) of `v` by linear interpolation between
/// closest ranks (numpy's default, "inclusive" method). 0 for an empty
/// sample.
[[nodiscard]] inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double h = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// FNV-1a 64 of `text`, as 16 lowercase hex digits: the row digest.
[[nodiscard]] inline std::string digest(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, h >>= 4) out[static_cast<std::size_t>(i)] = kHex[h & 0xf];
  return out;
}

/// Digest of a CSV document independent of its row order: the header line,
/// then the data rows sorted. Row order follows the scheduling the seed
/// permutes; row contents must not.
[[nodiscard]] inline std::string row_digest(std::string_view csv) {
  std::vector<std::string_view> rows;
  while (!csv.empty()) {
    const std::size_t nl = csv.find('\n');
    rows.push_back(csv.substr(0, nl));
    csv.remove_prefix(nl == std::string_view::npos ? csv.size() : nl + 1);
  }
  if (!rows.empty()) std::sort(rows.begin() + 1, rows.end());
  std::string canonical;
  for (const auto row : rows) {
    canonical += row;
    canonical += '\n';
  }
  return digest(canonical);
}

/// How many of `digests` differ from `reference`.
[[nodiscard]] inline std::size_t count_mismatches(
    const std::vector<std::string>& digests, const std::string& reference) {
  return static_cast<std::size_t>(
      std::count_if(digests.begin(), digests.end(),
                    [&](const std::string& d) { return d != reference; }));
}

}  // namespace perfbench
