// The library's non-cryptographic hashes, one definition each: splitmix64
// (seed derivation and state mixing) and byte-wise FNV-1a (identity and
// integrity of serialized bytes). Every seed, checkpoint checksum and
// campaign identity depends on these exact values, so they never change.
#pragma once

#include <string_view>

#include "common/types.hpp"

namespace laec {

/// splitmix64's increment (2^64 / golden ratio, odd).
inline constexpr u64 kSplitmixGamma = 0x9e3779b97f4a7c15ull;

/// splitmix64's output finalizer: every input bit reaches every output bit.
[[nodiscard]] constexpr u64 mix64(u64 z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One splitmix64 step from state `x`: the output for state x + gamma.
[[nodiscard]] constexpr u64 splitmix64(u64 x) {
  return mix64(x + kSplitmixGamma);
}

/// FNV-1a 64's prime and its standard offset basis.
inline constexpr u64 kFnvPrime = 0x100000001b3ull;
inline constexpr u64 kFnvOffset = 14695981039346656037ull;
/// The offset basis of the checkpoint checksum, the campaign identity and
/// the snapshot frame checksum: kFnvOffset with its last decimal digit
/// dropped. Reference checkpoints, job identities and snapshot blobs pin
/// it, so it stays.
inline constexpr u64 kFnvPinnedOffset = 1469598103934665603ull;

/// Byte-wise FNV-1a 64 over `data`, starting from `basis`: the integrity
/// and identity hash of checkpoint files and campaign configurations (the
/// default basis), and the workload-name term of a point's seed
/// (kFnvOffset). Not cryptographic — it guards against truncation, bit rot
/// and resuming under a changed configuration, not against an adversary.
[[nodiscard]] constexpr u64 fnv1a(std::string_view data,
                                  u64 basis = kFnvPinnedOffset) {
  u64 h = basis;
  for (const char c : data) {
    h ^= static_cast<u8>(c);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace laec
