// Deterministic xoshiro256** PRNG. Simulation results must be reproducible
// bit-for-bit across runs and platforms, so we do not use std::mt19937 (whose
// distributions are not portable) anywhere in the library.
#pragma once

#include <cassert>

#include "common/hash.hpp"
#include "common/types.hpp"

namespace laec {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm),
/// seeded via splitmix64 so that any 64-bit seed gives a good state.
class Rng {
 public:
  explicit Rng(u64 seed = kSplitmixGamma) { reseed(seed); }

  void reseed(u64 seed) {
    for (auto& w : s_) {
      w = splitmix64(seed);
      seed += kSplitmixGamma;
    }
  }

  /// Uniform 64-bit value.
  u64 next_u64() {
    const u64 result = rotl(s_[1] * 5, 7) * 9;
    const u64 t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform 32-bit value.
  u32 next_u32() { return static_cast<u32>(next_u64() >> 32); }

  /// Uniform integer in [0, bound). bound must be nonzero.
  u64 below(u64 bound) {
    assert(bound != 0);
    // Debiased multiply-shift (Lemire); the retry loop terminates quickly.
    for (;;) {
      const u64 x = next_u64();
      const auto m = static_cast<unsigned __int128>(x) * bound;
      const u64 l = static_cast<u64>(m);
      if (l >= bound || l >= (u64{0} - bound) % bound) {
        return static_cast<u64>(m >> 64);
      }
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  i64 range(i64 lo, i64 hi) {
    assert(lo <= hi);
    return lo + static_cast<i64>(below(static_cast<u64>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

 private:
  static constexpr u64 rotl(u64 x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  u64 s_[4]{};
};

}  // namespace laec
