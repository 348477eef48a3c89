//===- Rng.h - Deterministic random number generation ----------*- C++ -*-===//
//
// Part of the pathfuzz project: a reproduction of "Towards Path-Aware
// Coverage-Guided Fuzzing" (CGO 2026).
//
//===----------------------------------------------------------------------===//
//
// A small, fast, deterministic PRNG used throughout the fuzzer. All fuzzing
// randomness flows through one Rng instance per campaign so that campaigns
// are exactly reproducible from a 64-bit seed, which the evaluation harness
// relies on to attribute bug-finding differences to the feedback mechanism
// rather than to nondeterminism.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_SUPPORT_RNG_H
#define PATHFUZZ_SUPPORT_RNG_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pathfuzz {

/// SplitMix64 step; used both for seeding and as a cheap stateless mixer.
inline uint64_t splitMix64(uint64_t &State) {
  State += 0x9e3779b97f4a7c15ULL;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// Stateless 64-bit finalizer (the SplitMix64 output function).
inline uint64_t mix64(uint64_t X) {
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// xoshiro256** PRNG. Deterministic, fast, and good enough for fuzzing;
/// mirrors the role of AFL++'s internal PRNG.
class Rng {
public:
  explicit Rng(uint64_t Seed = 0x243f6a8885a308d3ULL) { reseed(Seed); }

  /// Re-initialize the full state from a 64-bit seed via SplitMix64.
  void reseed(uint64_t Seed) {
    for (auto &Word : S)
      Word = splitMix64(Seed);
  }

  /// Next raw 64-bit value.
  uint64_t next() {
    uint64_t Result = rotl(S[1] * 5, 7) * 9;
    uint64_t T = S[1] << 17;
    S[2] ^= S[0];
    S[3] ^= S[1];
    S[1] ^= S[2];
    S[0] ^= S[3];
    S[2] ^= T;
    S[3] = rotl(S[3], 45);
    return Result;
  }

  /// Uniform value in [0, Bound). Bound must be nonzero.
  uint64_t below(uint64_t Bound) {
    assert(Bound != 0 && "below() requires a nonzero bound");
    // Debiased by rejecting the lowest 2^64 mod Bound draws. That
    // threshold (-Bound % Bound) is below Bound, so a draw of at least
    // Bound is accepted without computing it: one division per draw, and
    // the same value and stream position as the full rejection loop.
    uint64_t R = next();
    if (R < Bound) {
      const uint64_t Threshold = -Bound % Bound;
      while (R < Threshold)
        R = next();
    }
    return R % Bound;
  }

  /// Uniform value in [Lo, Hi] inclusive.
  int64_t range(int64_t Lo, int64_t Hi) {
    assert(Lo <= Hi && "invalid range");
    return Lo + static_cast<int64_t>(below(static_cast<uint64_t>(Hi - Lo) + 1));
  }

  /// True with probability Num/Den.
  bool chance(uint64_t Num, uint64_t Den) { return below(Den) < Num; }

  /// True with probability 1/N.
  bool oneIn(uint64_t N) { return below(N) == 0; }

  /// Random element of a non-empty vector.
  template <typename T> const T &pick(const std::vector<T> &Xs) {
    assert(!Xs.empty() && "pick() from empty vector");
    return Xs[below(Xs.size())];
  }

  /// Random index into a container of the given size.
  size_t index(size_t Size) { return static_cast<size_t>(below(Size)); }

  /// Copy out the full 256-bit generator state (checkpoint support).
  void saveState(uint64_t Out[4]) const {
    for (int I = 0; I < 4; ++I)
      Out[I] = S[I];
  }

  /// Restore a state captured by saveState(); the stream continues from
  /// exactly that position.
  void loadState(const uint64_t In[4]) {
    for (int I = 0; I < 4; ++I)
      S[I] = In[I];
  }

private:
  static uint64_t rotl(uint64_t X, int K) {
    return (X << K) | (X >> (64 - K));
  }

  uint64_t S[4];
};

} // namespace pathfuzz

#endif // PATHFUZZ_SUPPORT_RNG_H
