//===- Hashing.h - Hashing helpers ------------------------------*- C++ -*-===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// Hash utilities shared by the coverage map indexing, crash deduplication
// (stack-trace hashing with the top-5 frames, per the paper's triage
// methodology), and the PathAFL-style whole-program path hashing.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_SUPPORT_HASHING_H
#define PATHFUZZ_SUPPORT_HASHING_H

#include "support/Rng.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace pathfuzz {

constexpr uint64_t FnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t FnvPrime = 0x100000001b3ULL;

/// FNV-1a over a byte buffer.
inline uint64_t fnv1a(const void *Data, size_t Size,
                      uint64_t Seed = FnvOffset) {
  const auto *Bytes = static_cast<const unsigned char *>(Data);
  uint64_t H = Seed;
  for (size_t I = 0; I < Size; ++I) {
    H ^= Bytes[I];
    H *= FnvPrime;
  }
  return H;
}

/// fnv1a(Zeros, Count, H) for Count zero bytes without reading them: a
/// zero byte XORs nothing in, so the run is one multiplication by
/// FnvPrime^Count (mod 2^64), here by square-and-multiply.
inline uint64_t fnv1aZeros(uint64_t H, uint64_t Count) {
  for (uint64_t P = FnvPrime; Count; Count >>= 1, P *= P)
    if (Count & 1)
      H *= P;
  return H;
}

inline uint64_t fnv1a(const std::string &S) { return fnv1a(S.data(), S.size()); }

/// Boost-style hash combination with a 64-bit mixer.
inline uint64_t hashCombine(uint64_t Seed, uint64_t Value) {
  return mix64(Seed ^ (Value + 0x9e3779b97f4a7c15ULL + (Seed << 6) +
                       (Seed >> 2)));
}

} // namespace pathfuzz

#endif // PATHFUZZ_SUPPORT_HASHING_H
