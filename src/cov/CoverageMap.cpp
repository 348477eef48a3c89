//===- CoverageMap.cpp - AFL-style coverage map ------------------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "cov/CoverageMap.h"

#include "support/Hashing.h"

#include <cassert>

namespace pathfuzz {
namespace cov {

namespace {

/// AFL's count_class_lookup: power-of-two hit-count buckets.
struct BucketLut {
  uint8_t Lut[256];
  BucketLut() {
    Lut[0] = 0;
    Lut[1] = 1;
    Lut[2] = 2;
    Lut[3] = 4;
    for (int I = 4; I <= 7; ++I)
      Lut[I] = 8;
    for (int I = 8; I <= 15; ++I)
      Lut[I] = 16;
    for (int I = 16; I <= 31; ++I)
      Lut[I] = 32;
    for (int I = 32; I <= 127; ++I)
      Lut[I] = 64;
    for (int I = 128; I <= 255; ++I)
      Lut[I] = 128;
  }
};

const BucketLut Buckets;

/// Words per line: the touched-line walks reuse the word-at-a-time
/// kernels of the full-map functions one line at a time.
constexpr size_t LineWords = LineBytes / 8;

/// Bucket the nonzero words of Words[0, N) in place.
void classifyWords(uint64_t *Words, size_t N) {
  for (size_t W = 0; W < N; ++W) {
    if (!Words[W])
      continue;
    auto *Bytes = reinterpret_cast<uint8_t *>(&Words[W]);
    for (int I = 0; I < 8; ++I)
      Bytes[I] = Buckets.Lut[Bytes[I]];
  }
}

/// AFL's has_new_bits over N words of a classified trace and the matching
/// virgin words, folded into Result.
void newBitsWords(const uint64_t *TW, uint64_t *VW, size_t N,
                  Novelty &Result) {
  for (size_t W = 0; W < N; ++W) {
    uint64_t Cur = TW[W];
    if (!Cur || !(Cur & VW[W]))
      continue;
    const auto *TB = reinterpret_cast<const uint8_t *>(&TW[W]);
    auto *VB = reinterpret_cast<uint8_t *>(&VW[W]);
    for (int I = 0; I < 8; ++I) {
      uint8_t C = TB[I];
      if (C && (C & VB[I])) {
        if (Result != Novelty::NewEdges)
          Result = (VB[I] == 0xff) ? Novelty::NewEdges : Novelty::NewCounts;
        VB[I] &= static_cast<uint8_t>(~C);
      }
    }
  }
}

} // namespace

CoverageMap::CoverageMap(uint32_t SizeLog2) {
  assert(SizeLog2 >= MinSizeLog2 && SizeLog2 <= MaxSizeLog2 &&
         "unreasonable map size");
  Map.assign(size_t(1) << SizeLog2, 0);
  Flags.assign((numLines() + 7) & ~size_t(7), 0);
}

void CoverageMap::reset() {
  std::memset(Map.data(), 0, Map.size());
  std::memset(Flags.data(), 0, Flags.size());
  Touched.clear();
}

void CoverageMap::classifyCounts() {
  // Word-at-a-time with zero skipping: traces are sparse and this runs on
  // every execution (AFL applies the same optimization).
  classifyWords(reinterpret_cast<uint64_t *>(Map.data()), Map.size() / 8);
}

uint32_t CoverageMap::countBytes() const {
  uint32_t N = 0;
  for (uint8_t B : Map)
    N += (B != 0);
  return N;
}

uint64_t CoverageMap::checksum() const {
  return fnv1a(Map.data(), Map.size());
}

void CoverageMap::collectTouched() {
  assert(Touched.empty() && "collectTouched runs once per execution");
  auto *Words = reinterpret_cast<uint64_t *>(Flags.data());
  for (size_t W = 0; W < Flags.size() / 8; ++W) {
    if (!Words[W])
      continue;
    for (uint32_t L = static_cast<uint32_t>(W * 8); L < W * 8 + 8; ++L)
      if (Flags[L])
        Touched.push_back(L);
    Words[W] = 0;
  }
}

void CoverageMap::resetTouched() {
  for (uint32_t L : Touched)
    std::memset(Map.data() + (size_t(L) << LineShift), 0, LineBytes);
  Touched.clear();
}

void CoverageMap::classifyTouched() {
  auto *Words = reinterpret_cast<uint64_t *>(Map.data());
  for (uint32_t L : Touched)
    classifyWords(Words + size_t(L) * LineWords, LineWords);
}

uint64_t CoverageMap::checksumTouched() const {
  // The untouched lines between two touched ones are zero bytes; FNV-1a
  // folds a run of them into one multiplication.
  uint64_t H = FnvOffset;
  uint32_t Next = 0; // first line not yet hashed
  for (uint32_t L : Touched) {
    H = fnv1aZeros(H, uint64_t(L - Next) << LineShift);
    H = fnv1a(Map.data() + (size_t(L) << LineShift), LineBytes, H);
    Next = L + 1;
  }
  return fnv1aZeros(H, uint64_t(numLines() - Next) << LineShift);
}

void CoverageMap::appendNonzeroTouched(std::vector<uint32_t> &Out) const {
  const auto *Words = reinterpret_cast<const uint64_t *>(Map.data());
  for (uint32_t L : Touched) {
    const size_t First = size_t(L) * LineWords;
    for (size_t W = First; W < First + LineWords; ++W) {
      if (!Words[W])
        continue;
      for (size_t I = W * 8; I < W * 8 + 8; ++I)
        if (Map[I])
          Out.push_back(static_cast<uint32_t>(I));
    }
  }
}

uint8_t CoverageMap::bucketFor(uint8_t Count) { return Buckets.Lut[Count]; }

VirginMap::VirginMap(uint32_t Size) { Virgin.assign(Size, 0xff); }

Novelty VirginMap::hasNewBits(const CoverageMap &Trace) {
  assert(Trace.size() == Virgin.size() && "map size mismatch");
  Novelty Result = Novelty::None;
  newBitsWords(reinterpret_cast<const uint64_t *>(Trace.data()),
               reinterpret_cast<uint64_t *>(Virgin.data()),
               Virgin.size() / 8, Result);
  return Result;
}

Novelty VirginMap::hasNewBitsTouched(const CoverageMap &Trace) {
  assert(Trace.size() == Virgin.size() && "map size mismatch");
  Novelty Result = Novelty::None;
  const auto *TW = reinterpret_cast<const uint64_t *>(Trace.data());
  auto *VW = reinterpret_cast<uint64_t *>(Virgin.data());
  for (uint32_t L : Trace.touchedLines())
    newBitsWords(TW + size_t(L) * LineWords, VW + size_t(L) * LineWords,
                 LineWords, Result);
  return Result;
}

Novelty VirginMap::wouldHaveNewBits(const CoverageMap &Trace) const {
  assert(Trace.size() == Virgin.size() && "map size mismatch");
  Novelty Result = Novelty::None;
  const uint8_t *T = Trace.data();
  for (size_t I = 0; I < Virgin.size(); ++I) {
    uint8_t Cur = T[I];
    uint8_t V = Virgin[I];
    if (Cur && (Cur & V)) {
      if (V == 0xff)
        return Novelty::NewEdges;
      Result = Novelty::NewCounts;
    }
  }
  return Result;
}

uint32_t VirginMap::coveredEntries() const {
  uint32_t N = 0;
  for (uint8_t V : Virgin)
    N += (V != 0xff);
  return N;
}

} // namespace cov
} // namespace pathfuzz
