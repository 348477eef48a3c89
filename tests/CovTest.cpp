//===- CovTest.cpp - Coverage map and novelty detection -----------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "cov/CoverageMap.h"

#include "support/Hashing.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

using namespace pathfuzz;
using namespace pathfuzz::cov;

namespace {

TEST(CoverageMap, BucketingMatchesAfl) {
  EXPECT_EQ(CoverageMap::bucketFor(0), 0);
  EXPECT_EQ(CoverageMap::bucketFor(1), 1);
  EXPECT_EQ(CoverageMap::bucketFor(2), 2);
  EXPECT_EQ(CoverageMap::bucketFor(3), 4);
  EXPECT_EQ(CoverageMap::bucketFor(4), 8);
  EXPECT_EQ(CoverageMap::bucketFor(7), 8);
  EXPECT_EQ(CoverageMap::bucketFor(8), 16);
  EXPECT_EQ(CoverageMap::bucketFor(15), 16);
  EXPECT_EQ(CoverageMap::bucketFor(16), 32);
  EXPECT_EQ(CoverageMap::bucketFor(31), 32);
  EXPECT_EQ(CoverageMap::bucketFor(32), 64);
  EXPECT_EQ(CoverageMap::bucketFor(127), 64);
  EXPECT_EQ(CoverageMap::bucketFor(128), 128);
  EXPECT_EQ(CoverageMap::bucketFor(255), 128);
}

TEST(CoverageMap, ClassifiedValuesAreSingleBitBuckets) {
  // Classified entries are one-hot bucket masks (that is what lets the
  // virgin map track per-bucket novelty with bitwise AND). Note AFL's
  // classification is deliberately *not* idempotent — it runs exactly
  // once per trace.
  CoverageMap Map(8);
  Rng R(1);
  for (int I = 0; I < 100; ++I)
    Map.data()[R.below(Map.size())] = static_cast<uint8_t>(R.next());
  Map.classifyCounts();
  for (uint32_t I = 0; I < Map.size(); ++I) {
    uint8_t V = Map.data()[I];
    EXPECT_TRUE(V == 0 || (V & (V - 1)) == 0) << "value " << int(V);
  }
}

TEST(CoverageMap, ClassifyMatchesScalarReference) {
  CoverageMap Map(10);
  Rng R(7);
  std::vector<uint8_t> Ref(Map.size(), 0);
  for (int I = 0; I < 500; ++I) {
    uint32_t Idx = static_cast<uint32_t>(R.below(Map.size()));
    uint8_t V = static_cast<uint8_t>(R.next());
    Map.data()[Idx] = V;
    Ref[Idx] = V;
  }
  Map.classifyCounts();
  for (uint32_t I = 0; I < Map.size(); ++I)
    ASSERT_EQ(Map.data()[I], CoverageMap::bucketFor(Ref[I])) << I;
}

TEST(CoverageMap, CountBytes) {
  CoverageMap Map(8);
  EXPECT_EQ(Map.countBytes(), 0u);
  Map.data()[3] = 1;
  Map.data()[200] = 128;
  EXPECT_EQ(Map.countBytes(), 2u);
  Map.reset();
  EXPECT_EQ(Map.countBytes(), 0u);
}

TEST(VirginMap, DetectsNewEdgesThenNewCountsThenNothing) {
  CoverageMap Trace(8);
  VirginMap Virgin(Trace.size());

  Trace.data()[10] = 1;
  Trace.classifyCounts();
  EXPECT_EQ(Virgin.hasNewBits(Trace), Novelty::NewEdges);
  EXPECT_EQ(Virgin.hasNewBits(Trace), Novelty::None);

  // Same entry, higher hit bucket: NewCounts.
  Trace.reset();
  Trace.data()[10] = 9; // bucket 16
  Trace.classifyCounts();
  EXPECT_EQ(Virgin.hasNewBits(Trace), Novelty::NewCounts);
  EXPECT_EQ(Virgin.hasNewBits(Trace), Novelty::None);

  // A different entry: NewEdges again, even with old entries present.
  Trace.data()[99] = 1;
  Trace.classifyCounts();
  EXPECT_EQ(Virgin.hasNewBits(Trace), Novelty::NewEdges);
  EXPECT_EQ(Virgin.coveredEntries(), 2u);
}

TEST(VirginMap, WouldHaveAgreesWithHas) {
  Rng R(3);
  for (int Round = 0; Round < 50; ++Round) {
    CoverageMap Trace(6);
    VirginMap Virgin(Trace.size());
    // Pre-populate the virgin map.
    for (int I = 0; I < 20; ++I) {
      Trace.data()[R.below(Trace.size())] = static_cast<uint8_t>(R.next());
    }
    Trace.classifyCounts();
    Virgin.hasNewBits(Trace);

    CoverageMap Next(6);
    for (int I = 0; I < 10; ++I)
      Next.data()[R.below(Next.size())] = static_cast<uint8_t>(R.next());
    Next.classifyCounts();
    Novelty Predicted = Virgin.wouldHaveNewBits(Next);
    Novelty Actual = Virgin.hasNewBits(Next);
    ASSERT_EQ(Predicted, Actual) << "round " << Round;
    ASSERT_EQ(Virgin.hasNewBits(Next), Novelty::None);
  }
}

TEST(Fnv, ZeroRunEqualsHashingZeros) {
  std::vector<uint8_t> Zeros(5000, 0);
  for (uint64_t N : {0u, 1u, 2u, 3u, 63u, 64u, 65u, 4096u, 5000u}) {
    const uint64_t Seed = fnv1a("seed", 4);
    EXPECT_EQ(fnv1aZeros(Seed, N), fnv1a(Zeros.data(), N, Seed)) << N;
  }
}

/// Write V at Index the way an engine does: the byte plus its line flag.
void engineWrite(CoverageMap &M, uint32_t Index, uint8_t V) {
  M.data()[Index] = V;
  M.lineFlags()[Index >> LineShift] = 1;
}

/// Fill a map three ways: a few random hits, a dense random fill, or
/// every byte 0xff.
void fillMap(CoverageMap &M, Rng &R, int Shape) {
  if (Shape == 2) {
    for (uint32_t I = 0; I < M.size(); ++I)
      engineWrite(M, I, 0xff);
    return;
  }
  const uint32_t Writes = Shape == 0 ? 1 + static_cast<uint32_t>(R.below(24))
                                     : M.size() / 2;
  for (uint32_t K = 0; K < Writes; ++K)
    engineWrite(M, static_cast<uint32_t>(R.below(M.size())),
                static_cast<uint8_t>(1 + R.below(255)));
}

TEST(CoverageMap, TouchedPipelineEqualsFullReference) {
  // Every sparse stage must return exactly what its full-map reference
  // returns, on sparse, dense and saturated maps of every size from one
  // line to the default 2^16, across repeated executions of one map (so
  // resetTouched's partial zeroing is exercised too).
  Rng R(0x70c4ed);
  for (uint32_t Log2 = CoverageMap::MinSizeLog2; Log2 <= 16; ++Log2) {
    CoverageMap Sparse(Log2);
    VirginMap VSparse(Sparse.size()), VRef(Sparse.size());
    for (int Round = 0; Round < 24; ++Round) {
      const int Shape = Round % 8 == 7 ? 2 : (Round % 4 == 3 ? 1 : 0);
      Sparse.resetTouched();
      ASSERT_EQ(Sparse.countBytes(), 0u) << "2^" << Log2 << " round " << Round;
      fillMap(Sparse, R, Shape);
      CoverageMap Ref = Sparse; // the raw counts, for the reference walk
      Sparse.collectTouched();

      // The touched lines are exactly the lines holding a nonzero byte.
      std::vector<uint32_t> NonzeroLines;
      for (uint32_t L = 0; L < Sparse.numLines(); ++L)
        for (uint32_t I = L * LineBytes; I < (L + 1) * LineBytes; ++I)
          if (Sparse.data()[I]) {
            NonzeroLines.push_back(L);
            break;
          }
      ASSERT_EQ(Sparse.touchedLines(), NonzeroLines);

      Sparse.classifyTouched();
      Ref.classifyCounts();
      ASSERT_EQ(0, std::memcmp(Sparse.data(), Ref.data(), Ref.size()))
          << "classify, 2^" << Log2 << " round " << Round;

      ASSERT_EQ(VSparse.hasNewBitsTouched(Sparse), VRef.hasNewBits(Ref))
          << "novelty, 2^" << Log2 << " round " << Round;
      ASSERT_EQ(0, std::memcmp(VSparse.data(), VRef.data(), Ref.size()))
          << "virgin bytes, 2^" << Log2 << " round " << Round;

      std::vector<uint32_t> SparseSet, RefSet;
      Sparse.appendNonzeroTouched(SparseSet);
      for (uint32_t I = 0; I < Ref.size(); ++I)
        if (Ref.data()[I])
          RefSet.push_back(I);
      ASSERT_EQ(SparseSet, RefSet) << "2^" << Log2 << " round " << Round;

      ASSERT_EQ(Sparse.checksumTouched(), Ref.checksum())
          << "checksum, 2^" << Log2 << " round " << Round;
    }
  }
}

TEST(CoverageMap, EmptyTraceAndZeroFlaggedLines) {
  CoverageMap M(10);
  M.collectTouched();
  EXPECT_TRUE(M.touchedLines().empty());
  EXPECT_EQ(M.checksumTouched(), M.checksum());
  M.resetTouched();

  // A flagged line that holds only zeros changes nothing.
  engineWrite(M, 700, 1);
  engineWrite(M, 5, 1);
  engineWrite(M, 70, 3);
  engineWrite(M, 701, 2);
  M.lineFlags()[15] = 1;
  M.collectTouched();
  EXPECT_EQ(M.touchedLines(), (std::vector<uint32_t>{0, 1, 10, 15}));
  EXPECT_EQ(M.checksumTouched(), M.checksum());
  std::vector<uint32_t> Set;
  M.appendNonzeroTouched(Set);
  EXPECT_EQ(Set, (std::vector<uint32_t>{5, 70, 700, 701}));

  M.resetTouched();
  EXPECT_EQ(M.countBytes(), 0u);
  EXPECT_TRUE(M.touchedLines().empty());

  // The full reset drops flags and lines too.
  engineWrite(M, 3, 1);
  M.reset();
  M.collectTouched();
  EXPECT_TRUE(M.touchedLines().empty());
}

} // namespace
