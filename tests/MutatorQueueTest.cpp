//===- MutatorQueueTest.cpp - Mutation engine and corpus ----------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Mutator.h"
#include "fuzz/Queue.h"
#include "support/Hashing.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace pathfuzz;
using namespace pathfuzz::fuzz;

namespace {

TEST(Mutator, DeterministicForSeed) {
  MutatorConfig MC;
  Rng A(5), B(5);
  Mutator MA(A, MC), MB(B, MC);
  Input Da = {1, 2, 3, 4, 5}, Db = Da;
  std::vector<int64_t> Dict = {0x41};
  for (int I = 0; I < 50; ++I) {
    MA.havoc(Da, Dict);
    MB.havoc(Db, Dict);
    ASSERT_EQ(Da, Db) << "iteration " << I;
  }
}

TEST(Mutator, RespectsMaxLenAndNonEmpty) {
  MutatorConfig MC;
  MC.MaxLen = 32;
  Rng R(9);
  Mutator M(R, MC);
  Input Data = {1};
  for (int I = 0; I < 500; ++I) {
    M.havoc(Data, {});
    ASSERT_LE(Data.size(), MC.MaxLen);
    ASSERT_FALSE(Data.empty());
  }
}

TEST(Mutator, DictionaryValuesShowUp) {
  MutatorConfig MC;
  Rng R(13);
  Mutator M(R, MC);
  std::vector<int64_t> Dict = {0x77};
  int Hits = 0;
  for (int I = 0; I < 300; ++I) {
    Input Data(16, 0);
    M.havoc(Data, Dict);
    for (uint8_t B : Data)
      if (B == 0x77) {
        ++Hits;
        break;
      }
  }
  EXPECT_GT(Hits, 20);
}

TEST(Mutator, SpliceMixesInputs) {
  MutatorConfig MC;
  Rng R(17);
  Mutator M(R, MC);
  Input A(20, 'a');
  Input B(20, 'b');
  bool SawB = false;
  for (int I = 0; I < 50 && !SawB; ++I) {
    Input Data = A;
    M.splice(Data, B, {});
    for (uint8_t C : Data)
      SawB |= (C == 'b');
  }
  EXPECT_TRUE(SawB);
}

/// The havoc/splice stream of one seed, pinned: a digest over 20k
/// outputs (every mutation case, with and without a dictionary, through
/// the MaxLen clamp) and the Rng state afterwards. A mutator change that
/// moves either changes every campaign.
TEST(Mutator, HavocSpliceStreamPinned) {
  MutatorConfig MC;
  MC.MaxLen = 96;
  Rng R(0x5eed);
  Mutator M(R, MC);
  const std::vector<int64_t> Dict = {0x41, 7, 300, 65537, -2};
  const std::vector<int64_t> NoDict;
  const Input Donor = {'s', 'p', 'l', 'i', 'c', 'e', 0, 1, 2, 3, 4, 5};
  Input Data = {1, 2, 3, 4, 5, 6, 7, 8};
  uint64_t H = FnvOffset;
  for (int I = 0; I < 20000; ++I) {
    const std::vector<int64_t> &D = I % 5 == 4 ? NoDict : Dict;
    if (I % 4 == 3)
      M.splice(Data, Donor, D);
    else
      M.havoc(Data, D);
    const uint64_t Len = Data.size();
    H = fnv1a(&Len, sizeof(Len), H);
    H = fnv1a(Data.data(), Data.size(), H);
  }
  uint64_t S[4];
  R.saveState(S);
  EXPECT_EQ(H, 0x0a0131330930b7daULL);
  EXPECT_EQ(S[0], 0x9f54e554f7210ee4ULL);
  EXPECT_EQ(S[1], 0xf4168e7a2420fe07ULL);
  EXPECT_EQ(S[2], 0x99f15258b77b347cULL);
  EXPECT_EQ(S[3], 0xd6c069bab8e9f577ULL);
}

QueueEntry entry(uint64_t Steps, std::vector<uint32_t> MapSet,
                 std::vector<uint32_t> EdgeSet = {}) {
  QueueEntry E;
  E.Data = {1};
  E.Steps = Steps;
  E.MapSet = std::move(MapSet);
  E.EdgeSet = std::move(EdgeSet);
  return E;
}

TEST(Corpus, ScoreSaturatesInsteadOfWrapping) {
  QueueEntry Cheap;
  Cheap.Steps = 3;
  Cheap.Data.assign(4, 0);
  EXPECT_EQ(Cheap.score(), 15u); // 3 * (4 + 1): exact when it fits

  // A pathological steps/size pair used to wrap Steps * (len + 1) around
  // uint64_t and rank *below* honest entries; it must saturate to worst.
  QueueEntry Huge;
  Huge.Steps = UINT64_MAX / 2;
  Huge.Data.assign(16, 0);
  EXPECT_EQ(Huge.score(), UINT64_MAX);
  EXPECT_GT(Huge.score(), Cheap.score());
}

TEST(Corpus, FavoredMarksMinimalCoveringSet) {
  Corpus Q(64);
  Q.add(entry(10, {1, 2, 3}));
  Q.add(entry(5, {1}));       // cheaper for index 1
  Q.add(entry(100, {7}));     // sole owner of 7
  Q.add(entry(1000, {2, 3})); // dominated: never favored
  Q.cullIfNeeded();
  EXPECT_TRUE(Q[0].Favored);  // cheapest for 2 and 3
  EXPECT_TRUE(Q[1].Favored);  // cheapest for 1
  EXPECT_TRUE(Q[2].Favored);
  EXPECT_FALSE(Q[3].Favored);
  EXPECT_EQ(Q.favoredCount(), 3u);
  EXPECT_EQ(Q.pendingFavored(), 3u);
  Q.markFuzzed(0);
  EXPECT_EQ(Q.pendingFavored(), 2u);
}

/// AFL's cull_queue over the dense top-rated table: the reference the
/// corpus's rated-index walk must reproduce.
std::vector<bool> referenceFavored(const Corpus &Q) {
  const std::vector<int32_t> &Top = Q.topRatedTable();
  std::vector<uint8_t> Uncovered(Top.size(), 1);
  std::vector<bool> Fav(Q.size(), false);
  for (size_t MapIdx = 0; MapIdx < Top.size(); ++MapIdx) {
    if (!Uncovered[MapIdx] || Top[MapIdx] < 0)
      continue;
    Fav[static_cast<size_t>(Top[MapIdx])] = true;
    for (uint32_t Idx : Q[static_cast<size_t>(Top[MapIdx])].MapSet)
      Uncovered[Idx] = 0;
  }
  return Fav;
}

std::vector<bool> favoredMarks(const Corpus &Q) {
  std::vector<bool> Fav;
  for (const QueueEntry &E : Q.entries())
    Fav.push_back(E.Favored);
  return Fav;
}

TEST(Corpus, SparseCullMatchesDenseReference) {
  // Random corpora grown in bursts with a cull after each, then carried
  // through restoreState (which rebuilds the rated-index list) and grown
  // further: every pass must mark exactly the dense walk's favored set.
  Rng R(0xc011);
  for (int Trial = 0; Trial < 40; ++Trial) {
    const uint32_t MapSize = 1u << (6 + R.below(9));
    Corpus Q(MapSize);
    for (int Burst = 0; Burst < 6; ++Burst) {
      for (int K = 0, N = 1 + static_cast<int>(R.below(12)); K < N; ++K) {
        std::set<uint32_t> Set;
        for (int I = 0, M = static_cast<int>(R.below(20)); I < M; ++I)
          Set.insert(static_cast<uint32_t>(R.below(MapSize)));
        Q.add(entry(1 + R.below(50), {Set.begin(), Set.end()}));
      }
      Q.cullIfNeeded();
      ASSERT_EQ(favoredMarks(Q), referenceFavored(Q))
          << "trial " << Trial << " burst " << Burst;

      if (Burst == 2) {
        Corpus Restored(MapSize);
        Restored.restoreState(Q.entries(), Q.topRatedTable(), true,
                              Q.pendingFavored(), Q.cullPasses());
        Q = std::move(Restored);
        Q.cullIfNeeded();
        ASSERT_EQ(favoredMarks(Q), referenceFavored(Q)) << "after restore";
      }
    }
  }
}

TEST(Corpus, EdgePreservingSubsetCoversAllEdges) {
  Corpus Q(16);
  Q.add(entry(10, {0}, {100, 101}));
  Q.add(entry(1, {1}, {101}));
  Q.add(entry(10, {2}, {102}));
  Q.add(entry(10, {3}, {100, 101, 102})); // expensive superset
  std::vector<size_t> Sub = Q.edgePreservingSubset();

  std::set<uint32_t> Covered;
  for (size_t I : Sub)
    for (uint32_t E : Q[I].EdgeSet)
      Covered.insert(E);
  EXPECT_EQ(Covered, (std::set<uint32_t>{100, 101, 102}));
  EXPECT_LT(Sub.size(), Q.size());
}

TEST(Corpus, EdgeSubsetOnRandomCorpusNeverRegresses) {
  Rng R(23);
  Corpus Q(32);
  std::set<uint32_t> All;
  for (int I = 0; I < 60; ++I) {
    std::vector<uint32_t> Edges;
    unsigned N = 1 + R.below(6);
    for (unsigned K = 0; K < N; ++K)
      Edges.push_back(static_cast<uint32_t>(R.below(40)));
    std::sort(Edges.begin(), Edges.end());
    Edges.erase(std::unique(Edges.begin(), Edges.end()), Edges.end());
    All.insert(Edges.begin(), Edges.end());
    Q.add(entry(1 + R.below(100), {static_cast<uint32_t>(I % 32)}, Edges));
  }
  std::set<uint32_t> Covered;
  for (size_t I : Q.edgePreservingSubset())
    for (uint32_t E : Q[I].EdgeSet)
      Covered.insert(E);
  EXPECT_EQ(Covered, All) << "culling must preserve total edge coverage";
}

} // namespace
