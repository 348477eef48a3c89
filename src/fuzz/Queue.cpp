//===- Queue.cpp - Fuzzing corpus and favored-set computation -----------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Queue.h"

#include <algorithm>
#include <unordered_map>

namespace pathfuzz {
namespace fuzz {

Corpus::Corpus(uint32_t MapSize) { TopRated.assign(MapSize, -1); }

void Corpus::add(QueueEntry Entry) {
  int32_t Index = static_cast<int32_t>(Entries.size());
  Entries.push_back(std::move(Entry));
  const QueueEntry &E = Entries.back();

  for (uint32_t MapIdx : E.MapSet) {
    int32_t Cur = TopRated[MapIdx];
    if (Cur < 0)
      Rated.push_back(MapIdx);
    if (Cur < 0 || E.score() < Entries[static_cast<size_t>(Cur)].score()) {
      TopRated[MapIdx] = Index;
      NeedCull = true;
    }
  }
}

void Corpus::cullIfNeeded() {
  if (!NeedCull)
    return;
  recomputeFavored();
}

void Corpus::markFuzzed(size_t Index) {
  QueueEntry &E = Entries[Index];
  if (E.Favored && !E.WasFuzzed && PendingFavoredCount > 0)
    --PendingFavoredCount;
  E.WasFuzzed = true;
}

void Corpus::recomputeFavored() {
  NeedCull = false;
  ++CullPasses;
  for (QueueEntry &E : Entries)
    E.Favored = false;

  // Indices rated since the last pass join the ascending list.
  if (RatedSorted < Rated.size()) {
    std::sort(Rated.begin() + RatedSorted, Rated.end());
    std::inplace_merge(Rated.begin(), Rated.begin() + RatedSorted,
                       Rated.end());
    RatedSorted = Rated.size();
  }
  if (Claimed.size() != (TopRated.size() + 63) / 64)
    Claimed.assign((TopRated.size() + 63) / 64, 0);

  // AFL's cull_queue: walk the map in index order; the first top-rated
  // entry owning a still-unclaimed index becomes favored and claims its
  // whole trace. Indices without a top-rated entry cannot claim anything,
  // so the walk visits only the rated ones.
  for (uint32_t MapIdx : Rated) {
    if (Claimed[MapIdx / 64] & (uint64_t(1) << (MapIdx % 64)))
      continue;
    QueueEntry &E = Entries[static_cast<size_t>(TopRated[MapIdx])];
    E.Favored = true;
    for (uint32_t Idx : E.MapSet)
      Claimed[Idx / 64] |= uint64_t(1) << (Idx % 64);
  }
  // Hand the bitmap to the next pass all-clear again, touching only the
  // words this pass set.
  for (const QueueEntry &E : Entries)
    if (E.Favored)
      for (uint32_t Idx : E.MapSet)
        Claimed[Idx / 64] = 0;

  PendingFavoredCount = 0;
  for (const QueueEntry &E : Entries)
    PendingFavoredCount += (E.Favored && !E.WasFuzzed);
}

void Corpus::restoreState(std::vector<QueueEntry> NewEntries,
                          std::vector<int32_t> NewTopRated, bool NewNeedCull,
                          uint32_t NewPendingFavored, uint64_t NewCullPasses) {
  Entries = std::move(NewEntries);
  TopRated = std::move(NewTopRated);
  Rated.clear();
  for (uint32_t MapIdx = 0; MapIdx < TopRated.size(); ++MapIdx)
    if (TopRated[MapIdx] >= 0)
      Rated.push_back(MapIdx);
  RatedSorted = Rated.size();
  NeedCull = NewNeedCull;
  PendingFavoredCount = NewPendingFavored;
  CullPasses = NewCullPasses;
}

uint32_t Corpus::favoredCount() const {
  uint32_t N = 0;
  for (const QueueEntry &E : Entries)
    N += E.Favored;
  return N;
}

std::vector<size_t> Corpus::edgePreservingSubset() const {
  // Top-rated over *edges* (computed on demand; edge IDs are sparse so a
  // hash map replaces the dense table).
  std::unordered_map<uint32_t, size_t> Best;
  for (size_t I = 0; I < Entries.size(); ++I) {
    for (uint32_t Edge : Entries[I].EdgeSet) {
      auto It = Best.find(Edge);
      if (It == Best.end() || Entries[I].score() < Entries[It->second].score())
        Best[Edge] = I;
    }
  }

  std::vector<uint8_t> Taken(Entries.size(), 0);
  // Greedy pass in ascending edge-ID order for determinism.
  std::vector<uint32_t> EdgeIds;
  EdgeIds.reserve(Best.size());
  for (const auto &[Edge, _] : Best)
    EdgeIds.push_back(Edge);
  std::sort(EdgeIds.begin(), EdgeIds.end());

  std::unordered_map<uint32_t, bool> EdgeCovered;
  std::vector<size_t> Result;
  for (uint32_t Edge : EdgeIds) {
    if (EdgeCovered[Edge])
      continue;
    size_t E = Best[Edge];
    if (!Taken[E]) {
      Taken[E] = 1;
      Result.push_back(E);
    }
    for (uint32_t Covers : Entries[E].EdgeSet)
      EdgeCovered[Covers] = true;
  }
  std::sort(Result.begin(), Result.end());
  return Result;
}

} // namespace fuzz
} // namespace pathfuzz
