//===- Snapshot.cpp - Versioned, checksummed fuzzer-state snapshots -----------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Snapshot.h"

#include "support/Hashing.h"

#include <algorithm>

namespace pathfuzz {
namespace fuzz {

std::vector<uint8_t> sealSnapshot(std::vector<uint8_t> Payload) {
  ByteWriter W;
  W.u32(SnapshotMagic);
  W.u32(SnapshotVersion);
  W.u64(Payload.size());
  W.u64(fnv1a(Payload.data(), Payload.size()));
  W.bytes(Payload.data(), Payload.size());
  return W.take();
}

bool openSnapshot(const std::vector<uint8_t> &Blob,
                  std::vector<uint8_t> &Payload) {
  ByteReader R(Blob);
  if (R.u32() != SnapshotMagic)
    return false;
  if (R.u32() != SnapshotVersion)
    return false;
  uint64_t Len = R.u64();
  uint64_t Checksum = R.u64();
  if (!R.ok() || Len != R.remaining())
    return false;
  std::vector<uint8_t> P = R.raw(Len);
  if (!R.done() || fnv1a(P.data(), P.size()) != Checksum)
    return false;
  Payload = std::move(P);
  return true;
}

void writeInput(ByteWriter &W, const Input &Data) { W.blob(Data); }

Input readInput(ByteReader &R) { return R.blob(); }

namespace {

void writeFault(ByteWriter &W, const vm::Fault &F) {
  W.u8(static_cast<uint8_t>(F.Kind));
  W.u32(F.Func);
  W.u32(F.Block);
  W.u32(F.InstrIdx);
  W.u64(F.Stack.size());
  for (const vm::StackFrameRef &Fr : F.Stack) {
    W.u32(Fr.Func);
    W.u32(Fr.Block);
    W.u32(Fr.InstrIdx);
  }
}

vm::Fault readFault(ByteReader &R) {
  vm::Fault F;
  uint8_t Kind = R.u8();
  if (Kind > static_cast<uint8_t>(vm::FaultKind::StepLimit))
    R.invalidate();
  F.Kind = static_cast<vm::FaultKind>(Kind);
  F.Func = R.u32();
  F.Block = R.u32();
  F.InstrIdx = R.u32();
  uint64_t N = R.u64();
  if (N > R.remaining() / 12) {
    // Poison the reader; the caller's done()/ok() check rejects the blob.
    R.invalidate();
    N = 0;
  }
  F.Stack.resize(N);
  for (vm::StackFrameRef &Fr : F.Stack) {
    Fr.Func = R.u32();
    Fr.Block = R.u32();
    Fr.InstrIdx = R.u32();
  }
  return F;
}

} // namespace

void writeCrashRecord(ByteWriter &W, const CrashRecord &C) {
  writeInput(W, C.Data);
  writeFault(W, C.TheFault);
  W.u64(C.StackHash);
  W.u64(C.BugId);
  W.u64(C.AtExec);
}

CrashRecord readCrashRecord(ByteReader &R) {
  CrashRecord C;
  C.Data = readInput(R);
  C.TheFault = readFault(R);
  C.StackHash = R.u64();
  C.BugId = R.u64();
  C.AtExec = R.u64();
  return C;
}

void writeHangRecord(ByteWriter &W, const HangRecord &H) {
  writeInput(W, H.Data);
  W.u64(H.Steps);
  W.u64(H.AtExec);
  W.u64(H.InputHash);
}

HangRecord readHangRecord(ByteReader &R) {
  HangRecord H;
  H.Data = readInput(R);
  H.Steps = R.u64();
  H.AtExec = R.u64();
  H.InputHash = R.u64();
  return H;
}

namespace {

void writeQueueEntry(ByteWriter &W, const QueueEntry &E) {
  W.blob(E.Data);
  W.u64(E.Checksum);
  W.u32(E.Density);
  W.u64(E.Steps);
  W.u32(E.Depth);
  W.u8(E.Favored);
  W.u8(E.WasFuzzed);
  W.u64(E.FoundAtExec);
  W.vecU32(E.MapSet);
  W.vecU32(E.EdgeSet);
}

QueueEntry readQueueEntry(ByteReader &R) {
  QueueEntry E;
  E.Data = R.blob();
  E.Checksum = R.u64();
  E.Density = R.u32();
  E.Steps = R.u64();
  E.Depth = R.u32();
  E.Favored = R.flag();
  E.WasFuzzed = R.flag();
  E.FoundAtExec = R.u64();
  E.MapSet = R.vecU32();
  E.EdgeSet = R.vecU32();
  return E;
}

} // namespace

std::vector<uint8_t> Fuzzer::snapshot() const {
  ByteWriter W;

  // Structural fingerprint, validated before restore() mutates anything.
  W.u32(Trace.size());
  W.u32(static_cast<uint32_t>(EdgeCovered.size()));

  // RNG stream position and schedule cursor.
  uint64_t RngState[4];
  R.saveState(RngState);
  for (uint64_t S : RngState)
    W.u64(S);
  W.u64(Sched.CurIdx);
  W.u64(Sched.CycleEnd);
  W.u64(Sched.Cycles);

  // Stats.
  W.u64(Stats.Execs);
  W.u64(Stats.Crashes);
  W.u64(Stats.Hangs);
  W.u64(Stats.LastFindExec);
  W.u64(Stats.QueueCycles);
  W.u64(Stats.QueueGrowth.size());
  for (auto [Execs, QueueSize] : Stats.QueueGrowth) {
    W.u64(Execs);
    W.u64(QueueSize);
  }
  W.u64(AvgStepsNum);
  W.u64(AvgStepsDen);

  // Coverage: the virgin map and the shadow-edge bitmap.
  W.bytes(Virgin.data(), Trace.size());
  W.bytes(EdgeCovered.data(), EdgeCovered.size());

  // Cmp dictionary (the set is rebuilt from the vector on restore).
  W.vecI64(CmpDict);

  // Findings. The hash sets are exactly the records' hashes, so only the
  // records are serialized; Bugs is materialized sorted for determinism.
  std::vector<uint64_t> BugList(Bugs.begin(), Bugs.end());
  std::sort(BugList.begin(), BugList.end());
  W.vecU64(BugList);
  W.u64(Crashes.size());
  for (const CrashRecord &C : Crashes)
    writeCrashRecord(W, C);
  W.u64(Hangs.size());
  for (const HangRecord &H : Hangs)
    writeHangRecord(W, H);

  // Corpus, including the top-rated table and deferred-cull flag.
  W.u64(Q.size());
  for (size_t I = 0; I < Q.size(); ++I)
    writeQueueEntry(W, Q[I]);
  const std::vector<int32_t> &TopRated = Q.topRatedTable();
  W.u64(TopRated.size());
  for (int32_t T : TopRated)
    W.u32(static_cast<uint32_t>(T));
  W.u8(Q.cullPending());
  W.u32(Q.pendingFavored());
  W.u64(Q.cullPasses());

  // Telemetry section (version 2): the instance recorder's cumulative
  // state, so a killed-and-resumed campaign reports the same metrics,
  // samples and event history as an uninterrupted one. Untraced fuzzers
  // write an absence byte.
  if (Tr) {
    W.u8(1);
    Tr->serializeState(W);
  } else {
    W.u8(0);
  }

  return sealSnapshot(W.take());
}

bool Fuzzer::restore(const std::vector<uint8_t> &Blob) {
  std::vector<uint8_t> Payload;
  if (!openSnapshot(Blob, Payload))
    return false;
  ByteReader Rd(Payload);

  // Decode and validate everything into locals first; the fuzzer is only
  // assigned once the whole payload has been accepted, so a rejected blob
  // leaves every member untouched. Beyond well-formedness, the payload
  // must be canonical (flags 0/1, sets strictly ascending) and in range
  // for this fuzzer (map indices, edge IDs, queue positions): anything
  // accepted re-serializes to the same bytes and cannot index out of
  // bounds later.
  const uint32_t MapSize = Trace.size();
  const uint32_t NumEdges = static_cast<uint32_t>(EdgeCovered.size());
  if (Rd.u32() != MapSize || Rd.u32() != NumEdges || !Rd.ok())
    return false;

  uint64_t RngState[4];
  for (uint64_t &S : RngState)
    S = Rd.u64();
  CycleScheduler NewSched;
  NewSched.CurIdx = Rd.u64();
  NewSched.CycleEnd = Rd.u64();
  NewSched.Cycles = Rd.u64();

  FuzzStats NewStats;
  NewStats.Execs = Rd.u64();
  NewStats.Crashes = Rd.u64();
  NewStats.Hangs = Rd.u64();
  NewStats.LastFindExec = Rd.u64();
  NewStats.QueueCycles = Rd.u64();
  uint64_t NGrowth = Rd.u64();
  if (NGrowth > Rd.remaining() / 16)
    return false;
  NewStats.QueueGrowth.reserve(NGrowth);
  for (uint64_t I = 0; I < NGrowth; ++I) {
    uint64_t Execs = Rd.u64();
    uint64_t QueueSize = Rd.u64();
    NewStats.QueueGrowth.push_back({Execs, QueueSize});
  }
  const uint64_t NewAvgNum = Rd.u64();
  const uint64_t NewAvgDen = Rd.u64();

  std::vector<uint8_t> VirginBytes = Rd.raw(MapSize);
  std::vector<uint8_t> NewEdgeCovered = Rd.raw(NumEdges);
  std::vector<int64_t> NewCmpDict = Rd.vecI64();
  std::vector<uint64_t> BugList = Rd.vecU64();
  if (!Rd.ok() || !strictlyAscending(BugList))
    return false;

  std::vector<CrashRecord> NewCrashes;
  uint64_t NCrashes = Rd.u64();
  for (uint64_t I = 0; I < NCrashes && Rd.ok(); ++I)
    NewCrashes.push_back(readCrashRecord(Rd));
  std::vector<HangRecord> NewHangs;
  uint64_t NHangs = Rd.u64();
  for (uint64_t I = 0; I < NHangs && Rd.ok(); ++I)
    NewHangs.push_back(readHangRecord(Rd));

  uint64_t NEntries = Rd.u64();
  std::vector<QueueEntry> Entries;
  for (uint64_t I = 0; I < NEntries && Rd.ok(); ++I) {
    Entries.push_back(readQueueEntry(Rd));
    const QueueEntry &E = Entries.back();
    if (!strictlyAscending(E.MapSet) || !strictlyAscending(E.EdgeSet) ||
        (!E.MapSet.empty() && E.MapSet.back() >= MapSize) ||
        (!E.EdgeSet.empty() && E.EdgeSet.back() >= NumEdges))
      return false;
  }
  if (!Rd.ok() || NewSched.CycleEnd > Entries.size() ||
      NewSched.CurIdx > NewSched.CycleEnd)
    return false;
  if (Rd.u64() != MapSize)
    return false;
  std::vector<int32_t> TopRated(MapSize);
  for (int32_t &T : TopRated) {
    T = static_cast<int32_t>(Rd.u32());
    if (T < -1 || (T >= 0 && static_cast<uint64_t>(T) >= Entries.size()))
      return false;
  }
  bool NeedCull = Rd.flag();
  uint32_t PendingFavored = Rd.u32();
  uint64_t CullPasses = Rd.u64();

  // Telemetry section. When this fuzzer is untraced the section is still
  // decoded so the trailing done() check keeps validating the whole
  // payload.
  const bool HasTrace = Rd.flag();
  telemetry::InstanceState TraceState;
  if (HasTrace && (!telemetry::decodeInstanceState(Rd, TraceState) ||
                   (Tr && !Tr->canAdopt(TraceState))))
    return false;
  if (!Rd.done())
    return false;

  // Accepted: commit.
  R.loadState(RngState);
  Sched = NewSched;
  Stats = std::move(NewStats);
  AvgStepsNum = NewAvgNum;
  AvgStepsDen = NewAvgDen;
  Virgin.restoreFrom(VirginBytes.data(), VirginBytes.size());
  EdgeCovered = std::move(NewEdgeCovered);
  EdgeCoveredCount = 0;
  for (uint8_t B : EdgeCovered)
    EdgeCoveredCount += (B != 0);
  CmpDict = std::move(NewCmpDict);
  CmpDictSet.clear();
  CmpDictSet.insert(CmpDict.begin(), CmpDict.end());
  Bugs.clear();
  Bugs.insert(BugList.begin(), BugList.end());
  Crashes = std::move(NewCrashes);
  CrashHashes.clear();
  for (const CrashRecord &C : Crashes)
    CrashHashes.insert(C.StackHash);
  Hangs = std::move(NewHangs);
  HangHashes.clear();
  for (const HangRecord &H : Hangs)
    HangHashes.insert(H.InputHash);
  Q.restoreState(std::move(Entries), std::move(TopRated), NeedCull,
                 PendingFavored, CullPasses);
  // A traced fuzzer adopts the snapshot's trace; restored from an
  // untraced snapshot it starts a fresh one, so its trace counts only
  // what happens after the restore.
  if (Tr) {
    if (HasTrace)
      Tr->adoptState(TraceState);
    else
      startTrace();
  }
  return true;
}

} // namespace fuzz
} // namespace pathfuzz
