//===- Fuzzer.cpp - Coverage-guided fuzzing loop ------------------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "vm/Image.h"
#include "vm/jit/Jit.h"

#include <algorithm>

namespace pathfuzz {
namespace fuzz {

Fuzzer::Fuzzer(const mir::Module &M, const instr::InstrumentReport &Report,
               const instr::ShadowEdgeIndex &Shadow, FuzzerOptions Opts)
    : M(M), Report(Report), Opts(Opts), Machine(M, &Shadow),
      Trace(Opts.MapSizeLog2), Virgin(Trace.size()), R(Opts.Seed),
      Mut(R, Opts.Mut), Q(Trace.size()) {
  if (this->Opts.Image)
    Machine.attachImage(this->Opts.Image);
  if (this->Opts.Jit)
    Machine.attachJit(this->Opts.Jit);
  EdgeCovered.assign(Shadow.numEdges(), 0);
  if (telemetry::Compiled && this->Opts.Trace.Enabled)
    startTrace();
}

void Fuzzer::startTrace() {
  Tr = std::make_unique<telemetry::InstanceTrace>(Opts.Trace);
  telemetry::MetricsRegistry &Reg = Tr->metrics();
  MExecs = Reg.counter("execs");
  MHeapAllocs = Reg.counter("vm.heap.allocs");
  MHeapCells = Reg.counter("vm.heap.cells");
  HSteps = Reg.histogram("exec.steps");
  HInputSize = Reg.histogram("input.size");
  HHeapCells = Reg.histogram("exec.heap.cells");
  if (Opts.Image) {
    // JIT-engine series (image size, snapshot-reset bytes), registered
    // only when an image is attached so interpreter traces carry no
    // vm.fastpath.* family (identity comparisons across engines exclude
    // exactly that family).
    MResetBytes = Reg.counter("vm.fastpath.reset.bytes");
    *Reg.gauge("vm.fastpath.image.bytes") =
        static_cast<int64_t>(Opts.Image->byteSize());
  }
  if (Opts.Jit) {
    // JIT-only series, registered only when a compiled program is
    // attached so interpreter traces carry no vm.jit.* family
    // (engine-local; see telemetry::isEngineLocalMetric). The gauges
    // describe the attached code once; the counters accumulate per-exec
    // in processResult.
    MJitExecs = Reg.counter("vm.jit.execs");
    MJitBailouts = Reg.counter("vm.jit.bailouts");
    *Reg.gauge("vm.jit.compiled") =
        static_cast<int64_t>(Opts.Jit->stats().NumFuncs);
    *Reg.gauge("vm.jit.bytes") =
        static_cast<int64_t>(Opts.Jit->stats().CodeBytes);
  }
}

vm::ExecResult Fuzzer::executeRaw(const Input &Data, bool LogCmps) {
  // Map work scales with what the previous execution touched: only its
  // lines are zeroed, and the engine flags the lines this one writes.
  Trace.resetTouched();
  vm::FeedbackContext Fb;
  Fb.Map = Trace.data();
  Fb.MapMask = Trace.mask();
  Fb.LineFlags = Trace.lineFlags();
  Fb.FuncKeys = Report.FuncKeys.data();
  Fb.CallPathHash = Opts.PathAflAssist;
  // Events the VM records (injected faults) carry the index this
  // execution is about to get.
  Fb.Trace = Tr.get();
  Fb.TraceExec = Stats.Execs + 1;

  vm::ExecOptions EO = Opts.Exec;
  EO.LogCmps = LogCmps;
  vm::ExecResult Res = Machine.run(Data.data(), Data.size(), EO, &Fb);
  Trace.collectTouched();
  return Res;
}

void Fuzzer::sampleGrowth() {
  if (Opts.GrowthSampleInterval == 0)
    return;
  if (Stats.Execs % Opts.GrowthSampleInterval == 0)
    Stats.QueueGrowth.push_back({Stats.Execs, Q.size()});
}

void Fuzzer::sampleTrace() {
  if (!Tr || !Tr->sampleDue(Stats.Execs))
    return;
  telemetry::Sample S;
  S.Exec = Stats.Execs;
  S.QueueSize = Q.size();
  S.Favored = Q.favoredCount();
  S.EdgesCovered = EdgeCoveredCount;
  S.Crashes = Stats.Crashes;
  S.UniqueCrashes = Crashes.size();
  S.Hangs = Stats.Hangs;
  S.UniqueBugs = Bugs.size();
  S.CullPasses = Q.cullPasses();
  S.DictSize = CmpDict.size();
  Tr->sample(S);
}

bool Fuzzer::processResult(const Input &Data, const vm::ExecResult &Res,
                           uint32_t Depth, bool ForceAdd) {
  ++Stats.Execs;
  sampleGrowth();

  // Telemetry for the completed execution. `Compiled` is a constant, so
  // the whole block folds away under -DPATHFUZZ_NO_TELEMETRY; otherwise
  // the disabled cost is the one null test.
  if (telemetry::Compiled && Tr) {
    ++*MExecs;
    *MHeapAllocs += Res.HeapAllocs;
    *MHeapCells += Res.HeapCellsAllocated;
    if (MResetBytes)
      *MResetBytes += Res.DirtyGlobalCells * sizeof(int64_t);
    if (MJitExecs) {
      // The Vm keeps cumulative JIT-run stats; flush only the delta since
      // the last flush so resumed instances (which reconstruct the Vm but
      // carry the trace forward) keep exact counts.
      const uint64_t Execs = Machine.jitRunStats().Execs;
      const uint64_t Bails = Machine.jitRunStats().Bailouts;
      *MJitExecs += Execs - JitExecsSeen;
      *MJitBailouts += Bails - JitBailSeen;
      JitExecsSeen = Execs;
      JitBailSeen = Bails;
    }
    HSteps->observe(Res.Steps);
    HInputSize->observe(Data.size());
    HHeapCells->observe(Res.HeapCellsAllocated);
    uint8_t Outcome = Res.crashed() ? 1 : (Res.hung() ? 2 : 0);
    Tr->event(telemetry::EventKind::ExecCompleted, Stats.Execs,
              static_cast<uint32_t>(Data.size()), Res.Steps, Outcome);
    sampleTrace();
  }

  // Union shadow edges (crashing runs count for coverage too, as the
  // paper's afl-showmap pass replays everything the fuzzer saved).
  for (uint32_t Edge : Res.ShadowEdges) {
    if (!EdgeCovered[Edge]) {
      EdgeCovered[Edge] = 1;
      ++EdgeCoveredCount;
    }
  }

  // Harvest comparison operands.
  if (Opts.UseCmpDict) {
    for (int64_t V : Res.CmpOperands) {
      if (CmpDict.size() >= Opts.MaxCmpDict)
        break;
      if (CmpDictSet.insert(V).second)
        CmpDict.push_back(V);
    }
  }

  if (Res.crashed()) {
    ++Stats.Crashes;
    uint64_t Hash = Res.TheFault.stackHash();
    Bugs.insert(Res.TheFault.bugId());
    if (CrashHashes.insert(Hash).second) {
      PF_TRACE_EVENT(Tr.get(), telemetry::EventKind::CrashDeduped,
                     Stats.Execs, static_cast<uint32_t>(Crashes.size()),
                     Hash);
      CrashRecord C;
      C.Data = Data;
      C.TheFault = Res.TheFault;
      C.StackHash = Hash;
      C.BugId = Res.TheFault.bugId();
      C.AtExec = Stats.Execs;
      Crashes.push_back(std::move(C));
    }
    return false;
  }
  // Speed baseline for the energy bonus: every non-crashing execution
  // contributes. (Accumulating only over saved queue entries drifted the
  // average toward novelty-bearing — often slower — runs.)
  AvgStepsNum += Res.Steps;
  AvgStepsDen += 1;

  if (Res.hung()) {
    ++Stats.Hangs;
    uint64_t Hash = fnv1a(Data.data(), Data.size());
    if (HangHashes.insert(Hash).second) {
      PF_TRACE_EVENT(Tr.get(), telemetry::EventKind::HangDeduped, Stats.Execs,
                     static_cast<uint32_t>(Hangs.size()), Hash);
      HangRecord H;
      H.Data = Data;
      H.Steps = Res.Steps;
      H.AtExec = Stats.Execs;
      H.InputHash = Hash;
      Hangs.push_back(std::move(H));
    }
    return false;
  }

  // Every map stage walks only the lines this execution touched; each
  // returns exactly what its full-map reference would (cov/CoverageMap.h).
  Trace.classifyTouched();
  cov::Novelty Nov = Virgin.hasNewBitsTouched(Trace);
  if (Nov == cov::Novelty::None && !ForceAdd)
    return false;

  QueueEntry E;
  E.Data = Data;
  E.Checksum = Trace.checksumTouched();
  E.Steps = Res.Steps;
  E.Depth = Depth;
  E.FoundAtExec = Stats.Execs;
  E.EdgeSet = Res.ShadowEdges;
  Trace.appendNonzeroTouched(E.MapSet);
  E.Density = static_cast<uint32_t>(E.MapSet.size());

  Stats.LastFindExec = Stats.Execs;
  Q.add(std::move(E));
  PF_TRACE_EVENT(Tr.get(), telemetry::EventKind::SeedAdded, Stats.Execs,
                 static_cast<uint32_t>(Q.size() - 1), Data.size());
  return true;
}

void Fuzzer::seedDict(const std::vector<int64_t> &Values) {
  for (int64_t V : Values) {
    if (CmpDict.size() >= Opts.MaxCmpDict)
      break;
    if (CmpDictSet.insert(V).second)
      CmpDict.push_back(V);
  }
}

void Fuzzer::addSeed(const Input &Data) {
  // Seeds are always retained, novelty or not (AFL keeps all seeds),
  // unless they crash or hang outright.
  vm::ExecResult Res = executeRaw(Data, Opts.UseCmpDict);
  processResult(Data, Res, 0, /*ForceAdd=*/true);
}

uint32_t Fuzzer::energyFor(const QueueEntry &E) const {
  // Simplified AFL perf_score: favor fast, fresh, favored and deep
  // entries.
  uint64_t Score = 48;
  if (E.Favored)
    Score *= 2;
  if (!E.WasFuzzed)
    Score *= 2;
  if (AvgStepsDen) {
    uint64_t Avg = AvgStepsNum / AvgStepsDen;
    if (E.Steps * 2 < Avg)
      Score = Score * 3 / 2;
    else if (E.Steps > Avg * 4)
      Score /= 2;
  }
  Score += std::min<uint32_t>(E.Depth, 16) * 4;
  uint64_t Energy = std::clamp<uint64_t>(Score, 16, 384);
  // Pluggable scheduling weight (the prescient config): scale by W/16 and
  // widen the clamp so a large static frontier can dominate. The null-hook
  // path above is byte-for-byte the historical arithmetic.
  if (Opts.ScheduleWeight) {
    uint64_t W = std::max<uint64_t>(1, Opts.ScheduleWeight(E, EdgeCovered));
    Energy = std::clamp<uint64_t>(Energy * W / 16, 16, 1024);
  }
  return static_cast<uint32_t>(Energy);
}

void Fuzzer::run(uint64_t ExecBudget) {
  PreemptHit = false;
  if (Q.empty()) {
    // All seeds crashed or none were given: start from a tiny default.
    addSeed({'A', 'A', 'A', 'A'});
    if (Q.empty())
      return; // even the default input crashes at depth 0
  }

  // The watchdog stop: a campaign driver may bound this instance harder
  // than the budget. Checked wherever the budget is checked, so a tripped
  // limit stops the loop at the next execution boundary.
  auto stopNow = [this] {
    return Opts.ExecHardLimit && Stats.Execs >= Opts.ExecHardLimit;
  };

  // Checkpoints fire at the top of the scheduling loop — a safe point
  // where no mid-entry mutation state is live — each time the campaign-
  // cumulative exec count crosses an interval multiple. NextCkpt is
  // recomputed the same way after a restore, so a resumed run emits the
  // same remaining checkpoint schedule as the uninterrupted one.
  const uint64_t Interval = Opts.OnCheckpoint ? Opts.CheckpointInterval : 0;
  uint64_t NextCkpt =
      Interval
          ? ((Opts.CheckpointBase + Stats.Execs) / Interval + 1) * Interval
          : 0;

  while (Stats.Execs < ExecBudget && !stopNow()) {
    if (Interval && Opts.CheckpointBase + Stats.Execs >= NextCkpt) {
      // Recorded before the hook runs so the event is part of the
      // snapshot the hook writes.
      PF_TRACE_EVENT(Tr.get(), telemetry::EventKind::CheckpointWritten,
                     Stats.Execs, 0, Opts.CheckpointBase + Stats.Execs);
      Opts.OnCheckpoint(*this);
      NextCkpt =
          ((Opts.CheckpointBase + Stats.Execs) / Interval + 1) * Interval;
      // Cooperative preemption: consulted only here, right after the
      // checkpoint landed, so the stop state is exactly the persisted
      // state and a resume continues byte-identically.
      if (Opts.StopRequest && Opts.StopRequest()) {
        PreemptHit = true;
        return;
      }
    }
    uint64_t CyclesBefore = Sched.Cycles;
    size_t Index = Sched.next(Q.size());
    if (Sched.Cycles != CyclesBefore)
      PF_TRACE_EVENT(Tr.get(), telemetry::EventKind::CycleStarted, Stats.Execs,
                     static_cast<uint32_t>(Sched.Cycles), Q.size());
    Stats.QueueCycles = Sched.completedCycles();
    Q.cullIfNeeded();
    QueueEntry &E = Q[Index];

    // AFL's skip probabilities.
    if (!E.Favored) {
      if (Q.pendingFavored() > 0) {
        if (R.chance(99, 100))
          continue;
      } else if (E.WasFuzzed) {
        if (R.chance(95, 100))
          continue;
      } else {
        if (R.chance(75, 100))
          continue;
      }
    }

    uint32_t Energy = energyFor(E);
    uint32_t Depth = E.Depth + 1;
    Input Base = E.Data; // E may be invalidated by queue growth
    Q.markFuzzed(Index);

    for (uint32_t I = 0; I < Energy && Stats.Execs < ExecBudget && !stopNow();
         ++I) {
      Input Data = Base;
      bool DoSplice = Q.size() > 1 && R.chance(Opts.SplicePercent, 100);
      if (DoSplice) {
        // Re-draw when the donor is the entry being fuzzed (AFL does the
        // same): splicing an input with itself is a no-op mutation.
        size_t Donor = R.index(Q.size());
        while (Donor == Index)
          Donor = R.index(Q.size());
        Mut.splice(Data, Q[Donor].Data, CmpDict);
      } else {
        Mut.havoc(Data, CmpDict);
      }
      // Log comparisons on a small fraction of runs to refresh the
      // dictionary without paying the cost everywhere.
      bool LogCmps = Opts.UseCmpDict && R.oneIn(16);
      vm::ExecResult Res = executeRaw(Data, LogCmps);
      processResult(Data, Res, Depth);
    }
  }
}

std::vector<uint32_t> Fuzzer::coveredEdgeList() const {
  std::vector<uint32_t> Out;
  Out.reserve(EdgeCoveredCount);
  for (uint32_t I = 0; I < EdgeCovered.size(); ++I)
    if (EdgeCovered[I])
      Out.push_back(I);
  return Out;
}

} // namespace fuzz
} // namespace pathfuzz
