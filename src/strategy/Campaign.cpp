//===- Campaign.cpp - Fuzzer configurations and campaign drivers --------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "strategy/Campaign.h"

#include "analysis/Reachability.h"
#include "cov/CoverageMap.h"
#include "fuzz/Snapshot.h"
#include "strategy/BuildCache.h"
#include "strategy/Store.h"
#include "support/FaultInjection.h"
#include "support/Rng.h"

#include <algorithm>
#include <functional>
#include <optional>

namespace pathfuzz {
namespace strategy {

const char *fuzzerKindName(FuzzerKind K) {
  switch (K) {
  case FuzzerKind::Pcguard:
    return "pcguard";
  case FuzzerKind::Path:
    return "path";
  case FuzzerKind::Cull:
    return "cull";
  case FuzzerKind::CullRandom:
    return "cull_r";
  case FuzzerKind::Opp:
    return "opp";
  case FuzzerKind::Afl:
    return "afl";
  case FuzzerKind::PathAfl:
    return "pathafl";
  case FuzzerKind::Prescient:
    return "prescient";
  }
  return "<bad-kind>";
}

bool fuzzerKindFromName(const std::string &Name, FuzzerKind &K) {
  for (uint8_t I = 0; I <= static_cast<uint8_t>(FuzzerKind::Prescient); ++I) {
    FuzzerKind Candidate = static_cast<FuzzerKind>(I);
    if (Name == fuzzerKindName(Candidate)) {
      K = Candidate;
      return true;
    }
  }
  return false;
}

namespace {

using fuzz::ByteReader;
using fuzz::ByteWriter;

/// Campaign trace container for this run, or null when tracing is off.
/// Resume paths pass the checkpoint-carried trace through so completed
/// instances survive the restart.
std::shared_ptr<telemetry::CampaignTrace>
makeCampaignTrace(const SubjectBuild &SB, const CampaignOptions &Opts,
                  std::shared_ptr<telemetry::CampaignTrace> Carried) {
  if (!(telemetry::Compiled && Opts.Trace.Enabled))
    return nullptr;
  if (Carried)
    return Carried;
  auto CT = std::make_shared<telemetry::CampaignTrace>();
  CT->Subject = SB.subject().Name;
  CT->Fuzzer = fuzzerKindName(Opts.Kind);
  CT->Seed = Opts.Seed;
  return CT;
}

/// Record a campaign-level driver event (cull verdicts, phase starts).
/// Exec is campaign-cumulative.
void campaignEvent(telemetry::CampaignTrace *CT, telemetry::EventKind K,
                   uint64_t Exec, uint32_t A32 = 0, uint64_t A64 = 0,
                   uint8_t A8 = 0) {
  if (!CT)
    return;
  telemetry::Event E;
  E.Exec = Exec;
  E.Kind = K;
  E.Arg32 = A32;
  E.Arg64 = A64;
  E.Arg8 = A8;
  CT->CampaignEvents.push_back(E);
}

/// Union a sorted edge list into a sorted edge set.
void mergeEdges(std::vector<uint32_t> &Set,
                const std::vector<uint32_t> &Edges) {
  std::vector<uint32_t> Merged;
  Merged.reserve(Set.size() + Edges.size());
  std::set_union(Set.begin(), Set.end(), Edges.begin(), Edges.end(),
                 std::back_inserter(Merged));
  Set = std::move(Merged);
}

/// Fold one fuzzer instance's findings into the campaign aggregate.
void accumulate(CampaignResult &R, const fuzz::Fuzzer &F,
                uint64_t ExecOffset) {
  R.Execs += F.stats().Execs;
  R.TotalCrashes += F.stats().Crashes;
  R.TotalHangs += F.stats().Hangs;
  for (const fuzz::CrashRecord &C : F.uniqueCrashes()) {
    if (R.CrashHashes.insert(C.StackHash).second)
      R.UniqueCrashes.push_back(C);
  }
  for (const fuzz::HangRecord &H : F.uniqueHangs()) {
    if (R.HangHashes.insert(H.InputHash).second)
      R.UniqueHangs.push_back(H);
  }
  for (uint64_t Bug : F.bugIds())
    R.BugIds.insert(Bug);
  mergeEdges(R.EdgeSet, F.coveredEdgeList());

  for (auto [Execs, QueueSize] : F.stats().QueueGrowth)
    R.QueueGrowth.push_back({ExecOffset + Execs, QueueSize});
}

//===----------------------------------------------------------------------===//
// Error plumbing
//===----------------------------------------------------------------------===//

void setError(CampaignError *Err, std::string Message, std::string FaultSite,
              bool Transient, bool Watchdog = false) {
  if (!Err)
    return;
  Err->Failed = true;
  Err->Transient = Transient;
  Err->Watchdog = Watchdog;
  Err->Preempted = false;
  Err->FaultSite = std::move(FaultSite);
  Err->Message = std::move(Message);
}

/// A StopRequest preemption: Failed so callers that only check Failed
/// never mistake the partial result for a complete one, but flagged so
/// the store/scheduler layers can propagate it as progress, not damage.
void setPreempted(CampaignError *Err) {
  if (!Err)
    return;
  Err->Failed = true;
  Err->Transient = false;
  Err->Watchdog = false;
  Err->Preempted = true;
  Err->FaultSite.clear();
  Err->Message = "campaign preempted at safe-point checkpoint";
}

/// tryInstrumented with the diagnostic routed into CampaignError.
const InstrumentedBuild *instrumentOrError(SubjectBuild &SB,
                                           instr::Feedback Mode,
                                           const CampaignOptions &Opts,
                                           CampaignError *Err) {
  std::string Diag;
  const InstrumentedBuild *B = SB.tryInstrumented(Mode, Opts, &Diag);
  if (!B)
    setError(Err, Diag, "strategy.instrument",
             fault::isTransient("strategy.instrument"));
  return B;
}

//===----------------------------------------------------------------------===//
// CampaignResult serialization — the byte-identity oracle and the carrier
// for partial results inside checkpoints. The reader rejects what would
// break the aggregate's invariants later: an unknown kind and an edge set
// that is not strictly ascending.
//===----------------------------------------------------------------------===//

void writeCampaignResult(ByteWriter &W, const CampaignResult &R) {
  W.u8(static_cast<uint8_t>(R.Kind));
  W.u64(R.Execs);
  W.u64(R.FinalQueueSize);
  W.u64(R.TotalCrashes);
  W.u64(R.TotalHangs);
  // std::set iterates sorted, so these vectors are canonical.
  W.vecU64({R.CrashHashes.begin(), R.CrashHashes.end()});
  W.vecU64({R.HangHashes.begin(), R.HangHashes.end()});
  W.vecU64({R.BugIds.begin(), R.BugIds.end()});
  W.vecU32(R.EdgeSet);
  W.u64(R.QueueGrowth.size());
  for (auto [Execs, QueueSize] : R.QueueGrowth) {
    W.u64(Execs);
    W.u64(QueueSize);
  }
  W.u64(R.UniqueCrashes.size());
  for (const fuzz::CrashRecord &C : R.UniqueCrashes)
    fuzz::writeCrashRecord(W, C);
  W.u64(R.UniqueHangs.size());
  for (const fuzz::HangRecord &H : R.UniqueHangs)
    fuzz::writeHangRecord(W, H);
}

CampaignResult readCampaignResult(ByteReader &Rd) {
  CampaignResult R;
  uint8_t Kind = Rd.u8();
  if (Kind > static_cast<uint8_t>(FuzzerKind::Prescient))
    Rd.invalidate();
  R.Kind = static_cast<FuzzerKind>(Kind);
  R.Execs = Rd.u64();
  R.FinalQueueSize = Rd.u64();
  R.TotalCrashes = Rd.u64();
  R.TotalHangs = Rd.u64();
  // The three hash sets are written in set order; any other order or a
  // duplicate would not re-serialize to the same bytes.
  std::vector<uint64_t> Crash = Rd.vecU64();
  R.CrashHashes.insert(Crash.begin(), Crash.end());
  std::vector<uint64_t> Hang = Rd.vecU64();
  R.HangHashes.insert(Hang.begin(), Hang.end());
  std::vector<uint64_t> Bug = Rd.vecU64();
  R.BugIds.insert(Bug.begin(), Bug.end());
  R.EdgeSet = Rd.vecU32();
  // Edge sets also feed std::set_union, whose precondition is sorted input.
  if (!strictlyAscending(Crash) || !strictlyAscending(Hang) ||
      !strictlyAscending(Bug) || !strictlyAscending(R.EdgeSet))
    Rd.invalidate();
  uint64_t NGrowth = Rd.u64();
  if (NGrowth > Rd.remaining() / 16) {
    Rd.invalidate();
    NGrowth = 0;
  }
  R.QueueGrowth.reserve(NGrowth);
  for (uint64_t I = 0; I < NGrowth; ++I) {
    uint64_t Execs = Rd.u64();
    uint64_t QueueSize = Rd.u64();
    R.QueueGrowth.push_back({Execs, QueueSize});
  }
  uint64_t NCrashRecs = Rd.u64();
  for (uint64_t I = 0; I < NCrashRecs && Rd.ok(); ++I)
    R.UniqueCrashes.push_back(fuzz::readCrashRecord(Rd));
  uint64_t NHangRecs = Rd.u64();
  for (uint64_t I = 0; I < NHangRecs && Rd.ok(); ++I)
    R.UniqueHangs.push_back(fuzz::readHangRecord(Rd));
  return R;
}

//===----------------------------------------------------------------------===//
// Phase programs
//===----------------------------------------------------------------------===//
//
// Every FuzzerKind is a list of phases, and one loop (runPhases) runs them
// all. A phase is one fuzzer instance: a feedback mode, a seed, a budget,
// and how its queue hands off to the next phase. Single-phase kinds fuzz
// the whole budget with one instance ("main"); cull and cull_r split it
// into CullRounds rounds ("roundN") with a cull between rounds; opp runs
// edge feedback for half the budget ("phase1") and hands an edge-
// preserving subset of its queue to a path-aware phase ("phase2").

/// How a kind divides its budget into phases. The value doubles as the
/// driver tag at the head of the options fingerprint, whose byte format
/// predates the phase list.
enum class Schedule : uint8_t { Single = 0, CullRounds = 1, Opp = 2 };

/// How a finished phase's queue seeds the next phase's instance.
enum class Handoff : uint8_t {
  None,
  /// An edge-coverage-preserving subset (cull rounds, and opp's phase 1,
  /// whose crashing inputs were never queued).
  EdgePreserving,
  /// Appendix D: a random 2-16% of the queue.
  Random,
};

struct KindRow {
  Schedule Sched;
  /// Feedback of the kind's phases (opp's phase 1 always fuzzes with
  /// edge feedback).
  instr::Feedback Mode;
  bool PathAflAssist;
  /// Prescient's frontier-score ScheduleWeight.
  bool FrontierWeight;
  /// What one phase hands the next: between cull rounds, and from opp's
  /// edge phase to its path phase.
  Handoff Cull;
};

/// Indexed by FuzzerKind.
constexpr KindRow KindTable[] = {
    {Schedule::Single, instr::Feedback::EdgePrecise, false, false,
     Handoff::None}, // pcguard
    {Schedule::Single, instr::Feedback::Path, false, false,
     Handoff::None}, // path
    {Schedule::CullRounds, instr::Feedback::Path, false, false,
     Handoff::EdgePreserving}, // cull
    {Schedule::CullRounds, instr::Feedback::Path, false, false,
     Handoff::Random}, // cull_r
    {Schedule::Opp, instr::Feedback::Path, false, false,
     Handoff::EdgePreserving}, // opp
    {Schedule::Single, instr::Feedback::EdgeClassic, false, false,
     Handoff::None}, // afl
    {Schedule::Single, instr::Feedback::EdgeClassic, true, false,
     Handoff::None}, // pathafl
    {Schedule::Single, instr::Feedback::EdgePrecise, false, true,
     Handoff::None}, // prescient
};

static_assert(sizeof(KindTable) / sizeof(KindTable[0]) ==
                  static_cast<size_t>(FuzzerKind::Prescient) + 1,
              "one KindTable row per FuzzerKind");

const KindRow &kindRow(FuzzerKind K) {
  return KindTable[static_cast<uint8_t>(K)];
}

struct Phase {
  instr::Feedback Mode;
  bool PathAflAssist;
  bool FrontierWeight;
  uint64_t Seed;
  uint64_t Budget;
  /// The last cull round gets whatever remains of the overall budget
  /// instead (the paper's driver subtracts culling costs the same way).
  bool TakeRemaining = false;
  /// QueueGrowth offset fixed by the schedule: opp's phase 2 plots from
  /// its nominal start, not from where phase 1 actually stopped. Unset,
  /// the phase's actual start.
  std::optional<uint64_t> GrowthOffset;
  /// False for opp's phase 1, which contributes only execs and covered
  /// edges: the paper credits opp with phase 2's findings alone.
  bool CountFindings = true;
  Handoff Next = Handoff::None;
  /// Instance label and PhaseStarted argument bytes.
  std::string Label;
  uint32_t EventA32 = 0;
  uint8_t EventA8 = 0;
};

uint32_t phaseCount(const CampaignOptions &Opts) {
  switch (kindRow(Opts.Kind).Sched) {
  case Schedule::Single:
    return 1;
  case Schedule::CullRounds:
    return std::max<uint32_t>(1, Opts.CullRounds);
  case Schedule::Opp:
    return 2;
  }
  return 1;
}

Phase phaseAt(const CampaignOptions &Opts, uint32_t I) {
  const KindRow &Row = kindRow(Opts.Kind);
  Phase P;
  P.Mode = Row.Mode;
  P.PathAflAssist = Row.PathAflAssist;
  P.FrontierWeight = Row.FrontierWeight;
  switch (Row.Sched) {
  case Schedule::Single:
    P.Seed = Opts.Seed;
    P.Budget = Opts.ExecBudget;
    P.Label = "main";
    break;
  case Schedule::CullRounds: {
    uint32_t Rounds = phaseCount(Opts);
    P.Seed = Opts.Seed + I * 7919;
    P.Budget = std::max<uint64_t>(1, Opts.ExecBudget / Rounds);
    P.TakeRemaining = I + 1 == Rounds;
    P.Next = P.TakeRemaining ? Handoff::None : Row.Cull;
    P.Label = "round" + std::to_string(I);
    P.EventA32 = I;
    break;
  }
  case Schedule::Opp:
    if (I == 0) {
      P.Mode = instr::Feedback::EdgePrecise;
      P.Seed = Opts.Seed ^ 0x0bb;
      P.Budget = Opts.ExecBudget / 2;
      P.CountFindings = false;
      P.Next = Row.Cull;
    } else {
      P.Seed = Opts.Seed ^ 0x0bb1e5;
      P.Budget = Opts.ExecBudget - Opts.ExecBudget / 2;
      P.GrowthOffset = Opts.ExecBudget / 2;
    }
    P.Label = "phase" + std::to_string(I + 1);
    P.EventA8 = static_cast<uint8_t>(I + 1);
    break;
  }
  return P;
}

/// Prescient's weight over the subject's cached interprocedural
/// reachability summary (shared read-only across trials like the images).
/// A pure function of the entry and the covered-edge bitmap, so a resumed
/// campaign, which re-installs it, stays byte-identical.
decltype(fuzz::FuzzerOptions::ScheduleWeight)
frontierWeight(SubjectBuild &SB) {
  std::shared_ptr<const analysis::ReachabilitySummary> RS = SB.reachability();
  return [RS](const fuzz::QueueEntry &E, const std::vector<uint8_t> &Covered) {
    uint64_t Frontier = RS->frontierScore(E.EdgeSet, Covered);
    // 16 = neutral; each frontier block adds 1/16 of base energy,
    // saturating at 16x so one seed cannot monopolize the schedule.
    return static_cast<uint32_t>(16 + std::min<uint64_t>(Frontier, 240));
  };
}

/// The seeds a finished phase hands to the next one. Culling re-executes
/// them in the next instance's addSeed() calls, so the cost is charged
/// against the budget, as the paper's driver does.
std::vector<fuzz::Input> handoffSeeds(Handoff H, const fuzz::Corpus &Q,
                                      Rng &CullRng,
                                      const std::vector<fuzz::Input> &Initial) {
  std::vector<fuzz::Input> Out;
  if (H == Handoff::EdgePreserving) {
    for (size_t Index : Q.edgePreservingSubset())
      Out.push_back(Q[Index].Data);
  } else {
    uint64_t KeepPermille = 20 + CullRng.below(141); // 2.0% .. 16.0%
    size_t Keep = std::max<size_t>(
        1, static_cast<size_t>(Q.size() * KeepPermille / 1000));
    std::vector<size_t> All(Q.size());
    for (size_t I = 0; I < All.size(); ++I)
      All[I] = I;
    for (size_t I = 0; I < Keep && I < All.size(); ++I) {
      size_t J = I + CullRng.index(All.size() - I);
      std::swap(All[I], All[J]);
      Out.push_back(Q[All[I]].Data);
    }
  }
  if (Out.empty())
    Out = Initial;
  return Out;
}

/// The fuzzer options of phase P, which starts ExecOffset execs into the
/// campaign.
fuzz::FuzzerOptions phaseOptions(SubjectBuild &SB, const InstrumentedBuild &B,
                                 const CampaignOptions &Opts, const Phase &P,
                                 uint64_t ExecOffset) {
  fuzz::FuzzerOptions FO;
  FO.MapSizeLog2 = Opts.MapSizeLog2;
  FO.Seed = P.Seed;
  FO.Mut.MaxLen = Opts.MaxInputLen;
  FO.Exec.StepLimit = Opts.StepLimit;
  FO.PathAflAssist = P.PathAflAssist;
  FO.GrowthSampleInterval = Opts.GrowthSampleInterval;
  // The PathAFL comparator builds on plain AFL 2.52b, which has no
  // input-to-state stage; our afl/pathafl configs disable the cmp
  // dictionary accordingly.
  FO.UseCmpDict = !P.PathAflAssist;
  FO.Trace = Opts.Trace;
  if (P.FrontierWeight)
    FO.ScheduleWeight = frontierWeight(SB);
  FO.CheckpointInterval = Opts.CheckpointInterval;
  FO.CheckpointBase = ExecOffset;
  FO.StopRequest = Opts.StopRequest;
  if (Opts.WatchdogExecLimit > ExecOffset)
    FO.ExecHardLimit = Opts.WatchdogExecLimit - ExecOffset;
  // JIT engine: hand every instance the build's shared pre-decoded image
  // and the native program compiled from it. Gated on the mode (not just
  // pointer presence) so a forced Interpreter campaign ignores what a
  // previous JIT campaign left in the shared cache slot.
  if (vm::jitEnabled(Opts.VmMode)) {
    FO.Image = B.Image.get();
    FO.Jit = B.Jit.get();
  }
  // Selective (two-tier) execution: byte-identical results either way,
  // so the knob is resolved per campaign exactly like the engine choice.
  // The cheap image is only present when the build cache ran under a
  // selective + JIT resolution; a null CheapImage falls back to the
  // interpreter cheap tier inside the fuzzer.
  if (vm::selectiveEnabled(Opts.Selective)) {
    FO.Selective = true;
    FO.CheapImage = B.CheapImage.get();
    if (vm::jitEnabled(Opts.VmMode))
      FO.CheapJit = B.CheapJit.get();
  }
  return FO;
}

//===----------------------------------------------------------------------===//
// Checkpoint frame
//===----------------------------------------------------------------------===//
//
// A campaign checkpoint is sealSnapshot() over one resume record:
//
//   u8 frame marker (PhaseFrame)
//   options fingerprint (writeOptionsFingerprint)
//   u32 phase index             u64 exec offset (completed phases' execs)
//   CampaignResult of the completed phases
//   4 x u64 cull RNG state
//   campaign trace of the completed phases (telemetry::writeCampaignTrace)
//   nested Fuzzer::snapshot() blob of the live phase
//
// The fingerprint pins the resume to the exact original configuration;
// the robustness knobs themselves (checkpoint interval, watchdog) are
// deliberately excluded — they never affect results, so a run may be
// resumed under a different checkpoint cadence. Frames from before the
// phase list began directly with the fingerprint's driver tag (0..2).

constexpr uint8_t PhaseFrame = 0x50;

struct ResumeRecord {
  uint32_t Phase = 0;
  uint64_t ExecOffset = 0;
  CampaignResult Partial;
  uint64_t RngState[4] = {0, 0, 0, 0};
  /// Telemetry of the completed phases (null when untraced); the live
  /// phase's recorder rides inside FuzzBlob.
  std::shared_ptr<telemetry::CampaignTrace> Trace;
  std::vector<uint8_t> FuzzBlob;
};

//===----------------------------------------------------------------------===//
// The campaign loop
//===----------------------------------------------------------------------===//

CampaignResult runPhases(SubjectBuild &SB, const CampaignOptions &Opts,
                         CampaignError *Err, const ResumeRecord *Resume) {
  if (!SB.ok()) {
    setError(Err, SB.error(), SB.faultSite(), SB.transientError());
    return {};
  }
  const uint32_t NumPhases = phaseCount(Opts);
  CampaignResult R;
  R.Kind = Opts.Kind;
  uint64_t ExecOffset = 0;
  uint32_t Start = 0;
  Rng CullRng(Opts.Seed ^ 0xc0ffee);
  if (Resume) {
    // Everything a checkpoint depends on: the completed phases' aggregate
    // and trace, the cull RNG stream position, and the live instance (in
    // FuzzBlob). The handoff seeds and the carried dictionary are only
    // consumed when *starting* an instance, which a resume never does —
    // the restored instance already absorbed them.
    R = Resume->Partial;
    Start = Resume->Phase;
    ExecOffset = Resume->ExecOffset;
    CullRng.loadState(Resume->RngState);
  }
  std::shared_ptr<telemetry::CampaignTrace> CT =
      makeCampaignTrace(SB, Opts, Resume ? Resume->Trace : nullptr);
  std::vector<fuzz::Input> Seeds = SB.subject().Seeds;
  std::vector<int64_t> Dict;
  const InstrumentedBuild *B = nullptr;

  for (uint32_t I = Start; I < NumPhases; ++I) {
    const Phase P = phaseAt(Opts, I);
    // Look the build up only when the feedback changes: every lookup
    // counts in the cache's hit statistics.
    if (!B || B->Report.Mode != P.Mode) {
      B = instrumentOrError(SB, P.Mode, Opts, Err);
      if (!B)
        return {};
    }
    if (Opts.WatchdogExecLimit && ExecOffset >= Opts.WatchdogExecLimit) {
      setError(Err, "exec watchdog tripped", "", false, /*Watchdog=*/true);
      return {};
    }
    fuzz::FuzzerOptions FO = phaseOptions(SB, *B, Opts, P, ExecOffset);
    if (Opts.CheckpointSink && Opts.CheckpointInterval)
      FO.OnCheckpoint = [&Opts, &R, &CullRng, &CT, I,
                         ExecOffset](const fuzz::Fuzzer &F) {
        ByteWriter W;
        W.u8(PhaseFrame);
        writeOptionsFingerprint(W, Opts);
        W.u32(I);
        W.u64(ExecOffset);
        writeCampaignResult(W, R);
        uint64_t RS[4];
        CullRng.saveState(RS);
        for (uint64_t S : RS)
          W.u64(S);
        telemetry::writeCampaignTrace(W, CT.get());
        W.blob(F.snapshot());
        Opts.CheckpointSink(fuzz::sealSnapshot(W.take()));
      };

    fuzz::Fuzzer F(B->Mod, B->Report, SB.shadow(), FO);
    const bool Restored = Resume && I == Start;
    if (Restored && !F.restore(Resume->FuzzBlob)) {
      setError(Err, "checkpoint restore failed (incompatible state)", "",
               false);
      return {};
    }
    // Once per phase per trace: a carried trace already holds the event
    // for the restored phase.
    if (!Restored || !Resume->Trace)
      campaignEvent(CT.get(), telemetry::EventKind::PhaseStarted, ExecOffset,
                    P.EventA32, 0, P.EventA8);
    if (!Restored) {
      // Carry the cmp dictionary across instances (AFL++ re-mines cmplog
      // from the seed queue on restart).
      F.seedDict(Dict);
      for (const fuzz::Input &Seed : Seeds)
        F.addSeed(Seed);
    }
    uint64_t Budget = P.Budget;
    if (P.TakeRemaining)
      Budget = Opts.ExecBudget > ExecOffset ? Opts.ExecBudget - ExecOffset : 0;
    F.run(Budget);
    if (F.hardLimitHit()) {
      setError(Err, "exec watchdog tripped", "", false, /*Watchdog=*/true);
      return {};
    }

    // A preempted phase counts in full, whatever its accounting: the
    // partial result is informational, and a resume reconverges to the
    // final one.
    if (P.CountFindings || F.preempted()) {
      accumulate(R, F, P.GrowthOffset.value_or(ExecOffset));
      R.FinalQueueSize = F.corpus().size();
    } else {
      R.Execs += F.stats().Execs;
      mergeEdges(R.EdgeSet, F.coveredEdgeList());
    }
    if (CT && F.trace())
      telemetry::collectInstance(*CT, P.Label, ExecOffset, *F.trace());
    if (F.preempted()) {
      R.Trace = CT;
      setPreempted(Err);
      return R;
    }
    ExecOffset += F.stats().Execs;
    Dict = F.cmpDict();
    if (P.Next != Handoff::None) {
      Seeds = handoffSeeds(P.Next, F.corpus(), CullRng, SB.subject().Seeds);
      campaignEvent(CT.get(), telemetry::EventKind::SeedCulled, ExecOffset,
                    static_cast<uint32_t>(Seeds.size()), F.corpus().size());
    }
  }
  R.Trace = CT;
  return R;
}

} // namespace

std::vector<uint8_t> serializeCampaignResult(const CampaignResult &R) {
  ByteWriter W;
  writeCampaignResult(W, R);
  return W.take();
}

bool deserializeCampaignResult(const std::vector<uint8_t> &Blob,
                               CampaignResult &R) {
  ByteReader Rd(Blob);
  R = readCampaignResult(Rd);
  return Rd.done();
}

void writeOptionsFingerprint(ByteWriter &W, const CampaignOptions &Opts) {
  W.u8(static_cast<uint8_t>(kindRow(Opts.Kind).Sched));
  W.u8(static_cast<uint8_t>(Opts.Kind));
  W.u64(Opts.ExecBudget);
  W.u64(Opts.Seed);
  W.u32(Opts.MapSizeLog2);
  W.u32(Opts.CullRounds);
  W.u64(Opts.MaxInputLen);
  W.u64(Opts.StepLimit);
  W.u8(static_cast<uint8_t>(Opts.Placement));
  W.u32(Opts.GrowthSampleInterval);
}

bool readOptionsFingerprint(ByteReader &Rd, CampaignOptions &Opts) {
  uint8_t Tag = Rd.u8();
  uint8_t Kind = Rd.u8();
  if (Kind > static_cast<uint8_t>(FuzzerKind::Prescient))
    return false;
  Opts.Kind = static_cast<FuzzerKind>(Kind);
  if (Tag != static_cast<uint8_t>(kindRow(Opts.Kind).Sched))
    return false;
  Opts.ExecBudget = Rd.u64();
  Opts.Seed = Rd.u64();
  Opts.MapSizeLog2 = Rd.u32();
  // The map is 1 << MapSizeLog2 bytes: an out-of-range value from disk
  // would be undefined behavior in the shift, not just a bad option.
  if (Opts.MapSizeLog2 < cov::CoverageMap::MinSizeLog2 ||
      Opts.MapSizeLog2 > cov::CoverageMap::MaxSizeLog2)
    return false;
  Opts.CullRounds = Rd.u32();
  Opts.MaxInputLen = Rd.u64();
  Opts.StepLimit = Rd.u64();
  uint8_t Placement = Rd.u8();
  if (Placement > static_cast<uint8_t>(bl::PlacementMode::SpanningTree))
    return false;
  Opts.Placement = static_cast<bl::PlacementMode>(Placement);
  Opts.GrowthSampleInterval = Rd.u32();
  return Rd.ok();
}

CampaignResult runCampaign(const Subject &S, const CampaignOptions &Opts,
                           CampaignError *Err) {
  SubjectBuild B(S);
  return runCampaign(B, Opts, Err);
}

CampaignResult runCampaign(SubjectBuild &B, const CampaignOptions &Opts,
                           CampaignError *Err) {
  // Durable campaigns detour through the store layer, which re-enters
  // here with StoreDir cleared once recovery is resolved.
  if (!Opts.StoreDir.empty())
    return runStoredCampaign(B, Opts, Err);
  return runPhases(B, Opts, Err, nullptr);
}

CampaignResult resumeCampaign(SubjectBuild &B, const CampaignOptions &Opts,
                              const std::vector<uint8_t> &Checkpoint,
                              CampaignError *Err) {
  auto Fail = [&](const char *Msg) {
    setError(Err, Msg, "", false);
    return CampaignResult{};
  };
  if (!B.ok()) {
    setError(Err, B.error(), B.faultSite(), B.transientError());
    return {};
  }
  std::vector<uint8_t> Payload;
  if (!fuzz::openSnapshot(Checkpoint, Payload))
    return Fail("corrupt or truncated checkpoint");
  ByteReader Rd(Payload);
  // Legacy frames began with the fingerprint, whose first byte is a
  // Schedule value.
  uint8_t Frame = Rd.u8();
  if (Rd.ok() && Frame <= static_cast<uint8_t>(Schedule::Opp))
    return Fail("checkpoint predates the phase-list checkpoint frame "
                "(written by a per-driver build); restart the campaign");
  ByteWriter Fingerprint;
  writeOptionsFingerprint(Fingerprint, Opts);
  const std::vector<uint8_t> Want = Fingerprint.take();
  std::vector<uint8_t> Got(Want.size());
  if (Frame != PhaseFrame || !Rd.bytes(Got.data(), Got.size()) || Got != Want)
    return Fail("checkpoint does not match campaign options");

  ResumeRecord Rec;
  Rec.Phase = Rd.u32();
  Rec.ExecOffset = Rd.u64();
  Rec.Partial = readCampaignResult(Rd);
  for (uint64_t &S : Rec.RngState)
    S = Rd.u64();
  Rec.Trace = telemetry::readCampaignTrace(Rd);
  Rec.FuzzBlob = Rd.blob();
  if (!Rd.done())
    return Fail("malformed checkpoint payload");
  if (Rec.Phase >= phaseCount(Opts))
    return Fail("checkpoint phase index out of range");
  if (Rec.Partial.Kind != Opts.Kind)
    return Fail("checkpoint partial result is for another fuzzer kind");
  return runPhases(B, Opts, Err, &Rec);
}

CampaignResult resumeCampaign(const Subject &S, const CampaignOptions &Opts,
                              const std::vector<uint8_t> &Checkpoint,
                              CampaignError *Err) {
  SubjectBuild B(S);
  return resumeCampaign(B, Opts, Checkpoint, Err);
}

} // namespace strategy
} // namespace pathfuzz
