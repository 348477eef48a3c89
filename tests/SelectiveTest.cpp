//===- SelectiveTest.cpp - Two-tier selective execution identity --------------===//
//
// Part of the pathfuzz project.
//
// The selective (two-tier) mode's contract: campaigns that bulk-execute on
// the probe-free cheap image and replay only unseen exec-path signatures
// on the full image are *byte-identical* to always-instrumented campaigns
// — same CampaignResult serialization, same queue, same coverage, same
// checkpoint/resume behavior. The suite pins that contract at three
// levels:
//
//  - per exec: the cheap image agrees with the full image on every
//    non-map observable and on the exec-path signature, for every example
//    subject under every feedback mode;
//  - per plan: on randomized CFGs the elision plan passes the dominator-
//    backed audit and the elided image still matches, while tampered
//    plans (elide a non-probe, keep a probe) are rejected;
//  - per campaign: selective-on vs selective-off serializations are equal
//    across drivers, the selective run actually skips (the
//    vm.selective.* counters prove the cheap tier engaged), and
//    kill+resume under selective reproduces the uninterrupted result.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "cov/CoverageMap.h"
#include "instrument/Elide.h"
#include "instrument/Instrument.h"
#include "strategy/BuildCache.h"
#include "support/Env.h"
#include "telemetry/Metrics.h"
#include "telemetry/Telemetry.h"
#include "vm/Image.h"
#include "vm/Vm.h"
#include "vm/jit/Jit.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace pathfuzz;
using namespace pathfuzz::strategy;

namespace {

#ifdef PATHFUZZ_SOURCE_DIR
const char *ExamplesDir = PATHFUZZ_SOURCE_DIR "/examples/minilang";
#else
const char *ExamplesDir = "examples/minilang";
#endif

std::string slurp(const std::string &Path) {
  std::ifstream F(Path);
  std::ostringstream SS;
  SS << F.rdbuf();
  return SS.str();
}

const char *const ExampleNames[] = {"sum", "lookup", "checksum", "tokens",
                                    "rle"};

std::vector<Subject> exampleSubjects() {
  std::vector<Subject> Out;
  for (const char *Name : ExampleNames) {
    Subject S;
    S.Name = Name;
    S.Source = slurp(std::string(ExamplesDir) + "/" + Name + ".ml");
    EXPECT_FALSE(S.Source.empty()) << "missing example " << Name;
    fuzz::Input In(256);
    Rng R(7);
    for (uint8_t &B : In)
      B = static_cast<uint8_t>(R.below(256));
    S.Seeds.push_back(std::move(In));
    Out.push_back(std::move(S));
  }
  return Out;
}

std::vector<fuzz::Input> workload(const Subject &S, size_t Count,
                                  uint64_t Seed) {
  std::vector<fuzz::Input> Inputs = S.Seeds;
  Rng R(Seed);
  while (Inputs.size() < Count) {
    fuzz::Input In = S.Seeds[R.index(S.Seeds.size())];
    for (int M = 0; M < 4; ++M)
      In[R.index(In.size())] = static_cast<uint8_t>(R.below(256));
    Inputs.push_back(std::move(In));
  }
  return Inputs;
}

/// Everything a cheap execution must reproduce exactly: the replay
/// decision is gated on the signature alone, so per-exec observables that
/// feed the fuzzer directly (fault record, steps, return value, shadow
/// edges, cmp log, heap accounting) come from the *cheap* run and must be
/// bit-identical to the full engine's.
void expectSameNonMapResult(const vm::ExecResult &A, const vm::ExecResult &B,
                            const std::string &What) {
  EXPECT_EQ(A.TheFault.Kind, B.TheFault.Kind) << What;
  EXPECT_EQ(A.TheFault.Func, B.TheFault.Func) << What;
  EXPECT_EQ(A.TheFault.Block, B.TheFault.Block) << What;
  EXPECT_EQ(A.TheFault.InstrIdx, B.TheFault.InstrIdx) << What;
  EXPECT_EQ(A.TheFault.stackHash(), B.TheFault.stackHash()) << What;
  EXPECT_EQ(A.Steps, B.Steps) << What;
  EXPECT_EQ(A.ReturnValue, B.ReturnValue) << What;
  EXPECT_EQ(A.ShadowEdges, B.ShadowEdges) << What;
  EXPECT_EQ(A.CmpOperands, B.CmpOperands) << What;
  EXPECT_EQ(A.HeapAllocs, B.HeapAllocs) << What;
  EXPECT_EQ(A.HeapCellsAllocated, B.HeapCellsAllocated) << What;
}

/// Replay Inputs through the fully instrumented image (coverage map
/// attached, as the replay tier runs it) and through the audited cheap
/// image (no map, signature only, as the bulk tier runs it); every
/// non-map observable and the exec-path signature must agree. Images run
/// compiled, as campaigns run them; where the JIT is unavailable both
/// tiers run the reference interpreter, as campaigns there do.
void expectCheapTierIdentity(const mir::Module &M,
                             const instr::ShadowEdgeIndex *Shadow,
                             const std::vector<fuzz::Input> &Inputs,
                             const uint64_t *FuncKeys,
                             const std::string &What) {
  instr::ElisionPlan Plan = instr::planProbeElision(M);
  instr::AuditResult AR = instr::auditElisionPlan(M, Plan);
  ASSERT_TRUE(AR.ok()) << What << ": " << AR.message();

  vm::ProgramImage Full = vm::ProgramImage::build(M, Shadow);
  vm::ProgramImage Cheap = vm::ProgramImage::build(M, Shadow, &Plan);
  ASSERT_EQ(Full.codeSize(), Cheap.codeSize()) << What;

  vm::Vm FullVm(M, Shadow);
  vm::Vm CheapVm(M, Shadow);
  std::unique_ptr<vm::jit::JitProgram> FullJit, CheapJit;
  if (vm::jit::available()) {
    FullJit = vm::jit::JitProgram::compile(Full);
    CheapJit = vm::jit::JitProgram::compile(Cheap);
    ASSERT_NE(FullJit, nullptr) << What;
    ASSERT_NE(CheapJit, nullptr) << What;
    FullVm.attachJit(FullJit.get());
    CheapVm.attachJit(CheapJit.get());
  }
  cov::CoverageMap Map(16);
  for (size_t K = 0; K < Inputs.size(); ++K) {
    const fuzz::Input &In = Inputs[K];
    vm::ExecOptions EO;
    EO.StepLimit = 200000;
    EO.LogCmps = true;
    Map.reset();

    uint64_t SigFull = 0, SigCheap = 0;
    vm::FeedbackContext FbFull;
    FbFull.Map = Map.data();
    FbFull.MapMask = Map.mask();
    FbFull.FuncKeys = FuncKeys;
    FbFull.PathSig = &SigFull;
    vm::FeedbackContext FbCheap;
    FbCheap.PathSig = &SigCheap;

    vm::ExecResult RF = FullVm.run(In.data(), In.size(), EO, &FbFull);
    vm::ExecResult RC = CheapVm.run(In.data(), In.size(), EO, &FbCheap);
    std::string Tag = What + " input " + std::to_string(K);
    expectSameNonMapResult(RF, RC, Tag);
    EXPECT_EQ(SigFull, SigCheap) << Tag << ": signatures diverge";
  }
}

//===----------------------------------------------------------------------===//
// Per-exec identity
//===----------------------------------------------------------------------===//

/// Cheap-tier identity on every example subject under every feedback
/// mode, through the same BuildCache path the drivers use.
TEST(Selective, ExampleSubjectsCheapTierIdentity) {
  for (const Subject &S : exampleSubjects()) {
    BuildCache Cache;
    std::shared_ptr<SubjectBuild> SB = Cache.get(S);
    ASSERT_TRUE(SB->ok()) << SB->error();
    CampaignOptions O;
    O.VmMode = vm::VmExecMode::Jit;
    O.Selective = vm::SelectiveMode::On;
    for (instr::Feedback Mode :
         {instr::Feedback::None, instr::Feedback::EdgePrecise,
          instr::Feedback::EdgeClassic, instr::Feedback::Path}) {
      const InstrumentedBuild &IB = SB->instrumented(Mode, O);
      if (vm::jit::available()) {
        ASSERT_NE(IB.CheapImage, nullptr)
            << "selective JIT build must produce the cheap twin";
        ASSERT_NE(IB.CheapJit, nullptr);
      }
      std::string What =
          S.Name + "/feedback" + std::to_string(static_cast<int>(Mode));
      expectCheapTierIdentity(IB.Mod, &SB->shadow(),
                              workload(S, 48, 0x5eedbeef),
                              IB.Report.FuncKeys.data(), What);
    }
  }
}

/// The probe count sanity check: on an instrumented module the plan must
/// elide something, and exactly the probes.
TEST(Selective, PlanCoversExactlyTheProbes) {
  Subject S = exampleSubjects()[0];
  BuildCache Cache;
  std::shared_ptr<SubjectBuild> SB = Cache.get(S);
  ASSERT_TRUE(SB->ok());
  CampaignOptions O;
  O.VmMode = vm::VmExecMode::Interpreter;
  const InstrumentedBuild &IB =
      SB->instrumented(instr::Feedback::Path, O);

  instr::ElisionPlan Plan = instr::planProbeElision(IB.Mod);
  EXPECT_GT(Plan.count(), 0u);
  uint64_t Probes = 0;
  for (const mir::Function &Fn : IB.Mod.Funcs)
    for (const mir::BasicBlock &B : Fn.Blocks)
      for (const mir::Instr &I : B.Instrs)
        if (I.isProbe())
          ++Probes;
  EXPECT_EQ(Plan.count(), Probes);
}

//===----------------------------------------------------------------------===//
// Randomized-CFG elision property test
//===----------------------------------------------------------------------===//

/// Arbitrary generated CFGs (loops, unreachable blocks, step-limit
/// hangs): the elision plan must audit clean and the elided image must
/// agree with the full one on observables and signature.
TEST(Selective, RandomizedMirElisionIdentity) {
  Rng R(20260809);
  for (int Trial = 0; Trial < 120; ++Trial) {
    mir::Module M = test::moduleWith(test::randomFunction(R));
    instr::ShadowEdgeIndex Shadow = instr::ShadowEdgeIndex::build(M);
    instr::InstrumentOptions IO;
    IO.Mode = Trial % 2 ? instr::Feedback::Path : instr::Feedback::EdgePrecise;
    IO.Seed = R.below(1u << 30);
    instr::InstrumentReport Rep = instr::instrumentModule(M, IO);

    std::vector<fuzz::Input> Inputs;
    for (int K = 0; K < 6; ++K) {
      fuzz::Input In(R.below(12));
      for (uint8_t &B : In)
        B = static_cast<uint8_t>(R.below(256));
      Inputs.push_back(std::move(In));
    }
    expectCheapTierIdentity(M, &Shadow, Inputs, Rep.FuncKeys.data(),
                            "random trial " + std::to_string(Trial));
  }
}

//===----------------------------------------------------------------------===//
// Audit rejection
//===----------------------------------------------------------------------===//

/// Tampered plans must be rejected: eliding a non-probe would change
/// program semantics, keeping a probe would write the cheap tier's null
/// coverage map.
TEST(Selective, AuditRejectsTamperedPlans) {
  Subject S = exampleSubjects()[3]; // tokens: calls + branches
  BuildCache Cache;
  std::shared_ptr<SubjectBuild> SB = Cache.get(S);
  ASSERT_TRUE(SB->ok());
  CampaignOptions O;
  O.VmMode = vm::VmExecMode::Interpreter;
  const InstrumentedBuild &IB =
      SB->instrumented(instr::Feedback::Path, O);
  const mir::Module &M = IB.Mod;

  instr::ElisionPlan Good = instr::planProbeElision(M);
  ASSERT_TRUE(instr::auditElisionPlan(M, Good).ok());
  ASSERT_GT(Good.count(), 0u);

  // Un-elide the first planned probe: a surviving probe fails the audit.
  {
    instr::ElisionPlan Plan = Good;
    bool Flipped = false;
    for (auto &Fn : Plan.Elide) {
      for (auto &B : Fn) {
        for (auto &Slot : B)
          if (Slot) {
            Slot = 0;
            Flipped = true;
            break;
          }
        if (Flipped)
          break;
      }
      if (Flipped)
        break;
    }
    ASSERT_TRUE(Flipped);
    instr::AuditResult AR = instr::auditElisionPlan(M, Plan);
    EXPECT_FALSE(AR.ok());
    EXPECT_FALSE(AR.message().empty());
  }

  // Elide a non-probe: semantic instructions must never be planned away.
  {
    instr::ElisionPlan Plan = Good;
    bool Flipped = false;
    for (uint32_t F = 0; F < M.Funcs.size() && !Flipped; ++F)
      for (uint32_t B = 0; B < M.Funcs[F].Blocks.size() && !Flipped; ++B) {
        const auto &Instrs = M.Funcs[F].Blocks[B].Instrs;
        for (uint32_t I = 0; I < Instrs.size(); ++I)
          if (!Instrs[I].isProbe()) {
            Plan.Elide[F][B][I] = 1;
            Flipped = true;
            break;
          }
      }
    ASSERT_TRUE(Flipped);
    EXPECT_FALSE(instr::auditElisionPlan(M, Plan).ok());
  }

  // Wrong dimensions (a plan for a different module) must not pass either.
  {
    instr::ElisionPlan Plan = Good;
    Plan.Elide.emplace_back();
    EXPECT_FALSE(instr::auditElisionPlan(M, Plan).ok());
  }
}

//===----------------------------------------------------------------------===//
// Campaign byte-equality
//===----------------------------------------------------------------------===//

CampaignOptions selectiveOpts(FuzzerKind Kind, vm::SelectiveMode Mode) {
  CampaignOptions Opts;
  Opts.Kind = Kind;
  Opts.ExecBudget = 4000;
  Opts.Seed = 11;
  Opts.VmMode = vm::VmExecMode::Jit;
  Opts.Selective = Mode;
  return Opts;
}

/// Whole campaigns across drivers and example subjects: selective-on and
/// selective-off serializations must be byte-identical.
TEST(Selective, CampaignResultsAreByteIdentical) {
  std::vector<Subject> Examples = exampleSubjects();
  for (size_t SubjIdx : {size_t(1), size_t(3)}) { // lookup, tokens
    const Subject &S = Examples[SubjIdx];
    for (FuzzerKind Kind :
         {FuzzerKind::Path, FuzzerKind::Pcguard, FuzzerKind::Cull}) {
      CampaignResult On =
          runCampaign(S, selectiveOpts(Kind, vm::SelectiveMode::On));
      CampaignResult Off =
          runCampaign(S, selectiveOpts(Kind, vm::SelectiveMode::Off));
      EXPECT_EQ(serializeCampaignResult(On), serializeCampaignResult(Off))
          << S.Name << "/" << fuzzerKindName(Kind);
    }
  }
}

/// The cheap tier must actually engage: a traced selective campaign
/// records skips and replays, its observable telemetry matches the
/// selective-off run, and the vm.selective.* family is engine-local
/// (present only on the selective run).
TEST(Selective, TelemetryProvesTwoTierEngagesAndStaysObservablyEqual) {
  if (!telemetry::Compiled)
    GTEST_SKIP() << "telemetry compiled out";
  const Subject S = exampleSubjects()[3]; // tokens
  CampaignOptions On = selectiveOpts(FuzzerKind::Path, vm::SelectiveMode::On);
  On.Trace.Enabled = true;
  On.Trace.SampleInterval = 512;
  CampaignOptions Off = On;
  Off.Selective = vm::SelectiveMode::Off;

  CampaignResult ROn = runCampaign(S, On);
  CampaignResult ROff = runCampaign(S, Off);
  EXPECT_EQ(serializeCampaignResult(ROn), serializeCampaignResult(ROff));

  ASSERT_NE(ROn.Trace, nullptr);
  ASSERT_NE(ROff.Trace, nullptr);
  ASSERT_EQ(ROn.Trace->Instances.size(), ROff.Trace->Instances.size());
  uint64_t Skipped = 0, Replays = 0, Mismatches = 0;
  for (size_t K = 0; K < ROn.Trace->Instances.size(); ++K) {
    const telemetry::InstanceRecord &A = ROn.Trace->Instances[K];
    const telemetry::InstanceRecord &B = ROff.Trace->Instances[K];
    EXPECT_EQ(A.Samples, B.Samples);
    EXPECT_TRUE(telemetry::sameObservableMetrics(A.Metrics, B.Metrics));
    auto It = A.Metrics.counters().find("vm.selective.skipped");
    if (It != A.Metrics.counters().end())
      Skipped += It->second;
    It = A.Metrics.counters().find("vm.selective.replays");
    if (It != A.Metrics.counters().end())
      Replays += It->second;
    It = A.Metrics.counters().find("vm.selective.replay.mismatch");
    if (It != A.Metrics.counters().end())
      Mismatches += It->second;
    EXPECT_FALSE(B.Metrics.counters().count("vm.selective.skipped"));
    EXPECT_FALSE(B.Metrics.counters().count("vm.selective.replays"));
  }
  // A 4000-exec mutational campaign revisits paths constantly; if nothing
  // was skipped the cheap tier never paid for itself, and if nothing was
  // replayed the map could never learn. A cheap/full divergence
  // (replay.mismatch) would break the identity contract outright.
  EXPECT_GT(Skipped, 0u);
  EXPECT_GT(Replays, 0u);
  EXPECT_EQ(Mismatches, 0u);
  EXPECT_TRUE(telemetry::isEngineLocalMetric("vm.selective.skipped"));
}

//===----------------------------------------------------------------------===//
// Checkpoint/resume under selective
//===----------------------------------------------------------------------===//

/// Kill+resume under selective execution: every checkpoint resume must
/// reproduce the uninterrupted selective run, which itself must equal the
/// always-instrumented run. The signature cache is deliberately not part
/// of the checkpoint — a resumed run re-replays, but results stay
/// byte-identical.
TEST(Selective, CheckpointResumeIsByteIdentical) {
  Subject S = exampleSubjects()[1]; // lookup
  CampaignOptions Plain = selectiveOpts(FuzzerKind::Pcguard,
                                        vm::SelectiveMode::On);
  Plain.ExecBudget = 6000;
  CampaignOptions Always = Plain;
  Always.Selective = vm::SelectiveMode::Off;
  std::vector<uint8_t> Ref = serializeCampaignResult(runCampaign(S, Plain));
  EXPECT_EQ(Ref, serializeCampaignResult(runCampaign(S, Always)));

  CampaignOptions WithCkpt = Plain;
  WithCkpt.CheckpointInterval = 900;
  std::vector<std::vector<uint8_t>> Checkpoints;
  WithCkpt.CheckpointSink = [&Checkpoints](const std::vector<uint8_t> &Blob) {
    Checkpoints.push_back(Blob);
  };
  CampaignError Err;
  CampaignResult Observed = runCampaign(S, WithCkpt, &Err);
  ASSERT_FALSE(Err.Failed) << Err.Message;
  EXPECT_EQ(serializeCampaignResult(Observed), Ref);
  ASSERT_GE(Checkpoints.size(), 3u) << "budget 6000 / interval 900";

  for (size_t I = 0; I < Checkpoints.size(); ++I) {
    SCOPED_TRACE("checkpoint " + std::to_string(I));
    CampaignError ResumeErr;
    CampaignResult Resumed =
        resumeCampaign(S, Plain, Checkpoints[I], &ResumeErr);
    ASSERT_FALSE(ResumeErr.Failed) << ResumeErr.Message;
    EXPECT_EQ(serializeCampaignResult(Resumed), Ref);
    // Cross-mode resume: a checkpoint written under selective must also
    // resume correctly with selective off — the mode is not part of the
    // checkpoint fingerprint.
    CampaignError CrossErr;
    CampaignResult Cross =
        resumeCampaign(S, Always, Checkpoints[I], &CrossErr);
    ASSERT_FALSE(CrossErr.Failed) << CrossErr.Message;
    EXPECT_EQ(serializeCampaignResult(Cross), Ref);
  }
}

//===----------------------------------------------------------------------===//
// Mode resolution
//===----------------------------------------------------------------------===//

/// CampaignOptions::Selective forces the tier choice; Auto follows
/// PATHFUZZ_SELECTIVE (default on).
TEST(Selective, ModeResolution) {
  EXPECT_FALSE(vm::selectiveEnabled(vm::SelectiveMode::Off));
  EXPECT_TRUE(vm::selectiveEnabled(vm::SelectiveMode::On));

  unsetenv("PATHFUZZ_SELECTIVE");
  EXPECT_TRUE(vm::selectiveEnabled(vm::SelectiveMode::Auto));
  setenv("PATHFUZZ_SELECTIVE", "0", 1);
  EXPECT_FALSE(vm::selectiveEnabled(vm::SelectiveMode::Auto));
  setenv("PATHFUZZ_SELECTIVE", "1", 1);
  EXPECT_TRUE(vm::selectiveEnabled(vm::SelectiveMode::Auto));
  unsetenv("PATHFUZZ_SELECTIVE");
}

} // namespace
