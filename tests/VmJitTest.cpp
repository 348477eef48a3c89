//===- VmJitTest.cpp - Baseline JIT vs reference interpreter identity ---------===//
//
// Part of the pathfuzz project.
//
// The identity contract of the baseline JIT (vm/jit/): for every module,
// every input and every feedback mode, compiled native code produces
// bit-identical observable results to the reference interpreter — same
// fault record (kind, coordinates, stack hash), same step count, same
// return value, same coverage-map bytes, same shadow edges and cmp log,
// same heap accounting. docs/JIT.md spells the contract out; this suite
// is the one engine-identity suite and pins it:
//
//  - every example subject replayed per-exec through interpreter and JIT
//    across all feedback modes, once on compiled code only and once
//    alternating with the capacity guard's interpreter fallback;
//  - a randomized property test over arbitrary generated CFGs (loops,
//    unreachable blocks, step-limit hangs), with the same two passes;
//  - a step-limit sweep across the exact trip boundary (the countdown
//    register's wrap must reproduce the reference's StepLimit + 1);
//  - the line-flag oracle of both engines;
//  - the snapshot reset: dirtied global pages are restored between
//    executions exactly as the interpreter's fresh materialization would;
//  - the capacity guard's transparent fallback to the interpreter;
//  - whole campaigns on ALL 18 paper subjects x the 4 feedback modes,
//    compared through serializeCampaignResult;
//  - traced campaigns whose telemetry must agree apart from the
//    engine-local vm.jit.* and vm.fastpath.* families, which appear
//    exactly on the JIT side;
//  - checkpoint/resume with the engine switched between the two runs
//    (the engine is excluded from the checkpoint fingerprint);
//  - the PATHFUZZ_VM_ENGINE knob resolution and the BuildCache
//    compile/hit accounting.
//
// The VmFastPath tests at the end pin the decoded image as the fuzzer
// wires it, under whatever engine the selector picks: the rule that
// decodes an image exactly when the JIT runs (an image alone runs the
// interpreter), the Fuzzer's image-then-JIT wiring and its snapshot
// reset, engine switches on one Vm, and the vm.fastpath.* telemetry.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "cov/CoverageMap.h"
#include "instrument/Instrument.h"
#include "lang/Compile.h"
#include "strategy/BuildCache.h"
#include "support/Env.h"
#include "targets/Targets.h"
#include "vm/Image.h"
#include "vm/Vm.h"
#include "vm/jit/Jit.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
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

/// Deterministic mutated-seed workload (independent of the engine).
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

/// Field-level identity of two executions; DirtyGlobalCells is engine
/// bookkeeping (zero on the interpreter) and deliberately excluded.
void expectSameResult(const vm::ExecResult &A, const vm::ExecResult &B,
                      const char *What) {
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

/// Replay the workload through a fresh interpreter Vm and Other; compare
/// every observable (result fields, coverage-map bytes) per execution.
/// BeforeRun, when given, may adjust the options of input K (both Vms get
/// the same options) or rewire Other before it runs.
void expectSameAsInterpreter(
    const mir::Module &M, const instr::ShadowEdgeIndex *Shadow,
    vm::Vm &Other, const std::vector<fuzz::Input> &Inputs,
    const uint64_t *FuncKeys, const std::string &What,
    const std::function<void(size_t, vm::ExecOptions &)> &BeforeRun = {}) {
  vm::Vm Interp(M, Shadow);
  cov::CoverageMap MapI(16), MapO(16);
  for (size_t K = 0; K < Inputs.size(); ++K) {
    const fuzz::Input &In = Inputs[K];
    vm::ExecOptions EO;
    EO.StepLimit = 200000;
    EO.LogCmps = true;
    if (BeforeRun)
      BeforeRun(K, EO);
    MapI.reset();
    MapO.reset();
    vm::FeedbackContext FbI, FbO;
    FbI.Map = MapI.data();
    FbI.MapMask = MapI.mask();
    FbI.FuncKeys = FuncKeys;
    FbO.Map = MapO.data();
    FbO.MapMask = MapO.mask();
    FbO.FuncKeys = FuncKeys;
    vm::ExecResult RI = Interp.run(In.data(), In.size(), EO, &FbI);
    vm::ExecResult RO = Other.run(In.data(), In.size(), EO, &FbO);
    const std::string Where = What + " input " + std::to_string(K);
    expectSameResult(RI, RO, Where.c_str());
    EXPECT_EQ(std::memcmp(MapI.data(), MapO.data(), MapI.size()), 0)
        << Where << ": coverage maps diverge";
  }
}

/// Replay the workload through a fresh interpreter Vm and a fresh JIT Vm
/// running the compiled program J. With TripGuardOnOdd, every odd input
/// runs with a call-depth limit the capacity guard refuses, so the JIT Vm
/// alternates between compiled code and the interpreter fallback, and
/// every compiled run after a fallback must re-materialize the globals
/// instead of resetting pages of a prefix it no longer owns.
void expectJitIdentity(const mir::Module &M,
                       const instr::ShadowEdgeIndex *Shadow,
                       const vm::jit::JitProgram &J,
                       const std::vector<fuzz::Input> &Inputs,
                       const uint64_t *FuncKeys, const char *What,
                       bool TripGuardOnOdd = false) {
  vm::Vm Jit(M, Shadow);
  Jit.attachJit(&J);
  expectSameAsInterpreter(M, Shadow, Jit, Inputs, FuncKeys, What,
                          [TripGuardOnOdd](size_t K, vm::ExecOptions &EO) {
                            if (TripGuardOnOdd && K % 2)
                              EO.MaxCallDepth = (1u << 20) + 1;
                          });
  const size_t Fallbacks = TripGuardOnOdd ? Inputs.size() / 2 : 0;
  EXPECT_EQ(Jit.jitRunStats().Execs, Inputs.size() - Fallbacks) << What;
  EXPECT_EQ(Jit.jitRunStats().Fallbacks, Fallbacks) << What;
  if (TripGuardOnOdd) {
    EXPECT_EQ(Jit.resetStats().Resets, 0u) << What;
  }
}

/// Per-exec identity on every example subject under every feedback mode,
/// with the compiled program coming from the BuildCache slot the real
/// campaign drivers would share; then the same workload again with the
/// JIT Vm alternating between compiled code and the interpreter fallback.
TEST(VmJit, ExampleSubjectsIdentity) {
  if (!vm::jit::available())
    GTEST_SKIP() << "JIT unsupported on this platform";
  for (const Subject &S : exampleSubjects()) {
    BuildCache Cache;
    std::shared_ptr<SubjectBuild> SB = Cache.get(S);
    CampaignOptions O;
    O.VmMode = vm::VmExecMode::Jit;
    for (instr::Feedback Mode :
         {instr::Feedback::None, instr::Feedback::EdgePrecise,
          instr::Feedback::EdgeClassic, instr::Feedback::Path}) {
      const InstrumentedBuild &IB = SB->instrumented(Mode, O);
      ASSERT_NE(IB.Image, nullptr);
      ASSERT_NE(IB.Jit, nullptr);
      std::string What =
          S.Name + "/feedback" + std::to_string(static_cast<int>(Mode));
      const std::vector<fuzz::Input> Inputs = workload(S, 48, 0x5eedbeef);
      expectJitIdentity(IB.Mod, &SB->shadow(), *IB.Jit, Inputs,
                        IB.Report.FuncKeys.data(), What.c_str());
      expectJitIdentity(IB.Mod, &SB->shadow(), *IB.Jit, Inputs,
                        IB.Report.FuncKeys.data(), What.c_str(),
                        /*TripGuardOnOdd=*/true);
    }
  }
}

/// The line-flag oracle on both engines: on every paper and example
/// subject, every feedback mode, the PathAFL call hash on and off and two
/// map sizes, the lines an engine flags are exactly the lines its map
/// bumps left nonzero — the precondition of the fuzzer's touched-line map
/// pipeline (cov/CoverageMap.h). On compiled code that pins the emitBump
/// template and the pfJitCallHash helper; the JIT half is skipped where
/// the JIT is unavailable.
TEST(VmJit, LineFlagsMarkExactlyNonzeroLines) {
  std::vector<Subject> Subjects = targets::allSubjects();
  for (Subject &S : exampleSubjects())
    Subjects.push_back(std::move(S));
  for (const Subject &S : Subjects) {
    BuildCache Cache;
    std::shared_ptr<SubjectBuild> SB = Cache.get(S);
    ASSERT_TRUE(SB->ok()) << S.Name;
    CampaignOptions O;
    O.VmMode = vm::VmExecMode::Jit;
    const std::vector<fuzz::Input> Inputs = workload(S, 24, 0x11fe);
    for (instr::Feedback Mode :
         {instr::Feedback::None, instr::Feedback::EdgePrecise,
          instr::Feedback::EdgeClassic, instr::Feedback::Path}) {
      const InstrumentedBuild &IB = SB->instrumented(Mode, O);
      ASSERT_EQ(IB.Jit != nullptr, vm::jit::available());
      vm::Vm Interp(IB.Mod, &SB->shadow());
      vm::Vm Jit(IB.Mod, &SB->shadow());
      if (IB.Jit)
        Jit.attachJit(IB.Jit.get());
      for (uint32_t Log2 : {10u, 16u}) {
        for (bool CallHash : {false, true}) {
          const std::string What =
              S.Name + "/feedback" + std::to_string(static_cast<int>(Mode)) +
              "/2^" + std::to_string(Log2) + (CallHash ? "/callhash" : "");
          EXPECT_EQ(test::lineFlagMismatch(Interp, Inputs, Log2,
                                           IB.Report.FuncKeys.data(),
                                           CallHash),
                    "")
              << "interpreter " << What;
          if (IB.Jit) {
            EXPECT_EQ(test::lineFlagMismatch(Jit, Inputs, Log2,
                                             IB.Report.FuncKeys.data(),
                                             CallHash),
                      "")
                << "jit " << What;
          }
        }
      }
      EXPECT_EQ(Jit.jitRunStats().Fallbacks, 0u) << S.Name;
    }
  }
}

/// Randomized property test: arbitrary generated CFGs (back edges, self
/// loops, unreachable blocks, step-limit hangs) must execute identically
/// through compiled code and the interpreter, also when the JIT Vm
/// alternates with the interpreter fallback.
TEST(VmJit, RandomizedMirIdentity) {
  if (!vm::jit::available())
    GTEST_SKIP() << "JIT unsupported on this platform";
  Rng R(20260810);
  for (int Trial = 0; Trial < 150; ++Trial) {
    mir::Module M = test::moduleWith(test::randomFunction(R));
    instr::ShadowEdgeIndex Shadow = instr::ShadowEdgeIndex::build(M);
    instr::InstrumentOptions IO;
    IO.Mode = Trial % 2 ? instr::Feedback::Path : instr::Feedback::EdgePrecise;
    IO.Seed = R.below(1u << 30);
    instr::InstrumentReport Rep = instr::instrumentModule(M, IO);
    vm::ProgramImage Image = vm::ProgramImage::build(M, &Shadow);
    std::unique_ptr<vm::jit::JitProgram> J =
        vm::jit::JitProgram::compile(Image);
    ASSERT_NE(J, nullptr);

    std::vector<fuzz::Input> Inputs;
    for (int K = 0; K < 6; ++K) {
      fuzz::Input In(R.below(12));
      for (uint8_t &B : In)
        B = static_cast<uint8_t>(R.below(256));
      Inputs.push_back(std::move(In));
    }
    std::string What = "random trial " + std::to_string(Trial);
    expectJitIdentity(M, &Shadow, *J, Inputs, Rep.FuncKeys.data(),
                      What.c_str());
    expectJitIdentity(M, &Shadow, *J, Inputs, Rep.FuncKeys.data(),
                      What.c_str(), /*TripGuardOnOdd=*/true);
  }
}

/// Step budgets: sweep the limit across a loop subject's exact natural
/// step count. The JIT keeps the budget in a countdown register, so the
/// trip boundary (Steps = StepLimit + 1, fault coordinates at the
/// *un-advanced* PC) is where an off-by-one would hide.
TEST(VmJit, StepLimitSweepIdentity) {
  if (!vm::jit::available())
    GTEST_SKIP() << "JIT unsupported on this platform";
  lang::CompileResult CR = lang::compileSource(R"ml(
fn work(n) {
  var s = 0;
  var i = 0;
  while (i < n) {
    s = s + i * 3;
    i = i + 1;
  }
  return s;
}

fn main() {
  return work(40 + len());
}
)ml",
                                               "steps");
  ASSERT_TRUE(CR.ok()) << CR.message();
  mir::Module M = std::move(*CR.Mod);
  vm::ProgramImage Image = vm::ProgramImage::build(M, nullptr);
  std::unique_ptr<vm::jit::JitProgram> J = vm::jit::JitProgram::compile(Image);
  ASSERT_NE(J, nullptr);
  vm::Vm Interp(M);
  vm::Vm Jit(M);
  Jit.attachJit(J.get());

  // Natural step count of the empty-input run.
  vm::ExecOptions Wide;
  uint64_t Natural = Interp.run(nullptr, 0, Wide, nullptr).Steps;
  ASSERT_GT(Natural, 10u);

  for (uint64_t Limit :
       {uint64_t(1), uint64_t(2), uint64_t(3), Natural - 2, Natural - 1,
        Natural, Natural + 1, Natural + 100}) {
    vm::ExecOptions EO;
    EO.StepLimit = Limit;
    vm::ExecResult RI = Interp.run(nullptr, 0, EO, nullptr);
    vm::ExecResult RJ = Jit.run(nullptr, 0, EO, nullptr);
    std::string What = "step limit " + std::to_string(Limit);
    expectSameResult(RI, RJ, What.c_str());
    EXPECT_EQ(RJ.hung(), Limit < Natural) << What;
    if (RJ.hung()) {
      EXPECT_EQ(RJ.Steps, Limit + 1) << What;
    }
  }
  EXPECT_GT(Jit.jitRunStats().Bailouts, 0u);
}

/// Snapshot reset: a run that dirties global pages must not leak them
/// into the next run — a read-only execution afterwards sees pristine
/// globals, exactly like the interpreter's per-run materialization — and
/// the reset stats must account for exactly the dirtied pages.
TEST(VmJit, SnapshotResetRestoresDirtyPages) {
  if (!vm::jit::available())
    GTEST_SKIP() << "JIT unsupported on this platform";
  lang::CompileResult CR = lang::compileSource(R"ml(
global g[512];

fn main() {
  if (len() > 1 && in(0) == 'w') {
    g[in(1) * 2] = 7;
    return -1;
  }
  var s = 0;
  var i = 0;
  while (i < 512) {
    s = s + g[i];
    i = i + 1;
  }
  return s;
}
)ml",
                                               "snap");
  ASSERT_TRUE(CR.ok()) << CR.message();
  mir::Module M = std::move(*CR.Mod);
  vm::ProgramImage Image = vm::ProgramImage::build(M, nullptr);
  std::unique_ptr<vm::jit::JitProgram> J = vm::jit::JitProgram::compile(Image);
  ASSERT_NE(J, nullptr);
  vm::Vm Jit(M);
  Jit.attachJit(J.get());
  vm::Vm Interp(M);
  vm::ExecOptions EO;

  // Alternate writes at spread-out indexes (distinct 64-cell pages) with
  // full-array reads; the read must always see zeros.
  for (int Round = 0; Round < 8; ++Round) {
    uint8_t W[2] = {'w', static_cast<uint8_t>(Round * 37)};
    vm::ExecResult RW = Jit.run(W, 2, EO, nullptr);
    EXPECT_EQ(RW.ReturnValue, -1);
    EXPECT_GT(RW.DirtyGlobalCells, 0u);
    vm::ExecResult RJ = Jit.run(nullptr, 0, EO, nullptr);
    vm::ExecResult RI = Interp.run(nullptr, 0, EO, nullptr);
    EXPECT_EQ(RJ.ReturnValue, 0);
    expectSameResult(RI, RJ, "read-after-write round");
  }
  EXPECT_EQ(Jit.jitRunStats().Execs, 16u);

  const vm::ResetStats &St = Jit.resetStats();
  EXPECT_GT(St.Resets, 0u);
  EXPECT_GT(St.DirtyPagesReset, 0u);
  // Page-granular restore: cells = pages * page size, and only the
  // written pages (one per write) ever got restored — far fewer than
  // executions * total global cells.
  EXPECT_EQ(St.DirtyCellsReset, St.DirtyPagesReset * vm::SnapshotPageCells);
  EXPECT_LE(St.DirtyPagesReset, 8u * 2u);
}

/// The per-exec capacity guard: options whose worst-case register-stack
/// reservation would be absurd must route the execution to the reference
/// interpreter transparently — same results, Fallbacks accounted — and
/// the next compiled run must start from pristine globals again.
TEST(VmJit, CapacityGuardFallsBackIdentically) {
  if (!vm::jit::available())
    GTEST_SKIP() << "JIT unsupported on this platform";
  std::vector<Subject> Examples = exampleSubjects();
  const Subject &S = Examples[3]; // tokens: calls + globals
  lang::CompileResult CR = lang::compileSource(S.Source, S.Name);
  ASSERT_TRUE(CR.ok()) << CR.message();
  mir::Module M = std::move(*CR.Mod);
  vm::ProgramImage Image = vm::ProgramImage::build(M, nullptr);
  std::unique_ptr<vm::jit::JitProgram> J = vm::jit::JitProgram::compile(Image);
  ASSERT_NE(J, nullptr);
  vm::Vm Interp(M);
  vm::Vm Jit(M);
  Jit.attachJit(J.get());

  // A compiled run first, so the fallback follows a live globals prefix
  // (tokens' return value reads the global class histogram, so stale
  // globals would show in every result below).
  vm::ExecOptions Sane;
  const fuzz::Input &In = S.Seeds[0];
  vm::ExecResult RJ0 = Jit.run(In.data(), In.size(), Sane, nullptr);
  vm::ExecResult RI0 = Interp.run(In.data(), In.size(), Sane, nullptr);
  expectSameResult(RI0, RJ0, "pre-fallback run");
  EXPECT_GT(RJ0.DirtyGlobalCells, 0u);

  vm::ExecOptions EO;
  EO.MaxCallDepth = (1u << 20) + 1; // trips the guard
  vm::ExecResult RJ = Jit.run(In.data(), In.size(), EO, nullptr);
  vm::ExecResult RI = Interp.run(In.data(), In.size(), EO, nullptr);
  expectSameResult(RI, RJ, "capacity fallback");
  // The reference interpreter served it: no snapshot bookkeeping.
  EXPECT_EQ(RJ.DirtyGlobalCells, 0u);
  EXPECT_EQ(Jit.jitRunStats().Execs, 1u);
  EXPECT_EQ(Jit.jitRunStats().Fallbacks, 1u);

  // Sane options go back to compiled code on the same Vm, which
  // re-materializes the globals the interpreter rebuilt instead of
  // resetting pages of a prefix it no longer owns.
  vm::ExecResult RJ2 = Jit.run(In.data(), In.size(), Sane, nullptr);
  vm::ExecResult RI2 = Interp.run(In.data(), In.size(), Sane, nullptr);
  expectSameResult(RI2, RJ2, "post-fallback run");
  EXPECT_EQ(Jit.jitRunStats().Execs, 2u);
  EXPECT_EQ(Jit.resetStats().Resets, 0u);
}

/// Whole campaigns on all 18 paper subjects under one feedback mode:
/// byte-identical findings under interpreter and JIT engines. Split per
/// kind so the four feedback modes (pcguard = precise edges, path =
/// Ball-Larus paths, afl = classic edges, pathafl = classic + call-path
/// assist) each get their own timeout budget.
void expectAllSubjectsCampaignIdentity(FuzzerKind Kind) {
  if (!vm::jit::available())
    GTEST_SKIP() << "JIT unsupported on this platform";
  for (const Subject &S : targets::allSubjects()) {
    CampaignOptions Interp;
    Interp.Kind = Kind;
    Interp.ExecBudget = 700;
    Interp.Seed = 29;
    Interp.VmMode = vm::VmExecMode::Interpreter;
    CampaignOptions Jit = Interp;
    Jit.VmMode = vm::VmExecMode::Jit;

    CampaignResult RI = runCampaign(S, Interp);
    CampaignResult RJ = runCampaign(S, Jit);
    EXPECT_EQ(serializeCampaignResult(RI), serializeCampaignResult(RJ))
        << fuzzerKindName(Kind) << "/" << S.Name;
  }
}

TEST(VmJit, AllSubjectsCampaignIdentityPcguard) {
  expectAllSubjectsCampaignIdentity(FuzzerKind::Pcguard);
}
TEST(VmJit, AllSubjectsCampaignIdentityPath) {
  expectAllSubjectsCampaignIdentity(FuzzerKind::Path);
}
TEST(VmJit, AllSubjectsCampaignIdentityAfl) {
  expectAllSubjectsCampaignIdentity(FuzzerKind::Afl);
}
TEST(VmJit, AllSubjectsCampaignIdentityPathAfl) {
  expectAllSubjectsCampaignIdentity(FuzzerKind::PathAfl);
}

/// Strip the engine-local metric families; the shared definition in
/// telemetry::isEngineLocalMetric is the only permitted trace divergence
/// between engines.
template <typename MapT> MapT withoutEngineLocalFamilies(const MapT &In) {
  MapT Out;
  for (const auto &KV : In)
    if (!telemetry::isEngineLocalMetric(KV.first))
      Out.insert(KV);
  return Out;
}

/// Traced campaigns: byte-identical findings, identical observable
/// telemetry, and the vm.jit.* and vm.fastpath.* families present exactly
/// on the JIT side.
TEST(VmJit, CampaignTelemetryIdentity) {
  if (!vm::jit::available())
    GTEST_SKIP() << "JIT unsupported on this platform";
  std::vector<Subject> Examples = exampleSubjects();
  const Subject &S = Examples[3]; // tokens: globals + calls + branches
  for (FuzzerKind Kind : {FuzzerKind::Path, FuzzerKind::Pcguard}) {
    CampaignOptions Interp;
    Interp.Kind = Kind;
    Interp.ExecBudget = 4000;
    Interp.Seed = 11;
    Interp.Trace.Enabled = true;
    Interp.Trace.SampleInterval = 512;
    Interp.VmMode = vm::VmExecMode::Interpreter;
    CampaignOptions Jit = Interp;
    Jit.VmMode = vm::VmExecMode::Jit;

    CampaignResult RI = runCampaign(S, Interp);
    CampaignResult RJ = runCampaign(S, Jit);
    EXPECT_EQ(serializeCampaignResult(RI), serializeCampaignResult(RJ))
        << fuzzerKindName(Kind);
    if (!telemetry::Compiled)
      continue; // no recorder to compare

    ASSERT_NE(RI.Trace, nullptr);
    ASSERT_NE(RJ.Trace, nullptr);
    ASSERT_EQ(RI.Trace->Instances.size(), RJ.Trace->Instances.size());
    for (size_t K = 0; K < RI.Trace->Instances.size(); ++K) {
      const telemetry::InstanceRecord &A = RI.Trace->Instances[K];
      const telemetry::InstanceRecord &B = RJ.Trace->Instances[K];
      EXPECT_EQ(A.Label, B.Label);
      EXPECT_EQ(A.ExecOffset, B.ExecOffset);
      EXPECT_EQ(A.Samples, B.Samples);
      EXPECT_EQ(A.EventsRecorded, B.EventsRecorded);
      EXPECT_EQ(withoutEngineLocalFamilies(A.Metrics.counters()),
                withoutEngineLocalFamilies(B.Metrics.counters()));
      EXPECT_EQ(withoutEngineLocalFamilies(A.Metrics.gauges()),
                withoutEngineLocalFamilies(B.Metrics.gauges()));
      EXPECT_TRUE(telemetry::sameObservableMetrics(A.Metrics, B.Metrics));
      // The JIT campaign must actually carry the families, with at least
      // every counted execution served by compiled code (queue replays
      // run extra JIT executions on top of the budgeted ones, so >=
      // rather than ==)...
      ASSERT_TRUE(B.Metrics.counters().count("vm.jit.execs"));
      EXPECT_GE(B.Metrics.counters().at("vm.jit.execs"),
                B.Metrics.counters().at("execs"));
      EXPECT_TRUE(B.Metrics.counters().count("vm.jit.bailouts"));
      ASSERT_TRUE(B.Metrics.gauges().count("vm.jit.compiled"));
      EXPECT_GT(B.Metrics.gauges().at("vm.jit.compiled"), 0);
      ASSERT_TRUE(B.Metrics.gauges().count("vm.jit.bytes"));
      EXPECT_GT(B.Metrics.gauges().at("vm.jit.bytes"), 0);
      EXPECT_TRUE(B.Metrics.gauges().count("vm.fastpath.image.bytes"));
      EXPECT_TRUE(B.Metrics.counters().count("vm.fastpath.reset.bytes"));
      // ...and the interpreter campaign must not.
      EXPECT_FALSE(A.Metrics.counters().count("vm.jit.execs"));
      EXPECT_FALSE(A.Metrics.gauges().count("vm.jit.compiled"));
      EXPECT_FALSE(A.Metrics.gauges().count("vm.fastpath.image.bytes"));
      EXPECT_FALSE(A.Metrics.counters().count("vm.fastpath.reset.bytes"));
    }
  }
}

/// Checkpoint/resume with the engine switched between runs: VmMode is
/// excluded from the checkpoint fingerprint, so a campaign checkpointed
/// under one engine resumes under the other — to results byte-identical
/// to an uninterrupted run.
TEST(VmJit, CheckpointResumeAcrossEngines) {
  if (!vm::jit::available())
    GTEST_SKIP() << "JIT unsupported on this platform";
  std::vector<Subject> Examples = exampleSubjects();
  const Subject &S = Examples[3];

  CampaignOptions Base;
  Base.Kind = FuzzerKind::Path;
  Base.ExecBudget = 4000;
  Base.Seed = 13;

  CampaignOptions InterpOpts = Base;
  InterpOpts.VmMode = vm::VmExecMode::Interpreter;
  CampaignOptions JitOpts = Base;
  JitOpts.VmMode = vm::VmExecMode::Jit;

  // The uninterrupted reference (interpreter; the identity tests above
  // already pin that a JIT run of the same options matches it).
  std::vector<uint8_t> Want =
      serializeCampaignResult(runCampaign(S, InterpOpts));

  for (int Dir = 0; Dir < 2; ++Dir) {
    // Checkpoint under one engine...
    CampaignOptions CkptOpts = Dir == 0 ? InterpOpts : JitOpts;
    CkptOpts.CheckpointInterval = 900;
    std::vector<std::vector<uint8_t>> Checkpoints;
    CkptOpts.CheckpointSink = [&Checkpoints](const std::vector<uint8_t> &B) {
      Checkpoints.push_back(B);
    };
    EXPECT_EQ(serializeCampaignResult(runCampaign(S, CkptOpts)), Want);
    ASSERT_GE(Checkpoints.size(), 2u);

    // ...resume a mid-campaign one under the other engine.
    const CampaignOptions &ResumeOpts = Dir == 0 ? JitOpts : InterpOpts;
    CampaignError Err;
    CampaignResult Resumed = resumeCampaign(
        S, ResumeOpts, Checkpoints[Checkpoints.size() / 2], &Err);
    EXPECT_FALSE(Err.Failed) << Err.Message;
    EXPECT_EQ(serializeCampaignResult(Resumed), Want)
        << "resume direction " << Dir;
  }
}

/// Sets PATHFUZZ_VM_ENGINE for one scope and puts the caller's value
/// back afterwards, so the sanitized interp leg's setting survives.
class EngineKnob {
public:
  EngineKnob() {
    if (const char *V = std::getenv("PATHFUZZ_VM_ENGINE")) {
      Had = true;
      Saved = V;
    }
  }
  ~EngineKnob() {
    if (Had)
      setenv("PATHFUZZ_VM_ENGINE", Saved.c_str(), 1);
    else
      unsetenv("PATHFUZZ_VM_ENGINE");
  }
  void set(const char *V) {
    if (V)
      setenv("PATHFUZZ_VM_ENGINE", V, 1);
    else
      unsetenv("PATHFUZZ_VM_ENGINE");
  }

private:
  bool Had = false;
  std::string Saved;
};

/// The engine-selection knob: VmMode::Jit forces compiled execution where
/// available, Auto follows PATHFUZZ_VM_ENGINE (default jit; anything
/// other than "interp" means the default), and the image is wanted
/// exactly when the JIT runs.
TEST(VmJit, ModeResolution) {
  const bool Avail = vm::jit::available();
  EngineKnob Knob;
  auto expectMode = [](vm::VmExecMode Mode, bool Jit) {
    EXPECT_EQ(vm::jitEnabled(Mode), Jit);
    EXPECT_EQ(vm::fastPathEnabled(Mode), Jit);
  };
  expectMode(vm::VmExecMode::Interpreter, false);
  expectMode(vm::VmExecMode::Jit, Avail);

  Knob.set(nullptr);
  expectMode(vm::VmExecMode::Auto, Avail);
  Knob.set("interp");
  expectMode(vm::VmExecMode::Auto, false);
  // A forced mode ignores the knob.
  expectMode(vm::VmExecMode::Jit, Avail);
  Knob.set("jit");
  expectMode(vm::VmExecMode::Auto, Avail);
  expectMode(vm::VmExecMode::Interpreter, false);
  Knob.set("bogus");
  expectMode(vm::VmExecMode::Auto, Avail);
}

/// BuildCache accounting: one native compile per (subject, feedback)
/// slot, later JIT requests count as hits, and interpreter campaigns leave
/// the slot undecoded and uncompiled.
TEST(VmJit, BuildCacheCompileOncePerSlot) {
  if (!vm::jit::available())
    GTEST_SKIP() << "JIT unsupported on this platform";
  std::vector<Subject> Examples = exampleSubjects();
  BuildCache Cache;
  std::shared_ptr<SubjectBuild> SB = Cache.get(Examples[0]);

  CampaignOptions InterpO;
  InterpO.VmMode = vm::VmExecMode::Interpreter;
  const InstrumentedBuild &IB =
      SB->instrumented(instr::Feedback::Path, InterpO);
  EXPECT_EQ(IB.Image, nullptr); // interpreter campaigns don't decode
  EXPECT_EQ(IB.Jit, nullptr);   // ...or compile
  EXPECT_EQ(SB->imageBuilds(), 0u);
  EXPECT_EQ(Cache.programsJitted(), 0u);

  CampaignOptions JitO;
  JitO.VmMode = vm::VmExecMode::Jit;
  const InstrumentedBuild &JB = SB->instrumented(instr::Feedback::Path, JitO);
  ASSERT_NE(JB.Jit, nullptr); // added to the slot the interpreter built
  EXPECT_EQ(JB.Jit->image(), JB.Image.get());
  EXPECT_EQ(SB->imageBuilds(), 1u);
  EXPECT_EQ(Cache.programsJitted(), 1u);
  EXPECT_EQ(Cache.jitCacheHits(), 0u);

  SB->instrumented(instr::Feedback::Path, JitO);
  EXPECT_EQ(Cache.programsJitted(), 1u);
  EXPECT_EQ(Cache.jitCacheHits(), 1u);

  // A different feedback mode is a different slot: fresh compile.
  SB->instrumented(instr::Feedback::EdgePrecise, JitO);
  EXPECT_EQ(Cache.programsJitted(), 2u);
}

//===----------------------------------------------------------------------===//
// The decoded image (vm::ProgramImage) as the fuzzer wires it. The image
// is the JIT's input and the source of its snapshot reset; on its own it
// changes nothing observable, because a Vm holding only an image runs the
// reference interpreter. These tests follow the engine selector
// (VmExecMode::Auto) where the fuzzer does, so they hold under any
// PATHFUZZ_VM_ENGINE value and on hosts without the JIT. Their suite name
// keeps the vm::fastPathEnabled / vm.fastpath.* vocabulary of the code
// they pin.
//===----------------------------------------------------------------------===//

/// The selector as the image sees it: fastPathEnabled is true exactly
/// when the JIT runs, the retired "fastpath" value of PATHFUZZ_VM_ENGINE
/// means the default like any unknown value, the BuildCache decodes a
/// slot's image exactly when fastPathEnabled says so, and a Vm holding
/// only an image runs the reference interpreter without a snapshot reset.
TEST(VmFastPath, ModeResolution) {
  const bool Avail = vm::jit::available();
  EngineKnob Knob;
  EXPECT_FALSE(vm::fastPathEnabled(vm::VmExecMode::Interpreter));
  EXPECT_EQ(vm::fastPathEnabled(vm::VmExecMode::Jit), Avail);

  Knob.set(nullptr);
  EXPECT_EQ(vm::fastPathEnabled(vm::VmExecMode::Auto), Avail);
  Knob.set("fastpath");
  EXPECT_EQ(vm::fastPathEnabled(vm::VmExecMode::Auto), Avail);
  EXPECT_EQ(vm::jitEnabled(vm::VmExecMode::Auto), Avail);
  Knob.set("interp");
  EXPECT_FALSE(vm::fastPathEnabled(vm::VmExecMode::Auto));
  // A forced mode ignores the knob.
  EXPECT_EQ(vm::fastPathEnabled(vm::VmExecMode::Jit), Avail);

  // One BuildCache slot per mode: the image is there exactly when the
  // selector wants it (interp is still set, so Auto means interpreter).
  std::vector<Subject> Examples = exampleSubjects();
  for (vm::VmExecMode Mode : {vm::VmExecMode::Interpreter,
                              vm::VmExecMode::Auto, vm::VmExecMode::Jit}) {
    BuildCache Cache;
    CampaignOptions O;
    O.VmMode = Mode;
    std::shared_ptr<SubjectBuild> SB = Cache.get(Examples[0]);
    const InstrumentedBuild &IB = SB->instrumented(instr::Feedback::Path, O);
    const bool Want = vm::fastPathEnabled(Mode);
    EXPECT_EQ(IB.Image != nullptr, Want) << static_cast<int>(Mode);
    EXPECT_EQ(SB->imageBuilds(), Want ? 1u : 0u) << static_cast<int>(Mode);
  }

  // An image without compiled code: the reference interpreter serves
  // every run and no snapshot reset happens.
  BuildCache Cache;
  std::shared_ptr<SubjectBuild> SB = Cache.get(Examples[3]);
  CampaignOptions O;
  O.VmMode = vm::VmExecMode::Interpreter;
  const InstrumentedBuild &IB = SB->instrumented(instr::Feedback::Path, O);
  vm::ProgramImage Image = vm::ProgramImage::build(IB.Mod, &SB->shadow());
  vm::Vm ImageOnly(IB.Mod, &SB->shadow());
  ImageOnly.attachImage(&Image);
  expectSameAsInterpreter(IB.Mod, &SB->shadow(), ImageOnly,
                          workload(Examples[3], 8, 0x1ace),
                          IB.Report.FuncKeys.data(), "image only");
  EXPECT_FALSE(ImageOnly.usingJit());
  EXPECT_EQ(ImageOnly.jitRunStats().Execs, 0u);
  EXPECT_EQ(ImageOnly.resetStats().Resets, 0u);
}

/// The fuzzer's wiring under the default selector: on every example
/// subject and feedback mode, the BuildCache slot carries an image and a
/// compiled program exactly when fastPathEnabled(Auto), and a Vm wired
/// from it the way the Fuzzer wires one (image, then compiled code)
/// matches the interpreter per exec. On the JIT every run after the first
/// is served by the snapshot reset of the pages the previous run dirtied.
TEST(VmFastPath, ExampleSubjectsIdentity) {
  const bool ImageInUse = vm::fastPathEnabled(vm::VmExecMode::Auto);
  for (const Subject &S : exampleSubjects()) {
    BuildCache Cache;
    std::shared_ptr<SubjectBuild> SB = Cache.get(S);
    ASSERT_TRUE(SB->ok()) << S.Name;
    CampaignOptions O; // VmMode = Auto: whatever PATHFUZZ_VM_ENGINE picks
    for (instr::Feedback Mode :
         {instr::Feedback::None, instr::Feedback::EdgePrecise,
          instr::Feedback::EdgeClassic, instr::Feedback::Path}) {
      const InstrumentedBuild &IB = SB->instrumented(Mode, O);
      const std::string What =
          S.Name + "/feedback" + std::to_string(static_cast<int>(Mode));
      EXPECT_EQ(IB.Image != nullptr, ImageInUse) << What;
      EXPECT_EQ(IB.Jit != nullptr, ImageInUse) << What;

      vm::Vm Wired(IB.Mod, &SB->shadow());
      if (IB.Image)
        Wired.attachImage(IB.Image.get());
      if (IB.Jit)
        Wired.attachJit(IB.Jit.get());
      const std::vector<fuzz::Input> Inputs = workload(S, 48, 0x5eedbeef);
      expectSameAsInterpreter(IB.Mod, &SB->shadow(), Wired, Inputs,
                              IB.Report.FuncKeys.data(), What);
      EXPECT_EQ(Wired.usingJit(), ImageInUse) << What;
      EXPECT_EQ(Wired.jitRunStats().Execs, ImageInUse ? Inputs.size() : 0u)
          << What;
      EXPECT_EQ(Wired.resetStats().Resets,
                ImageInUse ? Inputs.size() - 1 : 0u)
          << What;
    }
  }
}

/// The line-flag oracle across engine switches on one Vm: on every
/// example subject and feedback mode, a Vm wired from the default-selector
/// slot, then given an image of its own (which detaches any compiled code,
/// so the interpreter runs), then wired to the slot again flags exactly
/// the lines its map bumps left nonzero at every stage, for the PathAFL
/// call hash on and off and two map sizes.
TEST(VmFastPath, LineFlagsMarkExactlyNonzeroLines) {
  for (const Subject &S : exampleSubjects()) {
    BuildCache Cache;
    std::shared_ptr<SubjectBuild> SB = Cache.get(S);
    ASSERT_TRUE(SB->ok()) << S.Name;
    CampaignOptions O; // VmMode = Auto
    const std::vector<fuzz::Input> Inputs = workload(S, 24, 0x11fe);
    for (instr::Feedback Mode :
         {instr::Feedback::None, instr::Feedback::EdgePrecise,
          instr::Feedback::EdgeClassic, instr::Feedback::Path}) {
      const InstrumentedBuild &IB = SB->instrumented(Mode, O);
      vm::ProgramImage Own = vm::ProgramImage::build(IB.Mod, &SB->shadow());
      vm::Vm Machine(IB.Mod, &SB->shadow());
      for (int Stage = 0; Stage < 3; ++Stage) {
        if (Stage == 1) {
          Machine.attachImage(&Own);
        } else {
          if (IB.Image)
            Machine.attachImage(IB.Image.get());
          if (IB.Jit)
            Machine.attachJit(IB.Jit.get());
        }
        const std::string Where = S.Name + "/feedback" +
                                  std::to_string(static_cast<int>(Mode)) +
                                  " stage " + std::to_string(Stage);
        EXPECT_EQ(Machine.usingJit(), Stage != 1 && IB.Jit != nullptr)
            << Where;
        for (uint32_t Log2 : {10u, 16u}) {
          for (bool CallHash : {false, true}) {
            EXPECT_EQ(test::lineFlagMismatch(Machine, Inputs, Log2,
                                             IB.Report.FuncKeys.data(),
                                             CallHash),
                      "")
                << Where << "/2^" << Log2 << (CallHash ? "/callhash" : "");
          }
        }
      }
      EXPECT_EQ(Machine.jitRunStats().Execs,
                IB.Jit ? 2 * 4 * Inputs.size() : 0u)
          << S.Name;
    }
  }
}

/// Randomized engine switching: on arbitrary generated CFGs (back edges,
/// self loops, unreachable blocks, step-limit hangs) instrumented with
/// edge or Ball-Larus path probes, one Vm is rewired before every input —
/// compiled code twice in a row (where the JIT is available), then its
/// image alone, then no image at all — and still matches a plain
/// interpreter per exec. Only the second compiled run of each pair resets
/// pages; the first re-materializes the globals the interpreter dropped.
TEST(VmFastPath, RandomizedMirIdentity) {
  const bool Avail = vm::jit::available();
  Rng R(20260807);
  for (int Trial = 0; Trial < 150; ++Trial) {
    mir::Module M = test::moduleWith(test::randomFunction(R));
    instr::ShadowEdgeIndex Shadow = instr::ShadowEdgeIndex::build(M);
    instr::InstrumentOptions IO;
    IO.Mode = Trial % 2 ? instr::Feedback::Path : instr::Feedback::EdgePrecise;
    IO.Seed = R.below(1u << 30);
    instr::InstrumentReport Rep = instr::instrumentModule(M, IO);
    vm::ProgramImage Image = vm::ProgramImage::build(M, &Shadow);
    std::unique_ptr<vm::jit::JitProgram> J;
    if (Avail) {
      J = vm::jit::JitProgram::compile(Image);
      ASSERT_NE(J, nullptr);
    }

    std::vector<fuzz::Input> Inputs;
    for (int K = 0; K < 8; ++K) {
      fuzz::Input In(R.below(12));
      for (uint8_t &B : In)
        B = static_cast<uint8_t>(R.below(256));
      Inputs.push_back(std::move(In));
    }
    const std::string What = "random trial " + std::to_string(Trial);
    vm::Vm Switching(M, &Shadow);
    expectSameAsInterpreter(
        M, &Shadow, Switching, Inputs, Rep.FuncKeys.data(), What,
        [&](size_t K, vm::ExecOptions &) {
          switch (K % 4) {
          case 0:
            if (J)
              Switching.attachJit(J.get());
            else
              Switching.attachImage(&Image);
            break;
          case 1: // stay on compiled code: the snapshot-reset path
            break;
          case 2:
            Switching.attachJit(nullptr); // the image alone
            break;
          case 3:
            Switching.attachImage(nullptr);
            break;
          }
          EXPECT_EQ(Switching.usingJit(), J && K % 4 < 2) << What;
        });
    EXPECT_EQ(Switching.jitRunStats().Execs, J ? Inputs.size() / 2 : 0u)
        << What;
    EXPECT_EQ(Switching.resetStats().Resets, J ? Inputs.size() / 4 : 0u)
        << What;
  }
}

/// Whole campaigns under the default selector: byte-identical findings
/// and (minus engine-local families) identical telemetry to interpreter
/// campaigns, and the trace carries the vm.fastpath.* family (the image
/// size as decoded by the BuildCache) exactly when the image is in use.
TEST(VmFastPath, CampaignIdentityAndTelemetry) {
  std::vector<Subject> Examples = exampleSubjects();
  const Subject &S = Examples[4]; // rle: loops over a global buffer
  const bool ImageInUse = vm::fastPathEnabled(vm::VmExecMode::Auto);
  int64_t ImageBytes = 0;
  if (ImageInUse) {
    BuildCache Cache;
    CampaignOptions O;
    const InstrumentedBuild &IB =
        Cache.get(S)->instrumented(instr::Feedback::Path, O);
    ASSERT_NE(IB.Image, nullptr);
    ImageBytes = static_cast<int64_t>(IB.Image->byteSize());
    ASSERT_GT(ImageBytes, 0);
  }
  for (FuzzerKind Kind : {FuzzerKind::Path, FuzzerKind::Afl}) {
    CampaignOptions Interp;
    Interp.Kind = Kind;
    Interp.ExecBudget = 4000;
    Interp.Seed = 11;
    Interp.Trace.Enabled = true;
    Interp.Trace.SampleInterval = 512;
    Interp.VmMode = vm::VmExecMode::Interpreter;
    CampaignOptions Default = Interp;
    Default.VmMode = vm::VmExecMode::Auto;

    CampaignResult RI = runCampaign(S, Interp);
    CampaignResult RD = runCampaign(S, Default);
    EXPECT_EQ(serializeCampaignResult(RI), serializeCampaignResult(RD))
        << fuzzerKindName(Kind);
    if (!telemetry::Compiled)
      continue; // no recorder to compare

    ASSERT_NE(RI.Trace, nullptr);
    ASSERT_NE(RD.Trace, nullptr);
    ASSERT_EQ(RI.Trace->Instances.size(), RD.Trace->Instances.size());
    for (size_t K = 0; K < RI.Trace->Instances.size(); ++K) {
      const telemetry::InstanceRecord &A = RI.Trace->Instances[K];
      const telemetry::InstanceRecord &B = RD.Trace->Instances[K];
      EXPECT_EQ(A.Samples, B.Samples);
      EXPECT_EQ(withoutEngineLocalFamilies(A.Metrics.counters()),
                withoutEngineLocalFamilies(B.Metrics.counters()));
      EXPECT_EQ(withoutEngineLocalFamilies(A.Metrics.gauges()),
                withoutEngineLocalFamilies(B.Metrics.gauges()));
      EXPECT_EQ(B.Metrics.gauges().count("vm.fastpath.image.bytes") != 0,
                ImageInUse);
      EXPECT_EQ(B.Metrics.counters().count("vm.fastpath.reset.bytes") != 0,
                ImageInUse);
      if (ImageInUse && Kind == FuzzerKind::Path) {
        EXPECT_EQ(B.Metrics.gauges().at("vm.fastpath.image.bytes"),
                  ImageBytes);
      }
      EXPECT_FALSE(A.Metrics.gauges().count("vm.fastpath.image.bytes"));
      EXPECT_FALSE(A.Metrics.counters().count("vm.fastpath.reset.bytes"));
    }
  }
}

} // namespace
