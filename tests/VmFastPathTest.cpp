//===- VmFastPathTest.cpp - Fast path vs reference interpreter identity -------===//
//
// Part of the pathfuzz project.
//
// The identity contract of the pre-decoded fast path (vm/Image.h,
// vm/Exec.cpp): for every module, every input and every feedback mode it
// produces bit-identical observable results to the reference
// interpreter — same fault record (kind, coordinates, stack hash), same
// step count, same return value, same coverage-map bytes, same shadow
// edges and cmp log, same heap accounting. The suite pins that contract
// three ways:
//
//  - every example subject (examples/minilang/*.ml) replayed per-exec
//    through both engines across all feedback modes;
//  - a randomized property test over arbitrary generated CFGs (loops,
//    unreachable blocks, step-limit hangs);
//  - whole campaigns compared through serializeCampaignResult and their
//    telemetry traces (which must agree apart from the fast-path-only
//    vm.fastpath.* metric family);
//
// plus snapshot-reset correctness: dirtied global pages must be restored
// between executions exactly as the interpreter's fresh materialization
// would, and the reset stats must account for them.
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

/// The example subjects, with deterministic seeds sized so the loop
/// subjects actually iterate.
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

/// Field-level identity of two executions. DirtyGlobalCells is the one
/// deliberate exception: it is fast-path bookkeeping, always zero on the
/// reference interpreter.
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

/// Replay the workload through a fresh interpreter Vm and a fresh
/// fast-path Vm sharing one image; compare every observable per exec.
void expectEngineIdentity(const mir::Module &M,
                          const instr::ShadowEdgeIndex *Shadow,
                          const vm::ProgramImage &Image,
                          const std::vector<fuzz::Input> &Inputs,
                          const uint64_t *FuncKeys, const char *What) {
  vm::Vm Interp(M, Shadow);
  vm::Vm Fast(M, Shadow);
  Fast.attachImage(&Image);
  cov::CoverageMap MapI(16), MapF(16);
  for (size_t K = 0; K < Inputs.size(); ++K) {
    const fuzz::Input &In = Inputs[K];
    vm::ExecOptions EO;
    EO.StepLimit = 200000;
    EO.LogCmps = true;
    MapI.reset();
    MapF.reset();
    vm::FeedbackContext FbI, FbF;
    FbI.Map = MapI.data();
    FbI.MapMask = MapI.mask();
    FbI.FuncKeys = FuncKeys;
    FbF.Map = MapF.data();
    FbF.MapMask = MapF.mask();
    FbF.FuncKeys = FuncKeys;
    vm::ExecResult RI = Interp.run(In.data(), In.size(), EO, &FbI);
    vm::ExecResult RF = Fast.run(In.data(), In.size(), EO, &FbF);
    expectSameResult(RI, RF, What);
    EXPECT_EQ(std::memcmp(MapI.data(), MapF.data(), MapI.size()), 0)
        << What << " input " << K << ": coverage maps diverge";
  }
}

/// Per-exec identity on every example subject under every feedback mode.
TEST(VmFastPath, ExampleSubjectsIdentity) {
  for (const Subject &S : exampleSubjects()) {
    BuildCache Cache;
    std::shared_ptr<SubjectBuild> SB = Cache.get(S);
    CampaignOptions O;
    O.VmMode = vm::VmExecMode::FastPath;
    for (instr::Feedback Mode :
         {instr::Feedback::None, instr::Feedback::EdgePrecise,
          instr::Feedback::EdgeClassic, instr::Feedback::Path}) {
      const InstrumentedBuild &IB = SB->instrumented(Mode, O);
      ASSERT_NE(IB.Image, nullptr);
      std::string What =
          S.Name + "/feedback" + std::to_string(static_cast<int>(Mode));
      expectEngineIdentity(IB.Mod, &SB->shadow(), *IB.Image,
                           workload(S, 48, 0x5eedbeef),
                           IB.Report.FuncKeys.data(), What.c_str());
    }
  }
}

/// The line-flag oracle on both engines: on every paper and example
/// subject, every feedback mode, the PathAFL call hash on and off and two
/// map sizes, the lines an engine flags are exactly the lines its map
/// bumps left nonzero — the precondition of the fuzzer's touched-line map
/// pipeline (cov/CoverageMap.h).
TEST(VmFastPath, LineFlagsMarkExactlyNonzeroLines) {
  std::vector<Subject> Subjects = targets::allSubjects();
  for (Subject &S : exampleSubjects())
    Subjects.push_back(std::move(S));
  for (const Subject &S : Subjects) {
    BuildCache Cache;
    std::shared_ptr<SubjectBuild> SB = Cache.get(S);
    ASSERT_TRUE(SB->ok()) << S.Name;
    CampaignOptions O;
    O.VmMode = vm::VmExecMode::FastPath;
    const std::vector<fuzz::Input> Inputs = workload(S, 24, 0x11fe);
    for (instr::Feedback Mode :
         {instr::Feedback::None, instr::Feedback::EdgePrecise,
          instr::Feedback::EdgeClassic, instr::Feedback::Path}) {
      const InstrumentedBuild &IB = SB->instrumented(Mode, O);
      ASSERT_NE(IB.Image, nullptr);
      vm::Vm Interp(IB.Mod, &SB->shadow());
      vm::Vm Fast(IB.Mod, &SB->shadow());
      Fast.attachImage(IB.Image.get());
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
          EXPECT_EQ(test::lineFlagMismatch(Fast, Inputs, Log2,
                                           IB.Report.FuncKeys.data(),
                                           CallHash),
                    "")
              << "fast path " << What;
        }
      }
    }
  }
}

/// Randomized property test: arbitrary generated CFGs (back edges, self
/// loops, unreachable blocks, step-limit hangs), instrumented with
/// Ball-Larus path probes, must execute identically through both
/// engines.
TEST(VmFastPath, RandomizedMirIdentity) {
  Rng R(20260807);
  for (int Trial = 0; Trial < 150; ++Trial) {
    mir::Module M = test::moduleWith(test::randomFunction(R));
    instr::ShadowEdgeIndex Shadow = instr::ShadowEdgeIndex::build(M);
    instr::InstrumentOptions IO;
    IO.Mode = Trial % 2 ? instr::Feedback::Path : instr::Feedback::EdgePrecise;
    IO.Seed = R.below(1u << 30);
    instr::InstrumentReport Rep = instr::instrumentModule(M, IO);
    vm::ProgramImage Image = vm::ProgramImage::build(M, &Shadow);

    std::vector<fuzz::Input> Inputs;
    for (int K = 0; K < 6; ++K) {
      fuzz::Input In(R.below(12));
      for (uint8_t &B : In)
        B = static_cast<uint8_t>(R.below(256));
      Inputs.push_back(std::move(In));
    }
    std::string What = "random trial " + std::to_string(Trial);
    expectEngineIdentity(M, &Shadow, Image, Inputs, Rep.FuncKeys.data(),
                         What.c_str());
  }
}

/// Strip the engine-local metric families (vm.fastpath.*, vm.selective.*),
/// the only permitted divergence between traced campaigns run on different
/// engines. The family list lives in telemetry::isEngineLocalMetric — the
/// shared definition all identity tests use.
template <typename MapT> MapT withoutEngineLocalFamilies(const MapT &In) {
  MapT Out;
  for (const auto &KV : In)
    if (!telemetry::isEngineLocalMetric(KV.first))
      Out.insert(KV);
  return Out;
}

/// Whole campaigns: byte-identical findings and (minus engine-local
/// families) identical telemetry under either engine.
TEST(VmFastPath, CampaignIdentityAndTelemetry) {
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
    CampaignOptions Fast = Interp;
    Fast.VmMode = vm::VmExecMode::FastPath;

    CampaignResult RI = runCampaign(S, Interp);
    CampaignResult RF = runCampaign(S, Fast);
    EXPECT_EQ(serializeCampaignResult(RI), serializeCampaignResult(RF))
        << fuzzerKindName(Kind);
    if (!telemetry::Compiled)
      continue; // no recorder to compare

    ASSERT_NE(RI.Trace, nullptr);
    ASSERT_NE(RF.Trace, nullptr);
    ASSERT_EQ(RI.Trace->Instances.size(), RF.Trace->Instances.size());
    for (size_t K = 0; K < RI.Trace->Instances.size(); ++K) {
      const telemetry::InstanceRecord &A = RI.Trace->Instances[K];
      const telemetry::InstanceRecord &B = RF.Trace->Instances[K];
      EXPECT_EQ(A.Label, B.Label);
      EXPECT_EQ(A.ExecOffset, B.ExecOffset);
      EXPECT_EQ(A.Samples, B.Samples);
      EXPECT_EQ(A.EventsRecorded, B.EventsRecorded);
      EXPECT_EQ(withoutEngineLocalFamilies(A.Metrics.counters()),
                withoutEngineLocalFamilies(B.Metrics.counters()));
      EXPECT_EQ(withoutEngineLocalFamilies(A.Metrics.gauges()),
                withoutEngineLocalFamilies(B.Metrics.gauges()));
      EXPECT_TRUE(
          telemetry::sameObservableMetrics(A.Metrics, B.Metrics));
      // The fast-path campaign must actually carry the family...
      EXPECT_TRUE(B.Metrics.gauges().count("vm.fastpath.image.bytes"));
      // ...and the interpreter campaign must not.
      EXPECT_FALSE(A.Metrics.gauges().count("vm.fastpath.image.bytes"));
      EXPECT_FALSE(A.Metrics.counters().count("vm.fastpath.reset.bytes"));
    }
  }
}

/// Snapshot reset: a run that dirties global pages must not leak them
/// into the next run — a read-only execution afterwards sees pristine
/// globals, exactly like the interpreter's per-run materialization.
TEST(VmFastPath, SnapshotResetRestoresDirtyPages) {
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
  vm::Vm Fast(M);
  Fast.attachImage(&Image);
  vm::Vm Interp(M);
  vm::ExecOptions EO;

  // Alternate writes at spread-out indexes (distinct 64-cell pages) with
  // full-array reads; the read must always see zeros.
  for (int Round = 0; Round < 8; ++Round) {
    uint8_t W[2] = {'w', static_cast<uint8_t>(Round * 37)};
    vm::ExecResult RW = Fast.run(W, 2, EO, nullptr);
    EXPECT_EQ(RW.ReturnValue, -1);
    EXPECT_GT(RW.DirtyGlobalCells, 0u);
    vm::ExecResult RF = Fast.run(nullptr, 0, EO, nullptr);
    vm::ExecResult RI = Interp.run(nullptr, 0, EO, nullptr);
    EXPECT_EQ(RF.ReturnValue, 0);
    expectSameResult(RI, RF, "read-after-write round");
  }

  const vm::ResetStats &St = Fast.resetStats();
  EXPECT_GT(St.Resets, 0u);
  EXPECT_GT(St.DirtyPagesReset, 0u);
  // Page-granular restore: cells = pages * page size, and only the
  // written pages (one per write) ever got restored — far fewer than
  // executions * total global cells.
  EXPECT_EQ(St.DirtyCellsReset, St.DirtyPagesReset * vm::SnapshotPageCells);
  EXPECT_LE(St.DirtyPagesReset, 8u * 2u);
}

/// The engine-selection knob: CampaignOptions::VmMode forces an engine,
/// Auto follows PATHFUZZ_VM_ENGINE (default jit, which rides the fast
/// path; anything unrecognized means the default).
TEST(VmFastPath, ModeResolution) {
  EXPECT_FALSE(vm::fastPathEnabled(vm::VmExecMode::Interpreter));
  EXPECT_TRUE(vm::fastPathEnabled(vm::VmExecMode::FastPath));

  unsetenv("PATHFUZZ_VM_ENGINE");
  EXPECT_TRUE(vm::fastPathEnabled(vm::VmExecMode::Auto));
  setenv("PATHFUZZ_VM_ENGINE", "interp", 1);
  EXPECT_FALSE(vm::fastPathEnabled(vm::VmExecMode::Auto));
  // A forced mode ignores the knob.
  EXPECT_TRUE(vm::fastPathEnabled(vm::VmExecMode::FastPath));
  setenv("PATHFUZZ_VM_ENGINE", "fastpath", 1);
  EXPECT_TRUE(vm::fastPathEnabled(vm::VmExecMode::Auto));
  setenv("PATHFUZZ_VM_ENGINE", "jit", 1);
  EXPECT_TRUE(vm::fastPathEnabled(vm::VmExecMode::Auto));
  setenv("PATHFUZZ_VM_ENGINE", "bogus", 1);
  EXPECT_TRUE(vm::fastPathEnabled(vm::VmExecMode::Auto));
  unsetenv("PATHFUZZ_VM_ENGINE");

  // Informational, but must be callable and stable.
  EXPECT_EQ(vm::threadedDispatch(), vm::threadedDispatch());
}

} // namespace
