//===- VmFastPathTest.cpp - The decoded-image path vs the interpreter ---------===//
//
// Part of the pathfuzz project.
//
// What is left of the VM fast path once the threaded executor is gone:
// the pre-decoded vm::ProgramImage as the JIT's input, the snapshot reset
// over it, the rule that picks it (vm::fastPathEnabled) and its telemetry
// family (vm.fastpath.*). Its contract: an image changes nothing
// observable — a Vm with only an image attached runs the reference
// interpreter, a Vm wired the way the fuzzer wires it (image, then the
// compiled program where the engine selector picks the JIT) produces
// bit-identical results to a plain interpreter, and moving one Vm between
// compiled code and the interpreter never leaks state across the switch.
// The suite pins that contract:
//
//  - every example subject replayed per-exec through the plain
//    interpreter, an image-only Vm and the default-engine Vm across all
//    feedback modes;
//  - the line-flag oracle on image-only Vms;
//  - a randomized property test over arbitrary generated CFGs, with the
//    compiled Vm switched between native code and the interpreter
//    fallback mid-workload (the examples get the same switch);
//  - whole default-engine campaigns compared with interpreter campaigns
//    through serializeCampaignResult and their telemetry traces, the
//    vm.fastpath.* family present exactly when the image is in use;
//  - the engine selector: where the image is decoded and what the
//    retired "fastpath" knob value now means.
//
// The suite holds under any PATHFUZZ_VM_ENGINE value and on hosts
// without the JIT.
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

/// Sets PATHFUZZ_VM_ENGINE for one scope and puts the caller's value
/// back afterwards, so the sanitized leg's setting survives the test.
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

/// Field-level identity of two executions. DirtyGlobalCells is the one
/// deliberate exception: it is snapshot-reset bookkeeping, always zero on
/// the reference interpreter.
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

/// One execution with a fresh 2^16 map; returns the result and leaves the
/// map bytes and path signature in the out-parameters.
vm::ExecResult runMapped(vm::Vm &Machine, const fuzz::Input &In,
                         const vm::ExecOptions &EO, const uint64_t *FuncKeys,
                         cov::CoverageMap &Map, uint64_t &Sig) {
  Map.reset();
  Sig = 0;
  vm::FeedbackContext Fb;
  Fb.Map = Map.data();
  Fb.MapMask = Map.mask();
  Fb.FuncKeys = FuncKeys;
  Fb.PathSig = &Sig;
  return Machine.run(In.data(), In.size(), EO, &Fb);
}

/// Replay the workload through a plain interpreter and each of Others;
/// compare every observable (result fields, coverage-map bytes, path
/// signatures) per execution. With TripGuardOnOdd, every odd input runs
/// with a call-depth limit the JIT's capacity guard refuses, so a Vm with
/// a compiled program attached alternates between compiled code and the
/// interpreter fallback (all Vms get the same options, so the depth limit
/// itself cannot make them differ).
void expectSameAsInterpreter(const mir::Module &M,
                             const instr::ShadowEdgeIndex *Shadow,
                             const std::vector<vm::Vm *> &Others,
                             const std::vector<fuzz::Input> &Inputs,
                             const uint64_t *FuncKeys, const char *What,
                             bool TripGuardOnOdd = false) {
  vm::Vm Interp(M, Shadow);
  cov::CoverageMap MapI(16), MapO(16);
  for (size_t K = 0; K < Inputs.size(); ++K) {
    vm::ExecOptions EO;
    EO.StepLimit = 200000;
    EO.LogCmps = true;
    if (TripGuardOnOdd && K % 2)
      EO.MaxCallDepth = (1u << 20) + 1;
    uint64_t SigI = 0, SigO = 0;
    vm::ExecResult RI = runMapped(Interp, Inputs[K], EO, FuncKeys, MapI, SigI);
    for (size_t V = 0; V < Others.size(); ++V) {
      vm::ExecResult RO =
          runMapped(*Others[V], Inputs[K], EO, FuncKeys, MapO, SigO);
      const std::string Where = std::string(What) + " input " +
                                std::to_string(K) + " vm " +
                                std::to_string(V);
      expectSameResult(RI, RO, Where.c_str());
      EXPECT_EQ(SigI, SigO) << Where << ": path signatures";
      EXPECT_EQ(std::memcmp(MapI.data(), MapO.data(), MapI.size()), 0)
          << Where << ": coverage maps diverge";
    }
  }
}

/// Per-exec identity on every example subject under every feedback mode:
/// an image-only Vm, and a Vm wired from the default-engine BuildCache
/// slot exactly as the fuzzer wires it, both match the plain interpreter —
/// the latter also when it alternates between compiled code and the
/// capacity guard's interpreter fallback, which must hand the globals
/// back to the next compiled run pristine.
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

      vm::ProgramImage Own = vm::ProgramImage::build(IB.Mod, &SB->shadow());
      vm::Vm ImageOnly(IB.Mod, &SB->shadow());
      ImageOnly.attachImage(IB.Image ? IB.Image.get() : &Own);
      vm::Vm Default(IB.Mod, &SB->shadow());
      if (IB.Image)
        Default.attachImage(IB.Image.get());
      if (IB.Jit)
        Default.attachJit(IB.Jit.get());

      const std::vector<fuzz::Input> Inputs = workload(S, 48, 0x5eedbeef);
      expectSameAsInterpreter(IB.Mod, &SB->shadow(), {&ImageOnly, &Default},
                              Inputs, IB.Report.FuncKeys.data(),
                              What.c_str());
      // The image alone never ran compiled code or reset a page.
      EXPECT_FALSE(ImageOnly.usingJit()) << What;
      EXPECT_EQ(ImageOnly.resetStats().Resets, 0u) << What;
      EXPECT_EQ(Default.usingJit(), ImageInUse) << What;
      EXPECT_EQ(Default.jitRunStats().Execs,
                ImageInUse ? Inputs.size() : 0u)
          << What;

      // The same wiring, alternating with the fallback from the start:
      // every compiled run follows an interpreter run, so each one
      // re-materializes the globals rather than resetting pages.
      vm::Vm Alternating(IB.Mod, &SB->shadow());
      if (IB.Image)
        Alternating.attachImage(IB.Image.get());
      if (IB.Jit)
        Alternating.attachJit(IB.Jit.get());
      expectSameAsInterpreter(IB.Mod, &SB->shadow(), {&Alternating}, Inputs,
                              IB.Report.FuncKeys.data(), What.c_str(),
                              /*TripGuardOnOdd=*/true);
      EXPECT_EQ(Alternating.jitRunStats().Fallbacks,
                ImageInUse ? Inputs.size() / 2 : 0u)
          << What;
      EXPECT_EQ(Alternating.resetStats().Resets, 0u) << What;
    }
  }
}

/// The line-flag oracle on image-only Vms: on every paper and example
/// subject, every feedback mode, the PathAFL call hash on and off and two
/// map sizes, the lines a Vm with only an image attached flags are
/// exactly the lines its map bumps left nonzero — the precondition of the
/// fuzzer's touched-line map pipeline (cov/CoverageMap.h).
TEST(VmFastPath, LineFlagsMarkExactlyNonzeroLines) {
  std::vector<Subject> Subjects = targets::allSubjects();
  for (Subject &S : exampleSubjects())
    Subjects.push_back(std::move(S));
  for (const Subject &S : Subjects) {
    BuildCache Cache;
    std::shared_ptr<SubjectBuild> SB = Cache.get(S);
    ASSERT_TRUE(SB->ok()) << S.Name;
    CampaignOptions O;
    O.VmMode = vm::VmExecMode::Interpreter; // the slot decodes no image
    const std::vector<fuzz::Input> Inputs = workload(S, 24, 0x11fe);
    for (instr::Feedback Mode :
         {instr::Feedback::None, instr::Feedback::EdgePrecise,
          instr::Feedback::EdgeClassic, instr::Feedback::Path}) {
      const InstrumentedBuild &IB = SB->instrumented(Mode, O);
      ASSERT_EQ(IB.Image, nullptr);
      vm::ProgramImage Image = vm::ProgramImage::build(IB.Mod, &SB->shadow());
      vm::Vm ImageOnly(IB.Mod, &SB->shadow());
      ImageOnly.attachImage(&Image);
      for (uint32_t Log2 : {10u, 16u}) {
        for (bool CallHash : {false, true}) {
          const std::string What =
              S.Name + "/feedback" + std::to_string(static_cast<int>(Mode)) +
              "/2^" + std::to_string(Log2) + (CallHash ? "/callhash" : "");
          EXPECT_EQ(test::lineFlagMismatch(ImageOnly, Inputs, Log2,
                                           IB.Report.FuncKeys.data(),
                                           CallHash),
                    "")
              << "image only " << What;
        }
      }
      EXPECT_EQ(ImageOnly.resetStats().Resets, 0u) << S.Name;
    }
  }
}

/// Randomized property test: arbitrary generated CFGs (back edges, self
/// loops, unreachable blocks, step-limit hangs), instrumented with
/// Ball-Larus path probes, execute identically on an image-only Vm and,
/// where the JIT is available, on a Vm with the compiled program attached
/// that alternates between compiled code and the capacity guard's
/// interpreter fallback.
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

    std::vector<fuzz::Input> Inputs;
    for (int K = 0; K < 6; ++K) {
      fuzz::Input In(R.below(12));
      for (uint8_t &B : In)
        B = static_cast<uint8_t>(R.below(256));
      Inputs.push_back(std::move(In));
    }
    const std::string What = "random trial " + std::to_string(Trial);
    vm::Vm ImageOnly(M, &Shadow);
    ImageOnly.attachImage(&Image);
    std::vector<vm::Vm *> Others = {&ImageOnly};
    std::unique_ptr<vm::jit::JitProgram> J;
    vm::Vm Switching(M, &Shadow);
    if (Avail) {
      J = vm::jit::JitProgram::compile(Image);
      ASSERT_NE(J, nullptr);
      Switching.attachJit(J.get());
      Others.push_back(&Switching);
    }
    expectSameAsInterpreter(M, &Shadow, Others, Inputs, Rep.FuncKeys.data(),
                            What.c_str(), /*TripGuardOnOdd=*/true);
    EXPECT_FALSE(ImageOnly.usingJit());
    EXPECT_EQ(ImageOnly.resetStats().Resets, 0u) << What;
    if (Avail) {
      EXPECT_EQ(Switching.jitRunStats().Execs, Inputs.size() / 2) << What;
      EXPECT_EQ(Switching.jitRunStats().Fallbacks, Inputs.size() / 2) << What;
      EXPECT_EQ(Switching.resetStats().Resets, 0u) << What;
    }
  }
}

/// Strip the engine-local metric families (vm.fastpath.*, vm.jit.*,
/// vm.selective.*), the only permitted divergence between traced
/// campaigns run on different engines. The family list lives in
/// telemetry::isEngineLocalMetric — the shared definition all identity
/// tests use.
template <typename MapT> MapT withoutEngineLocalFamilies(const MapT &In) {
  MapT Out;
  for (const auto &KV : In)
    if (!telemetry::isEngineLocalMetric(KV.first))
      Out.insert(KV);
  return Out;
}

/// Whole campaigns: the default engine gives byte-identical findings and
/// (minus engine-local families) identical telemetry to the interpreter,
/// and its trace carries the vm.fastpath.* family — the image size as
/// decoded by the BuildCache — exactly when the image is in use.
TEST(VmFastPath, CampaignIdentityAndTelemetry) {
  std::vector<Subject> Examples = exampleSubjects();
  const Subject &S = Examples[3]; // tokens: globals + calls + branches
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
  for (FuzzerKind Kind : {FuzzerKind::Path, FuzzerKind::Pcguard}) {
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
      EXPECT_EQ(A.Label, B.Label);
      EXPECT_EQ(A.ExecOffset, B.ExecOffset);
      EXPECT_EQ(A.Samples, B.Samples);
      EXPECT_EQ(A.EventsRecorded, B.EventsRecorded);
      EXPECT_EQ(withoutEngineLocalFamilies(A.Metrics.counters()),
                withoutEngineLocalFamilies(B.Metrics.counters()));
      EXPECT_EQ(withoutEngineLocalFamilies(A.Metrics.gauges()),
                withoutEngineLocalFamilies(B.Metrics.gauges()));
      EXPECT_TRUE(telemetry::sameObservableMetrics(A.Metrics, B.Metrics));
      // The image-backed campaign carries the family, with the decoded
      // image's size...
      EXPECT_EQ(B.Metrics.gauges().count("vm.fastpath.image.bytes") != 0,
                ImageInUse);
      EXPECT_EQ(B.Metrics.counters().count("vm.fastpath.reset.bytes") != 0,
                ImageInUse);
      if (ImageInUse && Kind == FuzzerKind::Path) {
        EXPECT_EQ(B.Metrics.gauges().at("vm.fastpath.image.bytes"),
                  ImageBytes);
      }
      // ...and the interpreter campaign never does.
      EXPECT_FALSE(A.Metrics.gauges().count("vm.fastpath.image.bytes"));
      EXPECT_FALSE(A.Metrics.counters().count("vm.fastpath.reset.bytes"));
    }
  }
}

/// The engine selector as the image sees it: fastPathEnabled is true
/// exactly when the JIT runs, the retired "fastpath" value of
/// PATHFUZZ_VM_ENGINE means the default like any unknown value, and the
/// BuildCache decodes a slot's image exactly when fastPathEnabled says so.
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
}

} // namespace
