//===- vm_throughput.cpp - VM engine-matrix throughput measurement ------------===//
//
// Part of the pathfuzz project.
//
// Measures what each VM execution engine buys over the reference
// interpreter, backing docs/PERFORMANCE.md. The harness is an N-engine
// matrix — the interpreter is always engine 0 (the baseline), and the
// baseline JIT, when the platform supports it, rides the same legs:
//
//  - raw executor throughput on the example subjects
//    (examples/minilang/*.ml): each replays the same mutated-seed input
//    set through every engine — ns/step, execs/sec, best-of and
//    median-of-paired-reps speedup per subject, with a field-level
//    identity sweep (fault, steps, return value, coverage map, shadow
//    edges, cmp log) before any timing. The headline is the median
//    speedup across the example subjects, per engine;
//  - end-to-end: one campaign leg per engine on a shared target build,
//    rotating leg order across reps, median per-pair speedup and
//    best-of-N execs/sec, plus the serializeCampaignResult
//    byte-identity check on every rep against the interpreter leg;
//  - engine bookkeeping: pre-decoded image size and cache hits, JIT
//    code size and bailout counts, and the vm.fastpath.* (the JIT's
//    image and snapshot reset) / vm.jit.* telemetry series from a traced
//    campaign on the fastest engine;
//  - and writes the whole record to BENCH_vm.json (PATHFUZZ_BENCH_OUT
//    overrides the path).
//
// The speedup is machine-dependent; the exit code reflects only the
// identity checks, which must hold everywhere.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "cov/CoverageMap.h"
#include "strategy/BuildCache.h"
#include "vm/Image.h"
#include "vm/jit/Jit.h"

#include <cinttypes>
#include <cstring>

using namespace pathfuzz;
using namespace pathfuzz::bench;
using namespace pathfuzz::strategy;

namespace {

/// One row of the engine matrix. Engine 0 is always the reference
/// interpreter; speedups are relative to it.
struct EngineSpec {
  const char *Name;
  vm::VmExecMode Mode;
};

/// The engines this build can run. The JIT row is present only when the
/// platform supports it (x86-64 with W^X code pages).
std::vector<EngineSpec> engineMatrix() {
  std::vector<EngineSpec> E = {{"interp", vm::VmExecMode::Interpreter}};
  if (vm::jit::available())
    E.push_back({"jit", vm::VmExecMode::Jit});
  return E;
}

/// The raw-executor workload: the subject's seeds plus mutated copies
/// (fixed random stream, independent of the engine under test) — the
/// same shape of input a fuzzing campaign replays.
std::vector<fuzz::Input> makeWorkload(const Subject &S, size_t Count) {
  std::vector<fuzz::Input> Inputs = S.Seeds;
  Rng R(0x5eedbeef);
  while (Inputs.size() < Count) {
    fuzz::Input In = S.Seeds[R.index(S.Seeds.size())];
    for (int M = 0; M < 4; ++M)
      In[R.index(In.size())] = static_cast<uint8_t>(R.below(256));
    Inputs.push_back(std::move(In));
  }
  return Inputs;
}

struct RawEngine {
  vm::Vm Machine;
  cov::CoverageMap Map;

  RawEngine(const InstrumentedBuild &IB, const instr::ShadowEdgeIndex &Shadow,
            const EngineSpec &Spec)
      : Machine(IB.Mod, &Shadow), Map(16) {
    if (Spec.Mode == vm::VmExecMode::Jit)
      Machine.attachJit(IB.Jit.get());
  }

  /// The Vm's own result: valid until this engine's next exec.
  const vm::ExecResult &exec(const InstrumentedBuild &IB,
                             const fuzz::Input &In, bool LogCmps,
                             bool ResetMap) {
    if (ResetMap)
      Map.reset();
    vm::FeedbackContext Fb;
    Fb.Map = Map.data();
    Fb.MapMask = Map.mask();
    Fb.FuncKeys = IB.Report.FuncKeys.data();
    vm::ExecOptions EO;
    EO.LogCmps = LogCmps;
    return Machine.run(In.data(), In.size(), EO, &Fb);
  }
};

/// Field-level identity of two executions (everything ExecResult carries
/// except the JIT-only DirtyGlobalCells bookkeeping).
bool sameResult(const vm::ExecResult &A, const vm::ExecResult &B) {
  return A.TheFault.Kind == B.TheFault.Kind && A.TheFault.Func == B.TheFault.Func &&
         A.TheFault.Block == B.TheFault.Block &&
         A.TheFault.InstrIdx == B.TheFault.InstrIdx &&
         A.TheFault.stackHash() == B.TheFault.stackHash() &&
         A.Steps == B.Steps && A.ReturnValue == B.ReturnValue &&
         A.ShadowEdges == B.ShadowEdges && A.CmpOperands == B.CmpOperands &&
         A.HeapAllocs == B.HeapAllocs &&
         A.HeapCellsAllocated == B.HeapCellsAllocated;
}

/// Per-example-subject measurement: the identity sweep's per-engine
/// verdicts and the timed legs (index-aligned with the EngineSpec list).
struct RawMeasurement {
  std::string Name;
  uint64_t TotalSteps = 0;
  size_t Inputs = 0;
  std::vector<bool> Identical; ///< matched engine 0 on every input
  std::vector<LegStats> Legs;

  uint64_t stepsPerExec() const { return TotalSteps / Inputs; }
  double nsPerStep(size_t I) const {
    return TotalSteps ? double(Legs[I].BestMicros) * 1000.0 / double(TotalSteps)
                      : 0.0;
  }
};

/// Identity sweep + rotating-leg timing of one subject through every
/// engine. The identity pass resets the coverage map per exec and
/// compares every observable field against engine 0; the timed legs skip
/// the reset (a constant memset cost identical for all engines) so they
/// measure the executor itself.
RawMeasurement measureRaw(const Subject &S, const InstrumentedBuild &IB,
                          const SubjectBuild &SB,
                          const std::vector<EngineSpec> &Engines,
                          uint32_t Reps) {
  const size_t N = Engines.size();
  RawMeasurement M;
  M.Name = S.Name;
  M.Identical.assign(N, true);

  std::vector<fuzz::Input> Inputs = makeWorkload(S, 256);
  M.Inputs = Inputs.size();
  std::vector<RawEngine> Eng;
  Eng.reserve(N);
  for (const EngineSpec &Spec : Engines)
    Eng.emplace_back(IB, SB.shadow(), Spec);

  for (const fuzz::Input &In : Inputs) {
    const vm::ExecResult &Base = Eng[0].exec(IB, In, /*LogCmps=*/true, true);
    for (size_t I = 1; I < N; ++I) {
      const vm::ExecResult &R = Eng[I].exec(IB, In, /*LogCmps=*/true, true);
      M.Identical[I] = M.Identical[I] && sameResult(Base, R) &&
                       std::memcmp(Eng[0].Map.data(), Eng[I].Map.data(),
                                   Eng[0].Map.size()) == 0;
    }
    M.TotalSteps += Base.Steps;
  }

  std::vector<Leg> Legs;
  for (RawEngine &E : Eng)
    Legs.push_back([&E, &IB, &Inputs](uint32_t) {
      for (const fuzz::Input &In : Inputs)
        (void)E.exec(IB, In, /*LogCmps=*/false, false);
      return std::optional<CampaignResult>();
    });
  M.Legs = timeLegs(Legs, Reps);
  return M;
}

} // namespace

int main() {
  BenchConfig C = BenchConfig::fromEnv();
  C.printHeader("VM throughput: engine matrix vs reference interpreter");

  const std::vector<EngineSpec> Engines = engineMatrix();
  const size_t N = Engines.size();

  //===--------------------------------------------------------------------===//
  // Raw executor on the example subjects: identity sweep, rotating-leg
  // timing through every engine.
  //===--------------------------------------------------------------------===//

  std::vector<Subject> Examples = loadExampleSubjects();
  const uint32_t RawReps = std::max<uint32_t>(7, C.Runs);
  std::vector<RawMeasurement> Raw;
  bool Identical = true;
  int64_t JitCodeBytes = 0, JitFuncs = 0;
  for (const Subject &S : Examples) {
    BuildCache Cache;
    std::shared_ptr<SubjectBuild> SB = Cache.get(S);
    CampaignOptions O;
    O.VmMode = Engines.back().Mode; // deepest engine compiles image + JIT
    const InstrumentedBuild &IB = SB->instrumented(instr::Feedback::Path, O);
    if (IB.Jit) {
      JitCodeBytes += static_cast<int64_t>(IB.Jit->stats().CodeBytes);
      JitFuncs += IB.Jit->stats().NumFuncs;
    }
    Raw.push_back(measureRaw(S, IB, *SB, Engines, RawReps));
    for (bool Same : Raw.back().Identical)
      Identical &= Same;
  }
  // Headline per engine: median across subjects of the per-subject
  // median speedup.
  std::vector<double> HeadlineMedian(N, 0.0);
  for (size_t I = 1; I < N; ++I) {
    std::vector<double> Medians;
    for (const RawMeasurement &M : Raw)
      Medians.push_back(M.Legs[I].speedup());
    HeadlineMedian[I] = median(Medians);
  }

  //===--------------------------------------------------------------------===//
  // End-to-end campaigns: one leg per engine per rep on a shared target
  // build (the fuzzing layer on top dilutes the raw-executor win; both
  // numbers are reported).
  //===--------------------------------------------------------------------===//

  const Subject &S = C.timedSubject();
  BuildCache Cache;
  std::shared_ptr<SubjectBuild> SB = Cache.get(S);

  std::vector<Leg> Legs;
  CampaignOptions Deepest;
  for (const EngineSpec &E : Engines) {
    Deepest = C.campaignOptions();
    Deepest.Kind = FuzzerKind::Path;
    Deepest.Trace = telemetry::TraceConfig(); // timed legs run untraced
    Deepest.VmMode = E.Mode;
    Legs.push_back(campaignLeg(*SB, Deepest));
  }
  const uint32_t Reps = std::max<uint32_t>(3, C.Runs);
  (void)runCampaign(*SB, Deepest); // warm caches before timing anything
  std::vector<LegStats> Camp = timeLegs(Legs, Reps);
  for (const LegStats &L : Camp)
    Identical &= L.identical();

  //===--------------------------------------------------------------------===//
  // Engine bookkeeping: image cache stats plus the vm.fastpath.* and
  // vm.jit.* series from one traced campaign on the deepest engine.
  //===--------------------------------------------------------------------===//

  CampaignOptions Traced = Deepest;
  Traced.Trace.Enabled = true;
  CampaignResult TracedR = runCampaign(*SB, Traced);
  uint64_t DirtyResetBytes = 0, JitExecs = 0, JitBailouts = 0;
  int64_t ImageBytes = 0, JitBytesGauge = 0, JitCompiled = 0;
  if (TracedR.Trace)
    for (const telemetry::InstanceRecord &I : TracedR.Trace->Instances) {
      const auto &Ctr = I.Metrics.counters();
      const auto &Gau = I.Metrics.gauges();
      auto It = Ctr.find("vm.fastpath.reset.bytes");
      if (It != Ctr.end())
        DirtyResetBytes += It->second;
      if ((It = Ctr.find("vm.jit.execs")) != Ctr.end())
        JitExecs += It->second;
      if ((It = Ctr.find("vm.jit.bailouts")) != Ctr.end())
        JitBailouts += It->second;
      auto Gt = Gau.find("vm.fastpath.image.bytes");
      if (Gt != Gau.end())
        ImageBytes = Gt->second;
      if ((Gt = Gau.find("vm.jit.bytes")) != Gau.end())
        JitBytesGauge = Gt->second;
      if ((Gt = Gau.find("vm.jit.compiled")) != Gau.end())
        JitCompiled = Gt->second;
    }

  std::printf("engines:");
  for (const EngineSpec &E : Engines)
    std::printf(" %s", E.Name);
  if (!vm::jit::available())
    std::printf(" (jit unavailable on this platform)");
  std::printf("\n\n");
  std::printf("raw executor, example subjects (256 mutated-seed inputs, "
              "%u rotating reps each):\n",
              RawReps);
  std::printf("  %-9s %11s %15s", "subject", "steps/exec", "interp ns/step");
  for (size_t I = 1; I < N; ++I)
    std::printf(" %9s-x(med)", Engines[I].Name);
  std::printf("\n");
  for (const RawMeasurement &M : Raw) {
    std::printf("  %-9s %11" PRIu64 " %15.2f", M.Name.c_str(),
                M.stepsPerExec(), M.nsPerStep(0));
    for (size_t I = 1; I < N; ++I)
      std::printf(" %15.2fx", M.Legs[I].speedup());
    std::printf("\n");
  }
  for (size_t I = 1; I < N; ++I)
    std::printf("  median speedup across example subjects (%s): %.2fx\n",
                Engines[I].Name, HeadlineMedian[I]);
  std::printf("\ncampaign subject: %s (%" PRIu64 " execs, %u rotating reps)\n",
              S.Name.c_str(), C.Execs, Reps);
  for (size_t I = 0; I < N; ++I)
    std::printf("campaign %-9s %8" PRIu64 " us (best), %9.0f execs/sec"
                "%s%.2fx median)\n",
                Engines[I].Name, Camp[I].BestMicros, Camp[I].perSec(C.Execs),
                I ? " (" : " (baseline; ", Camp[I].speedup());
  std::printf("image: %" PRId64 " bytes, %zu decode(s), %zu cache hit(s)\n",
              ImageBytes, SB->imageBuilds(), SB->imageHits());
  if (vm::jit::available())
    std::printf("jit: %" PRId64 " funcs, %" PRId64 " native bytes, %" PRIu64
                " execs, %" PRIu64 " bailouts over the traced campaign\n",
                JitCompiled, JitBytesGauge, JitExecs, JitBailouts);
  std::printf("snapshot reset: %" PRIu64 " bytes restored over the traced "
              "campaign\n",
              DirtyResetBytes);
  std::printf("all engines == interpreter results: %s\n",
              Identical ? "yes" : "NO");

  std::vector<std::string> Names;
  JsonFields F;
  for (const EngineSpec &E : Engines)
    Names.push_back("\"" + std::string(E.Name) + "\"");
  F.raw("engines", jsonArray(Names));
  std::vector<std::string> ExampleRows;
  for (const RawMeasurement &M : Raw) {
    JsonFields PerEngine;
    for (size_t I = 1; I < N; ++I)
      PerEngine.raw(Engines[I].Name,
                    JsonFields()
                        .num("ns_per_step", M.nsPerStep(I))
                        .num("execs_per_sec", M.Legs[I].perSec(M.Inputs), 1)
                        .num("speedup_best", M.Legs[I].bestSpeedup(M.Legs[0]))
                        .num("speedup_median", M.Legs[I].speedup())
                        .flag("identical", M.Identical[I])
                        .object());
    ExampleRows.push_back(JsonFields()
                              .str("name", M.Name)
                              .num("steps_per_exec", M.stepsPerExec())
                              .num("interp_ns_per_step", M.nsPerStep(0))
                              .raw("engines", PerEngine.object())
                              .object());
  }
  F.raw("examples", jsonArray(ExampleRows));
  for (size_t I = 1; I < N; ++I)
    F.num(("examples_" + std::string(Engines[I].Name) + "_speedup_median")
              .c_str(),
          HeadlineMedian[I]);
  JsonFields Campaigns;
  for (size_t I = 0; I < N; ++I)
    Campaigns.raw(Engines[I].Name,
                  JsonFields()
                      .num("micros", Camp[I].BestMicros)
                      .num("execs_per_sec", Camp[I].perSec(C.Execs), 1)
                      .num("speedup_median", Camp[I].speedup())
                      .flag("identical", Camp[I].identical())
                      .object());
  F.flag("jit_available", vm::jit::available())
      .str("campaign_subject", S.Name)
      .num("campaign_execs", C.Execs)
      .num("reps", Reps)
      .raw("campaigns", Campaigns.object())
      .num("image_bytes", ImageBytes)
      .num("image_builds", SB->imageBuilds())
      .num("image_hits", SB->imageHits())
      .num("jit_funcs", JitFuncs)
      .num("jit_code_bytes", JitCodeBytes)
      .num("jit_execs", JitExecs)
      .num("jit_bailouts", JitBailouts)
      .num("dirty_reset_bytes", DirtyResetBytes)
      .flag("results_identical", Identical);
  return writeRecord("vm_throughput", "BENCH_vm.json", F, Identical,
                     {&TracedR});
}
