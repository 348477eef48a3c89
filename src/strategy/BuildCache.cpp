//===- BuildCache.cpp - Shared subject build cache ----------------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "strategy/BuildCache.h"

#include "instrument/Audit.h"
#include "support/FaultInjection.h"

#include <cassert>

namespace pathfuzz {
namespace strategy {

namespace {

/// The "strategy.instrument.corrupt" fault: flip the first path/edge probe
/// constant in the freshly instrumented module. A single off-by-one in a
/// path increment makes some path IDs collide or escape [0, NumPaths) —
/// exactly the class of silent miscompile the static audit exists to
/// catch. Classic block probes are left alone: their location IDs are
/// random by design, so no audit can (or should) pin their values.
bool corruptOneProbe(mir::Module &M) {
  for (auto &F : M.Funcs)
    for (auto &BB : F.Blocks)
      for (auto &I : BB.Instrs) {
        switch (I.Op) {
        case mir::Opcode::EdgeProbe:
        case mir::Opcode::PathAdd:
        case mir::Opcode::PathFlushRet:
        case mir::Opcode::PathFlushBack:
          ++I.Imm;
          return true;
        default:
          break;
        }
      }
  return false;
}

} // namespace

SubjectBuild::SubjectBuild(const Subject &S) : S(&S) {
  // Injected build faults surface through the same structured-error path
  // as genuine frontend diagnostics, so the batch retry logic is
  // exercised identically for both.
  if (fault::enabled() && fault::shouldFail("strategy.compile")) {
    Err = "injected fault: strategy.compile";
    FaultSiteName = "strategy.compile";
    TransientErr = fault::isTransient("strategy.compile");
    return;
  }
  lang::CompileResult CR = lang::compileSource(S.Source, S.Name);
  if (!CR.ok()) {
    // A real compile error: keep the frontend's full diagnostic. Not
    // transient — recompiling the same source cannot succeed.
    Err = CR.message();
    TransientErr = false;
    return;
  }
  Base = std::move(*CR.Mod);
  Shadow = instr::ShadowEdgeIndex::build(Base);
  Compiled = true;
}

const InstrumentedBuild *
SubjectBuild::tryInstrumented(instr::Feedback Mode, const CampaignOptions &Opts,
                              std::string *ErrOut) {
  Key K{static_cast<uint8_t>(Mode), static_cast<uint8_t>(Opts.Placement),
        Opts.MapSizeLog2};
  std::lock_guard<std::mutex> L(M);
  std::unique_ptr<InstrumentedBuild> &Slot = Builds[K];
  if (!Slot) {
    // The fault probe sits inside the cache-miss path: a cached build is
    // immune (the pass already ran), and a failed attempt leaves the slot
    // empty so a retry re-runs the pass and can succeed.
    if (fault::enabled() && fault::shouldFail("strategy.instrument")) {
      Builds.erase(K);
      if (ErrOut)
        *ErrOut = "injected fault: strategy.instrument";
      return nullptr;
    }
    Slot = std::make_unique<InstrumentedBuild>();
    Slot->Mod = Base; // copy, then rewrite in place
    instr::InstrumentOptions IO;
    IO.Mode = Mode;
    IO.Placement = Opts.Placement;
    IO.MapSizeLog2 = Opts.MapSizeLog2;
    IO.Seed = 0x5eed0000 + Opts.MapSizeLog2; // stable across runs
    Slot->Report = instr::instrumentModule(Slot->Mod, IO);

    // Static audit: prove the probe constants realize the canonical path
    // numbering and the lowering followed the placement rules. On by
    // default in assert-enabled builds (PATHFUZZ_AUDIT=0/1 overrides);
    // always on when the corruption fault just fired, so the fault is
    // caught deterministically in any build flavor.
    bool Corrupted =
        fault::enabled() && fault::shouldFail("strategy.instrument.corrupt") &&
        corruptOneProbe(Slot->Mod);
    if (instr::auditEnabled() || Corrupted) {
      instr::AuditResult AR =
          instr::auditModule(Base, Slot->Mod, Slot->Report, IO);
      if (!AR.ok()) {
        Builds.erase(K);
        if (ErrOut)
          *ErrOut = "instrumentation audit failed: " + AR.message();
        return nullptr;
      }
    }
  }
  // The pre-decoded image, the JIT's input, rides the same cache slot as
  // the instrumented module: decoded at most once per (feedback,
  // placement, map size) and shared read-only by every trial's Vm, and
  // only when the JIT will run. Checked on the cache-hit path too, so a
  // JIT campaign can add the image to a slot instrumented while the JIT
  // was off.
  if (vm::fastPathEnabled(Opts.VmMode)) {
    if (!Slot->Image) {
      Slot->Image = std::make_unique<vm::ProgramImage>(
          vm::ProgramImage::build(Slot->Mod, &Shadow));
      ++ImageBuildCount;
    } else {
      ++ImageHitCount;
    }
    // The native JIT program rides the slot the same way: compiled from
    // the cached image at most once and shared read-only (a JitProgram is
    // immutable after compile). Checked on the hit path so a JIT campaign
    // can add it to a slot built while the JIT was off.
    // compile() returning null (unsupported platform) is cached-as-null
    // by simply retrying: available() is false, so jitEnabled never
    // steers a campaign here in the first place.
    if (vm::jitEnabled(Opts.VmMode)) {
      if (!Slot->Jit) {
        Slot->Jit = vm::jit::JitProgram::compile(*Slot->Image);
        ++JitCompileCount;
      } else {
        ++JitHitCount;
      }
    }
  }
  return Slot.get();
}

const InstrumentedBuild &
SubjectBuild::instrumented(instr::Feedback Mode, const CampaignOptions &Opts) {
  const InstrumentedBuild *B = tryInstrumented(Mode, Opts);
  assert(B && "instrumented() used with instrumentation faults armed");
  return *B;
}

size_t SubjectBuild::instrumentCount() const {
  std::lock_guard<std::mutex> L(M);
  return Builds.size();
}

size_t SubjectBuild::imageBuilds() const {
  std::lock_guard<std::mutex> L(M);
  return ImageBuildCount;
}

size_t SubjectBuild::imageHits() const {
  std::lock_guard<std::mutex> L(M);
  return ImageHitCount;
}

size_t SubjectBuild::jitCompiles() const {
  std::lock_guard<std::mutex> L(M);
  return JitCompileCount;
}

size_t SubjectBuild::jitCacheHits() const {
  std::lock_guard<std::mutex> L(M);
  return JitHitCount;
}

std::shared_ptr<const analysis::ReachabilitySummary>
SubjectBuild::reachability() {
  assert(Compiled && "reachability() requires ok()");
  std::lock_guard<std::mutex> L(M);
  if (!Reach) {
    Reach = std::make_shared<const analysis::ReachabilitySummary>(
        analysis::ReachabilitySummary::build(Base));
    ++ReachBuildCount;
  } else {
    ++ReachHitCount;
  }
  return Reach;
}

size_t SubjectBuild::reachabilityBuilds() const {
  std::lock_guard<std::mutex> L(M);
  return ReachBuildCount;
}

size_t SubjectBuild::reachabilityHits() const {
  std::lock_guard<std::mutex> L(M);
  return ReachHitCount;
}

std::shared_ptr<SubjectBuild> BuildCache::get(const Subject &S) {
  std::lock_guard<std::mutex> L(M);
  std::shared_ptr<SubjectBuild> &Slot = Subjects[S.Name];
  if (!Slot) {
    Slot = std::make_shared<SubjectBuild>(S);
    ++CompileCount;
  }
  return Slot;
}

void BuildCache::invalidate(const std::string &SubjectName) {
  std::lock_guard<std::mutex> L(M);
  Subjects.erase(SubjectName);
}

size_t BuildCache::subjectsCompiled() const {
  std::lock_guard<std::mutex> L(M);
  return CompileCount;
}

size_t BuildCache::modulesInstrumented() const {
  std::lock_guard<std::mutex> L(M);
  size_t N = 0;
  for (const auto &[Name, Build] : Subjects)
    N += Build->instrumentCount();
  return N;
}

size_t BuildCache::imagesPredecoded() const {
  std::lock_guard<std::mutex> L(M);
  size_t N = 0;
  for (const auto &[Name, Build] : Subjects)
    N += Build->imageBuilds();
  return N;
}

size_t BuildCache::imageCacheHits() const {
  std::lock_guard<std::mutex> L(M);
  size_t N = 0;
  for (const auto &[Name, Build] : Subjects)
    N += Build->imageHits();
  return N;
}

size_t BuildCache::programsJitted() const {
  std::lock_guard<std::mutex> L(M);
  size_t N = 0;
  for (const auto &[Name, Build] : Subjects)
    N += Build->jitCompiles();
  return N;
}

size_t BuildCache::jitCacheHits() const {
  std::lock_guard<std::mutex> L(M);
  size_t N = 0;
  for (const auto &[Name, Build] : Subjects)
    N += Build->jitCacheHits();
  return N;
}

size_t BuildCache::reachabilitySummaries() const {
  std::lock_guard<std::mutex> L(M);
  size_t N = 0;
  for (const auto &[Name, Build] : Subjects)
    N += Build->reachabilityBuilds();
  return N;
}

size_t BuildCache::reachabilityCacheHits() const {
  std::lock_guard<std::mutex> L(M);
  size_t N = 0;
  for (const auto &[Name, Build] : Subjects)
    N += Build->reachabilityHits();
  return N;
}

} // namespace strategy
} // namespace pathfuzz
