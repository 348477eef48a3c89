//===- BuildCache.h - Shared subject build cache ----------------*- C++ -*-===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// The paper's evaluation is embarrassingly parallel: 18 subjects x 7
// fuzzer configurations x several trials. What is *not* independent is
// the build work — compiling a subject and instrumenting it for a
// feedback mode is identical across trials, and the serial drivers used
// to redo it per campaign. This cache compiles each subject exactly once
// and instruments it once per (feedback mode, placement, map size),
// sharing the resulting modules read-only across every trial and every
// worker thread.
//
// Sharing is sound because everything downstream takes const references:
// the Fuzzer, the Vm and the shadow-edge index never mutate the module.
// It is *deterministic* because compilation and instrumentation derive
// only from the subject source and a stable instrumentation seed, so a
// cached build is bit-identical to the one a fresh serial campaign would
// construct.
//
// Build failures are *captured, not fatal*: a SubjectBuild whose subject
// fails to compile (for real, or through the "strategy.compile" fault-
// injection site) carries the structured diagnostic instead of aborting
// the process, so one broken subject cannot take down a whole batch. The
// cache hands out shared_ptrs so a failed entry can be invalidated for a
// retry while concurrent holders of the old entry stay valid.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_STRATEGY_BUILDCACHE_H
#define PATHFUZZ_STRATEGY_BUILDCACHE_H

#include "analysis/Reachability.h"
#include "strategy/Campaign.h"
#include "vm/Image.h"
#include "vm/jit/Jit.h"

#include <map>
#include <memory>
#include <mutex>
#include <tuple>

namespace pathfuzz {
namespace strategy {

/// One instrumented variant of a subject: the rewritten module plus its
/// instrumentation report (per-function keys etc.).
struct InstrumentedBuild {
  mir::Module Mod;
  instr::InstrumentReport Report;
  /// Pre-decoded VM image of Mod (the JIT's input; see vm/Image.h), built
  /// once alongside the instrumentation when the JIT engine is enabled and
  /// shared read-only by every trial's Vm. Null when every campaign that
  /// touched this slot ran on the interpreter.
  std::unique_ptr<vm::ProgramImage> Image;
  /// Native compilation of Image (vm/jit/Jit.h), built once alongside it
  /// when a campaign resolves to the JIT engine and shared read-only by
  /// every trial's Vm — a JitProgram carries no mutable execution state,
  /// so the sharing rules are the image's. Cached per
  /// (subject, feedback mode) under the same lock and key as the image:
  /// the compiled code depends only on the image bytes, which that key
  /// fully determines. Null until a JIT campaign touches the slot.
  std::unique_ptr<vm::jit::JitProgram> Jit;
  /// Read only by campaignbench/; removed in the next benchmark PR.
  std::unique_ptr<vm::ProgramImage> CheapImage;
  std::unique_ptr<vm::jit::JitProgram> CheapJit;
};

/// Compiled artifacts for one subject, shared read-only across campaign
/// trials and threads: the base module, its shadow-edge index, and one
/// instrumented module per feedback configuration.
class SubjectBuild {
public:
  /// Compiles the subject. Compile failure is captured (see ok()/error())
  /// rather than aborted on.
  explicit SubjectBuild(const Subject &S);

  /// Whether the subject compiled; every accessor below except the error
  /// ones requires ok().
  bool ok() const { return Compiled; }
  /// The structured diagnostic when !ok(): the frontend's full message,
  /// or the injected-fault description.
  const std::string &error() const { return Err; }
  /// Name of the fault-injection site that caused the failure (empty for
  /// genuine compile errors).
  const std::string &faultSite() const { return FaultSiteName; }
  /// Whether retrying the build may succeed (injected transient faults).
  bool transientError() const { return TransientErr; }

  const Subject &subject() const { return *S; }
  const mir::Module &base() const { return Base; }
  const instr::ShadowEdgeIndex &shadow() const { return Shadow; }

  /// The instrumented build for a feedback mode under the given campaign
  /// options; built on first use, then shared. Thread-safe. The returned
  /// reference stays valid for the lifetime of this SubjectBuild.
  /// Returns null — with the diagnostic in *ErrOut when provided — when
  /// the "strategy.instrument" fault site triggers, or when the static
  /// instrumentation audit (instr::auditModule; on in debug builds, via
  /// PATHFUZZ_AUDIT elsewhere, and always after the
  /// "strategy.instrument.corrupt" fault fires) rejects the module.
  /// Failed attempts are not cached, so a retry re-runs the pass.
  const InstrumentedBuild *tryInstrumented(instr::Feedback Mode,
                                           const CampaignOptions &Opts,
                                           std::string *ErrOut = nullptr);

  /// tryInstrumented for contexts where failure is impossible (no faults
  /// armed); asserts success.
  const InstrumentedBuild &instrumented(instr::Feedback Mode,
                                        const CampaignOptions &Opts);

  /// Instrumentation passes run so far on this subject.
  size_t instrumentCount() const;

  /// Image decodes performed / avoided on this subject: tryInstrumented
  /// builds the image at most once per cache slot and counts every later
  /// request that needs it (a JIT campaign) as a hit.
  size_t imageBuilds() const;
  size_t imageHits() const;

  /// Native JIT compilations performed / avoided on this subject (the
  /// image counters' analogue: compiled at most once per cache slot,
  /// every later JIT-engine request counts as a hit).
  size_t jitCompiles() const;
  size_t jitCacheHits() const;

  /// The interprocedural reachability summary of the base module
  /// (analysis/Reachability.h): call graph, per-block reach sets, shadow-
  /// edge endpoint tables — the prescient config's frontier-score input.
  /// Input-independent, so it is computed at most once per subject and
  /// shared read-only across trials and threads exactly like the images.
  /// Thread-safe; requires ok().
  std::shared_ptr<const analysis::ReachabilitySummary> reachability();

  /// Reachability summaries computed / returned from cache on this
  /// subject (the image counters' analogue).
  size_t reachabilityBuilds() const;
  size_t reachabilityHits() const;

private:
  /// Everything instrumentModule's output depends on besides the module.
  using Key = std::tuple<uint8_t /*Feedback*/, uint8_t /*PlacementMode*/,
                         uint32_t /*MapSizeLog2*/>;

  const Subject *S;
  mir::Module Base;
  instr::ShadowEdgeIndex Shadow;
  bool Compiled = false;
  bool TransientErr = false;
  std::string Err;
  std::string FaultSiteName;

  mutable std::mutex M;
  std::map<Key, std::unique_ptr<InstrumentedBuild>> Builds;
  size_t ImageBuildCount = 0;
  size_t ImageHitCount = 0;
  size_t JitCompileCount = 0;
  size_t JitHitCount = 0;
  std::shared_ptr<const analysis::ReachabilitySummary> Reach;
  size_t ReachBuildCount = 0;
  size_t ReachHitCount = 0;
};

/// Lazily compiles each subject exactly once and hands out the shared
/// per-subject builds. Thread-safe; one cache per batch run.
class BuildCache {
public:
  /// The (possibly freshly compiled) build for S, keyed by subject name.
  /// The shared_ptr keeps the build alive across invalidate().
  std::shared_ptr<SubjectBuild> get(const Subject &S);

  /// Drop the cached entry for a subject so the next get() recompiles —
  /// the retry path for transient build faults. In-flight holders of the
  /// old entry are unaffected.
  void invalidate(const std::string &SubjectName);

  size_t subjectsCompiled() const;
  size_t modulesInstrumented() const;
  /// Fast-path image decodes performed / avoided across all subjects.
  size_t imagesPredecoded() const;
  size_t imageCacheHits() const;
  /// Native JIT compilations performed / avoided across all subjects.
  size_t programsJitted() const;
  size_t jitCacheHits() const;
  /// Reachability summaries computed / served from cache across all
  /// subjects.
  size_t reachabilitySummaries() const;
  size_t reachabilityCacheHits() const;

private:
  mutable std::mutex M;
  std::map<std::string, std::shared_ptr<SubjectBuild>> Subjects;
  size_t CompileCount = 0;
};

} // namespace strategy
} // namespace pathfuzz

#endif // PATHFUZZ_STRATEGY_BUILDCACHE_H
