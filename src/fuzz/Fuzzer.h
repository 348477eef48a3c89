//===- Fuzzer.h - Coverage-guided fuzzing loop ------------------*- C++ -*-===//
//
// Part of the pathfuzz project: a reproduction of "Towards Path-Aware
// Coverage-Guided Fuzzing" (CGO 2026).
//
//===----------------------------------------------------------------------===//
//
// An AFL++-style greybox fuzzing loop over the MIR VM. One Fuzzer instance
// is one fuzzing "session": it owns the coverage map, the virgin map, the
// corpus, the mutation RNG and the crash collection. The feedback
// mechanism is whatever the module was instrumented with — the paper's
// point is that everything else is shared across configurations:
//
//  - scheduling with favored-entry skip probabilities (AFL's 99/95/75%),
//  - energy assignment (a simplified perf_score),
//  - havoc/splice mutations plus a comparison-operand dictionary
//    (the cmplog / input-to-state analogue),
//  - crash collection with stack-hash dedup ("unique crashes") and
//    ground-truth bug identity ("unique bugs" after the paper's manual
//    triage),
//  - campaign budgets measured in executions (the deterministic analogue
//    of the paper's wall-clock budgets).
//
// The fuzzer also tracks the union of *shadow* edges covered, regardless
// of feedback mode — the afl-showmap analogue behind Table IV and the
// culling criterion.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_FUZZ_FUZZER_H
#define PATHFUZZ_FUZZ_FUZZER_H

#include "cov/CoverageMap.h"
#include "fuzz/Mutator.h"
#include "fuzz/Queue.h"
#include "instrument/Instrument.h"
#include "telemetry/Trace.h"
#include "vm/Vm.h"

#include <functional>
#include <memory>
#include <unordered_set>

namespace pathfuzz {
namespace fuzz {

class Fuzzer;

struct FuzzerOptions {
  uint32_t MapSizeLog2 = 16;
  uint64_t Seed = 1;
  MutatorConfig Mut;
  vm::ExecOptions Exec;
  /// Harvest comparison operands into the mutation dictionary.
  bool UseCmpDict = true;
  /// PathAFL-style whole-program call-path hashing assist.
  bool PathAflAssist = false;
  /// Probability (percent) of splicing instead of plain havoc.
  uint32_t SplicePercent = 15;
  /// Queue-size sampling interval in executions (Fig. 2 / Table I data).
  uint32_t GrowthSampleInterval = 2048;
  size_t MaxCmpDict = 512;

  /// Checkpoint hook: OnCheckpoint fires at a safe point (the top of the
  /// scheduling loop) each time CheckpointBase + Execs crosses a multiple
  /// of CheckpointInterval. Purely observational — it never perturbs the
  /// schedule, so runs with and without checkpointing are byte-identical.
  /// CheckpointBase offsets the interval arithmetic for multi-instance
  /// campaigns (culling rounds, opportunistic phases) so checkpoints pace
  /// by campaign-cumulative executions. 0 disables.
  uint64_t CheckpointInterval = 0;
  uint64_t CheckpointBase = 0;
  std::function<void(const Fuzzer &)> OnCheckpoint;

  /// Cooperative preemption: consulted immediately after each OnCheckpoint
  /// delivery (the same safe point; never consulted without one). Returning
  /// true stops run() before the budget with preempted() latched, so the
  /// checkpoint that was just emitted captures exactly the state the run
  /// stopped in — resuming from it is byte-identical to never stopping. A
  /// hook that never returns true is schedule-neutral, like OnCheckpoint
  /// itself.
  std::function<bool()> StopRequest;

  /// Watchdog plumbing: run() additionally stops once Execs reaches this
  /// instance-local count (0 = no limit), letting a campaign driver convert
  /// a runaway instance into a recorded error instead of a wedged worker.
  uint64_t ExecHardLimit = 0;

  /// Telemetry: when enabled (and compiled in) the fuzzer owns a flight
  /// recorder + metrics registry + sample series. Purely observational —
  /// traced and untraced runs are byte-identical in campaign results.
  telemetry::TraceConfig Trace;

  /// Pre-decoded program image (vm/Image.h), the input Jit was compiled
  /// from. Must be built from the same instrumented module and shadow
  /// index the fuzzer is constructed over; may be shared read-only across
  /// instances. Without Jit the reference interpreter runs. The campaign
  /// drivers set this from the build cache when the JIT engine is enabled
  /// (see CampaignOptions::VmMode).
  const vm::ProgramImage *Image = nullptr;

  /// Compiled native program for the JIT engine (vm/jit/Jit.h). Must have
  /// been compiled from Image (the Vm asserts the pairing); may be shared
  /// read-only across instances like the image. Null runs the reference
  /// interpreter; non-null dispatches executions to compiled code with
  /// bit-identical results — only per-exec cost changes. Set by the
  /// campaign drivers from the build cache when the JIT engine is enabled
  /// (see CampaignOptions::VmMode and vm::jitEnabled).
  const vm::jit::JitProgram *Jit = nullptr;

  /// Read only by campaignbench/; removed in the next benchmark PR.
  bool Selective = false;
  const vm::ProgramImage *CheapImage = nullptr;
  const vm::jit::JitProgram *CheapJit = nullptr;

  /// Pluggable scheduling weight, the hook behind the `prescient` config
  /// (strategy/Campaign.h). Called by energyFor() with the entry being
  /// scheduled and the fuzzer's dense covered-shadow-edge bitmap (one
  /// byte per shadow edge id, nonzero = covered so far, crashing runs
  /// included); returns a weight in sixteenths, 16 = neutral. The perf
  /// score is scaled by W/16 and the energy clamp widens to [16, 1024]
  /// on this path. When null — every config except prescient — the
  /// energy arithmetic is exactly the historical one, so existing
  /// configs stay byte-identical. The hook must be a pure function of
  /// its arguments: it is not serialized into snapshots (the campaign
  /// driver re-installs it on resume), so any hidden state would break
  /// the byte-identical resume contract.
  std::function<uint32_t(const QueueEntry &E,
                         const std::vector<uint8_t> &CoveredShadowEdges)>
      ScheduleWeight;
};

struct FuzzStats {
  uint64_t Execs = 0;
  uint64_t Crashes = 0; ///< total crashing executions
  uint64_t Hangs = 0;   ///< total hung (step-limited) executions
  uint64_t LastFindExec = 0; ///< exec index of the last queue addition
  uint64_t QueueCycles = 0;  ///< completed full passes over the queue
  /// (execs, queue size) samples.
  std::vector<std::pair<uint64_t, uint64_t>> QueueGrowth;
};

/// A deduplicated crash (one per distinct stack hash).
struct CrashRecord {
  Input Data;
  vm::Fault TheFault;
  uint64_t StackHash = 0;
  uint64_t BugId = 0;
  uint64_t AtExec = 0;
};

/// A deduplicated hang (one per distinct input): the step-limited input
/// and how far it got. The Table V overhead discussion reads these off
/// CampaignResult instead of losing them to a bare counter.
struct HangRecord {
  Input Data;
  uint64_t Steps = 0;     ///< steps executed when the limit hit
  uint64_t AtExec = 0;    ///< exec index at which the hang was recorded
  uint64_t InputHash = 0; ///< content hash used for deduplication
};

/// AFL-style queue-cycle cursor. The cycle length is latched when a cycle
/// begins, so entries appended mid-cycle are first scheduled at the start
/// of the next cycle. (The previous cursor advanced modulo the *live*
/// queue size: when the queue grew mid-cycle it wrapped early, starving
/// newly added tail entries for an entire extra pass.)
struct CycleScheduler {
  size_t CurIdx = 0;
  size_t CycleEnd = 0; ///< queue size latched when the cycle began
  uint64_t Cycles = 0; ///< cycles started (AFL's queue_cycle)

  /// Next queue index to schedule; QueueSize must be nonzero and may only
  /// grow between calls.
  size_t next(size_t QueueSize) {
    if (CurIdx >= CycleEnd) {
      CurIdx = 0;
      CycleEnd = QueueSize;
      ++Cycles;
    }
    return CurIdx++;
  }

  /// Completed full passes over the queue.
  uint64_t completedCycles() const { return Cycles ? Cycles - 1 : 0; }
};

class Fuzzer {
public:
  /// M must already be instrumented; Report is the instrumentation report
  /// for it (per-function keys); Shadow indexes the *original* module.
  /// All three must outlive the Fuzzer.
  Fuzzer(const mir::Module &M, const instr::InstrumentReport &Report,
         const instr::ShadowEdgeIndex &Shadow, FuzzerOptions Opts);

  /// Execute a seed and add it to the corpus (unless it crashes, which is
  /// recorded instead — matching the paper's removal of crashing inputs
  /// from opportunistic seed queues).
  void addSeed(const Input &Data);

  /// Pre-load comparison-operand dictionary values (what AFL++'s cmplog
  /// re-mines from a seed queue when an instance restarts; the culling
  /// and opportunistic drivers carry the dictionary across instances).
  void seedDict(const std::vector<int64_t> &Values);

  /// Fuzz until the *cumulative* execution count reaches ExecBudget (or
  /// the ExecHardLimit watchdog stop, whichever comes first).
  void run(uint64_t ExecBudget);

  /// Adjust the watchdog stop after construction (campaign drivers set it
  /// per instance from the campaign-cumulative allowance).
  void setExecHardLimit(uint64_t Limit) { Opts.ExecHardLimit = Limit; }
  /// True when run() returned because of ExecHardLimit rather than the
  /// budget: the instance was declared runaway.
  bool hardLimitHit() const {
    return Opts.ExecHardLimit && Stats.Execs >= Opts.ExecHardLimit;
  }
  /// True when the last run() returned because StopRequest asked for a
  /// cooperative stop at a safe-point checkpoint (cleared at run() entry).
  bool preempted() const { return PreemptHit; }

  /// Serialize the complete mutable fuzzer state (corpus + metadata,
  /// virgin/coverage bookkeeping, shadow edge set, RNG stream position,
  /// stats, crash/hang/bug records, cmp dictionary, schedule cursor) into
  /// a versioned, checksummed blob. Defined in Snapshot.cpp.
  std::vector<uint8_t> snapshot() const;

  /// Restore state captured by snapshot() on a compatibly-configured
  /// fuzzer (same map size, same module/shadow index). Returns false —
  /// without touching any state — on envelope corruption, version
  /// mismatch, structural mismatch, or a payload that is malformed,
  /// non-canonical or out of range for this fuzzer; an accepted blob
  /// re-serializes byte-equal (same trace configuration). A restored
  /// fuzzer continues run() byte-identically to the instance that was
  /// snapshotted.
  bool restore(const std::vector<uint8_t> &Blob);

  /// Execute one input under this fuzzer's feedback without corpus or
  /// novelty bookkeeping (exposed for tools, calibration and tests).
  /// Returns a copy; the fuzz loop itself reads the Vm's result in place.
  vm::ExecResult executeRaw(const Input &Data, bool LogCmps = false) {
    return execute(Data, LogCmps);
  }

  Corpus &corpus() { return Q; }
  const Corpus &corpus() const { return Q; }
  const FuzzStats &stats() const { return Stats; }
  const std::vector<CrashRecord> &uniqueCrashes() const { return Crashes; }
  /// Deduplicated step-limited inputs (one record per distinct input).
  const std::vector<HangRecord> &uniqueHangs() const { return Hangs; }

  /// Number of distinct shadow edges covered so far (crashing runs
  /// included).
  uint32_t edgesCovered() const { return EdgeCoveredCount; }
  /// Sorted list of covered shadow edge IDs.
  std::vector<uint32_t> coveredEdgeList() const;

  /// Distinct ground-truth bugs found (the "unique bugs" measure).
  const std::unordered_set<uint64_t> &bugIds() const { return Bugs; }

  const std::vector<int64_t> &cmpDict() const { return CmpDict; }

  /// Snapshot-reset accounting of the underlying Vm (all zero on the
  /// interpreter).
  const vm::ResetStats &vmResetStats() const { return Machine.resetStats(); }

  /// The instance recorder; null when tracing is disabled or compiled out.
  telemetry::InstanceTrace *trace() { return Tr.get(); }
  const telemetry::InstanceTrace *trace() const { return Tr.get(); }

private:
  /// executeRaw without the copy: the Vm's own result, valid until the
  /// next execution.
  const vm::ExecResult &execute(const Input &Data, bool LogCmps);
  /// Process one executed input; returns true if it was added to the
  /// corpus. ForceAdd retains the input even without coverage novelty
  /// (seeds).
  bool processResult(const Input &Data, const vm::ExecResult &Res,
                     uint32_t Depth, bool ForceAdd = false);
  /// (Re)create the instance recorder in its freshly constructed state
  /// and cache its metric pointers.
  void startTrace();
  uint32_t energyFor(const QueueEntry &E) const;
  void sampleGrowth();
  void sampleTrace();

  const mir::Module &M;
  const instr::InstrumentReport &Report;
  FuzzerOptions Opts;
  vm::Vm Machine;
  cov::CoverageMap Trace;
  cov::VirginMap Virgin;
  Rng R;
  Mutator Mut;
  Corpus Q;
  FuzzStats Stats;

  std::vector<CrashRecord> Crashes;
  std::unordered_set<uint64_t> CrashHashes;
  std::unordered_set<uint64_t> Bugs;

  std::vector<HangRecord> Hangs;
  std::unordered_set<uint64_t> HangHashes;

  std::vector<uint8_t> EdgeCovered; ///< dense bitmap over shadow edge IDs
  uint32_t EdgeCoveredCount = 0;

  std::vector<int64_t> CmpDict;
  std::unordered_set<int64_t> CmpDictSet;

  CycleScheduler Sched;
  uint64_t AvgStepsNum = 0, AvgStepsDen = 0;
  /// run()'s scratch inputs, reused across executions so they keep their
  /// capacity: the entry being fuzzed and the current mutant. Never part
  /// of a snapshot.
  Input Base, Mutant;
  /// Latched when StopRequest stopped the last run() (see preempted()).
  bool PreemptHit = false;

  // Telemetry. The metric pointers are cached at construction so the hot
  // path never does a name lookup; all null when tracing is off.
  std::unique_ptr<telemetry::InstanceTrace> Tr;
  uint64_t *MExecs = nullptr;
  uint64_t *MHeapAllocs = nullptr;
  uint64_t *MHeapCells = nullptr;
  /// JIT-engine counter (bytes of global state the snapshot reset
  /// restores); null when tracing is off *or* no image is attached, so
  /// interpreter traces never grow a vm.fastpath.* metric family.
  uint64_t *MResetBytes = nullptr;
  /// JIT-only counters (registered only when Opts.Jit is set — the
  /// vm.jit.* family is engine-local like vm.fastpath.*); null when
  /// tracing is off or no compiled program is attached.
  uint64_t *MJitExecs = nullptr;
  uint64_t *MJitBailouts = nullptr;
  /// Cumulative Vm JIT-run stats already flushed into the counters.
  /// processResult adds only the delta, so counts survive
  /// checkpoint/resume exactly (the trace carries the counters; the
  /// rebuilt Vm restarts its stats from zero).
  uint64_t JitExecsSeen = 0;
  uint64_t JitBailSeen = 0;
  telemetry::Histogram *HSteps = nullptr;
  telemetry::Histogram *HInputSize = nullptr;
  telemetry::Histogram *HHeapCells = nullptr;
};

} // namespace fuzz
} // namespace pathfuzz

#endif // PATHFUZZ_FUZZ_FUZZER_H
