//===- Batch.h - Parallel campaign batch runner -----------------*- C++ -*-===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// The paper's evaluation fans out 18 subjects x 7 fuzzer configurations x
// N trials, all mutually independent. runCampaigns() executes such a
// batch across a work-stealing thread pool, sharing subject builds (see
// BuildCache.h) so each subject is compiled once and instrumented once
// per feedback configuration instead of once per trial.
//
// Determinism guarantee: every campaign's randomness flows from its own
// seed through its own Rng, and shared builds are bit-identical to fresh
// ones, so Results[i] is byte-identical to the serial
// runCampaign(*Jobs[i].S, Jobs[i].Opts) — at any thread count, in any
// completion order. The table drivers rely on this to emit output
// independent of PATHFUZZ_JOBS.
//
// Fault tolerance: one failing trial no longer costs the batch. A job
// whose build fails, whose dispatch is rejected, or whose campaign trips
// the exec watchdog is recorded in its BatchJobStatus (with the full
// diagnostic) and every other job completes byte-identically to a
// fault-free batch. Transient faults — the deterministic fault-injection
// harness marks its faults transient by default — are retried by
// replaying the trial from scratch, up to PATHFUZZ_JOB_ATTEMPTS times
// (default 3); the replay is deterministic, so a retry that clears the
// fault reproduces exactly the result the fault interrupted.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_STRATEGY_BATCH_H
#define PATHFUZZ_STRATEGY_BATCH_H

#include "strategy/Campaign.h"

namespace pathfuzz {
namespace strategy {

/// One (subject, configuration) campaign to run. Opts carries the fuzzer
/// kind and the trial's RNG seed; S must outlive the batch call.
struct BatchJob {
  const Subject *S = nullptr;
  CampaignOptions Opts;
};

/// Per-job outcome: Ok jobs hold their result in the corresponding
/// Results slot; failed jobs keep the diagnostic here instead of taking
/// the process down.
struct BatchJobStatus {
  bool Ok = true;
  /// The campaign exec watchdog stopped a runaway trial.
  bool TimedOut = false;
  /// A graceful drain (SIGTERM/SIGINT, see support/Signal.h) stopped this
  /// job: either it was preempted at its next safe-point checkpoint (its
  /// durable store, when configured, resumes it exactly) or it was never
  /// started. Not a failure in the JobsFailed sense, but Ok stays false —
  /// the Results slot holds at most a partial result.
  bool Drained = false;
  /// Campaign attempts made (0 when the job could not be dispatched;
  /// >1 when transient faults were retried).
  uint32_t Attempts = 0;
  /// Fault-injection site behind the failure, when any (empty for
  /// genuine errors).
  std::string FaultSite;
  /// Full diagnostic of the last failed attempt (compile message,
  /// injected-fault description, watchdog note). Empty when Ok.
  std::string Error;
};

/// Bookkeeping from one runCampaigns() call.
struct BatchStats {
  size_t Threads = 1;             ///< worker threads used
  size_t SubjectsCompiled = 0;    ///< front-end compilations performed
  size_t ModulesInstrumented = 0; ///< instrumentation passes performed
  size_t ImagesPredecoded = 0;    ///< VM images decoded (JIT input)
  size_t ImageCacheHits = 0;      ///< image reuses across trials
  size_t JobsFailed = 0;          ///< jobs that exhausted their attempts
  size_t JobsRetried = 0;         ///< jobs that needed more than one attempt
  size_t JobsDrained = 0;         ///< jobs stopped by a graceful drain
  size_t DispatchRetries = 0;     ///< pool submissions retried after a
                                  ///< rejected dispatch
};

/// Deterministic per-trial seed derivation, shared by the serial and the
/// batch evaluation paths so their campaigns are interchangeable.
uint64_t trialSeed(uint64_t BaseSeed, FuzzerKind K, uint32_t Trial);

/// The worker count runCampaigns() will use for the given override
/// (0 = PATHFUZZ_JOBS when set, else the hardware concurrency).
size_t resolvedJobCount(size_t Override = 0);

/// Run every job, fanning out across a work-stealing thread pool.
/// Results[i] is the outcome of Jobs[i], byte-identical to the serial
/// runner for the same options regardless of thread count. Failed jobs
/// leave their Results slot empty; pass Statuses to see which and why.
/// Jobs without an explicit WatchdogExecLimit get a generous default
/// (several times the exec budget) so a runaway campaign becomes a
/// recorded error instead of a wedged worker.
///
/// Graceful shutdown: the first SIGTERM/SIGINT sets the process drain
/// flag (support/Signal.h, handlers installed here once per process).
/// In-flight jobs that checkpoint stop at their next safe point with
/// state persisted to their store (when configured); jobs not yet
/// started are skipped. Both are reported as Drained in their status.
std::vector<CampaignResult> runCampaigns(
    const std::vector<BatchJob> &Jobs, size_t ThreadsOverride = 0,
    BatchStats *Stats = nullptr, std::vector<BatchJobStatus> *Statuses = nullptr);

} // namespace strategy
} // namespace pathfuzz

#endif // PATHFUZZ_STRATEGY_BATCH_H
