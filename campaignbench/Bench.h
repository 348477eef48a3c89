//===- Bench.h - Campaign benchmark shared declarations ---------*- C++ -*-===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_CAMPAIGNBENCH_BENCH_H
#define PATHFUZZ_CAMPAIGNBENCH_BENCH_H

#include "strategy/BuildCache.h"
#include "strategy/Campaign.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pathfuzz {
namespace cbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// The pathfuzz-serve binary the traced run's service probe starts.
  std::string ServeBin;
  /// Scratch directory of this run (stores, sockets, span file).
  std::string RunDir;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What one run reports: the contract's last JSON line.
struct Outcome {
  bool Correct = false;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Set when the run could not execute at all (no result is printed).
  std::string Error;
};

void printOutcome(const Outcome &O);

//===----------------------------------------------------------------------===//
// Spans: the traced run's in-memory record of the benchmark's calls into
// the program's public entry points.
//===----------------------------------------------------------------------===//

class SpanLog {
public:
  SpanLog();
  /// Opens a span and returns its id (0 when Log is null, i.e. untraced).
  static uint64_t open(SpanLog *Log, const std::string &Name, uint64_t Parent,
                       uint64_t Campaign);
  static void close(SpanLog *Log, uint64_t Id);
  /// One JSON object per span: name, id, parent, campaign, start/end in
  /// seconds since the log was created.
  bool write(const std::string &Path) const;

private:
  struct Span {
    std::string Name;
    uint64_t Parent = 0;
    uint64_t Campaign = 0;
    double Start = 0;
    double End = -1;
  };
  Clock::time_point T0;
  mutable std::mutex M;
  std::vector<Span> Spans; // id = index + 1
};

/// RAII span; a no-op when the log is null.
class ScopedSpan {
public:
  ScopedSpan(SpanLog *Log, const std::string &Name, uint64_t Parent = 0,
             uint64_t Campaign = 0)
      : Log(Log), Id(SpanLog::open(Log, Name, Parent, Campaign)) {}
  ~ScopedSpan() { SpanLog::close(Log, Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  uint64_t id() const { return Id; }

private:
  SpanLog *Log;
  uint64_t Id;
};

//===----------------------------------------------------------------------===//
// Cells: one campaign of a workload.
//===----------------------------------------------------------------------===//

struct Cell {
  const strategy::Subject *S = nullptr;
  strategy::FuzzerKind Kind = strategy::FuzzerKind::Pcguard;
  uint64_t Seed = 1;
  uint64_t Budget = 0;
  /// The submitting tenant (service probe only).
  std::string Tenant;

  /// The service id's cell part: subject-kind-sSEED-bBUDGET, prefixed by
  /// "tenant--" for served cells.
  std::string key() const;
  strategy::CampaignOptions options() const;
  /// The pathfuzz-serve submit request line for this cell (no newline).
  std::string submitLine() const;
};

/// The fuzzer kinds of the paper's evaluation plus prescient: path,
/// pcguard, cull, opp, prescient (in that order).
const std::vector<strategy::FuzzerKind> &paperKinds();

/// The example programs of examples/minilang, seeded the way
/// bench/selective_throughput seeds them.
std::vector<strategy::Subject> exampleSubjects(std::string *Err);

/// Feedback modes a kind's driver instruments for.
std::vector<instr::Feedback> feedbackModes(strategy::FuzzerKind K);

/// Build-layer costs of warming a cache for a set of cells.
struct SetupCost {
  double TotalS = 0;
  double CompileMs = 0;
  double InstrumentMs = 0;
  double ReachMs = 0;
  uint64_t JitCodeBytes = 0;
  /// Whether every cell's builds succeeded.
  bool Ok = true;
};

/// Compile, instrument (image + cheap image + JIT per feedback mode) and
/// compute reachability for every cell, on the given cache.
SetupCost warmBuilds(strategy::BuildCache &Cache, const std::vector<Cell> &Cells,
                     SpanLog *Log);

/// Median of warmBuilds over fresh caches, at least MinReps of them and
/// at least half a second's worth (the setup_s metric).
SetupCost medianSetup(const std::vector<Cell> &Cells, unsigned MinReps,
                      SpanLog *Log);

/// Digest of a serializeCampaignResult blob.
std::string resultDigest(const std::vector<uint8_t> &Blob);

/// Reference digests: each cell run on the reference interpreter with
/// selective execution off, through the batch runner. Empty string for a
/// cell whose reference campaign failed.
std::vector<std::string> referenceDigests(const std::vector<Cell> &Cells);

/// Percentile (0..100) of a sample by the nearest-rank rule.
double percentile(std::vector<double> V, double P);
double median(std::vector<double> V);

/// Peak resident set of this process, MiB.
double selfPeakRssMiB();

/// Worker threads for the workload (the machine's cores, at most 4).
unsigned workerThreads();

//===----------------------------------------------------------------------===//
// In-process passes: every cell once, on a pool of workerThreads().
//===----------------------------------------------------------------------===//

struct CellRun {
  double Start = 0; ///< seconds since the pass started
  double End = 0;
  bool Failed = false;
  uint64_t Execs = 0;
  std::string Digest;
  strategy::CampaignResult Result; ///< kept only in traced passes
};

struct Pass {
  std::vector<CellRun> Runs; ///< indexed like the cells
};

/// One pass; Traced turns on the program's telemetry for every campaign
/// and keeps the results.
Pass runPass(strategy::BuildCache &Cache, const std::vector<Cell> &Cells,
             bool Traced, SpanLog *Log);

/// Passes until Seconds are spent (at least MinPasses).
std::vector<Pass> timedPasses(strategy::BuildCache &Cache,
                              const std::vector<Cell> &Cells, double Seconds,
                              unsigned MinPasses, bool Traced, SpanLog *Log);

/// Campaign execs per second of the worker pool: all execs over all
/// campaign wall time, times the workers running side by side. Summing
/// campaign times keeps a pass's tail (the last cells on an otherwise
/// idle pool) out of the figure, and pooling every pass averages over
/// the machine's moment-to-moment speed.
double execsPerSecond(const std::vector<Pass> &Passes);

/// Each cell's mean wall time over the passes.
std::vector<double> cellSeconds(const std::vector<Pass> &Passes,
                                size_t NumCells);

/// Count every campaign of the passes as attempted; fail the outcome on a
/// failed campaign or a digest that differs from the reference.
void checkPasses(const std::vector<Cell> &Cells,
                 const std::vector<std::string> &Ref,
                 const std::vector<Pass> &Passes, Outcome &O);

Outcome runInProcess(const Args &A);

} // namespace cbench
} // namespace pathfuzz

#endif // PATHFUZZ_CAMPAIGNBENCH_BENCH_H
