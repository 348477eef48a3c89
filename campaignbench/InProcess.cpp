//===- InProcess.cpp - paper_mix and loop_examples workloads --------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// Both in-process workloads are closed loops: each of the workers takes
// the next cell as soon as its previous campaign finishes, from one
// shared build cache warmed outside the timed region (the batch runner's
// job loop, so that set-up stays out of execs_per_s). A campaign is due
// when a worker takes it, so its latency is its own wall time. Passes
// over the cells repeat until the run's seconds are spent.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Probe.h"

#include "support/Rng.h"
#include "targets/Targets.h"

#include <atomic>
#include <thread>

namespace pathfuzz {
namespace cbench {

using strategy::CampaignResult;
using strategy::FuzzerKind;
using strategy::Subject;

namespace {

/// Exec budget per cell and campaigns per (program, kind). paper_mix
/// cells cost 3-31 us/exec; loop_examples cells 1.3-29 us/exec, with
/// tokens and rle dominating, so that workload runs 8 seeds of each cell
/// to average over how their campaigns unfold.
constexpr uint64_t PaperMixBudget = 10000;
constexpr unsigned PaperMixSeeds = 1;
constexpr uint64_t LoopExamplesBudget = 12000;
constexpr unsigned LoopExamplesSeeds = 8;

std::vector<Cell> makeCells(const std::string &Workload, uint64_t Seed,
                            const std::vector<Subject> &Subjects) {
  const bool Paper = Workload == "paper_mix";
  // loop_examples runs the first two: path and pcguard.
  const std::vector<FuzzerKind> Kinds(paperKinds().begin(),
                                      paperKinds().begin() + (Paper ? 5 : 2));
  Rng R(Seed);
  std::vector<Cell> Cells;
  for (unsigned Rep = 0; Rep < (Paper ? PaperMixSeeds : LoopExamplesSeeds);
       ++Rep)
    for (const Subject &S : Subjects)
      for (FuzzerKind K : Kinds) {
        Cell C;
        C.S = &S;
        C.Kind = K;
        C.Seed = 1 + R.below(1u << 30);
        C.Budget = Paper ? PaperMixBudget : LoopExamplesBudget;
        Cells.push_back(C);
      }
  return Cells;
}

} // namespace

Pass runPass(strategy::BuildCache &Cache, const std::vector<Cell> &Cells,
             bool Traced, SpanLog *Log) {
  Pass P;
  P.Runs.resize(Cells.size());
  std::atomic<size_t> Next{0};
  ScopedSpan PassSpan(Log, Traced ? "pass.traced" : "pass");
  const auto T0 = Clock::now();
  auto Worker = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Cells.size();) {
      CellRun &Run = P.Runs[I];
      Run.Start = secondsBetween(T0, Clock::now());
      strategy::CampaignOptions Opts = Cells[I].options();
      Opts.Trace.Enabled = Traced;
      strategy::CampaignError Err;
      CampaignResult R;
      {
        ScopedSpan Sp(Log, "strategy.runCampaign", PassSpan.id(), I + 1);
        R = strategy::runCampaign(*Cache.get(*Cells[I].S), Opts, &Err);
      }
      Run.End = secondsBetween(T0, Clock::now());
      Run.Failed = Err.Failed;
      Run.Execs = R.Execs;
      Run.Digest = resultDigest(strategy::serializeCampaignResult(R));
      if (Traced)
        Run.Result = std::move(R);
    }
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < workerThreads(); ++T)
    Pool.emplace_back(Worker);
  for (std::thread &T : Pool)
    T.join();
  return P;
}

std::vector<Pass> timedPasses(strategy::BuildCache &Cache,
                              const std::vector<Cell> &Cells, double Seconds,
                              unsigned MinPasses, bool Traced, SpanLog *Log) {
  std::vector<Pass> Passes;
  const auto T0 = Clock::now();
  while (Passes.size() < MinPasses ||
         secondsBetween(T0, Clock::now()) < Seconds)
    Passes.push_back(runPass(Cache, Cells, Traced, Log));
  return Passes;
}

double execsPerSecond(const std::vector<Pass> &Passes) {
  double Execs = 0, Busy = 0;
  for (const Pass &P : Passes)
    for (const CellRun &R : P.Runs) {
      Execs += static_cast<double>(R.Execs);
      Busy += R.End - R.Start;
    }
  return Busy > 0 ? Execs / Busy * workerThreads() : 0;
}

std::vector<double> cellSeconds(const std::vector<Pass> &Passes,
                                size_t NumCells) {
  std::vector<double> Out(NumCells);
  for (const Pass &P : Passes)
    for (size_t I = 0; I < NumCells; ++I)
      Out[I] += (P.Runs[I].End - P.Runs[I].Start) / Passes.size();
  return Out;
}

void checkPasses(const std::vector<Cell> &Cells,
                 const std::vector<std::string> &Ref,
                 const std::vector<Pass> &Passes, Outcome &O) {
  for (const Pass &P : Passes)
    for (size_t I = 0; I < Cells.size(); ++I) {
      ++O.Attempted;
      if (P.Runs[I].Failed) {
        ++O.Failed;
        O.Correct = false;
      } else if (P.Runs[I].Digest != Ref[I]) {
        O.Correct = false;
        std::fprintf(stderr, "identity mismatch: %s\n",
                     Cells[I].key().c_str());
      }
    }
}

Outcome runInProcess(const Args &A) {
  Outcome O;
  std::vector<Subject> Subjects;
  if (A.Workload == "paper_mix") {
    Subjects = targets::allSubjects();
  } else {
    Subjects = exampleSubjects(&O.Error);
    if (!O.Error.empty())
      return O;
  }
  const std::vector<Cell> Cells = makeCells(A.Workload, A.Seed, Subjects);
  std::unique_ptr<SpanLog> Log(A.Trace ? new SpanLog : nullptr);

  // Set-up takes milliseconds, so the run reports its median over many
  // cold builds.
  SetupCost Setup = medianSetup(Cells, 9, Log.get());
  if (!Setup.Ok) {
    O.Error = "a subject failed to build";
    return O;
  }

  O.Correct = true;
  if (A.Trace) {
    LayerLedger L = replayLedger(Cells, A, A.Seconds, Log.get(), O);
    L.addBuild(Setup);
    O.Metrics = L.metrics();
    if (!Log->write(A.RunDir + "/spans.jsonl"))
      std::fprintf(stderr, "warning: cannot write spans\n");
    return O;
  }

  strategy::BuildCache Cache;
  (void)warmBuilds(Cache, Cells, nullptr);
  // One untimed pass first, so allocator growth and first-touch page
  // faults are not charged to the measured passes.
  (void)runPass(Cache, Cells, false, nullptr);
  std::vector<Pass> Passes =
      timedPasses(Cache, Cells, A.Seconds, 3, false, nullptr);
  const double PeakRss = selfPeakRssMiB();

  checkPasses(Cells, referenceDigests(Cells), Passes, O);
  const double Eps = execsPerSecond(Passes);
  const std::vector<double> CampaignS = cellSeconds(Passes, Cells.size());
  std::fprintf(stderr,
               "%s seed %llu: %zu cells x %zu passes, %.0f execs/s, "
               "setup %.4f s\n",
               A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
               Cells.size(), Passes.size(), Eps, Setup.TotalS);
  O.Metrics = {{"execs_per_s", Eps, "execs/s"},
               {"setup_s", Setup.TotalS, "s"},
               {"peak_rss_mib", PeakRss, "MiB"},
               {"campaign_s_p50", percentile(CampaignS, 50), "s"},
               {"campaign_s_p90", percentile(CampaignS, 90), "s"}};
  return O;
}

} // namespace cbench
} // namespace pathfuzz
