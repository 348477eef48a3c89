//===- prescient_throughput.cpp - Frontier-directed scheduling measurement ----===//
//
// Part of the pathfuzz project.
//
// Measures what the prescient configuration (static interprocedural
// reachability driving queue energy; see docs/CONFIG.md and DESIGN.md's
// frontier-scoring formula) costs and buys relative to its pcguard
// baseline:
//
//  - a standard evaluation (REPRO_RUNS x REPRO_EXECS per pair) of
//    pcguard vs prescient on the bundled subjects: cumulative unique
//    bugs, cumulative edge coverage and median queue size per subject;
//  - paired prescient / pcguard timing legs on a shared BuildCache,
//    best-of-N execs/sec per subject and the median per-pair overhead
//    ratio (the price of frontierScore() per energy assignment);
//  - the determinism contract: every rep of each leg is byte-identical
//    under serializeCampaignResult to that leg's first rep;
//  - the ReachabilitySummary cache counters — one build per subject,
//    every further trial a hit;
//  - and writes the whole record to BENCH_prescient.json
//    (PATHFUZZ_BENCH_OUT overrides the path).
//
// The overhead is workload-shaped (frontier scoring runs once per queue
// scheduling decision, not per exec); the exit code reflects only the
// determinism checks.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "strategy/BuildCache.h"

#include <cinttypes>

using namespace pathfuzz;
using namespace pathfuzz::bench;
using namespace pathfuzz::strategy;

namespace {

struct SubjectMeasurement {
  std::string Name;
  size_t BugsPcguard = 0;
  size_t BugsPrescient = 0;
  size_t EdgesPcguard = 0;
  size_t EdgesPrescient = 0;
  double QueuePrescient = 0.0;
  std::vector<LegStats> Legs; ///< pcguard (leg 0), prescient

  /// Prescient time / pcguard time, median of the paired reps.
  double overhead() const { return Legs[1].TimeRatio; }
  bool deterministic() const {
    return Legs[0].Deterministic && Legs[1].Deterministic;
  }
};

} // namespace

int main() {
  BenchConfig C = BenchConfig::fromEnv();
  C.printHeader("Prescient (frontier-directed) scheduling: findings and "
                "throughput vs pcguard");

  const std::vector<FuzzerKind> Kinds = {FuzzerKind::Pcguard,
                                         FuzzerKind::Prescient};
  Evaluation E = runEvaluation(C, Kinds);

  const uint32_t Reps = std::max<uint32_t>(3, C.Runs);
  CampaignOptions Pc = C.campaignOptions();
  Pc.Kind = FuzzerKind::Pcguard;
  Pc.Trace = telemetry::TraceConfig(); // timed legs run untraced
  CampaignOptions Pre = Pc;
  Pre.Kind = FuzzerKind::Prescient;

  // One shared cache for the timing legs: the reachability counters at
  // the end prove every prescient trial reused one summary per subject.
  BuildCache Cache;
  std::vector<SubjectMeasurement> Subjects;
  bool Deterministic = true;
  std::vector<double> Overheads;
  for (const Subject &S : C.Subjects) {
    SubjectMeasurement M;
    M.Name = S.Name;
    const RunSet &RPc = E.at(S.Name, FuzzerKind::Pcguard);
    const RunSet &RPre = E.at(S.Name, FuzzerKind::Prescient);
    M.BugsPcguard = RPc.cumulativeBugs().size();
    M.BugsPrescient = RPre.cumulativeBugs().size();
    M.EdgesPcguard = RPc.cumulativeEdges().size();
    M.EdgesPrescient = RPre.cumulativeEdges().size();
    M.QueuePrescient = RPre.medianQueueSize();

    // Paired timing legs on a shared build; the two kinds fuzz
    // differently, so only each leg's own reps must agree byte for byte.
    std::shared_ptr<SubjectBuild> SB = Cache.get(S);
    (void)runCampaign(*SB, Pre); // warm image + reachability summary
    M.Legs = timeLegs({campaignLeg(*SB, Pc), campaignLeg(*SB, Pre)}, Reps);
    Deterministic &= M.deterministic();
    Overheads.push_back(M.overhead());
    Subjects.push_back(std::move(M));
  }
  const double OverheadMedian = median(Overheads);

  std::printf("pcguard vs prescient (%" PRIu64 " execs, %u paired reps "
              "each):\n",
              C.Execs, Reps);
  std::printf("  %-10s %5s %5s %7s %7s %7s %12s %12s %9s\n", "subject",
              "bugs", "bugs+", "edges", "edges+", "queue+", "pc exec/s",
              "pre exec/s", "overhead");
  for (const SubjectMeasurement &M : Subjects)
    std::printf("  %-10s %5zu %5zu %7zu %7zu %7.0f %12.0f %12.0f %8.2fx\n",
                M.Name.c_str(), M.BugsPcguard, M.BugsPrescient,
                M.EdgesPcguard, M.EdgesPrescient, M.QueuePrescient,
                M.Legs[0].perSec(C.Execs), M.Legs[1].perSec(C.Execs),
                M.overhead());
  std::printf("  median scheduling overhead across subjects: %.2fx\n",
              OverheadMedian);
  std::printf("reachability summaries built %zu / cache hits %zu\n",
              Cache.reachabilitySummaries(), Cache.reachabilityCacheHits());
  std::printf("prescient campaigns deterministic: %s\n",
              Deterministic ? "yes" : "NO");

  std::vector<std::string> Rows;
  for (const SubjectMeasurement &M : Subjects)
    Rows.push_back(
        JsonFields()
            .str("name", M.Name)
            .num("bugs_pcguard", M.BugsPcguard)
            .num("bugs_prescient", M.BugsPrescient)
            .num("edges_pcguard", M.EdgesPcguard)
            .num("edges_prescient", M.EdgesPrescient)
            .num("queue_prescient", M.QueuePrescient, 1)
            .num("pcguard_execs_per_sec", M.Legs[0].perSec(C.Execs), 1)
            .num("prescient_execs_per_sec", M.Legs[1].perSec(C.Execs), 1)
            .num("overhead_median", M.overhead())
            .flag("deterministic", M.deterministic())
            .object());
  JsonFields F;
  F.raw("subjects", jsonArray(Rows))
      .num("campaign_execs", C.Execs)
      .num("reps", Reps)
      .num("overhead_median", OverheadMedian)
      .num("reachability_builds", Cache.reachabilitySummaries())
      .num("reachability_hits", Cache.reachabilityCacheHits())
      .flag("deterministic", Deterministic);
  return writeRecord("prescient_throughput", "BENCH_prescient.json", F,
                     Deterministic);
}
