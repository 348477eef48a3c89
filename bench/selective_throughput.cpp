//===- selective_throughput.cpp - Two-tier selective mode measurement ---------===//
//
// Part of the pathfuzz project.
//
// Measures what two-tier selective execution (probe-free cheap image +
// signature-gated replay; see docs/PERFORMANCE.md's cost-model section)
// buys over always-instrumented campaigns:
//
//  - end-to-end campaigns on every example subject
//    (examples/minilang/*.ml), alternating paired selective-on /
//    selective-off legs on a shared build, best-of-N execs/sec and the
//    median of per-pair speedups per subject;
//  - the serializeCampaignResult byte-identity check on every pair — the
//    mode's defining contract;
//  - the vm.selective.* counters (skips, replays, replay mismatches)
//    from one traced selective campaign per subject;
//  - and writes the whole record to BENCH_selective.json
//    (PATHFUZZ_BENCH_OUT overrides the path).
//
// The speedup is machine- and workload-shaped (replay-rate-dependent);
// the exit code reflects only the identity checks.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "strategy/BuildCache.h"
#include "vm/Image.h"

#include <cinttypes>

using namespace pathfuzz;
using namespace pathfuzz::bench;
using namespace pathfuzz::strategy;

namespace {

struct SubjectMeasurement {
  std::string Name;
  std::vector<LegStats> Legs; ///< selective off (leg 0), on
  uint64_t Skipped = 0;
  uint64_t Replays = 0;
  uint64_t ReplayMismatch = 0;

  bool identical() const { return Legs[0].identical() && Legs[1].identical(); }
};

SubjectMeasurement measureSubject(const Subject &S, const CampaignOptions &Base,
                                  uint32_t Reps) {
  SubjectMeasurement M;
  M.Name = S.Name;

  BuildCache Cache;
  std::shared_ptr<SubjectBuild> SB = Cache.get(S);

  CampaignOptions Off = Base;
  Off.Kind = FuzzerKind::Path;
  Off.Trace = telemetry::TraceConfig(); // timed legs run untraced
  Off.Selective = vm::SelectiveMode::Off;
  CampaignOptions On = Off;
  On.Selective = vm::SelectiveMode::On;

  // Warm both builds (full + cheap image) before timing anything.
  (void)runCampaign(*SB, On);
  M.Legs = timeLegs({campaignLeg(*SB, Off), campaignLeg(*SB, On)}, Reps);

  // One traced selective campaign for the vm.selective.* counters.
  CampaignOptions Traced = On;
  Traced.Trace.Enabled = true;
  CampaignResult R = runCampaign(*SB, Traced);
  if (R.Trace)
    for (const telemetry::InstanceRecord &I : R.Trace->Instances) {
      auto Get = [&I](const char *Name) -> uint64_t {
        auto It = I.Metrics.counters().find(Name);
        return It == I.Metrics.counters().end() ? 0 : It->second;
      };
      M.Skipped += Get("vm.selective.skipped");
      M.Replays += Get("vm.selective.replays");
      M.ReplayMismatch += Get("vm.selective.replay.mismatch");
    }
  return M;
}

} // namespace

int main() {
  BenchConfig C = BenchConfig::fromEnv();
  C.printHeader("Selective (two-tier) execution: campaign throughput vs "
                "always-instrumented");

  std::vector<Subject> Examples = loadExampleSubjects();
  const uint32_t Reps = std::max<uint32_t>(3, C.Runs);
  CampaignOptions Base = C.campaignOptions();

  std::vector<SubjectMeasurement> Subjects;
  bool Identical = true;
  bool MismatchFree = true;
  std::vector<double> Medians;
  for (const Subject &S : Examples) {
    Subjects.push_back(measureSubject(S, Base, Reps));
    Identical &= Subjects.back().identical();
    MismatchFree &= Subjects.back().ReplayMismatch == 0;
    Medians.push_back(Subjects.back().Legs[1].speedup());
  }
  const double CampaignSpeedupMedian = median(Medians);

  std::printf("example-subject campaigns (%" PRIu64 " execs, %u paired "
              "reps each):\n",
              C.Execs, Reps);
  std::printf("  %-9s %12s %12s %8s %8s %10s %9s %9s\n", "subject",
              "off exec/s", "on exec/s", "best", "median", "skipped",
              "replays", "mismatch");
  for (const SubjectMeasurement &M : Subjects)
    std::printf("  %-9s %12.0f %12.0f %7.2fx %7.2fx %10" PRIu64 " %9" PRIu64
                " %9" PRIu64 "\n",
                M.Name.c_str(), M.Legs[0].perSec(C.Execs),
                M.Legs[1].perSec(C.Execs), M.Legs[1].bestSpeedup(M.Legs[0]),
                M.Legs[1].speedup(), M.Skipped, M.Replays, M.ReplayMismatch);
  std::printf("  median campaign speedup across example subjects: %.2fx\n",
              CampaignSpeedupMedian);
  std::printf("selective == always-instrumented results: %s\n",
              Identical ? "yes" : "NO");
  std::printf("replay mismatches: %s\n", MismatchFree ? "none" : "PRESENT");

  std::vector<std::string> Rows;
  for (const SubjectMeasurement &M : Subjects)
    Rows.push_back(JsonFields()
                       .str("name", M.Name)
                       .num("off_execs_per_sec", M.Legs[0].perSec(C.Execs), 1)
                       .num("on_execs_per_sec", M.Legs[1].perSec(C.Execs), 1)
                       .num("speedup_best", M.Legs[1].bestSpeedup(M.Legs[0]))
                       .num("speedup_median", M.Legs[1].speedup())
                       .num("skipped", M.Skipped)
                       .num("replays", M.Replays)
                       .num("replay_mismatch", M.ReplayMismatch)
                       .flag("identical", M.identical())
                       .object());
  const bool Pass = Identical && MismatchFree;
  JsonFields F;
  F.raw("subjects", jsonArray(Rows))
      .num("campaign_execs", C.Execs)
      .num("reps", Reps)
      .num("campaign_speedup_median", CampaignSpeedupMedian)
      .flag("results_identical", Pass);
  return writeRecord("selective_throughput", "BENCH_selective.json", F, Pass);
}
