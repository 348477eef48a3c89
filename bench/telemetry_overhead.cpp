//===- telemetry_overhead.cpp - Telemetry cost measurement --------------------===//
//
// Part of the pathfuzz project.
//
// Measures what the telemetry subsystem costs, backing the observability
// section's overhead claims:
//
//  - per-event micro cost: PF_TRACE_EVENT against a null recorder (what
//    every untraced execution pays — one branch) vs against a live ring,
//    and one Histogram::observe (a traced exec pays a couple);
//  - end-to-end: a traced vs untraced path campaign on a shared build,
//    best-of-N wall time and the median of paired-rep overheads, plus
//    the byte-identity check on every rep that tracing is purely
//    observational;
//  - and writes the whole record, with per-config end states from the
//    traced campaigns, to BENCH_telemetry.json (PATHFUZZ_BENCH_OUT
//    overrides the path).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "strategy/BuildCache.h"

#include <cinttypes>

using namespace pathfuzz;
using namespace pathfuzz::bench;
using namespace pathfuzz::strategy;

namespace {

/// ns/op of PF_TRACE_EVENT through a pointer the optimizer cannot
/// constant-fold. Tr == nullptr measures the disabled (untraced) branch.
double traceEventNs(telemetry::InstanceTrace *Tr, uint64_t Iters) {
  telemetry::InstanceTrace *volatile Slot = Tr;
  return double(timeMicros([&] {
           for (uint64_t I = 0; I < Iters; ++I) {
             telemetry::InstanceTrace *P = Slot;
             (void)P; // PF_TRACE_EVENT is empty under PATHFUZZ_NO_TELEMETRY
             PF_TRACE_EVENT(P, telemetry::EventKind::ExecCompleted, I, 64,
                            1000, 0);
           }
         })) *
         1000.0 / double(Iters);
}

/// ns/op of Histogram::observe over a spread of values, through a pointer
/// the optimizer cannot constant-fold.
double histogramObserveNs(uint64_t Iters) {
  telemetry::Histogram H;
  telemetry::Histogram *volatile Slot = &H;
  uint64_t V = 1;
  return double(timeMicros([&] {
           for (uint64_t I = 0; I < Iters; ++I) {
             Slot->observe(V);
             V = V * 2862933555777941757ULL + 3037000493ULL; // cheap LCG
           }
         })) *
         1000.0 / double(Iters);
}

} // namespace

int main() {
  BenchConfig C = BenchConfig::fromEnv();
  C.printHeader("Telemetry overhead: traced vs untraced campaigns");
  const Subject &S = C.timedSubject();

  // Per-event micro cost first; the disabled case is the only cost an
  // untraced campaign ever sees.
  const double DisabledNs = traceEventNs(nullptr, 1u << 26);
  telemetry::TraceConfig RingCfg;
  RingCfg.Enabled = true;
  telemetry::InstanceTrace MicroTrace(RingCfg);
  const double EnabledNs = traceEventNs(&MicroTrace, 1u << 24);
  const double ObserveNs = histogramObserveNs(1u << 24);

  // End-to-end: same pre-compiled build, untraced and traced legs. The
  // reported overhead is the MEDIAN of the per-pair ratios — best-of-N
  // on each side separately lets a single lucky outlier flip the sign
  // on a noisy box. Tracing must not perturb the campaign, so every
  // rep's serialized results must compare equal.
  BuildCache Cache;
  std::shared_ptr<SubjectBuild> B = Cache.get(S);

  CampaignOptions Untraced = C.campaignOptions();
  Untraced.Kind = FuzzerKind::Path;
  Untraced.Trace = telemetry::TraceConfig(); // baseline ignores the env
  CampaignOptions Traced = Untraced;
  Traced.Trace.Enabled = true;

  const uint32_t Reps = std::max<uint32_t>(5, C.Runs);
  (void)runCampaign(*B, Untraced); // warm caches before timing anything
  std::vector<LegStats> Legs =
      timeLegs({campaignLeg(*B, Untraced), campaignLeg(*B, Traced)}, Reps);
  const bool Identical = Legs[0].identical() && Legs[1].identical();
  const double OverheadPct = Legs[1].overheadPct();

  // One traced pcguard campaign joins the record so the configs table
  // has both feedback families.
  CampaignOptions Pcguard = Traced;
  Pcguard.Kind = FuzzerKind::Pcguard;
  CampaignResult PcR = runCampaign(*B, Pcguard);

  std::printf("subject: %s (%" PRIu64 " execs, %u paired reps)\n",
              S.Name.c_str(), C.Execs, Reps);
  std::printf("trace event, disabled: %8.2f ns/op\n", DisabledNs);
  std::printf("trace event, enabled:  %8.2f ns/op\n", EnabledNs);
  std::printf("histogram observe:     %8.2f ns/op\n", ObserveNs);
  std::printf("campaign, untraced:    %8" PRIu64 " us (best)\n",
              Legs[0].BestMicros);
  std::printf("campaign, traced:      %8" PRIu64 " us (best)\n",
              Legs[1].BestMicros);
  std::printf("overhead, median of paired reps: %+.2f%%\n", OverheadPct);
  std::printf("traced == untraced results: %s\n", Identical ? "yes" : "NO");

  JsonFields F;
  F.str("subject", S.Name)
      .num("execs", C.Execs)
      .num("reps", Reps)
      .num("trace_event_disabled_ns", DisabledNs)
      .num("trace_event_enabled_ns", EnabledNs)
      .num("histogram_observe_ns", ObserveNs)
      .num("campaign_untraced_micros", Legs[0].BestMicros)
      .num("campaign_traced_micros", Legs[1].BestMicros)
      .num("overhead_pct", OverheadPct)
      .flag("results_identical", Identical);
  return writeRecord("telemetry_overhead", "BENCH_telemetry.json", F,
                     Identical, {&Legs[1].Result, &PcR});
}
