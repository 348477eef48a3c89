//===- serve_throughput.cpp - Campaign service cost measurement ---------------===//
//
// Part of the pathfuzz project.
//
// Prices the service daemon's three taxes on top of the campaigns it
// runs, and proves the multiplexing loses nothing:
//
//  - submission latency: protocol round-trip micros over a live unix
//    socket (submit + the idempotent resubmit, separately — the second
//    is the pure protocol floor, the first includes the durable
//    store-open admission write);
//  - scheduling throughput: campaigns/sec at 1, 8, 64 and 512 concurrent
//    campaigns spread across up to 8 tenants, with the zero-lost-work
//    check at the top scale — every campaign Done, every exec budget
//    fully consumed, every result byte-identical to an uninterrupted
//    plain runCampaigns() of the same cells;
//  - preemption overhead: the same 16-campaign workload with slices of 1
//    checkpoint (maximum interleaving) vs effectively-infinite slices
//    (run-to-completion), vs the plain batch runner without the service
//    or the store at all, as rotating paired legs.
//
// Writes the record to BENCH_serve.json (PATHFUZZ_BENCH_OUT overrides).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "serve/Protocol.h"
#include "serve/Scheduler.h"
#include "serve/Server.h"

#include <cinttypes>
#include <filesystem>
#include <thread>

#include <unistd.h>

using namespace pathfuzz;
using namespace pathfuzz::bench;
using namespace pathfuzz::serve;
using strategy::BatchJob;
using strategy::CampaignOptions;
using strategy::CampaignResult;
using strategy::Subject;
namespace fs = std::filesystem;

namespace {

uint64_t counterOf(const telemetry::MetricsRegistry &Snap, const char *Name) {
  auto It = Snap.counters().find(Name);
  return It == Snap.counters().end() ? 0 : It->second;
}

std::string freshRoot(const char *Tag) {
  std::string Root = (fs::temp_directory_path() /
                      ("pathfuzz-bench-serve-" + std::string(Tag) + "-" +
                       std::to_string(::getpid())))
                         .string();
  std::error_code Ec;
  fs::remove_all(Root, Ec);
  return Root;
}

/// The options the scheduler derives from one submission — the reference
/// side of the zero-lost-work identity check.
CampaignOptions cellOpts(uint64_t Seed, uint64_t Budget, uint64_t Interval) {
  CampaignOptions Opts;
  Opts.ExecBudget = Budget;
  Opts.Seed = Seed;
  Opts.CheckpointInterval = Interval;
  Opts.CheckpointSink = [](const std::vector<uint8_t> &) {};
  return Opts;
}

struct ScaleResult {
  size_t Campaigns = 0;
  size_t Tenants = 0;
  uint64_t Micros = 0;
  uint64_t Preempted = 0;
  uint64_t Slices = 0;
  bool AllDone = false;
};

} // namespace

int main() {
  BenchConfig C = BenchConfig::fromEnv();
  C.printHeader("Campaign service: submission latency, scheduling "
                "throughput, preemption overhead");

  const Subject &S = C.Subjects.front();
  // Small per-campaign budgets: the top scale runs 512 of them, and the
  // daemon's own cost is what's being priced, not the campaigns'.
  const uint64_t Budget = std::max<uint64_t>(300, C.Execs / 32);
  const uint64_t Interval = std::max<uint64_t>(100, Budget / 3);

  //===------------------------------------------------------------------===//
  // Leg 1: submission latency over a live socket.
  //===------------------------------------------------------------------===//
  uint64_t SubmitMedian = 0, ResubmitMedian = 0, StatusMedian = 0;
  {
    SchedulerConfig SC;
    SC.Root = freshRoot("latency");
    SC.CheckpointInterval = Interval;
    Scheduler Sched(SC, {S});
    ServerConfig VC;
    VC.SocketPath = (fs::temp_directory_path() /
                     ("pf-bench-" + std::to_string(::getpid()) + ".sock"))
                        .string();
    Server Srv(VC, Sched);
    std::string Err;
    if (!Srv.start(&Err)) {
      std::fprintf(stderr, "serve_throughput: %s\n", Err.c_str());
      return 1;
    }
    std::thread ServerThread([&Srv] { Srv.run(); });

    Client Cl;
    if (!Cl.connect(VC.SocketPath, &Err)) {
      std::fprintf(stderr, "serve_throughput: %s\n", Err.c_str());
      return 1;
    }
    auto TimedRequest = [&Cl](const std::string &Line) {
      std::string Reply;
      bool Ok = false;
      uint64_t Dt = timeMicros([&] { Ok = Cl.request(Line, Reply); });
      return std::make_pair(Ok, Dt);
    };
    const size_t Reps = 64;
    std::vector<uint64_t> Submit, Resubmit, Status;
    for (size_t I = 0; I < Reps; ++I) {
      std::string Req = "{\"verb\":\"submit\",\"tenant\":\"lat\",\"subject\":\"" +
                        S.Name + "\",\"seed\":" + std::to_string(1000 + I) +
                        ",\"budget\":" + std::to_string(Budget) +
                        ",\"trace\":0}";
      auto First = TimedRequest(Req);  // pays the durable store-open
      auto Second = TimedRequest(Req); // pure protocol floor (idempotent)
      std::string Id = campaignId("lat", S.Name, "pcguard", 1000 + I, Budget);
      auto St = TimedRequest("{\"verb\":\"status\",\"id\":\"" + Id + "\"}");
      if (First.first)
        Submit.push_back(First.second);
      if (Second.first)
        Resubmit.push_back(Second.second);
      if (St.first)
        Status.push_back(St.second);
    }
    SubmitMedian = static_cast<uint64_t>(median(Submit));
    ResubmitMedian = static_cast<uint64_t>(median(Resubmit));
    StatusMedian = static_cast<uint64_t>(median(Status));

    Srv.stop();
    ServerThread.join();
    Sched.drain();
    std::error_code Ec;
    fs::remove_all(SC.Root, Ec);
  }
  std::printf("submission latency over the socket (median of 64):\n");
  std::printf("  submit (admission + store open): %6" PRIu64 " us\n",
              SubmitMedian);
  std::printf("  resubmit (idempotent, no store): %6" PRIu64 " us\n",
              ResubmitMedian);
  std::printf("  status:                          %6" PRIu64 " us\n",
              StatusMedian);

  //===------------------------------------------------------------------===//
  // Leg 2: campaigns/sec at 1 / 8 / 64 / 512 concurrent campaigns, the
  // top scale doubling as the zero-lost-work drill.
  //===------------------------------------------------------------------===//
  // References for the identity check: results depend on the cell
  // (subject, fuzzer, seed, budget), not the tenant, so 512 campaigns
  // across 8 tenants need only 64 distinct references.
  const size_t MaxScale = 512, TenantFan = 8;
  const size_t DistinctSeeds = MaxScale / TenantFan;
  std::vector<std::vector<uint8_t>> Refs(DistinctSeeds);
  {
    std::vector<BatchJob> Jobs(DistinctSeeds);
    for (size_t I = 0; I < DistinctSeeds; ++I) {
      Jobs[I].S = &S;
      Jobs[I].Opts = cellOpts(C.Seed + I, Budget, Interval);
    }
    std::vector<CampaignResult> Results = strategy::runCampaigns(Jobs);
    for (size_t I = 0; I < DistinctSeeds; ++I)
      Refs[I] = strategy::serializeCampaignResult(Results[I]);
  }

  std::vector<ScaleResult> Scales;
  bool ZeroLostWork = true;
  for (size_t N : {size_t(1), size_t(8), size_t(64), MaxScale}) {
    SchedulerConfig SC;
    SC.Root = freshRoot("scale");
    SC.CheckpointInterval = Interval;
    // 1-checkpoint slices: short bench campaigns would otherwise finish
    // inside the default slice and never preempt, and the zero-lost-work
    // check below is only interesting under real preemption churn.
    SC.SliceCheckpoints = 1;
    Scheduler Sched(SC, {S});

    const size_t Tenants = std::min(N, TenantFan);
    ScaleResult R;
    R.Campaigns = N;
    R.Tenants = Tenants;
    std::string Failure;
    R.Micros = timeMicros([&] {
      for (size_t I = 0; I < N && Failure.empty(); ++I) {
        std::string Id, Err;
        bool Existing = false;
        if (!Sched.submit("tenant" + std::to_string(I % Tenants), S.Name,
                          "pcguard", C.Seed + I / Tenants, Budget,
                          /*Trace=*/false, Id, Existing, Err))
          Failure = "submit: " + Err;
      }
      if (Failure.empty() && !Sched.waitIdle(600000))
        Failure = "waitIdle timed out";
    });
    if (!Failure.empty()) {
      std::fprintf(stderr, "serve_throughput: %s\n", Failure.c_str());
      return 1;
    }
    telemetry::MetricsRegistry Snap = Sched.statsSnapshot();
    R.Preempted = counterOf(Snap, "serve.preempted");
    R.Slices = counterOf(Snap, "serve.slices");
    R.AllDone = counterOf(Snap, "serve.done") == N;

    // Zero lost work at the top scale: every campaign Done with its full
    // budget, byte-identical to the uninterrupted reference of its cell.
    if (N == MaxScale) {
      for (size_t I = 0; I < N && R.AllDone; ++I) {
        std::string Id =
            campaignId("tenant" + std::to_string(I % Tenants), S.Name,
                       "pcguard", C.Seed + I / Tenants, Budget);
        std::vector<uint8_t> Blob;
        std::string Err;
        if (!Sched.results(Id, Blob, Err) || Blob != Refs[I / Tenants])
          ZeroLostWork = false;
      }
      ZeroLostWork = ZeroLostWork && R.AllDone;
    }
    Scales.push_back(R);
    std::error_code Ec;
    fs::remove_all(SC.Root, Ec);
  }

  std::printf("\nscheduling throughput (%" PRIu64 "-exec campaigns, "
              "%" PRIu64 "-exec checkpoints, %zu workers):\n",
              Budget, Interval, strategy::resolvedJobCount());
  for (const ScaleResult &R : Scales)
    std::printf("  %4zu campaigns / %zu tenant(s): %8.1f campaigns/sec "
                "(%" PRIu64 " slices, %" PRIu64 " preemptions)%s\n",
                R.Campaigns, R.Tenants,
                R.Micros ? 1e6 * double(R.Campaigns) / double(R.Micros) : 0.0,
                R.Slices, R.Preempted, R.AllDone ? "" : "  [INCOMPLETE]");
  std::printf("zero lost work at %zu campaigns x %zu tenants: %s\n", MaxScale,
              TenantFan, ZeroLostWork ? "yes" : "NO");

  //===------------------------------------------------------------------===//
  // Leg 3: preemption overhead. The same 16-campaign workload three ways.
  //===------------------------------------------------------------------===//
  const size_t PreemptN = 16;
  const std::string PreemptRoot = freshRoot("preempt");
  bool PreemptOk = true;
  auto SlicedLeg = [&](uint32_t SliceCheckpoints) -> Leg {
    return [&, SliceCheckpoints](uint32_t Rep) {
      SchedulerConfig SC;
      SC.Root = PreemptRoot + "/" + std::to_string(SliceCheckpoints) + "-" +
                std::to_string(Rep);
      SC.CheckpointInterval = Interval;
      SC.SliceCheckpoints = SliceCheckpoints;
      Scheduler Sched(SC, {S});
      for (size_t I = 0; I < PreemptN; ++I) {
        std::string Id, Err;
        bool Existing = false;
        PreemptOk &= Sched.submit('t' + std::to_string(I % TenantFan), S.Name,
                                  "pcguard", C.Seed + I, Budget, false, Id,
                                  Existing, Err);
      }
      PreemptOk &= Sched.waitIdle(600000);
      return std::optional<CampaignResult>();
    };
  };
  std::vector<BatchJob> PlainJobs(PreemptN);
  for (size_t I = 0; I < PreemptN; ++I) {
    PlainJobs[I].S = &S;
    PlainJobs[I].Opts = cellOpts(C.Seed + I, Budget, Interval);
  }
  Leg PlainLeg = [&PlainJobs](uint32_t) {
    (void)strategy::runCampaigns(PlainJobs);
    return std::optional<CampaignResult>();
  };
  // Legs: the plain batch runner (no service, no store), run-to-completion
  // slices, and 1-checkpoint slices (preempt at every checkpoint).
  std::vector<LegStats> Preempt =
      timeLegs({PlainLeg, SlicedLeg(~0u), SlicedLeg(1)},
               std::max<uint32_t>(3, C.Runs));
  std::error_code Ec;
  fs::remove_all(PreemptRoot, Ec);
  const uint64_t PlainMicros = Preempt[0].BestMicros;
  const uint64_t UnslicedMicros = Preempt[1].BestMicros;
  const uint64_t SlicedMicros = Preempt[2].BestMicros;
  auto Pct = [](uint64_t A, uint64_t Base) {
    return Base ? 100.0 * (double(A) - double(Base)) / double(Base) : 0.0;
  };
  std::printf("\npreemption overhead (%zu campaigns):\n", PreemptN);
  std::printf("  plain runCampaigns (no service):   %8" PRIu64 " us\n",
              PlainMicros);
  std::printf("  service, run-to-completion slices: %8" PRIu64
              " us (%+.2f%% vs plain)\n",
              UnslicedMicros, Pct(UnslicedMicros, PlainMicros));
  std::printf("  service, 1-checkpoint slices:      %8" PRIu64
              " us (%+.2f%% vs plain, %+.2f%% vs unsliced)\n",
              SlicedMicros, Pct(SlicedMicros, PlainMicros),
              Pct(SlicedMicros, UnslicedMicros));

  std::vector<std::string> ScaleRows;
  for (const ScaleResult &R : Scales)
    ScaleRows.push_back(JsonFields()
                            .num("campaigns", R.Campaigns)
                            .num("tenants", R.Tenants)
                            .num("micros", R.Micros)
                            .num("slices", R.Slices)
                            .num("preempted", R.Preempted)
                            .flag("all_done", R.AllDone)
                            .object());
  JsonFields F;
  F.str("subject", S.Name)
      .num("budget", Budget)
      .num("checkpoint_interval", Interval)
      .num("workers", strategy::resolvedJobCount())
      .num("submit_micros", SubmitMedian)
      .num("resubmit_micros", ResubmitMedian)
      .num("status_micros", StatusMedian)
      .raw("scales", jsonArray(ScaleRows))
      .flag("zero_lost_work", ZeroLostWork)
      .num("preempt_campaigns", PreemptN)
      .num("plain_micros", PlainMicros)
      .num("unsliced_micros", UnslicedMicros)
      .num("sliced_micros", SlicedMicros)
      .num("preempt_overhead_pct", Pct(SlicedMicros, UnslicedMicros));
  if (!PreemptOk)
    std::fprintf(stderr, "serve_throughput: preemption leg failed\n");
  return writeRecord("serve_throughput", "BENCH_serve.json", F,
                     ZeroLostWork && PreemptOk);
}
