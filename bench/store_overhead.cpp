//===- store_overhead.cpp - Durable-store cost measurement --------------------===//
//
// Part of the pathfuzz project.
//
// Measures what the durability layer costs — the per-checkpoint
// seal+fsync tax is fixed, so it dominates the second-long bench
// campaigns here and amortizes to noise on real ones:
//
//  - end-to-end: a stored (checkpoint-every-interval, fsync-per-write)
//    vs an in-memory campaign on a shared build, median of paired reps,
//    plus the byte-identity check on every rep that durability is purely
//    protective;
//  - the resume leg: time to finish a campaign from its last persisted
//    checkpoint vs running it whole, and the same identity check on its
//    result;
//  - an interval sweep at coarser and finer checkpoint cadences;
//  - checkpoint volume: files written, bytes per checkpoint;
//  - and writes the record to BENCH_store.json (PATHFUZZ_BENCH_OUT
//    overrides the path).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "strategy/BuildCache.h"
#include "strategy/Store.h"

#include <cinttypes>
#include <filesystem>

#include <unistd.h>

using namespace pathfuzz;
using namespace pathfuzz::bench;
using namespace pathfuzz::strategy;
namespace fs = std::filesystem;

int main() {
  BenchConfig C = BenchConfig::fromEnv();
  C.printHeader("Durable-store overhead: stored vs in-memory campaigns");
  const Subject &S = C.timedSubject();

  BuildCache Cache;
  std::shared_ptr<SubjectBuild> B = Cache.get(S);

  CampaignOptions InMemory = C.campaignOptions();
  InMemory.Kind = FuzzerKind::Path;
  InMemory.Trace = telemetry::TraceConfig(); // baseline ignores the env

  const std::string Root =
      (fs::temp_directory_path() /
       ("pathfuzz-bench-store-" + std::to_string(::getpid())))
          .string();
  std::error_code Ec;
  fs::remove_all(Root, Ec);

  // A stored leg checkpointing every Interval execs into a fresh
  // directory per rep: each run pays the full fresh-start cost, never a
  // short-circuit through a done manifest.
  auto StoredLeg = [&](const std::string &Dir, uint64_t Interval) -> Leg {
    CampaignOptions Stored = InMemory;
    Stored.CheckpointInterval = Interval;
    return [&B, Stored, Dir](uint32_t Rep) mutable {
      Stored.StoreDir = Dir + "/rep-" + std::to_string(Rep);
      return std::optional<CampaignResult>(runCampaign(*B, Stored));
    };
  };

  // 8 checkpoints per campaign — the runStoredCampaign default cadence —
  // so the measured tax includes seal + atomic write + fsync + rotate,
  // eight times per run.
  const uint64_t Interval = std::max<uint64_t>(1, C.Execs / 8);

  const uint32_t Reps = std::max<uint32_t>(5, C.Runs);
  (void)runCampaign(*B, InMemory); // warm caches before timing anything
  std::vector<LegStats> Legs = timeLegs(
      {campaignLeg(*B, InMemory), StoredLeg(Root + "/stored", Interval)}, Reps);
  bool Identical = Legs[0].identical() && Legs[1].identical();
  const std::vector<uint8_t> &MemBytes = Legs[0].Bytes;

  // Checkpoint volume, from one traced stored run in its own directory.
  CampaignOptions Traced = InMemory;
  Traced.StoreDir = Root + "/traced";
  Traced.CheckpointInterval = Interval;
  Traced.Trace.Enabled = true;
  CampaignResult TracedR = runCampaign(*B, Traced);
  uint64_t CkptWritten = 0, CkptBytes = 0;
  if (TracedR.Trace)
    for (const telemetry::InstanceRecord &Rec : TracedR.Trace->Instances)
      if (Rec.Label == "store") {
        auto Find = [&Rec](const char *Name) -> uint64_t {
          auto It = Rec.Metrics.counters().find(Name);
          return It == Rec.Metrics.counters().end() ? 0 : It->second;
        };
        CkptWritten = Find("store.checkpoint.written");
        CkptBytes = Find("store.checkpoint.bytes");
      }

  // The resume leg: seed a fresh directory with the campaign's persisted
  // checkpoints minus the last interval's progress (as a SIGKILL there
  // would leave it), then time finishing from disk. The resumed result
  // must match the uninterrupted one byte for byte.
  uint64_t ResumeMicros = 0;
  {
    CampaignOptions Seeded = InMemory;
    Seeded.CheckpointInterval = Interval;
    std::vector<std::vector<uint8_t>> Ckpts;
    Seeded.CheckpointSink = [&Ckpts](const std::vector<uint8_t> &Blob) {
      Ckpts.push_back(Blob);
    };
    (void)runCampaign(*B, Seeded);
    if (!Ckpts.empty()) {
      std::string Err;
      auto Store =
          CampaignStore::open(Root + "/resume", S.Name, InMemory, &Err);
      if (Store)
        Store->writeCheckpoint(Ckpts.back());
      CampaignOptions Resume = InMemory;
      Resume.StoreDir = Root + "/resume";
      Resume.CheckpointInterval = Interval;
      CampaignResult R;
      ResumeMicros = timeMicros([&] { R = runCampaign(*B, Resume); });
      Identical &= serializeCampaignResult(R) == MemBytes;
    }
  }

  // Interval sweep: the tax scales with checkpoint count, so price the
  // layer at coarser and finer cadences than the default too.
  std::vector<uint64_t> SweepIntervals;
  std::vector<Leg> SweepLegs;
  for (uint64_t Div : {4, 8, 16}) {
    SweepIntervals.push_back(std::max<uint64_t>(1, C.Execs / Div));
    SweepLegs.push_back(StoredLeg(Root + "/sweep-" + std::to_string(Div),
                                  SweepIntervals.back()));
  }
  std::vector<LegStats> Sweep = timeLegs(SweepLegs, 2);
  for (const LegStats &L : Sweep)
    Identical &= L.identical() && L.Bytes == MemBytes;

  const uint64_t MemMin = Legs[0].BestMicros;
  std::printf("subject: %s (%" PRIu64 " execs, %u paired reps, "
              "%" PRIu64 "-exec checkpoint interval)\n",
              S.Name.c_str(), C.Execs, Reps, Interval);
  std::printf("campaign, in-memory:   %8" PRIu64 " us (best)\n", MemMin);
  std::printf("campaign, stored:      %8" PRIu64 " us (best)\n",
              Legs[1].BestMicros);
  std::printf("overhead, median of paired reps: %+.2f%%\n",
              Legs[1].overheadPct());
  std::printf("checkpoints per run: %" PRIu64 " (%" PRIu64
              " bytes total, %" PRIu64 " bytes each)\n",
              CkptWritten, CkptBytes,
              CkptWritten ? CkptBytes / CkptWritten : 0);
  std::printf("resume from last checkpoint: %8" PRIu64 " us\n", ResumeMicros);
  for (size_t I = 0; I < Sweep.size(); ++I) {
    const double Sw = double(Sweep[I].BestMicros);
    std::printf("interval sweep: every %6" PRIu64 " execs -> %8" PRIu64
                " us (%+.2f%% vs in-memory best)\n",
                SweepIntervals[I], Sweep[I].BestMicros,
                MemMin ? 100.0 * (Sw - double(MemMin)) / double(MemMin) : 0.0);
  }
  std::printf("stored, resumed and swept == in-memory results: %s\n",
              Identical ? "yes" : "NO");

  fs::remove_all(Root, Ec);

  std::vector<std::string> SweepRows;
  for (size_t I = 0; I < Sweep.size(); ++I)
    SweepRows.push_back(JsonFields()
                            .num("interval", SweepIntervals[I])
                            .num("micros", Sweep[I].BestMicros)
                            .object());
  JsonFields F;
  F.raw("interval_sweep", jsonArray(SweepRows))
      .str("subject", S.Name)
      .num("execs", C.Execs)
      .num("reps", Reps)
      .num("checkpoint_interval", Interval)
      .num("campaign_inmemory_micros", MemMin)
      .num("campaign_stored_micros", Legs[1].BestMicros)
      .num("overhead_pct", Legs[1].overheadPct())
      .num("checkpoints_written", CkptWritten)
      .num("checkpoint_bytes", CkptBytes)
      .num("resume_micros", ResumeMicros)
      .flag("results_identical", Identical);
  return writeRecord("store_overhead", "BENCH_store.json", F, Identical,
                     {&TracedR});
}
