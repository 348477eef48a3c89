//===- TelemetryTest.cpp - Telemetry subsystem ---------------------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// The telemetry contracts:
//
//  - Recording is purely observational: a traced campaign produces a
//    byte-identical CampaignResult to an untraced one.
//  - Exports are deterministic: the merged JSONL for a set of campaigns
//    is byte-identical at any batch thread count, and the JSONL round-
//    trips through pathfuzz-report's parsers back to the exporters' CSVs.
//  - A killed-and-resumed campaign reports the same samples and metric
//    values as an uninterrupted one (events depend on the checkpoint
//    cadence — CheckpointWritten markers — and are deliberately not part
//    of this oracle).
//  - Export failure (the telemetry.export.fail site) degrades to an
//    error return, never an abort.
//
//===----------------------------------------------------------------------===//

#include "strategy/Batch.h"
#include "strategy/Campaign.h"
#include "support/Env.h"
#include "support/FaultInjection.h"
#include "telemetry/Export.h"
#include "telemetry/Report.h"

#include <gtest/gtest.h>

#include <algorithm>

#include <cstdlib>

using namespace pathfuzz;
using namespace pathfuzz::strategy;
using namespace pathfuzz::telemetry;

namespace {

Subject smallSubject() {
  Subject S;
  S.Name = "small";
  S.Source = R"ml(
global tab[8];
fn step(k, c) {
  var j;
  if (k % 3 == 0 && k > 4) { j = 2; } else { j = 0; }
  if (c == 'z') {
    tab[k % 7 + j] = 1;  // OOB when k % 7 == 6 and j == 2
  } else {
    tab[j] = 1;
  }
  return j;
}
fn main() {
  var i = 0;
  var k = 0;
  while (i < len()) {
    var c = in(i);
    if (c == '.') { step(k, in(i + 1)); k = 0; } else { k = k + 1; }
    i = i + 1;
  }
  return k;
}
)ml";
  const char *Seed = "abc.z def.x";
  S.Seeds = {fuzz::Input(Seed, Seed + 11)};
  return S;
}

CampaignOptions tracedOpts(FuzzerKind Kind, uint64_t Budget = 5000) {
  CampaignOptions Opts;
  Opts.Kind = Kind;
  Opts.ExecBudget = Budget;
  Opts.Seed = 3;
  Opts.CullRounds = 2;
  Opts.Trace.Enabled = true;
  Opts.Trace.SampleInterval = 512;
  return Opts;
}

//===----------------------------------------------------------------------===//
// Event ring
//===----------------------------------------------------------------------===//

Event mkEvent(uint64_t Exec) {
  Event E;
  E.Kind = EventKind::ExecCompleted;
  E.Exec = Exec;
  E.Arg32 = static_cast<uint32_t>(Exec * 3);
  E.Arg64 = Exec * 7;
  E.Arg8 = Exec % 3;
  return E;
}

TEST(EventRing, KeepsOrderAndOverwritesOldest) {
  EventRing Ring(/*CapacityLog2=*/6); // 64 events, the clamp floor
  ASSERT_EQ(Ring.capacity(), 64u);

  for (uint64_t I = 0; I < 40; ++I)
    Ring.push(mkEvent(I));
  EXPECT_EQ(Ring.size(), 40u);
  EXPECT_EQ(Ring.recorded(), 40u);
  EXPECT_EQ(Ring.dropped(), 0u);

  for (uint64_t I = 40; I < 100; ++I)
    Ring.push(mkEvent(I));
  EXPECT_EQ(Ring.size(), 64u);
  EXPECT_EQ(Ring.recorded(), 100u);
  EXPECT_EQ(Ring.dropped(), 36u);

  // events() yields the newest 64, oldest first.
  std::vector<Event> Got = Ring.events();
  ASSERT_EQ(Got.size(), 64u);
  for (size_t I = 0; I < Got.size(); ++I)
    EXPECT_EQ(Got[I], mkEvent(36 + I)) << "index " << I;
}

TEST(EventRing, ClampsCapacityAndRestores) {
  EventRing Tiny(0), Huge(40);
  EXPECT_EQ(Tiny.capacity(), 64u);
  EXPECT_EQ(Huge.capacity(), size_t(1) << 20);

  EventRing Ring(6);
  for (uint64_t I = 0; I < 100; ++I)
    Ring.push(mkEvent(I));

  EventRing Fresh(6);
  Fresh.restore(Ring.events(), Ring.recorded());
  EXPECT_EQ(Fresh.recorded(), Ring.recorded());
  EXPECT_EQ(Fresh.dropped(), Ring.dropped());
  EXPECT_EQ(Fresh.events(), Ring.events());
}

TEST(EventRing, RestoredRingContinuesInPhase) {
  // Restoring a wrapped ring must preserve the slot phase: pushes after
  // the restore overwrite oldest-first, exactly as if the ring had never
  // been snapshotted (the fuzzer resume contract).
  EventRing Ref(6);
  for (uint64_t I = 0; I < 150; ++I)
    Ref.push(mkEvent(I));

  EventRing Snapshotted(6);
  for (uint64_t I = 0; I < 100; ++I) // wrapped: 36 events already dropped
    Snapshotted.push(mkEvent(I));
  EventRing Resumed(6);
  Resumed.restore(Snapshotted.events(), Snapshotted.recorded());
  for (uint64_t I = 100; I < 150; ++I)
    Resumed.push(mkEvent(I));

  EXPECT_EQ(Resumed.recorded(), Ref.recorded());
  EXPECT_EQ(Resumed.dropped(), Ref.dropped());
  EXPECT_EQ(Resumed.events(), Ref.events());

  // A restore into a larger ring keeps only the surviving history (the
  // pre-snapshot drops cannot be resurrected).
  EventRing Bigger(8);
  Bigger.restore(Snapshotted.events(), Snapshotted.recorded());
  EXPECT_EQ(Bigger.recorded(), 100u);
  EXPECT_EQ(Bigger.size(), 64u);
  EXPECT_EQ(Bigger.events(), Snapshotted.events());

  // And into a smaller ring, only the newest events fit.
  EventRing Smaller(6);
  std::vector<Event> All;
  for (uint64_t I = 0; I < 100; ++I)
    All.push_back(mkEvent(I));
  Smaller.restore(All, 100);
  ASSERT_EQ(Smaller.size(), 64u);
  EXPECT_EQ(Smaller.events(), Snapshotted.events());
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(Histogram, BucketsAreFixedLog2) {
  EXPECT_EQ(Histogram::bucketOf(0), 0u);
  EXPECT_EQ(Histogram::bucketOf(1), 1u);
  EXPECT_EQ(Histogram::bucketOf(2), 2u);
  EXPECT_EQ(Histogram::bucketOf(3), 2u);
  EXPECT_EQ(Histogram::bucketOf(4), 3u);
  EXPECT_EQ(Histogram::bucketOf(1023), 10u);
  EXPECT_EQ(Histogram::bucketOf(1024), 11u);
  EXPECT_EQ(Histogram::bucketOf(~0ull), Histogram::NumBuckets - 1);
  EXPECT_EQ(Histogram::bucketLow(0), 0u);
  EXPECT_EQ(Histogram::bucketLow(1), 1u);
  EXPECT_EQ(Histogram::bucketLow(11), 1024u);

  Histogram H;
  for (uint64_t V : {0ull, 1ull, 5ull, 5ull, 700ull})
    H.observe(V);
  EXPECT_EQ(H.Count, 5u);
  EXPECT_EQ(H.Sum, 711u);
  EXPECT_EQ(H.Min, 0u);
  EXPECT_EQ(H.Max, 700u);
  EXPECT_EQ(H.Buckets[0], 1u);
  EXPECT_EQ(H.Buckets[1], 1u);
  EXPECT_EQ(H.Buckets[3], 2u); // 5 twice
  EXPECT_EQ(H.Buckets[10], 1u); // 700
}

TEST(Metrics, RegistryRoundTripsWithStablePointers) {
  MetricsRegistry Reg;
  uint64_t *Execs = Reg.counter("execs");
  *Execs = 1234;
  *Reg.gauge("queue") = -7;
  Reg.histogram("steps")->observe(100);
  Reg.histogram("steps")->observe(3);

  ByteWriter W;
  Reg.serialize(W);
  std::vector<uint8_t> Bytes = W.take();

  MetricsRegistry Back;
  // Pre-registration, as the fuzzer does at construction: the restore
  // must land in the existing nodes so this pointer stays correct.
  uint64_t *BackExecs = Back.counter("execs");
  {
    ByteReader R(Bytes);
    ASSERT_TRUE(Back.deserialize(R));
    EXPECT_TRUE(R.done());
  }
  EXPECT_TRUE(Back == Reg);
  EXPECT_EQ(*BackExecs, 1234u);
  *BackExecs += 1;
  EXPECT_EQ(Back.counters().at("execs"), 1235u);

  // Truncated input is rejected, at every prefix length.
  for (size_t N = 0; N < Bytes.size(); ++N) {
    MetricsRegistry Bad;
    std::vector<uint8_t> Cut(Bytes.begin(), Bytes.begin() + N);
    ByteReader R(Cut);
    EXPECT_FALSE(Bad.deserialize(R) && R.done()) << "prefix " << N;
  }
}

TEST(Metrics, DecodeRefusesNonCanonicalNameOrder) {
  MetricsRegistry Reg;
  *Reg.counter("a") = 1;
  *Reg.counter("b") = 2;
  ByteWriter W;
  Reg.serialize(W);
  std::vector<uint8_t> Bytes = W.take();
  // Swap the two one-byte names: the section now lists "b" before "a",
  // which serialize() never writes.
  auto A = std::find(Bytes.begin(), Bytes.end(), uint8_t('a'));
  auto B = std::find(Bytes.begin(), Bytes.end(), uint8_t('b'));
  ASSERT_TRUE(A != Bytes.end() && B != Bytes.end());
  std::iter_swap(A, B);
  MetricsRegistry Back;
  ByteReader R(Bytes);
  EXPECT_FALSE(Back.deserialize(R));

  // A duplicate name ("a" twice) is refused the same way.
  *A = uint8_t('a');
  MetricsRegistry Dup;
  ByteReader RD(Bytes);
  EXPECT_FALSE(Dup.deserialize(RD));
}

TEST(Metrics, AdoptNeedsEveryObservableSeries) {
  MetricsRegistry Live;
  uint64_t *Execs = Live.counter("execs");
  *Live.counter("vm.jit.execs") = 9; // engine-local
  MetricsRegistry Snap;
  *Snap.counter("execs") = 40;
  *Snap.counter("store.checkpoint.written") = 2;
  // A snapshot taken under another engine lacks vm.jit.*: adoptable, and
  // the series keeps its value next to the snapshot's.
  ASSERT_TRUE(Live.canAdopt(Snap));
  Live.adopt(Snap);
  EXPECT_EQ(*Execs, 40u);
  EXPECT_EQ(Live.counters().at("vm.jit.execs"), 9u);
  EXPECT_EQ(Live.counters().at("store.checkpoint.written"), 2u);
  // One lacking an observable series the live registry holds is not.
  MetricsRegistry Renamed;
  *Renamed.counter("exect") = 40;
  EXPECT_FALSE(Live.canAdopt(Renamed));
}

TEST(TraceState, DecodeRefusesFewerRecordedThanHeldEvents) {
  TraceConfig Cfg;
  Cfg.Enabled = true;
  InstanceTrace Tr(Cfg);
  for (uint64_t E = 0; E < 3; ++E)
    Tr.event(EventKind::ExecCompleted, E);
  ByteWriter W;
  Tr.serializeState(W);
  std::vector<uint8_t> Bytes = W.take();
  InstanceState S;
  {
    ByteReader R(Bytes);
    ASSERT_TRUE(decodeInstanceState(R, S));
    EXPECT_EQ(S.Recorded, 3u);
  }
  // The u64 recorded count follows the version byte, the event count and
  // three 22-byte events.
  const size_t RecordedAt = 1 + 8 + 3 * 22;
  ASSERT_EQ(Bytes[RecordedAt], 3u);
  Bytes[RecordedAt] = 2;
  ByteReader R(Bytes);
  EXPECT_FALSE(decodeInstanceState(R, S));
}

//===----------------------------------------------------------------------===//
// PATHFUZZ_TRACE parsing
//===----------------------------------------------------------------------===//

TEST(TraceConfig, ParsesEnvSpecList) {
  ::unsetenv("PATHFUZZ_TRACE");
  EXPECT_FALSE(traceConfigFromEnv().Enabled);

  ::setenv("PATHFUZZ_TRACE", "on", 1);
  TraceConfig On = traceConfigFromEnv();
  EXPECT_TRUE(On.Enabled);
  EXPECT_EQ(On.RingCapacityLog2, 12u);
  EXPECT_EQ(On.SampleInterval, 2048u);

  ::setenv("PATHFUZZ_TRACE", "out=t.jsonl,sample@512,ring@100,csv,wall", 1);
  TraceConfig Full = traceConfigFromEnv();
  EXPECT_TRUE(Full.Enabled);
  EXPECT_EQ(Full.OutPath, "t.jsonl");
  EXPECT_EQ(Full.SampleInterval, 512u);
  EXPECT_EQ(Full.RingCapacityLog2, 7u); // 100 rounded up to 128
  EXPECT_TRUE(Full.Csv);
  EXPECT_TRUE(Full.Wall);

  // off wins over everything else in the list.
  ::setenv("PATHFUZZ_TRACE", "on,sample@256,off", 1);
  EXPECT_FALSE(traceConfigFromEnv().Enabled);

  // Malformed values are skipped, not half-parsed: the defaults survive
  // garbage, overflow and signs, exactly like fault-site specs.
  ::setenv("PATHFUZZ_TRACE",
           "sample@junk,sample@99999999999999999999999,sample@-4,ring@12x", 1);
  TraceConfig Garbage = traceConfigFromEnv();
  EXPECT_TRUE(Garbage.Enabled); // non-off entries still enable
  EXPECT_EQ(Garbage.SampleInterval, 2048u);
  EXPECT_EQ(Garbage.RingCapacityLog2, 12u);

  ::unsetenv("PATHFUZZ_TRACE");
}

//===----------------------------------------------------------------------===//
// Non-perturbation and export determinism
//===----------------------------------------------------------------------===//

TEST(Tracing, DoesNotPerturbCampaignResults) {
  if (!telemetry::Compiled)
    GTEST_SKIP() << "telemetry compiled out";
  Subject S = smallSubject();
  for (FuzzerKind Kind : {FuzzerKind::Path, FuzzerKind::Cull,
                          FuzzerKind::Opp}) {
    SCOPED_TRACE(fuzzerKindName(Kind));
    CampaignOptions Traced = tracedOpts(Kind);
    CampaignOptions Untraced = Traced;
    Untraced.Trace = TraceConfig();

    CampaignResult RT = runCampaign(S, Traced);
    CampaignResult RU = runCampaign(S, Untraced);
    EXPECT_EQ(serializeCampaignResult(RT), serializeCampaignResult(RU));

    ASSERT_NE(RT.Trace, nullptr);
    EXPECT_EQ(RU.Trace, nullptr);
    ASSERT_FALSE(RT.Trace->Instances.empty());
    EXPECT_FALSE(RT.Trace->Instances.front().Samples.empty());
    EXPECT_FALSE(RT.Trace->Instances.front().Events.empty());
    EXPECT_EQ(RT.Trace->Subject, "small");
    EXPECT_EQ(RT.Trace->Fuzzer, std::string(fuzzerKindName(Kind)));
  }
}

/// The four configurations the acceptance criteria name, as one batch.
std::vector<BatchJob> fourConfigJobs(const Subject &S) {
  std::vector<BatchJob> Jobs;
  for (FuzzerKind Kind : {FuzzerKind::Path, FuzzerKind::Cull, FuzzerKind::Opp,
                          FuzzerKind::Pcguard}) {
    BatchJob J;
    J.S = &S;
    J.Opts = tracedOpts(Kind, 4000);
    Jobs.push_back(J);
  }
  return Jobs;
}

std::string mergedJsonlOf(const std::vector<CampaignResult> &Results) {
  std::vector<const CampaignTrace *> Traces;
  for (const CampaignResult &R : Results)
    Traces.push_back(R.Trace.get());
  return mergedJsonl(Traces);
}

TEST(Tracing, MergedJsonlIsByteIdenticalAcrossJobCounts) {
  if (!telemetry::Compiled)
    GTEST_SKIP() << "telemetry compiled out";
  Subject S = smallSubject();
  std::vector<BatchJob> Jobs = fourConfigJobs(S);

  std::string Serial = mergedJsonlOf(runCampaigns(Jobs, 1));
  std::string Parallel = mergedJsonlOf(runCampaigns(Jobs, 4));
  ASSERT_FALSE(Serial.empty());
  EXPECT_EQ(Serial, Parallel);

  // The merged trace feeds pathfuzz-report: the queue-trajectory CSV must
  // carry all four configurations.
  std::string Csv = queueCsvFromJsonl(Serial);
  EXPECT_EQ(Csv.rfind("subject,fuzzer,seed,execs,queue\n", 0), 0u);
  for (const char *Fuzzer : {"path", "cull", "opp", "pcguard"})
    EXPECT_NE(Csv.find("\nsmall," + std::string(Fuzzer) + ","),
              std::string::npos)
        << Fuzzer;
}

//===----------------------------------------------------------------------===//
// JSONL schema (golden) and report round-trips
//===----------------------------------------------------------------------===//

/// Assert Keys appear in Line in order — the schema's field order is part
/// of the determinism contract, so reorders are breaking changes.
void expectKeyOrder(const std::string &Line,
                    const std::vector<std::string> &Keys) {
  size_t Pos = 0;
  for (const std::string &Key : Keys) {
    size_t At = Line.find("\"" + Key + "\":", Pos);
    ASSERT_NE(At, std::string::npos) << Key << " missing in: " << Line;
    Pos = At + 1;
  }
}

std::string firstLineOfType(const std::string &Jsonl, const std::string &Type) {
  size_t Start = 0;
  while (Start < Jsonl.size()) {
    size_t End = Jsonl.find('\n', Start);
    std::string Line = Jsonl.substr(Start, End - Start);
    std::string Got;
    if (jsonStr(Line, "type", Got) && Got == Type)
      return Line;
    if (End == std::string::npos)
      break;
    Start = End + 1;
  }
  return "";
}

TEST(Export, JsonlMatchesGoldenSchema) {
  if (!telemetry::Compiled)
    GTEST_SKIP() << "telemetry compiled out";
  Subject S = smallSubject();
  CampaignResult R = runCampaign(S, tracedOpts(FuzzerKind::Path, 3000));
  ASSERT_NE(R.Trace, nullptr);
  std::string Jsonl = traceJsonl(*R.Trace);

  // Line 1 is the campaign header with the exact identity prefix every
  // other line repeats.
  const std::string Golden =
      "{\"type\":\"campaign\",\"subject\":\"small\",\"fuzzer\":\"path\","
      "\"seed\":3,\"instances\":1}";
  EXPECT_EQ(Jsonl.substr(0, Jsonl.find('\n')), Golden);

  expectKeyOrder(firstLineOfType(Jsonl, "instance"),
                 {"type", "subject", "fuzzer", "seed", "instance",
                  "exec_offset", "events_recorded", "events_kept"});
  expectKeyOrder(firstLineOfType(Jsonl, "sample"),
                 {"type", "subject", "fuzzer", "seed", "instance", "exec",
                  "queue", "favored", "edges", "crashes", "uniq_crashes",
                  "hangs", "uniq_bugs", "cull_passes", "dict"});
  expectKeyOrder(firstLineOfType(Jsonl, "event"),
                 {"type", "subject", "fuzzer", "seed", "instance", "kind",
                  "exec", "a32", "a64", "a8"});
  expectKeyOrder(firstLineOfType(Jsonl, "counter"),
                 {"type", "subject", "fuzzer", "seed", "instance", "name",
                  "value"});
  expectKeyOrder(firstLineOfType(Jsonl, "histogram"),
                 {"type", "subject", "fuzzer", "seed", "instance", "name",
                  "count", "sum", "min", "max", "buckets"});

  // Wall-clock fields only appear on request.
  EXPECT_EQ(Jsonl.find("wall_micros"), std::string::npos);
}

TEST(Report, CsvsRoundTripThroughJsonl) {
  if (!telemetry::Compiled)
    GTEST_SKIP() << "telemetry compiled out";
  Subject S = smallSubject();
  std::vector<CampaignResult> Results = runCampaigns(fourConfigJobs(S), 2);
  std::vector<const CampaignTrace *> Traces;
  for (const CampaignResult &R : Results) {
    ASSERT_NE(R.Trace, nullptr);
    Traces.push_back(R.Trace.get());
  }
  std::string Jsonl = mergedJsonl(Traces);

  // The report tool's JSONL parse reproduces the exporters' CSVs exactly.
  EXPECT_EQ(queueCsvFromJsonl(Jsonl), queueTrajectoryCsv(Traces));
  EXPECT_EQ(coverageCsvFromJsonl(Jsonl), coverageCsv(Traces));

  std::string Crash = crashSummaryFromJsonl(Jsonl);
  EXPECT_EQ(Crash.rfind("subject,fuzzer,seed,crashes,unique_crashes,"
                        "unique_bugs,dedup_events\n",
                        0),
            0u);
  EXPECT_NE(Crash.find("\nsmall,path,3,"), std::string::npos);

  std::string Bench = benchJsonFromJsonl(Jsonl, "roundtrip");
  EXPECT_NE(Bench.find("\"name\":\"roundtrip\""), std::string::npos);
  EXPECT_NE(Bench.find("\"final_exec\":"), std::string::npos);
  EXPECT_NE(Bench.find("\"fuzzer\":\"pcguard\""), std::string::npos);
}

TEST(Report, CsvEscapesDelimitersInNames) {
  // Subject and fuzzer names flow verbatim from campaign configs into the
  // CSV emitters. Before RFC-4180 quoting, a comma in a name shifted every
  // later column; a quote or newline corrupted the row outright.
  EXPECT_EQ(csvField("plain"), "plain");
  EXPECT_EQ(csvField("a,b"), "\"a,b\"");
  EXPECT_EQ(csvField("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csvField("two\nlines"), "\"two\nlines\"");

  CampaignTrace T;
  T.Subject = "lib,v2";
  T.Fuzzer = "path \"exp\"";
  T.Seed = 7;
  InstanceRecord Rec;
  Rec.Label = "main";
  Sample S;
  S.Exec = 100;
  S.QueueSize = 3;
  S.EdgesCovered = 12;
  Rec.Samples.push_back(S);
  T.Instances.push_back(Rec);
  std::vector<const CampaignTrace *> Traces{&T};

  const std::string Row = "\"lib,v2\",\"path \"\"exp\"\"\",7,100,";
  std::string Queue = queueTrajectoryCsv(Traces);
  EXPECT_NE(Queue.find("\n" + Row + "3\n"), std::string::npos) << Queue;
  std::string Cov = coverageCsv(Traces);
  EXPECT_NE(Cov.find("\n" + Row + "12\n"), std::string::npos) << Cov;

  // The JSONL path escapes the same names at the JSON layer, and the
  // report tool's re-derived CSVs must still match the exporters byte for
  // byte — the round-trip contract is independent of name contents.
  std::string Jsonl = mergedJsonl(Traces);
  EXPECT_EQ(queueCsvFromJsonl(Jsonl), Queue);
  EXPECT_EQ(coverageCsvFromJsonl(Jsonl), Cov);
  std::string Crash = crashSummaryFromJsonl(Jsonl);
  EXPECT_NE(Crash.find("\"lib,v2\",\"path \"\"exp\"\"\",7,"),
            std::string::npos)
      << Crash;
}

//===----------------------------------------------------------------------===//
// Checkpoint/resume telemetry
//===----------------------------------------------------------------------===//

/// Samples and metric values must survive kill+resume exactly; events are
/// excluded (the checkpointed run records CheckpointWritten markers the
/// uninterrupted reference never sees), and so are the engine-local
/// metric families (telemetry::isEngineLocalMetric): a resumed run
/// legitimately counts its own store.* writes and JIT compiles while
/// everything observable agrees.
void expectSameSeries(const CampaignTrace &A, const CampaignTrace &B) {
  EXPECT_EQ(A.Subject, B.Subject);
  EXPECT_EQ(A.Fuzzer, B.Fuzzer);
  EXPECT_EQ(A.Seed, B.Seed);
  ASSERT_EQ(A.Instances.size(), B.Instances.size());
  for (size_t I = 0; I < A.Instances.size(); ++I) {
    SCOPED_TRACE("instance " + A.Instances[I].Label);
    EXPECT_EQ(A.Instances[I].Label, B.Instances[I].Label);
    EXPECT_EQ(A.Instances[I].ExecOffset, B.Instances[I].ExecOffset);
    EXPECT_EQ(A.Instances[I].Samples, B.Instances[I].Samples);
    EXPECT_TRUE(telemetry::sameObservableMetrics(A.Instances[I].Metrics,
                                                 B.Instances[I].Metrics));
  }
}

class TelemetryResume : public ::testing::TestWithParam<FuzzerKind> {};

TEST_P(TelemetryResume, ResumedCampaignReportsTheSameSeries) {
  if (!telemetry::Compiled)
    GTEST_SKIP() << "telemetry compiled out";
  Subject S = smallSubject();
  CampaignOptions Plain = tracedOpts(GetParam());
  CampaignResult Ref = runCampaign(S, Plain);
  ASSERT_NE(Ref.Trace, nullptr);

  CampaignOptions WithCkpt = Plain;
  WithCkpt.CheckpointInterval = 900;
  std::vector<std::vector<uint8_t>> Checkpoints;
  WithCkpt.CheckpointSink = [&Checkpoints](const std::vector<uint8_t> &Blob) {
    Checkpoints.push_back(Blob);
  };
  runCampaign(S, WithCkpt);
  ASSERT_GE(Checkpoints.size(), 2u);

  for (size_t I = 0; I < Checkpoints.size(); ++I) {
    SCOPED_TRACE("checkpoint " + std::to_string(I));
    CampaignError Err;
    CampaignResult Resumed = resumeCampaign(S, Plain, Checkpoints[I], &Err);
    ASSERT_FALSE(Err.Failed) << Err.Message;
    EXPECT_EQ(serializeCampaignResult(Resumed), serializeCampaignResult(Ref));
    ASSERT_NE(Resumed.Trace, nullptr);
    expectSameSeries(*Resumed.Trace, *Ref.Trace);
  }
}

INSTANTIATE_TEST_SUITE_P(Drivers, TelemetryResume,
                         ::testing::Values(FuzzerKind::Pcguard,
                                           FuzzerKind::Cull,
                                           FuzzerKind::Opp),
                         [](const auto &Info) {
                           return std::string(fuzzerKindName(Info.param));
                         });

//===----------------------------------------------------------------------===//
// Export failure degrades, never aborts
//===----------------------------------------------------------------------===//

TEST(Export, FileWriteFailureIsAnErrorReturnNotAnAbort) {
  if (!telemetry::Compiled)
    GTEST_SKIP() << "telemetry compiled out";
  fault::ScopedFaultInjection Guard;

  Subject S = smallSubject();
  CampaignOptions Opts = tracedOpts(FuzzerKind::Path, 3000);
  std::vector<uint8_t> Ref = serializeCampaignResult(runCampaign(S, Opts));

  fault::SiteConfig Always;
  Always.FailOnHit = 1;
  fault::armSite("telemetry.export.fail", Always);

  // The campaign itself is unaffected by the armed export site...
  CampaignResult R = runCampaign(S, Opts);
  EXPECT_EQ(serializeCampaignResult(R), Ref);
  ASSERT_NE(R.Trace, nullptr);

  // ...and the export reports failure instead of writing or aborting.
  std::string Err;
  EXPECT_FALSE(exportFile("/tmp/pathfuzz_telemetry_should_not_exist.jsonl",
                          traceJsonl(*R.Trace), &Err));
  EXPECT_NE(Err.find("telemetry.export.fail"), std::string::npos);

  // Re-armed to fail once: the first export fails, the next succeeds —
  // the site models a transient filesystem error.
  fault::armSite("telemetry.export.fail", Always);
  std::string Path = ::testing::TempDir() + "pathfuzz_telemetry_export.jsonl";
  EXPECT_FALSE(exportFile(Path, "x\n", &Err));
  EXPECT_TRUE(exportFile(Path, traceJsonl(*R.Trace), &Err)) << Err;
  std::remove(Path.c_str());
}

} // namespace
