//===- BenchCommon.h - Shared benchmark-harness configuration ---*- C++ -*-===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// Every table/figure binary reads the same environment knobs, mirroring
// the artifact's RUNTIME / FUZZING_WINDOW_ORIG variables:
//
//   REPRO_RUNS      runs per (subject, fuzzer) pair   (default 3;
//                   the paper uses 10)
//   REPRO_EXECS     execution budget per run          (default 20000;
//                   the paper uses 48 hours)
//   REPRO_SUBJECTS  comma-separated subject subset    (default: all 18)
//   REPRO_SEED      base seed                         (default 7)
//   REPRO_LONG      multiply the budget by 8 (the "1-week campaign")
//   REPRO_VERBOSE   progress lines on stderr
//   PATHFUZZ_JOBS   worker threads for the campaign batch runner
//                   (default: hardware concurrency; results are
//                   byte-identical at any value)
//   PATHFUZZ_TRACE  telemetry tracing (see telemetry/Trace.h); with
//                   out=PATH the drivers that call exportTraces() write
//                   the merged campaign trace JSONL (and, with csv, the
//                   queue-trajectory CSV) next to their printed tables
//
// The BENCH_*.json writers share one measuring harness, defined once here:
// the clock (timeMicros), the example-subject loader, the rotating
// paired-leg timer (timeLegs) with its byte-identity verdicts, and the
// record writer (writeRecord). Each writer is a list of legs plus its own
// fields.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_BENCH_BENCHCOMMON_H
#define PATHFUZZ_BENCH_BENCHCOMMON_H

#include "strategy/Batch.h"
#include "strategy/Evaluation.h"
#include "support/Env.h"
#include "support/Hashing.h"
#include "support/Stats.h"
#include "support/Table.h"
#include "targets/Targets.h"
#include "telemetry/Export.h"
#include "telemetry/Report.h"

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iomanip>
#include <optional>
#include <sstream>

namespace pathfuzz {
namespace bench {

struct BenchConfig {
  uint32_t Runs;
  uint64_t Execs;
  uint64_t Seed;
  bool Verbose;
  std::vector<strategy::Subject> Subjects;
  telemetry::TraceConfig Trace;

  static BenchConfig fromEnv() {
    BenchConfig C;
    C.Runs = static_cast<uint32_t>(envU64("REPRO_RUNS", 3));
    C.Execs = envU64("REPRO_EXECS", 20000);
    if (envU64("REPRO_LONG", 0))
      C.Execs *= 8;
    C.Seed = envU64("REPRO_SEED", 7);
    C.Verbose = envU64("REPRO_VERBOSE", 0) != 0;
    C.Subjects = targets::subjectsFromEnv();
    C.Trace = telemetry::traceConfigFromEnv();
    return C;
  }

  strategy::CampaignOptions campaignOptions() const {
    strategy::CampaignOptions Opts;
    Opts.ExecBudget = Execs;
    Opts.Seed = Seed;
    Opts.Trace = Trace;
    return Opts;
  }

  /// The subject the single-subject benches time: jhead when selected,
  /// otherwise the first selected subject.
  const strategy::Subject &timedSubject() const {
    for (const strategy::Subject &S : Subjects)
      if (S.Name == "jhead")
        return S;
    return Subjects.front();
  }

  void printHeader(const char *What) const {
    std::printf("=== %s ===\n", What);
    std::printf("(%u run(s) x %llu execs per <subject, fuzzer> on %zu "
                "thread(s); REPRO_RUNS/REPRO_EXECS/REPRO_SUBJECTS/"
                "PATHFUZZ_JOBS scale this)\n\n",
                Runs, static_cast<unsigned long long>(Execs),
                strategy::resolvedJobCount());
  }
};

/// Run the standard evaluation for this binary's fuzzers. Campaigns fan
/// out across the batch runner's thread pool; output stays byte-identical
/// at any PATHFUZZ_JOBS value.
inline strategy::Evaluation
runEvaluation(const BenchConfig &C,
              const std::vector<strategy::FuzzerKind> &Kinds) {
  return strategy::evaluate(C.Subjects, Kinds, C.Runs, C.campaignOptions(),
                            C.Verbose);
}

/// Emit the campaign traces a driver collected when PATHFUZZ_TRACE asks
/// for out=PATH: the merged JSONL goes to PATH, and with the csv flag
/// the queue-trajectory table additionally goes to PATH.csv. Export
/// failures (including the telemetry.export.fail fault site) degrade to
/// a stderr warning — the driver's printed tables are never affected.
inline void exportTraces(const BenchConfig &C,
                         const std::vector<strategy::CampaignResult> &Results) {
  if (!C.Trace.Enabled || C.Trace.OutPath.empty())
    return;
  std::vector<const telemetry::CampaignTrace *> Traces;
  for (const strategy::CampaignResult &R : Results)
    if (R.Trace)
      Traces.push_back(R.Trace.get());
  if (Traces.empty())
    return;
  std::string Err;
  std::string Jsonl = telemetry::mergedJsonl(Traces, C.Trace.Wall);
  if (!telemetry::exportFile(C.Trace.OutPath, Jsonl, &Err))
    std::fprintf(stderr, "warning: trace export failed: %s\n", Err.c_str());
  if (C.Trace.Csv &&
      !telemetry::exportFile(C.Trace.OutPath + ".csv",
                             telemetry::queueTrajectoryCsv(Traces), &Err))
    std::fprintf(stderr, "warning: trace export failed: %s\n", Err.c_str());
}

//===----------------------------------------------------------------------===//
// The measuring harness of the BENCH_*.json writers.
//===----------------------------------------------------------------------===//

/// Wall micros of one call of Body on the steady clock, the one clock
/// every bench harness times with.
template <typename Fn> uint64_t timeMicros(Fn &&Body) {
  auto T0 = std::chrono::steady_clock::now();
  Body();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
}

/// The example subjects under examples/minilang/. PATHFUZZ_EXAMPLES_DIR
/// overrides the baked-in source location (for out-of-tree runs).
inline std::vector<strategy::Subject> loadExampleSubjects() {
  std::string Dir =
      envStr("PATHFUZZ_EXAMPLES_DIR", PATHFUZZ_SOURCE_DIR "/examples/minilang");
  std::vector<strategy::Subject> Out;
  for (const char *Name : {"sum", "lookup", "checksum", "tokens", "rle"}) {
    std::ifstream F(Dir + "/" + Name + ".ml");
    if (!F)
      continue;
    std::ostringstream SS;
    SS << F.rdbuf();
    strategy::Subject S;
    S.Name = Name;
    S.Source = SS.str();
    if (S.Name == "lookup") {
      S.Seeds.push_back({'a', 'b', 'c'});
    } else {
      // The loop subjects scale with input length; a 1 KiB seed keeps
      // the measurement in the executor rather than in per-exec setup.
      fuzz::Input In(1024);
      Rng R(7);
      for (uint8_t &B : In)
        B = static_cast<uint8_t>(R.below(256));
      S.Seeds.push_back(std::move(In));
    }
    Out.push_back(std::move(S));
  }
  return Out;
}

/// One leg of a paired comparison: a timed body, run once per rep (the
/// rep index lets a leg vary per rep, e.g. a fresh store directory). A
/// campaign leg returns its result, which the timer serializes after the
/// clock stops; a raw leg returns std::nullopt.
using Leg =
    std::function<std::optional<strategy::CampaignResult>(uint32_t Rep)>;

/// The common leg: one campaign on a shared build.
inline Leg campaignLeg(strategy::SubjectBuild &SB,
                       strategy::CampaignOptions Opts) {
  return [&SB, Opts = std::move(Opts)](uint32_t) {
    return std::optional<strategy::CampaignResult>(
        strategy::runCampaign(SB, Opts));
  };
}

/// One leg's figures over all reps.
struct LegStats {
  uint64_t BestMicros = ~0ull; ///< best of N
  /// Median over reps of this leg's micros / leg 0's micros in the same
  /// rep (1 for leg 0): the paired cost ratio.
  double TimeRatio = 0.0;
  /// Campaign legs: every rep's serialized result matched this leg's rep
  /// 0, and matched leg 0's in the same rep.
  bool Deterministic = true;
  bool MatchesLeg0 = true;
  strategy::CampaignResult Result; ///< rep 0's result (campaign legs)
  std::vector<uint8_t> Bytes;      ///< its serializeCampaignResult bytes

  bool identical() const { return Deterministic && MatchesLeg0; }
  double speedup() const { return TimeRatio > 0 ? 1.0 / TimeRatio : 0.0; }
  /// Leg 0's best-of-N time over this leg's.
  double bestSpeedup(const LegStats &Leg0) const {
    return BestMicros ? double(Leg0.BestMicros) / double(BestMicros) : 0.0;
  }
  double overheadPct() const { return 100.0 * (TimeRatio - 1.0); }
  /// Units (execs, inputs) per second at the best-of-N time.
  double perSec(double Units) const {
    return BestMicros ? Units * 1e6 / double(BestMicros) : 0.0;
  }
};

/// Time every leg once per rep for Reps reps. Leg order rotates each rep
/// so no leg systematically runs first (cold) or last (warm), and each
/// rep's legs form one pair: machine drift within a rep taxes every leg
/// alike, which is why the ratio is a median of per-rep ratios rather
/// than a ratio of best-of-N times.
inline std::vector<LegStats> timeLegs(const std::vector<Leg> &Legs,
                                      uint32_t Reps) {
  const size_t N = Legs.size();
  std::vector<LegStats> St(N);
  std::vector<std::vector<double>> Ratios(N);
  for (uint32_t Rep = 0; Rep < Reps; ++Rep) {
    std::vector<uint64_t> Micros(N, 0);
    std::vector<std::optional<strategy::CampaignResult>> Results(N);
    for (size_t Pos = 0; Pos < N; ++Pos) {
      const size_t I = (Pos + Rep) % N;
      Micros[I] = timeMicros([&] { Results[I] = Legs[I](Rep); });
    }
    std::vector<std::vector<uint8_t>> Bytes(N);
    for (size_t I = 0; I < N; ++I) {
      LegStats &L = St[I];
      L.BestMicros = std::min(L.BestMicros, Micros[I]);
      if (Micros[0])
        Ratios[I].push_back(double(Micros[I]) / double(Micros[0]));
      if (!Results[I])
        continue;
      Bytes[I] = strategy::serializeCampaignResult(*Results[I]);
      L.MatchesLeg0 &= Bytes[I] == Bytes[0];
      if (Rep == 0) {
        L.Bytes = Bytes[I];
        L.Result = std::move(*Results[I]);
      } else {
        L.Deterministic &= Bytes[I] == L.Bytes;
      }
    }
  }
  for (size_t I = 0; I < N; ++I)
    St[I].TimeRatio = median(Ratios[I]);
  return St;
}

/// A JSON object's fields in insertion order. The text grows in a
/// std::string, so no record is ever truncated. Keys and string values
/// are bench-chosen identifiers and need no escaping.
class JsonFields {
public:
  JsonFields &str(const char *Key, const std::string &V) {
    return raw(Key, "\"" + V + "\"");
  }
  JsonFields &flag(const char *Key, bool V) {
    return raw(Key, V ? "true" : "false");
  }
  template <std::integral T> JsonFields &num(const char *Key, T V) {
    return raw(Key, std::to_string(V));
  }
  JsonFields &num(const char *Key, double V, int Digits = 3) {
    std::ostringstream O;
    O << std::fixed << std::setprecision(Digits) << V;
    return raw(Key, O.str());
  }
  /// A value that is already JSON (a nested object or an array).
  JsonFields &raw(const char *Key, const std::string &Json) {
    if (!Body.empty())
      Body += ',';
    Body += '"';
    Body += Key;
    Body += "\":";
    Body += Json;
    return *this;
  }
  const std::string &body() const { return Body; }
  std::string object() const { return "{" + Body + "}"; }

private:
  std::string Body;
};

/// "[A,B,...]" over already-JSON items.
inline std::string jsonArray(const std::vector<std::string> &Items) {
  std::string Out = "[";
  for (size_t I = 0; I < Items.size(); ++I)
    Out += (I ? "," : "") + Items[I];
  return Out + "]";
}

/// Write the record {"name":Name, Fields...} to DefaultPath
/// (PATHFUZZ_BENCH_OUT overrides it) and return the process exit code,
/// which reflects only the identity verdict. With Configs, the fields
/// are spliced in before the "configs" array benchJsonFromJsonl builds
/// from those campaigns' traces. An export failure is a warning.
inline int
writeRecord(const std::string &Name, const char *DefaultPath,
            const JsonFields &Fields, bool Identical,
            std::initializer_list<const strategy::CampaignResult *> Configs =
                {}) {
  std::string Doc;
  if (Configs.size()) {
    std::vector<const telemetry::CampaignTrace *> Traces;
    for (const strategy::CampaignResult *R : Configs)
      if (R->Trace)
        Traces.push_back(R->Trace.get());
    Doc = telemetry::benchJsonFromJsonl(telemetry::mergedJsonl(Traces), Name);
    Doc.insert(Doc.find("\"configs\":"), Fields.body() + ",");
  } else {
    Doc = "{\"name\":\"" + Name + "\"," + Fields.body() + "}\n";
  }
  std::string OutPath = envStr("PATHFUZZ_BENCH_OUT", DefaultPath);
  std::string Err;
  if (telemetry::exportFile(OutPath, Doc, &Err))
    std::printf("\nwrote %s\n", OutPath.c_str());
  else
    std::fprintf(stderr, "warning: bench record export failed: %s\n",
                 Err.c_str());
  return Identical ? 0 : 1;
}

} // namespace bench
} // namespace pathfuzz

#endif // PATHFUZZ_BENCH_BENCHCOMMON_H
