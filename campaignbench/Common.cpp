//===- Common.cpp - Campaign benchmark shared pieces ----------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "strategy/Batch.h"
#include "support/Hashing.h"
#include "support/Rng.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/resource.h>

namespace pathfuzz {
namespace cbench {

using strategy::CampaignOptions;
using strategy::FuzzerKind;
using strategy::Subject;

void printOutcome(const Outcome &O) {
  std::string Line = "{\"correct\": ";
  Line += O.Correct ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(O.Attempted);
  Line += ", \"failed\": " + std::to_string(O.Failed);
  Line += ", \"metrics\": {";
  for (size_t I = 0; I < O.Metrics.size(); ++I) {
    const Metric &M = O.Metrics[I];
    char Buf[64];
    // %.17g keeps every digit the measurement has.
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(M.Value) ? M.Value : 0.0);
    Line += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Buf +
            ", \"unit\": \"" + M.Unit + "\"}";
  }
  Line += "}}";
  std::fflush(stderr);
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

SpanLog::SpanLog() : T0(Clock::now()) {}

uint64_t SpanLog::open(SpanLog *Log, const std::string &Name, uint64_t Parent,
                       uint64_t Campaign) {
  if (!Log)
    return 0;
  double Now = secondsBetween(Log->T0, Clock::now());
  std::lock_guard<std::mutex> G(Log->M);
  Log->Spans.push_back({Name, Parent, Campaign, Now, -1});
  return Log->Spans.size();
}

void SpanLog::close(SpanLog *Log, uint64_t Id) {
  if (!Log || !Id)
    return;
  double Now = secondsBetween(Log->T0, Clock::now());
  std::lock_guard<std::mutex> G(Log->M);
  Log->Spans[Id - 1].End = Now;
}

bool SpanLog::write(const std::string &Path) const {
  std::lock_guard<std::mutex> G(M);
  std::ofstream F(Path);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "\",\"id\":%zu,\"parent\":%" PRIu64 ",\"campaign\":%" PRIu64
                  ",\"start\":%.9f,\"end\":%.9f}\n",
                  I + 1, S.Parent, S.Campaign, S.Start, S.End);
    F << "{\"name\":\"" << S.Name << Buf;
  }
  return static_cast<bool>(F);
}

//===----------------------------------------------------------------------===//
// Cells and builds
//===----------------------------------------------------------------------===//

std::string Cell::key() const {
  std::string K = Tenant.empty() ? "" : Tenant + "--";
  return K + S->Name + "-" + strategy::fuzzerKindName(Kind) + "-s" +
         std::to_string(Seed) + "-b" + std::to_string(Budget);
}

CampaignOptions Cell::options() const {
  CampaignOptions O;
  O.Kind = Kind;
  O.Seed = Seed;
  O.ExecBudget = Budget;
  return O;
}

std::string Cell::submitLine() const {
  // In-process cells have no tenant, so their line names a fixed one.
  return "{\"verb\":\"submit\",\"tenant\":\"" +
         (Tenant.empty() ? std::string("local") : Tenant) +
         "\",\"subject\":\"" + S->Name + "\",\"fuzzer\":\"" +
         strategy::fuzzerKindName(Kind) + "\",\"seed\":" +
         std::to_string(Seed) + ",\"budget\":" + std::to_string(Budget) +
         "}";
}

const std::vector<FuzzerKind> &paperKinds() {
  static const std::vector<FuzzerKind> Kinds = {
      FuzzerKind::Path, FuzzerKind::Pcguard, FuzzerKind::Cull,
      FuzzerKind::Opp, FuzzerKind::Prescient};
  return Kinds;
}

std::vector<Subject> exampleSubjects(std::string *Err) {
  std::vector<Subject> Out;
  for (const char *Name : {"sum", "lookup", "checksum", "tokens", "rle"}) {
    std::string Path = std::string("examples/minilang/") + Name + ".ml";
    std::ifstream F(Path);
    if (!F) {
      *Err = "cannot read " + Path;
      return {};
    }
    std::ostringstream SS;
    SS << F.rdbuf();
    Subject S;
    S.Name = Name;
    S.Source = SS.str();
    if (std::string(Name) == "lookup") {
      S.Seeds.push_back({'a', 'b', 'c'});
    } else {
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

std::vector<instr::Feedback> feedbackModes(FuzzerKind K) {
  switch (K) {
  case FuzzerKind::Path:
  case FuzzerKind::Cull:
  case FuzzerKind::CullRandom:
    return {instr::Feedback::Path};
  case FuzzerKind::Opp:
    return {instr::Feedback::EdgePrecise, instr::Feedback::Path};
  case FuzzerKind::Afl:
  case FuzzerKind::PathAfl:
    return {instr::Feedback::EdgeClassic};
  case FuzzerKind::Pcguard:
  case FuzzerKind::Prescient:
    break;
  }
  return {instr::Feedback::EdgePrecise};
}

SetupCost warmBuilds(strategy::BuildCache &Cache,
                     const std::vector<Cell> &Cells, SpanLog *Log) {
  SetupCost C;
  ScopedSpan Top(Log, "setup");
  auto T0 = Clock::now();
  auto Ms = [](Clock::time_point A) {
    return 1e3 * secondsBetween(A, Clock::now());
  };
  std::map<std::string, bool> Compiled, Reached;
  std::map<std::pair<std::string, int>, bool> Instrumented;
  for (const Cell &Cl : Cells) {
    const std::string &Name = Cl.S->Name;
    std::shared_ptr<strategy::SubjectBuild> SB;
    {
      auto T = Clock::now();
      ScopedSpan Sp(Log, "strategy.BuildCache.get", Top.id());
      SB = Cache.get(*Cl.S);
      if (!Compiled[Name])
        C.CompileMs += Ms(T);
      Compiled[Name] = true;
    }
    if (!SB->ok()) {
      C.Ok = false;
      continue;
    }
    CampaignOptions Opts = Cl.options();
    for (instr::Feedback Mode : feedbackModes(Cl.Kind)) {
      auto Key = std::make_pair(Name, static_cast<int>(Mode));
      if (Instrumented[Key])
        continue;
      Instrumented[Key] = true;
      auto T = Clock::now();
      ScopedSpan Sp(Log, "strategy.SubjectBuild.tryInstrumented", Top.id());
      const strategy::InstrumentedBuild *B = SB->tryInstrumented(Mode, Opts);
      C.InstrumentMs += Ms(T);
      if (!B) {
        C.Ok = false;
        continue;
      }
      if (B->Jit)
        C.JitCodeBytes += B->Jit->stats().CodeBytes;
      if (B->CheapJit)
        C.JitCodeBytes += B->CheapJit->stats().CodeBytes;
    }
    if (Cl.Kind == FuzzerKind::Prescient && !Reached[Name]) {
      Reached[Name] = true;
      auto T = Clock::now();
      ScopedSpan Sp(Log, "strategy.SubjectBuild.reachability", Top.id());
      (void)SB->reachability();
      C.ReachMs += Ms(T);
    }
  }
  C.TotalS = secondsBetween(T0, Clock::now());
  return C;
}

SetupCost medianSetup(const std::vector<Cell> &Cells, unsigned MinReps,
                      SpanLog *Log) {
  std::vector<SetupCost> Runs;
  const auto T0 = Clock::now();
  while (Runs.size() < MinReps || secondsBetween(T0, Clock::now()) < 0.5) {
    strategy::BuildCache Cache;
    Runs.push_back(warmBuilds(Cache, Cells, Log));
  }
  std::sort(Runs.begin(), Runs.end(),
            [](const SetupCost &A, const SetupCost &B) {
              return A.TotalS < B.TotalS;
            });
  SetupCost Mid = Runs[Runs.size() / 2];
  for (const SetupCost &R : Runs)
    Mid.Ok &= R.Ok;
  return Mid;
}

std::string resultDigest(const std::vector<uint8_t> &Blob) {
  // FNV-1a plus the length: enough to spot a divergence between two runs
  // of one cell (not a defence against crafted collisions).
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64 "-%zu",
                fnv1a(Blob.data(), Blob.size()), Blob.size());
  return Buf;
}

std::vector<std::string> referenceDigests(const std::vector<Cell> &Cells) {
  std::vector<strategy::BatchJob> Jobs;
  for (const Cell &C : Cells) {
    strategy::BatchJob J;
    J.S = C.S;
    J.Opts = C.options();
    J.Opts.VmMode = vm::VmExecMode::Interpreter;
    J.Opts.Selective = vm::SelectiveMode::Off;
    Jobs.push_back(J);
  }
  std::vector<strategy::BatchJobStatus> Status;
  std::vector<strategy::CampaignResult> Results =
      strategy::runCampaigns(Jobs, workerThreads(), nullptr, &Status);
  std::vector<std::string> Out(Cells.size());
  for (size_t I = 0; I < Cells.size(); ++I)
    if (Status[I].Ok)
      Out[I] = resultDigest(strategy::serializeCampaignResult(Results[I]));
  return Out;
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double selfPeakRssMiB() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

unsigned workerThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return std::clamp(N, 1u, 4u);
}

} // namespace cbench
} // namespace pathfuzz
