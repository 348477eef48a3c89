//===- main.cpp - Campaign benchmark binary -------------------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// One benchmark for the unit the paper evaluates: a fuzzing campaign at a
// fixed exec budget, measured end to end and, in a separate traced run,
// layer by layer. Two workloads (see workloads.json for the recipes and
// the layer -> metric -> workload predictions):
//
//   paper_mix       18 subjects x {path, pcguard, cull, opp, prescient},
//                   in process on a warmed build cache;
//   loop_examples   the 5 examples/minilang programs x {path, pcguard},
//                   in process (long VM loops: engine and selective tier).
//
// The traced run also serves the workload's cells through a
// pathfuzz-serve daemon with a durable store, fed open loop, for the
// service and store layers (Served.cpp).
//
//   campaign_bench --workload W --seed N --seconds S --trace 0|1
//                  --serve-bin PATH --run-dir DIR
//
// Every result is checked against the same cell run on the reference
// interpreter with selective execution off (serializeCampaignResult
// byte identity). The last stdout line is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// The untraced run prints the end-to-end metrics; the traced run keeps
// spans in memory, writes them to <run-dir>/spans.jsonl at exit, and
// prints the per-layer metrics. campaignbench/run.py builds and runs this.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace pathfuzz;
using namespace pathfuzz::cbench;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: campaign_bench --workload paper_mix|loop_examples "
               "--seed N --seconds S --trace 0|1\n"
               "                      --serve-bin PATH --run-dir DIR\n");
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return false;
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Value;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
      if (*End || Value.empty())
        return false;
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      if (*End || !(A.Seconds > 0))
        return false;
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        return false;
      A.Trace = Value == "1";
    } else if (Flag == "--serve-bin") {
      A.ServeBin = Value;
    } else if (Flag == "--run-dir") {
      A.RunDir = Value;
    } else {
      return false;
    }
  }
  return !A.RunDir.empty() &&
         (A.Workload == "paper_mix" || A.Workload == "loop_examples");
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    usage();
    return 2;
  }
  Outcome O = runInProcess(A);
  if (!O.Error.empty()) {
    std::fprintf(stderr, "campaign_bench: %s\n", O.Error.c_str());
    return 1;
  }
  printOutcome(O);
  return O.Correct ? 0 : 1;
}
