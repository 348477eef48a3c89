//===- table5_overhead.cpp - Table V / Appendix A reproduction ----------------===//
//
// Part of the pathfuzz project.
//
// Reproduces Appendix A's instrumentation-overhead study: replay a
// queue's worth of inputs under the pcguard and the path instrumentation
// and compare wall-clock processing times (including the coverage-novelty
// check, as the paper's measurement does). The paper reports a geomean
// ratio of 1.26; the claim under test is that paths are tracked "with
// costs almost comparable" to edge coverage — i.e. the ratio stays near 1.
//
// The replay corpus is generated by a short pcguard campaign per subject
// so both instrumentations process identical inputs.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "cov/CoverageMap.h"
#include "lang/Compile.h"
#include "vm/Vm.h"

#include <chrono>

using namespace pathfuzz;
using namespace pathfuzz::bench;
using namespace pathfuzz::strategy;

namespace {

/// Replay all inputs once, trace + classify + novelty-check each (the
/// paper measures AFL++'s initial seed processing, which does the same
/// work per input). Returns seconds.
double replayCorpus(const mir::Module &M, const instr::InstrumentReport &Rep,
                    const instr::ShadowEdgeIndex &Shadow,
                    const std::vector<fuzz::Input> &Corpus, int Reps) {
  vm::Vm Machine(M, &Shadow);
  cov::CoverageMap Trace(16);
  cov::VirginMap Virgin(Trace.size());
  vm::ExecOptions EO;
  EO.RecordShadowEdges = false; // measure the instrumentation itself

  auto Start = std::chrono::steady_clock::now();
  for (int R = 0; R < Reps; ++R) {
    for (const fuzz::Input &In : Corpus) {
      Trace.reset();
      vm::FeedbackContext Fb;
      Fb.Map = Trace.data();
      Fb.MapMask = Trace.mask();
      Fb.FuncKeys = Rep.FuncKeys.data();
      Machine.run(In.data(), In.size(), EO, &Fb);
      Trace.classifyCounts();
      Virgin.hasNewBits(Trace);
    }
  }
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(End - Start).count();
}

} // namespace

int main() {
  BenchConfig C = BenchConfig::fromEnv();
  C.printHeader("Table V (Appendix A): seed-replay time, pcguard vs path "
                "instrumentation");

  const int Reps = static_cast<int>(envU64("REPRO_REPLAY_REPS", 5));

  Table T;
  T.setHeader(
      {"Benchmark", "corpus", "pcguard (ms)", "path (ms)", "path/pcguard"});

  std::vector<double> Ratios;
  for (const Subject &S : C.Subjects) {
    // Build a replay corpus with a short pcguard campaign.
    CampaignOptions Opts = C.campaignOptions();
    Opts.Kind = FuzzerKind::Pcguard;
    Opts.ExecBudget = std::min<uint64_t>(C.Execs, 10000);

    lang::CompileResult CR = lang::compileSource(S.Source, S.Name);
    mir::Module Base = std::move(*CR.Mod);
    instr::ShadowEdgeIndex Shadow = instr::ShadowEdgeIndex::build(Base);

    instr::InstrumentOptions IOEdge;
    IOEdge.Mode = instr::Feedback::EdgePrecise;
    mir::Module EdgeMod = Base;
    instr::InstrumentReport EdgeRep = instr::instrumentModule(EdgeMod, IOEdge);

    instr::InstrumentOptions IOPath;
    IOPath.Mode = instr::Feedback::Path;
    mir::Module PathMod = Base;
    instr::InstrumentReport PathRep = instr::instrumentModule(PathMod, IOPath);

    // Corpus: run a short pcguard campaign and take its queue.
    std::vector<fuzz::Input> Corpus = S.Seeds;
    {
      fuzz::FuzzerOptions FO;
      FO.Seed = C.Seed;
      fuzz::Fuzzer F(EdgeMod, EdgeRep, Shadow, FO);
      for (const fuzz::Input &Seed : S.Seeds)
        F.addSeed(Seed);
      F.run(Opts.ExecBudget);
      for (const fuzz::QueueEntry &E : F.corpus().entries())
        Corpus.push_back(E.Data);
    }

    // Warm up, then measure each instrumentation.
    replayCorpus(EdgeMod, EdgeRep, Shadow, Corpus, 1);
    double EdgeSec = replayCorpus(EdgeMod, EdgeRep, Shadow, Corpus, Reps);
    double PathSec = replayCorpus(PathMod, PathRep, Shadow, Corpus, Reps);
    double Ratio = EdgeSec > 0 ? PathSec / EdgeSec : 0;
    Ratios.push_back(Ratio);

    T.addRow({S.Name, Table::num(uint64_t(Corpus.size())),
              Table::fixed(EdgeSec * 1000, 2), Table::fixed(PathSec * 1000, 2),
              Table::fixed(Ratio)});
  }
  T.addRow({"GEOMEAN", "", "", "", Table::fixed(geomean(Ratios))});
  T.print();
  return 0;
}
