//===- Probe.cpp - Per-layer ledger of the traced run ---------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "Probe.h"

#include "fuzz/Fuzzer.h"
#include "fuzz/Snapshot.h"
#include "serve/Protocol.h"
#include "strategy/Store.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <thread>

namespace pathfuzz {
namespace cbench {

using strategy::FuzzerKind;

namespace {

/// The per-layer metrics in BENCHMARK.json order, with their units.
const std::pair<const char *, const char *> PerLayer[] = {
    {"lang.compile_ms", "ms"},
    {"instrument.build_ms", "ms"},
    {"analysis.reach_ms", "ms"},
    {"vm.jit.code_bytes", "bytes"},
    {"vm.exec_us", "us"},
    {"vm.cheap_exec_us", "us"},
    {"vm.steps_per_exec", "steps"},
    {"vm.ns_per_step", "ns"},
    {"vm.jit.bailouts", "count"},
    {"vm.selective.replay_ratio", "ratio"},
    {"cov.reset_us", "us"},
    {"cov.classify_us", "us"},
    {"cov.novelty_us", "us"},
    {"cov.checksum_us", "us"},
    {"cov.bytes_set", "bytes"},
    {"fuzz.mutate_us", "us"},
    {"fuzz.queue_add_us", "us"},
    {"fuzz.queue_cull_us", "us"},
    {"fuzz.queue_size", "entries"},
    {"fuzz.adds_per_kexec", "count"},
    {"vm.exec_share", "ratio"},
    {"cov.map_share", "ratio"},
    {"fuzz.mutate_share", "ratio"},
    {"fuzz.queue_share", "ratio"},
    {"fuzz.loop_other_share", "ratio"},
    {"strategy.campaign_s.path", "s"},
    {"strategy.campaign_s.pcguard", "s"},
    {"strategy.campaign_s.cull", "s"},
    {"strategy.campaign_s.opp", "s"},
    {"strategy.campaign_s.prescient", "s"},
    {"fuzz.snapshot_us", "us"},
    {"fuzz.snapshot_bytes", "bytes"},
    {"fuzz.restore_us", "us"},
    {"store.write_ms", "ms"},
    {"store.recover_ms", "ms"},
    {"store.checkpoints", "count"},
    {"store.ckpt_bytes", "bytes"},
    {"serve.parse_us", "us"},
    {"serve.submit_ms_p50", "ms"},
    {"serve.submit_ms_p90", "ms"},
    {"serve.queue_wait_s", "s"},
    {"serve.slices_per_campaign", "count"},
    {"serve.preempted", "count"},
    {"serve.campaign_s_p50", "s"},
    {"serve.campaign_s_p90", "s"},
    {"serve.peak_rss_mib", "MiB"},
    {"trace_overhead_pct", "%"},
};

/// Minimum time spent timing one call site: long enough to average over
/// the corpus, short enough that 90 cells probe in a few seconds.
constexpr double ProbeS = 0.005;

/// Inputs per cell the probe replays (evenly spaced over the corpus).
constexpr size_t ProbeInputs = 32;

/// Mean microseconds per call of Fn(0), Fn(1), ..., called at least
/// MinCalls times and for at least ProbeS seconds.
template <typename F> double perCallUs(size_t MinCalls, F &&Fn) {
  const auto T0 = Clock::now();
  size_t N = 0;
  do
    Fn(N++);
  while (N < MinCalls || secondsBetween(T0, Clock::now()) < ProbeS);
  return 1e6 * secondsBetween(T0, Clock::now()) / N;
}

/// The options the campaign driver gives a single-instance fuzzer of
/// cell C under the default engines. The prescient schedule weight is
/// left out, so a prescient cell probes as its pcguard base.
fuzz::FuzzerOptions fuzzerOptionsFor(const strategy::InstrumentedBuild &B,
                                     const Cell &C) {
  const strategy::CampaignOptions O = C.options();
  fuzz::FuzzerOptions FO;
  FO.MapSizeLog2 = O.MapSizeLog2;
  FO.Seed = O.Seed;
  FO.Mut.MaxLen = O.MaxInputLen;
  FO.Exec.StepLimit = O.StepLimit;
  FO.GrowthSampleInterval = O.GrowthSampleInterval;
  if (vm::fastPathEnabled(O.VmMode))
    FO.Image = B.Image.get();
  if (vm::jitEnabled(O.VmMode))
    FO.Jit = B.Jit.get();
  if (vm::selectiveEnabled(O.Selective)) {
    FO.Selective = true;
    FO.CheapImage = B.CheapImage.get();
    if (vm::jitEnabled(O.VmMode))
      FO.CheapJit = B.CheapJit.get();
  }
  return FO;
}

/// Per-call costs and counts of one cell's probe fuzzer.
struct CellProbe {
  /// Untraced runCampaign of the cell: the mean of one run just before
  /// and one just after the timed calls, so that a machine slowing down
  /// or speeding up during the probe affects both sides alike.
  double CampaignS = 0;
  double MutateUs = 0;
  double ExecUs = 0;      ///< full tier, map reset included
  double CheapExecUs = 0; ///< cheap tier, map reset included; 0 if none
  double StepsPerExec = 0;
  double ResetUs = 0;
  double ClassifyUs = 0;
  double NoveltyUs = 0;
  double ChecksumUs = 0;
  double BytesSet = 0;
  double QueueAddUs = 0;
  double QueueCullUs = 0;
  double Execs = 0;
  double Adds = 0;
  double Culls = 0;
  double SnapshotUs = 0;
  double SnapshotBytes = 0;
  double RestoreUs = 0;
  double StoreWriteMs = 0;
  double StoreRecoverMs = 0;
  double ParseUs = 0;
  bool Ok = true;
};

CellProbe probeCell(strategy::SubjectBuild &SB, const Cell &C,
                    const std::string &StoreRoot, SpanLog *Log,
                    uint64_t Campaign) {
  CellProbe P;
  // Results of timed calls fold into Sink, which is stored to a volatile
  // at the end so the calls cannot be optimized away.
  uint64_t Sink = 0;
  const strategy::InstrumentedBuild &B =
      SB.instrumented(feedbackModes(C.Kind).back(), C.options());
  const fuzz::FuzzerOptions FO = fuzzerOptionsFor(B, C);
  auto TimeCampaign = [&] {
    ScopedSpan Sp(Log, "strategy.runCampaign", 0, Campaign);
    const auto T0 = Clock::now();
    strategy::CampaignError Err;
    (void)strategy::runCampaign(SB, C.options(), &Err);
    P.CampaignS += secondsBetween(T0, Clock::now()) / 2;
    P.Ok &= !Err.Failed;
  };
  TimeCampaign();
  fuzz::Fuzzer F(B.Mod, B.Report, SB.shadow(), FO);
  {
    ScopedSpan Sp(Log, "fuzz.Fuzzer.run", 0, Campaign);
    for (const fuzz::Input &Seed : SB.subject().Seeds)
      F.addSeed(Seed);
    F.run(C.Budget);
  }
  ScopedSpan Top(Log, "probe", 0, Campaign);
  const std::vector<fuzz::QueueEntry> &Entries = F.corpus().entries();
  if (Entries.empty()) {
    P.Ok = false;
    return P;
  }
  P.Execs = static_cast<double>(F.stats().Execs);
  P.Adds = static_cast<double>(
      Entries.size() - std::min(Entries.size(), SB.subject().Seeds.size()));
  P.Culls = static_cast<double>(F.corpus().cullPasses());

  // Snapshot, restore and the durable store, on the final state.
  std::vector<uint8_t> Snap;
  {
    ScopedSpan Sp(Log, "fuzz.Fuzzer.snapshot", Top.id(), Campaign);
    P.SnapshotUs = perCallUs(3, [&](size_t) { Snap = F.snapshot(); });
  }
  P.SnapshotBytes = static_cast<double>(Snap.size());
  {
    ScopedSpan Sp(Log, "fuzz.Fuzzer.restore", Top.id(), Campaign);
    fuzz::Fuzzer Fresh(B.Mod, B.Report, SB.shadow(), FO);
    P.RestoreUs =
        perCallUs(3, [&](size_t) { P.Ok &= Fresh.restore(Snap); });
  }
  ByteWriter W;
  strategy::writeOptionsFingerprint(W, C.options());
  W.blob(Snap);
  const std::vector<uint8_t> Ckpt = fuzz::sealSnapshot(W.take());
  {
    ScopedSpan Sp(Log, "strategy.CampaignStore", Top.id(), Campaign);
    std::string Err;
    std::unique_ptr<strategy::CampaignStore> Store =
        strategy::CampaignStore::open(StoreRoot + "/" + C.key(), C.S->Name,
                                      C.options(), &Err);
    if (Store) {
      P.StoreWriteMs =
          1e-3 * perCallUs(3, [&](size_t) { P.Ok &= Store->writeCheckpoint(Ckpt); });
      std::vector<uint8_t> Back;
      P.StoreRecoverMs =
          1e-3 * perCallUs(3, [&](size_t) { P.Ok &= Store->recover(Back); });
      P.Ok &= Back == Ckpt;
    } else {
      P.Ok = false;
    }
  }

  std::vector<const fuzz::Input *> In;
  const size_t K = std::min(ProbeInputs, Entries.size());
  for (size_t I = 0; I < K; ++I)
    In.push_back(&Entries[I * Entries.size() / K].Data);

  // The loop executes mutants, which tend to take shorter paths than the
  // corpus entries they come from; the exec and map calls run on one
  // mutant of each probe input.
  std::vector<fuzz::Input> Mutants;
  {
    ScopedSpan Sp(Log, "fuzz.Mutator.havoc", Top.id(), Campaign);
    Rng R(C.Seed ^ 0x9e3779b97f4a7c15ull);
    fuzz::Mutator Mu(R, FO.Mut);
    P.MutateUs = perCallUs(K, [&](size_t I) {
      fuzz::Input D = *In[I % K];
      Mu.havoc(D, F.cmpDict());
      if (Mutants.size() < K)
        Mutants.push_back(D);
    });
  }
  {
    ScopedSpan Sp(Log, "fuzz.Fuzzer.executeRaw", Top.id(), Campaign);
    uint64_t Steps = 0, Calls = 0;
    P.ExecUs = perCallUs(K, [&](size_t I) {
      Steps += F.executeRaw(Mutants[I % K]).Steps;
      ++Calls;
    });
    P.StepsPerExec = static_cast<double>(Steps) / Calls;
  }
  if (FO.Selective && FO.CheapImage) {
    // The cheap tier through the same public call: a fuzzer whose image
    // is the probe-free twin.
    ScopedSpan Sp(Log, "fuzz.Fuzzer.executeRaw.cheap", Top.id(), Campaign);
    fuzz::FuzzerOptions CO = FO;
    CO.Image = FO.CheapImage;
    CO.Jit = FO.CheapJit;
    CO.Selective = false;
    fuzz::Fuzzer Cheap(B.Mod, B.Report, SB.shadow(), CO);
    P.CheapExecUs = perCallUs(K, [&](size_t I) {
      Sink += Cheap.executeRaw(Mutants[I % K]).Steps;
    });
  }

  // The map layer on the traces of the probe inputs.
  ScopedSpan MapSpan(Log, "cov", Top.id(), Campaign);
  vm::Vm Machine(B.Mod, &SB.shadow());
  if (FO.Image)
    Machine.attachImage(FO.Image);
  if (FO.Jit)
    Machine.attachJit(FO.Jit);
  std::vector<cov::CoverageMap> Maps(K, cov::CoverageMap(FO.MapSizeLog2));
  for (size_t I = 0; I < K; ++I) {
    vm::FeedbackContext Fb;
    Fb.Map = Maps[I].data();
    Fb.MapMask = Maps[I].mask();
    Fb.FuncKeys = B.Report.FuncKeys.data();
    (void)Machine.run(Mutants[I].data(), Mutants[I].size(), FO.Exec, &Fb);
  }
  cov::CoverageMap Work(FO.MapSizeLog2);
  const size_t MapBytes = Work.size();
  P.ResetUs = perCallUs(K, [&](size_t) { Work.reset(); });
  const double CopyUs = perCallUs(K, [&](size_t I) {
    std::memcpy(Work.data(), Maps[I % K].data(), MapBytes);
  });
  P.ClassifyUs = std::max(0.0, perCallUs(K, [&](size_t I) {
                                 std::memcpy(Work.data(), Maps[I % K].data(),
                                             MapBytes);
                                 Work.classifyCounts();
                               }) - CopyUs);
  for (cov::CoverageMap &M : Maps) {
    M.classifyCounts();
    P.BytesSet += static_cast<double>(M.countBytes()) / K;
  }
  cov::VirginMap Virgin(Work.size());
  for (const cov::CoverageMap &M : Maps)
    (void)Virgin.hasNewBits(M);
  // Every probe trace is already folded into Virgin, so hasNewBits finds
  // nothing new and leaves it unchanged: the common case of the loop.
  P.NoveltyUs = perCallUs(K, [&](size_t I) {
    Sink += static_cast<uint64_t>(Virgin.hasNewBits(Maps[I % K]));
  });
  P.ChecksumUs =
      perCallUs(K, [&](size_t I) { Sink += Maps[I % K].checksum(); });

  {
    ScopedSpan Sp(Log, "fuzz.Corpus", Top.id(), Campaign);
    std::vector<fuzz::QueueEntry> Copies = Entries;
    fuzz::Corpus Q(Work.size());
    double AddS = 0;
    for (fuzz::QueueEntry &E : Copies) {
      const auto T = Clock::now();
      Q.add(std::move(E));
      AddS += secondsBetween(T, Clock::now());
    }
    P.QueueAddUs = 1e6 * AddS / Entries.size();
    P.QueueCullUs = perCallUs(3, [&](size_t) { Q.recomputeFavored(); });
  }
  {
    ScopedSpan Sp(Log, "serve.parseRequest", Top.id(), Campaign);
    const std::string Line = C.submitLine();
    serve::Request Req;
    std::string Err;
    P.ParseUs = perCallUs(64, [&](size_t) {
      P.Ok &= serve::parseRequest(Line, Req, Err);
    });
  }
  TimeCampaign();
  static volatile uint64_t Keep;
  Keep = Sink;
  (void)Keep;
  return P;
}

/// The program's own counters for one traced campaign.
struct TraceCounts {
  double Skipped = 0;
  double Replays = 0;
  double Bailouts = 0;
  double StepSum = 0;
  double StepCount = 0;
};

TraceCounts traceCounts(const strategy::CampaignResult &R) {
  TraceCounts T;
  if (!R.Trace)
    return T;
  for (const telemetry::InstanceRecord &I : R.Trace->Instances) {
    auto Counter = [&I](const char *Name) -> double {
      auto It = I.Metrics.counters().find(Name);
      return It == I.Metrics.counters().end() ? 0 : It->second;
    };
    T.Skipped += Counter("vm.selective.skipped");
    T.Replays += Counter("vm.selective.replays");
    T.Bailouts += Counter("vm.jit.bailouts");
    auto H = I.Metrics.histograms().find("exec.steps");
    if (H != I.Metrics.histograms().end()) {
      T.StepSum += H->second.Sum;
      T.StepCount += H->second.Count;
    }
  }
  return T;
}

/// Probe key: one probe per (subject, kind) serves every seed of it.
std::string probeKey(const Cell &C) {
  return C.S->Name + "/" + strategy::fuzzerKindName(C.Kind);
}

} // namespace

void LayerLedger::addBuild(const SetupCost &Setup) {
  set("lang.compile_ms", Setup.CompileMs);
  set("instrument.build_ms", Setup.InstrumentMs);
  set("analysis.reach_ms", Setup.ReachMs);
  set("vm.jit.code_bytes", static_cast<double>(Setup.JitCodeBytes));
}

std::vector<Metric> LayerLedger::metrics() const {
  std::vector<Metric> Out;
  for (const auto &NU : PerLayer) {
    auto It = Values.find(NU.first);
    Out.push_back({NU.first, It == Values.end() ? 0 : It->second, NU.second});
  }
  return Out;
}

LayerLedger probeLayers(strategy::BuildCache &Cache,
                        const std::vector<CellCampaign> &Campaigns,
                        const std::string &RunDir, SpanLog *Log) {
  // One probe per (subject, kind), probed in parallel like the campaigns
  // ran, so per-call costs see the same neighbours.
  std::map<std::string, size_t> ProbeOf;
  std::vector<size_t> ToProbe;
  for (size_t I = 0; I < Campaigns.size(); ++I)
    if (ProbeOf.emplace(probeKey(*Campaigns[I].C), ToProbe.size()).second)
      ToProbe.push_back(I);
  std::vector<CellProbe> Probes(ToProbe.size());
  const std::string StoreRoot = RunDir + "/probe-store";
  std::error_code Ec;
  std::filesystem::remove_all(StoreRoot, Ec);
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t P; (P = Next.fetch_add(1)) < ToProbe.size();) {
      const Cell &C = *Campaigns[ToProbe[P]].C;
      Probes[P] = probeCell(*Cache.get(*C.S), C, StoreRoot, Log,
                            ToProbe[P] + 1);
    }
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < workerThreads(); ++T)
    Pool.emplace_back(Worker);
  for (std::thread &T : Pool)
    T.join();
  std::filesystem::remove_all(StoreRoot, Ec);

  // The program's counts over every campaign.
  double Execs = 0, Skipped = 0, Replays = 0, Bailouts = 0, StepSum = 0,
         StepCount = 0, Adds = 0, QueueSize = 0;
  std::map<std::string, std::pair<double, double>> ReplaysBySubject;
  for (const CellCampaign &CC : Campaigns) {
    const CellProbe &P = Probes[ProbeOf[probeKey(*CC.C)]];
    const TraceCounts T = traceCounts(*CC.R);
    const double N = static_cast<double>(CC.R->Execs);
    Execs += N;
    Skipped += T.Skipped;
    Replays += T.Replays;
    ReplaysBySubject[CC.C->S->Name].first += T.Replays;
    ReplaysBySubject[CC.C->S->Name].second += T.Skipped + T.Replays;
    Bailouts += T.Bailouts;
    StepSum += T.StepSum;
    StepCount += T.StepCount;
    Adds += P.Execs > 0 ? P.Adds / P.Execs * N : 0;
    QueueSize += static_cast<double>(CC.R->FinalQueueSize);
  }

  // Layer times of each probed campaign: per-call costs scaled by its
  // counts, against its probe's adjacent campaign time. Per-exec costs
  // are exec-weighted means over the probed campaigns.
  double ProbedExecs = 0, Busy = 0, ExecT = 0, MapT = 0, MutT = 0,
         QueueT = 0;
  std::map<std::string, double> PerExec;
  for (size_t Pi = 0; Pi < Probes.size(); ++Pi) {
    const CellCampaign &CC = Campaigns[ToProbe[Pi]];
    const CellProbe &P = Probes[Pi];
    const TraceCounts T = traceCounts(*CC.R);
    const double N = static_cast<double>(CC.R->Execs);
    const bool Selective = T.Skipped + T.Replays > 0;
    const double Full = Selective ? T.Replays : N;
    const double FullNet = std::max(0.0, P.ExecUs - P.ResetUs);
    const double CheapNet = std::max(0.0, P.CheapExecUs - P.ResetUs);
    const double AddsHere = P.Execs > 0 ? P.Adds / P.Execs * N : 0;
    const double CullsHere = P.Execs > 0 ? P.Culls / P.Execs * N : 0;
    ExecT += 1e-6 * ((Selective ? N * CheapNet : 0) + Full * FullNet);
    MapT += 1e-6 * Full * (P.ResetUs + P.ClassifyUs + P.NoveltyUs);
    MutT += 1e-6 * N * P.MutateUs;
    QueueT += 1e-6 * (AddsHere * (P.QueueAddUs + P.ChecksumUs) +
                      CullsHere * P.QueueCullUs);
    Busy += P.CampaignS;
    ProbedExecs += N;
    for (const auto &[Name, V] :
         {std::pair<const char *, double>{"vm.exec_us", P.ExecUs},
          {"vm.cheap_exec_us", P.CheapExecUs},
          {"vm.ns_per_step",
           P.StepsPerExec > 0 ? 1e3 * FullNet / P.StepsPerExec : 0},
          {"cov.reset_us", P.ResetUs},
          {"cov.classify_us", P.ClassifyUs},
          {"cov.novelty_us", P.NoveltyUs},
          {"cov.checksum_us", P.ChecksumUs},
          {"fuzz.mutate_us", P.MutateUs}})
      PerExec[Name] += V * N;
  }

  LayerLedger L;
  for (const auto &[Name, Sum] : PerExec)
    L.set(Name, ProbedExecs > 0 ? Sum / ProbedExecs : 0);
  L.set("vm.steps_per_exec", StepCount > 0 ? StepSum / StepCount : 0);
  L.set("vm.jit.bailouts", Bailouts);
  L.set("vm.selective.replay_ratio",
        Skipped + Replays > 0 ? Replays / (Skipped + Replays) : 1);
  L.set("fuzz.queue_size", QueueSize / Campaigns.size());
  L.set("fuzz.adds_per_kexec", Execs > 0 ? 1e3 * Adds / Execs : 0);
  L.set("vm.exec_share", ExecT / Busy);
  L.set("cov.map_share", MapT / Busy);
  L.set("fuzz.mutate_share", MutT / Busy);
  L.set("fuzz.queue_share", QueueT / Busy);
  L.set("fuzz.loop_other_share", 1 - (ExecT + MapT + MutT + QueueT) / Busy);

  std::map<std::string, double> Mean;
  bool Ok = true;
  for (const CellProbe &P : Probes) {
    Ok &= P.Ok;
    for (const auto &[Name, V] :
         {std::pair<const char *, double>{"cov.bytes_set", P.BytesSet},
          {"fuzz.queue_add_us", P.QueueAddUs},
          {"fuzz.queue_cull_us", P.QueueCullUs},
          {"fuzz.snapshot_us", P.SnapshotUs},
          {"fuzz.snapshot_bytes", P.SnapshotBytes},
          {"fuzz.restore_us", P.RestoreUs},
          {"store.write_ms", P.StoreWriteMs},
          {"store.recover_ms", P.StoreRecoverMs},
          {"serve.parse_us", P.ParseUs}})
      Mean[Name] += V / Probes.size();
  }
  for (const auto &[Name, V] : Mean)
    L.set(Name, V);
  if (!Ok)
    std::fprintf(stderr, "warning: a layer probe call failed\n");
  std::string ByProgram;
  for (const auto &[Name, RT] : ReplaysBySubject)
    if (RT.second > 0)
      ByProgram += " " + Name + " " + std::to_string(RT.first / RT.second);
  std::fprintf(stderr, "selective replay ratio by program:%s\n",
               ByProgram.c_str());
  return L;
}

LayerLedger replayLedger(const std::vector<Cell> &Cells, const Args &A,
                         double Seconds, SpanLog *Log, Outcome &O) {
  strategy::BuildCache Cache;
  (void)warmBuilds(Cache, Cells, nullptr);
  (void)runPass(Cache, Cells, false, nullptr);
  std::vector<Pass> Plain =
      timedPasses(Cache, Cells, Seconds / 2, 1, false, Log);
  std::vector<Pass> Traced =
      timedPasses(Cache, Cells, Seconds / 2, 1, true, Log);
  const std::vector<std::string> Ref = referenceDigests(Cells);
  checkPasses(Cells, Ref, Plain, O);
  checkPasses(Cells, Ref, Traced, O);

  const std::vector<double> Secs = cellSeconds(Plain, Cells.size());
  std::vector<CellCampaign> Campaigns;
  for (size_t I = 0; I < Cells.size(); ++I)
    Campaigns.push_back({&Cells[I], &Traced.front().Runs[I].Result});
  LayerLedger L = probeLayers(Cache, Campaigns, A.RunDir, Log);
  L.set("trace_overhead_pct",
        100.0 * (1.0 - execsPerSecond(Traced) / execsPerSecond(Plain)));

  // Campaign time by kind. A kind the cells lack gets one campaign per
  // program here, checked like the rest.
  std::map<FuzzerKind, std::vector<double>> ByKind;
  std::map<std::string, const strategy::Subject *> Subjects;
  for (size_t I = 0; I < Cells.size(); ++I) {
    ByKind[Cells[I].Kind].push_back(Secs[I]);
    Subjects[Cells[I].S->Name] = Cells[I].S;
  }
  std::vector<Cell> Extra;
  for (FuzzerKind K : paperKinds())
    if (!ByKind.count(K))
      for (const auto &NS : Subjects) {
        Cell C = Cells.front();
        C.S = NS.second;
        C.Kind = K;
        Extra.push_back(C);
      }
  if (!Extra.empty()) {
    (void)warmBuilds(Cache, Extra, nullptr);
    const std::vector<Pass> ExtraPass = {runPass(Cache, Extra, false, Log)};
    checkPasses(Extra, referenceDigests(Extra), ExtraPass, O);
    const std::vector<double> ExtraSecs = cellSeconds(ExtraPass, Extra.size());
    for (size_t I = 0; I < Extra.size(); ++I)
      ByKind[Extra[I].Kind].push_back(ExtraSecs[I]);
  }
  for (const auto &[K, V] : ByKind)
    L.set(std::string("strategy.campaign_s.") + strategy::fuzzerKindName(K),
          median(V));

  probeService(A, Log, L, O);
  std::fprintf(stderr,
               "%s traced: %zu cells, shares exec %.3f map %.3f mutate %.3f "
               "queue %.3f other %.3f, trace overhead %.1f%%\n",
               A.Workload.c_str(), Cells.size(), L.Values["vm.exec_share"],
               L.Values["cov.map_share"], L.Values["fuzz.mutate_share"],
               L.Values["fuzz.queue_share"],
               L.Values["fuzz.loop_other_share"],
               L.Values["trace_overhead_pct"]);
  return L;
}

} // namespace cbench
} // namespace pathfuzz
