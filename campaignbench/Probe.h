//===- Probe.h - Per-layer ledger of the traced run -------------*- C++ -*-===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// The traced run's per-layer numbers. A replay probe re-creates each
// cell's fuzzer from the benchmark (same options the campaign driver
// derives), drives it to the cell's budget, and then times the public
// calls of each layer on that final state: Mutator::havoc,
// Fuzzer::executeRaw, CoverageMap reset/classify/checksum,
// VirginMap novelty, Corpus::add and favored-set culling, Fuzzer
// snapshot/restore, CampaignStore write/recover and serve::parseRequest.
// Per-call times scaled by the campaign's own counts (execs, selective
// replays, queue adds) give each layer's share of the time of an untraced
// runCampaign of the cell, timed on the same thread just before the probe
// so that both see the machine at the same speed; the unexplained
// remainder is fuzz.loop_other_share.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_CAMPAIGNBENCH_PROBE_H
#define PATHFUZZ_CAMPAIGNBENCH_PROBE_H

#include "Bench.h"

namespace pathfuzz {
namespace cbench {

/// One campaign whose layers the probe explains.
struct CellCampaign {
  const Cell *C = nullptr;
  /// The traced campaign's result (its Trace carries the program's
  /// counters).
  const strategy::CampaignResult *R = nullptr;
};

/// Named per-layer values; metrics() lists them in BENCHMARK.json order.
struct LayerLedger {
  std::map<std::string, double> Values;

  void set(const std::string &Name, double V) { Values[Name] = V; }
  void addBuild(const SetupCost &Setup);
  std::vector<Metric> metrics() const;
};

/// Replay-probe every campaign and fold the program's counters in.
LayerLedger probeLayers(strategy::BuildCache &Cache,
                        const std::vector<CellCampaign> &Campaigns,
                        const std::string &RunDir, SpanLog *Log);

/// The traced run of a set of cells, in process: untraced passes for half
/// of Seconds, traced passes for the other half (their difference is
/// trace_overhead_pct), every campaign checked into O against the
/// reference, then probeLayers over the traced campaigns, the campaign
/// time by kind (strategy.campaign_s.<kind>, with one campaign per
/// program for kinds the cells lack) and probeService.
LayerLedger replayLedger(const std::vector<Cell> &Cells, const Args &A,
                         double Seconds, SpanLog *Log, Outcome &O);

/// The service and store layers (Served.cpp): one round of paper_mix's
/// (subject, kind) pairs with small budgets and seeded tenants, served
/// open loop through a pathfuzz-serve daemon with a durable store root.
/// Sets the serve.* and store.checkpoints / store.ckpt_bytes values of L
/// and checks every result into O.
void probeService(const Args &A, SpanLog *Log, LayerLedger &L, Outcome &O);

} // namespace cbench
} // namespace pathfuzz

#endif // PATHFUZZ_CAMPAIGNBENCH_PROBE_H
