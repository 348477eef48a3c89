//===- Scheduler.cpp - Multi-tenant campaign scheduler ------------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "serve/Scheduler.h"

#include "serve/Protocol.h"
#include "strategy/Store.h"
#include "support/Env.h"
#include "support/Signal.h"
#include "telemetry/Export.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <filesystem>

namespace pathfuzz {
namespace serve {

SchedulerConfig SchedulerConfig::fromEnv() {
  SchedulerConfig C;
  C.Threads = static_cast<size_t>(envU64("PATHFUZZ_SERVE_THREADS", 0));
  C.CheckpointInterval = envU64("PATHFUZZ_SERVE_INTERVAL", 0);
  C.SliceCheckpoints = static_cast<uint32_t>(
      std::max<uint64_t>(1, envU64("PATHFUZZ_SERVE_SLICE", 4)));
  C.MaxCampaigns = static_cast<size_t>(
      std::max<uint64_t>(1, envU64("PATHFUZZ_SERVE_MAX_CAMPAIGNS", 4096)));
  C.TenantMax = static_cast<size_t>(
      std::max<uint64_t>(1, envU64("PATHFUZZ_SERVE_TENANT_MAX", 1024)));
  C.CacheShards = static_cast<size_t>(
      std::max<uint64_t>(1, envU64("PATHFUZZ_SERVE_CACHE_SHARDS", 8)));
  return C;
}

const char *campaignStateName(CampaignState S) {
  switch (S) {
  case CampaignState::Queued:
    return "queued";
  case CampaignState::Running:
    return "running";
  case CampaignState::Done:
    return "done";
  case CampaignState::Cancelled:
    return "cancelled";
  case CampaignState::Failed:
    return "failed";
  }
  return "<bad-state>";
}

Scheduler::Scheduler(SchedulerConfig C, std::vector<strategy::Subject> Subs)
    : Cfg(std::move(C)), Subjects(std::move(Subs)),
      Pool(Cfg.Threads ? Cfg.Threads : ThreadPool::defaultThreadCount()) {
  if (Cfg.SliceCheckpoints == 0)
    Cfg.SliceCheckpoints = 1;
  if (Cfg.CacheShards == 0)
    Cfg.CacheShards = 1;
  for (const strategy::Subject &S : Subjects)
    SubjectsByName[S.Name] = &S;
  for (size_t I = 0; I < Cfg.CacheShards; ++I)
    Shards.push_back(std::make_unique<strategy::BuildCache>());
}

Scheduler::~Scheduler() { drain(); }

strategy::BuildCache &Scheduler::shardFor(const std::string &SubjectName) {
  return *Shards[std::hash<std::string>{}(SubjectName) % Shards.size()];
}

void Scheduler::enqueueLocked(Entry *E) {
  TenantQueue &T = Tenants[E->Tenant];
  E->State = CampaignState::Queued;
  T.Queue.push_back(E);
  ++T.Live;
  ++QueuedCount;
  ++LiveCount;
}

void Scheduler::pumpLocked() {
  if (Draining)
    return;
  while (ActiveSlices < Pool.threadCount()) {
    // Fair share: the tenant with the fewest slices running right now,
    // ties to the least recently scheduled one. A tenant with one short
    // campaign gets a worker ahead of a tenant already running several.
    TenantQueue *Best = nullptr;
    for (auto &KV : Tenants) {
      TenantQueue &T = KV.second;
      if (T.Queue.empty())
        continue;
      if (!Best || T.RunningSlices < Best->RunningSlices ||
          (T.RunningSlices == Best->RunningSlices &&
           T.LastPick < Best->LastPick))
        Best = &T;
    }
    if (!Best)
      break;
    Entry *E = Best->Queue.front();
    Best->Queue.pop_front();
    --QueuedCount;
    ++Best->RunningSlices;
    ++ActiveSlices;
    Best->LastPick = ++PickTick;
    E->State = CampaignState::Running;
    // Submitting from inside a worker (the follow-on pump after a slice)
    // is legal: the pool's Pending accounting covers chained jobs.
    Pool.submit([this, E] { runSlice(E); });
  }
}

void Scheduler::runSlice(Entry *E) {
  std::shared_ptr<strategy::SubjectBuild> B = shardFor(E->S->Name).get(*E->S);

  strategy::CampaignOptions Run = E->Opts;
  auto SliceCkpts = std::make_shared<std::atomic<uint64_t>>(0);
  const std::string Id = E->Id;
  // Runs after the store has durably persisted the checkpoint — the
  // kill-torture hook fires here with the blob already on disk.
  Run.CheckpointSink = [this, Id, SliceCkpts](const std::vector<uint8_t> &) {
    SliceCkpts->fetch_add(1, std::memory_order_relaxed);
    if (Cfg.OnCheckpointPersisted)
      Cfg.OnCheckpointPersisted(Id);
  };
  Run.StopRequest = [this, E, SliceCkpts] {
    std::lock_guard<std::mutex> L(M);
    // A process drain signal (SIGTERM/SIGINT) drains the whole scheduler:
    // without flipping Draining here, a preempted slice would requeue and
    // immediately restart on the freed worker.
    if (signals::drainRequested())
      Draining = true;
    if (Draining || E->CancelRequested)
      return true;
    // Yield the worker once the slice used its checkpoint allowance and
    // someone else is waiting; with an empty queue keep running — a
    // preemption nobody benefits from only costs a resume.
    return SliceCkpts->load(std::memory_order_relaxed) >=
               Cfg.SliceCheckpoints &&
           QueuedCount > 0;
  };

  // StoreDir is set, so this is a durable slice: recover from the newest
  // checkpoint, run until done or preempted, persist as it goes.
  strategy::CampaignError Err;
  strategy::CampaignResult R = strategy::runCampaign(*B, Run, &Err);

  std::lock_guard<std::mutex> L(M);
  finishSliceLocked(E, R, Err);
}

void Scheduler::finishSliceLocked(Entry *E, const strategy::CampaignResult &R,
                                  const strategy::CampaignError &Err) {
  TenantQueue &T = Tenants[E->Tenant];
  --T.RunningSlices;
  --ActiveSlices;
  ++E->Slices;
  *Metrics.counter("serve.slices") += 1;

  if (Err.Preempted) {
    // Partial findings for status/series; the byte-identical final result
    // comes from the store once the remaining slices run.
    E->Last = R;
    *Metrics.counter("serve.preempted") += 1;
    if (E->CancelRequested) {
      E->State = CampaignState::Cancelled;
      --T.Live;
      --LiveCount;
      *Metrics.counter("serve.cancelled") += 1;
    } else {
      E->State = CampaignState::Queued;
      T.Queue.push_back(E); // tenant tail: siblings run before a retry
      ++QueuedCount;
    }
  } else if (Err.Failed) {
    E->State = CampaignState::Failed;
    E->Error = Err.Message;
    --T.Live;
    --LiveCount;
    *Metrics.counter("serve.failed") += 1;
  } else {
    E->State = CampaignState::Done;
    E->Last = R;
    E->Error.clear();
    --T.Live;
    --LiveCount;
    *Metrics.counter("serve.done") += 1;
  }
  pumpLocked();
  IdleCv.notify_all();
}

bool Scheduler::submit(const std::string &Tenant, const std::string &SubjectName,
                       const std::string &FuzzerName, uint64_t Seed,
                       uint64_t Budget, bool Trace, std::string &IdOut,
                       bool &Existing, std::string &Err) {
  strategy::FuzzerKind K;
  if (Cfg.Root.empty()) {
    Err = "scheduler has no store root";
    return false;
  }
  if (!validTenantName(Tenant)) {
    Err = "invalid tenant name";
    return false;
  }
  if (!strategy::fuzzerKindFromName(FuzzerName, K)) {
    Err = "unknown fuzzer configuration '" + FuzzerName + "'";
    return false;
  }
  if (SubjectsByName.find(SubjectName) == SubjectsByName.end()) {
    Err = "unknown subject '" + SubjectName + "'";
    return false;
  }
  if (Budget == 0) {
    Err = "budget must be positive";
    return false;
  }
  const std::string Id = campaignId(Tenant, SubjectName, FuzzerName, Seed,
                                    Budget);

  Entry *EP = nullptr;
  {
    std::lock_guard<std::mutex> L(M);
    if (Draining) {
      Err = "server is draining";
      *Metrics.counter("serve.rejected") += 1;
      return false;
    }

    TenantQueue &T = Tenants[Tenant];
    auto It = Entries.find(Id);
    if (It != Entries.end()) {
      // Idempotent resubmission. Failed and cancelled campaigns requeue
      // (their store resumes whatever progress they made); everything
      // else — including an entry whose store open is still in flight on
      // another thread — is a no-op returning the existing id.
      Entry *E = It->second.get();
      IdOut = Id;
      Existing = true;
      if (E->State == CampaignState::Failed ||
          E->State == CampaignState::Cancelled) {
        if (LiveCount >= Cfg.MaxCampaigns || T.Live >= Cfg.TenantMax) {
          *Metrics.counter("serve.rejected") += 1;
          Err = "admission control: campaign limit reached";
          return false;
        }
        E->Error.clear();
        E->CancelRequested = false;
        enqueueLocked(E);
        *Metrics.counter("serve.admitted") += 1;
        pumpLocked();
      }
      return true;
    }

    if (LiveCount >= Cfg.MaxCampaigns) {
      *Metrics.counter("serve.rejected") += 1;
      Err = "admission control: server at capacity";
      return false;
    }
    if (T.Live >= Cfg.TenantMax) {
      *Metrics.counter("serve.rejected") += 1;
      Err = "admission control: tenant at capacity";
      return false;
    }

    auto E = std::make_unique<Entry>();
    E->Id = Id;
    E->Tenant = Tenant;
    E->S = SubjectsByName[SubjectName];
    E->Opts.Kind = K;
    E->Opts.ExecBudget = Budget;
    E->Opts.Seed = Seed;
    E->Opts.CheckpointInterval = Cfg.CheckpointInterval;
    E->Opts.StoreDir = Cfg.Root + "/" + Id;
    E->Opts.Trace.Enabled = Trace;
    // Reserve the id and its admission slot, then open the store with the
    // lock released: store creation is disk I/O, and holding M across it
    // would park every worker's checkpoint-time StopRequest callback (and
    // all status/cancel traffic) behind filesystem latency.
    E->Opening = true;
    EP = E.get();
    Entries.emplace(Id, std::move(E));
    ++T.Live;
    ++LiveCount;
  }

  // Durable admission: create the store (directory + manifest) before
  // acknowledging, so a queued-but-unstarted campaign survives a daemon
  // SIGKILL — the next daemon adopts it from the root. This also detects
  // a campaign an earlier daemon life already finished.
  std::string OpenErr;
  std::unique_ptr<strategy::CampaignStore> Store = strategy::CampaignStore::open(
      EP->Opts.StoreDir, SubjectName, EP->Opts, &OpenErr);

  std::lock_guard<std::mutex> L(M);
  TenantQueue &T = Tenants[Tenant];
  EP->Opening = false;
  if (!Store) {
    Entries.erase(Id);
    --T.Live;
    --LiveCount;
    *Metrics.counter("serve.rejected") += 1;
    IdleCv.notify_all();
    Err = std::move(OpenErr);
    return false;
  }
  IdOut = Id;
  *Metrics.counter("serve.admitted") += 1;
  if (EP->CancelRequested) {
    // Cancelled while the store was opening; the reservation dies here.
    EP->CancelRequested = false;
    EP->State = CampaignState::Cancelled;
    --T.Live;
    --LiveCount;
    *Metrics.counter("serve.cancelled") += 1;
    IdleCv.notify_all();
    Existing = false;
    return true;
  }
  if (Store->done()) {
    Existing = true; // finished in an earlier daemon life
    EP->State = CampaignState::Done;
    EP->Last = Store->finalResult();
    --T.Live;
    --LiveCount;
    *Metrics.counter("serve.done") += 1;
    IdleCv.notify_all();
    return true;
  }
  Existing = false;
  // The reservation already counts toward Live; just take a queue slot.
  EP->State = CampaignState::Queued;
  T.Queue.push_back(EP);
  ++QueuedCount;
  pumpLocked();
  return true;
}

CampaignStatus Scheduler::statusOfLocked(const Entry &E) const {
  CampaignStatus St;
  St.Id = E.Id;
  St.Tenant = E.Tenant;
  St.Subject = E.S->Name;
  St.Fuzzer = strategy::fuzzerKindName(E.Opts.Kind);
  St.Seed = E.Opts.Seed;
  St.Budget = E.Opts.ExecBudget;
  St.State = E.State;
  St.Slices = E.Slices;
  St.Execs = E.Last.Execs;
  St.Edges = E.Last.edgesCovered();
  St.UniqueCrashes = E.Last.CrashHashes.size();
  St.UniqueBugs = E.Last.BugIds.size();
  St.QueueSize = E.Last.FinalQueueSize;
  St.Error = E.Error;
  return St;
}

bool Scheduler::status(const std::string &Id, CampaignStatus &Out) const {
  std::lock_guard<std::mutex> L(M);
  auto It = Entries.find(Id);
  if (It == Entries.end())
    return false;
  Out = statusOfLocked(*It->second);
  return true;
}

std::vector<CampaignStatus> Scheduler::list() const {
  std::lock_guard<std::mutex> L(M);
  std::vector<CampaignStatus> Out;
  Out.reserve(Entries.size());
  for (const auto &KV : Entries) // std::map: already id-sorted
    Out.push_back(statusOfLocked(*KV.second));
  return Out;
}

bool Scheduler::cancel(const std::string &Id, CampaignStatus &Out,
                       std::string &Err) {
  std::lock_guard<std::mutex> L(M);
  auto It = Entries.find(Id);
  if (It == Entries.end()) {
    Err = "unknown campaign id";
    return false;
  }
  Entry *E = It->second.get();
  switch (E->State) {
  case CampaignState::Queued: {
    if (E->Opening) {
      // Store open in flight on the submitting thread; it turns the
      // reservation into Cancelled when it publishes.
      E->CancelRequested = true;
      break;
    }
    TenantQueue &T = Tenants[E->Tenant];
    auto QIt = std::find(T.Queue.begin(), T.Queue.end(), E);
    assert(QIt != T.Queue.end() && "queued campaign missing from its "
                                   "tenant queue");
    if (QIt != T.Queue.end()) {
      T.Queue.erase(QIt);
      --QueuedCount;
      --T.Live;
      --LiveCount;
      E->State = CampaignState::Cancelled;
      *Metrics.counter("serve.cancelled") += 1;
      IdleCv.notify_all();
    }
    break;
  }
  case CampaignState::Running:
    // Stops at its next safe-point checkpoint; finishSliceLocked turns
    // the preemption into the cancelled state.
    E->CancelRequested = true;
    break;
  case CampaignState::Done:
  case CampaignState::Cancelled:
  case CampaignState::Failed:
    break; // terminal: report the state unchanged
  }
  Out = statusOfLocked(*E);
  return true;
}

bool Scheduler::results(const std::string &Id, std::vector<uint8_t> &Blob,
                        std::string &Err) const {
  std::lock_guard<std::mutex> L(M);
  auto It = Entries.find(Id);
  if (It == Entries.end()) {
    Err = "unknown campaign id";
    return false;
  }
  const Entry &E = *It->second;
  if (E.State != CampaignState::Done) {
    Err = std::string("campaign not finished (state ") +
          campaignStateName(E.State) + ")";
    return false;
  }
  Blob = strategy::serializeCampaignResult(E.Last);
  return true;
}

bool Scheduler::seriesCsv(const std::string &Id, bool Coverage,
                          std::string &Csv, std::string &Err) const {
  std::lock_guard<std::mutex> L(M);
  auto It = Entries.find(Id);
  if (It == Entries.end()) {
    Err = "unknown campaign id";
    return false;
  }
  if (!telemetry::Compiled) {
    Err = "series unavailable: telemetry compiled out of this build";
    return false;
  }
  const telemetry::CampaignTrace *T = It->second->Last.Trace.get();
  if (!T) {
    Err = "series unavailable (tracing disabled, or the result was served "
          "from the store without re-execution)";
    return false;
  }
  std::vector<const telemetry::CampaignTrace *> Ts{T};
  Csv = Coverage ? telemetry::coverageCsv(Ts)
                 : telemetry::queueTrajectoryCsv(Ts);
  return true;
}

size_t Scheduler::adoptStoreRoot() {
  std::vector<strategy::StoreScanEntry> Scan =
      strategy::scanStoreRoot(Cfg.Root);
  size_t Requeued = 0;
  std::lock_guard<std::mutex> L(M);
  for (strategy::StoreScanEntry &SE : Scan) {
    const std::string Id =
        std::filesystem::path(SE.Dir).filename().string();
    std::string Tenant;
    // Only service-managed directories carry the <tenant>-- prefix;
    // corrupt stores and foreign subjects are left on disk untouched for
    // a human to look at.
    if (!tenantOfId(Id, Tenant) || Entries.count(Id) ||
        SE.State == strategy::StoreState::Corrupt ||
        SubjectsByName.find(SE.Subject) == SubjectsByName.end()) {
      *Metrics.counter("serve.adopt.skipped") += 1;
      continue;
    }
    auto E = std::make_unique<Entry>();
    E->Id = Id;
    E->Tenant = Tenant;
    E->S = SubjectsByName[SE.Subject];
    E->Opts = SE.Opts; // fingerprint fields from the manifest
    E->Opts.CheckpointInterval = Cfg.CheckpointInterval;
    E->Opts.StoreDir = SE.Dir;
    E->Opts.Trace.Enabled = true;
    Entry *EP = E.get();
    Entries.emplace(Id, std::move(E));
    if (SE.State == strategy::StoreState::Done) {
      EP->State = CampaignState::Done;
      EP->Last = std::move(SE.Final);
    } else {
      enqueueLocked(EP);
      ++Requeued;
      *Metrics.counter("serve.resumed") += 1;
    }
  }
  pumpLocked();
  return Requeued;
}

void Scheduler::drain() {
  {
    std::lock_guard<std::mutex> L(M);
    Draining = true;
  }
  Pool.wait(); // running slices preempt at their next checkpoint
  IdleCv.notify_all();
}

bool Scheduler::draining() const {
  std::lock_guard<std::mutex> L(M);
  return Draining;
}

bool Scheduler::waitIdle(uint64_t TimeoutMs) {
  std::unique_lock<std::mutex> L(M);
  auto Pred = [this] {
    return ActiveSlices == 0 && (Draining || QueuedCount == 0);
  };
  if (TimeoutMs == 0) {
    IdleCv.wait(L, Pred);
    return true;
  }
  return IdleCv.wait_for(L, std::chrono::milliseconds(TimeoutMs), Pred);
}

telemetry::MetricsRegistry Scheduler::statsSnapshot() const {
  std::lock_guard<std::mutex> L(M);
  return Metrics;
}

void Scheduler::addBytesStreamed(uint64_t N) {
  std::lock_guard<std::mutex> L(M);
  *Metrics.counter("serve.bytes.streamed") += N;
}

} // namespace serve
} // namespace pathfuzz
