//===- Served.cpp - Service-layer probe of the traced run ------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// The traced run's service and store numbers: one round of paper_mix's
// (subject, kind) pairs with small budgets, submitted to a pathfuzz-serve
// daemon with a durable store root over one connection, open loop: submissions are due in groups at a
// fixed rate whether or not earlier campaigns finished, so a stall is
// charged to every campaign queued behind it. The checkpoint interval and
// slice are short, so the scheduler preempts campaigns and resumes them
// from the store. The daemon runs 3 worker threads; with this client
// thread that is the machine's 4 cores.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Probe.h"

#include "serve/Protocol.h"
#include "support/Rng.h"
#include "support/Socket.h"
#include "targets/Targets.h"
#include "telemetry/Report.h"

#include <algorithm>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <thread>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

namespace pathfuzz {
namespace cbench {

using strategy::FuzzerKind;
namespace fs = std::filesystem;

namespace {

// The service probe's constants (also recorded in workloads.json). A
// burst of 2000-exec campaigns of paper_mix drains at about 44 per second
// on the 4-core machine the benchmark was sized on, so RatePerS offers
// about a quarter of capacity: that machine's speed and fsync latency
// drift by a third over minutes, and nearer saturation such a drift turns
// into a growing backlog.
constexpr double RatePerS = 10;
constexpr unsigned Tenants = 8;
constexpr uint64_t Budget = 2000;
constexpr uint64_t CheckpointInterval = 500;
constexpr unsigned SliceCheckpoints = 1;
/// Submissions arrive in groups of this many, one more than the daemon's
/// workers, so every group makes campaigns wait and preempts running ones.
constexpr unsigned Group = 4;
constexpr unsigned DaemonThreads = 3;
constexpr double PollS = 0.02;
constexpr double DrainLimitS = 120;

/// The daemon child process; the destructor kills and reaps it if it is
/// still running.
class Daemon {
public:
  bool start(const std::string &Bin, const std::string &Socket,
             const std::string &Root, const std::string &LogPath,
             std::string &Err) {
    // Everything the child needs is built before fork(), so the child
    // only makes async-signal-safe calls.
    std::vector<std::string> Env = {
        "PATHFUZZ_SERVE_INTERVAL=" + std::to_string(CheckpointInterval),
        "PATHFUZZ_SERVE_SLICE=" + std::to_string(SliceCheckpoints)};
    for (char **E = environ; *E; ++E)
      if (std::strncmp(*E, "PATHFUZZ_", 9) != 0)
        Env.push_back(*E);
    std::vector<std::string> Argv = {"pathfuzz-serve", "--socket", Socket,
                                     "--root",         Root,       "--threads",
                                     std::to_string(DaemonThreads)};
    std::vector<char *> EnvP, ArgvP;
    for (std::string &E : Env)
      EnvP.push_back(E.data());
    EnvP.push_back(nullptr);
    for (std::string &A : Argv)
      ArgvP.push_back(A.data());
    ArgvP.push_back(nullptr);
    const pid_t Parent = ::getpid();
    Pid = ::fork();
    if (Pid < 0) {
      Err = "fork failed";
      return false;
    }
    if (Pid == 0) {
      // The daemon must not outlive the benchmark, even a killed one.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != Parent)
        ::_exit(127);
      int Log = ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (Log >= 0) {
        ::dup2(Log, 1);
        ::dup2(Log, 2);
      }
      ::execve(Bin.c_str(), ArgvP.data(), EnvP.data());
      ::_exit(127);
    }
    return true;
  }

  /// Wait for the daemon to exit (SIGKILL after TimeoutS); fills the
  /// peak RSS of the child. False when it had to be killed or failed.
  bool reap(double TimeoutS, double &PeakRssMiB) {
    if (Pid <= 0)
      return false;
    int Status = 0;
    struct rusage U {};
    auto T0 = Clock::now();
    bool Killed = false;
    while (::wait4(Pid, &Status, WNOHANG, &U) == 0) {
      if (!Killed && secondsBetween(T0, Clock::now()) > TimeoutS) {
        ::kill(Pid, SIGKILL);
        Killed = true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    Pid = -1;
    PeakRssMiB = static_cast<double>(U.ru_maxrss) / 1024.0;
    return !Killed && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  }

  bool exited() {
    int Status = 0;
    return Pid <= 0 || ::waitpid(Pid, &Status, WNOHANG) == Pid;
  }

  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
  }

private:
  pid_t Pid = -1;
};

/// One request/reply connection to the daemon.
class Client {
public:
  bool connect(const std::string &Socket, Daemon &D, std::string &Err) {
    for (auto T0 = Clock::now(); secondsBetween(T0, Clock::now()) < 30;) {
      Sock = net::connectUnix(Socket);
      if (Sock.valid()) {
        // A wedged daemon fails the run instead of hanging it.
        struct timeval Timeout {};
        Timeout.tv_sec = 30;
        ::setsockopt(Sock.get(), SOL_SOCKET, SO_RCVTIMEO, &Timeout,
                     sizeof(Timeout));
        return true;
      }
      if (D.exited())
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    Err = "pathfuzz-serve did not come up";
    return false;
  }

  /// Send one request line and read its first reply line.
  bool call(const std::string &Request, std::string &Reply) {
    if (!net::writeAll(Sock, Request))
      return false;
    return read(Reply);
  }

  bool read(std::string &Line) {
    net::LineReader::Status St = Reader.next(Line);
    while (St == net::LineReader::Status::NeedMore)
      St = Reader.fill(Sock, Line);
    return St == net::LineReader::Status::Line;
  }

private:
  net::Fd Sock;
  net::LineReader Reader{1u << 24};
};

/// Digest of a finished campaign's result blob; empty on any failure.
std::string fetchDigest(Client &C, const std::string &Id) {
  std::string Reply, Hex;
  std::vector<uint8_t> Blob;
  if (!C.call("{\"verb\":\"results\",\"id\":\"" + Id + "\"}\n", Reply) ||
      !telemetry::jsonStr(Reply, "result", Hex) ||
      !serve::hexDecode(Hex, Blob))
    return "";
  return resultDigest(Blob);
}

/// Submit the cells and wait until every one is done; their digests in
/// cell order (empty for a campaign that failed or did not finish).
std::vector<std::string> runToCompletion(Client &C,
                                         const std::vector<Cell> &Cells) {
  std::vector<std::string> Ids, Digests(Cells.size());
  std::string Reply, Id, State;
  for (const Cell &Cl : Cells) {
    if (!C.call(Cl.submitLine() + "\n", Reply) ||
        !telemetry::jsonStr(Reply, "id", Id))
      return Digests;
    Ids.push_back(Id);
  }
  const auto T0 = Clock::now();
  for (size_t I = 0; I < Ids.size() && secondsBetween(T0, Clock::now()) <
                                           DrainLimitS;) {
    if (!C.call("{\"verb\":\"status\",\"id\":\"" + Ids[I] + "\"}\n",
                Reply) ||
        !telemetry::jsonStr(Reply, "state", State))
      return Digests;
    if (State == "queued" || State == "running") {
      std::this_thread::sleep_for(std::chrono::duration<double>(PollS));
      continue;
    }
    if (State == "done")
      Digests[I] = fetchDigest(C, Ids[I]);
    ++I;
  }
  return Digests;
}

struct Campaign {
  double Due = 0;       ///< seconds since the load started
  double SubmitMs = 0;  ///< socket round trip of submit
  double Started = -1;  ///< first poll that saw it leave the queue
  double Finished = -1; ///< first poll that saw it done or failed
  bool Accepted = false;
  bool Done = false;
  std::string Id;
  std::string Digest;
};

uint64_t statCounter(const std::string &Line, const char *Key) {
  uint64_t V = 0;
  telemetry::jsonU64(Line, Key, V);
  return V;
}

/// Mean checkpoint file size and checkpoints written (the highest
/// sequence number of each campaign directory) under the store root.
void scanStore(const std::string &Root, double &MeanBytes,
               uint64_t &Written) {
  uint64_t Files = 0, Bytes = 0;
  Written = 0;
  std::error_code Ec;
  for (const fs::directory_entry &Dir : fs::directory_iterator(Root, Ec)) {
    uint64_t MaxSeq = 0;
    for (const fs::directory_entry &F :
         fs::directory_iterator(Dir.path(), Ec)) {
      std::string Name = F.path().filename().string();
      if (Name.rfind("ckpt-", 0) != 0 || F.path().extension() != ".pfsnap")
        continue;
      ++Files;
      Bytes += F.file_size(Ec);
      MaxSeq = std::max<uint64_t>(MaxSeq, std::strtoull(Name.c_str() + 5,
                                                        nullptr, 10));
    }
    Written += MaxSeq;
  }
  MeanBytes = Files ? static_cast<double>(Bytes) / Files : 0;
}

} // namespace

void probeService(const Args &A, SpanLog *Log, LayerLedger &L, Outcome &O) {
  // Every (subject, kind) pair of paper_mix (the daemon serves the
  // src/targets subjects), in a seeded order, with seeded campaign seeds
  // and tenants.
  Rng R(A.Seed ^ 0x5e57e5eull);
  std::vector<Cell> Cells;
  for (const strategy::Subject &S : targets::allSubjects())
    for (FuzzerKind K : paperKinds()) {
      Cell C;
      C.S = &S;
      C.Kind = K;
      C.Budget = Budget;
      Cells.push_back(C);
    }
  for (size_t I = Cells.size(); I > 1; --I)
    std::swap(Cells[I - 1], Cells[R.below(I)]);
  for (Cell &C : Cells) {
    C.Seed = 1 + R.below(1u << 30);
    C.Tenant = "t" + std::to_string(R.below(Tenants));
  }
  const unsigned N = static_cast<unsigned>(Cells.size());

  // Flush writes still pending from earlier work (a build, say), so that
  // they do not slow the store's fsyncs during the load.
  ::sync();
  std::error_code Ec;
  const std::string Root = A.RunDir + "/store";
  const std::string Socket = A.RunDir + "/serve.sock";
  fs::remove_all(Root, Ec);
  fs::remove(Socket, Ec);
  Daemon D;
  Client C;
  std::string Err;
  if (!D.start(A.ServeBin, Socket, Root, A.RunDir + "/serve.log", Err) ||
      !C.connect(Socket, D, Err)) {
    std::fprintf(stderr, "service probe: %s\n", Err.c_str());
    O.Correct = false;
    ++O.Attempted;
    ++O.Failed;
    return;
  }

  // Untimed warm-up: the first two groups' cells under a tenant of their
  // own, run to completion, so that the daemon's threads and the store's
  // first directories and fsyncs are past their cold start. Their results
  // must match the same cells' results in the load.
  std::vector<Cell> Warm(Cells.begin(),
                         Cells.begin() + std::min<size_t>(N, 2 * Group));
  for (Cell &W : Warm)
    W.Tenant = "warmup";
  const std::vector<std::string> WarmDigests = runToCompletion(C, Warm);

  // The open loop: submit each campaign when it is due; between
  // submissions, poll the status of every unfinished campaign.
  std::vector<Campaign> Runs(N);
  for (unsigned I = 0; I < N; ++I)
    Runs[I].Due = (I / Group) * Group / RatePerS;
  double GenLateMaxMs = 0;
  size_t MaxBacklog = 0;
  std::vector<size_t> Open;
  std::string Reply;
  unsigned Next = 0;
  const auto T0 = Clock::now();
  auto Now = [&] { return secondsBetween(T0, Clock::now()); };
  double NextPoll = 0;
  bool Lost = false;
  while ((Next < N || !Open.empty()) && !Lost &&
         Now() < N / RatePerS + DrainLimitS) {
    if (Next < N && Now() >= Runs[Next].Due) {
      Campaign &Cp = Runs[Next];
      const double Sent = Now();
      GenLateMaxMs = std::max(GenLateMaxMs, 1e3 * (Sent - Cp.Due));
      ScopedSpan Sp(Log, "serve.submit", 0, Next + 1);
      if (!C.call(Cells[Next].submitLine() + "\n", Reply)) {
        Lost = true;
        break;
      }
      Cp.SubmitMs = 1e3 * (Now() - Sent);
      uint64_t Ok = 0;
      Cp.Accepted = telemetry::jsonU64(Reply, "ok", Ok) && Ok &&
                    telemetry::jsonStr(Reply, "id", Cp.Id);
      if (Cp.Accepted)
        Open.push_back(Next);
      ++Next;
      continue;
    }
    if (Now() >= NextPoll) {
      ScopedSpan Sp(Log, "serve.poll");
      MaxBacklog = std::max(MaxBacklog, Open.size());
      std::vector<size_t> Still;
      for (size_t I : Open) {
        Campaign &Cp = Runs[I];
        std::string State;
        if (!C.call("{\"verb\":\"status\",\"id\":\"" + Cp.Id + "\"}\n",
                    Reply) ||
            !telemetry::jsonStr(Reply, "state", State)) {
          Lost = true;
          break;
        }
        const double T = Now();
        if (State != "queued" && Cp.Started < 0)
          Cp.Started = T;
        if (State == "done" || State == "failed" || State == "cancelled") {
          Cp.Finished = T;
          Cp.Done = State == "done";
        } else {
          Still.push_back(I);
        }
      }
      Open.swap(Still);
      NextPoll = Now() + PollS;
      continue;
    }
    double Wake = NextPoll;
    if (Next < N)
      Wake = std::min(Wake, Runs[Next].Due);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::max(0.0, Wake - Now())));
  }

  // Results and the daemon's counters, then a graceful shutdown.
  for (unsigned I = 0; I < N && !Lost; ++I) {
    Campaign &Cp = Runs[I];
    if (!Cp.Done)
      continue;
    ScopedSpan Sp(Log, "serve.results", 0, I + 1);
    Cp.Digest = fetchDigest(C, Cp.Id);
    Cp.Done = !Cp.Digest.empty();
  }
  std::string Stats;
  if (!Lost && !C.call("{\"verb\":\"stats\"}\n", Stats))
    Lost = true;
  if (!Lost)
    C.call("{\"verb\":\"shutdown\"}\n", Reply);
  double PeakRss = 0;
  const bool CleanExit = D.reap(60, PeakRss);
  double CkptBytes = 0;
  uint64_t CkptWritten = 0;
  scanStore(Root, CkptBytes, CkptWritten);

  // Every served result must match the reference interpreter.
  const std::vector<std::string> Ref = referenceDigests(Cells);
  if (Lost || !CleanExit) {
    O.Correct = false;
    std::fprintf(stderr, "service probe: pathfuzz-serve %s\n",
                 Lost ? "stopped answering" : "did not shut down cleanly");
  }
  std::vector<double> SubmitMs, QueueWaitS, CampaignS;
  std::vector<std::pair<const Cell *, std::string>> Checked;
  for (unsigned I = 0; I < N; ++I)
    Checked.push_back({&Cells[I], Runs[I].Accepted && Runs[I].Done
                                      ? Runs[I].Digest
                                      : std::string()});
  for (size_t I = 0; I < Warm.size(); ++I)
    Checked.push_back({&Cells[I], WarmDigests[I]});
  for (size_t I = 0; I < Checked.size(); ++I) {
    ++O.Attempted;
    const size_t RefI = I < N ? I : I - N;
    if (Checked[I].second.empty()) {
      ++O.Failed;
      O.Correct = false;
    } else if (Checked[I].second != Ref[RefI]) {
      O.Correct = false;
      std::fprintf(stderr, "identity mismatch: %s\n",
                   Checked[I].first->key().c_str());
    }
  }
  for (const Campaign &Cp : Runs)
    if (Cp.Done) {
      SubmitMs.push_back(Cp.SubmitMs);
      QueueWaitS.push_back(Cp.Started - Cp.Due);
      CampaignS.push_back(Cp.Finished - Cp.Due);
    }
  const double Done = std::max<double>(1, statCounter(Stats, "serve.done"));
  L.set("serve.submit_ms_p50", percentile(SubmitMs, 50));
  L.set("serve.submit_ms_p90", percentile(SubmitMs, 90));
  L.set("serve.queue_wait_s", median(QueueWaitS));
  L.set("serve.campaign_s_p50", percentile(CampaignS, 50));
  L.set("serve.campaign_s_p90", percentile(CampaignS, 90));
  L.set("serve.slices_per_campaign", statCounter(Stats, "serve.slices") / Done);
  L.set("serve.preempted", statCounter(Stats, "serve.preempted"));
  L.set("serve.peak_rss_mib", PeakRss);
  L.set("store.checkpoints", static_cast<double>(CkptWritten));
  L.set("store.ckpt_bytes", CkptBytes);
  std::fprintf(stderr,
               "service probe: %u campaigns at %.1f/s, p50 %.3f s p90 %.3f s, "
               "submit p50 %.3f ms, %.1f slices per campaign, backlog max "
               "%zu, generator late max %.2f ms\n",
               N, RatePerS, percentile(CampaignS, 50),
               percentile(CampaignS, 90), percentile(SubmitMs, 50),
               statCounter(Stats, "serve.slices") / Done, MaxBacklog,
               GenLateMaxMs);
}

} // namespace cbench
} // namespace pathfuzz
