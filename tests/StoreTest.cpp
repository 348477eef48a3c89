//===- StoreTest.cpp - Durable campaign store and IO primitives ---------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// The durability contracts below the kill-torture suite:
//
//  - io::atomicWriteFile publishes all-or-nothing: every injected failure
//    leg (write error, short write, fsync, rename) leaves the previous
//    destination content intact and no temporary behind.
//  - CampaignStore rotates checkpoints, recovers the newest valid one,
//    quarantines corrupt files instead of trusting them, and refuses a
//    manifest pinned to a different subject or options fingerprint.
//  - runStoredCampaign produces byte-identical results to an in-memory
//    run, resumes across corruption by falling back to older checkpoints
//    (counting store.checkpoint.{recovered,quarantined}), and returns the
//    recorded result without re-executing once a campaign is done.
//  - The batch runner derives per-trial store directories from
//    PATHFUZZ_STORE without perturbing results.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Snapshot.h"
#include "strategy/Batch.h"
#include "strategy/BuildCache.h"
#include "strategy/Campaign.h"
#include "strategy/Store.h"
#include "support/FaultInjection.h"
#include "support/Io.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <unistd.h>

using namespace pathfuzz;
using namespace pathfuzz::strategy;
namespace fs = std::filesystem;

namespace {

using test::TempDir;

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

Subject otherSubject() {
  Subject S;
  S.Name = "other";
  S.Source = R"ml(
fn main() {
  var a[4];
  if (len() > 2 && in(0) == 'R' && in(1) == 'T') {
    a[in(2) % 8] = 1;  // OOB for in(2) % 8 >= 4
  }
  return 0;
}
)ml";
  S.Seeds = {{'R', 'T', 1}};
  return S;
}

CampaignOptions baseOpts(FuzzerKind Kind, uint64_t Budget = 4000) {
  CampaignOptions Opts;
  Opts.Kind = Kind;
  Opts.ExecBudget = Budget;
  Opts.Seed = 5;
  Opts.CullRounds = 3;
  return Opts;
}

std::vector<uint8_t> bytesOf(const std::string &S) {
  return {S.begin(), S.end()};
}

std::vector<uint8_t> readAll(const std::string &Path) {
  std::vector<uint8_t> Out;
  EXPECT_TRUE(io::readFileBounded(Path, 1 << 30, Out)) << Path;
  return Out;
}

size_t filesIn(const std::string &Dir) {
  if (!fs::exists(Dir))
    return 0;
  size_t N = 0;
  for (const auto &E : fs::directory_iterator(Dir)) {
    (void)E;
    ++N;
  }
  return N;
}

/// Run a campaign capturing its emitted checkpoint blobs.
std::vector<std::vector<uint8_t>>
captureCheckpoints(const Subject &S, CampaignOptions Opts, uint64_t Interval) {
  Opts.CheckpointInterval = Interval;
  std::vector<std::vector<uint8_t>> Out;
  Opts.CheckpointSink = [&Out](const std::vector<uint8_t> &B) {
    Out.push_back(B);
  };
  CampaignError Err;
  runCampaign(S, Opts, &Err);
  EXPECT_FALSE(Err.Failed) << Err.Message;
  return Out;
}

const telemetry::InstanceRecord *
storeRecord(const std::shared_ptr<telemetry::CampaignTrace> &T) {
  if (!T)
    return nullptr;
  for (const telemetry::InstanceRecord &R : T->Instances)
    if (R.Label == "store")
      return &R;
  return nullptr;
}

uint64_t counterOf(const telemetry::MetricsRegistry &M,
                   const std::string &Name) {
  auto It = M.counters().find(Name);
  return It == M.counters().end() ? 0 : It->second;
}

//===----------------------------------------------------------------------===//
// io::atomicWriteFile / io::readFileBounded
//===----------------------------------------------------------------------===//

TEST(AtomicIo, WriteReadRoundTripAndOverwrite) {
  TempDir Dir;
  const std::string Path = Dir.sub("data.bin");
  ASSERT_TRUE(io::atomicWriteFile(Path, std::string("first content")));
  EXPECT_EQ(readAll(Path), bytesOf("first content"));
  ASSERT_TRUE(io::atomicWriteFile(Path, std::string("replacement")));
  EXPECT_EQ(readAll(Path), bytesOf("replacement"));
  // The temporary never survives a successful publish.
  EXPECT_FALSE(fs::exists(Path + io::tmpSuffix()));
  EXPECT_EQ(filesIn(Dir.path()), 1u);
}

TEST(AtomicIo, EmptyPayloadIsValid) {
  TempDir Dir;
  const std::string Path = Dir.sub("empty.bin");
  ASSERT_TRUE(io::atomicWriteFile(Path, std::vector<uint8_t>{}));
  std::vector<uint8_t> Out{1, 2, 3};
  ASSERT_TRUE(io::readFileBounded(Path, 16, Out));
  EXPECT_TRUE(Out.empty());
}

TEST(AtomicIo, ReadBoundedRefusesOversizeAndMissing) {
  TempDir Dir;
  const std::string Path = Dir.sub("big.bin");
  ASSERT_TRUE(io::atomicWriteFile(Path, std::string("0123456789")));
  std::vector<uint8_t> Out;
  std::string Err;
  EXPECT_FALSE(io::readFileBounded(Path, 9, Out, &Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_TRUE(io::readFileBounded(Path, 10, Out));
  EXPECT_EQ(Out.size(), 10u);
  EXPECT_FALSE(io::readFileBounded(Dir.sub("no-such-file"), 16, Out, &Err));
}

TEST(AtomicIo, EveryFaultLegPreservesOldContent) {
  // The whole point of the primitive: no failure mode may tear the
  // destination or leave a temporary behind.
  for (const char *Site :
       {"io.write.fail", "io.write.short", "io.fsync.fail", "io.rename.fail"}) {
    SCOPED_TRACE(Site);
    TempDir Dir;
    const std::string Path = Dir.sub("data.bin");
    ASSERT_TRUE(io::atomicWriteFile(Path, std::string("old content")));

    fault::ScopedFaultInjection Guard;
    fault::SiteConfig C;
    C.FailOnHit = 1;
    fault::armSite(Site, C);
    std::string Err;
    EXPECT_FALSE(io::atomicWriteFile(Path, std::string("new content"), &Err));
    EXPECT_NE(Err.find(Site), std::string::npos) << Err;
    fault::reset();

    EXPECT_EQ(readAll(Path), bytesOf("old content"));
    EXPECT_FALSE(fs::exists(Path + io::tmpSuffix()));
    EXPECT_EQ(filesIn(Dir.path()), 1u);

    // And the very next write, fault gone, succeeds.
    EXPECT_TRUE(io::atomicWriteFile(Path, std::string("new content")));
    EXPECT_EQ(readAll(Path), bytesOf("new content"));
  }
}

//===----------------------------------------------------------------------===//
// CampaignStore
//===----------------------------------------------------------------------===//

TEST(CampaignStore, RotatesAndRecoversNewest) {
  TempDir Dir;
  CampaignOptions Opts = baseOpts(FuzzerKind::Pcguard);
  Opts.StoreKeepLast = 3;
  std::string Err;
  auto Store = CampaignStore::open(Dir.sub("c"), "small", Opts, &Err);
  ASSERT_TRUE(Store) << Err;
  EXPECT_FALSE(Store->done());

  for (int I = 1; I <= 5; ++I) {
    std::vector<uint8_t> Blob =
        fuzz::sealSnapshot(bytesOf("payload " + std::to_string(I)));
    ASSERT_TRUE(Store->writeCheckpoint(Blob, &Err)) << Err;
  }
  // Retention: only the last 3 remain on disk.
  EXPECT_EQ(Store->checkpointsOnDisk(), 3u);
  EXPECT_EQ(counterOf(Store->metrics(), "store.checkpoint.written"), 5u);

  std::vector<uint8_t> Recovered;
  ASSERT_TRUE(Store->recover(Recovered));
  std::vector<uint8_t> Payload;
  ASSERT_TRUE(fuzz::openSnapshot(Recovered, Payload));
  EXPECT_EQ(Payload, bytesOf("payload 5"));
  EXPECT_EQ(counterOf(Store->metrics(), "store.checkpoint.recovered"), 1u);
}

TEST(CampaignStore, RecoverQuarantinesTornNewest) {
  TempDir Dir;
  CampaignOptions Opts = baseOpts(FuzzerKind::Pcguard);
  std::string Err;
  auto Store = CampaignStore::open(Dir.sub("c"), "small", Opts, &Err);
  ASSERT_TRUE(Store) << Err;
  ASSERT_TRUE(Store->writeCheckpoint(fuzz::sealSnapshot(bytesOf("good"))));
  ASSERT_TRUE(Store->writeCheckpoint(fuzz::sealSnapshot(bytesOf("newest"))));

  // Flip one payload bit in the newest file: the envelope checksum must
  // reject it and recovery must fall back to the older checkpoint.
  std::string Newest;
  for (const auto &E : fs::directory_iterator(Dir.sub("c")))
    if (E.path().extension() == ".pfsnap")
      Newest = std::max(Newest, E.path().string());
  ASSERT_FALSE(Newest.empty());
  std::vector<uint8_t> Raw = readAll(Newest);
  Raw[Raw.size() - 2] ^= 0x40;
  ASSERT_TRUE(io::atomicWriteFile(Newest, Raw));

  std::vector<uint8_t> Recovered;
  ASSERT_TRUE(Store->recover(Recovered));
  std::vector<uint8_t> Payload;
  ASSERT_TRUE(fuzz::openSnapshot(Recovered, Payload));
  EXPECT_EQ(Payload, bytesOf("good"));
  EXPECT_EQ(counterOf(Store->metrics(), "store.checkpoint.quarantined"), 1u);
  EXPECT_EQ(filesIn(Dir.sub("c") + "/quarantine"), 1u);

  // With the fallback also gone (payload-level damage only the resume
  // could see), quarantineRecovered() exhausts the store.
  Store->quarantineRecovered();
  EXPECT_FALSE(Store->recover(Recovered));
  EXPECT_EQ(filesIn(Dir.sub("c") + "/quarantine"), 2u);
}

TEST(CampaignStore, RefusesForeignSubjectAndFingerprint) {
  TempDir Dir;
  CampaignOptions Opts = baseOpts(FuzzerKind::Pcguard);
  std::string Err;
  ASSERT_TRUE(CampaignStore::open(Dir.sub("c"), "small", Opts, &Err)) << Err;

  // Same directory, different subject: hard error naming both.
  EXPECT_FALSE(CampaignStore::open(Dir.sub("c"), "other", Opts, &Err));
  EXPECT_NE(Err.find("small"), std::string::npos) << Err;

  // Same subject, different schedule-relevant option: fingerprint error.
  CampaignOptions Changed = Opts;
  Changed.Seed += 1;
  EXPECT_FALSE(CampaignStore::open(Dir.sub("c"), "small", Changed, &Err));
  EXPECT_NE(Err.find("fingerprint"), std::string::npos) << Err;

  // Robustness knobs are deliberately NOT pinned: changing them reopens
  // the same store.
  CampaignOptions Knobs = Opts;
  Knobs.CheckpointInterval = 123;
  Knobs.WatchdogExecLimit = 999999;
  Knobs.StoreKeepLast = 7;
  EXPECT_TRUE(CampaignStore::open(Dir.sub("c"), "small", Knobs, &Err)) << Err;
}

TEST(CampaignStore, OpenSweepsStrayTemporaries) {
  TempDir Dir;
  const std::string C = Dir.sub("c");
  fs::create_directories(C);
  // A crash mid-atomicWriteFile leaves "<dest>.tmp"; open must sweep it.
  std::ofstream(C + "/ckpt-0001.pfsnap" + io::tmpSuffix()) << "torn";
  std::ofstream(C + "/manifest.pfm" + io::tmpSuffix()) << "torn";
  CampaignOptions Opts = baseOpts(FuzzerKind::Pcguard);
  std::string Err;
  ASSERT_TRUE(CampaignStore::open(C, "small", Opts, &Err)) << Err;
  const std::string Suffix = io::tmpSuffix();
  for (const auto &E : fs::directory_iterator(C)) {
    const std::string P = E.path().string();
    EXPECT_FALSE(P.size() >= Suffix.size() &&
                 P.compare(P.size() - Suffix.size(), Suffix.size(), Suffix) ==
                     0)
        << "stray temporary survived open: " << P;
  }
  EXPECT_FALSE(fs::exists(C + "/ckpt-0001.pfsnap" + io::tmpSuffix()));
  EXPECT_FALSE(fs::exists(C + "/manifest.pfm" + io::tmpSuffix()));
}

//===----------------------------------------------------------------------===//
// runStoredCampaign
//===----------------------------------------------------------------------===//

TEST(StoredCampaign, ByteIdenticalToInMemoryAndDoneOnce) {
  Subject S = smallSubject();
  CampaignOptions Plain = baseOpts(FuzzerKind::Cull);
  std::vector<uint8_t> Ref = serializeCampaignResult(runCampaign(S, Plain));

  TempDir Dir;
  CampaignOptions Stored = Plain;
  Stored.StoreDir = Dir.sub("c");
  Stored.CheckpointInterval = 1000;
  CampaignError Err;
  CampaignResult R = runCampaign(S, Stored, &Err);
  ASSERT_FALSE(Err.Failed) << Err.Message;
  EXPECT_EQ(serializeCampaignResult(R), Ref);

  std::vector<StoreScanEntry> Scan = scanStoreRoot(Dir.path());
  ASSERT_EQ(Scan.size(), 1u);
  EXPECT_EQ(Scan[0].State, StoreState::Done);
  EXPECT_EQ(Scan[0].Subject, "small");
  EXPECT_EQ(Scan[0].Opts.Kind, FuzzerKind::Cull);
  EXPECT_EQ(Scan[0].Opts.Seed, Plain.Seed);
  EXPECT_EQ(serializeCampaignResult(Scan[0].Final), Ref);

  // A second stored run returns the recorded result without executing:
  // the watchdog would trip instantly if it re-ran.
  CampaignOptions Again = Stored;
  Again.WatchdogExecLimit = 1;
  CampaignResult R2 = runCampaign(S, Again, &Err);
  ASSERT_FALSE(Err.Failed) << Err.Message;
  EXPECT_EQ(serializeCampaignResult(R2), Ref);
}

TEST(StoredCampaign, ResumesFromPersistedCheckpoints) {
  // Seed a store with the first checkpoints of a run, as if the process
  // had been killed there, and let the stored campaign finish the rest.
  Subject S = smallSubject();
  CampaignOptions Plain = baseOpts(FuzzerKind::Pcguard);
  std::vector<uint8_t> Ref = serializeCampaignResult(runCampaign(S, Plain));
  std::vector<std::vector<uint8_t>> Ckpts = captureCheckpoints(S, Plain, 1000);
  ASSERT_GE(Ckpts.size(), 2u);

  TempDir Dir;
  std::string Err;
  {
    auto Store = CampaignStore::open(Dir.sub("c"), "small", Plain, &Err);
    ASSERT_TRUE(Store) << Err;
    ASSERT_TRUE(Store->writeCheckpoint(Ckpts[0], &Err)) << Err;
    ASSERT_TRUE(Store->writeCheckpoint(Ckpts[1], &Err)) << Err;
  }
  std::vector<StoreScanEntry> Scan = scanStoreRoot(Dir.path());
  ASSERT_EQ(Scan.size(), 1u);
  EXPECT_EQ(Scan[0].State, StoreState::Resumable);

  CampaignOptions Stored = Plain;
  Stored.StoreDir = Dir.sub("c");
  Stored.CheckpointInterval = 1000;
  Stored.Trace.Enabled = true;
  CampaignError CErr;
  CampaignResult R = runCampaign(S, Stored, &CErr);
  ASSERT_FALSE(CErr.Failed) << CErr.Message;
  EXPECT_EQ(serializeCampaignResult(R), Ref);
  if (telemetry::Compiled) {
    const telemetry::InstanceRecord *Rec = storeRecord(R.Trace);
    ASSERT_NE(Rec, nullptr);
    EXPECT_EQ(counterOf(Rec->Metrics, "store.checkpoint.recovered"), 1u);
    EXPECT_EQ(counterOf(Rec->Metrics, "store.checkpoint.quarantined"), 0u);
  }
}

TEST(StoredCampaign, CorruptNewestCheckpointFallsBackAndCounts) {
  // The acceptance drill: corrupt the newest checkpoint, observe the run
  // fall back to the previous one, count store.checkpoint.quarantined,
  // and still end byte-identical.
  Subject S = smallSubject();
  CampaignOptions Plain = baseOpts(FuzzerKind::Pcguard);
  std::vector<uint8_t> Ref = serializeCampaignResult(runCampaign(S, Plain));
  std::vector<std::vector<uint8_t>> Ckpts = captureCheckpoints(S, Plain, 1000);
  ASSERT_GE(Ckpts.size(), 2u);

  TempDir Dir;
  std::string Err;
  {
    auto Store = CampaignStore::open(Dir.sub("c"), "small", Plain, &Err);
    ASSERT_TRUE(Store) << Err;
    ASSERT_TRUE(Store->writeCheckpoint(Ckpts[0], &Err)) << Err;
    std::vector<uint8_t> Torn = Ckpts[1];
    Torn[Torn.size() / 2] ^= 0x10; // checksum now rejects the envelope
    ASSERT_TRUE(Store->writeCheckpoint(Torn, &Err)) << Err;
  }

  CampaignOptions Stored = Plain;
  Stored.StoreDir = Dir.sub("c");
  Stored.CheckpointInterval = 1000;
  Stored.Trace.Enabled = true;
  CampaignError CErr;
  CampaignResult R = runCampaign(S, Stored, &CErr);
  ASSERT_FALSE(CErr.Failed) << CErr.Message;
  EXPECT_EQ(serializeCampaignResult(R), Ref);
  EXPECT_EQ(filesIn(Dir.sub("c") + "/quarantine"), 1u);
  if (telemetry::Compiled) {
    const telemetry::InstanceRecord *Rec = storeRecord(R.Trace);
    ASSERT_NE(Rec, nullptr);
    EXPECT_EQ(counterOf(Rec->Metrics, "store.checkpoint.quarantined"), 1u);
    EXPECT_EQ(counterOf(Rec->Metrics, "store.checkpoint.recovered"), 1u);
  }
}

TEST(StoredCampaign, SealedGarbageIsQuarantinedByTheDriver) {
  // A checkpoint whose envelope validates but whose payload does not
  // restore: only resumeCampaign can detect it, so the driver (not the
  // store scan) must quarantine and fall back.
  Subject S = smallSubject();
  CampaignOptions Plain = baseOpts(FuzzerKind::Pcguard);
  std::vector<uint8_t> Ref = serializeCampaignResult(runCampaign(S, Plain));
  std::vector<std::vector<uint8_t>> Ckpts = captureCheckpoints(S, Plain, 1000);
  ASSERT_FALSE(Ckpts.empty());

  TempDir Dir;
  std::string Err;
  {
    auto Store = CampaignStore::open(Dir.sub("c"), "small", Plain, &Err);
    ASSERT_TRUE(Store) << Err;
    ASSERT_TRUE(Store->writeCheckpoint(Ckpts[0], &Err)) << Err;
  }
  // Manufacture a NEWER checkpoint that is sealed-but-nonsense.
  ASSERT_TRUE(io::atomicWriteFile(Dir.sub("c") + "/ckpt-0099.pfsnap",
                                  fuzz::sealSnapshot(bytesOf("not a state"))));

  CampaignOptions Stored = Plain;
  Stored.StoreDir = Dir.sub("c");
  Stored.CheckpointInterval = 1000;
  Stored.Trace.Enabled = true;
  CampaignError CErr;
  CampaignResult R = runCampaign(S, Stored, &CErr);
  ASSERT_FALSE(CErr.Failed) << CErr.Message;
  EXPECT_EQ(serializeCampaignResult(R), Ref);
  EXPECT_EQ(filesIn(Dir.sub("c") + "/quarantine"), 1u);
  if (telemetry::Compiled) {
    const telemetry::InstanceRecord *Rec = storeRecord(R.Trace);
    ASSERT_NE(Rec, nullptr);
    EXPECT_EQ(counterOf(Rec->Metrics, "store.checkpoint.quarantined"), 1u);
  }
}

TEST(StoredCampaign, LegacyCheckpointIsQuarantinedAndRerun) {
  // A store written before the phase-list checkpoint frame: its newest
  // (only) checkpoint is a plain-driver frame, the options fingerprint
  // followed by the fuzzer snapshot. The driver refuses it, the store
  // quarantines it, and the campaign reruns to the uninterrupted result.
  Subject S = smallSubject();
  CampaignOptions Plain = baseOpts(FuzzerKind::Pcguard);
  std::vector<uint8_t> Ref = serializeCampaignResult(runCampaign(S, Plain));

  SubjectBuild SB(S);
  fuzz::ByteWriter W;
  writeOptionsFingerprint(W, Plain);
  W.blob(test::freshSnapshot(SB, instr::Feedback::EdgePrecise, Plain));
  const std::vector<uint8_t> Legacy = fuzz::sealSnapshot(W.take());
  CampaignError ResumeErr;
  resumeCampaign(SB, Plain, Legacy, &ResumeErr);
  ASSERT_TRUE(ResumeErr.Failed);
  EXPECT_NE(ResumeErr.Message.find("predates"), std::string::npos)
      << ResumeErr.Message;

  TempDir Dir;
  std::string Err;
  {
    auto Store = CampaignStore::open(Dir.sub("c"), "small", Plain, &Err);
    ASSERT_TRUE(Store) << Err;
    ASSERT_TRUE(Store->writeCheckpoint(Legacy, &Err)) << Err;
  }
  CampaignOptions Stored = Plain;
  Stored.StoreDir = Dir.sub("c");
  Stored.CheckpointInterval = 1000;
  CampaignError CErr;
  CampaignResult R = runCampaign(S, Stored, &CErr);
  ASSERT_FALSE(CErr.Failed) << CErr.Message;
  EXPECT_EQ(serializeCampaignResult(R), Ref);
  EXPECT_EQ(filesIn(Dir.sub("c") + "/quarantine"), 1u);
}

TEST(StoredCampaign, ScanClassifiesEveryState) {
  Subject S = smallSubject();
  CampaignOptions Opts = baseOpts(FuzzerKind::Pcguard, 2000);
  TempDir Root;
  std::string Err;

  // a-done: a finished campaign.
  {
    CampaignOptions Stored = Opts;
    Stored.StoreDir = Root.sub("a-done");
    CampaignError CErr;
    runCampaign(S, Stored, &CErr);
    ASSERT_FALSE(CErr.Failed) << CErr.Message;
  }
  // b-fresh: manifest only, no checkpoint yet.
  ASSERT_TRUE(CampaignStore::open(Root.sub("b-fresh"), "small", Opts, &Err))
      << Err;
  // c-resumable: manifest plus one valid checkpoint.
  {
    auto Store = CampaignStore::open(Root.sub("c-resume"), "small", Opts, &Err);
    ASSERT_TRUE(Store) << Err;
    std::vector<std::vector<uint8_t>> Ckpts =
        captureCheckpoints(S, Opts, 1000);
    ASSERT_FALSE(Ckpts.empty());
    ASSERT_TRUE(Store->writeCheckpoint(Ckpts[0], &Err)) << Err;
  }
  // d-corrupt: a garbage manifest.
  fs::create_directories(Root.sub("d-corrupt"));
  ASSERT_TRUE(io::atomicWriteFile(Root.sub("d-corrupt") + "/manifest.pfm",
                                  std::string("garbage")));
  // e-unrelated: a directory the scan must skip entirely.
  fs::create_directories(Root.sub("e-unrelated"));
  std::ofstream(Root.sub("e-unrelated") + "/notes.txt") << "hi";

  std::vector<StoreScanEntry> Scan = scanStoreRoot(Root.path());
  ASSERT_EQ(Scan.size(), 4u);
  EXPECT_EQ(Scan[0].State, StoreState::Done);
  EXPECT_EQ(Scan[1].State, StoreState::Fresh);
  EXPECT_EQ(Scan[2].State, StoreState::Resumable);
  EXPECT_EQ(Scan[2].CheckpointFiles, 1u);
  EXPECT_EQ(Scan[3].State, StoreState::Corrupt);
  EXPECT_FALSE(Scan[3].Error.empty());

  // The supervisor entry points: a resumable scan entry round-trips into
  // runnable options that finish the campaign.
  const StoreScanEntry &E = Scan[2];
  EXPECT_EQ(E.Subject, "small");
  CampaignOptions Drive = E.Opts;
  Drive.StoreDir = E.Dir;
  CampaignError CErr;
  CampaignResult R = runStoredCampaign(S, Drive, &CErr);
  ASSERT_FALSE(CErr.Failed) << CErr.Message;
  EXPECT_EQ(serializeCampaignResult(R),
            serializeCampaignResult(Scan[0].Final));
}

TEST(StoredCampaign, EmptyStoreDirIsAnError) {
  Subject S = smallSubject();
  CampaignOptions Opts = baseOpts(FuzzerKind::Pcguard, 1000);
  CampaignError Err;
  runStoredCampaign(S, Opts, &Err);
  EXPECT_TRUE(Err.Failed);
}

//===----------------------------------------------------------------------===//
// Batch integration: PATHFUZZ_STORE
//===----------------------------------------------------------------------===//

TEST(StoredCampaign, BatchDerivesPerTrialDirsFromEnv) {
  Subject Small = smallSubject();
  Subject Other = otherSubject();
  std::vector<BatchJob> Jobs;
  Jobs.push_back({&Small, baseOpts(FuzzerKind::Pcguard, 2000)});
  Jobs.push_back({&Other, baseOpts(FuzzerKind::Cull, 2000)});
  Jobs[1].Opts.Seed = 9;

  std::vector<CampaignResult> Plain = runCampaigns(Jobs, 1);

  TempDir Root;
  ::setenv("PATHFUZZ_STORE", Root.path().c_str(), 1);
  std::vector<BatchJobStatus> Statuses;
  std::vector<CampaignResult> Stored = runCampaigns(Jobs, 1, nullptr, &Statuses);
  ::unsetenv("PATHFUZZ_STORE");

  ASSERT_EQ(Stored.size(), Plain.size());
  for (size_t I = 0; I < Plain.size(); ++I) {
    EXPECT_TRUE(Statuses[I].Ok) << Statuses[I].Error;
    EXPECT_EQ(serializeCampaignResult(Stored[I]),
              serializeCampaignResult(Plain[I]))
        << "job " << I;
  }
  // One directory per trial cell, named subject-kind-sSeed, all done.
  EXPECT_TRUE(fs::exists(Root.sub("small-pcguard-s5")));
  EXPECT_TRUE(fs::exists(Root.sub("other-cull-s9")));
  std::vector<StoreScanEntry> Scan = scanStoreRoot(Root.path());
  ASSERT_EQ(Scan.size(), 2u);
  for (const StoreScanEntry &E : Scan)
    EXPECT_EQ(E.State, StoreState::Done) << E.Dir;

  // Re-running the same batch against the same root resumes (here:
  // returns) every done trial byte-identically.
  ::setenv("PATHFUZZ_STORE", Root.path().c_str(), 1);
  std::vector<CampaignResult> Again = runCampaigns(Jobs, 1);
  ::unsetenv("PATHFUZZ_STORE");
  for (size_t I = 0; I < Plain.size(); ++I)
    EXPECT_EQ(serializeCampaignResult(Again[I]),
              serializeCampaignResult(Plain[I]));
}

} // namespace
