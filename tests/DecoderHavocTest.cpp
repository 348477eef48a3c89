//===- DecoderHavocTest.cpp - Mutated bytes into every decoder ---------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// The decoders of bytes that arrive from disk or a socket, fed the
// fuzzer's own havoc mutations of valid blobs under fixed seeds:
//
//  - deserializeCampaignResult (the durable store's final results);
//  - readOptionsFingerprint (checkpoint frames and store manifests);
//  - Fuzzer::restore (checkpoints), both on raw envelope mutants and on
//    mutated payloads re-sealed with a valid checksum, so the structural
//    decoder behind the envelope sees them;
//  - serve::parseRequest (the daemon's request lines);
//  - the durable store's manifest, re-sealed like the restore payloads
//    and read back through scanStoreRoot and CampaignStore::open.
//
// The contract for every mutant: rejected cleanly, or accepted and
// re-serialized byte-equal to the mutant — a decoder that accepts bytes
// it would not have written has lost information or invented it. A
// restore that fails must leave the fuzzer's state untouched. Under the
// sanitized build the same runs check that no mutant reaches undefined
// behavior or an unbounded allocation.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "fuzz/Mutator.h"
#include "fuzz/Snapshot.h"
#include "instrument/Instrument.h"
#include "lang/Compile.h"
#include "serve/Protocol.h"
#include "strategy/Campaign.h"
#include "strategy/Store.h"
#include "support/Io.h"
#include "support/Rng.h"
#include "telemetry/Report.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>

using namespace pathfuzz;
using namespace pathfuzz::strategy;
namespace fs = std::filesystem;

namespace {

/// Mutants per decoder and blob. Fixed seeds keep every run identical.
constexpr int Rounds = 400;

const char *Program = R"ml(
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
    if (c == 'h') { while (k > 0) { i = i + 0; } }
    i = i + 1;
  }
  return k;
}
)ml";

Subject subject() {
  Subject S;
  S.Name = "havoc";
  S.Source = Program;
  const char *Seed = "abc.z def.x";
  S.Seeds = {fuzz::Input(Seed, Seed + 11)};
  return S;
}

/// The fuzzer's own havoc stage over a copy of a blob, alternating light
/// stacks (two mutations: most land in one field, so the decoder's value
/// checks see them) with full-depth ones (up to 64: framing and length
/// damage). Mutants may grow to twice the valid blob's size, so block
/// clones and inserts happen too.
class Havoc {
public:
  Havoc(uint64_t Seed, size_t BlobSize)
      : R(Seed), Light(R, config(1, BlobSize)), Deep(R, config(6, BlobSize)) {}

  std::vector<uint8_t> operator()(const std::vector<uint8_t> &Blob) {
    std::vector<uint8_t> Out = Blob;
    (Calls++ % 2 ? Deep : Light).havoc(Out, Dict);
    return Out;
  }

private:
  static fuzz::MutatorConfig config(unsigned StackPow, size_t BlobSize) {
    fuzz::MutatorConfig C;
    C.MaxLen = 2 * BlobSize + 64;
    C.MaxStackPow = StackPow;
    return C;
  }
  Rng R;
  fuzz::Mutator Light, Deep;
  uint64_t Calls = 0;
  /// Values a decoder gives meaning to: lengths, kinds, edge bounds.
  std::vector<int64_t> Dict = {2, 3, 7, 8, 16, 255, 256, 65535, 65536};
};

CampaignOptions campaignOpts(FuzzerKind Kind) {
  CampaignOptions O;
  O.Kind = Kind;
  O.ExecBudget = 3000;
  O.Seed = 9;
  O.CullRounds = 2;
  O.StepLimit = 4000;
  return O;
}

TEST(DecoderHavoc, CampaignResults) {
  const Subject S = subject();
  for (FuzzerKind Kind : {FuzzerKind::Path, FuzzerKind::Cull}) {
    const std::vector<uint8_t> Valid =
        serializeCampaignResult(runCampaign(S, campaignOpts(Kind)));
    CampaignResult Back;
    ASSERT_TRUE(deserializeCampaignResult(Valid, Back));
    ASSERT_EQ(serializeCampaignResult(Back), Valid);
    ASSERT_FALSE(Back.UniqueCrashes.empty()) << "the blob should carry records";

    Havoc Mutate(0xc0ffee + static_cast<uint64_t>(Kind), Valid.size());
    for (int I = 0; I < Rounds; ++I) {
      const std::vector<uint8_t> M = Mutate(Valid);
      CampaignResult R;
      if (deserializeCampaignResult(M, R)) {
        EXPECT_EQ(serializeCampaignResult(R), M)
            << fuzzerKindName(Kind) << " mutant " << I
            << " accepted but re-serializes differently";
      }
    }
  }
}

TEST(DecoderHavoc, OptionsFingerprints) {
  for (FuzzerKind Kind : {FuzzerKind::Path, FuzzerKind::Cull,
                          FuzzerKind::Opp, FuzzerKind::Prescient}) {
    ByteWriter W;
    writeOptionsFingerprint(W, campaignOpts(Kind));
    const std::vector<uint8_t> Valid = W.take();

    Havoc Mutate(0xf1a9 + static_cast<uint64_t>(Kind), Valid.size());
    for (int I = 0; I < Rounds; ++I) {
      const std::vector<uint8_t> M = Mutate(Valid);
      ByteReader Rd(M);
      CampaignOptions O;
      if (!readOptionsFingerprint(Rd, O))
        continue;
      // The fingerprint is embedded in larger frames, so the reader owns
      // only the prefix it consumed.
      ByteWriter Again;
      writeOptionsFingerprint(Again, O);
      const std::vector<uint8_t> Consumed(M.begin(),
                                          M.end() - Rd.remaining());
      EXPECT_EQ(Again.take(), Consumed)
          << fuzzerKindName(Kind) << " mutant " << I;
    }
  }
}

/// A fuzzer over Program with everything a snapshot can carry: queue,
/// crashes, hangs, a cmp dictionary and a telemetry section.
struct FuzzerHarness {
  mir::Module Mod;
  instr::ShadowEdgeIndex Shadow;
  instr::InstrumentReport Report;

  FuzzerHarness() {
    lang::CompileResult CR = lang::compileSource(Program, "havoc");
    EXPECT_TRUE(CR.ok()) << CR.message();
    Mod = std::move(*CR.Mod);
    Shadow = instr::ShadowEdgeIndex::build(Mod);
    instr::InstrumentOptions IO;
    IO.Mode = instr::Feedback::Path;
    IO.MapSizeLog2 = 12;
    Report = instr::instrumentModule(Mod, IO);
  }

  fuzz::FuzzerOptions options() const {
    fuzz::FuzzerOptions FO;
    FO.Seed = 3;
    FO.MapSizeLog2 = 12;
    FO.Exec.StepLimit = 4000;
    FO.Trace.Enabled = true;
    FO.Trace.SampleInterval = 256;
    return FO;
  }
};

TEST(DecoderHavoc, FuzzerRestore) {
  FuzzerHarness H;
  fuzz::Fuzzer Source(H.Mod, H.Report, H.Shadow, H.options());
  Source.addSeed(subject().Seeds[0]);
  Source.run(3000);
  ASSERT_GT(Source.corpus().size(), 1u);
  const std::vector<uint8_t> Valid = Source.snapshot();
  std::vector<uint8_t> ValidPayload;
  ASSERT_TRUE(fuzz::openSnapshot(Valid, ValidPayload));

  // The target already holds state of its own (a different campaign), so
  // an untouched-on-failure violation is visible in its snapshot.
  fuzz::FuzzerOptions TargetOpts = H.options();
  TargetOpts.Seed = 4;
  fuzz::Fuzzer Target(H.Mod, H.Report, H.Shadow, TargetOpts);
  Target.addSeed({'x', '.', 'z'});
  Target.run(500);
  const std::vector<uint8_t> Before = Target.snapshot();
  ASSERT_NE(Before, Valid);

  Havoc Mutate(0x5eed, Valid.size());
  for (int I = 0; I < 2 * Rounds; ++I) {
    // Even rounds mutate the sealed blob (the envelope must catch it);
    // odd rounds mutate the payload and re-seal it, so the structural
    // decoder sees the damage.
    const bool Resealed = I % 2 != 0;
    const std::vector<uint8_t> M =
        Resealed ? fuzz::sealSnapshot(Mutate(ValidPayload)) : Mutate(Valid);
    if (Target.restore(M)) {
      EXPECT_EQ(Target.snapshot(), M)
          << "mutant " << I << " accepted but re-serializes differently";
      ASSERT_TRUE(Target.restore(Before));
    } else {
      ASSERT_EQ(Target.snapshot(), Before)
          << "mutant " << I << (Resealed ? " (re-sealed)" : "")
          << ": a failed restore changed the fuzzer's state";
    }
  }
  // The valid blob still restores after all of that.
  ASSERT_TRUE(Target.restore(Valid));
  EXPECT_EQ(Target.snapshot(), Valid);
}

/// Byte offsets of the fields the crafted-restore cases below rewrite,
/// found by walking the snapshot payload of an untraced fuzzer with one
/// queue entry and no findings (the layout Fuzzer::snapshot writes).
struct PayloadFields {
  size_t CycleEnd = 0, Favored = 0, MapSet = 0, EdgeSet = 0, TopRated = 0;
  size_t NeedCull = 0, HasTrace = 0;
  uint64_t MapSetLen = 0, EdgeSetLen = 0;
};

PayloadFields walkPayload(const std::vector<uint8_t> &P) {
  ByteReader Rd(P);
  auto At = [&] { return P.size() - Rd.remaining(); };
  auto Skip = [&](uint64_t N) { (void)Rd.raw(N); };
  PayloadFields F;
  const uint32_t MapSize = Rd.u32();
  const uint32_t NumEdges = Rd.u32();
  Skip(5 * 8); // RNG state, schedule cursor
  F.CycleEnd = At();
  Skip(8 + 8 + 5 * 8); // CycleEnd, Cycles, stats
  Skip(16 * Rd.u64());  // queue growth samples
  Skip(2 * 8 + MapSize + NumEdges);
  Skip(8 * Rd.u64()); // cmp dictionary
  Skip(8 * Rd.u64()); // bug ids
  EXPECT_EQ(Rd.u64(), 0u) << "crash records";
  EXPECT_EQ(Rd.u64(), 0u) << "hang records";
  EXPECT_EQ(Rd.u64(), 1u) << "queue entries";
  Skip(Rd.u64());            // entry data
  Skip(8 + 4 + 8 + 4);       // checksum, density, steps, depth
  F.Favored = At();
  Skip(1 + 1 + 8); // Favored, WasFuzzed, FoundAtExec
  F.MapSetLen = Rd.u64();
  F.MapSet = At();
  Skip(4 * F.MapSetLen);
  F.EdgeSetLen = Rd.u64();
  F.EdgeSet = At();
  Skip(4 * F.EdgeSetLen);
  EXPECT_EQ(Rd.u64(), MapSize);
  F.TopRated = At();
  Skip(4 * uint64_t(MapSize));
  F.NeedCull = At();
  Skip(1 + 4 + 8);
  F.HasTrace = At();
  EXPECT_EQ(Rd.u8(), 0u);
  EXPECT_TRUE(Rd.done());
  return F;
}

void putU32(std::vector<uint8_t> &P, size_t At, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    P[At + I] = static_cast<uint8_t>(V >> (8 * I));
}

/// Fields havoc rarely lands on exactly, rewritten one at a time: each
/// re-sealed payload must be refused with the target untouched.
TEST(DecoderHavoc, FuzzerRestoreRejectsCraftedFields) {
  FuzzerHarness H;
  fuzz::FuzzerOptions FO = H.options();
  FO.Trace.Enabled = false;
  fuzz::Fuzzer Source(H.Mod, H.Report, H.Shadow, FO);
  Source.addSeed({'a', 'b', 'c'});
  std::vector<uint8_t> Payload;
  ASSERT_TRUE(fuzz::openSnapshot(Source.snapshot(), Payload));
  const PayloadFields F = walkPayload(Payload);
  ASSERT_GE(F.MapSetLen, 2u);
  ASSERT_GE(F.EdgeSetLen, 1u);
  const uint32_t MapSize = 1u << FO.MapSizeLog2;
  const uint32_t NumEdges = H.Shadow.numEdges();

  fuzz::Fuzzer Target(H.Mod, H.Report, H.Shadow, FO);
  Target.addSeed({'x', '.', 'z'});
  const std::vector<uint8_t> Before = Target.snapshot();
  ASSERT_TRUE(Target.restore(fuzz::sealSnapshot(Payload)));
  ASSERT_TRUE(Target.restore(Before));

  using Edit = std::function<void(std::vector<uint8_t> &)>;
  const std::pair<const char *, Edit> Cases[] = {
      {"flag byte 2", [&](auto &P) { P[F.Favored] = 2; }},
      {"cull flag 2", [&](auto &P) { P[F.NeedCull] = 2; }},
      {"trace flag 2", [&](auto &P) { P[F.HasTrace] = 2; }},
      {"map index out of range",
       [&](auto &P) { putU32(P, F.MapSet + 4 * (F.MapSetLen - 1), MapSize); }},
      {"map set out of order",
       [&](auto &P) {
         std::swap_ranges(P.begin() + F.MapSet, P.begin() + F.MapSet + 4,
                          P.begin() + F.MapSet + 4);
       }},
      {"edge out of range",
       [&](auto &P) {
         putU32(P, F.EdgeSet + 4 * (F.EdgeSetLen - 1), NumEdges);
       }},
      {"cycle past the queue", [&](auto &P) { putU32(P, F.CycleEnd, 2); }},
      {"top-rated entry past the queue",
       [&](auto &P) { putU32(P, F.TopRated, 1); }},
      {"top-rated entry below -1",
       [&](auto &P) { putU32(P, F.TopRated, 0xfffffffeu); }},
  };
  for (const auto &[What, Apply] : Cases) {
    std::vector<uint8_t> Bad = Payload;
    Apply(Bad);
    EXPECT_FALSE(Target.restore(fuzz::sealSnapshot(Bad))) << What;
    EXPECT_EQ(Target.snapshot(), Before) << What;
  }
}

/// A crash record's fault kind outside FaultKind is refused.
TEST(DecoderHavoc, CampaignResultRejectsUnknownFaultKind) {
  CampaignResult R;
  fuzz::CrashRecord C;
  C.Data = {1, 2};
  C.TheFault.Kind = vm::FaultKind::OobRead;
  R.UniqueCrashes.push_back(C);
  std::vector<uint8_t> Blob = serializeCampaignResult(R);
  CampaignResult Back;
  ASSERT_TRUE(deserializeCampaignResult(Blob, Back));
  // The record's fault kind byte follows its two data bytes.
  const auto Data = std::search(Blob.begin(), Blob.end(), C.Data.begin(),
                                C.Data.end());
  ASSERT_NE(Data, Blob.end());
  const size_t KindAt = static_cast<size_t>(Data - Blob.begin()) + 2;
  ASSERT_EQ(Blob[KindAt], static_cast<uint8_t>(vm::FaultKind::OobRead));
  Blob[KindAt] = static_cast<uint8_t>(vm::FaultKind::StepLimit) + 1;
  EXPECT_FALSE(deserializeCampaignResult(Blob, Back));
}

/// One canonical request line per parsed Request: the fields parseRequest
/// fills for the verb, strings through the protocol's own escaping.
std::string canonicalRequest(const serve::Request &R) {
  auto Str = [](const char *Key, const std::string &V) {
    return std::string(",\"") + Key + "\":\"" + telemetry::jsonEscape(V) +
           "\"";
  };
  auto Num = [](const char *Key, uint64_t V) {
    return std::string(",\"") + Key + "\":" + std::to_string(V);
  };
  std::string Line =
      "{\"verb\":\"" + std::string(serve::verbName(R.TheVerb)) + "\"";
  switch (R.TheVerb) {
  case serve::Verb::Submit:
    Line += Str("tenant", R.Tenant) + Str("subject", R.Subject) +
            Str("fuzzer", R.Fuzzer) + Num("seed", R.Seed) +
            Num("budget", R.Budget) + Num("trace", R.TraceWanted);
    break;
  case serve::Verb::Status:
  case serve::Verb::Cancel:
  case serve::Verb::Results:
    Line += Str("id", R.Id);
    break;
  case serve::Verb::Series:
    Line += Str("id", R.Id) + Str("series", R.Coverage ? "coverage" : "queue");
    break;
  case serve::Verb::List:
  case serve::Verb::Stats:
  case serve::Verb::Shutdown:
    break;
  }
  return Line + "}";
}

TEST(DecoderHavoc, ServeRequests) {
  const char *Valid[] = {
      "{\"verb\":\"submit\",\"tenant\":\"acme\",\"subject\":\"jhead\","
      "\"fuzzer\":\"path\",\"seed\":7,\"budget\":4000,\"trace\":0}",
      "{ \"verb\": \"submit\", \"tenant\": \"t\", \"subject\": \"s\" }",
      "{\"verb\":\"status\",\"id\":\"acme--jhead-path-s7-b4000\"}",
      "{\"verb\":\"series\",\"id\":\"x--y\",\"series\":\"coverage\"}",
      "{\"verb\":\"stats\"}",
  };
  uint64_t Seed = 0x5e7e;
  for (const char *Line : Valid) {
    serve::Request R;
    std::string Err;
    ASSERT_TRUE(serve::parseRequest(Line, R, Err)) << Line << ": " << Err;
    const std::vector<uint8_t> Bytes(Line, Line + std::strlen(Line));
    Havoc Mutate(Seed++, Bytes.size());
    for (int I = 0; I < Rounds; ++I) {
      const std::vector<uint8_t> M = Mutate(Bytes);
      const std::string Text(M.begin(), M.end());
      serve::Request Parsed;
      if (!serve::parseRequest(Text, Parsed, Err)) {
        EXPECT_FALSE(Err.empty()) << Text;
        continue;
      }
      // Accepted: the canonical line must parse back to the same request.
      const std::string Canon = canonicalRequest(Parsed);
      serve::Request Again;
      ASSERT_TRUE(serve::parseRequest(Canon, Again, Err))
          << Text << " -> " << Canon << ": " << Err;
      EXPECT_EQ(canonicalRequest(Again), Canon) << Text;
    }
  }
}

/// Every file under Dir, by relative path, with its bytes.
std::map<std::string, std::vector<uint8_t>> filesUnder(const std::string &Dir) {
  std::map<std::string, std::vector<uint8_t>> Out;
  for (const fs::directory_entry &E : fs::recursive_directory_iterator(Dir)) {
    if (!E.is_regular_file())
      continue;
    std::vector<uint8_t> Bytes;
    EXPECT_TRUE(io::readFileBounded(E.path().string(), 1u << 24, Bytes));
    Out[fs::relative(E.path(), Dir).string()] = std::move(Bytes);
  }
  return Out;
}

/// Store manifests, for a campaign still running (with a checkpoint on
/// disk) and for a finished one (carrying its result). Each mutant of the
/// manifest payload is re-sealed, so the decoder behind the checksum sees
/// it, and then either rejected — scanStoreRoot reports the store
/// corrupt and CampaignStore::open refuses it with an error — or accepted
/// with a subject, fingerprint and result that re-serialize to the
/// mutant, and the store opens and recovers under them. Neither outcome
/// may modify a file of the store.
TEST(DecoderHavoc, StoreManifests) {
  const Subject S = subject();
  test::TempDir Root;
  uint64_t Seed = 0x3a11f;
  for (bool Finished : {false, true}) {
    const std::string Scan = Root.sub(Finished ? "done" : "running");
    const std::string Dir = Scan + "/store";
    CampaignOptions O = campaignOpts(FuzzerKind::Path);
    O.StoreDir = Dir;
    O.CheckpointInterval = 1000;
    if (Finished) {
      CampaignError Err;
      runStoredCampaign(S, O, &Err);
      ASSERT_FALSE(Err.Failed) << Err.Message;
    } else {
      std::string Err;
      std::unique_ptr<CampaignStore> Store =
          CampaignStore::open(Dir, S.Name, O, &Err);
      ASSERT_NE(Store, nullptr) << Err;
      CampaignOptions Ckpt = campaignOpts(FuzzerKind::Path);
      Ckpt.CheckpointInterval = 1000;
      Ckpt.CheckpointSink = [&Store](const std::vector<uint8_t> &Blob) {
        ASSERT_TRUE(Store->writeCheckpoint(Blob));
      };
      runCampaign(S, Ckpt);
      ASSERT_GT(Store->checkpointsOnDisk(), 0u);
    }
    const std::string Manifest = Dir + "/manifest.pfm";
    std::vector<uint8_t> Sealed, Valid;
    ASSERT_TRUE(io::readFileBounded(Manifest, 1u << 24, Sealed));
    ASSERT_TRUE(fuzz::openSnapshot(Sealed, Valid));
    std::vector<StoreScanEntry> Entries = scanStoreRoot(Scan);
    ASSERT_EQ(Entries.size(), 1u);
    ASSERT_EQ(Entries[0].State,
              Finished ? StoreState::Done : StoreState::Resumable)
        << Entries[0].Error;

    Havoc Mutate(Seed++, Valid.size());
    for (int I = 0; I < Rounds; ++I) {
      const std::vector<uint8_t> M = Mutate(Valid);
      ASSERT_TRUE(io::atomicWriteFile(Manifest, fuzz::sealSnapshot(M)));
      const auto Before = filesUnder(Dir);
      const std::string What = std::string(Finished ? "done" : "running") +
                               " mutant " + std::to_string(I);

      Entries = scanStoreRoot(Scan);
      ASSERT_EQ(Entries.size(), 1u) << What;
      const StoreScanEntry &E = Entries[0];
      std::string Err;
      if (E.State == StoreState::Corrupt) {
        EXPECT_FALSE(E.Error.empty()) << What;
        EXPECT_EQ(CampaignStore::open(Dir, S.Name, O, &Err), nullptr) << What;
        EXPECT_FALSE(Err.empty()) << What;
      } else {
        ByteWriter W;
        W.u32(1); // store format version
        W.str(E.Subject);
        writeOptionsFingerprint(W, E.Opts);
        W.u8(E.State == StoreState::Done);
        if (E.State == StoreState::Done)
          W.blob(serializeCampaignResult(E.Final));
        EXPECT_EQ(W.take(), M) << What << " accepted but re-serializes "
                                  "differently";
        std::unique_ptr<CampaignStore> Store =
            CampaignStore::open(Dir, E.Subject, E.Opts, &Err);
        ASSERT_NE(Store, nullptr) << What << ": " << Err;
        EXPECT_EQ(Store->done(), E.State == StoreState::Done) << What;
        std::vector<uint8_t> Ckpt;
        const bool HasCkpt = Store->checkpointsOnDisk() > 0;
        EXPECT_EQ(Store->recover(Ckpt), HasCkpt) << What;
      }
      EXPECT_TRUE(filesUnder(Dir) == Before) << What << " modified the store";
    }
  }
}

} // namespace
