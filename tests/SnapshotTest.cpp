//===- SnapshotTest.cpp - Fuzzer snapshot/restore ------------------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Snapshot.h"

#include "lang/Compile.h"

#include <gtest/gtest.h>

using namespace pathfuzz;
using namespace pathfuzz::fuzz;

namespace {

struct Harness {
  mir::Module Mod;
  instr::ShadowEdgeIndex Shadow;
  instr::InstrumentReport Report;

  Harness(const char *Src, instr::Feedback Mode, uint32_t MapSizeLog2 = 16) {
    lang::CompileResult CR = lang::compileSource(Src, "t");
    EXPECT_TRUE(CR.ok()) << CR.message();
    Mod = std::move(*CR.Mod);
    Shadow = instr::ShadowEdgeIndex::build(Mod);
    instr::InstrumentOptions IO;
    IO.Mode = Mode;
    IO.MapSizeLog2 = MapSizeLog2;
    Report = instr::instrumentModule(Mod, IO);
  }
};

const char *BuggyLoop = R"ml(
fn main() {
  var a[4];
  var i = 0;
  var k = 0;
  while (i < len()) {
    var c = in(i);
    if (c == 'B') { k = k + 1; }
    if (c == 'U' && k > 1) { a[in(i + 1) % 8] = 1; }
    i = i + 1;
  }
  return k;
}
)ml";

/// Everything observable about a fuzzer the campaign layer reads.
struct Observed {
  FuzzStats Stats;
  size_t QueueSize;
  std::vector<uint32_t> Edges;
  std::vector<int64_t> Dict;
  size_t Crashes, Hangs, Bugs;

  static Observed of(const Fuzzer &F) {
    Observed O{F.stats(),
               F.corpus().size(),
               F.coveredEdgeList(),
               F.cmpDict(),
               F.uniqueCrashes().size(),
               F.uniqueHangs().size(),
               F.bugIds().size()};
    return O;
  }
};

void expectSame(const Observed &A, const Observed &B) {
  EXPECT_EQ(A.Stats.Execs, B.Stats.Execs);
  EXPECT_EQ(A.Stats.Crashes, B.Stats.Crashes);
  EXPECT_EQ(A.Stats.Hangs, B.Stats.Hangs);
  EXPECT_EQ(A.Stats.LastFindExec, B.Stats.LastFindExec);
  EXPECT_EQ(A.Stats.QueueCycles, B.Stats.QueueCycles);
  EXPECT_EQ(A.Stats.QueueGrowth, B.Stats.QueueGrowth);
  EXPECT_EQ(A.QueueSize, B.QueueSize);
  EXPECT_EQ(A.Edges, B.Edges);
  EXPECT_EQ(A.Dict, B.Dict);
  EXPECT_EQ(A.Crashes, B.Crashes);
  EXPECT_EQ(A.Hangs, B.Hangs);
  EXPECT_EQ(A.Bugs, B.Bugs);
}

TEST(Snapshot, EnvelopeRoundTrips) {
  std::vector<uint8_t> Payload = {1, 2, 3, 4, 5};
  std::vector<uint8_t> Blob = sealSnapshot(Payload);
  std::vector<uint8_t> Out;
  ASSERT_TRUE(openSnapshot(Blob, Out));
  EXPECT_EQ(Out, Payload);
}

TEST(Snapshot, EnvelopeRejectsCorruption) {
  std::vector<uint8_t> Blob = sealSnapshot({10, 20, 30, 40});
  std::vector<uint8_t> Out;

  // Bit flip in the payload: checksum mismatch.
  std::vector<uint8_t> Flipped = Blob;
  Flipped.back() ^= 0x01;
  EXPECT_FALSE(openSnapshot(Flipped, Out));

  // Truncation at every prefix length.
  for (size_t N = 0; N < Blob.size(); ++N) {
    std::vector<uint8_t> Cut(Blob.begin(), Blob.begin() + N);
    EXPECT_FALSE(openSnapshot(Cut, Out)) << "prefix " << N;
  }

  // Trailing garbage.
  std::vector<uint8_t> Long = Blob;
  Long.push_back(0);
  EXPECT_FALSE(openSnapshot(Long, Out));

  // Wrong magic.
  std::vector<uint8_t> BadMagic = Blob;
  BadMagic[0] ^= 0xff;
  EXPECT_FALSE(openSnapshot(BadMagic, Out));

  // Unknown version.
  std::vector<uint8_t> BadVersion = Blob;
  BadVersion[4] = 0x7f;
  EXPECT_FALSE(openSnapshot(BadVersion, Out));
}

TEST(Snapshot, ByteReaderRejectsOversizedLengths) {
  // A length prefix larger than the remaining bytes must fail cleanly,
  // including values that would overflow a naive `N * width` check.
  ByteWriter W;
  W.u64(~0ull);
  std::vector<uint8_t> Buf = W.take();
  {
    ByteReader R(Buf);
    (void)R.vecU64();
    EXPECT_FALSE(R.ok());
  }
  {
    ByteReader R(Buf);
    (void)R.vecU32();
    EXPECT_FALSE(R.ok());
  }
  {
    ByteReader R(Buf);
    (void)R.blob();
    EXPECT_FALSE(R.ok());
  }
}

TEST(Snapshot, RestoredFuzzerContinuesByteIdentically) {
  for (instr::Feedback Mode :
       {instr::Feedback::EdgePrecise, instr::Feedback::Path}) {
    SCOPED_TRACE(static_cast<int>(Mode));
    // Reference: one uninterrupted run. Traced, so the snapshot carries
    // the versioned metrics section and the restore must round-trip it.
    // Every fuzzer in this test shares the same checkpoint cadence (the
    // reference's hook is a no-op): CheckpointWritten events land in the
    // ring at identical exec points, keeping the event comparison exact.
    Harness HRef(BuggyLoop, Mode);
    FuzzerOptions FO;
    FO.Seed = 17;
    FO.Trace.Enabled = true;
    FO.Trace.SampleInterval = 512;
    FO.CheckpointInterval = 4000;
    FO.OnCheckpoint = [](const Fuzzer &) {};
    Fuzzer Ref(HRef.Mod, HRef.Report, HRef.Shadow, FO);
    Ref.addSeed({'B', 'B', 'U', 'x'});
    Ref.run(8000);

    // Interrupted: capture a snapshot at the ~4000-exec safe point (the
    // checkpoint hook — run()'s budget stop can land mid-energy-loop,
    // which is exactly why checkpoints only fire at safe points), then
    // restore into a fresh fuzzer on a fresh (bit-identical) build and
    // finish the budget there.
    Harness HA(BuggyLoop, Mode);
    FuzzerOptions FA = FO;
    std::vector<uint8_t> Blob;
    Observed AtCheckpoint;
    FA.OnCheckpoint = [&Blob, &AtCheckpoint](const Fuzzer &F) {
      if (Blob.empty()) {
        Blob = F.snapshot();
        AtCheckpoint = Observed::of(F);
      }
    };
    Fuzzer A(HA.Mod, HA.Report, HA.Shadow, FA);
    A.addSeed({'B', 'B', 'U', 'x'});
    A.run(8000);
    ASSERT_FALSE(Blob.empty());

    Harness HB(BuggyLoop, Mode);
    Fuzzer B(HB.Mod, HB.Report, HB.Shadow, FO);
    ASSERT_TRUE(B.restore(Blob));
    expectSame(AtCheckpoint, Observed::of(B));
    B.run(8000);

    expectSame(Observed::of(Ref), Observed::of(B));
    // Corpus contents, not just sizes.
    ASSERT_EQ(Ref.corpus().size(), B.corpus().size());
    for (size_t I = 0; I < Ref.corpus().size(); ++I) {
      EXPECT_EQ(Ref.corpus()[I].Data, B.corpus()[I].Data);
      EXPECT_EQ(Ref.corpus()[I].Favored, B.corpus()[I].Favored);
    }
    // Telemetry state too: same cumulative metrics, samples and events
    // as the uninterrupted run (under PATHFUZZ_NO_TELEMETRY no trace is
    // ever attached, so only the campaign-state half applies).
    if (telemetry::Compiled) {
      ASSERT_NE(Ref.trace(), nullptr);
      ASSERT_NE(B.trace(), nullptr);
      EXPECT_TRUE(Ref.trace()->metrics() == B.trace()->metrics());
      EXPECT_EQ(Ref.trace()->samples(), B.trace()->samples());
      EXPECT_EQ(Ref.trace()->ring().recorded(), B.trace()->ring().recorded());
      EXPECT_EQ(Ref.trace()->ring().events(), B.trace()->ring().events());
    }
  }
}

TEST(Snapshot, UntracedFuzzerAcceptsATracedSnapshot) {
  // Restoring a traced snapshot into an untraced fuzzer must consume the
  // metrics section (validating the trailing done() check) and simply
  // drop it — operators may resume a campaign with tracing off.
  Harness HA(BuggyLoop, instr::Feedback::Path);
  FuzzerOptions Traced;
  Traced.Seed = 11;
  Traced.Trace.Enabled = true;
  Fuzzer A(HA.Mod, HA.Report, HA.Shadow, Traced);
  A.addSeed({'B', 'B', 'U', 'x'});
  A.run(2000);
  std::vector<uint8_t> Blob = A.snapshot();

  Harness HB(BuggyLoop, instr::Feedback::Path);
  FuzzerOptions Untraced;
  Untraced.Seed = 11;
  Fuzzer B(HB.Mod, HB.Report, HB.Shadow, Untraced);
  ASSERT_TRUE(B.restore(Blob));
  EXPECT_EQ(B.trace(), nullptr);
  expectSame(Observed::of(A), Observed::of(B));
}

TEST(Snapshot, TracedFuzzerRestoredFromAnUntracedSnapshotStartsAFreshTrace) {
  // The reverse direction: a traced fuzzer that has already run restores
  // an untraced snapshot. Its pre-restore trace must not survive — the
  // trace counts only what happens after the restore, exactly like a
  // fresh traced fuzzer that restored the same snapshot.
  if (!telemetry::Compiled)
    GTEST_SKIP() << "telemetry compiled out";
  Harness H(BuggyLoop, instr::Feedback::Path);
  FuzzerOptions Untraced;
  Untraced.Seed = 11;
  Fuzzer U(H.Mod, H.Report, H.Shadow, Untraced);
  U.addSeed({'B', 'B', 'U', 'x'});
  U.run(200);
  const uint64_t AtSnapshot = U.stats().Execs;
  std::vector<uint8_t> Blob = U.snapshot();

  FuzzerOptions Traced = Untraced;
  Traced.Trace.Enabled = true;
  Traced.Trace.SampleInterval = 64;
  Fuzzer T(H.Mod, H.Report, H.Shadow, Traced);
  T.addSeed({'B', 'B', 'U', 'x'});
  T.run(500);
  ASSERT_GE(T.trace()->metrics().counters().at("execs"), 500u);
  ASSERT_TRUE(T.restore(Blob));
  EXPECT_EQ(T.stats().Execs, AtSnapshot);
  ASSERT_NE(T.trace(), nullptr);
  EXPECT_EQ(T.trace()->metrics().counters().at("execs"), 0u);
  EXPECT_EQ(T.trace()->ring().recorded(), 0u);
  EXPECT_TRUE(T.trace()->samples().empty());

  Fuzzer Fresh(H.Mod, H.Report, H.Shadow, Traced);
  ASSERT_TRUE(Fresh.restore(Blob));
  T.run(AtSnapshot + 300);
  Fresh.run(AtSnapshot + 300);
  EXPECT_EQ(T.trace()->metrics().counters().at("execs"), 300u);
  EXPECT_TRUE(T.trace()->metrics() == Fresh.trace()->metrics());
  EXPECT_EQ(T.trace()->samples(), Fresh.trace()->samples());
  EXPECT_EQ(T.trace()->ring().events(), Fresh.trace()->ring().events());
  expectSame(Observed::of(T), Observed::of(Fresh));
}

TEST(Snapshot, SnapshotItselfDoesNotPerturbTheRun) {
  Harness H1(BuggyLoop, instr::Feedback::Path);
  Harness H2(BuggyLoop, instr::Feedback::Path);
  FuzzerOptions FO;
  FO.Seed = 5;
  Fuzzer Plain(H1.Mod, H1.Report, H1.Shadow, FO);
  Plain.addSeed({'B', 'B', 'U', 'x'});
  Plain.run(6000);

  FuzzerOptions FC = FO;
  FC.CheckpointInterval = 512;
  size_t Fired = 0;
  FC.OnCheckpoint = [&Fired](const Fuzzer &F) {
    ++Fired;
    (void)F.snapshot(); // const: taking the snapshot must not perturb
  };
  Fuzzer Check(H2.Mod, H2.Report, H2.Shadow, FC);
  Check.addSeed({'B', 'B', 'U', 'x'});
  Check.run(6000);

  EXPECT_GT(Fired, 0u);
  expectSame(Observed::of(Plain), Observed::of(Check));
}

TEST(Snapshot, RestoreRejectsMismatchedConfiguration) {
  Harness H(BuggyLoop, instr::Feedback::Path);
  FuzzerOptions FO;
  FO.Seed = 9;
  Fuzzer A(H.Mod, H.Report, H.Shadow, FO);
  A.addSeed({'B', 'U'});
  A.run(1000);
  std::vector<uint8_t> Blob = A.snapshot();

  // Different map size → different structural fingerprint.
  Harness HSmall(BuggyLoop, instr::Feedback::Path, /*MapSizeLog2=*/10);
  FuzzerOptions Small = FO;
  Small.MapSizeLog2 = 10;
  Fuzzer B(HSmall.Mod, HSmall.Report, HSmall.Shadow, Small);
  uint64_t ExecsBefore = B.stats().Execs;
  EXPECT_FALSE(B.restore(Blob));
  EXPECT_EQ(B.stats().Execs, ExecsBefore); // untouched on rejection

  // Garbage blob and an empty blob.
  EXPECT_FALSE(B.restore({1, 2, 3}));
  EXPECT_FALSE(B.restore({}));
}

} // namespace
