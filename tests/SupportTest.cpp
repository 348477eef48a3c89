//===- SupportTest.cpp - Support utilities --------------------------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "support/Env.h"
#include "support/FaultInjection.h"
#include "support/Hashing.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/Table.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

using namespace pathfuzz;

namespace {

TEST(Rng, DeterministicForSeed) {
  Rng A(123), B(123), C(124);
  bool AnyDiff = false;
  for (int I = 0; I < 100; ++I) {
    uint64_t Va = A.next();
    EXPECT_EQ(Va, B.next());
    AnyDiff |= (Va != C.next());
  }
  EXPECT_TRUE(AnyDiff);
}

TEST(Rng, BelowStaysInRange) {
  Rng R(7);
  for (uint64_t Bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int I = 0; I < 200; ++I)
      EXPECT_LT(R.below(Bound), Bound);
  }
}

/// below() as it was before its one-division fast path: rejection on
/// the low 2^64 mod Bound values, kept verbatim as the reference. Counts
/// the draws it rejected.
uint64_t belowReference(Rng &R, uint64_t Bound, uint64_t &Rejected) {
  uint64_t Threshold = -Bound % Bound;
  for (;;) {
    uint64_t X = R.next();
    if (X >= Threshold)
      return X % Bound;
    ++Rejected;
  }
}

/// below() returns the reference's values and leaves the stream at the
/// same position, on small, power-of-two and huge bounds; bounds above
/// 2^63 reject about half their draws, so the slow path runs too.
TEST(Rng, BelowMatchesRejectionReference) {
  const uint64_t Bounds[] = {1,
                             2,
                             3,
                             14,
                             100,
                             256,
                             512,
                             uint64_t(1) << 32,
                             (uint64_t(1) << 32) + 1,
                             uint64_t(1) << 63,
                             (uint64_t(1) << 63) + 1,
                             UINT64_MAX};
  uint64_t HighRejected = 0;
  for (uint64_t Seed : {1ULL, 7ULL, 0xdeadbeefULL}) {
    for (uint64_t Bound : Bounds) {
      Rng Fast(Seed), Ref(Seed);
      uint64_t Rejected = 0;
      for (int I = 0; I < 4000; ++I)
        ASSERT_EQ(Fast.below(Bound), belowReference(Ref, Bound, Rejected))
            << "seed " << Seed << " bound " << Bound << " draw " << I;
      uint64_t SF[4], SR[4];
      Fast.saveState(SF);
      Ref.saveState(SR);
      for (int W = 0; W < 4; ++W)
        EXPECT_EQ(SF[W], SR[W]) << "seed " << Seed << " bound " << Bound;
      if (Bound > (uint64_t(1) << 63))
        HighRejected += Rejected;
    }
  }
  EXPECT_GT(HighRejected, 0u);
}

TEST(Rng, RangeInclusive) {
  Rng R(9);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t V = R.range(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= (V == -3);
    SawHi |= (V == 3);
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Rng, ChanceIsRoughlyCalibrated) {
  Rng R(11);
  int Hits = 0;
  for (int I = 0; I < 10000; ++I)
    Hits += R.chance(1, 4);
  EXPECT_GT(Hits, 2200);
  EXPECT_LT(Hits, 2800);
}

TEST(Stats, MedianAndGeomean) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{}), 0);
  EXPECT_DOUBLE_EQ(geomean({2, 8}), 4);
  EXPECT_DOUBLE_EQ(geomean({5}), 5);
  EXPECT_DOUBLE_EQ(geomean({0, -3}), 0);  // non-positive skipped
  EXPECT_DOUBLE_EQ(geomean({0, 4, 4}), 4);
  EXPECT_DOUBLE_EQ(mean({1, 2, 3}), 2);
  Summary S = Summary::of({1, 5, 3});
  EXPECT_DOUBLE_EQ(S.Min, 1);
  EXPECT_DOUBLE_EQ(S.Max, 5);
  EXPECT_DOUBLE_EQ(S.Median, 3);
}

TEST(Hashing, CombineAndFnv) {
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
  EXPECT_NE(mix64(0), mix64(1));
}

TEST(Table, RendersAlignedColumns) {
  Table T("title");
  T.setHeader({"name", "v"});
  T.addRow({"a", "1"});
  T.addRow({"long-name", "22"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("title"), std::string::npos);
  EXPECT_NE(Out.find("long-name"), std::string::npos);
  EXPECT_NE(Out.find("22"), std::string::npos);
  EXPECT_EQ(Table::pair(3, 14), "3 (14)");
  EXPECT_EQ(Table::fixed(1.234, 1), "1.2");
}

TEST(Env, ParsesValuesAndLists) {
  ::setenv("PF_TEST_INT", "42", 1);
  EXPECT_EQ(envU64("PF_TEST_INT", 7), 42u);
  ::setenv("PF_TEST_INT", "not-a-number", 1);
  EXPECT_EQ(envU64("PF_TEST_INT", 7), 7u);
  ::unsetenv("PF_TEST_INT");
  EXPECT_EQ(envU64("PF_TEST_INT", 9), 9u);

  // Out-of-range values are malformed, not saturated: strtoull would
  // silently wrap "-1" to ULLONG_MAX and clamp overflow with ERANGE.
  ::setenv("PF_TEST_INT", "-1", 1);
  EXPECT_EQ(envU64("PF_TEST_INT", 7), 7u);
  ::setenv("PF_TEST_INT", "99999999999999999999999", 1);
  EXPECT_EQ(envU64("PF_TEST_INT", 7), 7u);
  ::setenv("PF_TEST_INT", "18446744073709551615", 1); // exactly UINT64_MAX
  EXPECT_EQ(envU64("PF_TEST_INT", 7), 18446744073709551615ull);
  ::setenv("PF_TEST_INT", "18446744073709551616", 1); // UINT64_MAX + 1
  EXPECT_EQ(envU64("PF_TEST_INT", 7), 7u);
  ::setenv("PF_TEST_INT", "12x", 1); // trailing junk
  EXPECT_EQ(envU64("PF_TEST_INT", 7), 7u);
  ::unsetenv("PF_TEST_INT");

  ::setenv("PF_TEST_LIST", "a, b,c", 1);
  std::vector<std::string> Xs = envList("PF_TEST_LIST");
  ASSERT_EQ(Xs.size(), 3u);
  EXPECT_EQ(Xs[0], "a");
  EXPECT_EQ(Xs[1], "b");
  EXPECT_EQ(Xs[2], "c");
  ::unsetenv("PF_TEST_LIST");
}

TEST(Env, ParseU64IsStrict) {
  uint64_t V = 99;
  EXPECT_TRUE(parseU64("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseU64("18446744073709551615", V));
  EXPECT_EQ(V, ~0ull);

  // Rejections must leave the output untouched.
  V = 42;
  EXPECT_FALSE(parseU64("", V));
  EXPECT_FALSE(parseU64(" 1", V));
  EXPECT_FALSE(parseU64("1 ", V));
  EXPECT_FALSE(parseU64("+1", V));
  EXPECT_FALSE(parseU64("-1", V));
  EXPECT_FALSE(parseU64("0x10", V));
  EXPECT_FALSE(parseU64("12junk", V));
  EXPECT_FALSE(parseU64("18446744073709551616", V)); // UINT64_MAX + 1
  EXPECT_FALSE(parseU64("99999999999999999999999", V));
  EXPECT_EQ(V, 42u);
}

TEST(Env, BoolMatchesAuditContract) {
  ::unsetenv("PF_TEST_BOOL");
  EXPECT_TRUE(envBool("PF_TEST_BOOL", true));
  EXPECT_FALSE(envBool("PF_TEST_BOOL", false));
  ::setenv("PF_TEST_BOOL", "", 1);
  EXPECT_TRUE(envBool("PF_TEST_BOOL", true));
  ::setenv("PF_TEST_BOOL", "0", 1);
  EXPECT_FALSE(envBool("PF_TEST_BOOL", true));
  ::setenv("PF_TEST_BOOL", "1", 1);
  EXPECT_TRUE(envBool("PF_TEST_BOOL", false));
  ::setenv("PF_TEST_BOOL", "yes", 1); // anything non-"0" enables
  EXPECT_TRUE(envBool("PF_TEST_BOOL", false));
  ::unsetenv("PF_TEST_BOOL");
}

TEST(Env, SplitSpecRejectsMalformedEntries) {
  std::string Name = "keep";
  uint64_t Value = 7;
  ASSERT_TRUE(splitSpecU64("sample@512", Name, Value));
  EXPECT_EQ(Name, "sample");
  EXPECT_EQ(Value, 512u);

  // All of these leave the outputs untouched — a typo skips the spec
  // instead of arming it half-parsed.
  Name = "keep";
  Value = 7;
  EXPECT_FALSE(splitSpecU64("", Name, Value));
  EXPECT_FALSE(splitSpecU64("noat", Name, Value));
  EXPECT_FALSE(splitSpecU64("@5", Name, Value));
  EXPECT_FALSE(splitSpecU64("site@", Name, Value));
  EXPECT_FALSE(splitSpecU64("site@junk", Name, Value));
  EXPECT_FALSE(splitSpecU64("site@-2", Name, Value));
  EXPECT_FALSE(splitSpecU64("site@18446744073709551616", Name, Value));
  // 0x-prefixed values are typos, not hex input.
  EXPECT_FALSE(splitSpecU64("site@0x10", Name, Value));
  // Whitespace around the separator (or anywhere in the spec) makes the
  // entry malformed as a whole. envList strips only plain spaces, so a
  // tab used to flow straight into the *name* — arming a fault site or
  // trace series under a name no lookup would ever match.
  EXPECT_FALSE(splitSpecU64("site @5", Name, Value));
  EXPECT_FALSE(splitSpecU64("site@ 5", Name, Value));
  EXPECT_FALSE(splitSpecU64(" site@5", Name, Value));
  EXPECT_FALSE(splitSpecU64("site@5 ", Name, Value));
  EXPECT_FALSE(splitSpecU64("si\tte@5", Name, Value));
  EXPECT_FALSE(splitSpecU64("site\t@5", Name, Value));
  EXPECT_FALSE(splitSpecU64("site@5\n", Name, Value));
  EXPECT_EQ(Name, "keep");
  EXPECT_EQ(Value, 7u);
}

TEST(Env, FaultSpecListRejectsWhitespaceNames) {
  // End-to-end regression through armFromEnv: a tab inside a spec entry
  // survives envList's space stripping; the malformed entry must be
  // skipped, not armed under an unmatchable name (hit-count *and*
  // probabilistic forms).
  fault::ScopedFaultInjection Guard;
  ::setenv("PATHFUZZ_FAULT_SITES", "si\tte@2,site\t%500,good@1", 1);
  EXPECT_EQ(fault::armFromEnv(), 1u);
  EXPECT_TRUE(fault::shouldFail("good"));
  EXPECT_FALSE(fault::shouldFail("si\tte"));
  EXPECT_FALSE(fault::shouldFail("site\t"));
  ::unsetenv("PATHFUZZ_FAULT_SITES");
}

TEST(ThreadPool, RunsEveryJobExactlyOnce) {
  for (size_t Threads : {1u, 2u, 4u}) {
    ThreadPool Pool(Threads);
    constexpr size_t N = 500;
    std::vector<std::atomic<int>> Ran(N);
    for (auto &R : Ran)
      R.store(0);
    for (size_t I = 0; I < N; ++I)
      Pool.submit([&Ran, I] { Ran[I].fetch_add(1); });
    Pool.wait();
    for (size_t I = 0; I < N; ++I)
      EXPECT_EQ(Ran[I].load(), 1) << "job " << I << " @" << Threads;
  }
}

TEST(ThreadPool, TrySubmitHonorsTheDispatchFaultSite) {
  fault::ScopedFaultInjection Guard;
  ThreadPool Pool(2);
  std::atomic<int> Ran{0};

  // No fault armed: trySubmit behaves exactly like submit.
  EXPECT_TRUE(Pool.trySubmit([&Ran] { Ran.fetch_add(1); }));

  fault::SiteConfig C;
  C.FailOnHit = 1;
  fault::armSite("support.pool.dispatch", C);
  // The rejected job is NOT enqueued; the next attempt goes through.
  EXPECT_FALSE(Pool.trySubmit([&Ran] { Ran.fetch_add(1); }));
  EXPECT_TRUE(Pool.trySubmit([&Ran] { Ran.fetch_add(1); }));
  Pool.wait();
  EXPECT_EQ(Ran.load(), 2);
}

TEST(ThreadPool, StealsAcrossWorkers) {
  // One slow job pins a worker; the fast jobs round-robined onto its
  // deque must be stolen and finished by its peers well before the slow
  // job completes.
  ThreadPool Pool(4);
  std::atomic<int> FastDone{0};
  std::atomic<bool> Release{false};
  Pool.submit([&] {
    while (!Release.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  for (int I = 0; I < 100; ++I)
    Pool.submit([&] {
      if (FastDone.fetch_add(1) + 1 == 100)
        Release.store(true);
    });
  Pool.wait();
  EXPECT_EQ(FastDone.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  Pool.submit([&] { Count.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 1);
  Pool.submit([&] { Count.fetch_add(1); });
  Pool.submit([&] { Count.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 3);
}

TEST(ThreadPool, DefaultThreadCountHonorsEnvOverride) {
  ::setenv("PATHFUZZ_JOBS", "3", 1);
  EXPECT_EQ(ThreadPool::defaultThreadCount(), 3u);
  ::unsetenv("PATHFUZZ_JOBS");
  EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
}

} // namespace
