//===- ServeTest.cpp - Campaign service protocol/scheduler/server tests -------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// The service suite (ctest label: service). Four layers, bottom up:
//
//  - wire protocol: request parsing (with the whitespace clients really
//    send), malformed/invalid rejection with error replies, tenant-name
//    and campaign-id discipline, the hex and escape codecs;
//  - framing: LineReader reassembly across arbitrary packet splits, EOF,
//    and the oversized-line poison;
//  - scheduler: byte-identity against a plain runCampaign() of the same
//    options, idempotent resubmission, admission control, cancellation
//    (including resuming a cancelled campaign), tenant fair-share under
//    one worker, and daemon-restart adoption mid-campaign;
//  - server: a live unix-socket daemon end to end (submit through series),
//    plus the client-failure legs — malformed and truncated requests,
//    oversized drops, and the serve.accept.fail / serve.write.fail fault
//    drills proving a dropped client never corrupts or stalls a campaign.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"
#include "serve/Scheduler.h"
#include "serve/Server.h"
#include "strategy/Campaign.h"
#include "strategy/Store.h"
#include "support/FaultInjection.h"
#include "support/Socket.h"
#include "telemetry/Report.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <vector>

using namespace pathfuzz;
using namespace pathfuzz::serve;
using strategy::CampaignOptions;
using strategy::CampaignResult;
using strategy::FuzzerKind;
using strategy::Subject;
namespace fs = std::filesystem;

namespace {

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

std::string freshRoot(const std::string &Tag) {
  std::string Root = (fs::temp_directory_path() /
                      ("pathfuzz-serve-" + Tag + "-" +
                       std::to_string(::getpid())))
                         .string();
  std::error_code Ec;
  fs::remove_all(Root, Ec);
  return Root;
}

/// The exact options the scheduler derives from a submission — the
/// reference side of every byte-identity assertion here.
CampaignOptions submittedOpts(FuzzerKind Kind, uint64_t Seed, uint64_t Budget,
                              uint64_t Interval, bool Trace) {
  CampaignOptions Opts;
  Opts.Kind = Kind;
  Opts.ExecBudget = Budget;
  Opts.Seed = Seed;
  Opts.CheckpointInterval = Interval;
  Opts.CheckpointSink = [](const std::vector<uint8_t> &) {};
  Opts.Trace.Enabled = Trace;
  return Opts;
}

std::vector<uint8_t> referenceBlob(const Subject &S,
                                   const CampaignOptions &Opts) {
  strategy::CampaignError Err;
  CampaignResult R = strategy::runCampaign(S, Opts, &Err);
  EXPECT_FALSE(Err.Failed) << Err.Message;
  return strategy::serializeCampaignResult(R);
}

uint64_t counterOf(const telemetry::MetricsRegistry &Snap, const char *Name) {
  auto It = Snap.counters().find(Name);
  return It == Snap.counters().end() ? 0 : It->second;
}

bool waitForState(const Scheduler &Sched, const std::string &Id,
                  CampaignState Want, uint64_t TimeoutMs) {
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(TimeoutMs);
  CampaignStatus St;
  while (std::chrono::steady_clock::now() < Deadline) {
    if (Sched.status(Id, St) && St.State == Want)
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Wire protocol
//===----------------------------------------------------------------------===//

TEST(ServeProtocol, SubmitParsesWithClientWhitespace) {
  // Real clients (json.dumps and friends) put spaces after the colons;
  // the parser must canonicalize before extraction.
  Request R;
  std::string Err;
  ASSERT_TRUE(parseRequest(
      "  { \"verb\": \"submit\", \"tenant\": \"acme\", "
      "\"subject\": \"small\", \"seed\": 7, \"budget\": 4000 }\r",
      R, Err))
      << Err;
  EXPECT_EQ(R.TheVerb, Verb::Submit);
  EXPECT_EQ(R.Tenant, "acme");
  EXPECT_EQ(R.Subject, "small");
  EXPECT_EQ(R.Fuzzer, "pcguard"); // default
  EXPECT_EQ(R.Seed, 7u);
  EXPECT_EQ(R.Budget, 4000u);
  EXPECT_TRUE(R.TraceWanted); // default

  // Whitespace inside string values must survive canonicalization.
  ASSERT_TRUE(parseRequest("{\"verb\":\"status\",\"id\":\"a--b c\"}", R, Err));
  EXPECT_EQ(R.Id, "a--b c");
}

TEST(ServeProtocol, SubmitTraceOptOutAndDefaults) {
  Request R;
  std::string Err;
  ASSERT_TRUE(parseRequest(
      "{\"verb\":\"submit\",\"tenant\":\"t\",\"subject\":\"s\",\"trace\":0}",
      R, Err));
  EXPECT_FALSE(R.TraceWanted);
  EXPECT_EQ(R.Seed, 1u);
  EXPECT_EQ(R.Budget, 20000u);
}

TEST(ServeProtocol, NumericFieldsAtTheU64Edge) {
  Request R;
  std::string Err;
  ASSERT_TRUE(parseRequest("{\"verb\":\"submit\",\"tenant\":\"t\","
                           "\"subject\":\"s\",\"seed\":18446744073709551615,"
                           "\"budget\":18446744073709551615,\"trace\":2}",
                           R, Err))
      << Err;
  EXPECT_EQ(R.Seed, UINT64_MAX);
  EXPECT_EQ(R.Budget, UINT64_MAX);
  EXPECT_TRUE(R.TraceWanted);

  uint64_t V = 5;
  EXPECT_FALSE(telemetry::jsonU64("{\"n\":18446744073709551616}", "n", V));
  EXPECT_FALSE(telemetry::jsonU64("{\"n\":99999999999999999999}", "n", V));
  EXPECT_EQ(V, 5u); // a rejected value leaves the output alone
  EXPECT_TRUE(telemetry::jsonU64("{\"n\":18446744073709551615}", "n", V));
  EXPECT_EQ(V, UINT64_MAX);
}

TEST(ServeProtocol, EscapeRoundTripsEveryByte) {
  // Reply fields are escaped with telemetry::jsonEscape and read back with
  // telemetry::jsonStr: every byte value must survive, control characters
  // (written as \u00XX) included.
  std::string All;
  for (int C = 0; C < 256; ++C)
    All += static_cast<char>(C);
  std::string Back;
  ASSERT_TRUE(telemetry::jsonStr(
      "{\"k\":\"" + telemetry::jsonEscape(All) + "\"}", "k", Back));
  EXPECT_EQ(Back, All);
  // Wider \u escapes and short ones are refused, not misread.
  EXPECT_FALSE(telemetry::jsonStr("{\"k\":\"\\u00e9\"}", "k", Back));
  EXPECT_FALSE(telemetry::jsonStr("{\"k\":\"\\u12\"}", "k", Back));
}

TEST(ServeProtocol, EveryJsonEscapeDecodesAndOthersAreRefused) {
  // Each ASCII byte on its own survives jsonEscape -> jsonStr.
  for (int C = 0; C < 0x80; ++C) {
    const std::string One(1, static_cast<char>(C));
    std::string Back;
    ASSERT_TRUE(telemetry::jsonStr(
        "{\"k\":\"" + telemetry::jsonEscape(One) + "\"}", "k", Back))
        << C;
    EXPECT_EQ(Back, One) << C;
  }
  // A client may write the short escapes jsonEscape never emits; each
  // decodes to its byte, so a backspace or form feed in a subject or id
  // arrives as that byte, not as the letter.
  std::string Back;
  ASSERT_TRUE(telemetry::jsonStr(
      "{\"k\":\"a\\bb\\fc\\/d\\\"e\\\\f\\ng\\th\\ri\"}", "k", Back));
  EXPECT_EQ(Back, std::string("a\bb\fc/d\"e\\f\ng\th\ri"));
  // Anything else after a backslash is not JSON: refused, not kept.
  for (const char *Bad : {"\\x41", "\\q", "\\a", "\\0", "\\'", "\\U0041"}) {
    EXPECT_FALSE(telemetry::jsonStr(std::string("{\"k\":\"") + Bad + "\"}",
                                    "k", Back))
        << Bad;
  }
}

TEST(ServeProtocol, SeriesParsesBothKinds) {
  Request R;
  std::string Err;
  ASSERT_TRUE(parseRequest(
      "{\"verb\":\"series\",\"id\":\"x--y\",\"series\":\"queue\"}", R, Err));
  EXPECT_FALSE(R.Coverage);
  ASSERT_TRUE(parseRequest(
      "{\"verb\":\"series\",\"id\":\"x--y\",\"series\":\"coverage\"}", R, Err));
  EXPECT_TRUE(R.Coverage);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  const char *Bad[] = {
      "",                                                     // empty
      "hello",                                                // not JSON
      "\"verb\":\"list\"",                                    // no braces
      "{}",                                                   // no verb
      "{\"verb\":\"warp\"}",                                  // unknown verb
      "{\"verb\":\"submit\",\"subject\":\"s\"}",              // no tenant
      "{\"verb\":\"submit\",\"tenant\":\"a b\",\"subject\":\"s\"}",
      "{\"verb\":\"submit\",\"tenant\":\"t\"}",               // no subject
      "{\"verb\":\"submit\",\"tenant\":\"t\",\"subject\":\"s\","
      "\"budget\":0}",                                        // zero budget
      "{\"verb\":\"status\"}",                                // no id
      "{\"verb\":\"results\"}",                               // no id
      "{\"verb\":\"series\",\"id\":\"x\"}",                   // no series kind
      "{\"verb\":\"series\",\"id\":\"x\",\"series\":\"pie\"}",
      // Numeric fields present but malformed: never a default, never a
      // wrapped value.
      "{\"verb\":\"submit\",\"tenant\":\"t\",\"subject\":\"s\","
      "\"budget\":18446744073709551617}",                     // 2^64 + 1
      "{\"verb\":\"submit\",\"tenant\":\"t\",\"subject\":\"s\","
      "\"budget\":18446744073709551616}",                     // 2^64
      "{\"verb\":\"submit\",\"tenant\":\"t\",\"subject\":\"s\","
      "\"seed\":\"7\"}",                                      // string
      "{\"verb\":\"submit\",\"tenant\":\"t\",\"subject\":\"s\","
      "\"seed\":-1}",                                         // negative
      "{\"verb\":\"submit\",\"tenant\":\"t\",\"subject\":\"s\","
      "\"seed\":}",                                           // no value
      "{\"verb\":\"submit\",\"tenant\":\"t\",\"subject\":\"s\","
      "\"seed\":1.5}",                                        // fraction
      "{\"verb\":\"submit\",\"tenant\":\"t\",\"subject\":\"s\","
      "\"budget\":12abc}",                                    // junk tail
      "{\"verb\":\"submit\",\"tenant\":\"t\",\"subject\":\"s\","
      "\"trace\":true}",                                      // boolean
  };
  for (const char *Line : Bad) {
    Request R;
    std::string Err;
    EXPECT_FALSE(parseRequest(Line, R, Err)) << Line;
    EXPECT_FALSE(Err.empty()) << Line;
  }
}

TEST(ServeProtocol, TenantNameDiscipline) {
  EXPECT_TRUE(validTenantName("acme"));
  EXPECT_TRUE(validTenantName("a.b-c_9"));
  EXPECT_FALSE(validTenantName(""));
  EXPECT_FALSE(validTenantName(std::string(65, 'a')));
  EXPECT_FALSE(validTenantName("a b"));
  EXPECT_FALSE(validTenantName("a/b")); // would escape the store root
  EXPECT_FALSE(validTenantName("."));
  EXPECT_FALSE(validTenantName(".."));
  EXPECT_FALSE(validTenantName("a--b")); // collides with the id separator
}

TEST(ServeProtocol, CampaignIdRoundTrip) {
  std::string Id = campaignId("acme", "small", "pcguard", 7, 4000);
  EXPECT_EQ(Id, "acme--small-pcguard-s7-b4000");
  std::string Tenant;
  ASSERT_TRUE(tenantOfId(Id, Tenant));
  EXPECT_EQ(Tenant, "acme");
  EXPECT_FALSE(tenantOfId("no-separator", Tenant));
  EXPECT_FALSE(tenantOfId("--empty-tenant", Tenant));
}

TEST(ServeProtocol, HexCodecRoundTrip) {
  std::vector<uint8_t> Bytes;
  for (int I = 0; I < 256; ++I)
    Bytes.push_back(static_cast<uint8_t>(I));
  std::string Hex = hexEncode(Bytes);
  EXPECT_EQ(Hex.size(), 512u);
  std::vector<uint8_t> Back;
  ASSERT_TRUE(hexDecode(Hex, Back));
  EXPECT_EQ(Back, Bytes);
  EXPECT_FALSE(hexDecode("abc", Back));  // odd length
  EXPECT_FALSE(hexDecode("zz", Back));   // not hex
  ASSERT_TRUE(hexDecode("", Back));      // empty blob is legal
  EXPECT_TRUE(Back.empty());
}

TEST(ServeProtocol, ReplyBuilderEscapeRoundTrip) {
  // What ReplyBuilder emits, the telemetry extractors (the other half of
  // the protocol) must read back verbatim.
  const std::string Nasty = "a\"b\\c\nd\te\rf";
  std::string Line = ReplyBuilder()
                         .boolean("ok", true)
                         .field("msg", Nasty)
                         .field("n", uint64_t(42))
                         .line();
  EXPECT_EQ(Line.back(), '\n');
  uint64_t Ok = 0, N = 0;
  std::string Msg;
  EXPECT_TRUE(telemetry::jsonU64(Line, "ok", Ok));
  EXPECT_TRUE(telemetry::jsonStr(Line, "msg", Msg));
  EXPECT_TRUE(telemetry::jsonU64(Line, "n", N));
  EXPECT_EQ(Ok, 1u);
  EXPECT_EQ(Msg, Nasty);
  EXPECT_EQ(N, 42u);

  std::string ErrLine = errorReply("boom");
  uint64_t ErrOk = 1;
  std::string ErrMsg;
  EXPECT_TRUE(telemetry::jsonU64(ErrLine, "ok", ErrOk));
  EXPECT_TRUE(telemetry::jsonStr(ErrLine, "error", ErrMsg));
  EXPECT_EQ(ErrOk, 0u);
  EXPECT_EQ(ErrMsg, "boom");
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

struct SocketPair {
  net::Fd A, B;
  SocketPair() {
    int Fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
    A = net::Fd(Fds[0]);
    B = net::Fd(Fds[1]);
  }
};

TEST(ServeFraming, ReassemblesLinesAcrossArbitrarySplits) {
  SocketPair P;
  net::LineReader Reader(1024);
  std::string Out;

  // Two lines delivered in awkward fragments: framing must not depend on
  // packet boundaries.
  ASSERT_TRUE(net::writeAll(P.A, std::string("{\"verb\":")));
  EXPECT_EQ(Reader.fill(P.B, Out), net::LineReader::Status::NeedMore);
  ASSERT_TRUE(net::writeAll(P.A, std::string("\"list\"}\n{\"ver")));
  EXPECT_EQ(Reader.fill(P.B, Out), net::LineReader::Status::Line);
  EXPECT_EQ(Out, "{\"verb\":\"list\"}");
  EXPECT_EQ(Reader.next(Out), net::LineReader::Status::NeedMore);
  ASSERT_TRUE(net::writeAll(P.A, std::string("b\":\"stats\"}\n")));
  EXPECT_EQ(Reader.fill(P.B, Out), net::LineReader::Status::Line);
  EXPECT_EQ(Out, "{\"verb\":\"stats\"}");

  // Clean EOF: no buffered line left.
  P.A.reset();
  EXPECT_EQ(Reader.fill(P.B, Out), net::LineReader::Status::Closed);
}

TEST(ServeFraming, TruncatedLineAtEofIsClosedNotALine) {
  SocketPair P;
  net::LineReader Reader(1024);
  std::string Out;
  ASSERT_TRUE(net::writeAll(P.A, std::string("{\"verb\":\"stats\"")));
  P.A.reset(); // peer dies mid-request
  // The partial line may arrive in a read of its own before the EOF shows
  // up; either way the fragment must never come out as a Line.
  net::LineReader::Status St;
  do {
    St = Reader.fill(P.B, Out);
  } while (St == net::LineReader::Status::NeedMore);
  EXPECT_EQ(St, net::LineReader::Status::Closed);
}

TEST(ServeFraming, OversizedLinePoisonsTheReader) {
  SocketPair P;
  net::LineReader Reader(64);
  std::string Out;
  ASSERT_TRUE(net::writeAll(P.A, std::string(100, 'x')));
  EXPECT_EQ(Reader.fill(P.B, Out), net::LineReader::Status::Oversized);
  // The tail cannot be re-framed: even a valid line after the flood must
  // not come out.
  ASSERT_TRUE(net::writeAll(P.A, std::string("\n{\"verb\":\"list\"}\n")));
  EXPECT_EQ(Reader.fill(P.B, Out), net::LineReader::Status::Oversized);
  EXPECT_EQ(Reader.next(Out), net::LineReader::Status::Oversized);

  // A complete over-cap line delivered in one packet must poison too —
  // the cap cannot depend on how the flood was packetized.
  SocketPair P2;
  net::LineReader Reader2(64);
  ASSERT_TRUE(net::writeAll(P2.A, std::string(100, 'y') + "\n"));
  EXPECT_EQ(Reader2.fill(P2.B, Out), net::LineReader::Status::Oversized);
}

//===----------------------------------------------------------------------===//
// Scheduler
//===----------------------------------------------------------------------===//

TEST(ServeScheduler, ByteIdenticalToDirectRun) {
  const std::string Root = freshRoot("ident");
  Subject S = smallSubject();
  const std::vector<uint8_t> Ref =
      referenceBlob(S, submittedOpts(FuzzerKind::Pcguard, 5, 4000, 700, true));

  SchedulerConfig Cfg;
  Cfg.Root = Root;
  Cfg.Threads = 2;
  Cfg.CheckpointInterval = 700;
  Scheduler Sched(Cfg, {S});

  std::string Id, Err;
  bool Existing = true;
  ASSERT_TRUE(
      Sched.submit("acme", "small", "pcguard", 5, 4000, true, Id, Existing, Err))
      << Err;
  EXPECT_FALSE(Existing);
  EXPECT_EQ(Id, campaignId("acme", "small", "pcguard", 5, 4000));
  ASSERT_TRUE(Sched.waitIdle(60000));

  std::vector<uint8_t> Blob;
  ASSERT_TRUE(Sched.results(Id, Blob, Err)) << Err;
  EXPECT_EQ(Blob, Ref);

  // The trajectory CSVs are served from the same trace the exporters use;
  // a build without telemetry says so instead.
  std::string Csv;
  if (telemetry::Compiled) {
    ASSERT_TRUE(Sched.seriesCsv(Id, false, Csv, Err)) << Err;
    EXPECT_EQ(Csv.compare(0, 31, "subject,fuzzer,seed,execs,queue"), 0) << Csv;
    ASSERT_TRUE(Sched.seriesCsv(Id, true, Csv, Err)) << Err;
    EXPECT_EQ(Csv.compare(0, 5, "subje"), 0) << Csv;
  } else {
    EXPECT_FALSE(Sched.seriesCsv(Id, false, Csv, Err));
    EXPECT_NE(Err.find("telemetry compiled out"), std::string::npos) << Err;
  }

  // The store on disk is Done and replays the same bytes.
  std::vector<strategy::StoreScanEntry> Scan = strategy::scanStoreRoot(Root);
  ASSERT_EQ(Scan.size(), 1u);
  EXPECT_EQ(Scan[0].State, strategy::StoreState::Done);
  EXPECT_EQ(strategy::serializeCampaignResult(Scan[0].Final), Ref);

  std::error_code Ec;
  fs::remove_all(Root, Ec);
}

TEST(ServeScheduler, IdempotentResubmitAndRejections) {
  const std::string Root = freshRoot("idem");
  SchedulerConfig Cfg;
  Cfg.Root = Root;
  Cfg.Threads = 1;
  Scheduler Sched(Cfg, {smallSubject()});

  std::string Id, Id2, Err;
  bool Existing = true;
  ASSERT_TRUE(
      Sched.submit("t", "small", "pcguard", 3, 2000, false, Id, Existing, Err));
  EXPECT_FALSE(Existing);
  // Same cell again: same id, no second campaign.
  ASSERT_TRUE(
      Sched.submit("t", "small", "pcguard", 3, 2000, false, Id2, Existing, Err));
  EXPECT_TRUE(Existing);
  EXPECT_EQ(Id, Id2);
  EXPECT_EQ(Sched.list().size(), 1u);

  // Rejections are errors, never entries.
  EXPECT_FALSE(
      Sched.submit("t", "nosuch", "pcguard", 1, 100, false, Id2, Existing, Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(
      Sched.submit("t", "small", "warp", 1, 100, false, Id2, Existing, Err));
  EXPECT_FALSE(
      Sched.submit("a--b", "small", "pcguard", 1, 100, false, Id2, Existing, Err));
  EXPECT_FALSE(
      Sched.submit("t", "small", "pcguard", 1, 0, false, Id2, Existing, Err));
  EXPECT_EQ(Sched.list().size(), 1u);

  ASSERT_TRUE(Sched.waitIdle(60000));
  std::error_code Ec;
  fs::remove_all(Root, Ec);
}

TEST(ServeScheduler, AdmissionControlCapsLiveCampaigns) {
  const std::string Root = freshRoot("adm");
  SchedulerConfig Cfg;
  Cfg.Root = Root;
  Cfg.Threads = 1;
  Cfg.MaxCampaigns = 2;
  Cfg.TenantMax = 1;
  Scheduler Sched(Cfg, {smallSubject()});

  std::string Id, Err;
  bool Existing = false;
  ASSERT_TRUE(
      Sched.submit("a", "small", "pcguard", 1, 1000, false, Id, Existing, Err));
  // Tenant cap: a second live campaign for the same tenant is refused.
  EXPECT_FALSE(
      Sched.submit("a", "small", "pcguard", 2, 1000, false, Id, Existing, Err));
  EXPECT_FALSE(Err.empty());
  ASSERT_TRUE(
      Sched.submit("b", "small", "pcguard", 1, 1000, false, Id, Existing, Err));
  // Global cap: a third live campaign is refused even for a fresh tenant.
  EXPECT_FALSE(
      Sched.submit("c", "small", "pcguard", 1, 1000, false, Id, Existing, Err));
  EXPECT_GE(counterOf(Sched.statsSnapshot(), "serve.rejected"), 2u);

  // The caps bound *live* campaigns, not history: once the work finishes,
  // admission reopens.
  ASSERT_TRUE(Sched.waitIdle(60000));
  EXPECT_TRUE(
      Sched.submit("c", "small", "pcguard", 1, 1000, false, Id, Existing, Err))
      << Err;
  ASSERT_TRUE(Sched.waitIdle(60000));
  std::error_code Ec;
  fs::remove_all(Root, Ec);
}

TEST(ServeScheduler, CancelThenResubmitResumesToByteIdentity) {
  const std::string Root = freshRoot("cancel");
  Subject S = smallSubject();
  const std::vector<uint8_t> Ref = referenceBlob(
      S, submittedOpts(FuzzerKind::Pcguard, 9, 20000, 500, false));

  SchedulerConfig Cfg;
  Cfg.Root = Root;
  Cfg.Threads = 1;
  Cfg.CheckpointInterval = 500;
  Cfg.SliceCheckpoints = 1;
  std::atomic<uint64_t> Ckpts{0};
  Cfg.OnCheckpointPersisted = [&Ckpts](const std::string &) { ++Ckpts; };
  Scheduler Sched(Cfg, {S});

  std::string IdA, IdB, Err;
  bool Existing = false;
  ASSERT_TRUE(
      Sched.submit("t", "small", "pcguard", 9, 20000, false, IdA, Existing,
                   Err));
  ASSERT_TRUE(Sched.submit("t", "small", "pcguard", 10, 20000, false, IdB,
                           Existing, Err));

  // B is queued behind A on the single worker: cancelling it is immediate.
  CampaignStatus St;
  ASSERT_TRUE(Sched.cancel(IdB, St, Err)) << Err;
  EXPECT_EQ(St.State, CampaignState::Cancelled);
  EXPECT_FALSE(Sched.cancel("t--nope-pcguard-s1-b1", St, Err));

  // Cancel A mid-run: it stops at its next safe-point checkpoint, with
  // that checkpoint already durable.
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (Ckpts.load() == 0 && std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GT(Ckpts.load(), 0u) << "campaign never checkpointed";
  ASSERT_TRUE(Sched.cancel(IdA, St, Err)) << Err;
  ASSERT_TRUE(Sched.waitIdle(60000));
  ASSERT_TRUE(Sched.status(IdA, St));
  EXPECT_EQ(St.State, CampaignState::Cancelled);

  // No results for a cancelled campaign...
  std::vector<uint8_t> Blob;
  EXPECT_FALSE(Sched.results(IdA, Blob, Err));

  // ...but its store kept the progress: resubmitting the same cell
  // requeues it, and it finishes byte-identical to the uninterrupted run.
  ASSERT_TRUE(
      Sched.submit("t", "small", "pcguard", 9, 20000, false, IdA, Existing,
                   Err))
      << Err;
  EXPECT_TRUE(Existing);
  ASSERT_TRUE(Sched.waitIdle(120000));
  ASSERT_TRUE(Sched.results(IdA, Blob, Err)) << Err;
  EXPECT_EQ(Blob, Ref);
  EXPECT_GE(counterOf(Sched.statsSnapshot(), "serve.cancelled"), 2u);

  std::error_code Ec;
  fs::remove_all(Root, Ec);
}

TEST(ServeScheduler, FairShareNeverStarvesASmallTenant) {
  const std::string Root = freshRoot("fair");
  SchedulerConfig Cfg;
  Cfg.Root = Root;
  Cfg.Threads = 1; // one worker: fairness must come from slicing alone
  Cfg.CheckpointInterval = 500;
  Cfg.SliceCheckpoints = 1;
  Scheduler Sched(Cfg, {smallSubject()});

  // Tenant "big" floods the daemon with long campaigns; tenant "wee"
  // submits one short campaign afterwards.
  std::string Err, WeeId;
  std::vector<std::string> BigIds(3);
  bool Existing = false;
  for (uint64_t I = 0; I < BigIds.size(); ++I)
    ASSERT_TRUE(Sched.submit("big", "small", "pcguard", 20 + I, 20000, false,
                             BigIds[I], Existing, Err))
        << Err;
  ASSERT_TRUE(
      Sched.submit("wee", "small", "pcguard", 1, 600, false, WeeId, Existing, Err))
      << Err;

  // The short campaign completes while the flood is still running: the
  // worker goes to the tenant with the fewest running slices, so "wee"
  // waits for at most a slice or two of "big", not for 60000 execs.
  ASSERT_TRUE(waitForState(Sched, WeeId, CampaignState::Done, 60000));
  size_t BigDone = 0;
  CampaignStatus St;
  for (const std::string &Id : BigIds)
    BigDone += Sched.status(Id, St) && St.State == CampaignState::Done;
  EXPECT_LT(BigDone, BigIds.size())
      << "the flood finished before the small tenant was ever scheduled";

  ASSERT_TRUE(Sched.waitIdle(120000));
  EXPECT_GE(counterOf(Sched.statsSnapshot(), "serve.preempted"), 1u);
  EXPECT_GE(counterOf(Sched.statsSnapshot(), "serve.done"), 4u);

  std::error_code Ec;
  fs::remove_all(Root, Ec);
}

TEST(ServeScheduler, RestartAdoptsMidCampaignByteIdentical) {
  const std::string Root = freshRoot("adopt");
  Subject S = smallSubject();
  const std::vector<uint8_t> Ref =
      referenceBlob(S, submittedOpts(FuzzerKind::Cull, 5, 20000, 600, false));

  std::string Id;
  {
    // Daemon life 1: start the campaign, then drain after the first
    // durable checkpoint — a graceful shutdown mid-campaign.
    SchedulerConfig Cfg;
    Cfg.Root = Root;
    Cfg.Threads = 1;
    Cfg.CheckpointInterval = 600;
    std::atomic<uint64_t> Ckpts{0};
    Cfg.OnCheckpointPersisted = [&Ckpts](const std::string &) { ++Ckpts; };
    Scheduler Sched(Cfg, {S});
    std::string Err;
    bool Existing = false;
    ASSERT_TRUE(
        Sched.submit("t", "small", "cull", 5, 20000, false, Id, Existing, Err))
        << Err;
    auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (Ckpts.load() == 0 && std::chrono::steady_clock::now() < Deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_GT(Ckpts.load(), 0u);
    Sched.drain();
    CampaignStatus St;
    ASSERT_TRUE(Sched.status(Id, St));
    EXPECT_NE(St.State, CampaignState::Done) << "drained too late to test";
  }

  // Daemon life 2 on the same root: adoption re-derives the campaign from
  // its directory alone and finishes it byte-identically.
  SchedulerConfig Cfg;
  Cfg.Root = Root;
  Cfg.Threads = 1;
  Cfg.CheckpointInterval = 600;
  Scheduler Sched(Cfg, {S});
  EXPECT_EQ(Sched.adoptStoreRoot(), 1u);
  ASSERT_TRUE(Sched.waitIdle(60000));

  std::string Err;
  std::vector<uint8_t> Blob;
  ASSERT_TRUE(Sched.results(Id, Blob, Err)) << Err;
  EXPECT_EQ(Blob, Ref);
  EXPECT_GE(counterOf(Sched.statsSnapshot(), "serve.resumed"), 1u);

  // A third life adopts the finished store as Done without re-execution.
  Scheduler Sched3(Cfg, {S});
  EXPECT_EQ(Sched3.adoptStoreRoot(), 0u);
  ASSERT_TRUE(Sched3.results(Id, Blob, Err)) << Err;
  EXPECT_EQ(Blob, Ref);

  std::error_code Ec;
  fs::remove_all(Root, Ec);
}

//===----------------------------------------------------------------------===//
// Server (live unix socket)
//===----------------------------------------------------------------------===//

/// One in-process daemon: a scheduler plus a server thread on a fresh
/// socket. The server thread exits on Srv.stop() (or a shutdown verb).
class ServeServerTest : public ::testing::Test {
protected:
  void startDaemon(SchedulerConfig SC, size_t MaxRequestBytes = 0) {
    Root = freshRoot("srv");
    SC.Root = Root;
    Sched = std::make_unique<Scheduler>(SC, std::vector<Subject>{smallSubject()});
    ServerConfig VC;
    VC.SocketPath = "/tmp/pf-srv-" + std::to_string(::getpid()) + "-" +
                    ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name();
    if (MaxRequestBytes)
      VC.MaxRequestBytes = MaxRequestBytes;
    Srv = std::make_unique<Server>(VC, *Sched);
    std::string Err;
    ASSERT_TRUE(Srv->start(&Err)) << Err;
    ServerThread = std::thread([this] { Served = Srv->run(); });
  }

  void TearDown() override {
    if (Srv)
      Srv->stop();
    if (ServerThread.joinable())
      ServerThread.join();
    if (Sched)
      Sched->drain();
    Srv.reset();
    Sched.reset();
    std::error_code Ec;
    fs::remove_all(Root, Ec);
  }

  /// request() + jsonU64("ok") in one step.
  bool ask(Client &C, const std::string &Line, std::string &Reply) {
    if (!C.request(Line, Reply))
      return false;
    uint64_t Ok = 0;
    return telemetry::jsonU64(Reply, "ok", Ok) && Ok == 1;
  }

  std::string Root;
  std::unique_ptr<Scheduler> Sched;
  std::unique_ptr<Server> Srv;
  std::thread ServerThread;
  uint64_t Served = 0;
};

TEST_F(ServeServerTest, EndToEndSubmitThroughSeries) {
  SchedulerConfig SC;
  SC.Threads = 2;
  SC.CheckpointInterval = 700;
  startDaemon(SC);
  const std::vector<uint8_t> Ref = referenceBlob(
      smallSubject(), submittedOpts(FuzzerKind::Pcguard, 7, 3000, 700, true));

  Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(Srv->socketPath(), &Err)) << Err;

  std::string Reply;
  ASSERT_TRUE(ask(C,
                  "{\"verb\":\"submit\",\"tenant\":\"acme\",\"subject\":"
                  "\"small\",\"seed\":7,\"budget\":3000}",
                  Reply))
      << Reply;
  std::string Id;
  ASSERT_TRUE(telemetry::jsonStr(Reply, "id", Id));
  EXPECT_EQ(Id, campaignId("acme", "small", "pcguard", 7, 3000));
  uint64_t Existing = 1;
  ASSERT_TRUE(telemetry::jsonU64(Reply, "existing", Existing));
  EXPECT_EQ(Existing, 0u);

  // Resubmission over the wire is idempotent.
  ASSERT_TRUE(ask(C,
                  "{\"verb\":\"submit\",\"tenant\":\"acme\",\"subject\":"
                  "\"small\",\"seed\":7,\"budget\":3000}",
                  Reply));
  ASSERT_TRUE(telemetry::jsonU64(Reply, "existing", Existing));
  EXPECT_EQ(Existing, 1u);

  // Poll status until done.
  const std::string StatusReq = "{\"verb\":\"status\",\"id\":\"" + Id + "\"}";
  std::string State;
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  do {
    ASSERT_TRUE(ask(C, StatusReq, Reply)) << Reply;
    ASSERT_TRUE(telemetry::jsonStr(Reply, "state", State));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  } while (State != "done" && std::chrono::steady_clock::now() < Deadline);
  ASSERT_EQ(State, "done");
  uint64_t Execs = 0;
  ASSERT_TRUE(telemetry::jsonU64(Reply, "execs", Execs));
  EXPECT_EQ(Execs, 3000u);

  // The results blob crosses the wire byte-identical.
  ASSERT_TRUE(ask(C, "{\"verb\":\"results\",\"id\":\"" + Id + "\"}", Reply));
  std::string Hex;
  ASSERT_TRUE(telemetry::jsonStr(Reply, "result", Hex));
  std::vector<uint8_t> Blob;
  ASSERT_TRUE(hexDecode(Hex, Blob));
  EXPECT_EQ(Blob, Ref);

  // series: one header line, then exactly `bytes` bytes of CSV (a clean
  // error when the build has no telemetry).
  const bool SeriesOk = ask(C,
                            "{\"verb\":\"series\",\"id\":\"" + Id +
                                "\",\"series\":\"queue\"}",
                            Reply);
  if (telemetry::Compiled) {
    ASSERT_TRUE(SeriesOk) << Reply;
    uint64_t Rows = 0, Bytes = 0;
    ASSERT_TRUE(telemetry::jsonU64(Reply, "rows", Rows));
    ASSERT_TRUE(telemetry::jsonU64(Reply, "bytes", Bytes));
    EXPECT_GE(Rows, 2u); // CSV header + at least one sample
    std::string Csv;
    ASSERT_TRUE(C.recvBytes(Bytes, Csv, &Err)) << Err;
    EXPECT_EQ(Csv.compare(0, 31, "subject,fuzzer,seed,execs,queue"), 0)
        << Csv;
    EXPECT_EQ(static_cast<uint64_t>(std::count(Csv.begin(), Csv.end(), '\n')),
              Rows);
  } else {
    EXPECT_FALSE(SeriesOk);
    std::string Error;
    ASSERT_TRUE(telemetry::jsonStr(Reply, "error", Error)) << Reply;
    EXPECT_NE(Error.find("telemetry compiled out"), std::string::npos);
  }

  // list: header with the count, then one status line per campaign.
  ASSERT_TRUE(ask(C, "{\"verb\":\"list\"}", Reply));
  uint64_t Count = 0;
  ASSERT_TRUE(telemetry::jsonU64(Reply, "count", Count));
  ASSERT_EQ(Count, 1u);
  ASSERT_TRUE(C.recvLine(Reply, &Err)) << Err;
  std::string ListedId;
  ASSERT_TRUE(telemetry::jsonStr(Reply, "id", ListedId));
  EXPECT_EQ(ListedId, Id);

  // stats: the serve.* counters, one field each.
  ASSERT_TRUE(ask(C, "{\"verb\":\"stats\"}", Reply));
  uint64_t Done = 0;
  ASSERT_TRUE(telemetry::jsonU64(Reply, "serve.done", Done)) << Reply;
  EXPECT_GE(Done, 1u);

  // shutdown: acknowledged, then the server loop exits.
  ASSERT_TRUE(ask(C, "{\"verb\":\"shutdown\"}", Reply));
  ServerThread.join();
  EXPECT_GE(Served, 8u);
  Sched->drain();
  Srv.reset(); // TearDown: already joined
}

TEST_F(ServeServerTest, MalformedRequestsGetErrorRepliesNotDrops) {
  SchedulerConfig SC;
  SC.Threads = 1;
  startDaemon(SC);

  Client C;
  ASSERT_TRUE(C.connect(Srv->socketPath()));
  std::string Reply;
  // A parade of garbage, each answered on the same connection.
  const char *Bad[] = {
      "hello",
      "{\"verb\":\"warp\"}",
      "{\"verb\":\"status\"}",
      "{\"verb\":\"submit\",\"tenant\":\"a--b\",\"subject\":\"small\"}",
      "{\"verb\":\"submit\",\"tenant\":\"t\",\"subject\":\"nosuch\"}",
      "{\"verb\":\"status\",\"id\":\"t--never-submitted-s1-b1\"}",
      "{\"verb\":\"results\",\"id\":\"t--never-submitted-s1-b1\"}",
  };
  for (const char *Line : Bad) {
    ASSERT_TRUE(C.request(Line, Reply)) << Line;
    uint64_t Ok = 1;
    ASSERT_TRUE(telemetry::jsonU64(Reply, "ok", Ok)) << Reply;
    EXPECT_EQ(Ok, 0u) << Line;
    std::string Msg;
    EXPECT_TRUE(telemetry::jsonStr(Reply, "error", Msg)) << Reply;
    EXPECT_FALSE(Msg.empty());
  }
  // The connection survived all of it.
  ASSERT_TRUE(ask(C, "{\"verb\":\"list\"}", Reply));
}

TEST_F(ServeServerTest, OversizedRequestRepliesThenDrops) {
  SchedulerConfig SC;
  SC.Threads = 1;
  startDaemon(SC, /*MaxRequestBytes=*/256);

  Client C;
  ASSERT_TRUE(C.connect(Srv->socketPath()));
  ASSERT_TRUE(C.sendLine(std::string(1000, 'x')));
  std::string Reply;
  ASSERT_TRUE(C.recvLine(Reply));
  uint64_t Ok = 1;
  ASSERT_TRUE(telemetry::jsonU64(Reply, "ok", Ok));
  EXPECT_EQ(Ok, 0u);
  // ...and then the connection is gone: the flooded framer cannot resync.
  EXPECT_FALSE(C.recvLine(Reply));

  // A fresh client is unaffected.
  Client C2;
  ASSERT_TRUE(C2.connect(Srv->socketPath()));
  ASSERT_TRUE(ask(C2, "{\"verb\":\"stats\"}", Reply));
}

TEST_F(ServeServerTest, TruncatedClientVanishesWithoutHarm) {
  SchedulerConfig SC;
  SC.Threads = 1;
  startDaemon(SC);

  // A raw peer that dies mid-request (no terminator, then EOF).
  {
    net::Fd Raw = net::connectUnix(Srv->socketPath());
    ASSERT_TRUE(Raw.valid());
    ASSERT_TRUE(net::writeAll(Raw, std::string("{\"verb\":\"stat")));
  } // Fd closes here
  // The daemon keeps serving.
  Client C;
  ASSERT_TRUE(C.connect(Srv->socketPath()));
  std::string Reply;
  ASSERT_TRUE(ask(C, "{\"verb\":\"list\"}", Reply));
}

TEST_F(ServeServerTest, AcceptFaultDropsNoRequests) {
  SchedulerConfig SC;
  SC.Threads = 1;
  startDaemon(SC);

  fault::ScopedFaultInjection Guard;
  fault::SiteConfig Site;
  Site.FailOnHit = 1;
  fault::armSite("serve.accept.fail", Site);

  // The first accept attempt fails; the connection stays in the listen
  // backlog and the next poll tick picks it up, so the client only sees a
  // slightly slower first reply.
  Client C;
  std::string Err, Reply;
  ASSERT_TRUE(C.connect(Srv->socketPath(), &Err)) << Err;
  ASSERT_TRUE(ask(C, "{\"verb\":\"stats\"}", Reply)) << Reply;
  EXPECT_GE(fault::hitCount("serve.accept.fail"), 1u);
}

TEST_F(ServeServerTest, WriteFaultDropsOnlyThatClient) {
  SchedulerConfig SC;
  SC.Threads = 1;
  SC.CheckpointInterval = 500;
  startDaemon(SC);
  const std::vector<uint8_t> Ref = referenceBlob(
      smallSubject(), submittedOpts(FuzzerKind::Pcguard, 4, 2000, 500, false));

  Client A;
  ASSERT_TRUE(A.connect(Srv->socketPath()));
  std::string Reply;
  ASSERT_TRUE(ask(A,
                  "{\"verb\":\"submit\",\"tenant\":\"t\",\"subject\":\"small\","
                  "\"seed\":4,\"budget\":2000,\"trace\":0}",
                  Reply));
  std::string Id;
  ASSERT_TRUE(telemetry::jsonStr(Reply, "id", Id));

  {
    // Hit 1 is client A's own request write; hit 2 is the server's reply
    // write, which fails — the server must drop A and nothing else.
    fault::ScopedFaultInjection Guard;
    fault::SiteConfig Site;
    Site.FailOnHit = 2;
    fault::armSite("serve.write.fail", Site);
    ASSERT_TRUE(A.sendLine("{\"verb\":\"status\",\"id\":\"" + Id + "\"}"));
    EXPECT_FALSE(A.recvLine(Reply)) << "client should have been dropped";
  }

  // The campaign A submitted is untouched: a fresh client watches it
  // finish and pulls byte-identical results.
  Client B;
  ASSERT_TRUE(B.connect(Srv->socketPath()));
  const std::string StatusReq = "{\"verb\":\"status\",\"id\":\"" + Id + "\"}";
  std::string State;
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  do {
    ASSERT_TRUE(ask(B, StatusReq, Reply)) << Reply;
    ASSERT_TRUE(telemetry::jsonStr(Reply, "state", State));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  } while (State != "done" && std::chrono::steady_clock::now() < Deadline);
  ASSERT_EQ(State, "done");
  ASSERT_TRUE(ask(B, "{\"verb\":\"results\",\"id\":\"" + Id + "\"}", Reply));
  std::string Hex;
  ASSERT_TRUE(telemetry::jsonStr(Reply, "result", Hex));
  std::vector<uint8_t> Blob;
  ASSERT_TRUE(hexDecode(Hex, Blob));
  EXPECT_EQ(Blob, Ref);
}

} // namespace
