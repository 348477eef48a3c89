//===- GoldenDigestTest.cpp - Pinned campaign-result digests ------------------===//
//
// Part of the pathfuzz project.
//
// Every identity suite in the tree compares two engines (interpreter, fast
// path, JIT, selective) or two schedules (uninterrupted, resumed, served)
// through the *same* fuzzer code, so a change to the map layer that every
// configuration shares — reset, classify, novelty, the MapSet collection,
// the queue checksum, the favored cull — is invisible to them. This suite
// closes that gap: it pins the serializeCampaignResult digest of every
// subject x FuzzerKind x map size {2^10, 2^16} to the value the dense
// full-map pipeline produced. A coverage-layer optimization must leave
// every row unchanged.
//
// On a mismatch the failure message prints the subject's row as computed,
// ready to compare against (or, after an intentional behavior change that
// is documented as such, to replace) the table below.
//
//===----------------------------------------------------------------------===//

#include "strategy/BuildCache.h"
#include "strategy/Campaign.h"
#include "support/Hashing.h"
#include "targets/Targets.h"
#include "telemetry/Export.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

using namespace pathfuzz;
using namespace pathfuzz::strategy;

namespace {

constexpr uint64_t Budget = 12000;
constexpr uint32_t MapSizes[] = {10, 16};
constexpr FuzzerKind Kinds[] = {
    FuzzerKind::Pcguard, FuzzerKind::Path,  FuzzerKind::Cull,
    FuzzerKind::CullRandom, FuzzerKind::Opp, FuzzerKind::Afl,
    FuzzerKind::PathAfl, FuzzerKind::Prescient};
constexpr size_t NumKinds = sizeof(Kinds) / sizeof(Kinds[0]);

struct GoldenRow {
  const char *Subject;
  /// Digest[kind][map size], in Kinds x MapSizes order.
  uint64_t Digest[NumKinds][2];
};

// fnv1a(serializeCampaignResult(R)) with seed 7, Budget execs and the
// default engines, recorded from the dense full-map pipeline.
const GoldenRow Golden[] = {
    {"cflow",
     {{0x60d0750c2806aa22ULL, 0x60d0750c2806aa22ULL},
      {0x54eb8aa2bc42ade7ULL, 0xdfe0ac57d0d78daaULL},
      {0xd18f990e2567376cULL, 0xa7e47031307d21b6ULL},
      {0xcddd1488ada6bac4ULL, 0x4a92f68f8fc7ae0eULL},
      {0x31fdde0f96032333ULL, 0xd100216bff69eccdULL},
      {0x34ad6a0096d759dfULL, 0x435e7265112a8e5bULL},
      {0xfae11ca39d8d69c8ULL, 0x8b9ff1ea6c6ad32bULL},
      {0xc67a1ac14924e288ULL, 0xc67a1ac14924e288ULL}}},
    {"exiv2",
     {{0xb29150a194f908e6ULL, 0xb29150a194f908e6ULL},
      {0x43972d6b20f2aaf2ULL, 0xb9e112a5e2724875ULL},
      {0xc9ed4915272ee491ULL, 0x493566cd7eb43a53ULL},
      {0xf620726fa8954cb1ULL, 0x67423299b1ea416bULL},
      {0x5f9f11d7d2da9898ULL, 0xc3a19dacaef67fceULL},
      {0x2eb461041cbd41c9ULL, 0x0c547a92375e970aULL},
      {0x10eb6a839cc70dccULL, 0xaa82157e1e57a590ULL},
      {0x45a4f98275d09cacULL, 0x45a4f98275d09cacULL}}},
    {"ffmpeg",
     {{0x7a92f5705e127e54ULL, 0x7a92f5705e127e54ULL},
      {0xe13227020ae93fb3ULL, 0x50297828f19befebULL},
      {0xadc33e21f79e6310ULL, 0xd476f8d6b4fe0154ULL},
      {0x63e30e3613b5ecbfULL, 0xec560f0585b6c7daULL},
      {0xf8091862f568db7bULL, 0x0cb8fc3fede8289bULL},
      {0xf3ce0bf7e2e00404ULL, 0x7d4f711db2d04d5aULL},
      {0x2f0ff55cfc6fce9bULL, 0x05646edfbf8e6f1dULL},
      {0xddea5a49f8f2cab2ULL, 0xddea5a49f8f2cab2ULL}}},
    {"flvmeta",
     {{0xe3e68bfdba464a43ULL, 0xe3e68bfdba464a43ULL},
      {0x582907c5a27b82ecULL, 0xea721c307eb5880bULL},
      {0x610a0c0f5757de2bULL, 0x3eedc5427abb3cb5ULL},
      {0xa06fec8ec4bb8764ULL, 0x3e97967e25b62548ULL},
      {0xfa2fac67790d2a59ULL, 0x0e545e15794b27d6ULL},
      {0x94bc8d179d933d71ULL, 0x5c7295e5c9cb6a6fULL},
      {0x1c2100d079889869ULL, 0x5f4a6dae64cb3e1aULL},
      {0x24524a0a8a5bc8d2ULL, 0x24524a0a8a5bc8d2ULL}}},
    {"gdk",
     {{0xd6e0667edb836641ULL, 0xd6e0667edb836641ULL},
      {0x46b471eeab60d35cULL, 0xc8210517d5fa112bULL},
      {0x0aedd139c9512a62ULL, 0x823f089a7b3daf1dULL},
      {0x5792beaefd90533eULL, 0x8e13821c77737172ULL},
      {0xc3df69987f0406e0ULL, 0x35204dba640c5800ULL},
      {0xd19348f51af83d27ULL, 0x2ef4323b4372f6a6ULL},
      {0xfc843e9318f4359aULL, 0xf116ac26f1af3141ULL},
      {0xf2498130b6dcc010ULL, 0xf2498130b6dcc010ULL}}},
    {"imginfo",
     {{0xf87b35cd9452794bULL, 0xf87b35cd9452794bULL},
      {0xaa80d3198fde257fULL, 0xa4e6486880215eefULL},
      {0x98e590cad848aaa7ULL, 0x06c86029fe4da2beULL},
      {0xf9a80e83db7823daULL, 0xd4c38dff7b99ab8dULL},
      {0x1c4c10b7a7eac95aULL, 0x0cebd3c02efa316cULL},
      {0x4afc4f0f9ee134e0ULL, 0x512a5b57b2c6ce4dULL},
      {0xa65c92daa0f68cb1ULL, 0x0a80bc915140f581ULL},
      {0xd50c32aeb4f5728aULL, 0xd50c32aeb4f5728aULL}}},
    {"infotocap",
     {{0xcd5ea5eb04a81762ULL, 0xcd5ea5eb04a81762ULL},
      {0x1b688721caceb6ebULL, 0xaf341b7826cc2987ULL},
      {0x3c0cf2bdf6de5ae1ULL, 0xb1c4ebf5f038ecb2ULL},
      {0x33d22bbd9519f099ULL, 0x344830b237c29513ULL},
      {0xccfab82d6541c05eULL, 0x6d874bd2b53047afULL},
      {0xe2d1e4e5442c6c5cULL, 0xdbbda604bdc8e465ULL},
      {0xb11b727f3ff6617fULL, 0xcc95910e365ee951ULL},
      {0xc2df80ffa0f37a55ULL, 0xc2df80ffa0f37a55ULL}}},
    {"jhead",
     {{0x0fa88460e997be97ULL, 0x0fa88460e997be97ULL},
      {0xc54004c2e63e4fc8ULL, 0x13311d7144d291e4ULL},
      {0x729e0c20ae262bdfULL, 0x9f9160c47b22f2ccULL},
      {0x23992c84cab3000bULL, 0x81096f9c5966ec24ULL},
      {0xdab0d92a27919857ULL, 0x83693e78ec329519ULL},
      {0xaf1beb2353a64956ULL, 0x1cf2ee012b12fa63ULL},
      {0x5937add40616ff4aULL, 0x36cdc8cb54b9366bULL},
      {0xaf1a940237cc9a2fULL, 0xaf1a940237cc9a2fULL}}},
    {"jq",
     {{0xdc4a7fab18f8cde2ULL, 0xdc4a7fab18f8cde2ULL},
      {0xefaa8f2c635a2ae0ULL, 0xbd1a9319ffd162d6ULL},
      {0x267de83444587bbaULL, 0x880697dd0e463875ULL},
      {0x5caa98a82d5a7984ULL, 0xec6f2c97e9904b02ULL},
      {0x057e76027b56a26dULL, 0x74643563ec869bc4ULL},
      {0x0fb528681b33020cULL, 0xda5dca275f378991ULL},
      {0x4d038c825ac091cdULL, 0x06342b2c0937b5c3ULL},
      {0xbff84e43fc3e48fdULL, 0xbff84e43fc3e48fdULL}}},
    {"lame",
     {{0xdcaa5046c82d0b93ULL, 0xdcaa5046c82d0b93ULL},
      {0x2ec845605d56c1d7ULL, 0xbba17779839f8290ULL},
      {0xbe3b1cd3b2dfd7c9ULL, 0xc8580c5b3909d94aULL},
      {0x94d8748b1efc7db8ULL, 0x28e73be32441f5aeULL},
      {0xb420d3bf82f86332ULL, 0xf470eb1bd516c517ULL},
      {0x8b652f68ed1c452cULL, 0x1e704a6e44704eebULL},
      {0xd9a1e2a4a4d0c27aULL, 0x69300c929bc6aa79ULL},
      {0x2e60d1e146983fedULL, 0x2e60d1e146983fedULL}}},
    {"mp3gain",
     {{0x97b4fd013705e876ULL, 0x97b4fd013705e876ULL},
      {0xbf334310c57613fdULL, 0x039780e6e8d41211ULL},
      {0xad04ae654666bc36ULL, 0x2c4ebba7eaa45f66ULL},
      {0x28eb2a0faa96b9deULL, 0x3f56b1213de74f95ULL},
      {0x8858e0cf90f8004cULL, 0x278cf9fb444b44edULL},
      {0xc69fc0ca7995b2e4ULL, 0x371a43c22e47d5ccULL},
      {0xed131339f8a29323ULL, 0x5917740018ba0d6cULL},
      {0x1c11db169884c8daULL, 0x1c11db169884c8daULL}}},
    {"mp42aac",
     {{0x70da194f0a0e59a3ULL, 0x70da194f0a0e59a3ULL},
      {0x1b5cbb864215b581ULL, 0xfdcb703a37a73161ULL},
      {0xc4716d98af1d9828ULL, 0xd31b7a159d71fc73ULL},
      {0x1a30cd6213ba56cbULL, 0xdbc41624d070978dULL},
      {0xe969cab57cd519acULL, 0x0dc3c23ed0de44f1ULL},
      {0x407a4794c442b74eULL, 0x2f79921565851caaULL},
      {0xf182eb45e36836c9ULL, 0x52d29ba619bc455dULL},
      {0x5a07471cee11a997ULL, 0x5a07471cee11a997ULL}}},
    {"mujs",
     {{0x7582bef6531d36f7ULL, 0x7582bef6531d36f7ULL},
      {0xebcc6f6073e44b58ULL, 0x1f972e9ba666eb74ULL},
      {0x971ba24f7caa7afeULL, 0x538547938cb84a65ULL},
      {0xcc4b12fbbb6ffd08ULL, 0x3ed935bc274feeb9ULL},
      {0xd68efc3bb7ea1008ULL, 0x0615148dca005ba4ULL},
      {0x80bca8118fc34143ULL, 0x44acd1af9b04033bULL},
      {0x794fe9d6c7d8f325ULL, 0x247f1a7107e7017bULL},
      {0xa602f5cf65a7ea6aULL, 0xa602f5cf65a7ea6aULL}}},
    {"nm-new",
     {{0x8b9c6901f72e57a7ULL, 0x8b9c6901f72e57a7ULL},
      {0x67dda54d2b86d597ULL, 0x9f8e81311abf2182ULL},
      {0x94575f088539c5b9ULL, 0xce9d6421d15788b6ULL},
      {0x0ceb816117006b82ULL, 0x5355036c1f3cc08eULL},
      {0x84704e9fcaa60e55ULL, 0xd3d9e83f837cd3ceULL},
      {0x37d543a81800aa1fULL, 0x7737003b00cd3a17ULL},
      {0x163817098f9379feULL, 0x793acd75ced5424aULL},
      {0x78491bb096e7c471ULL, 0x78491bb096e7c471ULL}}},
    {"objdump",
     {{0xeff09b3084b0475fULL, 0xeff09b3084b0475fULL},
      {0xba3eac5aafbda763ULL, 0x087da9815aa581beULL},
      {0x291a4c6b5a13d8beULL, 0x509332b9eff46758ULL},
      {0xa10ba8dde4f7a0a6ULL, 0x3648332d937caa37ULL},
      {0x4408d4ff964531ebULL, 0x473bc05abceb11bcULL},
      {0xe808ff9805eff84bULL, 0x6a89ad50baca878eULL},
      {0xa1ff876a4aedb4afULL, 0xdb5d266de3603fa5ULL},
      {0x05c5784fa06e1f41ULL, 0x05c5784fa06e1f41ULL}}},
    {"pdftotext",
     {{0x303482d430d23b03ULL, 0x303482d430d23b03ULL},
      {0x7683c3bc478f2cecULL, 0xf2764014d119c260ULL},
      {0xc0ff30d759a35b19ULL, 0x33e8f05b336618e5ULL},
      {0x5e478b1ca9c48a45ULL, 0x3714cac4799623a5ULL},
      {0x03b98047a2965642ULL, 0x1d713607fd2701d7ULL},
      {0xdee0efe66b8fff97ULL, 0x020318f221969c19ULL},
      {0xab03856cc9208407ULL, 0xc4129da4b67b162cULL},
      {0xe268030fc8b81699ULL, 0xe268030fc8b81699ULL}}},
    {"sqlite3",
     {{0x73af1992ff5b756eULL, 0x73af1992ff5b756eULL},
      {0x0f16606b3e1bb68dULL, 0x59af7da8f902cef5ULL},
      {0xc2c1706c349c0666ULL, 0x9cec97525247c082ULL},
      {0x353a491c16920f5cULL, 0x3b6352ae154cffa2ULL},
      {0xbcaab6f4a3bc0b8fULL, 0xd4e67c6b26000d2aULL},
      {0x5ecb265dbf39cd56ULL, 0xf0f0789a2893dddbULL},
      {0xd363054e09da1530ULL, 0xb4655276d085736eULL},
      {0xaec33139cf18108eULL, 0xaec33139cf18108eULL}}},
    {"tiffsplit",
     {{0xa82c97c01e8bdfecULL, 0xa82c97c01e8bdfecULL},
      {0x4846ed67703357aeULL, 0x903051c617c3e0b1ULL},
      {0x7307c15de1be3e2fULL, 0x8d70266b8117b304ULL},
      {0x942e93428263f23fULL, 0xc2d011378e21b9c4ULL},
      {0x05b61a4774149168ULL, 0x8bee2bbf56c604daULL},
      {0x455e006787d1a2a4ULL, 0x82d6893ccb3983c1ULL},
      {0xe3b8c58674655662ULL, 0x16c966f9768b8a89ULL},
      {0xb3b86f7c9d1eb210ULL, 0xb3b86f7c9d1eb210ULL}}},
};

const GoldenRow *findRow(const std::string &Name) {
  for (const GoldenRow &Row : Golden)
    if (Name == Row.Subject)
      return &Row;
  return nullptr;
}

class GoldenDigest : public ::testing::TestWithParam<size_t> {};

TEST_P(GoldenDigest, CampaignResultsUnchanged) {
  const Subject &S = targets::allSubjects()[GetParam()];
  BuildCache Cache;
  std::shared_ptr<SubjectBuild> SB = Cache.get(S);
  ASSERT_TRUE(SB->ok()) << SB->error();

  uint64_t Got[NumKinds][2] = {};
  for (size_t K = 0; K < NumKinds; ++K) {
    for (size_t M = 0; M < 2; ++M) {
      CampaignOptions O;
      O.Kind = Kinds[K];
      O.ExecBudget = Budget;
      O.Seed = 7;
      O.MapSizeLog2 = MapSizes[M];
      CampaignError Err;
      CampaignResult R = runCampaign(*SB, O, &Err);
      ASSERT_FALSE(Err.Failed) << S.Name << ": " << Err.Message;
      const std::vector<uint8_t> Blob = serializeCampaignResult(R);
      Got[K][M] = fnv1a(Blob.data(), Blob.size());
    }
  }

  std::string Row = "{\"" + S.Name + "\", {";
  for (size_t K = 0; K < NumKinds; ++K) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf),
                  "{0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL}%s", Got[K][0],
                  Got[K][1], K + 1 < NumKinds ? ", " : "");
    Row += Buf;
  }
  Row += "}},";

  const GoldenRow *Want = findRow(S.Name);
  ASSERT_NE(Want, nullptr) << "no golden row; computed:\n" << Row;
  for (size_t K = 0; K < NumKinds; ++K)
    for (size_t M = 0; M < 2; ++M)
      EXPECT_EQ(Got[K][M], Want->Digest[K][M])
          << S.Name << " " << fuzzerKindName(Kinds[K]) << " map 2^"
          << MapSizes[M] << "; computed row:\n"
          << Row;
}

INSTANTIATE_TEST_SUITE_P(All, GoldenDigest,
                         ::testing::Range<size_t>(0, 18),
                         [](const ::testing::TestParamInfo<size_t> &Info) {
                           std::string N =
                               targets::allSubjects()[Info.param].Name;
                           for (char &C : N)
                             if (C == '-')
                               C = '_';
                           return N;
                         });

//===----------------------------------------------------------------------===//
// Driver-shape goldens
//===----------------------------------------------------------------------===//
//
// The result digests above do not see how a campaign is divided into
// fuzzer instances: instance labels and offsets, the phase-start and cull
// events with their argument bytes, per-instance metrics and samples, and
// the number of checkpoints each schedule emits. This table pins those,
// recorded from the per-kind drivers, on the reference interpreter with
// selective execution off (the engine-local metric families then hold
// nothing that differs between engines or runs).

constexpr uint64_t TraceBudget = 6000;
constexpr uint64_t TraceCheckpointInterval = 900;

struct TraceGolden {
  FuzzerKind Kind;
  /// fnv1a(traceJsonl(*R.Trace)); 0 when telemetry is compiled out.
  uint64_t TraceDigest;
  uint64_t Checkpoints;
};

const TraceGolden TraceGoldens[] = {
    {FuzzerKind::Pcguard, 0x41d47c719390da93ULL, 6},
    {FuzzerKind::Path, 0x44a99a1c81f1f4fdULL, 6},
    {FuzzerKind::Cull, 0x3fa3198eeebbf929ULL, 6},
    {FuzzerKind::CullRandom, 0x7ae0d19ac993663dULL, 6},
    {FuzzerKind::Opp, 0x40a5447bb4087e07ULL, 6},
    {FuzzerKind::Afl, 0x5f2bedacfc59cbc9ULL, 6},
    {FuzzerKind::PathAfl, 0x6c7a83366a175b38ULL, 6},
    {FuzzerKind::Prescient, 0x7e4fb4a8893c8f33ULL, 6},
};

CampaignOptions tracedGoldenOpts(FuzzerKind Kind) {
  CampaignOptions O;
  O.Kind = Kind;
  O.ExecBudget = TraceBudget;
  O.Seed = 7;
  O.CullRounds = 3;
  O.VmMode = vm::VmExecMode::Interpreter;
  O.Selective = vm::SelectiveMode::Off;
  O.Trace.Enabled = true;
  O.Trace.SampleInterval = 512;
  return O;
}

class GoldenTrace : public ::testing::TestWithParam<size_t> {};

TEST_P(GoldenTrace, InstancesEventsAndCheckpointsUnchanged) {
  const TraceGolden &Want = TraceGoldens[GetParam()];
  const Subject &S = targets::allSubjects()[0];
  BuildCache Cache;
  std::shared_ptr<SubjectBuild> SB = Cache.get(S);
  ASSERT_TRUE(SB->ok()) << SB->error();

  CampaignOptions O = tracedGoldenOpts(Want.Kind);
  std::vector<std::vector<uint8_t>> Checkpoints;
  O.CheckpointInterval = TraceCheckpointInterval;
  O.CheckpointSink = [&Checkpoints](const std::vector<uint8_t> &Blob) {
    Checkpoints.push_back(Blob);
  };
  CampaignError Err;
  CampaignResult R = runCampaign(*SB, O, &Err);
  ASSERT_FALSE(Err.Failed) << Err.Message;

  uint64_t Digest = 0;
  if (telemetry::Compiled) {
    ASSERT_NE(R.Trace, nullptr);
    Digest = fnv1a(telemetry::traceJsonl(*R.Trace));
  }
  char Row[64];
  std::snprintf(Row, sizeof(Row), "0x%016" PRIx64 "ULL, %zu", Digest,
                Checkpoints.size());
  EXPECT_EQ(Checkpoints.size(), Want.Checkpoints)
      << fuzzerKindName(Want.Kind) << "; computed row:\n" << Row;
  if (telemetry::Compiled) {
    EXPECT_EQ(Digest, Want.TraceDigest)
        << fuzzerKindName(Want.Kind) << "; computed row:\n" << Row;
  }

  // A traced resume from any checkpoint, at the same checkpoint cadence,
  // exports the same trace.
  CampaignOptions Plain = tracedGoldenOpts(Want.Kind);
  Plain.CheckpointInterval = TraceCheckpointInterval;
  Plain.CheckpointSink = [](const std::vector<uint8_t> &) {};
  for (size_t I = 0; I < Checkpoints.size(); ++I) {
    SCOPED_TRACE("checkpoint " + std::to_string(I));
    CampaignError RErr;
    CampaignResult Resumed = resumeCampaign(*SB, Plain, Checkpoints[I], &RErr);
    ASSERT_FALSE(RErr.Failed) << RErr.Message;
    EXPECT_EQ(serializeCampaignResult(Resumed), serializeCampaignResult(R));
    if (telemetry::Compiled) {
      ASSERT_NE(Resumed.Trace, nullptr);
      // Compared by digest: a mismatch would otherwise print megabytes.
      EXPECT_EQ(fnv1a(telemetry::traceJsonl(*Resumed.Trace)), Digest);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, GoldenTrace,
    ::testing::Range<size_t>(0, sizeof(TraceGoldens) / sizeof(TraceGoldens[0])),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      return std::string(fuzzerKindName(TraceGoldens[Info.param].Kind));
    });

} // namespace
