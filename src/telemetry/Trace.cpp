//===- Trace.cpp - Instance and campaign trace containers -----------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Trace.h"

#include "support/Env.h"

namespace pathfuzz {
namespace telemetry {

const char *eventKindName(EventKind K) {
  switch (K) {
  case EventKind::ExecCompleted:
    return "exec";
  case EventKind::SeedAdded:
    return "seed_added";
  case EventKind::SeedCulled:
    return "seed_culled";
  case EventKind::CycleStarted:
    return "cycle_started";
  case EventKind::CrashDeduped:
    return "crash_deduped";
  case EventKind::HangDeduped:
    return "hang_deduped";
  case EventKind::CheckpointWritten:
    return "checkpoint_written";
  case EventKind::FaultInjected:
    return "fault_injected";
  case EventKind::PhaseStarted:
    return "phase_started";
  }
  return "unknown";
}

TraceConfig traceConfigFromEnv() {
  TraceConfig Cfg;
  std::vector<std::string> Specs = envList("PATHFUZZ_TRACE");
  if (Specs.empty())
    return Cfg;
  bool ForcedOff = false;
  for (const std::string &Spec : Specs) {
    if (Spec == "off" || Spec == "0") {
      ForcedOff = true;
      continue;
    }
    if (Spec == "on" || Spec == "1")
      continue; // Enabled is implied by any accepted entry.
    if (Spec == "csv") {
      Cfg.Csv = true;
      continue;
    }
    if (Spec == "wall") {
      Cfg.Wall = true;
      continue;
    }
    if (Spec.rfind("out=", 0) == 0) {
      Cfg.OutPath = Spec.substr(4);
      continue;
    }
    std::string Name;
    uint64_t Value = 0;
    if (!splitSpecU64(Spec, Name, Value))
      continue; // malformed entry: skip, like fault-site specs
    if (Name == "sample") {
      Cfg.SampleInterval = Value;
    } else if (Name == "ring") {
      // Round the requested capacity up to a power of two; the ring
      // clamps the exponent to its supported range.
      uint32_t Log2 = 0;
      while ((uint64_t(1) << Log2) < Value && Log2 < 20)
        ++Log2;
      Cfg.RingCapacityLog2 = Log2;
    }
    // Unknown names are skipped.
  }
  Cfg.Enabled = !ForcedOff;
  return Cfg;
}

bool operator==(const Sample &A, const Sample &B) {
  return A.Exec == B.Exec && A.QueueSize == B.QueueSize &&
         A.Favored == B.Favored && A.EdgesCovered == B.EdgesCovered &&
         A.Crashes == B.Crashes && A.UniqueCrashes == B.UniqueCrashes &&
         A.Hangs == B.Hangs && A.UniqueBugs == B.UniqueBugs &&
         A.CullPasses == B.CullPasses && A.DictSize == B.DictSize;
}

namespace {

/// Sub-version of the instance-state / campaign-trace wire format,
/// independent of the snapshot envelope version.
constexpr uint8_t TraceFormatVersion = 1;

void writeEvent(ByteWriter &W, const Event &E) {
  W.u64(E.Exec);
  W.u64(E.Arg64);
  W.u32(E.Arg32);
  W.u8(static_cast<uint8_t>(E.Kind));
  W.u8(E.Arg8);
}

Event readEvent(ByteReader &R) {
  Event E;
  E.Exec = R.u64();
  E.Arg64 = R.u64();
  E.Arg32 = R.u32();
  E.Kind = static_cast<EventKind>(R.u8());
  E.Arg8 = R.u8();
  return E;
}

void writeEvents(ByteWriter &W, const std::vector<Event> &Events) {
  W.u64(Events.size());
  for (const Event &E : Events)
    writeEvent(W, E);
}

std::vector<Event> readEvents(ByteReader &R) {
  uint64_t N = R.u64();
  // 22 serialized bytes per event; an impossible count poisons the reader
  // instead of attempting a huge allocation.
  if (N > R.remaining() / 22) {
    R.invalidate();
    return {};
  }
  std::vector<Event> Out;
  Out.reserve(N);
  for (uint64_t I = 0; I < N && R.ok(); ++I)
    Out.push_back(readEvent(R));
  return Out;
}

void writeSample(ByteWriter &W, const Sample &S) {
  W.u64(S.Exec);
  W.u64(S.QueueSize);
  W.u64(S.Favored);
  W.u64(S.EdgesCovered);
  W.u64(S.Crashes);
  W.u64(S.UniqueCrashes);
  W.u64(S.Hangs);
  W.u64(S.UniqueBugs);
  W.u64(S.CullPasses);
  W.u64(S.DictSize);
}

Sample readSample(ByteReader &R) {
  Sample S;
  S.Exec = R.u64();
  S.QueueSize = R.u64();
  S.Favored = R.u64();
  S.EdgesCovered = R.u64();
  S.Crashes = R.u64();
  S.UniqueCrashes = R.u64();
  S.Hangs = R.u64();
  S.UniqueBugs = R.u64();
  S.CullPasses = R.u64();
  S.DictSize = R.u64();
  return S;
}

void writeSamples(ByteWriter &W, const std::vector<Sample> &Samples) {
  W.u64(Samples.size());
  for (const Sample &S : Samples)
    writeSample(W, S);
}

std::vector<Sample> readSamples(ByteReader &R) {
  uint64_t N = R.u64();
  if (N > R.remaining() / 80) {
    R.invalidate();
    return {};
  }
  std::vector<Sample> Out;
  Out.reserve(N);
  for (uint64_t I = 0; I < N && R.ok(); ++I)
    Out.push_back(readSample(R));
  return Out;
}

} // namespace

void InstanceTrace::serializeState(ByteWriter &W) const {
  W.u8(TraceFormatVersion);
  writeEvents(W, Ring.events());
  W.u64(Ring.recorded());
  writeSamples(W, Samples);
  Metrics.serialize(W);
}

bool decodeInstanceState(ByteReader &R, InstanceState &Out) {
  if (R.u8() != TraceFormatVersion) {
    R.invalidate();
    return false;
  }
  Out.Events = readEvents(R);
  Out.Recorded = R.u64();
  Out.Samples = readSamples(R);
  return Out.Metrics.deserialize(R) && R.ok() &&
         Out.Recorded >= Out.Events.size();
}

void InstanceTrace::adoptState(const InstanceState &S) {
  Ring.restore(S.Events, S.Recorded);
  Samples = S.Samples;
  Metrics.adopt(S.Metrics);
}

void collectInstance(CampaignTrace &T, std::string Label, uint64_t ExecOffset,
                     const InstanceTrace &Tr) {
  InstanceRecord Rec;
  Rec.Label = std::move(Label);
  Rec.ExecOffset = ExecOffset;
  Rec.Events = Tr.ring().events();
  Rec.EventsRecorded = Tr.ring().recorded();
  Rec.Samples = Tr.samples();
  Rec.Metrics = Tr.metrics();
  T.Instances.push_back(std::move(Rec));
}

void writeCampaignTrace(ByteWriter &W, const CampaignTrace *T) {
  if (!T) {
    W.u8(0);
    return;
  }
  W.u8(1);
  W.u8(TraceFormatVersion);
  W.str(T->Subject);
  W.str(T->Fuzzer);
  W.u64(T->Seed);
  W.u64(T->Instances.size());
  for (const InstanceRecord &Rec : T->Instances) {
    W.str(Rec.Label);
    W.u64(Rec.ExecOffset);
    writeEvents(W, Rec.Events);
    W.u64(Rec.EventsRecorded);
    writeSamples(W, Rec.Samples);
    Rec.Metrics.serialize(W);
  }
  writeEvents(W, T->CampaignEvents);
  // WallMicros is deliberately absent: checkpoint payloads feed the
  // byte-identical resume oracle, and wall time is not reproducible.
}

std::shared_ptr<CampaignTrace> readCampaignTrace(ByteReader &R) {
  uint8_t Present = R.u8();
  if (Present == 0)
    return nullptr;
  if (Present != 1 || R.u8() != TraceFormatVersion) {
    R.invalidate();
    return nullptr;
  }
  auto T = std::make_shared<CampaignTrace>();
  T->Subject = R.str();
  T->Fuzzer = R.str();
  T->Seed = R.u64();
  uint64_t NInstances = R.u64();
  if (NInstances > R.remaining()) {
    R.invalidate();
    return nullptr;
  }
  for (uint64_t I = 0; I < NInstances && R.ok(); ++I) {
    InstanceRecord Rec;
    Rec.Label = R.str();
    Rec.ExecOffset = R.u64();
    Rec.Events = readEvents(R);
    Rec.EventsRecorded = R.u64();
    Rec.Samples = readSamples(R);
    if (!Rec.Metrics.deserialize(R))
      return nullptr;
    T->Instances.push_back(std::move(Rec));
  }
  T->CampaignEvents = readEvents(R);
  if (!R.ok())
    return nullptr;
  return T;
}

} // namespace telemetry
} // namespace pathfuzz
