//===- Trace.h - Instance and campaign trace containers ---------*- C++ -*-===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// Ties the telemetry subsystem together:
//
//  - TraceConfig: the knobs, settable programmatically or via the
//    PATHFUZZ_TRACE environment variable (spec-list syntax mirroring
//    PATHFUZZ_FAULT_SITES):
//
//      PATHFUZZ_TRACE="out=trace.jsonl,sample@1024,ring@8192,csv"
//
//        on / 1       enable tracing with defaults
//        off / 0      force tracing off (wins over everything)
//        out=PATH     merged-JSONL output path for the bench exporters
//        sample@N     time-series sampling interval in execs
//        ring@N       event ring capacity (rounded up to a power of two)
//        csv          additionally emit queue/coverage CSVs next to `out`
//        wall         include wall-clock fields in exports (these are
//                     non-deterministic and excluded by default so merged
//                     traces stay byte-identical across job counts)
//
//      Any entry other than off/0 enables tracing; malformed entries are
//      skipped, like fault-site specs.
//
//  - Sample: one row of the exec-budget time-series (queue size, favored
//    set, coverage, crash/hang totals, culling stats, dictionary size) —
//    the machine-readable form of the paper's Fig. 2 / Tables I & III
//    inputs. Samples are keyed by execution index, the deterministic
//    analogue of the paper's wall-clock axis.
//
//  - InstanceTrace: one fuzzer instance's recorder — event ring + metrics
//    registry + sample series. Owned by the Fuzzer, serialized inside its
//    snapshot (the versioned metrics section), so a killed-and-resumed
//    campaign reports the same cumulative series as an uninterrupted one.
//
//  - CampaignTrace: a whole campaign's telemetry — one InstanceRecord per
//    fuzzer instance (culling rounds, opportunistic phases) with its
//    campaign-cumulative exec offset, plus campaign-level events (cull
//    verdicts, phase starts). This is what exporters and pathfuzz-report
//    consume.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_TELEMETRY_TRACE_H
#define PATHFUZZ_TELEMETRY_TRACE_H

#include "support/Bytes.h"
#include "telemetry/Metrics.h"
#include "telemetry/Telemetry.h"

#include <memory>
#include <string>
#include <vector>

namespace pathfuzz {
namespace telemetry {

struct TraceConfig {
  bool Enabled = false;
  /// Event ring capacity as log2 (default 4096 events).
  uint32_t RingCapacityLog2 = 12;
  /// Execs between time-series samples; 0 disables sampling.
  uint64_t SampleInterval = 2048;
  /// Merged-trace output path ("" = collect only, no file export).
  std::string OutPath;
  /// Also emit queue/coverage CSVs next to OutPath.
  bool Csv = false;
  /// Include wall-clock fields in exports (non-deterministic).
  bool Wall = false;
};

/// Parse PATHFUZZ_TRACE (see file comment). Unset → disabled defaults.
TraceConfig traceConfigFromEnv();

/// One time-series sample, keyed by instance-local exec index.
struct Sample {
  uint64_t Exec = 0;
  uint64_t QueueSize = 0;
  uint64_t Favored = 0;      ///< favored queue entries
  uint64_t EdgesCovered = 0; ///< distinct shadow edges so far
  uint64_t Crashes = 0;      ///< total crashing execs
  uint64_t UniqueCrashes = 0;
  uint64_t Hangs = 0;
  uint64_t UniqueBugs = 0;
  uint64_t CullPasses = 0; ///< favored-set recomputations (queue culls)
  uint64_t DictSize = 0;   ///< cmp-operand dictionary entries
};

bool operator==(const Sample &A, const Sample &B);

/// A decoded InstanceTrace::serializeState() section (the snapshot
/// "metrics section"), validated but not yet applied to a recorder.
struct InstanceState {
  std::vector<Event> Events;
  uint64_t Recorded = 0;
  std::vector<Sample> Samples;
  MetricsRegistry Metrics;
};

/// Decode a serializeState() section. False on malformed, version-unknown
/// or non-canonical input (out-of-order metric names, fewer recorded
/// events than held ones) — anything that would not re-serialize to the
/// same bytes.
bool decodeInstanceState(ByteReader &R, InstanceState &Out);

/// One fuzzer instance's recorder. Single-writer; the owning fuzzer is
/// the only mutator (see Telemetry.h for the sharding story).
class InstanceTrace {
public:
  explicit InstanceTrace(const TraceConfig &Cfg)
      : Cfg(Cfg), Ring(Cfg.RingCapacityLog2) {}

  void event(EventKind K, uint64_t Exec, uint32_t A32 = 0, uint64_t A64 = 0,
             uint8_t A8 = 0) {
    Event E;
    E.Exec = Exec;
    E.Kind = K;
    E.Arg32 = A32;
    E.Arg64 = A64;
    E.Arg8 = A8;
    Ring.push(E);
  }

  bool sampleDue(uint64_t Execs) const {
    return Cfg.SampleInterval != 0 && Execs % Cfg.SampleInterval == 0;
  }
  void sample(const Sample &S) { Samples.push_back(S); }

  const TraceConfig &config() const { return Cfg; }
  EventRing &ring() { return Ring; }
  const EventRing &ring() const { return Ring; }
  MetricsRegistry &metrics() { return Metrics; }
  const MetricsRegistry &metrics() const { return Metrics; }
  const std::vector<Sample> &samples() const { return Samples; }

  /// Serialize the mutable state (ring, samples, metrics) — the snapshot
  /// "metrics section". Versioned independently of the snapshot envelope.
  void serializeState(ByteWriter &W) const;
  /// Whether adoptState(S) keeps this recorder's handed-out metric
  /// pointers meaningful (MetricsRegistry::canAdopt).
  bool canAdopt(const InstanceState &S) const {
    return Metrics.canAdopt(S.Metrics);
  }
  /// Replace the ring, samples and metrics with S. Requires canAdopt(S).
  void adoptState(const InstanceState &S);

private:
  TraceConfig Cfg;
  EventRing Ring;
  MetricsRegistry Metrics;
  std::vector<Sample> Samples;
};

/// One fuzzer instance's telemetry, flattened into a campaign trace with
/// its campaign-cumulative exec offset.
struct InstanceRecord {
  std::string Label; ///< "main", "round2", "phase1", ...
  uint64_t ExecOffset = 0;
  std::vector<Event> Events;
  uint64_t EventsRecorded = 0; ///< lifetime pushes (>= Events.size())
  std::vector<Sample> Samples;
  MetricsRegistry Metrics;
};

/// A whole campaign's telemetry: identity, per-instance records and
/// campaign-level driver events (cull verdicts, phase starts) keyed by
/// campaign-cumulative exec index.
struct CampaignTrace {
  std::string Subject;
  std::string Fuzzer;
  uint64_t Seed = 0;
  std::vector<InstanceRecord> Instances;
  std::vector<Event> CampaignEvents;
  /// Wall-clock duration of the campaign (microseconds); 0 when not
  /// measured. Never exported in deterministic mode.
  uint64_t WallMicros = 0;
};

/// Append Tr's current state to T as a completed instance.
void collectInstance(CampaignTrace &T, std::string Label, uint64_t ExecOffset,
                     const InstanceTrace &Tr);

/// Checkpoint-payload serialization of a campaign trace (presence byte +
/// body); Null writes an absent trace.
void writeCampaignTrace(ByteWriter &W, const CampaignTrace *T);
/// Returns null for an absent trace; poisons R on malformed input.
std::shared_ptr<CampaignTrace> readCampaignTrace(ByteReader &R);

} // namespace telemetry
} // namespace pathfuzz

#endif // PATHFUZZ_TELEMETRY_TRACE_H
