//===- Metrics.h - Counters, gauges and log2 histograms ---------*- C++ -*-===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// The aggregate half of the telemetry subsystem: a registry of named
// counters, gauges and fixed-bucket log2 histograms. The registry is the
// uniform export surface — every metric a campaign reports (exec totals,
// step and input-size distributions, heap pressure, culling stats) flows
// through here and serializes deterministically (std::map iteration is
// name-sorted).
//
// Hot-path contract: registration (the string lookup) happens once, at
// instance construction; the fuzzing loop holds raw pointers and pays one
// increment per update. Map nodes are stable, so the pointers survive
// later registrations and in-place restores.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_TELEMETRY_METRICS_H
#define PATHFUZZ_TELEMETRY_METRICS_H

#include "support/Bytes.h"

#include <cstdint>
#include <map>
#include <string>

namespace pathfuzz {
namespace telemetry {

/// Histogram over u64 values with fixed log2 buckets: bucket 0 holds the
/// value 0 and bucket i (1..63) holds [2^(i-1), 2^i). Fixed buckets keep
/// merged traces mergeable — two histograms of the same name always have
/// the same shape (exec steps, input sizes).
struct Histogram {
  static constexpr uint32_t NumBuckets = 64;
  uint64_t Buckets[NumBuckets] = {};
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = ~0ull;
  uint64_t Max = 0;

  static uint32_t bucketOf(uint64_t V) {
    if (V == 0)
      return 0;
    uint32_t B = 64 - static_cast<uint32_t>(__builtin_clzll(V));
    return B < NumBuckets ? B : NumBuckets - 1;
  }
  /// Inclusive lower bound of a bucket (0 for bucket 0).
  static uint64_t bucketLow(uint32_t B) {
    return B == 0 ? 0 : uint64_t(1) << (B - 1);
  }

  void observe(uint64_t V) {
    ++Buckets[bucketOf(V)];
    ++Count;
    Sum += V;
    if (V < Min)
      Min = V;
    if (V > Max)
      Max = V;
  }
};

inline bool operator==(const Histogram &A, const Histogram &B) {
  if (A.Count != B.Count || A.Sum != B.Sum || A.Min != B.Min ||
      A.Max != B.Max)
    return false;
  for (uint32_t I = 0; I < Histogram::NumBuckets; ++I)
    if (A.Buckets[I] != B.Buckets[I])
      return false;
  return true;
}

/// Named counters (monotone u64), gauges (last-written i64) and
/// histograms. Copyable; equality compares every value (the resume tests'
/// oracle).
class MetricsRegistry {
public:
  /// Stable pointer to the named counter, created at zero on first use.
  uint64_t *counter(const std::string &Name) { return &Counters[Name]; }
  /// Stable pointer to the named gauge.
  int64_t *gauge(const std::string &Name) { return &Gauges[Name]; }
  /// Stable pointer to the named histogram.
  Histogram *histogram(const std::string &Name) { return &Histograms[Name]; }

  const std::map<std::string, uint64_t> &counters() const { return Counters; }
  const std::map<std::string, int64_t> &gauges() const { return Gauges; }
  const std::map<std::string, Histogram> &histograms() const {
    return Histograms;
  }

  bool empty() const {
    return Counters.empty() && Gauges.empty() && Histograms.empty();
  }

  /// Deterministic (name-sorted) serialization.
  void serialize(ByteWriter &W) const;
  /// In-place decode of a serialize() section: values land in existing
  /// nodes where present, so pointers handed out by counter()/gauge()/
  /// histogram() stay live and correct. Names must be strictly ascending
  /// within each family — the order serialize() writes — so an accepted
  /// section decoded into an empty registry re-serializes to the same
  /// bytes. Returns false on malformed input (the registry then holds a
  /// partial decode; callers discard it, or decode into a scratch
  /// registry and adopt() it).
  bool deserialize(ByteReader &R);

  /// Whether adopt(Src) keeps every pointer handed out so far meaningful:
  /// Src carries each observable (not engine-local) series this registry
  /// holds. Engine-local series may be missing — a snapshot taken under
  /// another engine configuration legitimately lacks them.
  bool canAdopt(const MetricsRegistry &Src) const;
  /// Take Src's series and values in place: values land in existing
  /// nodes where present, so pointers handed out by counter()/gauge()/
  /// histogram() stay live. Series Src lacks (engine-local ones, given
  /// canAdopt) keep their current values.
  void adopt(const MetricsRegistry &Src);

private:
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, int64_t> Gauges;
  std::map<std::string, Histogram> Histograms;
};

bool operator==(const MetricsRegistry &A, const MetricsRegistry &B);

/// Whether a metric name belongs to an *engine-local* family: series that
/// describe how the execution engine ran (vm.fastpath.* image and
/// snapshot-reset accounting of the JIT engine, store.* durable
/// checkpoint/recovery accounting) rather than what the campaign
/// observed. The byte-identity contract — interpreter vs JIT, resumed vs
/// uninterrupted — covers every other metric; engine-local families
/// legitimately differ across those settings and must be excluded from
/// equality comparisons.
/// This is the single definition the identity tests share, so a new
/// engine-local family added here cannot silently break them.
bool isEngineLocalMetric(const std::string &Name);

/// Equality over the non-engine-local subset of two registries: the
/// comparison the campaign/resume identity tests use.
bool sameObservableMetrics(const MetricsRegistry &A, const MetricsRegistry &B);

} // namespace telemetry
} // namespace pathfuzz

#endif // PATHFUZZ_TELEMETRY_METRICS_H
