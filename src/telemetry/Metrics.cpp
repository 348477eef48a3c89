//===- Metrics.cpp - Counters, gauges and log2 histograms ---------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Metrics.h"

namespace pathfuzz {
namespace telemetry {

void MetricsRegistry::serialize(ByteWriter &W) const {
  W.u64(Counters.size());
  for (const auto &[Name, V] : Counters) {
    W.str(Name);
    W.u64(V);
  }
  W.u64(Gauges.size());
  for (const auto &[Name, V] : Gauges) {
    W.str(Name);
    W.i64(V);
  }
  W.u64(Histograms.size());
  for (const auto &[Name, H] : Histograms) {
    W.str(Name);
    W.u64(H.Count);
    W.u64(H.Sum);
    W.u64(H.Min);
    W.u64(H.Max);
    for (uint64_t B : H.Buckets)
      W.u64(B);
  }
}

namespace {

/// One family of deserialize(): N (name, value) pairs, names strictly
/// ascending. Values land in existing nodes where present.
template <typename MapT, typename ReadFn>
bool readFamily(ByteReader &R, MapT &Out, ReadFn ReadValue) {
  uint64_t N = R.u64();
  std::string Prev;
  for (uint64_t I = 0; I < N && R.ok(); ++I) {
    std::string Name = R.str();
    if (I > 0 && !(Prev < Name))
      return false;
    ReadValue(Out[Name]);
    Prev = std::move(Name);
  }
  return R.ok();
}

template <typename MapT>
bool holdsObservable(const MapT &Have, const MapT &Src) {
  for (const auto &KV : Have)
    if (!isEngineLocalMetric(KV.first) && !Src.count(KV.first))
      return false;
  return true;
}

template <typename MapT> void assignFamily(MapT &Dst, const MapT &Src) {
  for (const auto &KV : Src)
    Dst[KV.first] = KV.second;
}

} // namespace

bool MetricsRegistry::deserialize(ByteReader &R) {
  return readFamily(R, Counters, [&R](uint64_t &V) { V = R.u64(); }) &&
         readFamily(R, Gauges, [&R](int64_t &V) { V = R.i64(); }) &&
         readFamily(R, Histograms, [&R](Histogram &H) {
           H.Count = R.u64();
           H.Sum = R.u64();
           H.Min = R.u64();
           H.Max = R.u64();
           for (uint64_t &B : H.Buckets)
             B = R.u64();
         });
}

bool MetricsRegistry::canAdopt(const MetricsRegistry &Src) const {
  return holdsObservable(Counters, Src.Counters) &&
         holdsObservable(Gauges, Src.Gauges) &&
         holdsObservable(Histograms, Src.Histograms);
}

void MetricsRegistry::adopt(const MetricsRegistry &Src) {
  assignFamily(Counters, Src.Counters);
  assignFamily(Gauges, Src.Gauges);
  assignFamily(Histograms, Src.Histograms);
}

bool operator==(const MetricsRegistry &A, const MetricsRegistry &B) {
  return A.counters() == B.counters() && A.gauges() == B.gauges() &&
         A.histograms() == B.histograms();
}

bool isEngineLocalMetric(const std::string &Name) {
  // Prefix families, one entry per engine facility. Keep this the only
  // place such families are spelled: the identity tests and the report
  // tooling all route through here.
  static const char *const Prefixes[] = {
      "vm.fastpath.",  // image/snapshot-reset accounting of the JIT engine
                       // (the name predates the JIT)
      "vm.jit.",       // native-code compile/exec/bailout accounting: how
                       // executions were served, never what they computed
      "store.",        // durable-store checkpoint/recovery accounting: a
                       // resumed campaign legitimately records different
                       // write/recover counts than an uninterrupted one
      "serve.",        // campaign-service scheduling accounting (slices,
                       // preemptions, admissions): how the daemon ran the
                       // work, never what the campaigns observed
  };
  for (const char *P : Prefixes)
    if (Name.rfind(P, 0) == 0)
      return true;
  return false;
}

namespace {

template <typename MapT>
bool sameObservableEntries(const MapT &A, const MapT &B) {
  auto IA = A.begin(), IB = B.begin();
  for (;;) {
    while (IA != A.end() && isEngineLocalMetric(IA->first))
      ++IA;
    while (IB != B.end() && isEngineLocalMetric(IB->first))
      ++IB;
    if (IA == A.end() || IB == B.end())
      return IA == A.end() && IB == B.end();
    if (IA->first != IB->first || !(IA->second == IB->second))
      return false;
    ++IA;
    ++IB;
  }
}

} // namespace

bool sameObservableMetrics(const MetricsRegistry &A,
                           const MetricsRegistry &B) {
  return sameObservableEntries(A.counters(), B.counters()) &&
         sameObservableEntries(A.gauges(), B.gauges()) &&
         sameObservableEntries(A.histograms(), B.histograms());
}

} // namespace telemetry
} // namespace pathfuzz
