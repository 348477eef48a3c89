//===- Report.h - Artifact tables from trace JSONL --------------*- C++ -*-===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// The consuming half of the export pipeline: given merged trace JSONL (as
// written by Export.h), reconstruct the artifact tables and curves the
// paper reports — queue trajectory per configuration, coverage over the
// exec budget, a crash-dedup summary, and a machine-readable bench
// record. This is the library behind the `pathfuzz-report` CLI; it lives
// in the telemetry library so tests can round-trip export → report
// without spawning a process.
//
// The parser is deliberately tiny: our exporter writes flat, one-object-
// per-line JSON with unique keys, so two key extractors (string, u64) are
// the whole grammar. It is not a general JSON parser and does not try to
// be.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_TELEMETRY_REPORT_H
#define PATHFUZZ_TELEMETRY_REPORT_H

#include <cstdint>
#include <string>

namespace pathfuzz {
namespace telemetry {

/// Extract an unsigned field from one flat JSON line. False when the key
/// is absent, not a number, or above UINT64_MAX.
bool jsonU64(const std::string &Line, const std::string &Key, uint64_t &Out);

/// Extract a string field (unescaping \" \\ \/ \b \f \n \t \r and
/// \u00XX). False when the key is absent, the value is not a terminated
/// string, an escape is not one of those, or a \u escape is malformed or
/// names a code point above 0x7f.
bool jsonStr(const std::string &Line, const std::string &Key,
             std::string &Out);

/// Minimal JSON string escaping (quotes, backslashes, control characters
/// as \n \t \r or \u00XX) — the inverse of jsonStr's unescape. Bytes of
/// 0x80 and above pass through verbatim.
std::string jsonEscape(const std::string &Raw);

/// Queue-trajectory CSV ("subject,fuzzer,seed,execs,queue") rebuilt from
/// sample lines. Byte-identical to Export's queueTrajectoryCsv over the
/// same traces — the round-trip oracle.
std::string queueCsvFromJsonl(const std::string &Jsonl);

/// Coverage CSV ("subject,fuzzer,seed,execs,edges") from sample lines.
std::string coverageCsvFromJsonl(const std::string &Jsonl);

/// Per-campaign crash-dedup summary CSV:
/// "subject,fuzzer,seed,crashes,unique_crashes,unique_bugs,dedup_events".
std::string crashSummaryFromJsonl(const std::string &Jsonl);

/// Machine-readable per-campaign end-state record (final queue size,
/// edges, crash totals) as a single JSON document, for BENCH_*.json
/// artifact trajectories.
std::string benchJsonFromJsonl(const std::string &Jsonl,
                               const std::string &Name);

} // namespace telemetry
} // namespace pathfuzz

#endif // PATHFUZZ_TELEMETRY_REPORT_H
