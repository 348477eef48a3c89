//===- Report.cpp - Artifact tables from trace JSONL ----------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Report.h"

#include "telemetry/Export.h"

#include <cstdio>
#include <map>
#include <sstream>
#include <tuple>
#include <vector>

namespace pathfuzz {
namespace telemetry {

namespace {

/// Position just past `"Key":`, or npos. Keys are unique per line by
/// schema, so the first hit is the right one.
size_t findValue(const std::string &Line, const std::string &Key) {
  std::string Needle = "\"" + Key + "\":";
  size_t At = Line.find(Needle);
  return At == std::string::npos ? std::string::npos : At + Needle.size();
}

struct CampaignKey {
  std::string Subject;
  std::string Fuzzer;
  uint64_t Seed = 0;
  bool operator<(const CampaignKey &O) const {
    return std::tie(Subject, Fuzzer, Seed) <
           std::tie(O.Subject, O.Fuzzer, O.Seed);
  }
};

bool lineKey(const std::string &Line, CampaignKey &K) {
  return jsonStr(Line, "subject", K.Subject) &&
         jsonStr(Line, "fuzzer", K.Fuzzer) && jsonU64(Line, "seed", K.Seed);
}

bool lineType(const std::string &Line, const char *Type) {
  std::string T;
  return jsonStr(Line, "type", T) && T == Type;
}

template <typename Fn> void eachLine(const std::string &Jsonl, Fn F) {
  size_t Pos = 0;
  while (Pos < Jsonl.size()) {
    size_t Nl = Jsonl.find('\n', Pos);
    if (Nl == std::string::npos)
      Nl = Jsonl.size();
    if (Nl > Pos)
      F(Jsonl.substr(Pos, Nl - Pos));
    Pos = Nl + 1;
  }
}

/// Sample-line series CSV ("execs" plus one value field), preserving the
/// exporter's line order so the round-trip is byte-exact.
std::string seriesCsv(const std::string &Jsonl, const char *Header,
                      const char *Field) {
  std::ostringstream O;
  O << Header << "\n";
  eachLine(Jsonl, [&](const std::string &Line) {
    if (!lineType(Line, "sample"))
      return;
    CampaignKey K;
    uint64_t Exec = 0, Value = 0;
    if (!lineKey(Line, K) || !jsonU64(Line, "exec", Exec) ||
        !jsonU64(Line, Field, Value))
      return;
    O << csvField(K.Subject) << "," << csvField(K.Fuzzer) << "," << K.Seed
      << "," << Exec << "," << Value << "\n";
  });
  return O.str();
}

struct CrashTotals {
  uint64_t Crashes = 0;
  uint64_t UniqueCrashes = 0;
  uint64_t UniqueBugs = 0;
  uint64_t DedupEvents = 0;
};

struct EndState {
  uint64_t Exec = 0;
  uint64_t Queue = 0;
  uint64_t Edges = 0;
  uint64_t UniqueCrashes = 0;
};

} // namespace

bool jsonU64(const std::string &Line, const std::string &Key, uint64_t &Out) {
  size_t At = findValue(Line, Key);
  if (At == std::string::npos || At >= Line.size())
    return false;
  uint64_t V = 0;
  size_t Digits = 0;
  while (At < Line.size() && Line[At] >= '0' && Line[At] <= '9') {
    const uint64_t D = static_cast<uint64_t>(Line[At] - '0');
    if (V > (UINT64_MAX - D) / 10)
      return false; // above UINT64_MAX: out of range, not a wrapped value
    V = V * 10 + D;
    ++At;
    ++Digits;
  }
  if (Digits == 0)
    return false;
  Out = V;
  return true;
}

bool jsonStr(const std::string &Line, const std::string &Key,
             std::string &Out) {
  size_t At = findValue(Line, Key);
  if (At == std::string::npos || At >= Line.size() || Line[At] != '"')
    return false;
  ++At;
  std::string V;
  while (At < Line.size() && Line[At] != '"') {
    char C = Line[At];
    if (C == '\\' && At + 1 < Line.size()) {
      char E = Line[++At];
      switch (E) {
      case 'n':
        V += '\n';
        break;
      case 't':
        V += '\t';
        break;
      case 'r':
        V += '\r';
        break;
      case 'b':
        V += '\b';
        break;
      case 'f':
        V += '\f';
        break;
      case '"':
      case '\\':
      case '/':
        V += E;
        break;
      case 'u': {
        // jsonEscape writes control characters as \u00XX; read back the
        // ASCII range, refuse anything wider (no UTF-8 encoding here).
        unsigned Code = 0;
        for (int K = 0; K < 4; ++K) {
          const char H = ++At < Line.size() ? Line[At] : '\0';
          const int Nibble = H >= '0' && H <= '9'   ? H - '0'
                             : H >= 'a' && H <= 'f' ? H - 'a' + 10
                             : H >= 'A' && H <= 'F' ? H - 'A' + 10
                                                    : -1;
          if (Nibble < 0)
            return false;
          Code = Code * 16 + static_cast<unsigned>(Nibble);
        }
        if (Code > 0x7f)
          return false;
        V += static_cast<char>(Code);
        break;
      }
      default:
        return false; // not a JSON escape
      }
    } else {
      V += C;
    }
    ++At;
  }
  if (At >= Line.size())
    return false; // unterminated string
  Out = V;
  return true;
}

std::string jsonEscape(const std::string &Raw) {
  std::string Out;
  Out.reserve(Raw.size());
  for (char C : Raw) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

std::string queueCsvFromJsonl(const std::string &Jsonl) {
  return seriesCsv(Jsonl, "subject,fuzzer,seed,execs,queue", "queue");
}

std::string coverageCsvFromJsonl(const std::string &Jsonl) {
  return seriesCsv(Jsonl, "subject,fuzzer,seed,execs,edges", "edges");
}

std::string crashSummaryFromJsonl(const std::string &Jsonl) {
  std::map<CampaignKey, CrashTotals> Rows;
  eachLine(Jsonl, [&](const std::string &Line) {
    CampaignKey K;
    if (!lineKey(Line, K))
      return;
    if (lineType(Line, "campaign")) {
      Rows[K]; // campaigns with zero crashes still get a row
      return;
    }
    if (lineType(Line, "sample")) {
      CrashTotals &T = Rows[K];
      uint64_t V = 0;
      // Samples are cumulative; the last one seen carries the totals.
      if (jsonU64(Line, "crashes", V) && V > T.Crashes)
        T.Crashes = V;
      if (jsonU64(Line, "uniq_crashes", V) && V > T.UniqueCrashes)
        T.UniqueCrashes = V;
      if (jsonU64(Line, "uniq_bugs", V) && V > T.UniqueBugs)
        T.UniqueBugs = V;
      return;
    }
    if (lineType(Line, "event")) {
      std::string Kind;
      if (jsonStr(Line, "kind", Kind) && Kind == "crash_deduped")
        ++Rows[K].DedupEvents;
    }
  });
  std::ostringstream O;
  O << "subject,fuzzer,seed,crashes,unique_crashes,unique_bugs,"
       "dedup_events\n";
  for (const auto &[K, T] : Rows)
    O << csvField(K.Subject) << "," << csvField(K.Fuzzer) << "," << K.Seed
      << "," << T.Crashes << "," << T.UniqueCrashes << "," << T.UniqueBugs
      << "," << T.DedupEvents << "\n";
  return O.str();
}

std::string benchJsonFromJsonl(const std::string &Jsonl,
                               const std::string &Name) {
  std::map<CampaignKey, EndState> Rows;
  eachLine(Jsonl, [&](const std::string &Line) {
    CampaignKey K;
    if (!lineKey(Line, K))
      return;
    if (lineType(Line, "campaign")) {
      Rows[K];
      return;
    }
    if (!lineType(Line, "sample"))
      return;
    EndState &E = Rows[K];
    uint64_t Exec = 0;
    if (!jsonU64(Line, "exec", Exec) || Exec < E.Exec)
      return;
    E.Exec = Exec;
    jsonU64(Line, "queue", E.Queue);
    jsonU64(Line, "edges", E.Edges);
    jsonU64(Line, "uniq_crashes", E.UniqueCrashes);
  });
  std::ostringstream O;
  O << "{\"name\":\"" << Name << "\",\"configs\":[";
  bool First = true;
  for (const auto &[K, E] : Rows) {
    if (!First)
      O << ",";
    First = false;
    O << "{\"subject\":\"" << K.Subject << "\",\"fuzzer\":\"" << K.Fuzzer
      << "\",\"seed\":" << K.Seed << ",\"final_exec\":" << E.Exec
      << ",\"final_queue\":" << E.Queue << ",\"final_edges\":" << E.Edges
      << ",\"unique_crashes\":" << E.UniqueCrashes << "}";
  }
  O << "]}\n";
  return O.str();
}

} // namespace telemetry
} // namespace pathfuzz
