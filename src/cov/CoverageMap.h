//===- CoverageMap.h - AFL-style coverage map -------------------*- C++ -*-===//
//
// Part of the pathfuzz project: a reproduction of "Towards Path-Aware
// Coverage-Guided Fuzzing" (CGO 2026).
//
//===----------------------------------------------------------------------===//
//
// The fixed-size byte coverage map AFL-family fuzzers share with the
// target, plus the standard post-processing pipeline:
//
//  - classifyCounts(): hit counts are normalized into power-of-two buckets
//    (1, 2, 3, 4-7, 8-15, 16-31, 32-127, 128+) so that only order-of-
//    magnitude count changes register as novelty.
//  - hasNewBits(): compares a classified trace against the "virgin" map
//    and reports no novelty / new hit-count bucket / brand-new entry,
//    exactly like AFL++'s has_new_bits, updating the virgin map.
//
// The paper keeps this machinery untouched and only changes what indexes
// the map (edges vs (path_id ^ function) values), so the same CoverageMap
// serves every fuzzer configuration in this reproduction.
//
// Each pipeline stage exists twice. The full-map functions scan all 2^N
// bytes and are the reference. The *Touched functions walk only the
// 64-byte lines the execution wrote: the VM engines set
// lineFlags()[Index >> LineShift] on every map bump (see
// vm::FeedbackContext::LineFlags), collectTouched() turns the flags into
// an ascending line list, and reset, classify, novelty, the nonzero-index
// collection and the checksum then cost O(touched lines) instead of
// O(map size) — with bit-identical results, since every other byte is
// zero and contributes nothing to any stage.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_COV_COVERAGEMAP_H
#define PATHFUZZ_COV_COVERAGEMAP_H

#include <cstdint>
#include <cstring>
#include <vector>

namespace pathfuzz {
namespace cov {

/// Novelty classification returned by hasNewBits.
enum class Novelty : uint8_t {
  None = 0,     ///< nothing new
  NewCounts = 1,///< an existing entry moved to a new hit-count bucket
  NewEdges = 2, ///< a map entry was hit for the first time
};

/// Map writes are tracked per line of 1 << LineShift bytes (one cache
/// line, eight 64-bit words).
constexpr uint32_t LineShift = 6;
constexpr uint32_t LineBytes = 1u << LineShift;

/// The per-execution trace map plus helpers. Size is a power of two of at
/// least one line.
class CoverageMap {
public:
  static constexpr uint32_t MinSizeLog2 = LineShift;
  static constexpr uint32_t MaxSizeLog2 = 24;

  /// SizeLog2 must lie in [MinSizeLog2, MaxSizeLog2]; callers that take it
  /// from outside the program validate it first.
  explicit CoverageMap(uint32_t SizeLog2 = 16);

  uint8_t *data() { return Map.data(); }
  const uint8_t *data() const { return Map.data(); }
  uint32_t size() const { return static_cast<uint32_t>(Map.size()); }
  uint32_t mask() const { return size() - 1; }
  uint32_t numLines() const { return size() >> LineShift; }

  // -- The reference full-map pipeline. Valid on any map contents,
  //    however they were written.

  /// Zero the whole map and drop the touched-line bookkeeping.
  void reset();

  /// Bucket raw hit counts in place (AFL's classify_counts).
  void classifyCounts();

  /// Number of nonzero entries (AFL's count_bytes; the "map density").
  uint32_t countBytes() const;

  /// 64-bit checksum of the classified map (AFL's execution checksum used
  /// for calibration stability checks): FNV-1a over all size() bytes.
  uint64_t checksum() const;

  // -- The touched-line pipeline, for one execution at a time: reset,
  //    run (the engine flags every line it writes), collectTouched(),
  //    then any of the walks below. Requires that every nonzero byte lies
  //    in a line flagged since the last reset. Each walk returns exactly
  //    what its full-map counterpart returns.

  /// One flag byte per line, nonzero = written. Handed to the VM through
  /// vm::FeedbackContext::LineFlags.
  uint8_t *lineFlags() { return Flags.data(); }

  /// Move the flagged lines into the ascending touched-line list and
  /// clear their flags. Once per execution, after its last map write.
  void collectTouched();
  const std::vector<uint32_t> &touchedLines() const { return Touched; }

  /// reset() for the touched lines only.
  void resetTouched();
  /// classifyCounts() for the touched lines only.
  void classifyTouched();
  /// checksum() computed from the touched lines only.
  uint64_t checksumTouched() const;
  /// Append the indices of the nonzero entries, ascending, to Out.
  void appendNonzeroTouched(std::vector<uint32_t> &Out) const;

  /// Bucket a single raw count (exposed for tests).
  static uint8_t bucketFor(uint8_t Count);

private:
  std::vector<uint8_t> Map;
  /// One byte per line, padded to whole 64-bit words so collectTouched()
  /// scans it a word at a time; the padding is never flagged.
  std::vector<uint8_t> Flags;
  std::vector<uint32_t> Touched; ///< ascending, collected since reset
};

/// The accumulated "virgin" view of everything seen so far. Starts all-FF.
class VirginMap {
public:
  explicit VirginMap(uint32_t Size);

  /// Compare a *classified* trace with the virgin map; updates the virgin
  /// map with anything new. Mirrors AFL++'s has_new_bits.
  Novelty hasNewBits(const CoverageMap &Trace);

  /// hasNewBits() walking only Trace.touchedLines(); same verdict, same
  /// virgin-map update.
  Novelty hasNewBitsTouched(const CoverageMap &Trace);

  /// Non-updating variant.
  Novelty wouldHaveNewBits(const CoverageMap &Trace) const;

  /// Number of map entries observed at least once.
  uint32_t coveredEntries() const;

  const uint8_t *data() const { return Virgin.data(); }

  /// Overwrite the accumulated view with Size bytes captured from another
  /// virgin map (snapshot restore); false on size mismatch.
  bool restoreFrom(const uint8_t *Data, size_t Size) {
    if (Size != Virgin.size())
      return false;
    std::memcpy(Virgin.data(), Data, Size);
    return true;
  }

private:
  std::vector<uint8_t> Virgin;
};

} // namespace cov
} // namespace pathfuzz

#endif // PATHFUZZ_COV_COVERAGEMAP_H
