//===- Bytes.h - Little-endian byte serialization helpers -------*- C++ -*-===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// An append-only little-endian byte writer and a bounds-checked reader.
// These started life inside fuzz/Snapshot.h; they live in support/ so the
// layers below the fuzzer (telemetry traces, tools) can serialize without
// depending on the fuzz layer. fuzz/Snapshot.h re-exports them under
// pathfuzz::fuzz for its existing users.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_SUPPORT_BYTES_H
#define PATHFUZZ_SUPPORT_BYTES_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

namespace pathfuzz {

/// Append-only little-endian byte buffer.
class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(V); }
  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void bytes(const void *Data, size_t N) {
    const auto *P = static_cast<const uint8_t *>(Data);
    Buf.insert(Buf.end(), P, P + N);
  }
  /// u64 length prefix + raw bytes.
  void blob(const std::vector<uint8_t> &B) {
    u64(B.size());
    bytes(B.data(), B.size());
  }
  /// u64 length prefix + raw characters (no terminator).
  void str(const std::string &S) {
    u64(S.size());
    bytes(S.data(), S.size());
  }
  void vecU32(const std::vector<uint32_t> &Xs) {
    u64(Xs.size());
    for (uint32_t X : Xs)
      u32(X);
  }
  void vecU64(const std::vector<uint64_t> &Xs) {
    u64(Xs.size());
    for (uint64_t X : Xs)
      u64(X);
  }
  void vecI64(const std::vector<int64_t> &Xs) {
    u64(Xs.size());
    for (int64_t X : Xs)
      i64(X);
  }

  const std::vector<uint8_t> &data() const { return Buf; }
  std::vector<uint8_t> take() { return std::move(Buf); }

private:
  std::vector<uint8_t> Buf;
};

/// Bounds-checked little-endian reader. Any overrun latches ok() to false
/// and subsequent reads return zeros; callers check ok() once at the end.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t N) : P(Data), End(Data + N) {}
  explicit ByteReader(const std::vector<uint8_t> &B)
      : ByteReader(B.data(), B.size()) {}

  uint8_t u8() {
    uint8_t V = 0;
    copy(&V, 1);
    return V;
  }
  uint32_t u32() {
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(u8()) << (8 * I);
    return V;
  }
  uint64_t u64() {
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(u8()) << (8 * I);
    return V;
  }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  /// A bool written as u8: 0 or 1, anything else latches the reader
  /// failed (it would not re-serialize to the same byte).
  bool flag() {
    uint8_t V = u8();
    if (V > 1)
      OkFlag = false;
    return V == 1;
  }
  bool bytes(void *Out, size_t N) { return copy(Out, N); }
  std::vector<uint8_t> blob() {
    uint64_t N = u64();
    if (N > remaining()) {
      OkFlag = false;
      return {};
    }
    std::vector<uint8_t> Out(P, P + N);
    P += N;
    return Out;
  }
  std::string str() {
    uint64_t N = u64();
    if (N > remaining()) {
      OkFlag = false;
      return {};
    }
    std::string Out(reinterpret_cast<const char *>(P), N);
    P += N;
    return Out;
  }
  std::vector<uint32_t> vecU32() {
    uint64_t N = u64();
    if (N > remaining() / 4) {
      OkFlag = false;
      return {};
    }
    std::vector<uint32_t> Out(N);
    for (auto &X : Out)
      X = u32();
    return Out;
  }
  std::vector<uint64_t> vecU64() {
    uint64_t N = u64();
    if (N > remaining() / 8) {
      OkFlag = false;
      return {};
    }
    std::vector<uint64_t> Out(N);
    for (auto &X : Out)
      X = u64();
    return Out;
  }
  std::vector<int64_t> vecI64() {
    uint64_t N = u64();
    if (N > remaining() / 8) {
      OkFlag = false;
      return {};
    }
    std::vector<int64_t> Out(N);
    for (auto &X : Out)
      X = i64();
    return Out;
  }

  /// Read exactly N raw bytes (no length prefix).
  std::vector<uint8_t> raw(size_t N) {
    if (N > remaining()) {
      OkFlag = false;
      return {};
    }
    std::vector<uint8_t> Out(P, P + N);
    P += N;
    return Out;
  }

  /// Latch the reader into the failed state (malformed length fields).
  void invalidate() { OkFlag = false; }

  size_t remaining() const { return static_cast<size_t>(End - P); }
  bool ok() const { return OkFlag; }
  /// ok() and fully consumed — the final acceptance check.
  bool done() const { return OkFlag && P == End; }

private:
  bool copy(void *Out, size_t N) {
    if (N > remaining()) {
      OkFlag = false;
      std::memset(Out, 0, N);
      return false;
    }
    std::memcpy(Out, P, N);
    P += N;
    return true;
  }

  const uint8_t *P;
  const uint8_t *End;
  bool OkFlag = true;
};

/// Whether V is strictly ascending: the canonical serialized form of a
/// set (sorted, no duplicates). Decoders of set-valued fields reject any
/// other order, which would not re-serialize to the same bytes.
template <typename T> bool strictlyAscending(const std::vector<T> &V) {
  return std::adjacent_find(V.begin(), V.end(), std::greater_equal<T>()) ==
         V.end();
}

} // namespace pathfuzz

#endif // PATHFUZZ_SUPPORT_BYTES_H
