//===- support/BinCodec.h - Bounds-checked binary encoding -----*- C++ -*-===//
///
/// \file
/// The little-endian byte codec shared by the checkpoint format
/// (resilience/Checkpoint.h) and the visited-set dump/restore paths
/// (support/StateInterner.h, support/ShardedSet.h). A BinWriter appends
/// fixed-width and length-prefixed fields to a flat buffer; a BinReader
/// consumes them with bounds checking — any overrun or malformed varint
/// latches fail() instead of reading out of bounds, so a truncated or
/// corrupted checkpoint is rejected rather than trusted.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_SUPPORT_BINCODEC_H
#define ROCKER_SUPPORT_BINCODEC_H

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace rocker {

/// Appends little-endian fields to a byte buffer.
class BinWriter {
public:
  std::string Buf;

  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }

  void u32(uint32_t V) { appendRaw(&V, sizeof(V)); }

  void u64(uint64_t V) { appendRaw(&V, sizeof(V)); }

  void f64(double V) { appendRaw(&V, sizeof(V)); }

  /// LEB128 varint; 1 byte for values below 128.
  void varu64(uint64_t V) {
    while (V >= 0x80) {
      Buf.push_back(static_cast<char>(V | 0x80));
      V >>= 7;
    }
    Buf.push_back(static_cast<char>(V));
  }

  /// Length-prefixed byte string.
  void str(std::string_view S) {
    varu64(S.size());
    Buf.append(S);
  }

  void bytes(const void *P, size_t N) {
    Buf.append(static_cast<const char *>(P), N);
  }

private:
  void appendRaw(const void *P, size_t N) {
    Buf.append(static_cast<const char *>(P), N);
  }
};

/// Bounds-checked reader over a byte buffer. After any failed read every
/// subsequent read returns zeros/empties and fail() stays true, so a
/// decode loop can defer its error check to the end.
class BinReader {
public:
  explicit BinReader(const std::string &Buf) : Buf(Buf) {}

  bool fail() const { return Failed; }
  bool atEnd() const { return Pos == Buf.size(); }
  /// Bytes left to read; bounds element counts before allocating.
  size_t remaining() const { return Buf.size() - Pos; }

  uint8_t u8() {
    uint8_t V = 0;
    readRaw(&V, sizeof(V));
    return V;
  }

  uint32_t u32() {
    uint32_t V = 0;
    readRaw(&V, sizeof(V));
    return V;
  }

  uint64_t u64() {
    uint64_t V = 0;
    readRaw(&V, sizeof(V));
    return V;
  }

  double f64() {
    double V = 0;
    readRaw(&V, sizeof(V));
    return V;
  }

  uint64_t varu64() {
    uint64_t V = 0;
    unsigned Shift = 0;
    for (;;) {
      if (Pos >= Buf.size() || Shift > 63) {
        Failed = true;
        return 0;
      }
      uint8_t B = static_cast<uint8_t>(Buf[Pos++]);
      V |= static_cast<uint64_t>(B & 0x7f) << Shift;
      if (!(B & 0x80))
        return V;
      Shift += 7;
    }
  }

  std::string str() {
    uint64_t N = varu64();
    if (Failed || N > Buf.size() - Pos) {
      Failed = true;
      return {};
    }
    std::string S = Buf.substr(Pos, N);
    Pos += N;
    return S;
  }

  /// Reads exactly \p N raw bytes into \p P (zero-fills on failure).
  void bytes(void *P, size_t N) { readRaw(P, N); }

private:
  void readRaw(void *P, size_t N) {
    if (Failed || N > Buf.size() - Pos) {
      Failed = true;
      std::memset(P, 0, N);
      return;
    }
    std::memcpy(P, Buf.data() + Pos, N);
    Pos += N;
  }

  const std::string &Buf;
  size_t Pos = 0;
  bool Failed = false;
};

} // namespace rocker

#endif // ROCKER_SUPPORT_BINCODEC_H
