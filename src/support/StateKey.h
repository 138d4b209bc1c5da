//===- support/StateKey.h - Shared state-key serialization -----*- C++ -*-===//
///
/// \file
/// The one place that defines how explorer state keys are built. Both
/// exploration engines (explore/Explorer.h, parexplore/ParallelExplorer.h)
/// and the compressed visited set (support/StateInterner.h) serialize
/// thread states and program-state projections through these helpers, so
/// the encodings cannot drift apart — the sequential and parallel engines
/// previously carried copy-pasted key builders, and both truncated the
/// 32-bit pc to 16 bits, aliasing distinct states in programs with more
/// than 2^16 instructions per thread.
///
/// Program counters are LEB128-varint encoded: one byte for pcs below 128
/// (smaller than the old fixed two-byte field on typical programs), and
/// up to five bytes for the full 32-bit range. Varints are self-delimiting
/// and each thread's register count is fixed per program, so the
/// concatenated key remains uniquely decodable (injective).
///
/// For memory subsystems whose serialization has a fixed length and an
/// inverse (SCM, SC), the key is also a payload: the sequential engine
/// keeps its frontier as keys and both engines checkpoint frontier states
/// as keys, decoding them here.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_SUPPORT_STATEKEY_H
#define ROCKER_SUPPORT_STATEKEY_H

#include "lang/Step.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rocker {

/// Appends \p V as a LEB128 varint (1 byte below 128, 5 bytes max).
inline void appendVarUint32(std::string &Out, uint32_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<char>(V | 0x80));
    V >>= 7;
  }
  Out.push_back(static_cast<char>(V));
}

/// Appends one thread's ⟨pc, Φ⟩ component: varint pc, then the raw
/// register bytes (fixed count per thread).
inline void appendThreadStateKey(std::string &Out, const ThreadState &TS) {
  appendVarUint32(Out, TS.Pc);
  Out.append(reinterpret_cast<const char *>(TS.Regs.data()),
             TS.Regs.size());
}

/// The program-state projection key (pcs + registers of all threads) used
/// by the state-robustness oracles and CollectProgramStates.
inline std::string programStateKey(const std::vector<ThreadState> &Threads) {
  std::string Key;
  Key.reserve(16 * Threads.size());
  for (const ThreadState &TS : Threads)
    appendThreadStateKey(Key, TS);
  return Key;
}

/// The full product-state key: all thread components followed by the
/// memory subsystem's serialization.
template <typename MemSys>
std::string productStateKey(const MemSys &Mem,
                            const std::vector<ThreadState> &Threads,
                            const typename MemSys::State &M) {
  std::string Key;
  Key.reserve(64);
  for (const ThreadState &TS : Threads)
    appendThreadStateKey(Key, TS);
  Mem.serialize(M, Key);
  return Key;
}

/// Bytes past the end of a key that decodeProductStateKey may read: the
/// memory decoders load whole 64-bit words.
constexpr size_t KeySlack = sizeof(uint64_t);

/// The inverse of productStateKey for a subsystem with a fixed-length key
/// decoder (MemSys::decodeState): reads the key at \p P into \p Threads,
/// which must already hold one ThreadState per thread with its registers
/// sized, and \p M. Returns the key's end. The key must be well formed
/// (one the process wrote), and KeySlack bytes past it must be readable.
template <typename MemSys>
const char *decodeProductStateKey(const MemSys &Mem, const char *P,
                                  std::vector<ThreadState> &Threads,
                                  typename MemSys::State &M) {
  for (ThreadState &TS : Threads) {
    uint32_t Pc = 0;
    for (unsigned Shift = 0;; Shift += 7) {
      uint8_t B = static_cast<uint8_t>(*P++);
      Pc |= static_cast<uint32_t>(B & 0x7f) << Shift;
      if (!(B & 0x80))
        break;
    }
    TS.Pc = Pc;
    std::copy_n(P, TS.Regs.size(), TS.Regs.begin());
    P += TS.Regs.size();
  }
  return Mem.decodeState(P, M);
}

/// decodeProductStateKey for a key from outside the process (a
/// checkpoint). Returns false unless \p Key is exactly one well-formed
/// key: each pc is a varint of at most five bytes inside the key, the
/// memory part has the subsystem's key length, and the decoded state
/// serializes back to \p Key.
template <typename MemSys>
bool decodeProductStateKeyChecked(const MemSys &Mem, std::string_view Key,
                                  std::vector<ThreadState> &Threads,
                                  typename MemSys::State &M) {
  size_t Pos = 0;
  for (const ThreadState &TS : Threads) {
    size_t Len = 1;
    while (Pos + Len <= Key.size() && Len <= 5 &&
           (static_cast<uint8_t>(Key[Pos + Len - 1]) & 0x80))
      ++Len;
    if (Len > 5 || Pos + Len > Key.size())
      return false;
    Pos += Len + TS.Regs.size();
  }
  if (Pos > Key.size() || Key.size() - Pos != Mem.stateKeyBytes())
    return false;
  std::string Padded(Key);
  Padded.append(KeySlack, '\0');
  decodeProductStateKey(Mem, Padded.data(), Threads, M);
  return productStateKey(Mem, Threads, M) == Key;
}

} // namespace rocker

#endif // ROCKER_SUPPORT_STATEKEY_H
