//===- explore/KeyFrontier.h - A frontier of packed state keys --*- C++ -*-===//
///
/// \file
/// The sequential engine's frontier for memory subsystems with a key
/// decoder (HasStateCodec in explore/Expand.h). Each unexpanded state is
/// kept as its state key (support/StateKey.h), the bytes the visited probe
/// already built, and is decoded into a reused ProductState when popped.
/// On lamport2-3-ra a key is 136 bytes where a ProductState holds a
/// 1,424-byte monitor buffer plus its vectors.
///
/// The frontier is a FIFO queue. Entries are packed back to back into
/// blocks of BlockBytes:
///
///   u32 length | key bytes
///
/// No entry stores its state id: ids are discovery indices and the queue
/// holds the most recently discovered states in order, so the front
/// entry's id is always (states stored) - size(). Every block is allocated
/// with KeySlack zeroed bytes past its end, so a decoder may load whole
/// words up to the end of any key. A drained block is kept as a spare for
/// the next one, so a run that pops as fast as it pushes does not
/// allocate.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_EXPLORE_KEYFRONTIER_H
#define ROCKER_EXPLORE_KEYFRONTIER_H

#include "support/StateKey.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string_view>

namespace rocker {

class KeyFrontier {
public:
  /// Block size; a key longer than a block gets a block of its own.
  static constexpr size_t BlockBytes = 64 * 1024;
  /// Bytes an entry adds besides its key.
  static constexpr size_t EntryOverhead = sizeof(uint32_t);

  /// Bytes an entry with a \p KeyLen-byte key occupies.
  static uint64_t entryBytes(size_t KeyLen) { return EntryOverhead + KeyLen; }

  void push(std::string_view Key) {
    size_t Need = entryBytes(Key.size());
    if (Blocks.empty() || Blocks.back().Cap - Blocks.back().End < Need)
      Blocks.push_back(newBlock(Need));
    Block &B = Blocks.back();
    char *P = B.Data.get() + B.End;
    uint32_t Len = static_cast<uint32_t>(Key.size());
    std::memcpy(P, &Len, sizeof(Len));
    std::copy(Key.begin(), Key.end(), P + sizeof(Len));
    B.End += Need;
    ++Count;
  }

  /// The oldest key; it points into the frontier and stays valid until
  /// the next push or pop.
  std::string_view front() const {
    assert(Count && "front of an empty frontier");
    const Block &B = Blocks.front();
    return keyAt(B.Data.get() + B.Begin);
  }

  void popFront() {
    Block &B = Blocks.front();
    B.Begin += entryBytes(front().size());
    --Count;
    if (B.Begin == B.End) {
      // Keep a drained standard block as the spare.
      if (B.Cap == BlockBytes)
        Spare = std::move(B);
      Blocks.pop_front();
    }
  }

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  /// Calls \p F(std::string_view Key) for every entry, front to back.
  template <typename Fn> void forEach(Fn F) const {
    for (const Block &B : Blocks)
      for (size_t Off = B.Begin; Off != B.End;) {
        std::string_view Key = keyAt(B.Data.get() + Off);
        F(Key);
        Off += entryBytes(Key.size());
      }
  }

private:
  struct Block {
    std::unique_ptr<char[]> Data;
    size_t Cap = 0;   ///< Usable bytes (KeySlack more are allocated).
    size_t Begin = 0; ///< Offset of the first live entry.
    size_t End = 0;   ///< Offset past the last live entry.
  };

  static std::string_view keyAt(const char *P) {
    uint32_t Len;
    std::memcpy(&Len, P, sizeof(Len));
    return std::string_view(P + sizeof(Len), Len);
  }

  Block newBlock(size_t Need) {
    if (Spare.Data && Spare.Cap >= Need) {
      Block B = std::move(Spare);
      B.Begin = B.End = 0;
      return B;
    }
    Block B;
    B.Cap = std::max(BlockBytes, Need);
    B.Data.reset(new char[B.Cap + KeySlack]());
    return B;
  }

  std::deque<Block> Blocks;
  Block Spare; ///< A drained block to reuse (no Data when none).
  size_t Count = 0;
};

} // namespace rocker

#endif // ROCKER_EXPLORE_KEYFRONTIER_H
