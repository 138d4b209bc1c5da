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
/// entry's id is always (states stored) - size(). The last KeySlack bytes
/// of every block are never used for entries and stay zero, so a decoder
/// may load whole words up to the end of any key.
///
/// Each block is its own anonymous mapping (mapZeroed in
/// support/PageArray.h), unmapped when it drains, so the frontier's pages
/// go back to the kernel as it shrinks. Blocks from malloc would instead
/// leave the frontier's peak behind as free heap for the rest of the run
/// (6 MiB on lamport2-3-ra, whose peak comes at the end, when the visited
/// set and trace edges are largest). One drained block is kept as a spare
/// for the next one, so a run that pops as fast as it pushes makes no
/// system calls; a key longer than a block gets a mapping of its own size,
/// which is never kept.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_EXPLORE_KEYFRONTIER_H
#define ROCKER_EXPLORE_KEYFRONTIER_H

#include "support/PageArray.h"
#include "support/StateKey.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <deque>
#include <string_view>
#include <utility>

namespace rocker {

class KeyFrontier {
public:
  /// Block size, KeySlack included; a longer entry gets a block of its
  /// own.
  static constexpr size_t BlockBytes = 64 * 1024;
  /// Bytes an entry adds besides its key.
  static constexpr size_t EntryOverhead = sizeof(uint32_t);

  /// Bytes an entry with a \p KeyLen-byte key occupies.
  static uint64_t entryBytes(size_t KeyLen) { return EntryOverhead + KeyLen; }

  void push(std::string_view Key) {
    size_t Need = entryBytes(Key.size());
    if (Blocks.empty() || Blocks.back().cap() - Blocks.back().End < Need)
      Blocks.push_back(newBlock(Need));
    Block &B = Blocks.back();
    char *P = B.Data + B.End;
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
    return keyAt(B.Data + B.Begin);
  }

  void popFront() {
    Block &B = Blocks.front();
    B.Begin += entryBytes(front().size());
    --Count;
    if (B.Begin == B.End) {
      // Keep a drained standard block as the spare; unmap the rest.
      if (B.Bytes == BlockBytes)
        Spare = std::move(B);
      Blocks.pop_front();
    }
  }

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  /// Bytes of block mappings held, the spare included.
  uint64_t heldBytes() const {
    uint64_t N = Spare.Bytes;
    for (const Block &B : Blocks)
      N += B.Bytes;
    return N;
  }

  /// Calls \p F(std::string_view Key) for every entry, front to back.
  template <typename Fn> void forEach(Fn F) const {
    for (const Block &B : Blocks)
      for (size_t Off = B.Begin; Off != B.End;) {
        std::string_view Key = keyAt(B.Data + Off);
        F(Key);
        Off += entryBytes(Key.size());
      }
  }

private:
  /// One mapping; owns it.
  struct Block {
    char *Data = nullptr;
    size_t Bytes = 0; ///< Mapped bytes (0 when none).
    size_t Begin = 0; ///< Offset of the first live entry.
    size_t End = 0;   ///< Offset past the last live entry.

    Block() = default;
    explicit Block(size_t N)
        : Data(static_cast<char *>(mapZeroed(N, /*HugePages=*/false))),
          Bytes(N) {}
    Block(Block &&O) noexcept
        : Data(std::exchange(O.Data, nullptr)),
          Bytes(std::exchange(O.Bytes, 0)), Begin(O.Begin), End(O.End) {}
    Block &operator=(Block &&O) noexcept {
      std::swap(Data, O.Data);
      std::swap(Bytes, O.Bytes);
      Begin = O.Begin;
      End = O.End;
      return *this;
    }
    ~Block() {
      if (Data)
        unmapZeroed(Data, Bytes);
    }

    /// Bytes entries may fill.
    size_t cap() const { return Bytes - KeySlack; }
  };

  static std::string_view keyAt(const char *P) {
    uint32_t Len;
    std::memcpy(&Len, P, sizeof(Len));
    return std::string_view(P + sizeof(Len), Len);
  }

  Block newBlock(size_t Need) {
    if (Spare.Data && Spare.cap() >= Need) {
      Block B = std::move(Spare);
      B.Begin = B.End = 0;
      return B;
    }
    return Block(std::max(BlockBytes, Need + KeySlack));
  }

  std::deque<Block> Blocks;
  Block Spare; ///< A drained block to reuse (no Data when none).
  size_t Count = 0;
};

} // namespace rocker

#endif // ROCKER_EXPLORE_KEYFRONTIER_H
