//===- support/StateInterner.h - Collapse-compressed visited set -*- C++ -*-===//
///
/// \file
/// An LTSmin-style collapse-compressed visited set for the exploration
/// engines. Instead of storing one full serialized byte string per visited
/// product state, the state is split into *components* — one ⟨pc, Φ⟩
/// chunk per thread plus one or more memory-subsystem chunks — and each
/// component is hash-consed into a per-slot intern table. A visited state
/// is then only a tuple of 32-bit component ids — and that tuple is
/// itself collapsed by LTSmin-style tree compression: adjacent ids are
/// interned pairwise, level by level, so a state is ultimately one entry
/// in the root table (a pair, or a triple when an odd leftover chunk
/// survives to the end). Successive states share subtrees, making the
/// inner tables sublinear; the asymptotic per-state cost drops from the
/// full key (often 100+ heap bytes) to one 8–12-byte root entry plus ~6
/// index bytes.
///
/// All hash tables here key near-sequential dense ids, so probing uses
/// the full-avalanche hashMix64 (support/Hashing.h) rather than a plain
/// combine — see the note there.
///
/// Memory subsystems opt into multi-chunk splitting by providing
///
///   unsigned numComponents() const;
///   template <typename Fn>
///   void serializeComponents(const State &S, std::string &Out, Fn Cut) const;
///
/// where the hook appends one chunk's bytes to \p Out and calls Cut() to
/// seal it, exactly numComponents() times; the framework interns the
/// sealed bytes and clears \p Out between chunks. Subsystems without the
/// hook default to a single chunk (their serialize() output), so every
/// subsystem works unchanged. Each chunk encoding must be injective for
/// that slot; the chunk decomposition then induces exactly the same state
/// equality as the full serialization.
///
/// Two implementations share the format: StateInterner here for the
/// sequential engine (dense tuple ids that double as state ids) and
/// LockFreeStateInterner (support/LockFreeVisited.h) for the
/// work-stealing engine.
///
/// The sequential tables keep their entries and indexes in PageArrays
/// (support/PageArray.h): from 2 MiB up each is its own mapping, grown
/// in place with mremap or, for an index, rebuilt into a fresh zeroed
/// block with huge pages, and unmapped when the interner dies. Growth
/// by copy would leave resident holes in the brk heap that raise the
/// peak RSS of every later verdict in the same process.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_SUPPORT_STATEINTERNER_H
#define ROCKER_SUPPORT_STATEINTERNER_H

#include "support/BinCodec.h"
#include "support/Hashing.h"
#include "support/PageArray.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rocker {

namespace detail {
/// Probe callable for the serializeComponents concept check below.
struct CutProbe {
  void operator()() const {}
};
} // namespace detail

/// True when \p MemSys provides the component-wise serialization hook.
template <typename MemSys>
concept HasSerializeComponents =
    requires(const MemSys &M, const typename MemSys::State &S,
             std::string &Out) {
      M.serializeComponents(S, Out, detail::CutProbe{});
    };

/// Number of memory chunks \p M contributes to a state tuple (1 for
/// subsystems without the hook).
template <typename MemSys> unsigned memComponentCount(const MemSys &M) {
  if constexpr (HasSerializeComponents<MemSys>)
    return M.numComponents();
  else
    return 1;
}

/// True when \p MemSys declares that its trailing chunks are per-thread
/// (chunk LeadCount + t belongs to thread t).
template <typename MemSys>
concept HasPerThreadTail = requires(const MemSys &M) {
  M.perThreadTailComponents();
};

/// Number of trailing per-thread chunks \p M declares (0 without the
/// hint — the layout optimization below is then skipped).
template <typename MemSys>
unsigned memPerThreadTailComponents(const MemSys &M) {
  if constexpr (HasPerThreadTail<MemSys>)
    return M.perThreadTailComponents();
  else
    return 0;
}

/// Emission-order → tuple-slot mapping shared by both engines. Components
/// are emitted threads-first (0..T-1), memory chunks second. When the
/// subsystem marks its trailing Tail == T chunks as per-thread, thread
/// t's ⟨pc, Φ⟩ chunk and its memory chunk are placed in adjacent slots
/// (2t, 2t + 1) and the leading global chunks go last: a step changes
/// exactly one thread's pair of components, so the tree compressor's
/// level-1 tables pair the two leaves that change together and the rest
/// of the tree is reused. Identity layout otherwise. The permutation is
/// fixed per exploration, so injectivity of the tuple is unaffected.
inline std::vector<uint32_t> buildSlotOrder(unsigned NumThreads,
                                            unsigned MemComponents,
                                            unsigned Tail) {
  std::vector<uint32_t> Order(NumThreads + MemComponents);
  if (Tail != NumThreads || MemComponents < Tail) {
    for (unsigned I = 0; I != Order.size(); ++I)
      Order[I] = I;
    return Order;
  }
  unsigned Lead = MemComponents - Tail;
  for (unsigned T = 0; T != NumThreads; ++T)
    Order[T] = 2 * T;
  for (unsigned J = 0; J != Lead; ++J)
    Order[NumThreads + J] = 2 * NumThreads + J;
  for (unsigned T = 0; T != Tail; ++T)
    Order[NumThreads + Lead + T] = 2 * T + 1;
  return Order;
}

/// Runs the component hook (or the single-chunk fallback): appends each
/// chunk's bytes to \p Out and calls \p Cut after each chunk.
template <typename MemSys, typename Fn>
void serializeMemComponents(const MemSys &M,
                            const typename MemSys::State &S,
                            std::string &Out, Fn Cut) {
  if constexpr (HasSerializeComponents<MemSys>) {
    M.serializeComponents(S, Out, Cut);
  } else {
    M.serialize(S, Out);
    Cut();
  }
}

/// Estimated heap bytes of one entry of an unordered container keyed by a
/// std::string: node header (next pointer + cached hash), one bucket
/// slot, the string object, its heap buffer when beyond the 15-byte SSO
/// capacity, and \p MappedBytes of mapped value. No set of full keys
/// exists any more; this only feeds VisitedRawBytes, the estimate of
/// what one would hold, from which the compression ratio is reported.
inline uint64_t stringNodeBytes(size_t KeyLen, size_t MappedBytes) {
  uint64_t B = 16 + 8 + sizeof(std::string) + MappedBytes;
  if (KeyLen > 15)
    B += KeyLen + 1;
  return B;
}

namespace detail {

/// Open-addressing index of the sequential tables: entry = id + 1,
/// 0 = empty. A rebuild takes a fresh zeroed block (huge pages from
/// HugeBlockBytes up) instead of a memset.
using IndexArray = PageArray<uint32_t, /*HugePages=*/true>;

/// Slots of the smallest index that keeps \p Num entries under the 0.7
/// load cap.
inline size_t indexSlotsFor(uint32_t Num) {
  size_t Cap = 64;
  while ((static_cast<uint64_t>(Num) + 1) * 10 >= Cap * 7)
    Cap *= 2;
  return Cap;
}

/// Dense byte-string interner backing the sequential component tables:
/// payloads live back-to-back in one flat arena (entry id -> start
/// offset; the next start delimits the length), deduplicated via an
/// open-addressing uint32 index (entry = id + 1; 0 = empty). Per new
/// entry this costs the payload bytes plus ~10 bookkeeping bytes,
/// instead of the ~60-byte node/bucket/string overhead of an
/// unordered_map<std::string, uint32_t> entry.
class ByteArena {
public:
  ByteArena() { Index.assignZeroed(64); }

  /// Interns \p Bytes; returns {dense id, was-new}.
  std::pair<uint32_t, bool> insert(std::string_view Bytes) {
    if ((Num + 1) * 10 >= Index.size() * 7) // Load factor cap 0.7.
      grow();
    uint64_t H = hashBytes(reinterpret_cast<const uint8_t *>(Bytes.data()),
                           Bytes.size());
    uint64_t Mask = Index.size() - 1;
    for (uint64_t Slot = H & Mask;; Slot = (Slot + 1) & Mask) {
      if (!Index[Slot]) {
        Index[Slot] = Num + 1;
        Starts.push_back(static_cast<uint32_t>(Data.size()));
        Data.append(Bytes.data(), Bytes.size());
        return {Num++, true};
      }
      uint32_t Id = Index[Slot] - 1;
      if (length(Id) == Bytes.size() &&
          std::equal(Bytes.begin(), Bytes.end(), Data.data() + Starts[Id]))
        return {Id, false};
    }
  }

  uint32_t size() const { return Num; }

  uint64_t bytes() const {
    return Data.size() + Starts.size() * sizeof(uint32_t) +
           Index.size() * sizeof(uint32_t);
  }

  /// Bytes of entry \p Id (view into the arena; valid until the next
  /// insert).
  std::string_view get(uint32_t Id) const {
    return std::string_view(Data.data() + Starts[Id], length(Id));
  }

  /// Checkpoint support: only the payload and start offsets are written;
  /// the open-addressing index is rebuilt on restore.
  void save(BinWriter &W) const {
    W.u32(Num);
    W.str(std::string_view(Data.data(), Data.size()));
    W.bytes(Starts.data(), Starts.size() * sizeof(uint32_t));
  }

  /// Rejects lengths and counts the payload cannot hold before sizing
  /// anything by them, and start offsets that are decreasing or past the
  /// arena: length() and hashing index by them.
  bool restore(BinReader &R) {
    Num = R.u32();
    uint64_t Len = R.varu64(); // The length prefix of save()'s W.str.
    if (R.fail() || Len > R.remaining())
      return false;
    Data.resize(Len);
    R.bytes(Data.data(), Len);
    if (R.fail() || Num > R.remaining() / sizeof(uint32_t))
      return false;
    Starts.resize(Num);
    R.bytes(Starts.data(), Starts.size() * sizeof(uint32_t));
    if (R.fail())
      return false;
    for (uint32_t Id = 0; Id != Num; ++Id)
      if (Starts[Id] > Data.size() || (Id && Starts[Id] < Starts[Id - 1]))
        return false;
    rebuildIndex(indexSlotsFor(Num));
    return true;
  }

private:
  size_t length(uint32_t Id) const {
    return (Id + 1 < Starts.size() ? Starts[Id + 1] : Data.size()) -
           Starts[Id];
  }

  void grow() { rebuildIndex(Index.size() * 2); }

  /// Re-places every entry in a fresh zeroed index of \p Cap slots.
  void rebuildIndex(size_t Cap) {
    Index.assignZeroed(Cap);
    uint64_t Mask = Cap - 1;
    for (uint32_t Id = 0; Id != Num; ++Id) {
      uint64_t Slot =
          hashBytes(reinterpret_cast<const uint8_t *>(Data.data()) +
                        Starts[Id],
                    length(Id)) &
          Mask;
      while (Index[Slot])
        Slot = (Slot + 1) & Mask;
      Index[Slot] = Id + 1;
    }
  }

  PageArray<char> Data;
  PageArray<uint32_t> Starts;
  IndexArray Index;
  uint32_t Num = 0;
};

/// Interns ⟨left, right⟩ id pairs — one tree node of the recursive
/// collapse below. 8 payload bytes per entry plus a uint32
/// open-addressing index (entry = id + 1; 0 = empty); ids are dense in
/// insertion order, so the root table's ids double as state ids.
class PairTable {
public:
  PairTable() { Index.assignZeroed(64); }

  std::pair<uint32_t, bool> insert(uint32_t A, uint32_t B) {
    if ((Num + 1) * 10 >= Index.size() * 7) // Load factor cap 0.7.
      grow();
    uint64_t P = (static_cast<uint64_t>(A) << 32) | B;
    uint64_t Mask = Index.size() - 1;
    for (uint64_t Slot = hashMix64(P) & Mask;; Slot = (Slot + 1) & Mask) {
      if (!Index[Slot]) {
        Index[Slot] = Num + 1;
        Pairs.push_back(P);
        return {Num++, true};
      }
      if (Pairs[Index[Slot] - 1] == P)
        return {Index[Slot] - 1, false};
    }
  }

  uint32_t size() const { return Num; }

  uint64_t bytes() const {
    return Pairs.size() * sizeof(uint64_t) +
           Index.size() * sizeof(uint32_t);
  }

  /// Packed ⟨left, right⟩ of entry \p Id (left in the high 32 bits).
  uint64_t pairAt(uint32_t Id) const { return Pairs[Id]; }

  /// True when every entry's left id is below \p A and right id below
  /// \p B (the sizes of the tables the ids index).
  bool idsBelow(uint32_t A, uint32_t B) const {
    return std::all_of(Pairs.begin(), Pairs.end(), [&](uint64_t P) {
      return (P >> 32) < A && static_cast<uint32_t>(P) < B;
    });
  }

  void save(BinWriter &W) const {
    W.u32(Num);
    W.bytes(Pairs.data(), Pairs.size() * sizeof(uint64_t));
  }

  bool restore(BinReader &R) {
    Num = R.u32();
    if (R.fail() || Num > R.remaining() / sizeof(uint64_t))
      return false;
    Pairs.resize(Num);
    R.bytes(Pairs.data(), Pairs.size() * sizeof(uint64_t));
    if (R.fail())
      return false;
    rebuildIndex(indexSlotsFor(Num));
    return true;
  }

private:
  void grow() { rebuildIndex(Index.size() * 2); }

  void rebuildIndex(size_t Cap) {
    Index.assignZeroed(Cap);
    uint64_t Mask = Cap - 1;
    for (uint32_t Id = 0; Id != Num; ++Id) {
      uint64_t Slot = hashMix64(Pairs[Id]) & Mask;
      while (Index[Slot])
        Slot = (Slot + 1) & Mask;
      Index[Slot] = Id + 1;
    }
  }

  PageArray<uint64_t> Pairs;
  IndexArray Index;
  uint32_t Num = 0;
};

/// Interns ⟨a, b, c⟩ id triples — the tree root whenever the pairwise
/// reduction bottoms out at three elements (two subtree ids plus the odd
/// passthrough chunk). Folding all three into one table matters: the
/// passthrough chunk is typically the near-constant global memory chunk,
/// so a pair root over ⟨join(a,b), c⟩ would duplicate the ⟨a, b⟩ table
/// entry-for-entry — an extra ~14 bytes per state for nothing.
class TripleTable {
public:
  TripleTable() { Index.assignZeroed(64); }

  std::pair<uint32_t, bool> insert(uint32_t A, uint32_t B, uint32_t C) {
    if ((Num + 1) * 10 >= Index.size() * 7) // Load factor cap 0.7.
      grow();
    uint64_t Mask = Index.size() - 1;
    for (uint64_t Slot = hash(A, B, C) & Mask;; Slot = (Slot + 1) & Mask) {
      if (!Index[Slot]) {
        Index[Slot] = Num + 1;
        Triples.push_back(A);
        Triples.push_back(B);
        Triples.push_back(C);
        return {Num++, true};
      }
      const uint32_t *T = Triples.data() + (Index[Slot] - 1) * 3u;
      if (T[0] == A && T[1] == B && T[2] == C)
        return {Index[Slot] - 1, false};
    }
  }

  uint32_t size() const { return Num; }

  uint64_t bytes() const {
    return Triples.size() * sizeof(uint32_t) +
           Index.size() * sizeof(uint32_t);
  }

  /// The three ids of entry \p Id.
  const uint32_t *tripleAt(uint32_t Id) const {
    return Triples.data() + Id * 3u;
  }

  /// As PairTable::idsBelow, per position of the triple.
  bool idsBelow(const uint32_t Bound[3]) const {
    for (size_t I = 0; I != Triples.size(); ++I)
      if (Triples[I] >= Bound[I % 3])
        return false;
    return true;
  }

  void save(BinWriter &W) const {
    W.u32(Num);
    W.bytes(Triples.data(), Triples.size() * sizeof(uint32_t));
  }

  bool restore(BinReader &R) {
    Num = R.u32();
    if (R.fail() || Num > R.remaining() / (3 * sizeof(uint32_t)))
      return false;
    Triples.resize(static_cast<size_t>(Num) * 3);
    R.bytes(Triples.data(), Triples.size() * sizeof(uint32_t));
    if (R.fail())
      return false;
    rebuildIndex(indexSlotsFor(Num));
    return true;
  }

private:
  static uint64_t hash(uint32_t A, uint32_t B, uint32_t C) {
    return hashMix64(hashMix64((static_cast<uint64_t>(A) << 32) | B) + C);
  }

  void grow() { rebuildIndex(Index.size() * 2); }

  void rebuildIndex(size_t Cap) {
    Index.assignZeroed(Cap);
    uint64_t Mask = Cap - 1;
    for (uint32_t Id = 0; Id != Num; ++Id) {
      const uint32_t *T = Triples.data() + Id * 3u;
      uint64_t Slot = hash(T[0], T[1], T[2]) & Mask;
      while (Index[Slot])
        Slot = (Slot + 1) & Mask;
      Index[Slot] = Id + 1;
    }
  }

  PageArray<uint32_t> Triples;
  IndexArray Index;
  uint32_t Num = 0;
};

/// LTSmin-style tree compression over component-id tuples: adjacent ids
/// are interned pairwise, level by level, until two or three elements
/// remain; those form the root entry — a pair, or a triple when an odd
/// leftover passed through to the end. The root entry is new exactly when
/// the state is new, and its dense id doubles as the state id. Successive
/// states share subtrees, so the inner tables grow sublinearly and the
/// asymptotic per-state cost is one root entry (8–12 payload bytes +
/// ~6 index bytes) — far below the 4·NumSlots bytes a flat tuple arena
/// must spend. Ids are uint32, capping the visited set at 2^32 - 1 states
/// (the engines' state budgets sit well below that).
class TreeArena {
public:
  explicit TreeArena(unsigned NumLeaves)
      : NumLeaves(NumLeaves), Scratch(NumLeaves) {
    unsigned Total = 0;
    unsigned N = NumLeaves;
    for (; N > 3; N = N / 2 + (N & 1))
      Total += N / 2;
    if (N == 3)
      Root3.emplace();
    else
      Total += 1; // Pair root (N == 2).
    Tables.resize(Total);
  }

  /// Inserts the NumLeaves-sized tuple; returns {dense id, was-new}.
  /// NumLeaves must be at least 2 (the engines always have at least one
  /// thread component and one memory component).
  std::pair<uint64_t, bool> insert(const uint32_t *Ids) {
    std::copy(Ids, Ids + NumLeaves, Scratch.begin());
    unsigned Table = 0;
    unsigned N = NumLeaves;
    while (N > 3) {
      unsigned Out = 0;
      for (unsigned I = 0; I + 1 < N; I += 2)
        Scratch[Out++] =
            Tables[Table++].insert(Scratch[I], Scratch[I + 1]).first;
      if (N & 1)
        Scratch[Out++] = Scratch[N - 1];
      N = Out;
    }
    // Root entry: its dense id doubles as the state id.
    if (N == 3) {
      auto [Id, New] = Root3->insert(Scratch[0], Scratch[1], Scratch[2]);
      return {Id, New};
    }
    auto [Id, New] = Tables[Table].insert(Scratch[0], Scratch[1]);
    return {Id, New};
  }

  uint64_t size() const {
    return Root3 ? Root3->size() : Tables.back().size();
  }

  uint64_t bytes() const {
    uint64_t B = 0;
    for (const PairTable &T : Tables)
      B += T.bytes();
    if (Root3)
      B += Root3->bytes();
    return B;
  }

  void save(BinWriter &W) const {
    for (const PairTable &T : Tables)
      T.save(W);
    if (Root3)
      Root3->save(W);
  }

  /// Restores into a TreeArena constructed with the same NumLeaves (the
  /// table layout is a pure function of it). \p Sizes holds each leaf
  /// slot's entry count: every stored id must name an entry of the slot
  /// or table below it, or forEachTuple would index past that table.
  bool restore(BinReader &R, std::vector<uint32_t> Sizes) {
    for (PairTable &T : Tables)
      if (!T.restore(R))
        return false;
    if (Root3 && !Root3->restore(R))
      return false;
    // Replay insert()'s reduction over table sizes instead of ids.
    unsigned Table = 0;
    while (Sizes.size() > 3) {
      std::vector<uint32_t> Next;
      for (size_t I = 0; I + 1 < Sizes.size(); I += 2) {
        const PairTable &T = Tables[Table++];
        if (!T.idsBelow(Sizes[I], Sizes[I + 1]))
          return false;
        Next.push_back(T.size());
      }
      if (Sizes.size() & 1)
        Next.push_back(Sizes.back());
      Sizes.swap(Next);
    }
    return Root3 ? Root3->idsBelow(Sizes.data())
                 : Tables[Table].idsBelow(Sizes[0], Sizes[1]);
  }

  /// Unwinds every stored root entry back into its NumLeaves-sized tuple
  /// of component ids, in dense state-id order, and calls \p F on each
  /// (F(const uint32_t *Tuple)). The reverse of insert(): walk the level
  /// structure top-down, expanding each pair id through the table that
  /// produced it and passing odd leftovers through.
  template <typename Fn> void forEachTuple(Fn F) const {
    std::vector<unsigned> Sizes; // Reducing-level sizes, leaves first.
    std::vector<unsigned> Bases; // First table index of each level.
    unsigned N = NumLeaves, Base = 0;
    while (N > 3) {
      Sizes.push_back(N);
      Bases.push_back(Base);
      Base += N / 2;
      N = N / 2 + (N & 1);
    }
    std::vector<uint32_t> Cur, Prev;
    uint64_t Count = size();
    for (uint64_t Root = 0; Root != Count; ++Root) {
      if (Root3) {
        const uint32_t *T = Root3->tripleAt(static_cast<uint32_t>(Root));
        Cur.assign(T, T + 3);
      } else {
        uint64_t P = Tables[Base].pairAt(static_cast<uint32_t>(Root));
        Cur.assign({static_cast<uint32_t>(P >> 32),
                    static_cast<uint32_t>(P)});
      }
      for (size_t L = Sizes.size(); L-- > 0;) {
        unsigned Ln = Sizes[L], TB = Bases[L], Pairs = Ln / 2;
        Prev.resize(Ln);
        for (unsigned J = 0; J != Pairs; ++J) {
          uint64_t P = Tables[TB + J].pairAt(Cur[J]);
          Prev[2 * J] = static_cast<uint32_t>(P >> 32);
          Prev[2 * J + 1] = static_cast<uint32_t>(P);
        }
        if (Ln & 1)
          Prev[Ln - 1] = Cur[Pairs];
        Cur.swap(Prev);
      }
      F(Cur.data());
    }
  }

private:
  unsigned NumLeaves;
  std::vector<PairTable> Tables;
  std::optional<TripleTable> Root3; ///< Set when the reduction ends at 3.
  std::vector<uint32_t> Scratch;
};

} // namespace detail

/// The sequential collapse-compressed visited set. Slots 0..N-1 are
/// per-thread components, the remaining slots are memory chunks; the
/// caller interns each component into its slot's ByteArena, then inserts
/// the id tuple into the tree-compressed TreeArena. New states get dense
/// ids in insertion order, which the sequential explorer relies on
/// (tree-root id == state id in its state store).
class StateInterner {
public:
  explicit StateInterner(unsigned NumSlots)
      : Slots(NumSlots), Tuples(NumSlots) {}

  StateInterner(const StateInterner &) = delete;
  StateInterner &operator=(const StateInterner &) = delete;

  unsigned numSlots() const { return static_cast<unsigned>(Slots.size()); }

  /// Hash-conses \p Bytes into slot \p Slot; returns its component id.
  uint32_t internComponent(unsigned Slot, std::string_view Bytes) {
    return Slots[Slot].insert(Bytes).first;
  }

  /// Inserts the tuple of numSlots() component ids. \p RawKeyEstimate is
  /// the caller's estimate of what a raw visited set would spend on this
  /// state (accumulated only for new states, for the compression-ratio
  /// statistic). Returns {dense state id, was-new}.
  std::pair<uint64_t, bool> insertTuple(const uint32_t *Ids,
                                        uint64_t RawKeyEstimate) {
    std::pair<uint64_t, bool> R = Tuples.insert(Ids);
    if (R.second)
      RawBytes += RawKeyEstimate;
    return R;
  }

  uint64_t size() const { return Tuples.size(); }

  /// Actual bytes held by the compressed set: component arenas plus the
  /// tree tables.
  uint64_t bytesUsed() const {
    uint64_t B = Tuples.bytes();
    for (const detail::ByteArena &S : Slots)
      B += S.bytes();
    return B;
  }

  /// Estimated bytes a raw (full-key) visited set would hold.
  uint64_t rawBytes() const { return RawBytes; }

  /// Checkpoint support: dumps arenas + tree tables natively (no
  /// re-serialization of states — expanded states keep no payloads to
  /// re-serialize, and a native dump is far smaller).
  void save(BinWriter &W) const {
    W.u64(RawBytes);
    for (const detail::ByteArena &S : Slots)
      S.save(W);
    Tuples.save(W);
  }

  /// Restores into an interner constructed with the same slot count.
  /// Dense state ids are preserved exactly (the sequential engine's state
  /// store indexes by them).
  bool restore(BinReader &R) {
    RawBytes = R.u64();
    for (detail::ByteArena &S : Slots)
      if (!S.restore(R))
        return false;
    std::vector<uint32_t> Sizes;
    for (const detail::ByteArena &S : Slots)
      Sizes.push_back(S.size());
    return Tuples.restore(R, std::move(Sizes));
  }

  /// Reassembles every stored state's raw serialized key — components
  /// concatenated in emission order, with \p EmissionToSlot the
  /// buildSlotOrder() mapping from emission index to tuple slot — and
  /// calls \p F(const std::string &Key) in dense state-id order. Used to
  /// seed the bitstate array when the governor downgrades storage.
  template <typename Fn>
  void forEachRawKey(const std::vector<uint32_t> &EmissionToSlot,
                     Fn F) const {
    std::string Key;
    Tuples.forEachTuple([&](const uint32_t *Ids) {
      Key.clear();
      for (uint32_t Slot : EmissionToSlot) {
        std::string_view B = Slots[Slot].get(Ids[Slot]);
        Key.append(B.data(), B.size());
      }
      F(Key);
    });
  }

private:
  std::vector<detail::ByteArena> Slots;
  detail::TreeArena Tuples;
  uint64_t RawBytes = 0;
};

} // namespace rocker

#endif // ROCKER_SUPPORT_STATEINTERNER_H
