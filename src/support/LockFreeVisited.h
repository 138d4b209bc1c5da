//===- support/LockFreeVisited.h - Lock-free visited tier ------*- C++ -*-===//
///
/// \file
/// The lock-free visited-set tier for the work-stealing engine — the
/// LTSmin multi-core storage design (treedbs-ll.c / dbs-ll.c) adapted to
/// the collapse-compressed component format of support/StateInterner.h,
/// with one departure: ids are dense counters, not slot indices, so each
/// table can grow on its own without renumbering anything.
///
///  * lf::IdArray — id -> 64-bit word. Ids come from an atomic counter;
///    the words live in fixed-size segments that are installed by CAS and
///    never move, so an id handed out once stays readable.
///  * lf::PairTable — interned packed (left, right) 32-bit id pairs (the
///    tree nodes). A slot word is a 32-bit hash tag over id + 1; the pair
///    itself sits in the table's IdArray.
///  * lf::PairSet — the root table: a set of packed pairs whose slot word
///    is payload + 1 (no one needs a root id).
///  * lf::StringTable — interned byte strings (the per-slot component
///    tables). A slot word points at an immutable arena record holding
///    the memoized hash, the id and the bytes; the IdArray maps the id
///    back to the record.
///  * LockFreeStateInterner — per-slot StringTables feeding one shared
///    node PairTable (LTSmin tree compression: adjacent ids are interned
///    pairwise, level by level) and the root PairSet.
///
/// Every table probes linearly from the top bits of a hash of its own
/// payload (hashMix64 of a pair, the memoized hash of a record), so it
/// can tell where any of its words belongs without outside help. Empty
/// slots are claimed with one compare_exchange_strong; there are no
/// locks on the probe path.
///
/// Publication order (see also ALGORITHM.md §17). A thread that finds an
/// empty slot first claims an id (fetch_add), writes the record or the
/// pair and its IdArray entry (installing the segment if it is missing),
/// and only then CASes the slot word from 0. That CAS releases and every
/// probe loads slot words with acquire, so everything the word names
/// happens-before any reader that sees it. A thread that loses the CAS
/// takes the winner's word from the failure load (also acquire) and
/// compares it as usual. If the payloads differ it keeps its claimed id
/// for the next empty slot; if they match its id becomes a *hole*: an id
/// with a payload but no slot. Holes are unreachable, so everything that
/// enumerates a table (save, forEachRawKey, growth, accounting) walks
/// slots, never ids.
///
/// Memory. Slot arrays, id segments and the segment directory come from
/// zeroedAlloc (support/PageArray.h), the page allocator the sequential
/// tier shares: zeroed lazily, mapped from 2 MiB up, and with huge pages
/// requested for slot arrays, which probing touches everywhere.
///
/// Growth. Tables start small (2^18 roots by default — an oversized
/// sparse table turns every probe into a TLB/page miss) and ask to grow
/// past 1/2 load (wantsGrowth). The engine's management thread pauses
/// the world and doubles each such table by re-placing its slot words
/// in an array twice the size (grow). Homes are top hash bits, so home h
/// moves to 2h or 2h + 1 and the new array fills nearly in order. Ids
/// and payloads stay where they are, so no state is re-interned and the
/// workers' cached ids survive.
/// When a table nevertheless fills up (load factor 7/8 — the 2^30
/// ceiling, or a fill rate that outruns the management poll) a sticky
/// full() flag latches and inserts fail; the engine then marks the run
/// Bounded exactly like a MaxStates cut, so a full table can demote a
/// verdict to BoundedRobust but can never mis-deduplicate.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_SUPPORT_LOCKFREEVISITED_H
#define ROCKER_SUPPORT_LOCKFREEVISITED_H

#include "support/BinCodec.h"
#include "support/Hashing.h"
#include "support/PageArray.h"
#include "support/StateInterner.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rocker {

/// The parallel engine's visited-set implementation. It has one value:
/// the enum, visitedImplName and the Visited fields of RockerOptions and
/// ParExploreOptions remain only until the next benchmark revision merges
/// the options structs.
enum class VisitedImpl : uint8_t {
  LockFree, ///< This file: CAS-claimed open-address tables.
};

inline const char *visitedImplName(VisitedImpl) { return "lockfree"; }

/// Hard ceiling for any one table's growth: 2^30 slots (8 GiB of slot
/// words; the engine truncates to Bounded beyond it instead of OOMing).
inline constexpr unsigned MaxLockFreeRootLog2 = 30;

/// Initial root-table size policy: 2^k slots. An explicit CLI/API
/// request wins (clamped to a sane range); otherwise start small — the
/// management thread grows the tables as they fill, and an oversized
/// sparse table costs real time (every probe of a mostly-empty
/// multi-GiB array is a TLB/page miss), not just address space.
inline unsigned lockFreeRootLog2(unsigned Requested, uint64_t MaxStates) {
  if (Requested)
    return std::clamp(Requested, 16u, MaxLockFreeRootLog2);
  // A tight state budget can never need more than ~2x its states.
  if (MaxStates && MaxStates < (uint64_t{1} << 17))
    return 17;
  return 18;
}

namespace lf {

/// Per-call probe telemetry, accumulated by the caller (a worker) and
/// flushed to the visited.cas_retries / visited.probe_steps counters.
struct ProbeStats {
  uint64_t CasRetries = 0;
  uint64_t ProbeSteps = 0;
};

/// Array of 2^Log2 atomically-accessed 64-bit words (zeroedAlloc).
/// Swappable, so a table can trade its array for a doubled one.
class WordArray {
public:
  explicit WordArray(unsigned Log2)
      : Words(static_cast<uint64_t *>(
            zeroedAlloc(sizeof(uint64_t) << Log2, /*HugePages=*/true))),
        Log2(Log2) {
    static_assert(std::atomic_ref<uint64_t>::is_always_lock_free);
  }
  ~WordArray() { zeroedFree(Words, bytes()); }
  WordArray(const WordArray &) = delete;
  WordArray &operator=(const WordArray &) = delete;
  void swap(WordArray &O) noexcept {
    std::swap(Words, O.Words);
    std::swap(Log2, O.Log2);
  }

  size_t capacity() const { return size_t{1} << Log2; }
  unsigned log2() const { return Log2; }
  uint64_t bytes() const { return uint64_t{sizeof(uint64_t)} << Log2; }
  std::atomic_ref<uint64_t> at(size_t I) const {
    return std::atomic_ref<uint64_t>(Words[I]);
  }

private:
  uint64_t *Words;
  unsigned Log2;
};

/// Dense id -> 64-bit word map. Ids come from an atomic counter; words
/// live in fixed-size segments that are installed by CAS into a
/// directory and freed only with the array, so a reader never sees a
/// word move. The directory is sized for MaxIds up front (zeroedAlloc
/// keeps the unused part unmapped).
class IdArray {
public:
  static constexpr uint32_t InvalidId = 0xffffffffu;
  /// Id space per table: above the 7/8-load cap of a 2^30-slot table,
  /// with room to spare for holes.
  static constexpr uint64_t MaxIds = uint64_t{1} << 30;
  static constexpr unsigned SegLog2 = 14; ///< 2^14 words = 128 KiB.
  static constexpr size_t SegWords = size_t{1} << SegLog2;
  static constexpr size_t SegBytes = SegWords * sizeof(uint64_t);

  IdArray()
      : Dir(static_cast<uint64_t **>(
            zeroedAlloc(NumSegs * sizeof(uint64_t *), /*HugePages=*/false))) {
    static_assert(std::atomic_ref<uint64_t *>::is_always_lock_free);
  }
  ~IdArray() {
    uint64_t Claimed = std::min(Next.load(std::memory_order_relaxed), MaxIds);
    for (size_t S = 0; S != (Claimed + SegWords - 1) >> SegLog2; ++S)
      if (Dir[S])
        zeroedFree(Dir[S], SegBytes);
    zeroedFree(Dir, NumSegs * sizeof(uint64_t *));
  }
  IdArray(const IdArray &) = delete;
  IdArray &operator=(const IdArray &) = delete;

  /// A fresh id, or InvalidId once the id space is exhausted.
  uint32_t claim() {
    uint64_t Id = Next.fetch_add(1, std::memory_order_relaxed);
    return Id < MaxIds ? static_cast<uint32_t>(Id) : InvalidId;
  }

  /// Stores \p W under \p Id (claimed by the caller, or restored while
  /// quiesced). Publication is the caller's release CAS of a slot word.
  void set(uint32_t Id, uint64_t W) {
    segment(Id >> SegLog2)[Id & (SegWords - 1)] = W;
  }

  /// The word under \p Id. \p Id must have come from an acquired slot
  /// word (or a quiesced table), which orders the set() before this.
  uint64_t get(uint32_t Id) const {
    return std::atomic_ref<uint64_t *>(Dir[Id >> SegLog2])
        .load(std::memory_order_acquire)[Id & (SegWords - 1)];
  }

  /// Restore: later claims start past \p Id.
  void noteRestored(uint32_t Id) {
    if (Next.load(std::memory_order_relaxed) <= Id)
      Next.store(uint64_t{Id} + 1, std::memory_order_relaxed);
  }

  /// Bytes of installed segments.
  uint64_t bytes() const {
    return Segments.load(std::memory_order_relaxed) * SegBytes;
  }

private:
  static constexpr size_t NumSegs = MaxIds >> SegLog2;

  uint64_t *segment(size_t S) {
    std::atomic_ref<uint64_t *> Entry(Dir[S]);
    uint64_t *Seg = Entry.load(std::memory_order_acquire);
    if (Seg)
      return Seg;
    auto *Fresh =
        static_cast<uint64_t *>(zeroedAlloc(SegBytes, /*HugePages=*/false));
    if (Entry.compare_exchange_strong(Seg, Fresh, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      Segments.fetch_add(1, std::memory_order_relaxed);
      return Fresh;
    }
    zeroedFree(Fresh, SegBytes); // Lost the install race; Seg won.
    return Seg;
  }

  uint64_t **Dir;
  std::atomic<uint64_t> Next{0};
  std::atomic<uint64_t> Segments{0};
};

/// Lock-free bump allocator for StringTable records. Blocks are chained
/// so destruction frees the arena without scanning the (large, sparse)
/// slot array; records themselves are never freed individually.
class RecordArena {
public:
  RecordArena() = default;
  ~RecordArena() {
    Block *B = Head.load(std::memory_order_acquire);
    while (B) {
      Block *Next = B->Next;
      ::operator delete(B);
      B = Next;
    }
  }
  RecordArena(const RecordArena &) = delete;
  RecordArena &operator=(const RecordArena &) = delete;

  /// 8-byte-aligned, exclusively-owned range of \p N bytes. Exclusivity
  /// comes from the fetch_add on the block cursor; publication ordering
  /// is the caller's CAS (see file comment).
  void *alloc(size_t N) {
    N = (N + 7) & ~size_t{7};
    for (;;) {
      Block *B = Head.load(std::memory_order_acquire);
      if (B) {
        size_t Off = B->Used.fetch_add(N, std::memory_order_relaxed);
        if (Off + N <= B->Cap)
          return B->data() + Off;
        // Block exhausted (the overshoot above leaves a dead hole, which
        // is fine — Used is never read back for accounting).
      }
      size_t Cap = std::max(N, size_t{BlockBytes});
      auto *NB = static_cast<Block *>(::operator new(sizeof(Block) + Cap));
      NB->Next = B;
      new (&NB->Used) std::atomic<size_t>(N);
      NB->Cap = Cap;
      if (Head.compare_exchange_strong(B, NB, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        Allocated.fetch_add(sizeof(Block) + Cap, std::memory_order_relaxed);
        return NB->data();
      }
      ::operator delete(NB); // Lost the install race; retry.
    }
  }

  /// Bytes of installed blocks.
  uint64_t bytes() const { return Allocated.load(std::memory_order_relaxed); }

private:
  static constexpr size_t BlockBytes = 1 << 18;
  struct Block {
    Block *Next;
    std::atomic<size_t> Used;
    size_t Cap;
    char *data() { return reinterpret_cast<char *>(this + 1); }
  };
  std::atomic<Block *> Head{nullptr};
  std::atomic<uint64_t> Allocated{0};
};

/// What the three tables share: the slot array, load accounting, the
/// sticky full flag, and growth by re-placing slot words.
class SlotTable {
public:
  uint64_t used() const { return Used.load(std::memory_order_relaxed); }
  bool full() const { return Full.load(std::memory_order_relaxed); }
  unsigned log2() const { return Slots.log2(); }
  uint64_t slotBytes() const { return Slots.bytes(); }

  /// True past 1/2 load below the 2^30 ceiling — the engine's growth
  /// trigger, comfortably ahead of the 7/8 cap where full() would latch.
  bool wantsGrowth() const {
    return used() * 2 >= Slots.capacity() && log2() < MaxLockFreeRootLog2;
  }

protected:
  explicit SlotTable(unsigned Log2) : Slots(Log2) {}

  bool overFull() const {
    size_t Cap = Slots.capacity();
    return used() >= Cap - Cap / 8;
  }

  /// First probe slot for \p Hash: its top log2() bits.
  size_t home(uint64_t Hash) const { return Hash >> (64 - log2()); }

  /// Calls \p F(word) for every occupied slot. Requires quiesced writers.
  template <typename Fn> void forEachWord(Fn F) const {
    for (size_t I = 0; I != Slots.capacity(); ++I)
      if (uint64_t W = Slots.at(I).load(std::memory_order_acquire))
        F(W);
  }

  /// Puts \p W at the first empty slot from \p Hash. Only for a table
  /// no one probes (growth, restore), which always has an empty slot.
  void place(uint64_t W, uint64_t Hash) {
    size_t Mask = Slots.capacity() - 1;
    size_t Slot = home(Hash);
    while (Slots.at(Slot).load(std::memory_order_relaxed))
      Slot = (Slot + 1) & Mask;
    Slots.at(Slot).store(W, std::memory_order_relaxed);
  }

  /// Doubles the slot array while wantsGrowth(), re-placing every word
  /// by \p HashOf(word); returns the number of doublings. Requires
  /// quiesced writers.
  template <typename HashOfWord> unsigned growBy(HashOfWord HashOf) {
    unsigned N = 0;
    for (; wantsGrowth(); ++N) {
      WordArray Old(log2() + 1);
      Slots.swap(Old);
      for (size_t I = 0; I != Old.capacity(); ++I)
        if (uint64_t W = Old.at(I).load(std::memory_order_relaxed))
          place(W, HashOf(W));
    }
    return N;
  }

  /// Restore into an empty table: reads the entry count and widens the
  /// slot array until it sits below 1/2 load, as growth would have left
  /// it. Fails on a count the rest of the payload (at least \p
  /// MinEntryBytes per entry) or the 2^30 ceiling cannot hold.
  bool beginRestore(BinReader &R, size_t MinEntryBytes, uint64_t &N) {
    N = R.u64();
    if (R.fail() || used() != 0 || N > R.remaining() / MinEntryBytes)
      return false;
    unsigned L = log2();
    while (N * 2 >= (uint64_t{1} << L) && L < MaxLockFreeRootLog2)
      ++L;
    if (N >= (uint64_t{1} << L) - (uint64_t{1} << L) / 8)
      return false;
    if (L != log2()) {
      WordArray Wider(L);
      Slots.swap(Wider);
    }
    Used.store(N, std::memory_order_relaxed);
    return true;
  }

  WordArray Slots;
  std::atomic<uint64_t> Used{0};
  std::atomic<bool> Full{false};
};

/// Lock-free table of interned 64-bit pair payloads with dense ids
/// (LTSmin treedbs-ll, minus slot-index ids). Slot word: the high 32
/// bits of the payload's hash over id + 1, so 0 means empty, most
/// mismatches are settled without touching the IdArray, and growth
/// finds the home (top hash bits) in the word itself.
class PairTable : public SlotTable {
public:
  static constexpr uint32_t InvalidId = IdArray::InvalidId;

  explicit PairTable(unsigned Log2) : SlotTable(Log2) {}

  /// Interns \p Payload. Returns its id (setting \p WasNew iff this call
  /// stored it) or InvalidId when the table is full — full() then
  /// latches sticky.
  uint32_t intern(uint64_t Payload, ProbeStats &St, bool &WasNew) {
    WasNew = false;
    uint64_t H = hashMix64(Payload);
    uint64_t Tag = H & TagMask;
    size_t Mask = Slots.capacity() - 1;
    size_t Slot = home(H);
    uint32_t Mine = InvalidId; // Claimed on the first empty slot.
    for (size_t I = 0; I != Slots.capacity();
         ++I, Slot = (Slot + 1) & Mask) {
      ++St.ProbeSteps;
      uint64_t Cur = Slots.at(Slot).load(std::memory_order_acquire);
      if (Cur == 0) {
        if (overFull())
          break;
        if (Mine == InvalidId) {
          if ((Mine = Ids.claim()) == InvalidId)
            break;
          Ids.set(Mine, Payload);
        }
        uint64_t Expected = 0;
        if (Slots.at(Slot).compare_exchange_strong(
                Expected, Tag | (uint64_t{Mine} + 1),
                std::memory_order_acq_rel, std::memory_order_acquire)) {
          Used.fetch_add(1, std::memory_order_relaxed);
          WasNew = true;
          return Mine;
        }
        ++St.CasRetries;
        Cur = Expected; // The winner's word, from the failure load.
      }
      if ((Cur & TagMask) == Tag && Ids.get(idOf(Cur)) == Payload)
        return idOf(Cur); // Mine, if claimed, is a hole.
    }
    Full.store(true, std::memory_order_relaxed);
    return InvalidId;
  }

  /// Payload of \p Id, which must have come from intern().
  uint64_t get(uint32_t Id) const { return Ids.get(Id); }

  uint64_t idBytes() const { return Ids.bytes(); }

  /// Doubles the slot array until below 1/2 load (or at the ceiling);
  /// returns the number of doublings. Requires quiesced writers.
  unsigned grow() {
    return growBy([](uint64_t W) { return W & TagMask; });
  }

  /// Checkpoint dump/restore as (id, payload) entries, in slot order.
  /// Requires quiesced writers; restore requires an empty table.
  void save(BinWriter &W) const {
    W.u64(used());
    forEachWord([&](uint64_t Word) {
      W.u32(idOf(Word));
      W.u64(Ids.get(idOf(Word)));
    });
  }

  bool restore(BinReader &R) {
    uint64_t N = 0;
    if (!beginRestore(R, 12, N))
      return false;
    for (uint64_t I = 0; I != N; ++I) {
      uint32_t Id = R.u32();
      uint64_t Payload = R.u64();
      if (R.fail() || Id >= IdArray::MaxIds)
        return false;
      Ids.set(Id, Payload);
      Ids.noteRestored(Id);
      uint64_t H = hashMix64(Payload);
      place((H & TagMask) | (uint64_t{Id} + 1), H);
    }
    return true;
  }

private:
  static constexpr uint64_t TagMask = ~uint64_t{0} << 32;
  static uint32_t idOf(uint64_t Word) {
    return static_cast<uint32_t>(Word) - 1;
  }

  IdArray Ids;
};

/// Lock-free set of 64-bit pair payloads: the root table. The slot word
/// is payload + 1 (payloads are never ~0), probed by hashMix64 of the
/// payload; no ids, since nothing refers to a root.
class PairSet : public SlotTable {
public:
  explicit PairSet(unsigned Log2) : SlotTable(Log2) {}

  /// Inserts \p Payload, setting \p WasNew iff this call stored it.
  /// Returns false when the table is full — full() then latches sticky.
  bool insert(uint64_t Payload, ProbeStats &St, bool &WasNew) {
    WasNew = false;
    uint64_t Stored = Payload + 1;
    size_t Mask = Slots.capacity() - 1;
    size_t Slot = home(hashMix64(Payload));
    for (size_t I = 0; I != Slots.capacity();
         ++I, Slot = (Slot + 1) & Mask) {
      ++St.ProbeSteps;
      uint64_t Cur = Slots.at(Slot).load(std::memory_order_acquire);
      if (Cur == 0) {
        if (overFull())
          break;
        uint64_t Expected = 0;
        if (Slots.at(Slot).compare_exchange_strong(
                Expected, Stored, std::memory_order_acq_rel,
                std::memory_order_acquire)) {
          Used.fetch_add(1, std::memory_order_relaxed);
          WasNew = true;
          return true;
        }
        ++St.CasRetries;
        Cur = Expected;
      }
      if (Cur == Stored)
        return true;
    }
    Full.store(true, std::memory_order_relaxed);
    return false;
  }

  /// Calls \p F(payload) per stored payload. Requires quiesced writers.
  template <typename Fn> void forEach(Fn F) const {
    forEachWord([&](uint64_t W) { F(W - 1); });
  }

  unsigned grow() {
    return growBy([](uint64_t W) { return hashMix64(W - 1); });
  }

  void save(BinWriter &W) const {
    W.u64(used());
    forEach([&](uint64_t Payload) { W.u64(Payload); });
  }

  bool restore(BinReader &R) {
    uint64_t N = 0;
    if (!beginRestore(R, 8, N))
      return false;
    for (uint64_t I = 0; I != N; ++I) {
      uint64_t Payload = R.u64();
      if (R.fail() || Payload == ~uint64_t{0})
        return false;
      place(Payload + 1, hashMix64(Payload));
    }
    return true;
  }
};

/// Lock-free byte-string interner with dense ids (LTSmin dbs-ll). A slot
/// word holds the pointer to an immutable arena record whose memoized
/// hash makes the common compare one 64-bit check and lets growth
/// re-place the word without rehashing the bytes.
class StringTable : public SlotTable {
public:
  static constexpr uint32_t InvalidId = IdArray::InvalidId;

  explicit StringTable(unsigned Log2) : SlotTable(Log2) {}

  uint32_t intern(std::string_view Bytes, ProbeStats &St, bool &WasNew) {
    WasNew = false;
    uint64_t H = hashOf(Bytes);
    size_t Mask = Slots.capacity() - 1;
    const Record *Fresh = nullptr; // Made (and its id claimed) once.
    size_t Slot = home(H);
    for (size_t I = 0; I != Slots.capacity();
         ++I, Slot = (Slot + 1) & Mask) {
      ++St.ProbeSteps;
      uint64_t Word = Slots.at(Slot).load(std::memory_order_acquire);
      if (Word == 0) {
        if (overFull())
          break;
        if (!Fresh) {
          uint32_t Id = Ids.claim();
          if (Id == InvalidId)
            break;
          Fresh = makeRecord(H, Bytes, Id);
        }
        uint64_t Expected = 0;
        if (Slots.at(Slot).compare_exchange_strong(
                Expected, reinterpret_cast<uintptr_t>(Fresh),
                std::memory_order_acq_rel, std::memory_order_acquire)) {
          Used.fetch_add(1, std::memory_order_relaxed);
          RecordBytes.fetch_add(sizeof(Record) + Fresh->Len,
                                std::memory_order_relaxed);
          WasNew = true;
          return Fresh->Id;
        }
        ++St.CasRetries;
        Word = Expected; // Winner's pointer (failure load is acquire).
      }
      const Record *R = record(Word);
      if (R->Hash == H && R->Len == Bytes.size() &&
          std::memcmp(R->data(), Bytes.data(), Bytes.size()) == 0)
        return R->Id; // Fresh, if made, stays behind as a hole.
    }
    Full.store(true, std::memory_order_relaxed);
    return InvalidId;
  }

  /// Bytes of \p Id, which must have come from intern(). The view stays
  /// valid for the table's lifetime (records are immutable and
  /// arena-owned).
  std::string_view get(uint32_t Id) const {
    const Record *R = record(Ids.get(Id));
    return {R->data(), R->Len};
  }

  /// Slot-word bytes of occupied slots plus record bytes: the stored
  /// content, as run reports state it.
  uint64_t bytesUsed() const {
    return used() * sizeof(uint64_t) +
           RecordBytes.load(std::memory_order_relaxed);
  }

  /// What the table holds on the heap: the whole slot array (hashing
  /// touches every page of it), id segments, and arena blocks.
  uint64_t residentBytes() const {
    return slotBytes() + Ids.bytes() + Arena.bytes();
  }

  unsigned grow() {
    return growBy([](uint64_t W) { return record(W)->Hash; });
  }

  /// Checkpoint dump/restore as (id, bytes) entries, in slot order.
  /// Requires quiesced writers; restore requires an empty table.
  void save(BinWriter &W) const {
    W.u64(used());
    forEachWord([&](uint64_t Word) {
      const Record *R = record(Word);
      W.u32(R->Id);
      W.varu64(R->Len);
      W.bytes(R->data(), R->Len);
    });
  }

  bool restore(BinReader &R) {
    uint64_t N = 0;
    if (!beginRestore(R, 5, N))
      return false;
    std::string Bytes;
    for (uint64_t I = 0; I != N; ++I) {
      uint32_t Id = R.u32();
      uint64_t Len = R.varu64();
      if (R.fail() || Id >= IdArray::MaxIds || Len > R.remaining())
        return false;
      Bytes.resize(Len);
      R.bytes(Bytes.data(), Len);
      uint64_t H = hashOf(Bytes);
      const Record *Rec = makeRecord(H, Bytes, Id);
      Ids.noteRestored(Id);
      place(reinterpret_cast<uintptr_t>(Rec), H);
      RecordBytes.fetch_add(sizeof(Record) + Rec->Len,
                            std::memory_order_relaxed);
    }
    return !R.fail();
  }

private:
  struct Record {
    uint64_t Hash;
    uint32_t Id;
    uint32_t Len;
    const char *data() const {
      return reinterpret_cast<const char *>(this) + sizeof(Record);
    }
  };

  /// FNV-1a's top bits barely see the last bytes, so mix before homing.
  static uint64_t hashOf(std::string_view Bytes) {
    return hashMix64(hashBytes(
        reinterpret_cast<const uint8_t *>(Bytes.data()), Bytes.size()));
  }

  static const Record *record(uint64_t Word) {
    return reinterpret_cast<const Record *>(static_cast<uintptr_t>(Word));
  }

  /// Writes the record for \p Id and its IdArray entry — both before the
  /// caller's publishing CAS.
  const Record *makeRecord(uint64_t H, std::string_view Bytes, uint32_t Id) {
    auto *R = static_cast<Record *>(Arena.alloc(sizeof(Record) + Bytes.size()));
    R->Hash = H;
    R->Id = Id;
    R->Len = static_cast<uint32_t>(Bytes.size());
    std::memcpy(reinterpret_cast<char *>(R) + sizeof(Record), Bytes.data(),
                Bytes.size());
    Ids.set(Id, reinterpret_cast<uintptr_t>(R));
    return R;
  }

  IdArray Ids;
  RecordArena Arena;
  std::atomic<uint64_t> RecordBytes{0};
};

inline uint64_t packPair(uint32_t L, uint32_t R) {
  return (uint64_t{L} << 32) | R;
}

} // namespace lf

/// Lock-free collapse-compressed visited set: the concurrent sibling of
/// StateInterner, same component format (so the parallel and sequential
/// engines induce the same state equality), different storage. Components
/// are interned per slot in StringTables; the id tuple is then collapsed
/// by tree compression — adjacent ids interned pairwise in one shared
/// node PairTable, level by level, until at most two ids remain — and
/// the final root pair is inserted into the root PairSet.
///
/// Injectivity: a node id determines its (left, right) payload (one
/// IdArray read), the reduction shape is a pure function of numSlots(),
/// and component ids determine their bytes — so unwinding the root pair
/// deterministically yields the component tuple, and root-pair equality
/// is exactly tuple equality, i.e. state equality.
class LockFreeStateInterner {
public:
  static constexpr uint32_t InvalidId = lf::StringTable::InvalidId;
  /// Right id of the root pair when only one id survives reduction
  /// (single-slot tuples). Distinguishable from real ids, which stay
  /// below IdArray::MaxIds.
  static constexpr uint32_t OddSentinel = 0xffffffffu;

  /// \p RootLog2 sizes the root table (see lockFreeRootLog2); the node
  /// and component tables start at sizes derived from it and then grow
  /// independently.
  LockFreeStateInterner(unsigned NumSlots, unsigned RootLog2)
      : Roots(std::clamp(RootLog2, 16u, MaxLockFreeRootLog2)),
        Nodes(std::clamp(RootLog2, 16u, 27u) + 1) {
    unsigned CompLog2 = std::clamp(RootLog2, 16u, 28u) - 2;
    Comps.reserve(NumSlots);
    for (unsigned I = 0; I != NumSlots; ++I) // Tables hold atomics and are
      Comps.push_back(std::make_unique<lf::StringTable>(CompLog2)); // immovable.
  }

  unsigned numSlots() const { return static_cast<unsigned>(Comps.size()); }

  /// True when some table below the ceiling passed 1/2 load: time for
  /// the engine to pause and grow() before full() can latch.
  bool wantsGrowth() const {
    if (Roots.wantsGrowth() || Nodes.wantsGrowth())
      return true;
    for (const auto &T : Comps)
      if (T->wantsGrowth())
        return true;
    return false;
  }

  /// Doubles each table past 1/2 load until it is below it (or at the
  /// ceiling); returns the number of doublings. Ids do not change, so
  /// callers keep every id they hold. Requires quiesced writers.
  unsigned grow() {
    unsigned N = Roots.grow() + Nodes.grow();
    for (auto &T : Comps)
      N += T->grow();
    return N;
  }

  /// Interns one component's bytes into its slot table; InvalidId on a
  /// full table (full() latches).
  uint32_t internComponent(unsigned Slot, std::string_view Bytes,
                           lf::ProbeStats &St) {
    bool WasNew = false;
    return Comps[Slot]->intern(Bytes, St, WasNew);
  }

  /// Collapses the id tuple and inserts the root pair. Returns true iff
  /// the state was new; on a full node/root table returns false with
  /// full() latched. \p Scratch is caller-provided working space (no
  /// allocation on the hot path; the engine passes a per-worker buffer).
  bool insertTuple(const uint32_t *Ids, uint64_t RawKeyEstimate,
                   lf::ProbeStats &St, std::vector<uint32_t> &Scratch) {
    unsigned Len = numSlots();
    Scratch.assign(Ids, Ids + Len);
    while (Len > 2) {
      unsigned Out = 0;
      for (unsigned I = 0; I + 1 < Len; I += 2) {
        bool WasNew = false;
        uint32_t Id = Nodes.intern(lf::packPair(Scratch[I], Scratch[I + 1]),
                                   St, WasNew);
        if (Id == lf::PairTable::InvalidId)
          return false;
        Scratch[Out++] = Id;
      }
      if (Len & 1)
        Scratch[Out++] = Scratch[Len - 1];
      Len = Out;
    }
    uint64_t RootP = Len == 2 ? lf::packPair(Scratch[0], Scratch[1])
                              : lf::packPair(Scratch[0], OddSentinel);
    bool WasNew = false;
    if (!Roots.insert(RootP, St, WasNew))
      return false;
    if (WasNew)
      RawBytes.fetch_add(RawKeyEstimate, std::memory_order_relaxed);
    return WasNew;
  }

  /// Sticky: some table hit its load-factor cap and an insert failed.
  bool full() const {
    if (Roots.full() || Nodes.full())
      return true;
    for (const auto &T : Comps)
      if (T->full())
        return true;
    return false;
  }

  uint64_t size() const { return Roots.used(); }

  /// Occupied-slot + record bytes: the stored content, as run reports
  /// state it (VisitedBytes).
  uint64_t bytesUsed() const {
    uint64_t B = (Roots.used() + Nodes.used()) * sizeof(uint64_t);
    for (const auto &T : Comps)
      B += T->bytesUsed();
    return B;
  }

  /// Heap the tables hold — slot arrays at full capacity, id segments,
  /// arena blocks. The memory governor charges this, not bytesUsed().
  uint64_t residentBytes() const {
    uint64_t B = Roots.slotBytes() + Nodes.slotBytes() + Nodes.idBytes();
    for (const auto &T : Comps)
      B += T->residentBytes();
    return B;
  }

  uint64_t rawBytes() const {
    return RawBytes.load(std::memory_order_relaxed);
  }

  /// Checkpoint dump/restore. Entries carry their ids, so a restore
  /// sizes each table from its entry count alone. Requires quiesced
  /// writers; restore requires a fresh interner with the same slot count
  /// (any RootLog2).
  void save(BinWriter &W) const {
    W.u32(numSlots());
    W.u64(RawBytes.load(std::memory_order_relaxed));
    for (const auto &T : Comps)
      T->save(W);
    Nodes.save(W);
    Roots.save(W);
  }

  bool restore(BinReader &R) {
    if (R.u32() != numSlots())
      return false;
    RawBytes.store(R.u64(), std::memory_order_relaxed);
    for (auto &T : Comps)
      if (!T->restore(R))
        return false;
    return Nodes.restore(R) && Roots.restore(R);
  }

  /// As StateInterner::forEachRawKey: unwinds every stored root
  /// pair back to its component tuple (the reduction shape is replayed
  /// in reverse) and reassembles the raw serialized key in emission
  /// order. Used to seed the bitstate array on governor downgrade.
  /// Requires quiesced writers.
  template <typename Fn>
  void forEachRawKey(const std::vector<uint32_t> &EmissionToSlot,
                     Fn F) const {
    // Lengths of the levels that were reduced (inputs to node interning).
    std::vector<unsigned> Levels;
    for (unsigned L = numSlots(); L > 2; L = L / 2 + (L & 1))
      Levels.push_back(L);
    std::vector<uint32_t> Cur, Prev;
    std::string Key;
    Roots.forEach([&](uint64_t RootP) {
      auto Hi = static_cast<uint32_t>(RootP >> 32);
      auto Lo = static_cast<uint32_t>(RootP);
      Cur.clear();
      Cur.push_back(Hi);
      if (Lo != OddSentinel)
        Cur.push_back(Lo);
      for (size_t J = Levels.size(); J-- > 0;) {
        unsigned L = Levels[J];
        Prev.resize(L);
        for (unsigned I = 0; I != L / 2; ++I) {
          uint64_t P = Nodes.get(Cur[I]);
          Prev[2 * I] = static_cast<uint32_t>(P >> 32);
          Prev[2 * I + 1] = static_cast<uint32_t>(P);
        }
        if (L & 1)
          Prev[L - 1] = Cur[L / 2];
        std::swap(Cur, Prev);
      }
      Key.clear();
      for (uint32_t Slot : EmissionToSlot) {
        std::string_view B = Comps[Slot]->get(Cur[Slot]);
        Key.append(B.data(), B.size());
      }
      F(Key);
    });
  }

private:
  std::vector<std::unique_ptr<lf::StringTable>> Comps;
  lf::PairSet Roots;
  lf::PairTable Nodes;
  std::atomic<uint64_t> RawBytes{0};
};

} // namespace rocker

#endif // ROCKER_SUPPORT_LOCKFREEVISITED_H
