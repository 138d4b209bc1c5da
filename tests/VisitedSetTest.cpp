//===- tests/VisitedSetTest.cpp - Visited-set compression + key fixes -------===//
//
// Covers the compressed visited set (support/StateInterner.h) and the
// state-key correctness fixes that came with it:
//
//  * pc-width regression: state keys used to serialize only the low 16
//    bits of the 32-bit pc, aliasing distinct states in programs with
//    more than 2^16 instructions per thread — now varint-encoded
//    (support/StateKey.h) in both engines.
//  * bitstate memory release: expanded states' payloads are freed, so the
//    documented "memory drops to the bit array" behavior actually holds.
//  * exactness: on every light corpus program, the states each engine
//    stores are exactly the reachable states, checked against a set of
//    full keys and the expansion core's successors held by the test.
//  * unit tests of StateInterner itself, including restores of corrupt
//    checkpoint payloads.
//  * the lock-free visited tier (support/LockFreeVisited.h): CAS-table
//    unit tests (concurrent exactness, ids stable across concurrent
//    growth, save/restore by id, sticky full()), checkpoint resume after
//    growth and rejection of retired checkpoint formats, governor
//    charging, and parallel-vs-sequential verdict/count equivalence at
//    1, 4, and 16 workers (16 is oversubscribed on small machines — that
//    is the point: heavy interleaving, same answers).
//
//===----------------------------------------------------------------------===//

#include "litmus/Corpus.h"
#include "memory/SCMemory.h"
#include "monitor/SCMState.h"
#include "obs/Telemetry.h"
#include "parexplore/ParallelExplorer.h"
#include "rocker/RobustnessChecker.h"
#include "support/LockFreeVisited.h"
#include "support/StateInterner.h"
#include "support/StateKey.h"
#include "tso/TSORobustness.h"
#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <unordered_set>

using namespace rocker;

namespace {

constexpr uint64_t Budget = 60'000;

/// A single-thread straight-line program with > 2^16 instructions: its pc
/// walks through values whose low 16 bits repeat, so a 16-bit-truncated
/// key aliases distinct states.
Program longStraightLineProgram(unsigned NumInsts) {
  ProgramBuilder B("pc-width");
  B.addLoc("x");
  B.beginThread("t0");
  RegId R = B.reg("r");
  for (unsigned I = 0; I != NumInsts; ++I)
    B.assign(R, Expr::makeConst(1));
  return B.build();
}

} // namespace

//===----------------------------------------------------------------------===//
// pc-width regression (satellite bugfix)
//===----------------------------------------------------------------------===//

TEST(StateKey, VarintPcKeysDifferAboveBit16) {
  ThreadState A;
  A.Pc = 5;
  A.Regs.assign(2, 7);
  ThreadState B = A;
  B.Pc = 5 + 65536; // Identical low 16 bits.
  EXPECT_NE(programStateKey({A}), programStateKey({B}));
  // And the varint stays compact where the old fixed encoding was not.
  std::string Small;
  appendVarUint32(Small, 5);
  EXPECT_EQ(Small.size(), 1u);
}

TEST(StateKey, VarintRoundsTripBoundaryValues) {
  // Distinct pcs must produce distinct varints (injectivity at the
  // 1/2/3-byte boundaries).
  std::vector<uint32_t> Pcs = {0,     1,      127,    128,     16383,
                               16384, 65535,  65536,  65537,   2097151,
                               2097152, 0xffffffffu};
  std::vector<std::string> Keys;
  for (uint32_t Pc : Pcs) {
    std::string K;
    appendVarUint32(K, Pc);
    Keys.push_back(K);
  }
  for (size_t I = 0; I != Keys.size(); ++I)
    for (size_t J = I + 1; J != Keys.size(); ++J)
      EXPECT_NE(Keys[I], Keys[J]) << Pcs[I] << " vs " << Pcs[J];
}

TEST(PcWidth, StatesAboveBit16DoNotAliasSequential) {
  // 65600 instructions → 65601 distinct states (one per pc). Under the
  // old 16-bit truncation, pc 65537 aliased pc 1 (same registers), so the
  // exploration stopped short.
  const unsigned N = 65600;
  Program P = longStraightLineProgram(N);
  SCMemory Mem(P);
  ExploreOptions EO;
  EO.RecordParents = false;
  EO.UsePor = false; // POR would chain-compress the straight line away.
  ProductExplorer<SCMemory> Ex(P, Mem, EO);
  EXPECT_EQ(Ex.run().Stats.NumStates, N + 1);
}

TEST(PcWidth, StatesAboveBit16DoNotAliasParallel) {
  const unsigned N = 65600;
  Program P = longStraightLineProgram(N);
  SCMemory Mem(P);
  ParExploreOptions PO;
  PO.Threads = 2;
  PO.RecordTrace = false;
  PO.UsePor = false; // POR would chain-compress the straight line away.
  ParallelExplorer<SCMemory> Ex(P, Mem, PO);
  EXPECT_EQ(Ex.run().Stats.NumStates, N + 1);
}

//===----------------------------------------------------------------------===//
// Frontier-only payload storage
//===----------------------------------------------------------------------===//

TEST(FrontierStorage, NoPayloadOutlivesItsExpansion) {
  // The sequential engine keeps a state's payload only until it is
  // expanded, under the exact visited set and under bitstate hashing: a
  // complete run ends with an empty frontier, and the state hook has seen
  // every stored state exactly once.
  Program P = findCorpusEntry("peterson-ra").parse();
  SCMemory Mem(P);
  for (unsigned BitstateLog2 : {0u, 20u}) {
    std::string What = BitstateLog2 ? "bitstate" : "exact";
    ExploreOptions EO;
    EO.BitstateLog2 = BitstateLog2;
    EO.RecordParents = false;
    EO.UsePor = false; // Keep the full state count.
    ProductExplorer<SCMemory> Ex(P, Mem, EO);
    std::unordered_set<std::string> Seen;
    uint64_t Calls = 0;
    ExploreResult R = Ex.runWithHooks(
        [](const SCMemory::State &, ThreadId, uint32_t, const MemAccess &)
            -> std::optional<Violation> { return std::nullopt; },
        [&](const auto &S) -> std::optional<Violation> {
          ++Calls;
          Seen.insert(productStateKey(Mem, S.Threads, S.M));
          return std::nullopt;
        });
    ASSERT_FALSE(R.Stats.Truncated) << What;
    ASSERT_GT(R.Stats.NumStates, 100u) << What;
    EXPECT_EQ(Ex.frontierSize(), 0u) << What;
    EXPECT_EQ(Calls, R.Stats.NumStates) << What;
    EXPECT_EQ(Seen.size(), R.Stats.NumStates) << What;
  }
}

//===----------------------------------------------------------------------===//
// Interner unit tests
//===----------------------------------------------------------------------===//

TEST(StateInterner, ComponentIdsAreDensePerSlot) {
  StateInterner In(2);
  EXPECT_EQ(In.internComponent(0, "aaa"), 0u);
  EXPECT_EQ(In.internComponent(0, "bbb"), 1u);
  EXPECT_EQ(In.internComponent(0, "aaa"), 0u); // Hash-consed.
  // Slots are independent id spaces.
  EXPECT_EQ(In.internComponent(1, "aaa"), 0u);
}

TEST(StateInterner, TupleIdsAreDenseAndDeduped) {
  StateInterner In(2);
  uint32_t T0[2] = {0, 0};
  uint32_t T1[2] = {0, 1};
  auto [Id0, New0] = In.insertTuple(T0, 100);
  EXPECT_TRUE(New0);
  EXPECT_EQ(Id0, 0u);
  auto [Id1, New1] = In.insertTuple(T1, 100);
  EXPECT_TRUE(New1);
  EXPECT_EQ(Id1, 1u);
  auto [Id2, New2] = In.insertTuple(T0, 100);
  EXPECT_FALSE(New2);
  EXPECT_EQ(Id2, 0u);
  EXPECT_EQ(In.size(), 2u);
  EXPECT_EQ(In.rawBytes(), 200u); // Accumulated for new tuples only.
  EXPECT_GT(In.bytesUsed(), 0u);
}

TEST(StateInterner, SurvivesIndexGrowth) {
  // Push the open-addressing tuple index through several doublings and
  // verify ids remain stable and dedup exact.
  StateInterner In(2);
  for (uint32_t I = 0; I != 10000; ++I) {
    uint32_t T[2] = {I, I ^ 0x55u};
    auto [Id, New] = In.insertTuple(T, 10);
    EXPECT_TRUE(New);
    EXPECT_EQ(Id, I);
  }
  for (uint32_t I = 0; I != 10000; ++I) {
    uint32_t T[2] = {I, I ^ 0x55u};
    auto [Id, New] = In.insertTuple(T, 10);
    EXPECT_FALSE(New);
    EXPECT_EQ(Id, I);
  }
  EXPECT_EQ(In.size(), 10000u);
}

namespace {

/// save() output of an interner with \p Slots slots: slot 0 holds two
/// 20-byte components (past the small-string buffer, so the arena's bytes
/// live on the heap), every other slot one, and one tuple is stored.
/// Layout: u64 raw-byte estimate; per slot a u32 count, the arena bytes
/// behind a one-byte length, one u32 start offset per entry; then the
/// tree tables, whose root (a pair table for 2 slots, a triple table for
/// 3) holds a u32 count and the entries.
std::string internerPayload(unsigned Slots) {
  StateInterner In(Slots);
  std::vector<uint32_t> Tuple(Slots);
  Tuple[0] = In.internComponent(0, std::string(20, 'a'));
  In.internComponent(0, std::string(20, 'b'));
  for (unsigned S = 1; S != Slots; ++S)
    Tuple[S] = In.internComponent(S, "x");
  In.insertTuple(Tuple.data(), 10);
  BinWriter W;
  In.save(W);
  return W.Buf;
}

constexpr size_t Slot0CountAt = 8;
constexpr size_t Slot0StartsAt = Slot0CountAt + 4 + 1 + 40;
size_t rootCountAt(unsigned Slots) {
  return Slot0StartsAt + 2 * 4 + (Slots - 1) * (4 + 1 + 1 + 4);
}

bool restores(unsigned Slots, const std::string &Buf) {
  StateInterner In(Slots);
  BinReader R(Buf);
  return In.restore(R);
}

void putU32(std::string &Buf, size_t At, uint32_t V) {
  std::memcpy(&Buf[At], &V, sizeof(V));
}

} // namespace

TEST(StateInterner, RestoreRejectsCorruptArenaOffsets) {
  // Start offsets delimit each component's bytes; restore hashes every
  // component by them, so one past the arena or one below its
  // predecessor must be refused rather than read out of bounds.
  const std::string Good = internerPayload(2);
  uint32_t Second = 0;
  std::memcpy(&Second, &Good[Slot0StartsAt + 4], sizeof(Second));
  ASSERT_EQ(Second, 20u) << "the payload layout moved";
  EXPECT_TRUE(restores(2, Good));

  std::string Past = Good;
  putU32(Past, Slot0StartsAt + 4, 1000);
  EXPECT_FALSE(restores(2, Past));

  std::string Down = Good;
  putU32(Down, Slot0StartsAt, 30);
  EXPECT_FALSE(restores(2, Down));
}

TEST(StateInterner, RestoreRejectsCountsBeyondPayload) {
  // Every table's entry count is checked against the bytes left before
  // anything is sized by it: the arena's offsets, the pair root, the
  // triple root.
  for (unsigned Slots : {2u, 3u}) {
    const std::string Good = internerPayload(Slots);
    ASSERT_EQ(Good.size(),
              rootCountAt(Slots) + 4 + (Slots == 2 ? 8 : 12))
        << "the payload layout moved";
    EXPECT_TRUE(restores(Slots, Good)) << Slots;
    for (size_t At : {Slot0CountAt, rootCountAt(Slots)}) {
      std::string Bad = Good;
      putU32(Bad, At, UINT32_MAX);
      EXPECT_FALSE(restores(Slots, Bad)) << Slots << " @" << At;
    }
  }
}

TEST(StateInterner, RestoreRejectsArenaLengthBeyondPayload) {
  // The arena's byte length is read before its entry count. A length the
  // payload cannot hold must be refused before the arena is sized by it:
  // sizing first would try to map a terabyte and throw.
  const std::string Good = internerPayload(2);
  ASSERT_EQ(static_cast<uint8_t>(Good[Slot0CountAt + 4]), 40u)
      << "the payload layout moved";
  std::string Bad = Good.substr(0, Slot0CountAt + 4);
  uint64_t Len = uint64_t{1} << 40; // As a varint, like BinWriter::str.
  for (; Len >= 0x80; Len >>= 7)
    Bad.push_back(static_cast<char>(Len | 0x80));
  Bad.push_back(static_cast<char>(Len));
  Bad += Good.substr(Slot0CountAt + 5);
  EXPECT_FALSE(restores(2, Bad));
}

TEST(StateInterner, RestoreRejectsIdsPastTheirTable) {
  // Tree entries hold the ids of the slot or table below them; unwinding
  // a state (bitstate seeding after a downgrade) indexes by them, so an
  // id past its table's end must be refused at restore. Slot 0 holds two
  // components, every other slot one.
  for (unsigned Slots : {2u, 3u}) {
    std::string Bad = internerPayload(Slots);
    // The root's one entry follows its count: a pair stores the right
    // (slot 1) id in its low word, a triple stores slot 0's id first.
    if (Slots == 2)
      putU32(Bad, rootCountAt(Slots) + 4, 1);
    else
      putU32(Bad, rootCountAt(Slots) + 4, 2);
    EXPECT_FALSE(restores(Slots, Bad)) << Slots;
  }
}

//===----------------------------------------------------------------------===//
// Exactness: the stored set is the reachable set, in both engines
//===----------------------------------------------------------------------===//

namespace {

RockerOptions fullOpts(unsigned Threads) {
  RockerOptions O;
  O.StopOnViolation = false;
  O.RecordTrace = false;
  O.MaxStates = Budget;
  O.Threads = Threads;
  return O;
}

/// Checks that the keys \p Stored an engine handed its state hook on a
/// complete run of \p P are exactly the reachable states: no key came
/// twice, one key per stored state, the initial state is stored, and
/// every successor the expansion core emits from a stored state is
/// stored. Keys are decoded back into states, so the closure is computed
/// from the keys alone, independently of the engine's visited set.
void expectStoredSetIsReachable(const std::string &What, const Program &P,
                                const SCMonitor &Mem,
                                const std::vector<std::string> &Stored,
                                uint64_t NumStates) {
  using Core = ExpansionCore<SCMonitor>;
  std::unordered_set<std::string> Set(Stored.begin(), Stored.end());
  EXPECT_EQ(Set.size(), Stored.size()) << What << ": a key arrived twice";
  EXPECT_EQ(Set.size(), NumStates) << What;
  Core::ProductState S;
  for (const SequentialProgram &SP : P.Threads)
    S.Threads.push_back(ThreadState::initial(SP));
  S.M = Mem.initial();
  EXPECT_TRUE(Set.count(productStateKey(Mem, S.Threads, S.M)))
      << What << ": the initial state is missing";
  Core C(P, Mem, {.CheckAssertions = false, .CheckRaces = false});
  ExpandScratch X;
  auto NoHook = [](const SCMState &, ThreadId, uint32_t, const MemAccess &)
      -> std::optional<Violation> { return std::nullopt; };
  uint64_t Missing = 0;
  std::string Padded;
  for (const std::string &Key : Stored) {
    Padded = Key;
    Padded.append(KeySlack, '\0');
    decodeProductStateKey(Mem, Padded.data(), S.Threads, S.M);
    C.expand(
        S, X, NoHook, [](Violation &&) {}, [] { return false; },
        [&](Core::ProductState &&Next, const ExpandStep &) {
          Missing += !Set.count(productStateKey(Mem, Next.Threads, Next.M));
        });
  }
  EXPECT_EQ(Missing, 0u) << What << ": successors of stored states missing";
}

} // namespace

TEST(CompressedVisited, StoredSetIsTheReachableSet) {
  // The reference is a set of full keys held here, not a second visited
  // set in the engines. POR, assertions and races are off so every
  // enabled step is a transition; parent links are on so no ample chain
  // is fast-forwarded past a state.
  auto NoHook = [](const SCMState &, ThreadId, uint32_t, const MemAccess &)
      -> std::optional<Violation> { return std::nullopt; };
  unsigned Checked = 0;
  for (const std::string &Name : test::lightCorpusPrograms()) {
    Program P = findCorpusEntry(Name).parse();
    SCMonitor Mem(P, /*Abstract=*/true);
    std::vector<std::string> Keys;
    std::mutex KeysM;
    auto Collect = [&](const auto &S) -> std::optional<Violation> {
      std::string Key = productStateKey(Mem, S.Threads, S.M);
      std::lock_guard<std::mutex> L(KeysM);
      Keys.push_back(std::move(Key));
      return std::nullopt;
    };

    ExploreOptions EO;
    EO.CheckAssertions = false;
    EO.UsePor = false;
    EO.RecordParents = true;
    ExploreResult Seq =
        ProductExplorer<SCMonitor>(P, Mem, EO).runWithHooks(NoHook, Collect);
    ASSERT_FALSE(Seq.Stats.Truncated) << Name;
    expectStoredSetIsReachable(Name + " sequential", P, Mem, Keys,
                               Seq.Stats.NumStates);

    Keys.clear();
    ParExploreOptions PO;
    PO.Threads = 4;
    PO.CheckAssertions = false;
    PO.UsePor = false;
    PO.RecordTrace = true;
    ParExploreResult Par =
        ParallelExplorer<SCMonitor>(P, Mem, PO).runWithHooks(NoHook, Collect);
    ASSERT_FALSE(Par.Stats.Truncated) << Name;
    expectStoredSetIsReachable(Name + " parallel", P, Mem, Keys,
                               Par.Stats.NumStates);
    EXPECT_EQ(Par.Stats.NumStates, Seq.Stats.NumStates) << Name;
    ++Checked;
  }
  EXPECT_GT(Checked, 40u);
}

TEST(CompressedVisited, StatsReportBytesAndRatio) {
  Program P = findCorpusEntry("peterson-ra").parse();
  RockerReport Seq = checkRobustness(P, fullOpts(1));
  ASSERT_TRUE(Seq.Complete);
  EXPECT_GT(Seq.Stats.VisitedBytes, 0u);
  EXPECT_GT(Seq.Stats.VisitedRawBytes, Seq.Stats.VisitedBytes);
  EXPECT_GT(Seq.Stats.compressionRatio(), 1.0);
  // The parallel engine fills the fields too. No ratio bound here: on a
  // program this small the lock-free tables' fixed footprint can exceed
  // the raw keys.
  RockerReport Par = checkRobustness(P, fullOpts(4));
  ASSERT_TRUE(Par.Complete);
  EXPECT_GT(Par.Stats.VisitedBytes, 0u);
  // Its raw estimate models a key *set* (no mapped state id), so it is
  // slightly below the sequential map-based estimate.
  EXPECT_GT(Par.Stats.VisitedRawBytes, 0u);
  EXPECT_LT(Par.Stats.VisitedRawBytes, Seq.Stats.VisitedRawBytes);
}

//===----------------------------------------------------------------------===//
// Lock-free table unit tests
//===----------------------------------------------------------------------===//

TEST(LockFreeTables, PairTableInternsAndDedups) {
  lf::PairTable T(10);
  lf::ProbeStats St;
  bool New = false;
  uint32_t A = T.intern(lf::packPair(1, 2), St, New);
  EXPECT_TRUE(New);
  EXPECT_EQ(T.get(A), lf::packPair(1, 2));
  uint32_t B = T.intern(lf::packPair(1, 2), St, New);
  EXPECT_FALSE(New);
  EXPECT_EQ(A, B);
  uint32_t C = T.intern(lf::packPair(3, 4), St, New);
  EXPECT_TRUE(New);
  EXPECT_EQ(T.get(C), lf::packPair(3, 4));
  // Ids are dense counters, not slot indices.
  EXPECT_EQ(A, 0u);
  EXPECT_EQ(C, 1u);
  EXPECT_EQ(T.used(), 2u);
  EXPECT_FALSE(T.full());
}

TEST(LockFreeTables, PairTableConcurrentInsertsAreExact) {
  // 4 threads intern the same 8192 payloads: every id must map back to
  // its payload and the used count must be exact (no double-claims).
  constexpr uint32_t N = 8192;
  lf::PairTable T(14);
  auto Work = [&] {
    lf::ProbeStats St;
    for (uint32_t I = 0; I != N; ++I) {
      bool New = false;
      uint32_t Id = T.intern(I, St, New);
      ASSERT_NE(Id, lf::PairTable::InvalidId);
      ASSERT_EQ(T.get(Id), I);
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W != 4; ++W)
    Threads.emplace_back(Work);
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(T.used(), N);
  EXPECT_FALSE(T.full());
}

TEST(LockFreeTables, StringTableConcurrentInsertsAreExact) {
  constexpr uint32_t N = 4096;
  lf::StringTable T(13);
  auto Work = [&] {
    lf::ProbeStats St;
    for (uint32_t I = 0; I != N; ++I) {
      std::string S = "key-" + std::to_string(I);
      bool New = false;
      uint32_t Id = T.intern(S, St, New);
      ASSERT_NE(Id, lf::StringTable::InvalidId);
      ASSERT_EQ(T.get(Id), S);
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W != 4; ++W)
    Threads.emplace_back(Work);
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(T.used(), N);
  EXPECT_GT(T.bytesUsed(), N * sizeof(uint64_t));
  EXPECT_GE(T.residentBytes(), T.slotBytes() + T.bytesUsed());
}

namespace {

/// Drives an id-issuing table through 5 phases in which 4 threads
/// intern every key seen so far plus 512 new ones, each thread from a
/// different starting point; between phases the table doubles (quiesced,
/// as under the engine's pause) while past 1/2 load. Every id returned
/// before a growth must resolve to its payload after it, re-interning
/// must return the same id, and no payload may be stored twice.
template <typename Table, typename PayloadFn>
void internAcrossGrowths(Table &T, PayloadFn Payload) {
  constexpr unsigned Threads = 4, Phases = 5;
  constexpr uint32_t PerPhase = 512;
  std::vector<uint32_t> IdOf; // By key, fixed once returned.
  unsigned Growths = 0;
  for (unsigned Ph = 0; Ph != Phases; ++Ph) {
    const uint32_t Keys = (Ph + 1) * PerPhase;
    std::vector<std::vector<uint32_t>> Got(Threads,
                                           std::vector<uint32_t>(Keys));
    std::vector<std::thread> Ts;
    for (unsigned W = 0; W != Threads; ++W)
      Ts.emplace_back([&, W] {
        lf::ProbeStats St;
        for (uint32_t I = 0; I != Keys; ++I) {
          uint32_t K = (I + W * Keys / Threads) % Keys;
          bool New = false;
          Got[W][K] = T.intern(Payload(K), St, New);
        }
      });
    for (std::thread &Th : Ts)
      Th.join();
    ASSERT_FALSE(T.full()) << "phase " << Ph;
    ASSERT_EQ(T.used(), Keys) << "phase " << Ph; // One slot per payload.
    for (uint32_t K = 0; K != Keys; ++K) {
      for (unsigned W = 1; W != Threads; ++W)
        ASSERT_EQ(Got[W][K], Got[0][K]) << "key " << K << " phase " << Ph;
      if (K < IdOf.size())
        ASSERT_EQ(Got[0][K], IdOf[K]) << "key " << K << " phase " << Ph;
      else
        IdOf.push_back(Got[0][K]);
    }
    std::vector<uint32_t> Sorted = IdOf;
    std::sort(Sorted.begin(), Sorted.end());
    ASSERT_EQ(std::adjacent_find(Sorted.begin(), Sorted.end()), Sorted.end())
        << "two keys share an id in phase " << Ph;
    Growths += T.grow();
    for (uint32_t K = 0; K != Keys; ++K)
      ASSERT_EQ(T.get(IdOf[K]), Payload(K)) << "key " << K << " phase " << Ph;
  }
  // 2^10 slots double after phases 0, 1 and 3.
  EXPECT_EQ(Growths, 3u);
  EXPECT_EQ(T.log2(), 13u);
}

} // namespace

TEST(LockFreeTables, PairTableIdsSurviveConcurrentGrowth) {
  lf::PairTable T(10);
  internAcrossGrowths(T, [](uint32_t K) {
    return lf::packPair(K * 7 + 1, K ^ 0x5a5a5u);
  });
}

TEST(LockFreeTables, StringTableIdsSurviveConcurrentGrowth) {
  lf::StringTable T(10);
  internAcrossGrowths(T, [](uint32_t K) {
    return std::string(1 + K % 23, static_cast<char>('a' + K % 26)) +
           std::to_string(K);
  });
}

TEST(LockFreeTables, PairSetSurvivesConcurrentGrowth) {
  // The root table has no ids: exactly one thread may see each payload
  // as new, before and after the table doubles.
  lf::PairSet T(10);
  constexpr unsigned Threads = 4;
  uint32_t Stored = 0;
  for (uint32_t Keys : {512u, 1024u, 1536u, 2048u, 2560u}) {
    std::atomic<uint32_t> Fresh{0};
    std::vector<std::thread> Ts;
    for (unsigned W = 0; W != Threads; ++W)
      Ts.emplace_back([&, W] {
        lf::ProbeStats St;
        for (uint32_t I = 0; I != Keys; ++I) {
          bool New = false;
          ASSERT_TRUE(
              T.insert(lf::packPair((I + W * 97) % Keys, 3), St, New));
          Fresh.fetch_add(New, std::memory_order_relaxed);
        }
      });
    for (std::thread &Th : Ts)
      Th.join();
    EXPECT_EQ(Fresh.load(), Keys - Stored);
    EXPECT_EQ(T.used(), Keys);
    Stored = Keys;
    T.grow();
  }
  EXPECT_EQ(T.log2(), 13u);
  uint32_t Seen = 0;
  T.forEach([&](uint64_t P) {
    EXPECT_EQ(static_cast<uint32_t>(P), 3u);
    ++Seen;
  });
  EXPECT_EQ(Seen, Stored);
}

TEST(LockFreeTables, PairTableSaveRestoreKeepsIds) {
  lf::PairTable T(10);
  lf::ProbeStats St;
  std::vector<std::pair<uint32_t, uint64_t>> Entries;
  for (uint32_t I = 0; I != 700; ++I) {
    bool New = false;
    uint64_t P = lf::packPair(I, I * 7);
    Entries.emplace_back(T.intern(P, St, New), P);
  }
  T.grow();
  BinWriter W;
  T.save(W);
  // Restore sizes the table from the entry count, whatever it started
  // at: no capacity has to round-trip.
  lf::PairTable R(8);
  BinReader Rd(W.Buf);
  ASSERT_TRUE(R.restore(Rd));
  EXPECT_EQ(R.used(), T.used());
  EXPECT_FALSE(R.wantsGrowth());
  for (auto [Id, P] : Entries) {
    EXPECT_EQ(R.get(Id), P);
    bool New = true;
    EXPECT_EQ(R.intern(P, St, New), Id);
    EXPECT_FALSE(New);
  }
  bool New = false;
  EXPECT_GE(R.intern(lf::packPair(9999, 1), St, New), Entries.size());
  EXPECT_TRUE(New);
  // A table that already holds entries cannot be restored into.
  BinReader Rd2(W.Buf);
  EXPECT_FALSE(R.restore(Rd2));
}

TEST(LockFreeTables, StringTableSaveRestoreKeepsIds) {
  lf::StringTable T(10);
  lf::ProbeStats St;
  std::vector<std::pair<uint32_t, std::string>> Entries;
  for (uint32_t I = 0; I != 700; ++I) {
    bool New = false;
    std::string S(1 + I % 40, static_cast<char>('a' + I % 26));
    S += std::to_string(I);
    Entries.emplace_back(T.intern(S, St, New), S);
  }
  T.grow();
  BinWriter W;
  T.save(W);
  lf::StringTable R(16);
  BinReader Rd(W.Buf);
  ASSERT_TRUE(R.restore(Rd));
  EXPECT_EQ(R.used(), T.used());
  EXPECT_EQ(R.bytesUsed(), T.bytesUsed());
  for (const auto &[Id, S] : Entries) {
    EXPECT_EQ(R.get(Id), S);
    bool New = true;
    EXPECT_EQ(R.intern(S, St, New), Id);
    EXPECT_FALSE(New);
  }
}

TEST(LockFreeTables, FullTableLatchesStickyAndRejectsInserts) {
  // 2^8 slots, load cap 7/8 → 224 claims; the next distinct payload must
  // fail with InvalidId and latch full() without corrupting dedup.
  lf::PairTable T(8);
  lf::ProbeStats St;
  bool New = false;
  uint32_t Cap = 256 - 256 / 8;
  for (uint32_t I = 0; I != Cap; ++I)
    ASSERT_NE(T.intern(I, St, New), lf::PairTable::InvalidId);
  EXPECT_FALSE(T.full());
  EXPECT_TRUE(T.wantsGrowth()); // Growth should have been asked long ago.
  EXPECT_EQ(T.intern(9999, St, New), lf::PairTable::InvalidId);
  EXPECT_TRUE(T.full()); // Sticky.
  // Existing payloads still dedup exactly while full.
  EXPECT_NE(T.intern(5, St, New), lf::PairTable::InvalidId);
  EXPECT_FALSE(New);
}

//===----------------------------------------------------------------------===//
// Growth: migrating slot words into doubled arrays keeps every state and
// every id
//===----------------------------------------------------------------------===//

namespace {

/// Interns state \p Seed of a \p Slots-wide tuple whose slot s holds
/// Seed mod (Mod + s): distinct for every Seed below the moduli's lcm.
bool insertModState(LockFreeStateInterner &In, unsigned Slots, uint32_t Mod,
                    uint32_t Seed, std::vector<uint32_t> *IdsOut = nullptr) {
  lf::ProbeStats St;
  std::vector<uint32_t> Ids(Slots), Scratch;
  uint64_t RawLen = 0;
  for (unsigned S = 0; S != Slots; ++S) {
    std::string C =
        "c" + std::to_string(S) + "-" + std::to_string(Seed % (Mod + S));
    RawLen += C.size();
    Ids[S] = In.internComponent(S, C, St);
  }
  if (IdsOut)
    *IdsOut = Ids;
  return In.insertTuple(Ids.data(), stringNodeBytes(RawLen, 0), St, Scratch);
}

} // namespace

TEST(LockFreeVisited, InternerMigrationPreservesStates) {
  // 5 slots exercises the odd-width reduction levels (5 -> 3 -> 2);
  // 40,000 states pass the 2^16 root table's 1/2-load trigger.
  constexpr unsigned Slots = 5;
  constexpr uint32_t N = 40'000;
  LockFreeStateInterner In(Slots, 16);
  for (uint32_t I = 0; I != N; ++I)
    ASSERT_TRUE(insertModState(In, Slots, 37, I)) << I;
  std::vector<uint32_t> IdsBefore;
  insertModState(In, Slots, 37, 12345, &IdsBefore);
  uint64_t Raw = In.rawBytes();
  ASSERT_TRUE(In.wantsGrowth());
  EXPECT_GE(In.grow(), 1u);
  EXPECT_FALSE(In.wantsGrowth());
  EXPECT_EQ(In.size(), N);
  EXPECT_EQ(In.rawBytes(), Raw);
  // Every state dedups against the grown tables, and component ids did
  // not move...
  for (uint32_t I = 0; I != N; ++I)
    EXPECT_FALSE(insertModState(In, Slots, 37, I)) << I;
  std::vector<uint32_t> IdsAfter;
  insertModState(In, Slots, 37, 12345, &IdsAfter);
  EXPECT_EQ(IdsBefore, IdsAfter);
  // ...and fresh states are still accepted as new.
  EXPECT_TRUE(insertModState(In, Slots, 1u << 20, 999'999));
  EXPECT_EQ(In.size(), N + 1);
}

TEST(LockFreeVisited, GrownInternerSaveRestoreRoundTrips) {
  // A grown interner round-trips through save/restore into fresh
  // interners of any initial size: each table sizes itself from its
  // entry count.
  constexpr unsigned Slots = 3;
  constexpr uint32_t N = 40'000;
  LockFreeStateInterner A(Slots, 16);
  for (uint32_t I = 0; I != N; ++I)
    insertModState(A, Slots, 101, I);
  ASSERT_GE(A.grow(), 1u);
  BinWriter W;
  A.save(W);
  for (unsigned Log2 : {16u, 20u}) {
    LockFreeStateInterner Restored(Slots, Log2);
    BinReader R(W.Buf);
    ASSERT_TRUE(Restored.restore(R)) << Log2;
    EXPECT_FALSE(Restored.wantsGrowth()) << Log2;
    EXPECT_EQ(Restored.size(), A.size()) << Log2;
    EXPECT_EQ(Restored.rawBytes(), A.rawBytes()) << Log2;
    EXPECT_EQ(Restored.bytesUsed(), A.bytesUsed()) << Log2;
    for (uint32_t I = 0; I != N; ++I)
      EXPECT_FALSE(insertModState(Restored, Slots, 101, I)) << I;
    EXPECT_TRUE(insertModState(Restored, Slots, 1u << 20, 999'999)) << Log2;
  }
  // A different slot count is a different state format.
  LockFreeStateInterner Wrong(Slots + 1, 16);
  BinReader R2(W.Buf);
  EXPECT_FALSE(Wrong.restore(R2));
}

//===----------------------------------------------------------------------===//
// Parallel vs sequential: identical verdicts and counts, 1/4/16 workers
//===----------------------------------------------------------------------===//

TEST(LockFreeVisited, VerdictsIdenticalToSequentialAt16Workers) {
  // Heavily oversubscribed on small machines — deliberately: more
  // preemption points, same answers required. A named mix of robust and
  // non-robust programs keeps the runtime bounded.
  for (const char *Name :
       {"SB", "MP", "peterson-ra", "dekker-sc", "lamport2-ra"}) {
    const CorpusEntry &E = findCorpusEntry(Name);
    Program P = E.parse();
    RockerReport Par = checkRobustness(P, fullOpts(16));
    RockerReport Seq = checkRobustness(P, fullOpts(1));
    EXPECT_EQ(Par.Robust, E.ExpectRobust) << Name;
    EXPECT_EQ(Par.Robust, Seq.Robust) << Name;
    EXPECT_EQ(Par.Stats.NumStates, Seq.Stats.NumStates) << Name;
    EXPECT_EQ(Par.FirstViolationText, Seq.FirstViolationText) << Name;
  }
}

TEST(LockFreeVisited, SingleWorkerParallelMatchesSequential) {
  // Drives the parallel engine directly at 1 worker (checkRobustness
  // routes Threads=1 to the sequential engine): it must reproduce the
  // sequential state count exactly, as must 4 workers.
  for (const char *Name : {"peterson-ra", "SB"}) {
    Program P = findCorpusEntry(Name).parse();
    SCMemory Mem(P);
    ExploreOptions EO;
    EO.RecordParents = false;
    EO.StopOnViolation = false;
    EO.CheckAssertions = false;
    ProductExplorer<SCMemory> Seq(P, Mem, EO);
    uint64_t Expect = Seq.run().Stats.NumStates;
    for (unsigned Threads : {1u, 4u}) {
      ParExploreOptions PO;
      PO.Threads = Threads;
      PO.RecordTrace = false;
      PO.StopOnViolation = false;
      PO.CheckAssertions = false;
      ParallelExplorer<SCMemory> Ex(P, Mem, PO);
      EXPECT_EQ(Ex.run().Stats.NumStates, Expect)
          << Name << " x" << Threads;
    }
  }
}

TEST(LockFreeVisited, TsoOracleMatchesSequential) {
  // The TSO baseline's projection sets under the lock-free tier (with
  // the TSOMachine dirty-component hooks feeding the incremental path)
  // must match the sequential engine's.
  for (const char *Name : {"SB", "MP", "peterson-ra"}) {
    Program P = findCorpusEntry(Name).parse();
    TSOOptions Par;
    Par.Threads = 4;
    TSOOptions Seq = Par;
    Seq.Threads = 1;
    TSORobustnessResult A = checkTSORobustness(P, Par);
    TSORobustnessResult B = checkTSORobustness(P, Seq);
    EXPECT_EQ(A.Robust, B.Robust) << Name;
    EXPECT_EQ(A.Stats.NumStates, B.Stats.NumStates) << Name;
  }
}

TEST(LockFreeVisited, GrowthFiresAndPreservesCounts) {
  // End-to-end growth: seqlock's 327k states cross the minimal initial
  // root table's 1/2-load trigger again and again (2^16 roots double at
  // 2^15, 2^16, 2^17 and 2^18 states); the management thread doubles
  // the tables under pause while workers keep their cached parent ids,
  // and the verdict and counts still match a sequential run exactly.
  Program P = findCorpusEntry("seqlock").parse();
  RockerOptions Lf = fullOpts(2);
  Lf.MaxStates = 1'000'000;
  Lf.LockFreeLog2 = 16;
  obs::Snapshot Before = obs::snapshot();
  RockerReport A = checkRobustness(P, Lf);
  uint64_t Growths = obs::snapshot().counter(obs::Ctr::VisitedGrowths) -
                     Before.counter(obs::Ctr::VisitedGrowths);
  RockerOptions Seq = fullOpts(1);
  Seq.MaxStates = 1'000'000;
  RockerReport B = checkRobustness(P, Seq);
  EXPECT_EQ(A.Robust, B.Robust);
  EXPECT_EQ(A.Stats.NumStates, B.Stats.NumStates);
  EXPECT_TRUE(A.Complete);
  if (obs::telemetryEnabled()) {
    EXPECT_GE(Growths, 3u);
  }
}

namespace {

std::string scratchCheckpoint(const std::string &Stem) {
  return (std::filesystem::temp_directory_path() /
          (Stem + "." + std::to_string(::getpid()) + ".rkcp"))
      .string();
}

/// Removes a checkpoint file (and its tmp sibling) when the test ends.
struct RemoveOnExit {
  std::string Path;
  ~RemoveOnExit() {
    std::error_code Ec;
    std::filesystem::remove(Path, Ec);
    std::filesystem::remove(Path + ".tmp", Ec);
  }
};

} // namespace

TEST(LockFreeVisited, CheckpointAfterGrowthsResumesAtAnotherLog2) {
  // A run cut after the tables doubled at least twice resumes under a
  // different --visited-log2 with the uninterrupted run's counts:
  // entries carry their ids, so no capacity has to round-trip.
  Program P = findCorpusEntry("seqlock").parse();
  RockerOptions Ref = fullOpts(4);
  Ref.MaxStates = 1'000'000;
  RockerReport Whole = checkRobustness(P, Ref);
  ASSERT_TRUE(Whole.Complete);

  RemoveOnExit Ckpt{scratchCheckpoint("lf-growth")};
  RockerOptions Mid = Ref;
  Mid.LockFreeLog2 = 16;
  Mid.MaxStates = 100'000;
  Mid.Resilience.CheckpointPath = Ckpt.Path;
  obs::Snapshot Before = obs::snapshot();
  RockerReport Cut = checkRobustness(P, Mid);
  uint64_t Growths = obs::snapshot().counter(obs::Ctr::VisitedGrowths) -
                     Before.counter(obs::Ctr::VisitedGrowths);
  ASSERT_FALSE(Cut.Complete);
  ASSERT_TRUE(std::filesystem::exists(Ckpt.Path));
  if (obs::telemetryEnabled()) {
    EXPECT_GE(Growths, 2u);
  }

  RockerOptions Fin = Ref;
  Fin.LockFreeLog2 = 20;
  Fin.Resilience.ResumePath = Ckpt.Path;
  RockerReport R = checkRobustness(P, Fin);
  ASSERT_TRUE(R.Stats.Resilience.ResumeError.empty())
      << R.Stats.Resilience.ResumeError;
  EXPECT_TRUE(R.Stats.Resilience.Resumed);
  EXPECT_TRUE(R.Complete);
  EXPECT_EQ(R.Robust, Whole.Robust);
  EXPECT_EQ(R.Stats.NumStates, Whole.Stats.NumStates);
  EXPECT_EQ(R.Stats.NumTransitions, Whole.Stats.NumTransitions);
  EXPECT_EQ(R.Stats.NumDeadlockStates, Whole.Stats.NumDeadlockStates);
}

TEST(LockFreeVisited, RetiredCheckpointTagsAreRejected) {
  // Visited-set tags 0 and 1 held the removed mutex-striped tier's
  // tuples and keys; 3 and 4 held slot placements from when lock-free ids
  // were slot indices; 6 held the removed raw-key lock-free set. A
  // checkpoint carrying one must be refused with its own error, not
  // decoded as tables.
  Program P = findCorpusEntry("peterson-ra").parse();
  RemoveOnExit Ckpt{scratchCheckpoint("lf-retired")};
  RockerOptions Mid = fullOpts(4);
  Mid.MaxStates = 100;
  Mid.Resilience.CheckpointPath = Ckpt.Path;
  ASSERT_FALSE(checkRobustness(P, Mid).Complete);
  std::string Data;
  {
    std::ifstream In(Ckpt.Path, std::ios::binary);
    Data.assign(std::istreambuf_iterator<char>(In), {});
  }
  // Container header (magic, version, config hash, length, payload
  // hash), then the payload up to the tag for a run without downgrades
  // or violations: engine, rung and bitstate bytes; states, expansions,
  // seconds and nine counters; the downgrade count; three checkpoint
  // totals; the violation count.
  const size_t HeaderBytes = 32;
  const size_t TagAt = HeaderBytes + 3 + 12 * 8 + 1 + 3 * 8 + 1;
  ASSERT_GT(Data.size(), TagAt);
  ASSERT_EQ(Data[TagAt], 5) << "the payload layout moved the tag";
  for (char Retired : {0, 1, 3, 4, 6}) {
    std::string Old = Data;
    Old[TagAt] = Retired;
    uint64_t Hash = hashBytes(
        reinterpret_cast<const uint8_t *>(Old.data()) + HeaderBytes,
        Old.size() - HeaderBytes);
    std::memcpy(&Old[24], &Hash, sizeof(Hash));
    {
      std::ofstream Out(Ckpt.Path, std::ios::binary | std::ios::trunc);
      Out << Old;
    }
    RockerOptions RO = fullOpts(4);
    RO.Resilience.ResumePath = Ckpt.Path;
    RockerReport R = checkRobustness(P, RO);
    EXPECT_EQ(R.Stats.Resilience.ResumeError,
              retiredVisitedFormatError(Retired));
    EXPECT_FALSE(R.Stats.Resilience.Resumed);
    EXPECT_FALSE(R.Complete);
    EXPECT_EQ(R.Stats.NumStates, 0u);
  }
}

TEST(LockFreeVisited, GovernorChargesResidentTables) {
  // Probing touches every page of a slot array, so the governor charges
  // the lock-free tables at capacity. With --visited-log2 18 the root
  // and node slot arrays alone hold 2^18 and 2^19 words (6 MiB); a
  // budget between that floor and a generous bound on the stored bytes
  // plus frontier must downgrade.
  Program P = findCorpusEntry("lamport2-ra").parse();
  RockerOptions O = fullOpts(4);
  O.LockFreeLog2 = 18;
  O.MaxStates = 30'000;
  RockerReport Free = checkRobustness(P, O);
  ASSERT_TRUE(Free.Stats.Resilience.Downgrades.empty());
  const uint64_t Stored =
      Free.Stats.VisitedBytes + Free.Stats.PeakFrontier * 16 * 1024;
  const uint64_t ResidentFloor = ((uint64_t{1} << 18) + (1u << 19)) * 8;
  ASSERT_LT(Stored, ResidentFloor);
  O.Resilience.MemBudgetBytes = (Stored + ResidentFloor) / 2;
  RockerReport R = checkRobustness(P, O);
  const resilience::ResilienceReport &RR = R.Stats.Resilience;
  ASSERT_GE(RR.Downgrades.size(), 1u);
  EXPECT_EQ(RR.Downgrades[0].To, resilience::StorageRung::Bitstate);
  EXPECT_GE(RR.Downgrades[0].UsedBytes, ResidentFloor);
  EXPECT_TRUE(R.Approximate);
}
