//===- tests/ExplorerTest.cpp - Product explorer unit tests -----------------===//

#include "explore/Explorer.h"
#include "explore/KeyFrontier.h"
#include "lang/Parser.h"
#include "memory/SCMemory.h"

#include <gtest/gtest.h>

using namespace rocker;

namespace {

ExploreOptions quiet() {
  ExploreOptions O;
  O.RecordParents = false;
  // These tests assert exact full-graph counts; POR would shrink them
  // (its verdict/count preservation is covered by tests/PorTest.cpp).
  O.UsePor = false;
  return O;
}

} // namespace

TEST(Explorer, CountsStatesOfStraightLineProgram) {
  // One thread, three instructions: initial + 3 successors = 4 states.
  Program P = parseProgramOrDie(
      "vals 2\nlocs x\nthread t\n  x := 1\n  a := x\n  x := 0\n");
  SCMemory M(P);
  ProductExplorer<SCMemory> Ex(P, M, quiet());
  ExploreResult R = Ex.run();
  EXPECT_EQ(R.Stats.NumStates, 4u);
  EXPECT_EQ(R.Stats.NumTransitions, 3u);
  EXPECT_FALSE(R.Stats.Truncated);
}

TEST(Explorer, InterleavingsShareStates) {
  // Two independent one-write threads: the diamond has exactly 4 states
  // under SC... but memory contents differ per order, giving 2x2 pc
  // combinations with identical memory at the end: 4 pc-states, memory
  // x=1 always after t0, y=1 after t1: total distinct product states = 4.
  Program P = parseProgramOrDie(
      "vals 2\nlocs x y\nthread a\n  x := 1\nthread b\n  y := 1\n");
  SCMemory M(P);
  ProductExplorer<SCMemory> Ex(P, M, quiet());
  ExploreResult R = Ex.run();
  EXPECT_EQ(R.Stats.NumStates, 4u);
  EXPECT_EQ(R.Stats.NumTransitions, 4u);
}

TEST(Explorer, DeadlockedWaitsJustStopExpanding) {
  Program P = parseProgramOrDie(
      "vals 2\nlocs x\nthread t\n  wait(x == 1)\n  x := 1\n");
  SCMemory M(P);
  ProductExplorer<SCMemory> Ex(P, M, quiet());
  ExploreResult R = Ex.run();
  EXPECT_EQ(R.Stats.NumStates, 1u); // Nothing is ever enabled.
  EXPECT_FALSE(R.hasViolation());
}

TEST(Explorer, MaxStatesTruncates) {
  Program P = parseProgramOrDie(R"(
vals 4
locs x
thread t
l:
  r := FADD(x, 1)
  if 1 goto l
)");
  SCMemory M(P);
  ExploreOptions O = quiet();
  O.MaxStates = 3;
  ProductExplorer<SCMemory> Ex(P, M, O);
  ExploreResult R = Ex.run();
  EXPECT_TRUE(R.Stats.Truncated);
  EXPECT_LE(R.Stats.NumStates, 4u);
}

TEST(Explorer, CollectsProgramStateProjections) {
  Program P = parseProgramOrDie(
      "vals 2\nlocs x\nthread a\n  x := 1\nthread b\n  r := x\n");
  SCMemory M(P);
  ExploreOptions O = quiet();
  O.CollectProgramStates = true;
  ProductExplorer<SCMemory> Ex(P, M, O);
  ExploreResult R = Ex.run();
  // pc states: (0,0),(1,0),(0,1 r=0),(1,1 r=0),(1,1 r=1) = 5.
  EXPECT_EQ(R.ProgramStates.size(), 5u);
}

TEST(Explorer, HookViolationCarriesStateAndThread) {
  Program P = parseProgramOrDie(
      "vals 2\nlocs x\nthread a\n  x := 1\n  r := x\n");
  SCMemory M(P);
  ExploreOptions O = quiet();
  O.RecordParents = true;
  ProductExplorer<SCMemory> Ex(P, M, O);
  ExploreResult R = Ex.runWithHook(
      [&](const SCMemory::State &S, ThreadId T, uint32_t Pc,
          const MemAccess &A) -> std::optional<Violation> {
        if (A.K != MemAccess::Kind::Read || S[A.Loc] != 1)
          return std::nullopt;
        Violation V;
        V.K = Violation::Kind::Robustness;
        V.Loc = A.Loc;
        return V;
      });
  ASSERT_TRUE(R.hasViolation());
  const Violation &V = R.Violations.front();
  EXPECT_EQ(V.Thread, 0);
  EXPECT_EQ(V.Pc, 1u);
  std::vector<TraceStep> Trace = Ex.trace(V);
  ASSERT_EQ(Trace.size(), 1u); // One step: the store.
  EXPECT_EQ(Trace[0].Text, "W(x,1)");
}

TEST(Explorer, StopOnViolationVsCollectAll) {
  Program P = parseProgramOrDie(R"(
vals 2
locs x
thread a
  assert(0)
thread b
  assert(0)
)");
  SCMemory M(P);
  ExploreOptions O = quiet();
  O.StopOnViolation = false;
  ProductExplorer<SCMemory> Ex(P, M, O);
  ExploreResult R = Ex.run();
  EXPECT_EQ(R.Violations.size(), 2u);

  O.StopOnViolation = true;
  ProductExplorer<SCMemory> Ex2(P, M, O);
  ExploreResult R2 = Ex2.run();
  EXPECT_EQ(R2.Violations.size(), 1u);
}

TEST(KeyFrontier, QueueOrderAcrossBlocks) {
  // Keys of every length up to past a block, so entries straddle block
  // ends and some need a block of their own.
  auto KeyOf = [](uint64_t I) {
    size_t Len = I % 7 == 0 ? KeyFrontier::BlockBytes + I : I * 37 % 5000;
    return std::string(Len, static_cast<char>('a' + I % 26));
  };
  const uint64_t N = 200;
  KeyFrontier F;
  for (uint64_t I = 0; I != N; ++I)
    F.push(KeyOf(I));
  EXPECT_EQ(F.size(), N);
  uint64_t Seen = 0;
  F.forEach([&](std::string_view Key) {
    EXPECT_EQ(Key, KeyOf(Seen));
    ++Seen;
  });
  EXPECT_EQ(Seen, N);

  // Pop half, push more behind the rest: first in, first out throughout.
  for (uint64_t I = 0; I != N / 2; ++I) {
    ASSERT_EQ(F.front(), KeyOf(I));
    F.popFront();
  }
  for (uint64_t I = N; I != N + N / 2; ++I)
    F.push(KeyOf(I));
  for (uint64_t I = N / 2; I != N + N / 2; ++I) {
    ASSERT_EQ(F.front(), KeyOf(I));
    F.popFront();
  }
  EXPECT_TRUE(F.empty());

  // A drained frontier takes new entries, empty keys included.
  F.push("x");
  F.push("");
  EXPECT_EQ(F.front(), "x");
  F.popFront();
  EXPECT_EQ(F.front(), "");
  F.popFront();
  EXPECT_TRUE(F.empty());
  EXPECT_EQ(KeyFrontier::entryBytes(5), 5 + KeyFrontier::EntryOverhead);
}

TEST(KeyFrontier, DrainedBlocksAreReleased) {
  // Keys across about ten blocks, then one key longer than a block,
  // which drains last.
  const uint64_t N = 600;
  auto KeyOf = [](uint64_t I) {
    size_t Len = I == N - 1 ? KeyFrontier::BlockBytes * 2 : 1000 + I % 300;
    return std::string(Len, static_cast<char>('a' + I % 26));
  };
  KeyFrontier F;
  EXPECT_EQ(F.heldBytes(), 0u);
  for (uint64_t I = 0; I != N; ++I)
    F.push(KeyOf(I));
  EXPECT_GE(F.heldBytes(), 10 * KeyFrontier::BlockBytes);
  for (uint64_t I = 0; I != N; ++I) {
    ASSERT_EQ(F.front(), KeyOf(I));
    F.popFront();
    // Drained blocks are unmapped as they go: beyond the live entries
    // only the front and back blocks' unused ends, the spare, and the
    // tails too short for the next key stay held.
    uint64_t Live = 0;
    F.forEach([&](std::string_view Key) {
      Live += KeyFrontier::entryBytes(Key.size());
    });
    ASSERT_LE(F.heldBytes(), Live + 4 * KeyFrontier::BlockBytes);
  }
  // The oversized block is unmapped, not kept as the spare.
  EXPECT_TRUE(F.empty());
  EXPECT_EQ(F.heldBytes(), KeyFrontier::BlockBytes);

  // The spare serves the next block; nothing more is mapped.
  F.push(KeyOf(1));
  EXPECT_EQ(F.heldBytes(), KeyFrontier::BlockBytes);
  EXPECT_EQ(F.front(), KeyOf(1));
}

// Every field of a packed trace edge survives at its extremes.
TEST(ParentEdge, FieldsRoundTripAtTheirExtremes) {
  auto RoundTrip = [](const ParentEdge::Fields &F) {
    ASSERT_TRUE(ParentEdge::representable(F));
    ParentEdge::Fields G = ParentEdge(F).fields();
    EXPECT_EQ(G.Parent, F.Parent);
    EXPECT_EQ(G.FromPc, F.FromPc);
    EXPECT_EQ(G.Collapsed, F.Collapsed);
    EXPECT_EQ(G.Thread, F.Thread);
    EXPECT_EQ(G.Internal, F.Internal);
    EXPECT_EQ(G.IsAccess, F.IsAccess);
    EXPECT_TRUE(G.L == F.L);
  };
  static_assert(sizeof(ParentEdge) == 12);
  for (uint64_t Parent : {uint64_t{0}, (uint64_t{1} << 32) - 1,
                          (uint64_t{1} << 32) + 5, ParentEdge::MaxParent}) {
    // A local step.
    RoundTrip({.Parent = Parent,
               .FromPc = UINT32_MAX,
               .Collapsed = UINT16_MAX,
               .Thread = MaxThreads - 1});
    // An access of every type, and a non-atomic one.
    for (AccessType T : {AccessType::R, AccessType::W, AccessType::RMW})
      RoundTrip({.Parent = Parent,
                 .Thread = MaxThreads - 1,
                 .IsAccess = true,
                 .L = Label{T, 63, 63, 63, false}});
    RoundTrip({.Parent = Parent,
               .Thread = 3,
               .IsAccess = true,
               .L = Label::write(63, 63, /*NA=*/true)});
    // A memory-internal step (a TSO flush).
    RoundTrip({.Parent = Parent, .Thread = MaxThreads - 1, .Internal = true});
  }
  RoundTrip({});

  // What the packing cannot hold is refused rather than truncated.
  EXPECT_FALSE(
      ParentEdge::representable({.Parent = ParentEdge::MaxParent + 1}));
  EXPECT_FALSE(ParentEdge::representable({.Thread = MaxThreads}));
  EXPECT_FALSE(ParentEdge::representable(
      {.FromPc = 1, .IsAccess = true, .L = Label::read(0, 1)}));
  EXPECT_FALSE(ParentEdge::representable({.L = Label::read(2, 0)}));
}
