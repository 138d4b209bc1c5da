//===- tests/SRATest.cpp - Strong release/acquire machine tests -------------===//
//
// SRA sits strictly between RA and SC: writes take globally maximal
// timestamps, so 2+2W's weak outcome disappears (Example 3.4 notes that
// it is an RA-vs-SRA distinguishing behavior) while SB's and IRIW's
// remain.
//
//===----------------------------------------------------------------------===//

#include "memory/SRAMachine.h"

#include "explore/Explorer.h"
#include "lang/Parser.h"
#include "memory/SCMemory.h"
#include "memory/RAMachine.h"
#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace rocker;

namespace {

/// Is a halted state with the given register predicate reachable?
template <typename MemSys, typename Pred>
bool finalStateReachable(const Program &P, const MemSys &Mem, Pred Ok) {
  ExploreOptions EO;
  EO.RecordParents = false;
  bool Found = false;
  test::forEachReachableState(P, Mem, EO, [&](const auto &S) {
    bool Done = true;
    for (unsigned T = 0; T != P.numThreads(); ++T)
      Done &= S.Threads[T].Pc == P.Threads[T].Insts.size();
    if (Done && Ok(S))
      Found = true;
  });
  return Found;
}

} // namespace

TEST(SRAMachine, StillAllowsSB) {
  Program P = parseProgramOrDie(R"(
vals 2
locs x y
thread t0
  x := 1
  a := y
thread t1
  y := 1
  b := x
)");
  SRAMachine SRA(P);
  EXPECT_TRUE(finalStateReachable(P, SRA, [](const auto &S) {
    return S.Threads[0].Regs[0] == 0 && S.Threads[1].Regs[0] == 0;
  }));
}

TEST(SRAMachine, Forbids2Plus2W) {
  // Example 3.4: under RA both final reads can be 1; under SRA writes
  // take maximal positions, so at least one thread must see the other's
  // later write.
  Program P = parseProgramOrDie(R"(
vals 3
locs x y
thread t0
  x := 1
  y := 2
  a := y
thread t1
  y := 1
  x := 2
  b := x
)");
  auto Weak = [](const auto &S) {
    return S.Threads[0].Regs[0] == 1 && S.Threads[1].Regs[0] == 1;
  };
  EXPECT_TRUE(finalStateReachable(P, RAMachine(P), Weak));
  EXPECT_FALSE(finalStateReachable(P, SRAMachine(P), Weak));
}

TEST(SRAMachine, StillNonMultiCopyAtomic) {
  // IRIW stays allowed under SRA (unlike under TSO).
  Program P = parseProgramOrDie(R"(
vals 2
locs x y
thread w0
  x := 1
thread r0
  a := x
  b := y
thread r1
  c := y
  d := x
thread w1
  y := 1
)");
  auto Weak = [](const auto &S) {
    return S.Threads[1].Regs[0] == 1 && S.Threads[1].Regs[1] == 0 &&
           S.Threads[2].Regs[0] == 1 && S.Threads[2].Regs[1] == 0;
  };
  EXPECT_TRUE(finalStateReachable(P, SRAMachine(P), Weak));
}

TEST(SRAMachine, ContainsSCAndIsContainedInRA) {
  // On small random-ish programs: SC-reachable program states ⊆
  // SRA-reachable ⊆ RA-reachable.
  const char *Srcs[] = {
      R"(
vals 3
locs x y
thread t0
  x := 1
  a := y
  y := 2
thread t1
  y := 1
  b := x
  x := 2
)",
      R"(
vals 2
locs x
thread t0
  r := CAS(x, 0 => 1)
thread t1
  s := FADD(x, 1)
  t := x
)",
  };
  for (const char *Src : Srcs) {
    Program P = parseProgramOrDie(Src);
    ExploreOptions EO;
    EO.RecordParents = false;
    EO.CollectProgramStates = true;

    SCMemory SC(P);
    ProductExplorer<SCMemory> ExSc(P, SC, EO);
    auto RSc = ExSc.run();
    SRAMachine SRA(P);
    ProductExplorer<SRAMachine> ExSra(P, SRA, EO);
    auto RSra = ExSra.run();
    RAMachine RA(P);
    ProductExplorer<RAMachine> ExRa(P, RA, EO);
    auto RRa = ExRa.run();

    for (const std::string &K : RSc.ProgramStates)
      EXPECT_TRUE(RSra.ProgramStates.count(K)) << Src;
    for (const std::string &K : RSra.ProgramStates)
      EXPECT_TRUE(RRa.ProgramStates.count(K)) << Src;
  }
}

TEST(SRAMachine, RmwsReadOnlyMaximalMessage) {
  // Under SRA an RMW must extend the mo-maximal message; after two
  // unsynchronized increments the counter is always exactly 2.
  Program P = parseProgramOrDie(R"(
vals 4
locs x
thread t0
  a := FADD(x, 1)
thread t1
  b := FADD(x, 1)
thread t2
  wait(x == 2)
)");
  SRAMachine SRA(P);
  EXPECT_TRUE(finalStateReachable(P, SRA, [](const auto &S) {
    return true; // The wait(x == 2) gate is the assertion.
  }));
}
