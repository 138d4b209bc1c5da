//===- tests/FuzzTest.cpp - Cross-validation property tests -----------------===//
//
// Random loop-free programs, checked four ways:
//  * Theorem 5.3: Rocker's SCM verdict (full monitor) equals the direct
//    execution-graph robustness oracle (P×RAG exploration + Lemma A.11).
//  * Section 5.1: the abstract monitor gives the same verdict as the full
//    monitor.
//  * Proposition 4.10: execution-graph robustness implies state
//    robustness.
//  * Lemmas 4.6/4.8/3.7: the operational machines agree with their graph
//    presentations, and SC-reachable states are RA-reachable.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "lang/Printer.h"
#include "rocker/Oracles.h"
#include "rocker/RobustnessChecker.h"

#include <gtest/gtest.h>

using namespace rocker;
using namespace rocker::test;

namespace {

RockerOptions fullOpts() {
  RockerOptions O;
  O.UseCriticalAbstraction = false;
  O.CheckAssertions = false;
  O.CheckRaces = false;
  O.RecordTrace = false;
  return O;
}

RockerOptions abstractOpts() {
  RockerOptions O = fullOpts();
  O.UseCriticalAbstraction = true;
  return O;
}

} // namespace

TEST(Fuzz, RockerMatchesGraphOracleAndAbstractMatchesFull) {
  std::mt19937 Rng(20190622);
  unsigned OracleChecked = 0, RobustSeen = 0, NonRobustSeen = 0;
  for (unsigned I = 0; I != 250; ++I) {
    Program P = randomProgram(Rng);
    RockerReport Full = checkRobustness(P, fullOpts());
    RockerReport Abs = checkRobustness(P, abstractOpts());
    ASSERT_TRUE(Full.Complete && Abs.Complete);
    EXPECT_EQ(Full.Robust, Abs.Robust)
        << "abstract/full divergence on:\n"
        << toString(P);

    OracleResult O = checkGraphRobustnessOracle(P, 400'000);
    if (!O.Complete)
      continue;
    ++OracleChecked;
    (Full.Robust ? RobustSeen : NonRobustSeen)++;
    EXPECT_EQ(Full.Robust, O.Robust)
        << "SCM verdict diverges from the RAG oracle on:\n"
        << toString(P) << "\noracle detail: " << O.Detail
        << "\nrocker: " << Full.FirstViolationText;
  }
  // The sample must exercise both verdicts to be meaningful.
  EXPECT_GT(OracleChecked, 150u);
  EXPECT_GT(RobustSeen, 20u);
  EXPECT_GT(NonRobustSeen, 20u);
}

TEST(Fuzz, NaRaceVerdictsMatchRagNaOracle) {
  // Theorem 6.2: robustness with non-atomics = no RA-loc witness and no
  // racy SC state; the RAG+NA oracle decides the same property via the
  // ⊥ transition and SC-consistency. Both must agree on random programs
  // with a non-atomic location.
  std::mt19937 Rng(60606);
  RandomProgramOptions O;
  O.NumNaLocs = 1;
  O.MaxInstsPerThread = 4;
  unsigned Conclusive = 0, Racy = 0;
  for (unsigned I = 0; I != 120; ++I) {
    Program P = randomProgram(Rng, O);
    RockerOptions RO;
    RO.RecordTrace = false;
    RO.CheckAssertions = false;
    RO.CheckRaces = true;
    RockerReport R = checkRobustness(P, RO);
    ASSERT_TRUE(R.Complete);
    OracleResult Orc =
        checkGraphRobustnessOracle(P, 400'000, /*NaExtension=*/true);
    if (!Orc.Complete)
      continue;
    ++Conclusive;
    if (!R.Robust)
      ++Racy;
    EXPECT_EQ(R.Robust, Orc.Robust)
        << "SCM (Thm 6.2 checks) vs RAG+NA oracle divergence on:\n"
        << toString(P) << "\noracle: " << Orc.Detail << "\nrocker: "
        << R.FirstViolationText;
  }
  EXPECT_GT(Conclusive, 80u);
  EXPECT_GT(Racy, 10u); // The sample must contain racy programs.
}

TEST(Fuzz, BlockingPrimitivesAgreeWithOracle) {
  // wait/BCAS change which labels are enabled (and hence the Theorem 5.3
  // conditions); the oracle sees the same restriction through RAG's
  // enabled transitions.
  std::mt19937 Rng(70707);
  RandomProgramOptions O;
  O.AllowBlocking = true;
  O.MaxInstsPerThread = 4;
  unsigned Conclusive = 0;
  for (unsigned I = 0; I != 120; ++I) {
    Program P = randomProgram(Rng, O);
    RockerReport Full = checkRobustness(P, fullOpts());
    RockerReport Abs = checkRobustness(P, abstractOpts());
    ASSERT_TRUE(Full.Complete && Abs.Complete);
    EXPECT_EQ(Full.Robust, Abs.Robust) << toString(P);
    OracleResult Orc = checkGraphRobustnessOracle(P, 400'000);
    if (!Orc.Complete)
      continue;
    ++Conclusive;
    EXPECT_EQ(Full.Robust, Orc.Robust)
        << toString(P) << "\noracle: " << Orc.Detail;
  }
  EXPECT_GT(Conclusive, 80u);
}

TEST(Fuzz, ParallelEngineMatchesSequentialOnRandomPrograms) {
  // The work-stealing engine (src/parexplore) must agree with the
  // sequential engine on verdict, state count, and transition count for
  // arbitrary programs — full exploration, so the counts are
  // order-independent and exactly comparable.
  std::mt19937 Rng(20260805);
  unsigned NonRobustSeen = 0;
  for (unsigned I = 0; I != 150; ++I) {
    Program P = randomProgram(Rng);
    RockerOptions O;
    O.StopOnViolation = false;
    O.RecordTrace = false;
    for (unsigned Threads : {2u, 4u}) {
      RockerOptions PO = O;
      PO.Threads = Threads;
      RockerReport Seq = checkRobustness(P, O);
      RockerReport Par = checkRobustness(P, PO);
      ASSERT_TRUE(Seq.Complete && Par.Complete);
      EXPECT_EQ(Seq.Robust, Par.Robust)
          << "sequential/parallel verdict divergence at " << Threads
          << " threads on:\n"
          << toString(P);
      EXPECT_EQ(Seq.Stats.NumStates, Par.Stats.NumStates) << toString(P);
      EXPECT_EQ(Seq.Stats.NumTransitions, Par.Stats.NumTransitions)
          << toString(P);
      if (!Seq.Robust)
        ++NonRobustSeen;

      // SC assertion checking must agree as well.
      RockerReport SeqSc = exploreSC(P, O);
      RockerReport ParSc = exploreSC(P, PO);
      EXPECT_EQ(SeqSc.Robust, ParSc.Robust) << toString(P);
      EXPECT_EQ(SeqSc.Stats.NumStates, ParSc.Stats.NumStates)
          << toString(P);
    }
  }
  EXPECT_GT(NonRobustSeen, 30u); // The sample must exercise violations.
}

TEST(Fuzz, GraphRobustImpliesStateRobust) {
  std::mt19937 Rng(42);
  for (unsigned I = 0; I != 120; ++I) {
    Program P = randomProgram(Rng);
    RockerReport R = checkRobustness(P, abstractOpts());
    if (!R.Robust)
      continue;
    OracleResult SR = checkStateRobustnessOracle(P, 400'000);
    if (!SR.Complete)
      continue;
    EXPECT_TRUE(SR.Robust)
        << "execution-graph robust but not state robust?!\n"
        << toString(P);
  }
}

TEST(Fuzz, RAMachineAgreesWithRAG) {
  std::mt19937 Rng(7);
  RandomProgramOptions O;
  O.MaxInstsPerThread = 4; // RAG exploration is expensive.
  unsigned Conclusive = 0;
  for (unsigned I = 0; I != 60; ++I) {
    Program P = randomProgram(Rng, O);
    std::optional<bool> Match = crossCheckRAMachineVsRAG(P, 400'000);
    if (!Match)
      continue; // State budget hit; inconclusive.
    ++Conclusive;
    EXPECT_TRUE(*Match) << "RA machine/RAG divergence (Lemma 4.8) on:\n"
                        << toString(P);
  }
  EXPECT_GT(Conclusive, 40u);
}

TEST(Fuzz, SCAgreesWithSCGAndIsContainedInRA) {
  std::mt19937 Rng(99);
  for (unsigned I = 0; I != 80; ++I) {
    Program P = randomProgram(Rng);
    std::optional<bool> Scg = crossCheckSCVsSCG(P);
    if (Scg) {
      EXPECT_TRUE(*Scg) << toString(P);
    }
    std::optional<bool> Sub = crossCheckSCSubsetOfRA(P);
    if (Sub) {
      EXPECT_TRUE(*Sub) << toString(P);
    }
  }
}
