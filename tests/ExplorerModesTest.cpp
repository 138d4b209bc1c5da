//===- tests/ExplorerModesTest.cpp - Bitstate hashing ---------------------===//

#include "litmus/Corpus.h"
#include "rocker/RobustnessChecker.h"

#include <gtest/gtest.h>

using namespace rocker;

TEST(Bitstate, FindsRealViolations) {
  // Violations found under bitstate hashing are always real.
  Program P = findCorpusEntry("SB").parse();
  RockerOptions O;
  O.BitstateLog2 = 20;
  RockerReport R = checkRobustness(P, O);
  EXPECT_FALSE(R.Robust);
  EXPECT_TRUE(R.Approximate);
}

TEST(Bitstate, GenerousTableMatchesExactVerdicts) {
  // With 2^22 bits for thousands of states, collision probability is
  // negligible; verdicts must match the exact search on the light corpus
  // (deterministic given the fixed hash function).
  for (const CorpusEntry &E : litmusTests()) {
    Program P = E.parse();
    RockerOptions Exact;
    Exact.RecordTrace = false;
    RockerOptions Approx = Exact;
    Approx.BitstateLog2 = 22;
    EXPECT_EQ(checkRobustness(P, Exact).Robust,
              checkRobustness(P, Approx).Robust)
        << E.Name;
  }
}

TEST(Bitstate, TinyTablePrunesButStaysSound) {
  // A deliberately tiny table loses states; the run must terminate and
  // be flagged approximate, and any violation it reports is genuine.
  Program P = findCorpusEntry("seqlock").parse();
  RockerOptions O;
  O.RecordTrace = false;
  O.BitstateLog2 = 10;
  RockerReport R = checkRobustness(P, O);
  EXPECT_TRUE(R.Approximate);
  EXPECT_LE(R.Stats.NumStates, 700'000u);
}
