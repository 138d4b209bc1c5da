//===- tests/GoldenTraceTest.cpp - Byte-stable counterexample text ----------===//
//
// The sequential engine stores each trace edge as (thread, label, pc,
// collapse count) and renders its text only when a trace is printed. These
// fixtures pin that rendering: FirstViolationText under default options
// for every not-robust Figure 7 and litmus program, plus one
// CollapseLocalSteps run whose trace prints a "local xN:" step, must match
// tests/fixtures/golden_traces/ byte for byte. A program whose spin loop
// steps from a state to itself must still yield a finite trace.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "litmus/Corpus.h"
#include "rocker/RobustnessChecker.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace rocker;

namespace {

/// Reads a fixture; a missing file reads as a marker no report can equal.
std::string readFixture(const std::string &Name) {
  std::ifstream In(std::string(ROCKER_FIXTURES_DIR) + "/golden_traces/" +
                       Name + ".txt",
                   std::ios::binary);
  if (!In)
    return "<missing fixture " + Name + ">";
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Default options with POR pinned on: the CI pass under ROCKER_NO_POR
/// flips the default, and the reduction changes which shortest path BFS
/// reports.
RockerOptions goldenOptions() {
  RockerOptions O;
  O.UsePor = true;
  return O;
}

/// SB with a three-step local chain in t0 ahead of its read.
const char *CollapseSrc = R"(
vals 4
locs x y
thread t0
  x := 1
  r := 1
  r := r + 1
  r := r + 1
  a := y
thread t1
  y := 1
  b := x
)";

} // namespace

TEST(GoldenTrace, NotRobustCorpusTextsMatchFixtures) {
  unsigned Checked = 0;
  for (const auto *List : {&litmusTests(), &figure7Programs()})
    for (const CorpusEntry &E : *List) {
      if (E.ExpectRobust)
        continue;
      RockerReport R = checkRobustness(E.parse(), goldenOptions());
      ASSERT_FALSE(R.Robust) << E.Name;
      EXPECT_EQ(R.FirstViolationText, readFixture(E.Name)) << E.Name;
      ++Checked;
    }
  EXPECT_EQ(Checked, 16u);
}

TEST(GoldenTrace, CollapsedLocalStepTextMatchesFixture) {
  RockerOptions O = goldenOptions();
  O.CollapseLocalSteps = true;
  RockerReport R = checkRobustness(parseProgramOrDie(CollapseSrc), O);
  ASSERT_FALSE(R.Robust);
  EXPECT_NE(R.FirstViolationText.find("local x3: "), std::string::npos);
  EXPECT_EQ(R.FirstViolationText, readFixture("collapse-local-steps"));
}

TEST(GoldenTrace, SelfLoopStepLeavesTraceFinite) {
  // t0's only step leads back to the state it leaves. Taken from the
  // newest state, that step once recorded the state as its own parent,
  // and trace reconstruction never reached the root.
  std::ifstream In(std::string(ROCKER_FIXTURES_DIR) + "/self_loop.rkr");
  std::ostringstream Src;
  Src << In.rdbuf();
  Program P = parseProgramOrDie(Src.str());
  struct Mode {
    const char *Name;
    bool UsePor;
    unsigned Threads;
  };
  for (const Mode &M : {Mode{"default", true, 1}, Mode{"no-por", false, 1},
                        Mode{"threads-2", true, 2}}) {
    RockerOptions O;
    O.UsePor = M.UsePor;
    O.Threads = M.Threads;
    RockerReport R = checkRobustness(P, O);
    ASSERT_FALSE(R.Robust) << M.Name;
    ASSERT_EQ(R.FirstViolationTrace.size(), 2u) << M.Name;
    EXPECT_EQ(R.FirstViolationTrace[0].Thread, 1u) << M.Name;
    EXPECT_EQ(R.FirstViolationTrace[0].Text, "W(x,1)") << M.Name;
    EXPECT_EQ(R.FirstViolationTrace[1].Thread, 1u) << M.Name;
    EXPECT_EQ(R.FirstViolationTrace[1].Text, "R(x,1)") << M.Name;
    EXPECT_NE(R.FirstViolationText.find("assertion failed"),
              std::string::npos)
        << M.Name;
  }
}
