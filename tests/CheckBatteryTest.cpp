//===- tests/CheckBatteryTest.cpp - Engines agree on the per-state checks ===//
//
// The sequential engine, the parallel engine (at one worker, where its
// owner-LIFO deque searches depth-first, and at four) and the sampler
// run one check battery (explore/Expand.h): assertions, the access hook,
// and the Definition 6.1 race scan. On each program below every engine
// must reach the same verdict and report the same violation kind and
// Detail text:
//
//  * a program that fails an assertion;
//  * a program with a race on a non-atomic location;
//  * a program whose racy state has an ample thread, so non-trace runs
//    first meet the race while fast-forwarding an ample chain rather than
//    while expanding a stored state.
//
// The parallel engine runs with its sequential replay off, so its own
// findings are compared. The exact engines run in trace and non-trace
// mode; only the latter fast-forwards. POR is pinned on so the chained
// case holds under ROCKER_NO_POR=1 too.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "memory/SCMemory.h"
#include "obs/Telemetry.h"
#include "parexplore/ParallelExplorer.h"
#include "sample/Sampler.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace rocker;

namespace {

/// SeqBfs is the sequential (breadth-first) engine; SeqDfs is one
/// depth-first worker, the parallel engine at one worker; Par4 is four.
enum class Engine { SeqBfs, SeqDfs, Par4, Sample };

struct Case {
  const char *Name;
  const char *Source;
  Violation::Kind Kind;
  const char *Detail;
};

const Case Cases[] = {
    {"assert", R"(
vals 2
locs x
thread t0
  x := 1
thread t1
  a := x
  assert(a == 0)
)",
     Violation::Kind::AssertFail, "assertion failed: assert((a == 0))"},
    {"race", R"(
vals 2
locs f
na d
thread t0
  d := 1
thread t1
  a := d
)",
     Violation::Kind::Race, "data race on non-atomic 'd' between t0 and t1"},
    // From the initial state t0's and then t1's register step are ample,
    // and at the racy state (t0 at `d := 1`, t1 at `a := d`) t2's write to
    // the private location z is.
    {"chained_race", R"(
vals 2
locs z
na d
thread t0
  r := 0
  d := 1
thread t1
  r := 0
  a := d
thread t2
  z := 1
)",
     Violation::Kind::Race, "data race on non-atomic 'd' between t0 and t1"},
};

const char *engineName(Engine E) {
  switch (E) {
  case Engine::SeqBfs:
    return "SeqBfs";
  case Engine::SeqDfs:
    return "SeqDfs";
  case Engine::Par4:
    return "Par4";
  case Engine::Sample:
    return "Sample";
  }
  return "?";
}

/// The sampler appends the sample that found a violation to its Detail.
std::string checkDetail(const Violation &V) {
  size_t Cut = V.Detail.find("; found by sample #");
  return Cut == std::string::npos ? V.Detail : V.Detail.substr(0, Cut);
}

/// Runs \p E on \p P under plain SC with every check on and returns the
/// violations it reports.
std::vector<Violation> runEngine(Engine E, const Program &P, bool Trace) {
  SCMemory Mem(P);
  switch (E) {
  case Engine::SeqBfs: {
    ExploreOptions O;
    O.CheckRaces = true;
    O.RecordParents = Trace;
    O.UsePor = true;
    return ProductExplorer<SCMemory>(P, Mem, O).run().Violations;
  }
  case Engine::SeqDfs:
  case Engine::Par4: {
    ParExploreOptions O;
    O.Threads = E == Engine::SeqDfs ? 1 : 4;
    O.CheckRaces = true;
    O.RecordTrace = Trace;
    O.ReplayOnViolation = false;
    O.UsePor = true;
    return ParallelExplorer<SCMemory>(P, Mem, O).run().Violations;
  }
  case Engine::Sample: {
    sample::SampleOptions O;
    O.CheckRaces = true;
    return sample::SampleEngine<SCMemory>(P, Mem, O).run().Violations;
  }
  }
  return {};
}

class CheckBattery
    : public ::testing::TestWithParam<std::tuple<Engine, unsigned>> {};

TEST_P(CheckBattery, EnginesReportTheSameViolation) {
  auto [E, CaseIdx] = GetParam();
  const Case &C = Cases[CaseIdx];
  Program P = parseProgramOrDie(C.Source);
  for (bool Trace : {true, false}) {
    if (E == Engine::Sample && !Trace)
      continue; // The sampler has no trace mode to vary.
    std::string What = std::string(engineName(E)) + " " + C.Name +
                       " trace=" + std::to_string(Trace);
    std::vector<Violation> Vs = runEngine(E, P, Trace);
    ASSERT_FALSE(Vs.empty()) << What << ": verdict differs";
    // The parallel engine may record a violation on each worker before
    // the stop lands; all of them must be this one.
    for (const Violation &V : Vs) {
      EXPECT_EQ(V.K, C.Kind) << What;
      EXPECT_EQ(checkDetail(V), C.Detail) << What;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, CheckBattery,
    ::testing::Combine(::testing::Values(Engine::SeqBfs, Engine::SeqDfs,
                                         Engine::Par4, Engine::Sample),
                       ::testing::Range(0u, static_cast<unsigned>(
                                                std::size(Cases)))),
    [](const auto &Info) {
      return std::string(engineName(std::get<0>(Info.param))) + "_" +
             Cases[std::get<1>(Info.param)].Name;
    });

// The third case is only meaningful if a non-trace run really meets the
// race inside an ample chain: fast-forwarding must fire and store fewer
// states than the trace run, which interns every reduced state. Without
// StopOnViolation the racy chain state and the stored chain endpoint it
// leads to both report the race, so the chain's race scan shows in the
// violation count.
TEST(CheckBattery, ChainedCaseIsFastForwarded) {
  Program P = parseProgramOrDie(Cases[2].Source);
  SCMemory Mem(P);
  ExploreOptions O;
  O.CheckRaces = true;
  O.StopOnViolation = false;
  O.UsePor = true;
  O.RecordParents = true;
  ExploreResult Traced = ProductExplorer<SCMemory>(P, Mem, O).run();
  O.RecordParents = false;
  obs::Snapshot Before = obs::snapshot();
  ExploreResult Plain = ProductExplorer<SCMemory>(P, Mem, O).run();
  obs::Snapshot D = obs::diff(obs::snapshot(), Before);
  EXPECT_LT(Plain.Stats.NumStates, Traced.Stats.NumStates);
  EXPECT_EQ(Traced.Violations.size(), 2u);
  EXPECT_EQ(Plain.Violations.size(), Traced.Violations.size());
  if constexpr (obs::telemetryEnabled()) {
    EXPECT_GT(D.counter(obs::Ctr::PorChainedStates), 0u);
  }
}

} // namespace
