//===- tests/ConfigMatrixTest.cpp - Corpus × configuration sweep ------------===//
//
// Every light corpus program must keep its expected verdict under every
// combination of checker configuration: {full, abstract monitor} ×
// {breadth-first, depth-first search} × {ε-collapse on, off}. The
// verdict is a semantic property of the program (Theorem 5.3); none of
// these engineering knobs may change it. The breadth-first search is the
// sequential engine; the depth-first one is the parallel engine at one
// worker, whose owner-LIFO deque always expands the newest state.
//
//===----------------------------------------------------------------------===//

#include "litmus/Corpus.h"
#include "monitor/SCMState.h"
#include "parexplore/ParallelExplorer.h"
#include "rocker/RobustnessChecker.h"
#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace rocker;

namespace {

/// The search order of a matrix cell. One byte, as SearchOrder was, so
/// the printed test parameters stay the same.
enum class Order : uint8_t { Bfs, Dfs };

/// The robustness verdict of \p P from one depth-first worker: the
/// checkRobustness monitor hook on the parallel engine at one worker.
/// Returns nullopt when the run did not complete.
std::optional<bool> depthFirstRobust(const Program &P, bool Abstract,
                                     bool Collapse) {
  SCMonitor Mem(P, Abstract);
  ParExploreOptions O;
  O.Threads = 1;
  O.CheckRaces = RockerOptions().CheckRaces;
  O.CollapseLocalSteps = Collapse;
  O.RecordTrace = false;
  O.ReplayOnViolation = false;
  O.MaxStates = 4'000'000;
  ParExploreResult R = ParallelExplorer<SCMonitor>(P, Mem, O).runWithHook(
      [&](const SCMState &S, ThreadId T, uint32_t,
          const MemAccess &A) -> std::optional<Violation> {
        if (!Mem.checkAccess(S, T, A))
          return std::nullopt;
        Violation V;
        V.K = Violation::Kind::Robustness;
        return V;
      });
  if (R.Stats.Truncated)
    return std::nullopt;
  return R.Violations.empty();
}

} // namespace

using MatrixParam = std::tuple<std::string, bool, Order, bool>;

class ConfigMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(ConfigMatrix, VerdictIsConfigurationInvariant) {
  const auto &[Name, Abstract, Walk, Collapse] = GetParam();
  const CorpusEntry &E = findCorpusEntry(Name);
  Program P = E.parse();
  if (Walk == Order::Dfs) {
    std::optional<bool> Robust = depthFirstRobust(P, Abstract, Collapse);
    ASSERT_TRUE(Robust.has_value()) << Name;
    EXPECT_EQ(*Robust, E.ExpectRobust) << Name;
    return;
  }
  RockerOptions O;
  O.UseCriticalAbstraction = Abstract;
  O.CollapseLocalSteps = Collapse;
  O.RecordTrace = false;
  O.MaxStates = 4'000'000;
  RockerReport R = checkRobustness(P, O);
  ASSERT_TRUE(R.Complete) << Name;
  EXPECT_EQ(R.Robust, E.ExpectRobust) << Name;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ConfigMatrix,
    ::testing::Combine(::testing::ValuesIn(test::lightCorpusPrograms()),
                       ::testing::Bool(),
                       ::testing::Values(Order::Bfs, Order::Dfs),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<MatrixParam> &Info) {
      std::string Name = std::get<0>(Info.param);
      for (char &C : Name)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      Name += std::get<1>(Info.param) ? "_abs" : "_full";
      Name += std::get<2>(Info.param) == Order::Dfs ? "_dfs" : "_bfs";
      Name += std::get<3>(Info.param) ? "_collapse" : "_plain";
      return Name;
    });
