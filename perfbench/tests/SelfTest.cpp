//===- perfbench/tests/SelfTest.cpp - Tests of the benchmark itself --------===//
///
/// Run through `python3 perfbench/run.py --selftest`, which points
/// PERFBENCH_BENCHMARK_JSON at the repository's BENCHMARK.json.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Generator.h"
#include "Metrics.h"
#include "Stats.h"

#include "lang/Parser.h"
#include "lang/Printer.h"
#include "litmus/Corpus.h"
#include "obs/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>

using namespace perfbench;
using rocker::obs::json::Parser;
using rocker::obs::json::Value;

namespace {

Config smallConfig(const std::string &Workload) {
  Config C;
  C.Workload = Workload;
  C.Seconds = 0; // One pass.
  C.SetupReps = 1;
  C.MinSetupSeconds = 0;
  C.Generated = 20;
  C.WorkDir = ".bench_build/selftest-work";
  C.OutDir = ".bench_build/selftest-out";
  return C;
}

std::vector<double> iota(size_t N) {
  std::vector<double> V(N);
  std::iota(V.begin(), V.end(), 1.0);
  return V;
}

} // namespace

TEST(Generator, SameSeedSameBytes) {
  std::vector<GeneratedProgram> A = generateCorpus(7, 200);
  std::vector<GeneratedProgram> B = generateCorpus(7, 200);
  ASSERT_EQ(A.size(), 200u);
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Name, B[I].Name);
    EXPECT_EQ(A[I].Text, B[I].Text);
  }
}

TEST(Generator, DifferentSeedDifferentOutput) {
  std::vector<GeneratedProgram> A = generateCorpus(7, 50);
  std::vector<GeneratedProgram> B = generateCorpus(8, 50);
  size_t Same = 0;
  for (size_t I = 0; I != A.size(); ++I)
    Same += A[I].Text == B[I].Text;
  EXPECT_LT(Same, A.size() / 2);
}

TEST(Generator, ProgramsAreLoopFreeAndRoundTrip) {
  unsigned Na = 0, Blocking = 0, Rmw = 0, Fence = 0;
  for (const GeneratedProgram &G : generateCorpus(3, 300)) {
    rocker::ParseResult PR = rocker::parseProgram(G.Text);
    ASSERT_TRUE(PR.ok()) << G.Text;
    EXPECT_EQ(rocker::toString(*PR.Prog), G.Text);
    EXPECT_GE(PR.Prog->numThreads(), 2u);
    EXPECT_LE(PR.Prog->numThreads(), 4u);
    EXPECT_EQ(G.Text.find("goto"), std::string::npos) << G.Text;
    Na += G.Text.find("\nna ") != std::string::npos;
    Blocking += G.Text.find("wait(") != std::string::npos ||
                G.Text.find("BCAS(") != std::string::npos;
    Rmw += G.Text.find("XCHG(") != std::string::npos ||
           G.Text.find(":= CAS(") != std::string::npos;
    Fence += G.Text.find("__fence") != std::string::npos;
  }
  // Every access mode the generator promises shows up.
  EXPECT_GT(Na, 0u);
  EXPECT_GT(Blocking, 0u);
  EXPECT_GT(Rmw, 0u);
  EXPECT_GT(Fence, 0u);
}

TEST(Metrics, NamesAndUnitsAreValid) {
  for (const auto *Specs : {&endToEndSpecs(), &perLayerSpecs()})
    for (const MetricSpec &S : *Specs) {
      EXPECT_TRUE(validMetricName(S.Name)) << S.Name;
      EXPECT_FALSE(std::string(S.Unit).empty()) << S.Name;
    }
  EXPECT_FALSE(validMetricName("bad name"));
  EXPECT_FALSE(validMetricName(".leading-dot"));
  EXPECT_FALSE(validMetricName(""));
}

TEST(Metrics, ResultLinePrintsEveryMetricWithItsUnit) {
  for (const auto *Specs : {&endToEndSpecs(), &perLayerSpecs()}) {
    MetricSet M(*Specs);
    for (const MetricSpec &S : *Specs)
      M.set(S.Name, 1.25);
    Outcome O;
    O.verdict(true, "");
    std::optional<Value> V = Parser::parse(resultLine(O, M));
    ASSERT_TRUE(V);
    ASSERT_TRUE(V->find("metrics"));
    for (const MetricSpec &S : *Specs) {
      const Value *E = V->find("metrics")->find(S.Name);
      ASSERT_TRUE(E) << S.Name;
      ASSERT_TRUE(E->find("unit")) << S.Name;
      EXPECT_EQ(E->find("unit")->asString(), S.Unit);
      EXPECT_EQ(E->find("value")->asDouble(), 1.25);
    }
  }
}

TEST(Metrics, SpecsMatchBenchmarkJson) {
  const char *Path = std::getenv("PERFBENCH_BENCHMARK_JSON");
  if (!Path)
    GTEST_SKIP() << "PERFBENCH_BENCHMARK_JSON not set";
  std::ifstream F(Path);
  std::stringstream SS;
  SS << F.rdbuf();
  std::optional<Value> J = Parser::parse(SS.str());
  ASSERT_TRUE(J) << Path;
  auto Check = [&](const char *Key, const std::vector<MetricSpec> &Specs) {
    const Value *L = J->find(Key);
    ASSERT_TRUE(L) << Key;
    ASSERT_EQ(L->items().size(), Specs.size()) << Key;
    for (size_t I = 0; I != Specs.size(); ++I) {
      EXPECT_EQ(L->items()[I].find("name")->asString(), Specs[I].Name);
      EXPECT_EQ(L->items()[I].find("unit")->asString(), Specs[I].Unit);
      EXPECT_EQ(L->items()[I].find("better")->asString(), Specs[I].Better);
    }
  };
  Check("end_to_end", endToEndSpecs());
  Check("per_layer", perLayerSpecs());
  // Every listed workload is one the command runs (corpus-cold is
  // runnable but not listed; see README.md).
  const Value *W = J->find("workloads");
  ASSERT_TRUE(W);
  for (const Value &Item : W->items()) {
    std::string Name = Item.find("name")->asString();
    EXPECT_NE(std::find(workloadNames().begin(), workloadNames().end(), Name),
              workloadNames().end())
        << Name;
  }
}

TEST(Stats, HighestPercentileNeedsTenSamplesBeyond) {
  auto Pick = [](size_t N) {
    std::optional<Tail> T = highestResolvedPercentile(iota(N));
    return T ? T->PerMille : 0u;
  };
  EXPECT_EQ(Pick(1000), 990u); // 10 samples beyond p99.
  EXPECT_EQ(Pick(999), 950u);
  EXPECT_EQ(Pick(200), 950u);
  EXPECT_EQ(Pick(199), 900u);
  EXPECT_EQ(Pick(100), 900u);
  EXPECT_EQ(Pick(40), 750u);
  EXPECT_EQ(Pick(20), 500u);
  EXPECT_EQ(Pick(19), 0u);
  EXPECT_NEAR(highestResolvedPercentile(iota(1000))->Value, 990.01, 1e-9);
  EXPECT_DOUBLE_EQ(median(iota(4)), 2.5);
}

TEST(Gate, WrongExpectedCountFailsTheRun) {
  // SB under default options: not robust, 9 states, 9 transitions.
  LargeRef SB{"SB", rocker::findCorpusEntry("SB").Source, false, 9, 9};
  RunResult Good = runLarge(smallConfig("large-seq"), {SB}, 1);
  EXPECT_EQ(Good.Out.Failed, 0u);
  EXPECT_EQ(exitCode(Good.Out), 0);

  LargeRef Wrong = SB;
  Wrong.States += 1;
  RunResult Bad = runLarge(smallConfig("large-seq"), {Wrong}, 1);
  EXPECT_GT(Bad.Out.failRatio(), 0.0);
  EXPECT_NE(exitCode(Bad.Out), 0);

  LargeRef WrongVerdict = SB;
  WrongVerdict.Robust = true;
  EXPECT_NE(exitCode(runLarge(smallConfig("large-seq"), {WrongVerdict}, 1).Out),
            0);
}

TEST(Gate, TracedPathMatchesFacadeAndSetsEveryLayerMetric) {
  LargeRef SB{"SB", rocker::findCorpusEntry("SB").Source, false, 9, 9};
  LargeRef MP{"MP", rocker::findCorpusEntry("MP").Source, true, 12, 12};
  LargeRef Peterson{"peterson-ra", rocker::findCorpusEntry("peterson-ra").Source,
                    true, 639, 826};
  Config Seq = smallConfig("large-seq");
  Seq.Trace = true;
  RunResult R = runLarge(Seq, {SB, MP}, 1);
  EXPECT_TRUE(R.Out.correct()) << R.Out.Failures.at(0);
  EXPECT_TRUE(R.Metrics.missing().empty());

  // Parallel counts are exact only for full explorations (robust
  // programs); a violation stops the workers at a schedule-dependent
  // point.
  Config Par = smallConfig("large-par");
  Par.Trace = true;
  R = runLarge(Par, {MP, Peterson}, 2);
  EXPECT_TRUE(R.Out.correct()) << R.Out.Failures.at(0);
  EXPECT_TRUE(R.Metrics.missing().empty());
}

TEST(Gate, CorpusWorkloadsAreCorrectAndComplete) {
  for (const char *W : {"corpus-cold", "corpus-warm"})
    for (bool Trace : {false, true}) {
      Config C = smallConfig(W);
      C.Trace = Trace;
      RunResult R = runWorkload(C);
      ASSERT_TRUE(R.SetupError.empty()) << R.SetupError;
      EXPECT_TRUE(R.Out.correct()) << W << " trace=" << Trace;
      EXPECT_EQ(R.Out.Failed, 0u);
      EXPECT_TRUE(R.Metrics.missing().empty()) << W;
    }
}
