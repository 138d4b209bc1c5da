//===- perfbench/src/main.cpp - The repo benchmark command -----------------===//
///
/// \file
/// rocker_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                  [--git-sha SHA]
///
/// Prints a provenance line, a summary line, and, last, the result line
/// {"correct", "attempted", "failed", "metrics"}; writes the same record
/// to .bench_out/. Exits 0 only when every verdict matched its reference.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Metrics.h"

#include "support/ParseNum.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: rocker_perfbench --workload "
               "large-seq|large-par|corpus-cold|corpus-warm --seed N "
               "--seconds S --trace 0|1 [--git-sha SHA]\n",
               Msg);
  return 3;
}

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

} // namespace

int main(int Argc, char **Argv) {
  Config C;
  std::string GitSha = "unknown";
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    if (A == "--workload") {
      C.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      std::optional<uint64_t> N = rocker::num::parseU64(V);
      if (!N)
        return usage("bad --seed");
      C.Seed = *N;
    } else if (A == "--seconds") {
      std::optional<double> S = rocker::num::parseF64(V);
      if (!S || *S < 0)
        return usage("bad --seconds");
      C.Seconds = *S;
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        return usage("bad --trace");
      C.Trace = V == "1";
    } else if (A == "--git-sha") {
      GitSha = V;
    } else {
      return usage(("unknown flag " + A).c_str());
    }
  }
  const std::vector<std::string> &Names = workloadNames();
  if (!HaveWorkload ||
      std::find(Names.begin(), Names.end(), C.Workload) == Names.end())
    return usage("unknown or missing --workload");

  std::string Provenance =
      "{\"workload\": " + jsonString(C.Workload) +
      ", \"seed\": " + std::to_string(C.Seed) +
      ", \"seconds\": " + fmtNumber(C.Seconds) +
      ", \"trace\": " + (C.Trace ? "true" : "false") +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"parallelism\": " + std::to_string(C.Parallelism) +
      ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
      ", \"compiler\": " + jsonString(__VERSION__) +
      ", \"git_sha\": " + jsonString(GitSha) + "}";
  std::printf("{\"provenance\": %s}\n", Provenance.c_str());
  std::fflush(stdout);

  RunResult R = runWorkload(C);
  if (!R.SetupError.empty()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 R.SetupError.c_str());
    return 2;
  }
  if (std::vector<std::string> Missing = R.Metrics.missing();
      !Missing.empty()) {
    std::fprintf(stderr, "perfbench: internal error: metric %s not set\n",
                 Missing.front().c_str());
    return 4;
  }
  for (const std::string &F : R.Out.Failures)
    std::fprintf(stderr, "perfbench: MISMATCH %s\n", F.c_str());

  std::string Summary = "{\"fail_ratio\": " + fmtNumber(R.Out.failRatio()) +
                        ", \"attempted\": " + std::to_string(R.Out.Attempted);
  for (const auto &[K, V] : R.Notes)
    Summary += ", " + jsonString(K) + ": " + V;
  Summary += "}";
  std::string Result = resultLine(R.Out, R.Metrics);

  std::string RecordPath = C.OutDir + "/" + C.Workload + "-seed" +
                           std::to_string(C.Seed) + "-trace" +
                           (C.Trace ? "1" : "0") + ".json";
  std::ofstream Rec(RecordPath);
  Rec << "{\"provenance\": " << Provenance << ",\n \"summary\": " << Summary
      << ",\n \"result\": " << Result << "}\n";

  std::printf("{\"summary\": %s}\n%s\n", Summary.c_str(), Result.c_str());
  return exitCode(R.Out);
}
