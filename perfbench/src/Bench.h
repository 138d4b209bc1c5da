//===- perfbench/src/Bench.h - Workloads of the repo benchmark -*- C++ -*-===//
///
/// \file
/// The four workloads of the benchmark (see perfbench/README.md for why
/// each exists):
///
///   large-seq    lamport2-3-ra then seqlock through checkRobustness with
///                default RockerOptions (the sequential engine), one
///                client in a closed loop;
///   large-par    the same two programs with Threads = min(4, nproc);
///   corpus-cold  litmus + Figure 7 corpus (minus the two large programs)
///                plus the seeded generated programs through
///                serve::runBatch into an empty verdict cache;
///   corpus-warm  the same jobs against a cache filled during set-up.
///
/// Every verdict is checked against a reference that does not use the
/// SCM monitor: the paper's verdicts for the corpus, the P×RAG graph
/// oracle for generated programs, and exact state/transition counts for
/// the large programs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Metrics.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// min(4, hardware threads): engine workers on large-par, batch jobs on
/// the corpus workloads.
unsigned defaultParallelism();

struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;   ///< Timed-pass budget; at least one pass runs.
  bool Trace = false;    ///< Traced run: per-layer metrics.
  unsigned Parallelism = defaultParallelism();
  unsigned Generated = 2000; ///< Seeded programs added to the corpus.
  /// Set-up runs at least SetupReps times and for at least
  /// MinSetupSeconds; setup_s is the median repetition.
  unsigned SetupReps = 3;
  double MinSetupSeconds = 0.2;
  std::string WorkDir = ".bench_work"; ///< Verdict caches (temporary).
  std::string OutDir = ".bench_out";   ///< Traces and result records.
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// A large fixed input with its exact reference (default options:
/// POR, compressed visited set, trace recording on). Counts are exact on
/// the parallel engine only for full explorations, i.e. robust programs.
struct LargeRef {
  std::string Name;
  std::string Text;
  bool Robust = true;
  uint64_t States = 0;
  uint64_t Transitions = 0;
};

/// lamport2-3-ra and seqlock, from the corpus registry's text.
std::vector<LargeRef> largeRefs();

/// One run's outcome.
struct RunResult {
  explicit RunResult(bool Trace)
      : Metrics(Trace ? perLayerSpecs() : endToEndSpecs()) {}
  Outcome Out;
  MetricSet Metrics;
  /// Set-up could not produce a reference (the command then exits
  /// nonzero without a result line).
  std::string SetupError;
  /// Extra facts for the result record: name → JSON value.
  std::vector<std::pair<std::string, std::string>> Notes;
};

/// Runs \p C.Workload (one of workloadNames()).
RunResult runWorkload(const Config &C);

/// The large-* workload over \p Refs with \p Threads engine workers;
/// exposed so the self-tests can inject a wrong reference.
RunResult runLarge(const Config &C, const std::vector<LargeRef> &Refs,
                   unsigned Threads);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
