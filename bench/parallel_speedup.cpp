//===- bench/parallel_speedup.cpp - Parallel-engine scaling ----------------===//
//
// Measures the work-stealing engine (src/parexplore) against the
// sequential baseline on the Figure 7 corpus. Programs are first sized
// at 1 thread; those with at
// least --min-states reachable product states (default 1e5 — smaller
// spaces are dominated by thread startup and dedup-set contention) are
// then re-run at 2, 4, 8, 16, and 32 threads plus hardware concurrency,
// clamped to the machine (--max-threads overrides the clamp for
// oversubscription/correctness runs). Times are the engine-reported
// Stats.Seconds, so the numbers match what rocker_cli --stats prints
// and exclude program parsing.
//
// Each thread-count cell runs --reps times (default 3) and keeps the
// best states/sec; the reps of all cells are interleaved so
// minute-scale machine-load drift hits every configuration instead of
// whichever ran last. Verdicts and state counts must be identical to
// the sequential baseline for every cell — a mismatch marks the row
// and the process exit code.
//
// Usage: parallel_speedup [--min-states N] [--reps N] [--max-threads N]
//                         [--json FILE] [program-name ...]
//        (--max-threads 0 = hardware concurrency, the default; values
//        above the hardware count are honored as explicit
//        oversubscription requests, where the >hw columns measure
//        correctness overhead, not scaling)
//
// --json writes schema rocker-bench-speedup/1; CI diffs it against the
// checked-in BENCH_speedup.json with bench/report_diff.py, which fails
// on verdict/state-count drift and warns on speedup regressions (times
// are machine-dependent, equivalence is not).
//
//===----------------------------------------------------------------------===//

#include "litmus/Corpus.h"
#include "obs/Telemetry.h"
#include "rocker/RobustnessChecker.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace rocker;

namespace {

struct CellResult {
  double Seconds = 0;
  double StatesPerSec = 0;
  double Speedup = 0;
  uint64_t CasRetries = 0; ///< Telemetry delta of the best rep.
  bool CountsMatch = true;
};

struct Row {
  std::string Name;
  uint64_t States = 0;
  bool Robust = false;
  double SeqSeconds = 0;
  bool CountsMatch = true;
  std::vector<CellResult> Cells; ///< Indexed like the thread ladder.
};

RockerReport runOnce(const Program &P, unsigned Threads) {
  RockerOptions O;
  O.RecordTrace = false;
  O.StopOnViolation = false; // Full exploration: comparable work.
  O.MaxStates = 4'000'000;
  O.Threads = Threads;
  return checkRobustness(P, O);
}

/// The thread ladder: {2,4,8,16,32} clamped to \p MaxThreads, plus
/// MaxThreads itself when it is not already a rung.
std::vector<unsigned> threadLadder(unsigned MaxThreads) {
  std::vector<unsigned> L;
  for (unsigned T : {2u, 4u, 8u, 16u, 32u})
    if (T <= MaxThreads)
      L.push_back(T);
  if (MaxThreads > 1 &&
      std::find(L.begin(), L.end(), MaxThreads) == L.end())
    L.push_back(MaxThreads);
  return L;
}

} // namespace

int main(int argc, char **argv) {
  uint64_t MinStates = 100'000;
  unsigned Reps = 3;
  unsigned MaxThreads = 0;
  const char *JsonPath = nullptr;
  std::vector<std::string> Only;
  for (int I = 1; I != argc; ++I) {
    if (!std::strcmp(argv[I], "--min-states") && I + 1 != argc)
      MinStates = std::strtoull(argv[++I], nullptr, 10);
    else if (!std::strcmp(argv[I], "--reps") && I + 1 != argc)
      Reps = static_cast<unsigned>(std::strtoul(argv[++I], nullptr, 10));
    else if (!std::strcmp(argv[I], "--max-threads") && I + 1 != argc)
      MaxThreads =
          static_cast<unsigned>(std::strtoul(argv[++I], nullptr, 10));
    else if (!std::strcmp(argv[I], "--json") && I + 1 != argc)
      JsonPath = argv[++I];
    else
      Only.push_back(argv[I]);
  }
  if (Reps == 0)
    Reps = 1;
  unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
  if (MaxThreads == 0)
    MaxThreads = Hw;
  std::vector<unsigned> Ladder = threadLadder(MaxThreads);

  std::printf("hardware threads: %u (ladder cap %u%s)\n", Hw, MaxThreads,
              MaxThreads > Hw ? ", oversubscribed — >hw columns measure "
                                "correctness overhead, not scaling"
                              : "");
  std::printf("%-20s | %9s | %8s | %2s | %8s %5s\n", "Program",
              "States", "T1[s]", "#T", "Tn[s]", "x");
  std::printf("%s\n", std::string(66, '-').c_str());

  std::vector<Row> Rows;
  bool AllMatch = true;
  for (const CorpusEntry &E : figure7Programs()) {
    if (!Only.empty() &&
        std::find(Only.begin(), Only.end(), E.Name) == Only.end())
      continue;
    Program P = E.parse();

    // Warmup + sizing: the first exploration pays allocator and
    // page-cache cold costs that would otherwise be charged to the
    // sequential baseline and inflate every speedup.
    RockerReport Seq = runOnce(P, 1);
    if (Seq.Stats.NumStates < MinStates) {
      if (!Only.empty())
        std::printf("%-20s | %9llu | below --min-states, skipped\n",
                    E.Name.c_str(),
                    static_cast<unsigned long long>(Seq.Stats.NumStates));
      continue;
    }
    Row R;
    R.Name = E.Name;
    R.States = Seq.Stats.NumStates;
    R.Robust = Seq.Robust;
    R.Cells.resize(Ladder.size());

    // Interleave the sequential-baseline reps with the parallel cells so
    // machine-load drift is shared. Best-of-N per cell.
    for (unsigned Rep = 0; Rep != Reps; ++Rep) {
      RockerReport S = runOnce(P, 1);
      R.CountsMatch = R.CountsMatch && S.Robust == Seq.Robust &&
                      S.Stats.NumStates == Seq.Stats.NumStates;
      if (Rep == 0 || S.Stats.Seconds < R.SeqSeconds)
        R.SeqSeconds = S.Stats.Seconds;
      for (size_t TI = 0; TI != Ladder.size(); ++TI) {
        obs::Snapshot Before = obs::snapshot();
        RockerReport Par = runOnce(P, Ladder[TI]);
        uint64_t Cas = obs::snapshot().counter(obs::Ctr::VisitedCasRetries) -
                       Before.counter(obs::Ctr::VisitedCasRetries);
        CellResult &C = R.Cells[TI];
        bool Ok = Par.Robust == Seq.Robust &&
                  Par.Stats.NumStates == Seq.Stats.NumStates;
        C.CountsMatch = C.CountsMatch && Ok;
        if (Rep == 0 || Par.Stats.Seconds < C.Seconds) {
          C.Seconds = Par.Stats.Seconds;
          C.StatesPerSec = Par.Stats.Seconds > 0
                               ? Par.Stats.NumStates / Par.Stats.Seconds
                               : 0;
          C.CasRetries = Cas;
        }
      }
    }
    for (CellResult &C : R.Cells) {
      C.Speedup = C.Seconds > 0 ? R.SeqSeconds / C.Seconds : 0;
      R.CountsMatch = R.CountsMatch && C.CountsMatch;
    }
    AllMatch &= R.CountsMatch;
    Rows.push_back(R);

    for (size_t TI = 0; TI != Ladder.size(); ++TI) {
      const CellResult &C = R.Cells[TI];
      std::printf("%-20s | %9llu | %8.3f | %2u | %8.3f %4.2fx%s\n",
                  TI == 0 ? R.Name.c_str() : "",
                  TI == 0 ? static_cast<unsigned long long>(R.States) : 0,
                  R.SeqSeconds, Ladder[TI], C.Seconds, C.Speedup,
                  C.CountsMatch ? "" : " !COUNTS");
    }
    std::fflush(stdout);
  }
  std::printf("%s\n", std::string(66, '-').c_str());
  std::printf("measured %zu program%s with >= %llu states (!COUNTS = "
              "verdict/state-count mismatch vs sequential)\n",
              Rows.size(), Rows.size() == 1 ? "" : "s",
              static_cast<unsigned long long>(MinStates));

  if (JsonPath) {
    std::FILE *F = std::fopen(JsonPath, "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath);
      return 2;
    }
    std::fprintf(F,
                 "{\n  \"schema\": \"rocker-bench-speedup/1\",\n"
                 "  \"min_states\": %llu,\n  \"hardware_threads\": %u,\n"
                 "  \"max_threads\": %u,\n  \"reps\": %u,\n"
                 "  \"counts_match\": %s,\n  \"programs\": [\n",
                 static_cast<unsigned long long>(MinStates), Hw,
                 MaxThreads, Reps, AllMatch ? "true" : "false");
    for (size_t I = 0; I != Rows.size(); ++I) {
      const Row &R = Rows[I];
      std::fprintf(F,
                   "    {\"name\": \"%s\", \"states\": %llu, \"robust\": "
                   "%s, \"counts_match\": %s, \"seq_seconds\": %.6f,\n"
                   "     \"runs\": [\n",
                   R.Name.c_str(),
                   static_cast<unsigned long long>(R.States),
                   R.Robust ? "true" : "false",
                   R.CountsMatch ? "true" : "false", R.SeqSeconds);
      for (size_t TI = 0; TI != Ladder.size(); ++TI) {
        const CellResult &C = R.Cells[TI];
        std::fprintf(
            F,
            "      {\"threads\": %u, \"seconds\": %.6f, "
            "\"states_per_sec\": %.1f, \"speedup\": %.4f, "
            "\"cas_retries\": %llu, \"counts_match\": %s}%s\n",
            Ladder[TI], C.Seconds, C.StatesPerSec, C.Speedup,
            static_cast<unsigned long long>(C.CasRetries),
            C.CountsMatch ? "true" : "false",
            TI + 1 == Ladder.size() ? "" : ",");
      }
      std::fprintf(F, "     ]}%s\n", I + 1 == Rows.size() ? "" : ",");
    }
    std::fprintf(F, "  ]\n}\n");
    std::fclose(F);
  }
  return AllMatch ? 0 : 1;
}
