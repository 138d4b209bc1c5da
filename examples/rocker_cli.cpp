//===- examples/rocker_cli.cpp - The rocker command-line tool ---------------===//
//
// Usage: rocker_cli [options] <program.rkr | corpus-name>
//
// The option table below is the single source of truth: usage() is
// generated from it, so the help text cannot go stale against the parser
// again (it used to omit --dump-graph).
//
// The input is a file in the textual language (see lang/Parser.h), or the
// name of a bundled corpus program (e.g. "peterson-ra", "SB").
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "lang/Printer.h"
#include "litmus/Corpus.h"
#include "obs/RunReport.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "parexplore/ParallelExplorer.h"
#include "resilience/Resilience.h"
#include "rocker/RobustnessChecker.h"
#include "rocker/WitnessGraph.h"
#include "serve/BatchRunner.h"
#include "support/ParseNum.h"
#include "tso/TSORobustness.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace rocker;

namespace {

/// Everything the option handlers may set.
struct CliState {
  RockerOptions Opts;
  bool RunTso = false;
  bool ScOnly = false;
  bool Print = false;
  bool DumpGraph = false;
  bool Stats = false;
  std::string ReportPath;       ///< --report / ROCKER_REPORT.
  double ProgressInterval = 0;  ///< --progress / ROCKER_PROGRESS; 0 = off.
  std::string BatchManifest;    ///< --batch; run a manifest, not a program.
  std::string CacheDir;         ///< --cache; verdict cache for --batch.
  unsigned BatchWorkers = 1;    ///< --jobs; batch worker-pool size.
  std::string TraceSpec;        ///< --trace / ROCKER_TRACE; FILE[:cap].
  bool OptError = false;        ///< An option value failed to parse.
};

/// Flushes the flight recorder on every exit path: stops recording and
/// serializes the Perfetto JSON when --trace armed it. Reports to stderr
/// so traced stdout is byte-identical to untraced stdout.
struct TraceGuard {
  bool Active = false;
  ~TraceGuard() {
    if (!Active)
      return;
    obs::traceStop();
    obs::TraceWriteResult R = obs::traceWrite();
    if (R.Ok)
      std::fprintf(stderr, "trace: %llu events -> %s (open in "
                           "ui.perfetto.dev)\n",
                   static_cast<unsigned long long>(R.Events),
                   obs::traceConfiguredPath().c_str());
    else
      std::fprintf(stderr, "warning: trace write failed: %s\n",
                   R.Error.c_str());
  }
};

/// Rejects a malformed option value: usage message + exit code 3 (via
/// OptError → usage()). All numeric flags and env values route through
/// the checked num:: parsers and land here on garbage — trailing junk
/// ("--threads=2x") used to be silently misparsed.
void badValue(CliState &C, const char *Flag, const char *V) {
  std::fprintf(stderr, "error: invalid value for %s: '%s'\n", Flag,
               V ? V : "");
  C.OptError = true;
}

/// One command-line option: flag name, argument placeholder (null for
/// plain flags), help text, and its effect. All options accept the
/// --name=value spelling; OptionalArg ones accept a bare --name too.
struct CliOption {
  const char *Name;
  const char *Arg; ///< e.g. "N"; null when the option takes no argument.
  const char *Help;
  void (*Apply)(CliState &, const char *Value);
  bool OptionalArg = false; ///< The argument may be omitted (--name[=V]).
};

/// --progress / ROCKER_PROGRESS interval: bare --progress = 2s, an
/// explicit value must be a valid non-negative number (0 = off).
void setProgressInterval(CliState &C, const char *Flag, const char *V) {
  if (!V) {
    C.ProgressInterval = 2.0;
    return;
  }
  auto S = num::parseF64(V);
  if (!S)
    badValue(C, Flag, V);
  else
    C.ProgressInterval = *S;
}

/// Exit codes (stable contract, consumed by bench/fig7_table and CI):
/// 0 robust, 1 not robust, 2 bounded/degraded, 3 usage error,
/// 4 internal error (I/O failure, failed resume).
enum ExitCode : int {
  ExitRobust = 0,
  ExitNotRobust = 1,
  ExitBounded = 2,
  ExitUsage = 3,
  ExitInternal = 4,
};

const CliOption Options[] = {
    {"--full", nullptr,
     "disable the critical-value abstraction (Section 5.1)",
     [](CliState &C, const char *) {
       C.Opts.UseCriticalAbstraction = false;
     }},
    {"--no-races", nullptr,
     "skip the non-atomic data-race check (Section 6)",
     [](CliState &C, const char *) { C.Opts.CheckRaces = false; }},
    {"--no-asserts", nullptr, "skip assertion checking under SC",
     [](CliState &C, const char *) { C.Opts.CheckAssertions = false; }},
    {"--max-states", "N", "state budget (default 200M)",
     [](CliState &C, const char *V) {
       if (auto N = num::parseU64(V))
         C.Opts.MaxStates = *N;
       else
         badValue(C, "--max-states", V);
     }},
    {"--max-seconds", "S",
     "wall-clock budget (parallel engine; default none)",
     [](CliState &C, const char *V) {
       if (auto S = num::parseF64(V))
         C.Opts.MaxSeconds = *S;
       else
         badValue(C, "--max-seconds", V);
     }},
    {"--threads", "N",
     "worker threads (default 1 = sequential engine; 0 = hardware "
     "concurrency)",
     [](CliState &C, const char *V) {
       if (auto N = num::parseU32(V))
         C.Opts.Threads = *N ? *N : resolveThreadCount(0);
       else
         badValue(C, "--threads", V);
     }},
    {"--bitstate", "K",
     "Spin-style bitstate hashing with 2^K bits, K in [6, 36] "
     "(approximate; sequential engine only)",
     [](CliState &C, const char *V) {
       auto K = num::parseU32(V);
       if (K && resilience::bitstateLog2InRange(*K))
         C.Opts.BitstateLog2 = *K;
       else
         badValue(C, "--bitstate", V);
     }},
    {"--visited-log2", "K",
     "initial lock-free root-table capacity 2^K slots (default 2^18); "
     "each table doubles on its own, truncating only at the 2^30 ceiling",
     [](CliState &C, const char *V) {
       if (auto K = num::parseU32(V))
         C.Opts.LockFreeLog2 = *K;
       else
         badValue(C, "--visited-log2", V);
     }},
    {"--no-por", nullptr,
     "disable the ample-set partial-order reduction (full expansion; "
     "identical verdicts, more states); env equivalent: ROCKER_NO_POR",
     [](CliState &C, const char *) { C.Opts.UsePor = false; }},
    {"--stats", nullptr,
     "print exploration statistics (dedup hit rate, peak frontier, "
     "visited-set bytes + compression ratio, per-thread throughput)",
     [](CliState &C, const char *) { C.Stats = true; }},
    {"--tso", nullptr, "also run the TSO robustness baseline",
     [](CliState &C, const char *) { C.RunTso = true; }},
    {"--sc-only", nullptr, "only explore under SC (assertion checking)",
     [](CliState &C, const char *) { C.ScOnly = true; }},
    {"--print", nullptr, "echo the parsed program",
     [](CliState &C, const char *) { C.Print = true; }},
    {"--dump-graph", nullptr,
     "on a violation, print the witness execution graph and its Graphviz "
     "rendering",
     [](CliState &C, const char *) { C.DumpGraph = true; }},
    {"--all", nullptr, "collect all violations instead of the first",
     [](CliState &C, const char *) { C.Opts.StopOnViolation = false; }},
    {"--report", "FILE",
     "write a JSON run report (schema rocker-run-report/1; \"-\" = "
     "stdout); env equivalent: ROCKER_REPORT",
     [](CliState &C, const char *V) { C.ReportPath = V; }},
    {"--progress", "SECS",
     "print live progress (states/s, frontier, dedup rate, visited "
     "bytes, ETA) to stderr every SECS seconds (default 2); env "
     "equivalent: ROCKER_PROGRESS",
     [](CliState &C, const char *V) {
       setProgressInterval(C, "--progress", V);
     },
     /*OptionalArg=*/true},
    {"--mem-budget", "BYTES",
     "soft memory budget for visited set + frontier (K/M/G suffixes); on "
     "pressure the governor degrades storage (exact -> bitstate, then "
     "sampling with --sample-on-exhaustion) instead of OOMing; a "
     "degraded clean sweep exits "
     "BOUNDED-ROBUST (2)",
     [](CliState &C, const char *V) {
       if (auto B = num::parseByteSize(V))
         C.Opts.Resilience.MemBudgetBytes = *B;
       else
         badValue(C, "--mem-budget", V);
     }},
    {"--deadline", "S",
     "wall-clock deadline: the run drains at a safe point, writes a "
     "final checkpoint (with --checkpoint), and exits BOUNDED-ROBUST",
     [](CliState &C, const char *V) {
       if (auto S = num::parseF64(V))
         C.Opts.Resilience.DeadlineSeconds = *S;
       else
         badValue(C, "--deadline", V);
     }},
    {"--checkpoint", "FILE",
     "write crash-safe checkpoints to FILE periodically and on "
     "SIGINT/SIGTERM, deadline, or budget truncation; resume with "
     "--resume",
     [](CliState &C, const char *V) {
       C.Opts.Resilience.CheckpointPath = V;
     }},
    {"--checkpoint-interval", "S",
     "seconds between periodic checkpoints (default 30)",
     [](CliState &C, const char *V) {
       if (auto S = num::parseF64(V))
         C.Opts.Resilience.CheckpointIntervalSeconds = *S;
       else
         badValue(C, "--checkpoint-interval", V);
     }},
    {"--resume", "FILE",
     "resume from a checkpoint written by --checkpoint; the program and "
     "semantic options must match or the resume is rejected (exit 4)",
     [](CliState &C, const char *V) {
       C.Opts.Resilience.ResumePath = V;
     }},
    {"--watchdog", "S",
     "parallel engine: if no worker makes progress for S seconds, stop "
     "the run as BOUNDED-ROBUST instead of hanging",
     [](CliState &C, const char *V) {
       if (auto S = num::parseF64(V))
         C.Opts.Resilience.WatchdogSeconds = *S;
       else
         badValue(C, "--watchdog", V);
     }},
    {"--engine", "ENG",
     "exact (default) or sample: monitored random-schedule sampling with "
     "no visited set — NotRobust verdicts are real and replayable, clean "
     "budgets exit BOUNDED-ROBUST (never 0)",
     [](CliState &C, const char *V) {
       if (std::strcmp(V, "sample") == 0)
         C.Opts.UseSampling = true;
       else if (std::strcmp(V, "exact") == 0)
         C.Opts.UseSampling = false;
       else
         badValue(C, "--engine", V);
     }},
    {"--samples", "N", "sampling engine: sample budget (default 4096)",
     [](CliState &C, const char *V) {
       if (auto N = num::parseU64(V))
         C.Opts.Sampling.Samples = *N;
       else
         badValue(C, "--samples", V);
     }},
    {"--sample-seed", "S",
     "sampling engine: master seed; sample i replays deterministically "
     "from (seed, i) alone (default 1)",
     [](CliState &C, const char *V) {
       if (auto S = num::parseU64(V))
         C.Opts.Sampling.Seed = *S;
       else
         badValue(C, "--sample-seed", V);
     }},
    {"--sched", "NAME",
     "sampling engine: schedule generator — random, pct (priority "
     "change-point schedules), or por-diverse (randomness only at "
     "non-commuting steps)",
     [](CliState &C, const char *V) {
       if (auto S = sample::parseSampleScheduler(V))
         C.Opts.Sampling.Sched = *S;
       else
         badValue(C, "--sched", V);
     }},
    {"--sample-depth", "N",
     "sampling engine: per-sample step cap (default 4096)",
     [](CliState &C, const char *V) {
       if (auto N = num::parseU64(V))
         C.Opts.Sampling.MaxDepth = *N;
       else
         badValue(C, "--sample-depth", V);
     }},
    {"--sample-on-exhaustion", nullptr,
     "fourth ladder rung: when exploration exhausts its budget with no "
     "violation (even on bitstate), fall back to the sampling engine "
     "instead of giving up",
     [](CliState &C, const char *) {
       C.Opts.Resilience.SampleOnExhaustion = true;
     }},
    {"--batch", "FILE",
     "run a rocker-batch-manifest/1 job file instead of a single program "
     "(per-job options come from the manifest; --report then writes the "
     "rocker-batch-report/1 summary); see rocker_batch for the full "
     "batch CLI",
     [](CliState &C, const char *V) { C.BatchManifest = V; }},
    {"--cache", "DIR",
     "with --batch: verdict cache directory — hits are served without "
     "re-exploring, fresh complete verdicts are stored",
     [](CliState &C, const char *V) { C.CacheDir = V; }},
    {"--jobs", "N",
     "with --batch: worker-pool size, jobs in flight at once (default 1; "
     "0 = hardware concurrency)",
     [](CliState &C, const char *V) {
       if (auto N = num::parseU32(V))
         C.BatchWorkers = *N ? *N : resolveThreadCount(0);
       else
         badValue(C, "--jobs", V);
     }},
    {"--trace", "FILE[:N]",
     "record a flight-recorder trace to FILE as Chrome trace-event JSON "
     "(open in ui.perfetto.dev or chrome://tracing); :N caps the "
     "per-thread ring at N events (default 65536, oldest overwritten); "
     "env equivalent: ROCKER_TRACE",
     [](CliState &C, const char *V) { C.TraceSpec = V; }},
};

int usage() {
  std::fprintf(stderr,
               "usage: rocker_cli [options] <program-file | corpus-name>\n"
               "\noptions:\n");
  for (const CliOption &O : Options) {
    std::string Flag = O.Name;
    if (O.Arg)
      Flag += O.OptionalArg ? std::string("[=") + O.Arg + "]"
                            : std::string(" ") + O.Arg;
    std::fprintf(stderr, "  %-18s %s\n", Flag.c_str(), O.Help);
  }
  std::fprintf(stderr,
               "\nexit codes: 0 robust, 1 not robust, 2 bounded/degraded "
               "(budget, deadline, interrupt, or bitstate), 3 usage, "
               "4 internal error\n"
               "sampling runs (--engine=sample or a --sample-on-exhaustion "
               "fallback) never exit 0: a clean sample budget proves only "
               "\"no violation in N schedules\", so it exits 2\n");
  return ExitUsage;
}

std::optional<Program> loadInput(const std::string &Arg) {
  std::ifstream In(Arg);
  if (In) {
    std::stringstream Buf;
    Buf << In.rdbuf();
    ParseResult R = parseProgram(Buf.str());
    if (!R.ok()) {
      std::fprintf(stderr, "error: cannot parse '%s':\n", Arg.c_str());
      for (const ParseError &E : R.Errors)
        std::fprintf(stderr, "  %s:%s\n", Arg.c_str(),
                     E.toString().c_str());
      return std::nullopt;
    }
    return std::move(*R.Prog);
  }
  // Fall back to the bundled corpus.
  for (const CorpusEntry &E : litmusTests())
    if (E.Name == Arg)
      return E.parse();
  for (const CorpusEntry &E : figure7Programs())
    if (E.Name == Arg)
      return E.parse();
  std::fprintf(stderr,
               "error: '%s' is neither a readable file nor a corpus "
               "program\n",
               Arg.c_str());
  return std::nullopt;
}

void printStats(const ExploreStats &S) {
  double HitRate = S.DedupHits + S.NumStates
                       ? 100.0 * S.DedupHits / (S.DedupHits + S.NumStates)
                       : 0.0;
  std::printf("stats: %llu states, %llu transitions, dedup hits %llu "
              "(%.1f%% hit rate), peak frontier %llu\n",
              static_cast<unsigned long long>(S.NumStates),
              static_cast<unsigned long long>(S.NumTransitions),
              static_cast<unsigned long long>(S.DedupHits), HitRate,
              static_cast<unsigned long long>(S.PeakFrontier));
  std::printf("stats: visited set %.2f MiB (raw would be %.2f MiB, "
              "%.2fx compression)\n",
              S.VisitedBytes / (1024.0 * 1024.0),
              S.VisitedRawBytes / (1024.0 * 1024.0),
              S.compressionRatio());
  for (size_t I = 0; I != S.Workers.size(); ++I) {
    const ExploreStats::WorkerCounters &W = S.Workers[I];
    std::printf("stats: worker %zu: %llu expanded, %.0f states/s",
                I, static_cast<unsigned long long>(W.Expanded),
                W.statesPerSec());
    if (W.Steals)
      std::printf(", %llu steals",
                  static_cast<unsigned long long>(W.Steals));
    std::printf("\n");
  }
  // Lock-free visited-set and steal-tuning contention counters
  // (telemetry registry; zero and silent for sequential runs).
  obs::Snapshot Now = obs::snapshot();
  uint64_t Cas = Now.counter(obs::Ctr::VisitedCasRetries);
  uint64_t Probe = Now.counter(obs::Ctr::VisitedProbeSteps);
  uint64_t Grow = Now.counter(obs::Ctr::VisitedGrowths);
  if (Cas || Probe)
    std::printf("stats: lock-free visited: %llu CAS retries, %llu probe "
                "steps, %llu growth%s\n",
                static_cast<unsigned long long>(Cas),
                static_cast<unsigned long long>(Probe),
                static_cast<unsigned long long>(Grow),
                Grow == 1 ? "" : "s");
  uint64_t Att = Now.counter(obs::Ctr::StealAttempts);
  uint64_t Items = Now.counter(obs::Ctr::StealBatchItems);
  if (Att)
    std::printf("stats: steals: %llu attempts, %llu states stolen\n",
                static_cast<unsigned long long>(Att),
                static_cast<unsigned long long>(Items));
}

/// Sampling-run statistics: throughput and schedule-diversity signals
/// instead of the stored-state metrics (there is no visited set).
void printSampleStats(const sample::SampleStats &S) {
  std::printf("stats: %llu/%llu samples, %llu steps, %.0f schedules/s "
              "(%s scheduler, seed %llu, depth cap %llu)\n",
              static_cast<unsigned long long>(S.SamplesRun),
              static_cast<unsigned long long>(S.SamplesRequested),
              static_cast<unsigned long long>(S.Steps),
              S.schedulesPerSec(), S.Scheduler.c_str(),
              static_cast<unsigned long long>(S.Seed),
              static_cast<unsigned long long>(S.MaxDepth));
  std::printf("stats: ~%.0f distinct final states (8 KiB sketch), "
              "%llu deadlocked, %llu depth-capped, %llu randomized\n",
              S.DistinctFinalEstimate,
              static_cast<unsigned long long>(S.DeadlockSamples),
              static_cast<unsigned long long>(S.DepthCapHits),
              static_cast<unsigned long long>(S.RandomizedSamples));
  if (S.ViolationSample >= 0)
    std::printf("stats: violation found by sample #%lld\n",
                static_cast<long long>(S.ViolationSample));
}

/// Writes the run report when --report / ROCKER_REPORT asked for one.
/// Returns false on I/O failure.
bool emitReport(const CliState &C, const std::string &Name,
                const char *Mode, const RockerReport &R,
                const obs::Snapshot &Before) {
  if (C.ReportPath.empty())
    return true;
  obs::RunReport Rep = obs::buildRunReport(Name, Mode, C.Opts, R, Before,
                                           obs::snapshot());
  if (obs::writeRunReport(C.ReportPath, Rep))
    return true;
  std::fprintf(stderr, "error: cannot write report to '%s'\n",
               C.ReportPath.c_str());
  return false;
}

/// Prints the resilience provenance: every downgrade, checkpoint
/// activity, and why a clean sweep may only be bounded.
void printResilience(const resilience::ResilienceReport &RR) {
  for (const resilience::DowngradeEvent &D : RR.Downgrades)
    std::printf("note: memory governor degraded storage %s -> %s at "
                "%llu states (%.1f MiB in use, %.1fs)\n",
                resilience::rungName(D.From), resilience::rungName(D.To),
                static_cast<unsigned long long>(D.AtStates),
                D.UsedBytes / (1024.0 * 1024.0), D.AtSeconds);
  if (RR.DeadlineHit)
    std::printf("note: deadline hit — drained at a safe point\n");
  if (RR.Interrupted)
    std::printf("note: interrupted (SIGINT/SIGTERM) — drained at a safe "
                "point\n");
  if (RR.WatchdogFired)
    std::printf("note: stuck-worker watchdog fired — run stopped\n");
  if (RR.Resumed)
    std::printf("note: resumed from checkpoint (%llu states restored)\n",
                static_cast<unsigned long long>(RR.RestoredStates));
  if (RR.CheckpointsWritten)
    std::printf("note: %llu checkpoint%s written (%.2f MiB total, "
                "%.2fs)\n",
                static_cast<unsigned long long>(RR.CheckpointsWritten),
                RR.CheckpointsWritten == 1 ? "" : "s",
                RR.CheckpointBytes / (1024.0 * 1024.0),
                RR.CheckpointSeconds);
}

/// The --batch path: parse the manifest, run it over the cache, print
/// one row per job plus the summary, and map to the exit-code contract.
int runBatchManifest(const CliState &C) {
  std::ifstream In(C.BatchManifest);
  if (!In) {
    std::fprintf(stderr, "error: cannot read batch manifest '%s'\n",
                 C.BatchManifest.c_str());
    return ExitUsage;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string MErr;
  auto Jobs = serve::parseBatchManifest(Buf.str(), &MErr);
  if (!Jobs) {
    std::fprintf(stderr, "error: %s: %s\n", C.BatchManifest.c_str(),
                 MErr.c_str());
    return ExitUsage;
  }

  serve::BatchOptions BO;
  BO.CacheDir = C.CacheDir;
  BO.Workers = C.BatchWorkers;
  resilience::installStopHandlers();
  serve::BatchResult R = serve::runBatch(*Jobs, BO);

  for (const serve::BatchJobResult &J : R.Jobs) {
    if (!J.Error.empty()) {
      std::printf("%-24s ERROR: %s\n", J.Name.c_str(), J.Error.c_str());
      continue;
    }
    std::printf("%-24s %-15s %-9s %llu states, %.3fs%s\n", J.Name.c_str(),
                verdictClassName(J.Verdict), serve::jobSourceName(J.Source),
                static_cast<unsigned long long>(J.States), J.EngineSeconds,
                J.Stored ? " [stored]" : "");
  }
  std::printf("batch: %zu jobs, %llu hits / %llu misses (%llu resumed), "
              "%.3fs wall%s\n",
              R.Jobs.size(), static_cast<unsigned long long>(R.Hits),
              static_cast<unsigned long long>(R.Misses),
              static_cast<unsigned long long>(R.Resumes), R.WallSeconds,
              R.Errors ? " — ERRORS" : "");

  if (!C.ReportPath.empty() &&
      !serve::writeBatchReport(C.ReportPath, R, BO)) {
    std::fprintf(stderr, "error: cannot write report to '%s'\n",
                 C.ReportPath.c_str());
    return ExitInternal;
  }
  return serve::batchExitCode(R);
}

int exitCodeFor(VerdictClass VC) {
  switch (VC) {
  case VerdictClass::Robust:
    return ExitRobust;
  case VerdictClass::NotRobust:
    return ExitNotRobust;
  case VerdictClass::BoundedRobust:
    return ExitBounded;
  }
  return ExitInternal;
}

} // namespace

int main(int argc, char **argv) {
  CliState C;
  std::string Input;

  // Env equivalents are read first so flags override them.
  if (const char *E = std::getenv("ROCKER_REPORT"); E && *E)
    C.ReportPath = E;
  if (const char *E = std::getenv("ROCKER_PROGRESS"); E && *E)
    setProgressInterval(C, "ROCKER_PROGRESS", E);
  if (const char *E = std::getenv("ROCKER_TRACE"); E && *E)
    C.TraceSpec = E;

  for (int I = 1; I != argc; ++I) {
    std::string A = argv[I];
    if (!A.empty() && A[0] == '-') {
      std::string Name = A;
      const char *Inline = nullptr; // --name=value spelling.
      if (size_t Eq = A.find('='); Eq != std::string::npos) {
        Name.resize(Eq);
        Inline = argv[I] + Eq + 1;
      }
      const CliOption *Found = nullptr;
      for (const CliOption &O : Options)
        if (Name == O.Name) {
          Found = &O;
          break;
        }
      if (!Found || (Inline && !Found->Arg))
        return usage();
      const char *Value = Inline;
      if (Found->Arg && !Value && !Found->OptionalArg) {
        if (++I == argc)
          return usage();
        Value = argv[I];
      }
      Found->Apply(C, Value);
    } else if (Input.empty()) {
      Input = A;
    } else {
      return usage();
    }
  }
  if (C.OptError)
    return usage();

  TraceGuard Trace;
  if (!C.TraceSpec.empty()) {
    std::optional<obs::TraceSpec> TS =
        obs::parseTraceSpec(C.TraceSpec.c_str());
    if (!TS) {
      std::fprintf(stderr, "error: invalid value for --trace: '%s'\n",
                   C.TraceSpec.c_str());
      return usage();
    }
    if (!obs::traceSupported())
      std::fprintf(stderr,
                   "warning: --trace ignored: telemetry is compiled out "
                   "(ROCKER_NO_TELEMETRY)\n");
    else if (obs::traceConfigure(TS->Path, TS->Cap))
      Trace.Active = true;
  }

  if (!C.BatchManifest.empty()) {
    if (!Input.empty()) // The manifest replaces the program argument.
      return usage();
    return runBatchManifest(C);
  }
  if (Input.empty())
    return usage();

  // Sampling workers ride the same --threads knob as the parallel
  // exploration engine; sample outcomes are worker-count independent.
  if (C.Opts.UseSampling || C.Opts.Resilience.SampleOnExhaustion)
    C.Opts.Sampling.Workers = C.Opts.Threads ? C.Opts.Threads : 1;

  // With budgets or checkpoints in play, ^C should drain at a safe point
  // (final checkpoint, partial report) instead of killing mid-write.
  const resilience::ResilienceOptions &RO = C.Opts.Resilience;
  if (RO.anyBudget() || RO.wantsCheckpoints() || RO.wantsResume() ||
      RO.WatchdogSeconds > 0)
    resilience::installStopHandlers();

  // Bracket everything from parse onward, so run reports attribute the
  // whole invocation (the Parse phase included, not just exploration).
  obs::Snapshot Before = obs::snapshot();
  obs::ProgressReporter Reporter(C.ProgressInterval);

  std::optional<Program> P = loadInput(Input);
  if (!P)
    return ExitUsage;
  if (C.Print)
    std::printf("%s\n", toString(*P).c_str());

  std::string Name = P->Name.empty() ? Input : P->Name;

  if (C.ScOnly) {
    RockerReport R = exploreSC(*P, C.Opts);
    Reporter.stop();
    if (!R.Stats.Resilience.ResumeError.empty()) {
      std::fprintf(stderr, "error: resume failed: %s\n",
                   R.Stats.Resilience.ResumeError.c_str());
      return ExitInternal;
    }
    std::printf("SC exploration: %llu states in %.3fs — %s\n",
                static_cast<unsigned long long>(R.Stats.NumStates),
                R.Stats.Seconds,
                R.Robust ? "no violations" : "VIOLATIONS FOUND");
    printResilience(R.Stats.Resilience);
    if (!R.Robust)
      std::printf("%s\n", R.FirstViolationText.c_str());
    if (C.Stats) {
      if (R.Sample.Enabled)
        printSampleStats(R.Sample);
      else
        printStats(R.Stats);
    }
    if (!emitReport(C, Name, "sc", R, Before))
      return ExitInternal;
    return exitCodeFor(R.verdictClass());
  }

  RockerReport R = checkRobustness(*P, C.Opts);
  bool ReportOk = emitReport(C, Name, "robustness", R, Before);

  if (!R.Stats.Resilience.ResumeError.empty()) {
    std::fprintf(stderr, "error: resume failed: %s\n",
                 R.Stats.Resilience.ResumeError.c_str());
    return ExitInternal;
  }

  VerdictClass VC = R.verdictClass();
  const char *VName = VC == VerdictClass::Robust ? "ROBUST"
                      : VC == VerdictClass::NotRobust
                          ? "NOT ROBUST"
                          : "BOUNDED-ROBUST";
  if (R.Sample.Enabled)
    std::printf("%s: %s against release/acquire (%llu samples, %llu "
                "steps, %.3fs, %s scheduler, seed %llu — sampling: "
                "absence of violations is probabilistic%s)\n",
                Name.c_str(), VName,
                static_cast<unsigned long long>(R.Sample.SamplesRun),
                static_cast<unsigned long long>(R.Sample.Steps),
                R.Sample.Seconds, R.Sample.Scheduler.c_str(),
                static_cast<unsigned long long>(R.Sample.Seed),
                R.Complete ? "" : ", stopped before the sample budget");
  else
    std::printf("%s: %s against release/acquire (%llu states, %.3fs, "
                "%u thread%s%s%s)\n",
                Name.c_str(), VName,
                static_cast<unsigned long long>(R.Stats.NumStates),
                R.Stats.Seconds, C.Opts.Threads,
                C.Opts.Threads == 1 ? "" : "s",
                R.Approximate
                    ? ", bitstate — absence of violations is approximate"
                    : "",
                R.Complete ? "" : ", budget hit — result incomplete");
  printResilience(R.Stats.Resilience);
  for (const Violation &V : R.Violations)
    if (V.K != Violation::Kind::Robustness)
      std::printf("also: %s\n", violationKindName(V.K));
  if (R.Stats.NumDeadlockStates)
    std::printf("note: %llu reachable states block forever on wait/BCAS "
                "(legal, but worth a look)\n",
                static_cast<unsigned long long>(R.Stats.NumDeadlockStates));
  if (!R.Robust)
    std::printf("\n%s\n", R.FirstViolationText.c_str());
  if (C.Stats) {
    if (R.Sample.Enabled)
      printSampleStats(R.Sample);
    else
      printStats(R.Stats);
  }
  if (C.DumpGraph && !R.FirstViolationTrace.empty()) {
    ExecutionGraph G = buildWitnessGraph(*P, R.FirstViolationTrace);
    std::printf("witness execution graph (Theorem 5.1's G):\n%s\n",
                G.toString(&*P).c_str());
    std::printf("%s\n", G.toDot(&*P).c_str());
  }

  if (C.RunTso) {
    TSOOptions TO;
    TO.TrencherMode = true;
    TO.Threads = C.Opts.Threads;
    TO.DeadlineSeconds = C.Opts.Resilience.DeadlineSeconds;
    TSORobustnessResult T = checkTSORobustness(*P, TO);
    std::printf("TSO baseline (trencher mode): %s (%llu states)%s\n",
                T.Robust ? "robust" : "not robust",
                static_cast<unsigned long long>(T.Stats.NumStates),
                T.BufferSaturated ? " [buffer bound hit]" : "");
    if (C.Stats)
      printStats(T.Stats);
  }
  if (!ReportOk)
    return ExitInternal;
  return exitCodeFor(VC);
}
