//===- perfbench/src/Bench.cpp - Workloads of the repo benchmark -----------===//

#include "Bench.h"

#include "Generator.h"
#include "SpanLog.h"
#include "Stats.h"

#include "lang/Parser.h"
#include "lang/Printer.h"
#include "litmus/Corpus.h"
#include "monitor/SCMState.h"
#include "obs/RunReport.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "parexplore/ParallelExplorer.h"
#include "rocker/Oracles.h"
#include "rocker/RobustnessChecker.h"
#include "serve/BatchRunner.h"
#include "serve/VerdictCache.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace rocker;
namespace fs = std::filesystem;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

//===-- Process memory ----------------------------------------------------===//

uint64_t currentRssBytes() {
  std::ifstream F("/proc/self/statm");
  uint64_t Size = 0, Resident = 0;
  F >> Size >> Resident;
  return Resident * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

/// VmHWM, the resident-set high-water mark, in bytes.
uint64_t peakRssBytes() {
  std::ifstream F("/proc/self/status");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stoull(Line.substr(6)) * 1024;
  return 0;
}

/// Resets VmHWM to the current RSS so the peak covers only what follows
/// (set-up allocations are not the timed passes' footprint). Returns
/// false where the kernel does not allow it; the peak then includes
/// set-up.
bool resetPeakRss() {
  std::ofstream F("/proc/self/clear_refs");
  F << "5";
  F.flush();
  return static_cast<bool>(F);
}

//===-- Options -----------------------------------------------------------===//

/// Default RockerOptions with the environment-overridable defaults pinned,
/// so an inherited ROCKER_NO_POR / ROCKER_NO_COMPRESS / ROCKER_VISITED
/// cannot change what is measured.
RockerOptions benchOptions(unsigned Threads) {
  RockerOptions O;
  O.Threads = Threads;
  O.UsePor = true;
  O.CompressVisited = true;
  O.Visited = VisitedImpl::LockFree;
  return O;
}

std::string optionsJson(const RockerOptions &O, unsigned Jobs) {
  return std::string("{\"record_trace\": ") + (O.RecordTrace ? "true" : "false") +
         ", \"use_por\": " + (O.UsePor ? "true" : "false") +
         ", \"compress_visited\": " + (O.CompressVisited ? "true" : "false") +
         ", \"visited\": " + jsonString(visitedImplName(O.Visited)) +
         ", \"threads\": " + std::to_string(O.Threads) +
         ", \"jobs\": " + std::to_string(Jobs) + "}";
}

/// The facade's RockerOptions → ExploreOptions mapping (checkRobustness,
/// sequential engine). The traced run checks that the decomposed path it
/// feeds reproduces the facade's counts exactly.
ExploreOptions exploreOptions(const RockerOptions &Opts) {
  ExploreOptions EO;
  EO.MaxStates = Opts.MaxStates;
  EO.RecordParents = Opts.RecordTrace;
  EO.StopOnViolation = Opts.StopOnViolation;
  EO.CheckAssertions = Opts.CheckAssertions;
  EO.CheckRaces = Opts.CheckRaces;
  EO.CollapseLocalSteps = Opts.CollapseLocalSteps;
  EO.Order = Opts.Order;
  EO.BitstateLog2 = Opts.BitstateLog2;
  EO.CompressVisited = Opts.CompressVisited;
  EO.UsePor = Opts.UsePor;
  EO.Resilience = Opts.Resilience;
  return EO;
}

/// The facade's RockerOptions → ParExploreOptions mapping.
ParExploreOptions parOptions(const RockerOptions &Opts) {
  ParExploreOptions PE;
  PE.Threads = Opts.Threads;
  PE.MaxStates = Opts.MaxStates;
  PE.MaxSeconds = Opts.MaxSeconds;
  PE.StopOnViolation = Opts.StopOnViolation;
  PE.CheckAssertions = Opts.CheckAssertions;
  PE.CheckRaces = Opts.CheckRaces;
  PE.CollapseLocalSteps = Opts.CollapseLocalSteps;
  PE.RecordTrace = Opts.RecordTrace;
  PE.CompressVisited = Opts.CompressVisited;
  PE.Visited = Opts.Visited;
  PE.LockFreeLog2 = Opts.LockFreeLog2;
  PE.UsePor = Opts.UsePor;
  PE.Resilience = Opts.Resilience;
  return PE;
}

//===-- Verdict records and the gate --------------------------------------===//

/// What the benchmark keeps of one verdict.
struct VerdictRecord {
  std::string Name;
  bool Parsed = false;
  VerdictClass Cls = VerdictClass::BoundedRobust;
  uint64_t States = 0;
  uint64_t Transitions = 0;
  double Seconds = 0; ///< Text → verdict, destructors included.
};

VerdictClass expectedClass(bool Robust) {
  return Robust ? VerdictClass::Robust : VerdictClass::NotRobust;
}

/// One verdict through the public facade: parseProgram + checkRobustness.
VerdictRecord facadeVerdict(const std::string &Name, const std::string &Text,
                            const RockerOptions &O) {
  VerdictRecord V;
  V.Name = Name;
  Clock::time_point T0 = Clock::now();
  {
    ParseResult PR = parseProgram(Text);
    if (PR.ok()) {
      RockerReport Rep = checkRobustness(*PR.Prog, O);
      V.Parsed = true;
      V.Cls = Rep.verdictClass();
      V.States = Rep.Stats.NumStates;
      V.Transitions = Rep.Stats.NumTransitions;
    }
  }
  V.Seconds = since(T0);
  return V;
}

std::string describe(const VerdictRecord &V) {
  return V.Name + ": " + (V.Parsed ? verdictClassName(V.Cls) : "parse error") +
         ", " + std::to_string(V.States) + " states, " +
         std::to_string(V.Transitions) + " transitions";
}

void gateLarge(const LargeRef &Ref, const VerdictRecord &V, Outcome &Out) {
  bool Ok = V.Parsed && V.Cls == expectedClass(Ref.Robust) &&
            V.States == Ref.States && V.Transitions == Ref.Transitions;
  Out.verdict(Ok, "expected " + Ref.Name + ": " +
                      verdictClassName(expectedClass(Ref.Robust)) + ", " +
                      std::to_string(Ref.States) + " states, " +
                      std::to_string(Ref.Transitions) + " transitions; got " +
                      describe(V));
}

/// A traced verdict must match the facade's verdict of the same program
/// exactly.
void gateSame(const VerdictRecord &Facade, const VerdictRecord &Traced,
              Outcome &Out) {
  bool Ok = Traced.Parsed && Traced.Cls == Facade.Cls &&
            Traced.States == Facade.States &&
            Traced.Transitions == Facade.Transitions;
  Out.verdict(Ok, "traced path diverges from the facade: facade " +
                      describe(Facade) + "; traced " + describe(Traced));
}

//===-- Traced-run machinery ----------------------------------------------===//

/// Decimated timing of SCMonitor::checkAccess inside the benchmark's hook.
struct CheckTimer {
  /// Only every Every-th call is timed (two clock reads per timed call),
  /// keeping the hook's cost far below the 5% tracing bar.
  static constexpr uint64_t Every = 64;
  std::atomic<uint64_t> Ns{0};
  std::atomic<uint64_t> Calls{0};
};

/// Median cost of an empty steady_clock interval, subtracted from the
/// timed checks.
double clockOverheadNs() {
  std::vector<double> D;
  for (int I = 0; I != 2001; ++I) {
    Clock::time_point A = Clock::now();
    Clock::time_point B = Clock::now();
    D.push_back(std::chrono::duration<double, std::nano>(B - A).count());
  }
  return median(D);
}

void addInto(obs::Snapshot &Acc, const obs::Snapshot &D) {
  for (unsigned I = 0; I != obs::NumPhases; ++I)
    Acc.PhaseSeconds[I] += D.PhaseSeconds[I];
  for (unsigned I = 0; I != obs::NumCounters; ++I)
    Acc.Counters[I] += D.Counters[I];
}

/// Everything a traced run accumulates for the per-layer metrics.
struct Tracer {
  SpanLog Log;
  CheckTimer Timer;
  obs::Snapshot Engine; ///< Summed diffs around decomposed verdicts.
  uint64_t States = 0, VisitedBytes = 0, VisitedRaw = 0, PeakFrontier = 0;
  double RssGrowth = 0;
  double ImbalanceMax = 0, ImbalanceMean = 0;
  uint64_t ParStates = 0;
  double ParRunSeconds = 0;
  unsigned TracedPasses = 0;
  std::vector<double> UntracedWalls, TracedWalls;
  // Batch-level serve metrics, from the untraced batch passes.
  std::vector<double> JobOverheadMs, QueueWaitMs, BatchSelfS;
  uint64_t BatchJobs = 0, BatchHits = 0;
  // Facade verdict seconds per large program, from untraced passes.
  std::map<std::string, std::vector<double>> FacadeSeconds;
};

/// The facade's access hook (telemetry span, check counter, Theorem 5.3
/// check) with every CheckTimer::Every-th checkAccess call timed.
auto timedHook(const SCMonitor &Mem, CheckTimer &Tm) {
  return [&Mem, &Tm](const SCMState &S, ThreadId T, uint32_t,
                     const MemAccess &A) -> std::optional<Violation> {
    obs::Span Sp(obs::Phase::MonitorStep);
    obs::add(obs::Ctr::MonitorChecks);
    thread_local uint64_t Calls = 0;
    std::optional<MonitorViolation> MV;
    if (++Calls % CheckTimer::Every == 0) {
      Clock::time_point T0 = Clock::now();
      MV = Mem.checkAccess(S, T, A);
      Tm.Ns.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - T0)
                          .count(),
                      std::memory_order_relaxed);
      Tm.Calls.fetch_add(1, std::memory_order_relaxed);
    } else {
      MV = Mem.checkAccess(S, T, A);
    }
    if (!MV)
      return std::nullopt;
    Violation V;
    V.K = Violation::Kind::Robustness;
    V.Loc = MV->Loc;
    V.Witness =
        MV->WitnessIsCritical ? MV->WitnessVal : static_cast<Val>(0xff);
    V.Type = MV->Type;
    return V;
  };
}

/// checkRobustness taken apart into the public calls it makes, each in
/// its own span: SCMonitor construction, explorer construction,
/// runWithHook, report/trace rendering (NotRobust, sequential engine),
/// explorer destruction; then the run report the serve layer would
/// store. Must reproduce the facade's verdict and counts exactly.
VerdictRecord decomposedCheck(const std::string &Name, const Program &P,
                              const RockerOptions &O, Tracer &T) {
  SpanLog &L = T.Log;
  obs::Snapshot Before = obs::snapshot();
  RockerReport Rep;
  {
    std::optional<SCMonitor> Mem;
    {
      SpanLog::Scope S(L, "monitor.ctor");
      Mem.emplace(P, O.UseCriticalAbstraction);
    }
    auto Hook = timedHook(*Mem, T.Timer);
    // The run's footprint: peak RSS over it, from a trimmed baseline (else
    // the previous verdict's freed memory would be reused unseen).
    malloc_trim(0);
    uint64_t Rss0 = currentRssBytes();
    bool PeakReset = resetPeakRss();
    auto Growth = [&] {
      double Now = PeakReset ? peakRssBytes() : currentRssBytes();
      return std::max(0.0, Now - static_cast<double>(Rss0));
    };
    double RunSeconds = 0;
    if (O.Threads > 1) {
      std::unique_ptr<ParallelExplorer<SCMonitor>> Ex;
      {
        SpanLog::Scope S(L, "explore.ctor");
        Ex = std::make_unique<ParallelExplorer<SCMonitor>>(P, *Mem,
                                                           parOptions(O));
      }
      ParExploreResult R;
      {
        SpanLog::Scope S(L, "explore.run");
        R = Ex->runWithHook(Hook);
        RunSeconds = S.seconds();
      }
      T.RssGrowth += Growth();
      Rep.Complete = !R.Stats.Truncated;
      Rep.Robust = R.Violations.empty();
      Rep.Approximate = R.Approximate;
      Rep.Stats = std::move(R.Stats);
      Rep.Violations = std::move(R.Violations);
      Rep.FirstViolationText = std::move(R.FirstViolationText);
      Rep.FirstViolationTrace = std::move(R.FirstViolationTrace);
      {
        SpanLog::Scope S(L, "parexplore.dtor");
        Ex.reset();
      }
      T.ParStates += Rep.Stats.NumStates;
      T.ParRunSeconds += RunSeconds;
      uint64_t Max = 0, Sum = 0;
      for (const ExploreStats::WorkerCounters &W : Rep.Stats.Workers) {
        Max = std::max(Max, W.Expanded);
        Sum += W.Expanded;
      }
      if (!Rep.Stats.Workers.empty()) {
        T.ImbalanceMax += Max;
        T.ImbalanceMean += static_cast<double>(Sum) / Rep.Stats.Workers.size();
      }
    } else {
      std::unique_ptr<ProductExplorer<SCMonitor>> Ex;
      {
        SpanLog::Scope S(L, "explore.ctor");
        Ex = std::make_unique<ProductExplorer<SCMonitor>>(P, *Mem,
                                                          exploreOptions(O));
      }
      ExploreResult R;
      {
        SpanLog::Scope S(L, "explore.run");
        R = Ex->runWithHook(Hook);
      }
      T.RssGrowth += Growth();
      Rep.Complete = !R.Stats.Truncated;
      Rep.Robust = R.Violations.empty();
      Rep.Approximate = R.Approximate;
      Rep.Stats = R.Stats;
      Rep.Violations = R.Violations;
      if (!R.Violations.empty()) {
        SpanLog::Scope S(L, "rocker.render");
        Rep.FirstViolationText = Ex->report(R.Violations.front());
        Rep.FirstViolationTrace = Ex->trace(R.Violations.front());
      }
      SpanLog::Scope S(L, "explore.dtor");
      Ex.reset();
    }
  }
  obs::Snapshot After = obs::snapshot();
  {
    SpanLog::Scope S(L, "obs.report");
    obs::RunReport RR =
        obs::buildRunReport(Name, "robustness", O, Rep, Before, After);
    std::string Json = obs::toJson(RR).dump();
  }
  addInto(T.Engine, obs::diff(After, Before));
  T.States += Rep.Stats.NumStates;
  T.VisitedBytes += Rep.Stats.VisitedBytes;
  T.VisitedRaw += Rep.Stats.VisitedRawBytes;
  T.PeakFrontier = std::max(T.PeakFrontier, Rep.Stats.PeakFrontier);

  VerdictRecord V;
  V.Name = Name;
  V.Parsed = true;
  V.Cls = Rep.verdictClass();
  V.States = Rep.Stats.NumStates;
  V.Transitions = Rep.Stats.NumTransitions;
  return V;
}

/// Parses (and prints, as the cache key's normal form does) in spans.
std::optional<Program> tracedParse(const std::string &Text, SpanLog &L) {
  std::optional<Program> P;
  {
    SpanLog::Scope S(L, "lang.parse");
    ParseResult PR = parseProgram(Text);
    if (PR.ok())
      P = std::move(PR.Prog);
  }
  if (P) {
    SpanLog::Scope S(L, "lang.print");
    std::string Normal = toString(*P);
  }
  return P;
}

/// Per-call medians from the span log, in the given unit scale.
double spanMedian(const SpanLog &L, const std::string &Name, double Scale) {
  std::vector<double> D;
  for (const SpanLog::Rec &R : L.records())
    if (R.Name == Name)
      D.push_back(R.seconds() * Scale);
  return median(D);
}

/// Median over traced passes of the per-pass total of a span.
double spanPassTotal(const SpanLog &L, const std::string &Name,
                     unsigned Passes) {
  std::vector<double> Tot(Passes, 0.0);
  bool Any = false;
  for (const SpanLog::Rec &R : L.records())
    if (R.Name == Name && R.Pass >= 1 && R.Pass <= Passes) {
      Tot[R.Pass - 1] += R.seconds();
      Any = true;
    }
  return Any ? median(Tot) : 0.0;
}

double spanTotal(const SpanLog &L, const std::string &Name) {
  double S = 0;
  for (const SpanLog::Rec &R : L.records())
    if (R.Name == Name)
      S += R.seconds();
  return S;
}

void setLayerMetrics(const Tracer &T, MetricSet &M) {
  const SpanLog &L = T.Log;
  const obs::Snapshot &E = T.Engine;
  auto C = [&](obs::Ctr K) { return static_cast<double>(E.counter(K)); };
  double Transitions = C(obs::Ctr::Transitions);
  double Probes = C(obs::Ctr::VisitedProbes);

  M.set("lang.parse_us", spanMedian(L, "lang.parse", 1e6));
  M.set("lang.print_us", spanMedian(L, "lang.print", 1e6));
  M.set("monitor.setup_us", spanMedian(L, "monitor.ctor", 1e6));
  uint64_t Timed = T.Timer.Calls.load();
  M.set("monitor.ns_per_check",
        Timed ? std::max(0.0, static_cast<double>(T.Timer.Ns.load()) / Timed -
                                  clockOverheadNs())
              : 0.0);
  M.set("monitor.checks_per_transition",
        ratio(C(obs::Ctr::MonitorChecks), Transitions));
  M.set("explore.setup_us", spanMedian(L, "explore.ctor", 1e6));
  M.set("explore.run_s", spanPassTotal(L, "explore.run", T.TracedPasses));
  M.set("explore.teardown_s",
        spanPassTotal(L, "explore.dtor", T.TracedPasses));
  M.set("explore.self_ns_per_transition",
        ratio(E.phase(obs::Phase::Explore) * 1e9, Transitions));
  M.set("explore.states_per_s",
        ratio(static_cast<double>(T.States), spanTotal(L, "explore.run")));
  M.set("explore.rss_bytes_per_state",
        ratio(T.RssGrowth, static_cast<double>(T.States)));
  M.set("explore.peak_frontier", static_cast<double>(T.PeakFrontier));
  M.set("por.ample_ratio",
        ratio(C(obs::Ctr::AmpleHits), C(obs::Ctr::Expansions)));
  M.set("por.saved_steps_per_state",
        ratio(C(obs::Ctr::PorSavedSteps), static_cast<double>(T.States)));
  M.set("visited.ns_per_probe",
        ratio(E.phase(obs::Phase::VisitedProbe) * 1e9, Probes));
  M.set("visited.dedup_ratio", ratio(C(obs::Ctr::DedupHits), Probes));
  M.set("visited.bytes_per_state", ratio(static_cast<double>(T.VisitedBytes),
                                         static_cast<double>(T.States)));
  M.set("visited.compression_ratio",
        ratio(static_cast<double>(T.VisitedRaw),
              static_cast<double>(T.VisitedBytes)));
  M.set("parexplore.states_per_s",
        ratio(static_cast<double>(T.ParStates), T.ParRunSeconds));
  M.set("parexplore.worker_imbalance",
        ratio(T.ImbalanceMax, T.ImbalanceMean));
  M.set("parexplore.steal_success_ratio",
        ratio(C(obs::Ctr::Steals), C(obs::Ctr::StealAttempts)));
  M.set("parexplore.steal_batch_mean",
        ratio(C(obs::Ctr::StealBatchItems), C(obs::Ctr::Steals)));
  M.set("parexplore.teardown_s",
        spanPassTotal(L, "parexplore.dtor", T.TracedPasses));
  M.set("visited.probe_steps_per_probe",
        ratio(C(obs::Ctr::VisitedProbeSteps), Probes));
  M.set("visited.cas_retries_per_insert",
        ratio(C(obs::Ctr::VisitedCasRetries), C(obs::Ctr::VisitedInserts)));
  M.set("visited.growths",
        ratio(C(obs::Ctr::VisitedGrowths), T.TracedPasses));
  for (const char *Name : {"lamport2-3-ra", "seqlock"}) {
    auto It = T.FacadeSeconds.find(Name);
    M.set(std::string("rocker.verdict_s.") + Name,
          It == T.FacadeSeconds.end() ? 0.0 : median(It->second));
  }
  M.set("rocker.violation_render_us", spanMedian(L, "rocker.render", 1e6));
  M.set("obs.report_us", spanMedian(L, "obs.report", 1e6));
  M.set("serve.cache_key_us", spanMedian(L, "serve.cache_key", 1e6));
  M.set("serve.lookup_hit_us", spanMedian(L, "serve.lookup", 1e6));
  M.set("serve.job_overhead_ms", median(T.JobOverheadMs));
  M.set("serve.queue_wait_ms_p50", median(T.QueueWaitMs));
  M.set("serve.hit_ratio", ratio(static_cast<double>(T.BatchHits),
                                 static_cast<double>(T.BatchJobs)));
  M.set("serve.batch_self_s", median(T.BatchSelfS));
  double U = median(T.UntracedWalls), Tr = median(T.TracedWalls);
  M.set("obs.trace_overhead_pct", U > 0 ? (Tr / U - 1) * 100 : 0.0);
}

/// Starts the flight recorder for one traced pass (it keeps the last
/// pass's events; configure resets them).
void startFlightRecorder(const Config &C, const std::string &Stem) {
  obs::traceConfigure(C.OutDir + "/" + Stem + ".flight.json");
}

/// Writes the flight recorder's and the benchmark's traces at exit.
void writeTraces(const Config &C, const std::string &Stem, const Tracer &T,
                 RunResult &R) {
  obs::traceStop();
  obs::TraceWriteResult W = obs::traceWrite();
  std::string Spans = C.OutDir + "/" + Stem + ".spans.json";
  bool Ok = T.Log.writeChromeJson(Spans);
  R.Notes.push_back({"flight_trace", jsonString(W.Ok ? C.OutDir + "/" + Stem +
                                                           ".flight.json"
                                                     : "not written: " +
                                                           W.Error)});
  R.Notes.push_back({"span_trace", jsonString(Ok ? Spans : "not written")});
}

std::string stemOf(const Config &C) {
  return C.Workload + "-seed" + std::to_string(C.Seed);
}

/// Repeats the set-up at least SetupReps times and for at least
/// MinSetupSeconds, and returns the median repetition (a cheap set-up is
/// repeated often enough that its median is steady).
template <typename Fn>
double timedSetup(const Config &C, RunResult &R, Fn &&SetupOnce) {
  std::vector<double> Times;
  Clock::time_point Start = Clock::now();
  while (R.SetupError.empty() &&
         (Times.size() < std::max(1u, C.SetupReps) ||
          (since(Start) < C.MinSetupSeconds && Times.size() < 1000))) {
    Clock::time_point T0 = Clock::now();
    SetupOnce(static_cast<unsigned>(Times.size()));
    Times.push_back(since(T0));
  }
  // Free memory left by set-up goes back to the OS, so the timed passes'
  // peak resident set is their own.
  malloc_trim(0);
  R.Notes.push_back({"setup_reps", std::to_string(Times.size())});
  return median(Times);
}

/// Verdict latency: each input's latency is its median over the run's
/// passes, and the metrics are the median and the highest resolved
/// percentile (ten inputs beyond it) over inputs. Per-input medians keep
/// which verdicts are slow and drop one-off scheduling stalls of a shared
/// host. With too few inputs for any tail (the large workloads have two)
/// the slowest input stands in for the tail.
void setLatencyMetrics(const std::vector<std::vector<double>> &PerInputMs,
                       RunResult &R) {
  std::vector<double> Typical;
  size_t N = 0;
  for (const std::vector<double> &S : PerInputMs)
    if (!S.empty()) {
      N += S.size();
      Typical.push_back(median(S));
    }
  std::optional<Tail> T = highestResolvedPercentile(Typical);
  R.Metrics.set("verdict_p50_ms", median(Typical));
  R.Metrics.set("verdict_p99_ms",
                T ? T->Value
                  : (Typical.empty() ? 0.0
                                     : *std::max_element(Typical.begin(),
                                                         Typical.end())));
  R.Notes.push_back({"verdict_samples", std::to_string(N)});
  R.Notes.push_back({"verdict_inputs", std::to_string(Typical.size())});
  R.Notes.push_back(
      {"verdict_tail",
       jsonString(T ? "p" + std::to_string(T->PerMille / 10) : "max")});
}

/// The end-to-end metrics of an untraced run.
void setEndToEnd(const std::vector<double> &Walls,
                 const std::vector<std::vector<double>> &PerInputMs,
                 double Setup, bool PeakReset, RunResult &R) {
  R.Metrics.set("wall_s", median(Walls));
  setLatencyMetrics(PerInputMs, R);
  R.Metrics.set("peak_rss_mb", peakRssBytes() / 1048576.0);
  R.Metrics.set("setup_s", Setup);
  R.Notes.push_back({"passes", std::to_string(Walls.size())});
  R.Notes.push_back({"peak_rss_covers",
                     jsonString(PeakReset ? "timed passes" : "whole run")});
}

//===-- Corpus workloads --------------------------------------------------===//

/// One corpus job: text plus the reference verdict (the paper's, or the
/// graph oracle's for generated programs).
struct CorpusItem {
  std::string Name;
  std::string Text;
  bool Robust = false;
  bool operator==(const CorpusItem &) const = default;
};

bool isLargeName(const std::string &N) {
  return N == "lamport2-3-ra" || N == "seqlock";
}

/// The fixed corpus (Figure 7 + litmus, minus the large programs) plus
/// \p C.Generated seeded programs with oracle verdicts. Returns false
/// with \p Err set when a generated program fails to round-trip or the
/// oracle cannot finish on it.
bool buildCorpus(const Config &C, std::vector<CorpusItem> &Items,
                 std::string &Err) {
  Items.clear();
  for (const auto *List : {&figure7Programs(), &litmusTests()})
    for (const CorpusEntry &E : *List)
      if (!isLargeName(E.Name))
        Items.push_back({E.Name, E.Source, E.ExpectRobust});
  size_t First = Items.size();
  for (GeneratedProgram &G : generateCorpus(C.Seed, C.Generated))
    Items.push_back({std::move(G.Name), std::move(G.Text), false});

  // Oracle verdicts, spread over the worker count (set-up only).
  std::atomic<size_t> Next{First};
  std::vector<std::string> Errors(Items.size());
  auto Work = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Items.size();) {
      ParseResult PR = parseProgram(Items[I].Text);
      if (!PR.ok() || toString(*PR.Prog) != Items[I].Text) {
        Errors[I] = Items[I].Name + ": generated text does not round-trip";
        continue;
      }
      OracleResult O = checkGraphRobustnessOracle(
          *PR.Prog, /*MaxStates=*/2'000'000, /*NaExtension=*/true);
      if (!O.Complete)
        Errors[I] = Items[I].Name + ": graph oracle did not finish";
      Items[I].Robust = O.Robust;
    }
  };
  std::vector<std::thread> Pool;
  for (unsigned I = 1; I < C.Parallelism; ++I)
    Pool.emplace_back(Work);
  Work();
  for (std::thread &Th : Pool)
    Th.join();
  for (const std::string &E : Errors)
    if (!E.empty()) {
      Err = E;
      return false;
    }
  return true;
}

struct BatchPass {
  double Wall = 0;
  serve::BatchResult Result;
  obs::Snapshot Diff;
  std::vector<size_t> Unparsed; ///< Items whose text failed to parse.
  std::vector<size_t> JobItem;  ///< Job index → item index.
};

/// One pass: every text parsed, then one serve::runBatch call.
BatchPass batchPass(const std::vector<CorpusItem> &Items,
                    const std::string &CacheDir, unsigned Workers,
                    const RockerOptions &O) {
  BatchPass BP;
  obs::Snapshot Before = obs::snapshot();
  Clock::time_point T0 = Clock::now();
  {
    std::vector<serve::BatchJob> Jobs;
    Jobs.reserve(Items.size());
    for (size_t I = 0; I != Items.size(); ++I) {
      ParseResult PR = parseProgram(Items[I].Text);
      if (!PR.ok()) {
        BP.Unparsed.push_back(I);
        continue;
      }
      serve::BatchJob J;
      J.Name = Items[I].Name;
      J.Prog = std::move(*PR.Prog);
      J.Opts = O;
      Jobs.push_back(std::move(J));
      BP.JobItem.push_back(I);
    }
    serve::BatchOptions BO;
    BO.CacheDir = CacheDir;
    BO.Workers = Workers;
    BP.Result = serve::runBatch(Jobs, BO);
  }
  BP.Wall = since(T0);
  BP.Diff = obs::diff(obs::snapshot(), Before);
  return BP;
}

/// corpus-warm's warm-up batch, run in a child process the way an earlier
/// rocker_batch invocation fills the cache. The cold batch's memory
/// (several hundred MB at its peak) then never enters this process, so
/// the timed passes' peak RSS is their own. The child hands its job rows
/// back as JSON in a file beside the cache.
bool warmUpInChild(const std::vector<CorpusItem> &Items, const std::string &Dir,
                   unsigned Workers, const RockerOptions &O, BatchPass &Out,
                   std::string &Err) {
  using obs::json::Value;
  std::string RowsPath = Dir + ".rows.json";
  std::fflush(nullptr);
  pid_t Pid = ::fork();
  if (Pid < 0) {
    Err = "cannot fork the warm-up process";
    return false;
  }
  if (Pid == 0) {
    BatchPass BP = batchPass(Items, Dir, Workers, O);
    Value Doc = Value::object();
    Doc.set("wall", BP.Wall);
    Value Unparsed = Value::array();
    for (size_t I : BP.Unparsed)
      Unparsed.push(static_cast<uint64_t>(I));
    Doc.set("unparsed", std::move(Unparsed));
    Value Jobs = Value::array();
    for (size_t J = 0; J != BP.Result.Jobs.size(); ++J) {
      const serve::BatchJobResult &R = BP.Result.Jobs[J];
      Value Row = Value::object();
      Row.set("item", static_cast<uint64_t>(BP.JobItem[J]));
      Row.set("key", R.Key);
      Row.set("source", static_cast<unsigned>(R.Source));
      Row.set("verdict", static_cast<unsigned>(R.Verdict));
      Row.set("complete", R.Complete);
      Row.set("states", R.States);
      Row.set("wall", R.WallSeconds);
      Row.set("engine", R.EngineSeconds);
      Row.set("queue", R.QueueSeconds);
      Row.set("error", R.Error);
      Jobs.push(std::move(Row));
    }
    Doc.set("jobs", std::move(Jobs));
    std::ofstream F(RowsPath);
    F << Doc.dump();
    F.close();
    ::_exit(F ? 0 : 1);
  }
  int Status = 0;
  if (::waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) != 0) {
    Err = "the warm-up process failed";
    return false;
  }
  std::ifstream F(RowsPath);
  std::stringstream SS;
  SS << F.rdbuf();
  std::optional<Value> Doc = obs::json::Parser::parse(SS.str());
  if (!Doc || !Doc->find("jobs") || !Doc->find("unparsed")) {
    Err = "unreadable warm-up results " + RowsPath;
    return false;
  }
  Out = BatchPass();
  Out.Wall = Doc->find("wall")->asDouble();
  for (const Value &I : Doc->find("unparsed")->items())
    Out.Unparsed.push_back(I.asUInt());
  for (const Value &Row : Doc->find("jobs")->items()) {
    serve::BatchJobResult R;
    R.Key = Row.find("key")->asString();
    R.Source = static_cast<serve::JobSource>(Row.find("source")->asUInt());
    R.Verdict = static_cast<VerdictClass>(Row.find("verdict")->asUInt());
    R.Complete = Row.find("complete")->asBool();
    R.States = Row.find("states")->asUInt();
    R.WallSeconds = Row.find("wall")->asDouble();
    R.EngineSeconds = Row.find("engine")->asDouble();
    R.QueueSeconds = Row.find("queue")->asDouble();
    R.Error = Row.find("error")->asString();
    Out.JobItem.push_back(Row.find("item")->asUInt());
    Out.Result.Jobs.push_back(std::move(R));
  }
  return true;
}

/// Checks a batch pass against the reference verdicts; with \p Prior
/// (corpus-warm) every job must also be a hit matching the prior run.
void gateBatch(const std::vector<CorpusItem> &Items, const BatchPass &BP,
               const BatchPass *Prior, Outcome &Out) {
  for (size_t I : BP.Unparsed)
    Out.verdict(false, Items[I].Name + ": text failed to parse");
  for (size_t J = 0; J != BP.Result.Jobs.size(); ++J) {
    const serve::BatchJobResult &R = BP.Result.Jobs[J];
    const CorpusItem &It = Items[BP.JobItem[J]];
    bool Ok = R.Error.empty() && R.Complete &&
              R.Verdict == expectedClass(It.Robust);
    std::string Why = It.Name + ": expected " +
                      verdictClassName(expectedClass(It.Robust)) + ", got " +
                      verdictClassName(R.Verdict) +
                      (R.Error.empty() ? "" : " (error: " + R.Error + ")");
    if (Prior) {
      const serve::BatchJobResult &P = Prior->Result.Jobs.at(J);
      Ok = Ok && R.Source == serve::JobSource::CacheHit &&
           R.Verdict == P.Verdict && R.States == P.States;
      Why += std::string(", source ") + serve::jobSourceName(R.Source);
    }
    Out.verdict(Ok, Why);
  }
}

/// Adds each job's wall time (ms) to its input's samples. Only the first
/// job of each cache key counts: intra-batch duplicates never start.
void addJobLatencies(const BatchPass &BP,
                     std::vector<std::vector<double>> &PerItemMs) {
  std::set<std::string> Seen;
  for (size_t J = 0; J != BP.Result.Jobs.size(); ++J) {
    const serve::BatchJobResult &R = BP.Result.Jobs[J];
    if (Seen.insert(R.Key).second)
      PerItemMs[BP.JobItem[J]].push_back(R.WallSeconds * 1e3);
  }
}

std::string freshDir(const std::string &Dir) {
  std::error_code EC;
  fs::remove_all(Dir, EC);
  return Dir;
}

/// The traced sweep over a filled cache: per job, parse, print, cache key
/// and lookup in spans, then the decomposed engine path, which must match
/// the stored facade result exactly. On corpus-warm this is the only place
/// its per-verdict engine costs are measured.
void tracedSweep(const std::vector<CorpusItem> &Items,
                 const std::string &CacheDir, const RockerOptions &O,
                 Tracer &T, Outcome &Out) {
  serve::VerdictCache Cache(CacheDir);
  for (const CorpusItem &It : Items) {
    T.Log.beginVerdict();
    SpanLog::Scope V(T.Log, "verdict");
    std::optional<Program> P = tracedParse(It.Text, T.Log);
    std::string Key;
    std::optional<serve::CacheHit> Hit;
    if (P) {
      {
        SpanLog::Scope S(T.Log, "serve.cache_key");
        Key = serve::cacheKey(*P, "robustness", O);
      }
      SpanLog::Scope S(T.Log, "serve.lookup");
      Hit = Cache.lookup(Key);
    }
    if (!Hit) {
      Out.verdict(false, It.Name + (P ? ": no cache entry after the batch"
                                      : ": text failed to parse"));
      T.Log.endVerdict();
      continue;
    }
    VerdictRecord Stored;
    Stored.Name = It.Name;
    Stored.Parsed = true;
    Stored.Cls = Hit->Verdict;
    Stored.States = Hit->States;
    if (const obs::json::Value *St = Hit->Report.find("stats"))
      if (const obs::json::Value *Tr = St->find("transitions"))
        Stored.Transitions = Tr->asUInt();
    gateSame(Stored, decomposedCheck(It.Name, *P, O, T), Out);
    T.Log.endVerdict();
  }
}

/// Queue waits and job overheads (job wall minus engine seconds, i.e.
/// lookup, report building, store, fsync and index rewrite) of the jobs
/// that ran in \p R.
void addJobStats(const serve::BatchResult &R, Tracer &T,
                 bool QueueWaits = true) {
  std::set<std::string> Seen;
  for (const serve::BatchJobResult &J : R.Jobs) {
    if (!Seen.insert(J.Key).second)
      continue;
    if (QueueWaits)
      T.QueueWaitMs.push_back(J.QueueSeconds * 1e3);
    if (J.Source == serve::JobSource::Fresh)
      T.JobOverheadMs.push_back((J.WallSeconds - J.EngineSeconds) * 1e3);
  }
}

RunResult runCorpus(const Config &C, bool Warm) {
  RunResult R(C.Trace);
  RockerOptions O = benchOptions(1);
  std::string Base = C.WorkDir + "/" + C.Workload;
  freshDir(Base);
  fs::create_directories(Base);

  std::vector<CorpusItem> Items, First;
  std::string WarmDir;
  BatchPass WarmUp;
  double Setup = timedSetup(C, R, [&](unsigned Rep) {
    if (!buildCorpus(C, Items, R.SetupError))
      return;
    if (Warm) {
      if (!WarmDir.empty())
        freshDir(WarmDir);
      WarmDir = freshDir(Base + "/warm-cache-" + std::to_string(Rep));
      if (!warmUpInChild(Items, WarmDir, C.Parallelism, O, WarmUp,
                         R.SetupError))
        return;
    }
    // Repeated set-ups must agree: the corpus is a function of the seed.
    if (Rep == 0)
      First = Items;
    else
      R.Out.verdict(Items == First, "set-up repetition " +
                                        std::to_string(Rep) +
                                        " produced a different corpus");
  });
  if (!R.SetupError.empty())
    return R;
  if (Warm)
    gateBatch(Items, WarmUp, nullptr, R.Out);
  R.Notes.push_back({"jobs", std::to_string(Items.size())});
  R.Notes.push_back({"generated", std::to_string(C.Generated)});
  R.Notes.push_back({"options", optionsJson(O, C.Parallelism)});
  size_t RobustCount = 0;
  for (const CorpusItem &It : Items)
    RobustCount += It.Robust;
  R.Notes.push_back({"reference_robust", std::to_string(RobustCount)});

  unsigned PassNo = 0;
  auto NextDir = [&] {
    return Warm ? WarmDir
                : freshDir(Base + "/cold-" + std::to_string(PassNo));
  };

  if (!C.Trace) {
    bool Reset = resetPeakRss();
    std::vector<double> Walls;
    std::vector<std::vector<double>> Samples(Items.size());
    Clock::time_point Start = Clock::now();
    do {
      ++PassNo;
      std::string Dir = NextDir();
      BatchPass BP = batchPass(Items, Dir, C.Parallelism, O);
      gateBatch(Items, BP, Warm ? &WarmUp : nullptr, R.Out);
      Walls.push_back(BP.Wall);
      addJobLatencies(BP, Samples);
      if (!Warm)
        freshDir(Dir);
    } while (since(Start) < C.Seconds);
    setEndToEnd(Walls, Samples, Setup, Reset, R);
  } else {
    Tracer T;
    // corpus-warm runs no engine in its passes; the warm-up batch of its
    // set-up is where its jobs ran fresh.
    if (Warm)
      addJobStats(WarmUp.Result, T, /*QueueWaits=*/false);
    std::string Stem = stemOf(C);
    Clock::time_point Start = Clock::now();
    do {
      // Untraced pass: the facade numbers the overhead is measured against.
      ++PassNo;
      std::string Dir = NextDir();
      BatchPass U = batchPass(Items, Dir, C.Parallelism, O);
      gateBatch(Items, U, Warm ? &WarmUp : nullptr, R.Out);
      T.UntracedWalls.push_back(U.Wall);
      T.BatchSelfS.push_back(U.Diff.phase(obs::Phase::Batch));
      T.BatchJobs += U.Result.Jobs.size();
      T.BatchHits += U.Result.Hits;
      addJobStats(U.Result, T);
      if (!Warm)
        freshDir(Dir);

      // Traced pass: the same batch under the flight recorder, then the
      // decomposed sweep over the cache it filled.
      ++PassNo;
      T.Log.setPass(++T.TracedPasses);
      Dir = NextDir();
      startFlightRecorder(C, Stem);
      BatchPass Tr;
      {
        SpanLog::Scope S(T.Log, "batch");
        Tr = batchPass(Items, Dir, C.Parallelism, O);
      }
      obs::traceStop();
      gateBatch(Items, Tr, Warm ? &WarmUp : nullptr, R.Out);
      T.TracedWalls.push_back(Tr.Wall);
      {
        SpanLog::Scope S(T.Log, "sweep");
        tracedSweep(Items, Dir, O, T, R.Out);
      }
      T.Log.setPass(0);
      if (!Warm)
        freshDir(Dir);
    } while (since(Start) < C.Seconds);
    setLayerMetrics(T, R.Metrics);
    writeTraces(C, Stem, T, R);
    R.Notes.push_back({"traced_passes", std::to_string(T.TracedPasses)});
  }
  freshDir(Base);
  return R;
}

} // namespace

//===-- Public entry points -----------------------------------------------===//

unsigned defaultParallelism() {
  unsigned N = std::thread::hardware_concurrency();
  return std::clamp(N, 1u, 4u);
}

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {"large-seq", "large-par",
                                                 "corpus-cold", "corpus-warm"};
  return Names;
}

std::vector<LargeRef> largeRefs() {
  // Exact counts under default options (POR with trace recording stores
  // every reduced state, so these differ from BENCH_por.json's).
  return {
      {"lamport2-3-ra", findCorpusEntry("lamport2-3-ra").Source, true, 684039,
       1150403},
      {"seqlock", findCorpusEntry("seqlock").Source, true, 327358, 585316},
  };
}

RunResult runLarge(const Config &C, const std::vector<LargeRef> &Refs,
                   unsigned Threads) {
  RunResult R(C.Trace);
  RockerOptions O = benchOptions(Threads);
  // Set-up: the inputs are fixed texts; checking that they parse is all
  // there is to prepare.
  double Setup = timedSetup(C, R, [&](unsigned) {
    for (const LargeRef &Ref : Refs)
      if (!parseProgram(Ref.Text).ok())
        R.SetupError = Ref.Name + " does not parse";
  });
  if (!R.SetupError.empty())
    return R;
  R.Notes.push_back({"options", optionsJson(O, 1)});

  if (!C.Trace) {
    bool Reset = resetPeakRss();
    std::vector<double> Walls;
    std::vector<std::vector<double>> Samples(Refs.size());
    Clock::time_point Start = Clock::now();
    do {
      Clock::time_point T0 = Clock::now();
      std::vector<VerdictRecord> Got;
      for (const LargeRef &Ref : Refs)
        Got.push_back(facadeVerdict(Ref.Name, Ref.Text, O));
      Walls.push_back(since(T0));
      for (size_t I = 0; I != Refs.size(); ++I) {
        gateLarge(Refs[I], Got[I], R.Out);
        Samples[I].push_back(Got[I].Seconds * 1e3);
      }
    } while (since(Start) < C.Seconds);
    setEndToEnd(Walls, Samples, Setup, Reset, R);
    return R;
  }

  Tracer T;
  std::string Stem = stemOf(C);
  Clock::time_point Start = Clock::now();
  do {
    // Untraced pass through the facade, then the same inputs decomposed.
    std::vector<VerdictRecord> Facade;
    Clock::time_point T0 = Clock::now();
    for (const LargeRef &Ref : Refs)
      Facade.push_back(facadeVerdict(Ref.Name, Ref.Text, O));
    T.UntracedWalls.push_back(since(T0));
    for (size_t I = 0; I != Refs.size(); ++I) {
      gateLarge(Refs[I], Facade[I], R.Out);
      T.FacadeSeconds[Refs[I].Name].push_back(Facade[I].Seconds);
    }

    T.Log.setPass(++T.TracedPasses);
    startFlightRecorder(C, Stem);
    T0 = Clock::now();
    std::vector<VerdictRecord> Traced;
    {
      SpanLog::Scope Pass(T.Log, "pass");
      for (const LargeRef &Ref : Refs) {
        T.Log.beginVerdict();
        SpanLog::Scope V(T.Log, "verdict");
        std::optional<Program> P = tracedParse(Ref.Text, T.Log);
        VerdictRecord Rec;
        Rec.Name = Ref.Name;
        if (P)
          Rec = decomposedCheck(Ref.Name, *P, O, T);
        Traced.push_back(Rec);
        T.Log.endVerdict();
      }
    }
    T.TracedWalls.push_back(since(T0));
    obs::traceStop();
    T.Log.setPass(0);
    for (size_t I = 0; I != Refs.size(); ++I)
      gateSame(Facade[I], Traced[I], R.Out);
  } while (since(Start) < C.Seconds);
  setLayerMetrics(T, R.Metrics);
  writeTraces(C, Stem, T, R);
  R.Notes.push_back({"traced_passes", std::to_string(T.TracedPasses)});
  return R;
}

RunResult runWorkload(const Config &C) {
  fs::create_directories(C.OutDir);
  if (C.Workload == "large-seq")
    return runLarge(C, largeRefs(), 1);
  if (C.Workload == "large-par")
    return runLarge(C, largeRefs(), C.Parallelism);
  return runCorpus(C, C.Workload == "corpus-warm");
}

} // namespace perfbench
