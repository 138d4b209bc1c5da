//===- rocker/RobustnessChecker.h - The Rocker verifier --------*- C++ -*-===//
///
/// \file
/// Rocker's top-level interface (Section 7): verify execution-graph
/// robustness against release/acquire (Theorem 5.3) by a reachability run
/// of the program under the instrumented-SC subsystem SCM; simultaneously
/// verify standard assertions under SC and the absence of data races on
/// non-atomic locations (Theorem 6.2). Because robust programs have only
/// SC executions, a "robust" result means the program can then be
/// analyzed with ordinary SC techniques.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_ROCKER_ROBUSTNESSCHECKER_H
#define ROCKER_ROCKER_ROBUSTNESSCHECKER_H

#include "explore/Explorer.h"
#include "lang/Program.h"
#include "sample/Schedule.h"
#include "support/LockFreeVisited.h"

#include <string>

namespace rocker {

/// Options for a robustness verification run.
struct RockerOptions {
  /// Use the Section 5.1 critical-value abstraction (smaller monitor
  /// states; identical verdicts).
  bool UseCriticalAbstraction = true;
  /// Verify assert(e) instructions under SC.
  bool CheckAssertions = true;
  /// Check for Definition 6.1 races on non-atomic locations.
  bool CheckRaces = true;
  /// Record parent edges so violations come with an SC interleaving.
  bool RecordTrace = true;
  /// Stop at the first violation (otherwise collect them all).
  bool StopOnViolation = true;
  /// State budget; exceeding it yields Complete == false.
  uint64_t MaxStates = 200'000'000;
  /// Collapse deterministic thread-local step chains (verdict-preserving
  /// exploration reduction; see ExploreOptions::CollapseLocalSteps).
  bool CollapseLocalSteps = false;
  /// No effect (see SearchOrder): the sequential engine is breadth-first.
  SearchOrder Order = SearchOrder::BFS;
  /// Spin-style bitstate hashing with 2^k bits when non-zero; "robust"
  /// results become approximate (see ExploreOptions::BitstateLog2).
  unsigned BitstateLog2 = 0;
  /// Worker threads. 1 = the sequential engine (default); >1 = the
  /// work-stealing engine (parexplore/ParallelExplorer.h), which falls
  /// back to sequential when BitstateLog2 is set.
  /// Verdicts and full-exploration state counts are identical either way;
  /// violation traces are reconstructed by a sequential replay, so they
  /// are byte-identical too.
  unsigned Threads = 1;
  /// Wall-clock budget in seconds (parallel engine only; 0 = unlimited).
  /// Exceeding it yields Complete == false instead of running forever.
  double MaxSeconds = 0;
  /// No effect: both engines always use their collapse-compressed
  /// visited set. Leaves with the options-struct merge in the next
  /// benchmark revision.
  bool CompressVisited = true;
  /// Has one value, the parallel engine's lock-free tier (see
  /// VisitedImpl); kept until the next benchmark revision merges the
  /// options structs.
  VisitedImpl Visited = VisitedImpl::LockFree;
  /// log2 of the lock-free tier's *initial* root-table capacity (0 =
  /// default 2^18). The tables grow automatically (4x rebuild under a
  /// world pause at 1/2 load); a run truncates (Complete == false, like
  /// a MaxStates cut) only at the 2^30 growth ceiling, or if a table
  /// fills faster than the management thread polls.
  unsigned LockFreeLog2 = 0;
  /// Monitor-aware ample-set partial-order reduction (explore/Por.h):
  /// identical verdicts and violation sets with typically far fewer
  /// expanded states. `rocker_cli --no-por` / ROCKER_NO_POR=1 turns it
  /// off (state counts then change, verdicts do not).
  bool UsePor = defaultUsePor();
  /// Resource budgets, graceful degradation, and checkpoint/resume
  /// (resilience/Resilience.h). Applied to the top-level product run
  /// only; internal replays and oracles never checkpoint or degrade.
  resilience::ResilienceOptions Resilience;
  /// Use the sampling engine (sample/Sampler.h) instead of exhaustive
  /// exploration: monitored random-schedule execution with no visited
  /// set. The verdict ceiling is BoundedRobust — a clean sample budget
  /// proves only "no violation in N schedules" — while violations found
  /// are real and come with a deterministically replayed trace.
  bool UseSampling = false;
  /// Sampling-engine configuration (budget, seed, scheduler, workers);
  /// consulted when UseSampling is set or when
  /// Resilience.SampleOnExhaustion triggers the sampling fallback.
  sample::SampleOptions Sampling;
};

/// Outcome class with a stable process exit-code mapping (rocker_cli):
/// 0 = Robust (exact coverage, run completed), 1 = NotRobust (violations
/// are always real, even on degraded runs), 2 = BoundedRobust (no
/// violation found but coverage was not exhaustive: state/time budget
/// hit, interrupted, or the memory governor degraded the visited set to
/// bitstate hashing). Exit codes 3 (usage error) and 4 (internal error)
/// exist only at the CLI layer.
enum class VerdictClass : uint8_t {
  Robust = 0,
  NotRobust = 1,
  BoundedRobust = 2,
};

/// Renders a verdict class ("robust", "not-robust", "bounded-robust").
/// Inline: also used by obs/RunReport.cpp, which cannot link against
/// this library (it sits below it in the layering).
inline const char *verdictClassName(VerdictClass V) {
  switch (V) {
  case VerdictClass::Robust:
    return "robust";
  case VerdictClass::NotRobust:
    return "not-robust";
  case VerdictClass::BoundedRobust:
    return "bounded-robust";
  }
  return "unknown";
}

/// The verification verdict.
struct RockerReport {
  /// True iff the program is execution-graph robust against RA and has no
  /// assertion failures or NA races (valid only when Complete).
  bool Robust = false;
  /// True when bitstate hashing was in effect (Robust is then only
  /// probabilistically complete).
  bool Approximate = false;
  /// False when the exploration hit the state budget.
  bool Complete = true;
  std::vector<Violation> Violations;
  ExploreStats Stats;
  /// Human-readable rendering of the first violation with its trace.
  std::string FirstViolationText;
  /// The raw trace of the first violation (empty without RecordTrace).
  std::vector<TraceStep> FirstViolationTrace;
  /// Sampling-run outcome (Enabled == false for exhaustive runs).
  sample::SampleStats Sample;

  bool ok() const { return Robust && Complete; }

  /// Collapses the report into the three-way exit-code contract. Robust
  /// is only claimable when the run completed with exact coverage; any
  /// truncation, degradation, or resilience interruption demotes a clean
  /// sweep to BoundedRobust.
  VerdictClass verdictClass() const {
    if (!Robust)
      return VerdictClass::NotRobust;
    if (!Complete || Approximate || Stats.Resilience.degraded())
      return VerdictClass::BoundedRobust;
    return VerdictClass::Robust;
  }
};

/// Verifies execution-graph robustness of \p P against RA.
RockerReport checkRobustness(const Program &P, const RockerOptions &Opts = {});

/// Baseline: explores \p P under plain SC (no instrumentation), checking
/// only assertions — the Figure 7 "SC" column.
RockerReport exploreSC(const Program &P, const RockerOptions &Opts = {});

} // namespace rocker

#endif // ROCKER_ROCKER_ROBUSTNESSCHECKER_H
