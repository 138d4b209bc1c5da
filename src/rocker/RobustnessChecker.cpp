//===- rocker/RobustnessChecker.cpp - The Rocker verifier -------------------===//

#include "rocker/RobustnessChecker.h"

#include "memory/SCMemory.h"
#include "monitor/SCMState.h"
#include "obs/Telemetry.h"
#include "parexplore/ParallelExplorer.h"
#include "sample/Sampler.h"

using namespace rocker;

namespace {

/// Maps RockerOptions onto the parallel engine's options.
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
  PE.LockFreeLog2 = Opts.LockFreeLog2;
  PE.UsePor = Opts.UsePor;
  PE.Resilience = Opts.Resilience;
  return PE;
}

/// True when the request can use the parallel engine (bitstate hashing
/// exists only in the sequential engine).
bool useParallel(const RockerOptions &Opts) {
  return Opts.Threads > 1 && Opts.BitstateLog2 == 0;
}

RockerReport reportFromParallel(ParExploreResult &&R) {
  RockerReport Rep;
  Rep.Complete = !R.Stats.Truncated;
  Rep.Robust = R.Violations.empty();
  Rep.Approximate = R.Approximate;
  Rep.Stats = std::move(R.Stats);
  Rep.Violations = std::move(R.Violations);
  Rep.FirstViolationText = std::move(R.FirstViolationText);
  Rep.FirstViolationTrace = std::move(R.FirstViolationTrace);
  return Rep;
}

/// The engine-level check toggles mirrored into the sampler, which runs
/// the same per-state battery as the exhaustive engines.
sample::SampleOptions sampleOptions(const RockerOptions &Opts) {
  sample::SampleOptions SO = Opts.Sampling;
  SO.CheckAssertions = Opts.CheckAssertions;
  SO.CheckRaces = Opts.CheckRaces;
  SO.RecordTrace = Opts.RecordTrace;
  SO.StopOnViolation = Opts.StopOnViolation;
  if (SO.Workers == 0)
    SO.Workers = 1;
  if (SO.DeadlineSeconds <= 0 && Opts.Resilience.DeadlineSeconds > 0)
    SO.DeadlineSeconds = Opts.Resilience.DeadlineSeconds;
  return SO;
}

/// Runs the sampling engine under \p Hook and folds the result into the
/// report contract: Approximate is always set (a clean sample budget
/// proves only "no violation in N schedules", so verdictClass() caps the
/// outcome at BoundedRobust), while violations found are real.
template <typename MemSys, typename AccessHook>
RockerReport sampleRobustness(const Program &P, const MemSys &Mem,
                              const RockerOptions &Opts, AccessHook Hook) {
  sample::SampleEngine<MemSys> Ex(P, Mem, sampleOptions(Opts));
  sample::SampleResult R = Ex.runWithHook(Hook);
  RockerReport Rep;
  Rep.Robust = R.Violations.empty();
  Rep.Approximate = true;
  Rep.Complete = !R.Stats.Truncated;
  Rep.Stats = std::move(R.Stats);
  Rep.Violations = std::move(R.Violations);
  Rep.FirstViolationText = std::move(R.FirstViolationText);
  Rep.FirstViolationTrace = std::move(R.FirstViolationTrace);
  Rep.Sample = std::move(R.Sample);
  return Rep;
}

/// The resilience ladder's fourth rung: exploration exhausted its budget
/// with no violation even on the bitstate rung, so rerun through the
/// sampling engine. Returns true when the fallback applies.
bool wantsSampleFallback(const RockerOptions &Opts, const RockerReport &Rep) {
  return Opts.Resilience.SampleOnExhaustion && !Opts.UseSampling &&
         !Rep.Complete && Rep.Violations.empty() &&
         !Rep.Stats.Resilience.Interrupted &&
         !Rep.Stats.Resilience.DeadlineHit &&
         Rep.Stats.Resilience.ResumeError.empty();
}

/// Grafts the exploration run's ladder provenance onto the fallback
/// sampling report: the handover is recorded as a DowngradeEvent and the
/// final rung becomes Sample, so run reports show the full descent.
void recordSampleDowngrade(const RockerReport &Explored, RockerReport &Rep) {
  resilience::ResilienceReport Merged = Explored.Stats.Resilience;
  Merged.DeadlineHit |= Rep.Stats.Resilience.DeadlineHit;
  Merged.Interrupted |= Rep.Stats.Resilience.Interrupted;
  resilience::DowngradeEvent E;
  E.From = Merged.FinalRung;
  E.To = resilience::StorageRung::Sample;
  E.AtStates = Explored.Stats.NumStates;
  E.AtSeconds = Explored.Stats.Seconds;
  E.UsedBytes = Explored.Stats.VisitedBytes;
  Merged.Downgrades.push_back(E);
  Merged.FinalRung = resilience::StorageRung::Sample;
  Rep.Stats.Resilience = std::move(Merged);
  obs::add(obs::Ctr::GovernorDowngrades);
}

} // namespace

RockerReport rocker::checkRobustness(const Program &P,
                                     const RockerOptions &Opts) {
  SCMonitor Mem(P, Opts.UseCriticalAbstraction);
  auto Hook = [&](const SCMState &S, ThreadId T, uint32_t Pc,
                  const MemAccess &A) -> std::optional<Violation> {
    obs::Span Sp(obs::Phase::MonitorStep);
    obs::add(obs::Ctr::MonitorChecks);
    std::optional<MonitorViolation> MV = Mem.checkAccess(S, T, A);
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

  if (Opts.UseSampling)
    return sampleRobustness(P, Mem, Opts, Hook);

  if (useParallel(Opts)) {
    ParallelExplorer<SCMonitor> Ex(P, Mem, parOptions(Opts));
    RockerReport Rep = reportFromParallel(Ex.runWithHook(Hook));
    if (wantsSampleFallback(Opts, Rep)) {
      RockerReport SRep = sampleRobustness(P, Mem, Opts, Hook);
      recordSampleDowngrade(Rep, SRep);
      return SRep;
    }
    return Rep;
  }

  ExploreOptions EO;
  EO.MaxStates = Opts.MaxStates;
  EO.RecordParents = Opts.RecordTrace;
  EO.StopOnViolation = Opts.StopOnViolation;
  EO.CheckAssertions = Opts.CheckAssertions;
  EO.CheckRaces = Opts.CheckRaces;
  EO.CollapseLocalSteps = Opts.CollapseLocalSteps;
  EO.BitstateLog2 = Opts.BitstateLog2;
  EO.UsePor = Opts.UsePor;
  EO.Resilience = Opts.Resilience;

  ProductExplorer<SCMonitor> Ex(P, Mem, EO);
  ExploreResult R = Ex.runWithHook(Hook);

  RockerReport Rep;
  Rep.Complete = !R.Stats.Truncated;
  Rep.Robust = R.Violations.empty();
  Rep.Approximate = R.Approximate;
  Rep.Stats = R.Stats;
  Rep.Violations = R.Violations;
  if (!R.Violations.empty()) {
    Rep.FirstViolationText = Ex.report(R.Violations.front());
    Rep.FirstViolationTrace = Ex.trace(R.Violations.front());
  }
  if (wantsSampleFallback(Opts, Rep)) {
    RockerReport SRep = sampleRobustness(P, Mem, Opts, Hook);
    recordSampleDowngrade(Rep, SRep);
    return SRep;
  }
  return Rep;
}

RockerReport rocker::exploreSC(const Program &P, const RockerOptions &Opts) {
  SCMemory Mem(P);

  if (Opts.UseSampling) {
    auto NoHook = [](const SCMemory::State &, ThreadId, uint32_t,
                     const MemAccess &) -> std::optional<Violation> {
      return std::nullopt;
    };
    return sampleRobustness(P, Mem, Opts, NoHook);
  }

  if (useParallel(Opts)) {
    ParallelExplorer<SCMemory> Ex(P, Mem, parOptions(Opts));
    return reportFromParallel(Ex.run());
  }

  ExploreOptions EO;
  EO.MaxStates = Opts.MaxStates;
  EO.RecordParents = Opts.RecordTrace;
  EO.StopOnViolation = Opts.StopOnViolation;
  EO.CheckAssertions = Opts.CheckAssertions;
  EO.CheckRaces = Opts.CheckRaces;
  EO.CollapseLocalSteps = Opts.CollapseLocalSteps;
  EO.BitstateLog2 = Opts.BitstateLog2;
  EO.UsePor = Opts.UsePor;
  EO.Resilience = Opts.Resilience;

  ProductExplorer<SCMemory> Ex(P, Mem, EO);
  ExploreResult R = Ex.run();

  RockerReport Rep;
  Rep.Complete = !R.Stats.Truncated;
  Rep.Robust = R.Violations.empty();
  Rep.Approximate = R.Approximate;
  Rep.Stats = R.Stats;
  Rep.Violations = R.Violations;
  if (!R.Violations.empty()) {
    Rep.FirstViolationText = Ex.report(R.Violations.front());
    Rep.FirstViolationTrace = Ex.trace(R.Violations.front());
  }
  return Rep;
}
