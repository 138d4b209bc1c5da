//===- obs/RunReport.cpp - Run-report construction and writing ------------===//

#include "obs/RunReport.h"

#include <cstdio>

using namespace rocker;
using namespace rocker::obs;

RunReport obs::buildRunReport(std::string ProgramName, std::string Mode,
                              const RockerOptions &Config,
                              const RockerReport &Result,
                              const Snapshot &Before,
                              const Snapshot &After) {
  RunReport R;
  R.Program = std::move(ProgramName);
  R.Mode = std::move(Mode);
  R.Config = Config;
  R.Robust = Result.Robust;
  R.Complete = Result.Complete;
  R.Approximate = Result.Approximate;
  R.VerdictCls = Result.verdictClass();
  R.NumViolations = Result.Violations.size();
  R.Stats = Result.Stats;
  R.Sample = Result.Sample;
  R.Telemetry = diff(After, Before);
  return R;
}

namespace {

json::Value toolJson() {
  json::Value T = json::Value::object();
  T.set("name", "rocker");
#ifdef ROCKER_GIT_SHA
  T.set("git_sha", ROCKER_GIT_SHA);
#else
  T.set("git_sha", "unknown");
#endif
#ifdef NDEBUG
  T.set("build", "release");
#else
  T.set("build", "debug");
#endif
#ifdef __VERSION__
  T.set("compiler", __VERSION__);
#else
  T.set("compiler", "unknown");
#endif
  T.set("telemetry", telemetryEnabled());
  return T;
}

json::Value configJson(const RockerOptions &C) {
  json::Value J = json::Value::object();
  J.set("engine", C.UseSampling ? "sample"
        : C.Threads > 1 && C.BitstateLog2 == 0 ? "parallel"
                                               : "sequential");
  J.set("threads", C.Threads);
  J.set("max_states", C.MaxStates);
  J.set("max_seconds", C.MaxSeconds);
  J.set("bitstate_log2", C.BitstateLog2);
  J.set("critical_abstraction", C.UseCriticalAbstraction);
  J.set("check_assertions", C.CheckAssertions);
  J.set("check_races", C.CheckRaces);
  J.set("collapse_local_steps", C.CollapseLocalSteps);
  J.set("use_por", C.UsePor);
  if (C.Resilience.MemBudgetBytes)
    J.set("mem_budget_bytes", C.Resilience.MemBudgetBytes);
  if (C.Resilience.DeadlineSeconds > 0)
    J.set("deadline_seconds", C.Resilience.DeadlineSeconds);
  if (C.Resilience.wantsCheckpoints()) {
    J.set("checkpoint", C.Resilience.CheckpointPath);
    J.set("checkpoint_interval_seconds",
          C.Resilience.CheckpointIntervalSeconds);
  }
  if (C.Resilience.wantsResume())
    J.set("resume", C.Resilience.ResumePath);
  if (C.Resilience.SampleOnExhaustion)
    J.set("sample_on_exhaustion", true);
  if (C.UseSampling || C.Resilience.SampleOnExhaustion) {
    J.set("samples", C.Sampling.Samples);
    J.set("sample_seed", C.Sampling.Seed);
    J.set("sample_depth", C.Sampling.MaxDepth);
    J.set("sched", sample::sampleSchedulerName(C.Sampling.Sched));
    J.set("sample_workers", C.Sampling.Workers);
  }
  return J;
}

/// The "sample" stats block (sampling runs only; its presence is what
/// bumps the schema to rocker-run-report/2).
json::Value sampleJson(const sample::SampleStats &S) {
  json::Value J = json::Value::object();
  J.set("samples_requested", S.SamplesRequested);
  J.set("samples_run", S.SamplesRun);
  J.set("steps", S.Steps);
  J.set("deadlock_samples", S.DeadlockSamples);
  J.set("depth_cap_hits", S.DepthCapHits);
  J.set("randomized_samples", S.RandomizedSamples);
  J.set("seed", S.Seed);
  J.set("max_depth", S.MaxDepth);
  J.set("workers", S.Workers);
  J.set("scheduler", S.Scheduler);
  // Present only when a violation was found (clean budgets omit it, so
  // consumers use .get() with a -1 default).
  if (S.ViolationSample >= 0)
    J.set("violation_sample", static_cast<uint64_t>(S.ViolationSample));
  J.set("distinct_final_estimate", S.DistinctFinalEstimate);
  J.set("sketch_bytes", S.SketchBytes);
  J.set("seconds", S.Seconds);
  J.set("schedules_per_sec", S.schedulesPerSec());
  return J;
}

/// The "resilience" section: degradation-ladder provenance, checkpoint
/// activity, and interruption flags. Additive to rocker-run-report/1 —
/// consumers that don't know it see the same report as before.
json::Value resilienceJson(const resilience::ResilienceReport &R) {
  json::Value J = json::Value::object();
  J.set("final_rung", resilience::rungName(R.FinalRung));
  json::Value D = json::Value::array();
  for (const resilience::DowngradeEvent &E : R.Downgrades) {
    json::Value Ev = json::Value::object();
    Ev.set("from", resilience::rungName(E.From));
    Ev.set("to", resilience::rungName(E.To));
    Ev.set("at_states", E.AtStates);
    Ev.set("at_seconds", E.AtSeconds);
    Ev.set("used_bytes", E.UsedBytes);
    D.push(std::move(Ev));
  }
  J.set("downgrades", std::move(D));
  J.set("deadline_hit", R.DeadlineHit);
  J.set("interrupted", R.Interrupted);
  J.set("watchdog_fired", R.WatchdogFired);
  J.set("resumed", R.Resumed);
  if (R.Resumed)
    J.set("restored_states", R.RestoredStates);
  J.set("checkpoints_written", R.CheckpointsWritten);
  J.set("checkpoint_bytes", R.CheckpointBytes);
  J.set("checkpoint_seconds", R.CheckpointSeconds);
  if (!R.ResumeError.empty())
    J.set("resume_error", R.ResumeError);
  return J;
}

json::Value statsJson(const ExploreStats &S) {
  json::Value J = json::Value::object();
  J.set("states", S.NumStates);
  J.set("transitions", S.NumTransitions);
  J.set("dedup_hits", S.DedupHits);
  J.set("peak_frontier", S.PeakFrontier);
  J.set("visited_bytes", S.VisitedBytes);
  J.set("visited_raw_bytes", S.VisitedRawBytes);
  J.set("seconds", S.Seconds);
  J.set("truncated", S.Truncated);
  J.set("states_per_sec",
        S.Seconds > 0 ? S.NumStates / S.Seconds : 0.0);
  return J;
}

json::Value workersJson(const ExploreStats &S) {
  json::Value A = json::Value::array();
  for (const ExploreStats::WorkerCounters &W : S.Workers) {
    json::Value J = json::Value::object();
    J.set("expanded", W.Expanded);
    J.set("transitions", W.Transitions);
    J.set("dedup_hits", W.DedupHits);
    J.set("deadlocks", W.Deadlocks);
    J.set("steals", W.Steals);
    J.set("seconds", W.Seconds);
    J.set("states_per_sec", W.statesPerSec());
    A.push(std::move(J));
  }
  return A;
}

json::Value telemetryJson(const Snapshot &S) {
  json::Value Phases = json::Value::object();
  for (unsigned I = 1; I != NumPhases; ++I) // Idle excluded by design.
    Phases.set(phaseName(static_cast<Phase>(I)), S.PhaseSeconds[I]);
  Phases.set("total", S.attributedSeconds());

  json::Value Counters = json::Value::object();
  for (unsigned I = 0; I != NumCounters; ++I)
    Counters.set(counterName(static_cast<Ctr>(I)), S.Counters[I]);

  json::Value J = json::Value::object();
  J.set("phases", std::move(Phases));
  J.set("counters", std::move(Counters));
  return J;
}

} // namespace

json::Value obs::toJson(const RunReport &R) {
  json::Value J = json::Value::object();
  // The schema bumps to /2 only when the sample block is present, so
  // every pre-existing (non-sampling) report stays byte-identical and
  // committed baselines are unaffected.
  J.set("schema",
        R.Sample.Enabled ? "rocker-run-report/2" : "rocker-run-report/1");
  J.set("tool", toolJson());
  J.set("program", R.Program);
  J.set("mode", R.Mode);
  J.set("config", configJson(R.Config));

  json::Value V = json::Value::object();
  V.set("robust", R.Robust);
  V.set("complete", R.Complete);
  V.set("approximate", R.Approximate);
  V.set("violations", R.NumViolations);
  V.set("class", verdictClassName(R.VerdictCls));
  J.set("verdict", std::move(V));

  json::Value Stats = statsJson(R.Stats);
  if (R.Sample.Enabled)
    Stats.set("sample", sampleJson(R.Sample));
  J.set("stats", std::move(Stats));
  J.set("resilience", resilienceJson(R.Stats.Resilience));
  J.set("workers", workersJson(R.Stats));
  J.set("telemetry", telemetryJson(R.Telemetry));
  return J;
}

json::Value obs::toJson(const std::vector<RunReport> &Reports) {
  json::Value A = json::Value::array();
  for (const RunReport &R : Reports)
    A.push(toJson(R));
  return A;
}

static bool writeText(const std::string &Path, const std::string &Text) {
  if (Path == "-") {
    std::fputs(Text.c_str(), stdout);
    std::fputc('\n', stdout);
    return true;
  }
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fputs(Text.c_str(), F) >= 0 && std::fputc('\n', F) != EOF;
  Ok &= std::fclose(F) == 0;
  return Ok;
}

bool obs::writeRunReport(const std::string &Path, const RunReport &R) {
  Span Sp(Phase::Report);
  add(Ctr::ReportWrites);
  return writeText(Path, toJson(R).dump());
}

bool obs::writeRunReports(const std::string &Path,
                          const std::vector<RunReport> &Reports) {
  Span Sp(Phase::Report);
  add(Ctr::ReportWrites);
  return writeText(Path, toJson(Reports).dump());
}
