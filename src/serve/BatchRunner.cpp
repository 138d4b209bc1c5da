//===- serve/BatchRunner.cpp - Batch job runtime over the cache -----------===//

#include "serve/BatchRunner.h"

#include "litmus/Corpus.h"
#include "obs/RunReport.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "resilience/Resilience.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include <unistd.h>

namespace rocker::serve {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

bool fileExists(const std::string &Path) {
  return ::access(Path.c_str(), F_OK) == 0;
}

const CorpusEntry *findProgram(const std::string &Name) {
  for (const auto *List : {&litmusTests(), &figure7Programs(),
                           &extraLitmusTests(), &morePrograms()})
    for (const CorpusEntry &E : *List)
      if (E.Name == Name)
        return &E;
  return nullptr;
}

std::optional<std::string> slurpFile(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return std::nullopt;
  std::string Data;
  char Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Data.append(Buf, N);
  bool Bad = std::ferror(F) != 0;
  std::fclose(F);
  if (Bad)
    return std::nullopt;
  return Data;
}

/// Applies one manifest option key to \p O. Keys use the run-report
/// config spelling. Returns false with \p Err set on an unknown key or a
/// badly-typed value.
bool applyOption(RockerOptions &O, const std::string &Key,
                 const obs::json::Value &V, std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  using Kind = obs::json::Value::Kind;
  auto WantNum = [&] { return V.kind() == Kind::Int || V.kind() == Kind::Double; };
  auto WantBool = [&] { return V.kind() == Kind::Bool; };
  auto WantStr = [&] { return V.kind() == Kind::String; };

  if (Key == "threads") {
    if (!WantNum())
      return Fail("\"threads\" must be a number");
    O.Threads = static_cast<unsigned>(V.asUInt());
    return true;
  }
  if (Key == "max_states") {
    if (!WantNum())
      return Fail("\"max_states\" must be a number");
    O.MaxStates = V.asUInt();
    return true;
  }
  if (Key == "max_seconds") {
    if (!WantNum())
      return Fail("\"max_seconds\" must be a number");
    O.MaxSeconds = V.asDouble();
    return true;
  }
  if (Key == "engine") {
    if (!WantStr())
      return Fail("\"engine\" must be a string");
    const std::string &E = V.asString();
    if (E == "sample") {
      O.UseSampling = true;
    } else if (E == "parallel") {
      O.UseSampling = false;
      if (O.Threads < 2)
        O.Threads = 2;
    } else if (E == "sequential") {
      O.UseSampling = false;
      O.Threads = 1;
    } else {
      return Fail("unknown engine \"" + E + "\"");
    }
    return true;
  }
  if (Key == "bitstate_log2") {
    if (!WantNum())
      return Fail("\"bitstate_log2\" must be a number");
    // 0 is the default: no bitstate hashing.
    uint64_t K = V.asUInt();
    if (K != 0 && !resilience::bitstateLog2InRange(K))
      return Fail("\"bitstate_log2\" must be 0 or in [" +
                  std::to_string(resilience::MinBitstateLog2) + ", " +
                  std::to_string(resilience::MaxBitstateLog2) + "]");
    O.BitstateLog2 = static_cast<unsigned>(K);
    return true;
  }
  if (Key == "use_por") {
    if (!WantBool())
      return Fail("\"use_por\" must be a bool");
    O.UsePor = V.asBool();
    return true;
  }
  if (Key == "collapse_local_steps") {
    if (!WantBool())
      return Fail("\"collapse_local_steps\" must be a bool");
    O.CollapseLocalSteps = V.asBool();
    return true;
  }
  if (Key == "critical_abstraction") {
    if (!WantBool())
      return Fail("\"critical_abstraction\" must be a bool");
    O.UseCriticalAbstraction = V.asBool();
    return true;
  }
  if (Key == "check_assertions") {
    if (!WantBool())
      return Fail("\"check_assertions\" must be a bool");
    O.CheckAssertions = V.asBool();
    return true;
  }
  if (Key == "check_races") {
    if (!WantBool())
      return Fail("\"check_races\" must be a bool");
    O.CheckRaces = V.asBool();
    return true;
  }
  if (Key == "stop_on_violation") {
    if (!WantBool())
      return Fail("\"stop_on_violation\" must be a bool");
    O.StopOnViolation = V.asBool();
    return true;
  }
  if (Key == "samples") {
    if (!WantNum())
      return Fail("\"samples\" must be a number");
    O.Sampling.Samples = V.asUInt();
    return true;
  }
  if (Key == "sample_seed") {
    if (!WantNum())
      return Fail("\"sample_seed\" must be a number");
    O.Sampling.Seed = V.asUInt();
    return true;
  }
  if (Key == "sample_depth") {
    if (!WantNum())
      return Fail("\"sample_depth\" must be a number");
    O.Sampling.MaxDepth = V.asUInt();
    return true;
  }
  if (Key == "sample_workers") {
    if (!WantNum())
      return Fail("\"sample_workers\" must be a number");
    O.Sampling.Workers = static_cast<unsigned>(V.asUInt());
    return true;
  }
  if (Key == "sched") {
    if (!WantStr())
      return Fail("\"sched\" must be a string");
    auto S = sample::parseSampleScheduler(V.asString());
    if (!S)
      return Fail("unknown scheduler \"" + V.asString() + "\"");
    O.Sampling.Sched = *S;
    return true;
  }
  if (Key == "pct_change_points") {
    if (!WantNum())
      return Fail("\"pct_change_points\" must be a number");
    O.Sampling.PctChangePoints = static_cast<unsigned>(V.asUInt());
    return true;
  }
  if (Key == "mem_budget_bytes") {
    if (!WantNum())
      return Fail("\"mem_budget_bytes\" must be a number");
    O.Resilience.MemBudgetBytes = V.asUInt();
    return true;
  }
  if (Key == "deadline_seconds") {
    if (!WantNum())
      return Fail("\"deadline_seconds\" must be a number");
    O.Resilience.DeadlineSeconds = V.asDouble();
    return true;
  }
  if (Key == "sample_on_exhaustion") {
    if (!WantBool())
      return Fail("\"sample_on_exhaustion\" must be a bool");
    O.Resilience.SampleOnExhaustion = V.asBool();
    return true;
  }
  return Fail("unknown option \"" + Key + "\"");
}

/// Keys handled at the job level, not as engine options.
bool isJobStructuralKey(const std::string &K) {
  return K == "program" || K == "file" || K == "name" || K == "mode";
}

std::string fileStem(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Base =
      Slash == std::string::npos ? Path : Path.substr(Slash + 1);
  size_t Dot = Base.find_last_of('.');
  return Dot == std::string::npos ? Base : Base.substr(0, Dot);
}

} // namespace

const char *jobSourceName(JobSource S) {
  switch (S) {
  case JobSource::Fresh:
    return "fresh";
  case JobSource::CacheHit:
    return "cache-hit";
  case JobSource::Resumed:
    return "resumed";
  }
  return "unknown";
}

VerdictClass BatchResult::worst() const {
  VerdictClass W = VerdictClass::Robust;
  for (const BatchJobResult &J : Jobs) {
    if (J.Verdict == VerdictClass::NotRobust)
      return VerdictClass::NotRobust;
    if (J.Verdict == VerdictClass::BoundedRobust)
      W = VerdictClass::BoundedRobust;
  }
  return W;
}

int batchExitCode(const BatchResult &R) {
  if (R.Errors)
    return 4;
  switch (R.worst()) {
  case VerdictClass::Robust:
    return 0;
  case VerdictClass::NotRobust:
    return 1;
  case VerdictClass::BoundedRobust:
    return 2;
  }
  return 4;
}

std::optional<std::vector<BatchJob>>
parseBatchManifest(const std::string &Text, std::string *Err) {
  auto Fail = [&](const std::string &Msg) -> std::optional<std::vector<BatchJob>> {
    if (Err)
      *Err = Msg;
    return std::nullopt;
  };
  auto J = obs::json::parse(Text);
  if (!J || J->kind() != obs::json::Value::Kind::Object)
    return Fail("manifest is not a JSON object");
  const obs::json::Value *Schema = J->find("schema");
  if (!Schema || Schema->asString() != "rocker-batch-manifest/1")
    return Fail("manifest schema must be \"rocker-batch-manifest/1\"");

  RockerOptions Defaults;
  std::string DefaultMode = "robustness";
  if (const obs::json::Value *D = J->find("defaults")) {
    if (D->kind() != obs::json::Value::Kind::Object)
      return Fail("\"defaults\" must be an object");
    for (const auto &[K, V] : D->members()) {
      if (K == "mode") {
        if (V.asString() != "robustness" && V.asString() != "sc")
          return Fail("\"mode\" must be \"robustness\" or \"sc\"");
        DefaultMode = V.asString();
        continue;
      }
      std::string OptErr;
      if (!applyOption(Defaults, K, V, &OptErr))
        return Fail("defaults: " + OptErr);
    }
  }

  const obs::json::Value *JobsV = J->find("jobs");
  if (!JobsV || JobsV->kind() != obs::json::Value::Kind::Array ||
      JobsV->items().empty())
    return Fail("manifest needs a non-empty \"jobs\" array");

  std::vector<BatchJob> Jobs;
  for (size_t I = 0; I != JobsV->items().size(); ++I) {
    const obs::json::Value &JV = JobsV->items()[I];
    std::string Where = "job " + std::to_string(I);
    if (JV.kind() != obs::json::Value::Kind::Object)
      return Fail(Where + ": not an object");

    BatchJob Job;
    Job.Opts = Defaults;
    Job.Mode = DefaultMode;

    const obs::json::Value *ProgName = JV.find("program");
    const obs::json::Value *File = JV.find("file");
    if ((ProgName == nullptr) == (File == nullptr))
      return Fail(Where + ": exactly one of \"program\" or \"file\"");

    if (ProgName) {
      const CorpusEntry *E = findProgram(ProgName->asString());
      if (!E)
        return Fail(Where + ": unknown corpus program \"" +
                    ProgName->asString() + "\"");
      Job.Name = E->Name;
      Job.Prog = E->parse();
    } else {
      auto Text2 = slurpFile(File->asString());
      if (!Text2)
        return Fail(Where + ": cannot read \"" + File->asString() + "\"");
      ParseResult PR = parseProgram(*Text2);
      if (!PR.ok())
        return Fail(Where + ": parse error in \"" + File->asString() +
                    "\": " +
                    (PR.Errors.empty() ? "invalid program"
                                       : PR.Errors.front().toString()));
      Job.Name = fileStem(File->asString());
      Job.Prog = *PR.Prog;
    }

    for (const auto &[K, V] : JV.members()) {
      if (isJobStructuralKey(K)) {
        if (K == "name")
          Job.Name = V.asString();
        if (K == "mode") {
          if (V.asString() != "robustness" && V.asString() != "sc")
            return Fail(Where + ": \"mode\" must be \"robustness\" or \"sc\"");
          Job.Mode = V.asString();
        }
        continue;
      }
      std::string OptErr;
      if (!applyOption(Job.Opts, K, V, &OptErr))
        return Fail(Where + ": " + OptErr);
    }
    Jobs.push_back(std::move(Job));
  }
  return Jobs;
}

std::vector<BatchJob> corpusBatch(const RockerOptions &Defaults) {
  std::vector<BatchJob> Jobs;
  for (const auto *List : {&figure7Programs(), &litmusTests()})
    for (const CorpusEntry &E : *List) {
      BatchJob J;
      J.Name = E.Name;
      J.Prog = E.parse();
      J.Opts = Defaults;
      Jobs.push_back(std::move(J));
    }
  return Jobs;
}

namespace {

/// Runs one non-duplicate job: cache lookup, engine run (with resume
/// from a prior preempted spill), publication of reproducible outcomes.
BatchJobResult runOne(const BatchJob &Job, const std::string &Key,
                      VerdictCache *Cache, const BatchOptions &BO,
                      Clock::time_point BatchStart, size_t Index) {
  Clock::time_point T0 = Clock::now();
  BatchJobResult R;
  R.Name = Job.Name;
  R.Key = Key;
  R.Mode = Job.Mode;
  R.QueueSeconds =
      std::chrono::duration<double>(T0 - BatchStart).count();
  obs::traceInstant(obs::TraceInstant::JobStarted, Index);

  if (Cache && BO.UseCache) {
    if (std::optional<CacheHit> Hit = Cache->lookup(Key)) {
      R.Source = JobSource::CacheHit;
      R.Verdict = Hit->Verdict;
      R.Robust = Hit->Robust;
      R.Complete = Hit->Complete;
      R.States = Hit->States;
      R.EngineSeconds = Hit->EngineSeconds;
      R.FinalRung = Hit->FinalRung;
      R.Downgrades = Hit->Downgrades;
      R.WallSeconds = secondsSince(T0);
      obs::traceInstant(obs::TraceInstant::JobFinished, Index);
      return R;
    }
  } else if (Cache) {
    obs::add(obs::Ctr::CacheMisses); // --recheck counts as a forced miss.
  }

  RockerOptions O = Job.Opts;
  std::string Spill;
  if (Cache) {
    Spill = Cache->jobCheckpointPath(Key);
    O.Resilience.CheckpointPath = Spill;
    if (BO.CheckpointEveryExpansions)
      O.Resilience.CheckpointEveryExpansions = BO.CheckpointEveryExpansions;
    if (fileExists(Spill))
      O.Resilience.ResumePath = Spill;
  }

  auto Execute = [&](const RockerOptions &Opts) {
    return Job.Mode == "sc" ? exploreSC(Job.Prog, Opts)
                            : checkRobustness(Job.Prog, Opts);
  };

  obs::Snapshot Before = obs::snapshot();
  RockerReport Rep = Execute(O);
  if (!Rep.Stats.Resilience.ResumeError.empty() && !Spill.empty()) {
    // A stale or corrupt spill (cache format bump, torn write under an
    // injected fault): discard it and run fresh rather than failing the
    // job.
    ::unlink(Spill.c_str());
    O.Resilience.ResumePath.clear();
    Before = obs::snapshot();
    Rep = Execute(O);
  }
  obs::Snapshot After = obs::snapshot();

  R.Source =
      Rep.Stats.Resilience.Resumed ? JobSource::Resumed : JobSource::Fresh;
  R.Verdict = Rep.verdictClass();
  R.Robust = Rep.Robust;
  R.Complete = Rep.Complete;
  R.States = Rep.Stats.NumStates;
  R.EngineSeconds = Rep.Stats.Seconds;
  R.FinalRung = resilience::rungName(Rep.Stats.Resilience.FinalRung);
  R.Downgrades = Rep.Stats.Resilience.Downgrades.size();

  // Publish only deterministically reproducible outcomes: anything cut
  // short by a signal, deadline, watchdog, or state budget would pin a
  // transient answer under a key that a full run contradicts.
  const resilience::ResilienceReport &Res = Rep.Stats.Resilience;
  bool Reproducible = Rep.Complete && !Res.Interrupted && !Res.DeadlineHit &&
                      !Res.WatchdogFired && Res.ResumeError.empty();
  if (R.Source == JobSource::Resumed)
    obs::traceInstant(obs::TraceInstant::JobResumed, Index);
  if (Cache && !Reproducible)
    obs::traceInstant(obs::TraceInstant::JobPreempted, Index);
  if (Cache && Reproducible) {
    obs::RunReport RR = obs::buildRunReport(Job.Name, Job.Mode, Job.Opts,
                                            Rep, Before, After);
    std::string StoreErr;
    if (Cache->store(Key, Job.Name, verdictClassName(R.Verdict),
                     obs::toJson(RR), &StoreErr)) {
      R.Stored = true;
      if (!Spill.empty())
        ::unlink(Spill.c_str()); // The job is done; drop its spill.
    } else {
      // The verdict itself is still good — report the store failure
      // without failing the job.
      std::fprintf(stderr, "warning: cache store for %s failed: %s\n",
                   Job.Name.c_str(), StoreErr.c_str());
    }
  }
  R.WallSeconds = secondsSince(T0);
  obs::traceInstant(obs::TraceInstant::JobFinished, Index);
  return R;
}

} // namespace

BatchResult runBatch(const std::vector<BatchJob> &Jobs,
                     const BatchOptions &BO) {
  Clock::time_point T0 = Clock::now();
  BatchResult Result;
  Result.Jobs.resize(Jobs.size());

  std::unique_ptr<VerdictCache> Cache;
  if (!BO.CacheDir.empty()) {
    Cache = std::make_unique<VerdictCache>(BO.CacheDir);
    if (!Cache->ok()) {
      for (size_t I = 0; I != Jobs.size(); ++I) {
        Result.Jobs[I].Name = Jobs[I].Name;
        Result.Jobs[I].Mode = Jobs[I].Mode;
        Result.Jobs[I].Error = "cache: " + Cache->error();
      }
      Result.Errors = Jobs.size();
      Result.WallSeconds = secondsSince(T0);
      return Result;
    }
  }

  // Key every job up front; duplicates of an earlier key are computed
  // once and filled from the owner's row after the pool drains.
  std::vector<std::string> Keys(Jobs.size());
  std::vector<size_t> Owner(Jobs.size());
  {
    obs::Span Sp(obs::Phase::Batch);
    std::map<std::string, size_t> FirstWithKey;
    for (size_t I = 0; I != Jobs.size(); ++I) {
      Keys[I] = cacheKey(Jobs[I].Prog, Jobs[I].Mode, Jobs[I].Opts);
      Owner[I] = FirstWithKey.emplace(Keys[I], I).first->second;
      if (Owner[I] == I)
        obs::traceInstant(obs::TraceInstant::JobQueued, I);
    }
  }

  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (;;) {
      size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= Jobs.size())
        break;
      if (Owner[I] != I)
        continue;
      Result.Jobs[I] = runOne(Jobs[I], Keys[I], Cache.get(), BO, T0, I);
    }
  };

  unsigned Pool = BO.Workers ? BO.Workers : 1;
  if (Pool <= 1 || Jobs.size() <= 1) {
    Work();
  } else {
    std::vector<std::thread> Threads;
    unsigned N = std::min<size_t>(Pool, Jobs.size());
    Threads.reserve(N);
    for (unsigned I = 0; I != N; ++I)
      Threads.emplace_back(Work);
    for (std::thread &T : Threads)
      T.join();
  }

  for (size_t I = 0; I != Jobs.size(); ++I) {
    if (Owner[I] == I)
      continue;
    Result.Jobs[I] = Result.Jobs[Owner[I]];
    Result.Jobs[I].Name = Jobs[I].Name;
    Result.Jobs[I].Source = JobSource::CacheHit;
    Result.Jobs[I].Stored = false;
    Result.Jobs[I].WallSeconds = 0;
    Result.Jobs[I].QueueSeconds = 0;
  }

  for (const BatchJobResult &J : Result.Jobs) {
    if (!J.Error.empty()) {
      ++Result.Errors;
      continue;
    }
    switch (J.Source) {
    case JobSource::CacheHit:
      ++Result.Hits;
      break;
    case JobSource::Resumed:
      ++Result.Resumes;
      ++Result.Misses;
      break;
    case JobSource::Fresh:
      ++Result.Misses;
      break;
    }
    if (J.Stored)
      ++Result.Stores;
  }
  Result.WallSeconds = secondsSince(T0);
  return Result;
}

obs::json::Value toJson(const BatchResult &R, const BatchOptions &BO) {
  obs::json::Value J = obs::json::Value::object();
  J.set("schema", "rocker-batch-report/1");
  if (!BO.CacheDir.empty())
    J.set("cache_dir", BO.CacheDir);
  J.set("workers", BO.Workers);

  obs::json::Value S = obs::json::Value::object();
  S.set("jobs", static_cast<uint64_t>(R.Jobs.size()));
  S.set("hits", R.Hits);
  S.set("misses", R.Misses);
  S.set("stores", R.Stores);
  S.set("resumed", R.Resumes);
  S.set("errors", R.Errors);
  S.set("hit_rate", R.hitRate());
  S.set("wall_seconds", R.WallSeconds);
  S.set("verdict",
        R.Errors ? "error" : verdictClassName(R.worst()));
  J.set("summary", std::move(S));

  obs::json::Value Rows = obs::json::Value::array();
  for (const BatchJobResult &Job : R.Jobs) {
    obs::json::Value Row = obs::json::Value::object();
    Row.set("name", Job.Name);
    Row.set("key", Job.Key);
    Row.set("mode", Job.Mode);
    if (!Job.Error.empty()) {
      Row.set("error", Job.Error);
      Rows.push(std::move(Row));
      continue;
    }
    Row.set("source", jobSourceName(Job.Source));
    Row.set("verdict", verdictClassName(Job.Verdict));
    Row.set("robust", Job.Robust);
    Row.set("complete", Job.Complete);
    Row.set("states", Job.States);
    Row.set("engine_seconds", Job.EngineSeconds);
    Row.set("wall_seconds", Job.WallSeconds);
    Row.set("queue_seconds", Job.QueueSeconds);
    Row.set("final_rung", Job.FinalRung);
    Row.set("downgrades", Job.Downgrades);
    Row.set("stored", Job.Stored);
    Rows.push(std::move(Row));
  }
  J.set("jobs", std::move(Rows));
  return J;
}

bool writeBatchReport(const std::string &Path, const BatchResult &R,
                      const BatchOptions &BO) {
  obs::Span Sp(obs::Phase::Report);
  obs::add(obs::Ctr::ReportWrites);
  std::string Text = toJson(R, BO).dump() + "\n";
  if (Path == "-") {
    std::fputs(Text.c_str(), stdout);
    return true;
  }
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fputs(Text.c_str(), F) >= 0;
  Ok &= std::fclose(F) == 0;
  return Ok;
}

} // namespace rocker::serve
