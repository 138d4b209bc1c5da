//===- serve/BatchRunner.h - Batch job runtime over the cache --*- C++ -*-===//
///
/// \file
/// The multi-program layer of the serving tier: a batch of verification
/// jobs (program + mode + per-job option overrides) scheduled across a
/// worker pool, with every verdict first looked up in — and afterwards
/// published to — the content-addressed VerdictCache.
///
/// Job lifecycle on a cache miss: the job's budgets (memory, deadline)
/// flow through the existing resilience governor unchanged, including
/// the exact → bitstate → sample degradation ladder. When
/// the cache is enabled, each job checkpoints to a per-key spill file;
/// a preempted job (stop request, deadline) leaves its spill behind and
/// the next submission of the same key resumes from it instead of
/// starting over. Only deterministically reproducible outcomes are
/// published: a run that was interrupted, deadline-truncated, watchdog-
/// stopped, or failed to resume is reported but never cached.
///
/// Duplicate keys inside one batch are computed once: later jobs with
/// the key of an earlier job are filled from its result and counted as
/// hits.
///
/// The batch manifest ("rocker-batch-manifest/1") is JSON:
///
///   { "schema": "rocker-batch-manifest/1",
///     "defaults": { "threads": 2, "max_states": 4000000 },
///     "jobs": [
///       { "program": "peterson-ra" },
///       { "program": "dekker-ra", "mode": "sc" },
///       { "file": "prog.rkr", "name": "mine", "deadline_seconds": 5 } ] }
///
/// Each job names a corpus program ("program") or a .rkr file ("file");
/// option keys in "defaults" and per-job use the same spelling as the
/// run-report config block (threads, max_states, engine, samples,
/// mem_budget_bytes, ...). Unknown keys are errors, not ignored.
///
/// The batch summary report ("rocker-batch-report/1") aggregates per-job
/// verdicts, hit/miss/resume provenance, wall time, and downgrade
/// counts, plus a summary block with the hit rate and worst verdict.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_SERVE_BATCHRUNNER_H
#define ROCKER_SERVE_BATCHRUNNER_H

#include "serve/VerdictCache.h"

#include <optional>
#include <string>
#include <vector>

namespace rocker::serve {

/// One verification job.
struct BatchJob {
  std::string Name;              ///< Display name (corpus name or file stem).
  std::string Mode = "robustness"; ///< "robustness" or "sc".
  Program Prog;
  RockerOptions Opts;
};

/// Batch-level configuration.
struct BatchOptions {
  /// Verdict-cache directory; empty = no cache (every job runs fresh).
  std::string CacheDir;
  /// Worker-pool size — jobs in flight at once (each job may itself use
  /// Opts.Threads engine workers). 1 = run jobs inline, in order.
  unsigned Workers = 1;
  /// When false, lookups are bypassed (fresh results are still stored);
  /// `rocker_batch --recheck`.
  bool UseCache = true;
  /// Test hook, forwarded to every job's ResilienceOptions: checkpoint
  /// every N expansions for deterministic preemption points.
  uint64_t CheckpointEveryExpansions = 0;
};

/// Where a job's verdict came from.
enum class JobSource : uint8_t {
  Fresh,    ///< Engine run from scratch.
  CacheHit, ///< Served from the store (or an intra-batch duplicate).
  Resumed,  ///< Engine run resumed from a preempted job's spill.
};
const char *jobSourceName(JobSource S);

/// Per-job outcome row.
struct BatchJobResult {
  std::string Name;
  std::string Key;
  std::string Mode;
  JobSource Source = JobSource::Fresh;
  VerdictClass Verdict = VerdictClass::Robust;
  bool Robust = false;
  bool Complete = false;
  uint64_t States = 0;
  double EngineSeconds = 0; ///< Engine-reported (original run on a hit).
  double WallSeconds = 0;   ///< This batch's wall time for the job.
  /// Batch-start → job-start latency: how long the job sat in the pool
  /// queue before a worker picked it up (0 for intra-batch duplicates,
  /// which never enter the queue).
  double QueueSeconds = 0;
  std::string FinalRung = "exact";
  uint64_t Downgrades = 0;
  bool Stored = false; ///< Published to the cache by this batch.
  std::string Error;   ///< Non-empty = job failed (cache I/O, bad state).
};

/// Whole-batch outcome.
struct BatchResult {
  std::vector<BatchJobResult> Jobs;
  double WallSeconds = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Stores = 0;
  uint64_t Resumes = 0;
  uint64_t Errors = 0;

  double hitRate() const {
    return Jobs.empty() ? 0.0 : double(Hits) / double(Jobs.size());
  }
  /// Worst verdict across jobs (NotRobust > BoundedRobust > Robust).
  VerdictClass worst() const;
};

/// Maps a finished batch to the CLI exit-code contract: 4 if any job
/// errored, else 1 if any NotRobust, else 2 if any BoundedRobust, else 0.
int batchExitCode(const BatchResult &R);

/// Parses a rocker-batch-manifest/1 document. Corpus programs are
/// resolved against all registries; "file" paths are read relative to
/// the process working directory. Returns nullopt with \p Err set on any
/// syntax, schema, unknown-key, or unresolvable-program error.
std::optional<std::vector<BatchJob>>
parseBatchManifest(const std::string &Text, std::string *Err);

/// The built-in evaluation batch: every Figure 7 program plus the
/// litmus corpus, all under \p Defaults.
std::vector<BatchJob> corpusBatch(const RockerOptions &Defaults);

/// Runs the batch. Never throws; per-job failures land in the job row.
BatchResult runBatch(const std::vector<BatchJob> &Jobs,
                     const BatchOptions &BO);

/// Serializes a rocker-batch-report/1 document.
obs::json::Value toJson(const BatchResult &R, const BatchOptions &BO);

/// Writes the batch report to \p Path ("-" = stdout).
bool writeBatchReport(const std::string &Path, const BatchResult &R,
                      const BatchOptions &BO);

} // namespace rocker::serve

#endif // ROCKER_SERVE_BATCHRUNNER_H
