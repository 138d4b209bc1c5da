//===- serve/VerdictCache.h - Content-addressed verdict store --*- C++ -*-===//
///
/// \file
/// The verdict cache behind the batch runtime (serve/BatchRunner.h): a
/// content-addressed on-disk store of finished `rocker-run-report` JSON
/// documents, keyed by a canonical hash of (normalized program, memory
/// model / mode, verdict-relevant options). Resubmitting a program the
/// service has already checked returns the stored verdict without
/// re-exploring.
///
/// Key canonicalization. The program contribution is `toString(parse(P))`
/// — the parser-printer round trip normalizes whitespace, comments, and
/// layout, so two spellings of the same program share a key. The options
/// contribution includes exactly the fields that can change the produced
/// report:
///
///   included — mode (robustness/sc), critical abstraction, assertion /
///   race checking, stop-on-violation, local-step collapse, state
///   budget, bitstate width, POR, the sampling engine switch
///   (+ samples/seed/depth/scheduler/PCT depth when sampling can run),
///   the memory budget, and sample-on-exhaustion
///   (the latter two steer the degradation ladder, whose provenance is
///   part of the report). Two fixed terms, |order=bfs and |compress=1,
///   stand where the retired search order and visited-set compression
///   options were, so keys stay byte-identical to older caches.
///
///   excluded — thread counts (both engines certify thread-count-blind
///   verdicts, counts, and traces), trace recording, telemetry/progress/
///   report settings (CLI-level; never reach the key), and every
///   checkpoint/resume/watchdog/wall-clock-deadline knob: those can only
///   truncate a run, truncated runs are never stored, and a run they did
///   not truncate is identical to one without them.
///
/// Store layout under the cache directory:
///
///   index.json       rocker-cache-index/1 — advisory listing of stored
///                    entries for humans and ops tooling; rewritten
///                    crash-safely on every store.
///   entries/K.json   rocker-cache-entry/1 — {schema, key, program,
///                    report}; the authoritative content, looked up by
///                    direct path probe (the index is never trusted).
///   jobs/K.rkcp      checkpoint spill of a preempted batch job, resumed
///                    by the next miss on the same key.
///
/// All writes go through ckpt::atomicWriteFile (tmp + fsync + rename +
/// parent-directory fsync). Lookups validate schema, key echo, and
/// verdict shape; anything torn or foreign is rejected (counted as
/// cache.rejects) and the caller recomputes.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_SERVE_VERDICTCACHE_H
#define ROCKER_SERVE_VERDICTCACHE_H

#include "obs/Json.h"
#include "rocker/RobustnessChecker.h"

#include <map>
#include <mutex>
#include <optional>
#include <string>

namespace rocker::serve {

/// The canonical cache key of running \p P under \p Opts in \p Mode
/// ("robustness" or "sc"): 32 lowercase hex characters (two independent
/// 64-bit FNV-1a streams over the canonical form). See the file comment
/// for what is and is not allowed to influence it.
std::string cacheKey(const Program &P, const std::string &Mode,
                     const RockerOptions &Opts);

/// A validated cache hit: the stored run report plus the fields the
/// batch layer summarizes.
struct CacheHit {
  obs::json::Value Report; ///< The stored rocker-run-report document.
  VerdictClass Verdict = VerdictClass::Robust;
  bool Robust = false;
  bool Complete = false;
  uint64_t States = 0;
  double EngineSeconds = 0; ///< stats.seconds of the original run.
  std::string FinalRung = "exact";
  uint64_t Downgrades = 0;
};

/// The on-disk store. Thread-safe: lookups are lock-free file probes;
/// stores serialize the index rewrite behind a mutex.
class VerdictCache {
public:
  /// Opens (creating the directory tree if needed). On failure ok() is
  /// false and error() explains; a corrupt index is not a failure — the
  /// entries remain addressable and the index is rebuilt on next store.
  explicit VerdictCache(std::string Dir);

  bool ok() const { return Ok; }
  const std::string &error() const { return Err; }
  const std::string &dir() const { return Dir; }

  /// Returns the stored verdict for \p Key, or nullopt (absent entry, or
  /// present but corrupt/truncated/foreign — \p Why distinguishes).
  /// Counts cache.hits / cache.misses / cache.rejects.
  std::optional<CacheHit> lookup(const std::string &Key,
                                 std::string *Why = nullptr);

  /// Publishes \p Report (a rocker-run-report JSON document) under
  /// \p Key crash-safely and rewrites the index. Counts cache.stores.
  bool store(const std::string &Key, const std::string &ProgramName,
             const std::string &VerdictName, const obs::json::Value &Report,
             std::string *StoreErr = nullptr);

  std::string entryPath(const std::string &Key) const;
  /// Checkpoint spill path for a preempted job with this key.
  std::string jobCheckpointPath(const std::string &Key) const;

  /// Entries known to the in-memory index (loaded at open + stored since).
  size_t entryCount() const;

private:
  std::string Dir;
  bool Ok = false;
  std::string Err;

  mutable std::mutex M;
  /// key → {program name, verdict class name}; mirrors index.json.
  std::map<std::string, std::pair<std::string, std::string>> Index;

  void loadIndex();
  bool rewriteIndexLocked(std::string *StoreErr);
};

} // namespace rocker::serve

#endif // ROCKER_SERVE_VERDICTCACHE_H
