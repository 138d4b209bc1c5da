//===- resilience/Resilience.h - Budgets and graceful degradation -*- C++ -*-===//
///
/// \file
/// Types for the resilience layer threaded through both exploration engines:
/// resource budgets with a storage degradation ladder, checkpoint/resume
/// configuration, and the per-run resilience report that makes a verdict's
/// precision provenance explicit.
///
/// The degradation ladder has two storage rungs, and one memory pressure
/// event steps from the first to the second in either engine:
///
///   Exact     — full visited set (collapse-compressed or raw); payloads
///               are kept for frontier states only. Verdicts are exact: a
///               clean sweep proves Robust.
///   Bitstate  — the visited set becomes a double-bit supertrace hash array.
///               Hash collisions silently merge distinct states, so coverage
///               is no longer guaranteed: a clean sweep on this rung can
///               only ever claim BoundedRobust, never Robust. Violations
///               found remain real (they are replayed/validated on concrete
///               states), so NotRobust verdicts survive degradation.
///
/// A run still out of memory on bitstate stops as truncated, or hands over
/// to the Sample rung when SampleOnExhaustion is set.
///
/// Every downgrade is recorded as a DowngradeEvent in the ResilienceReport,
/// which flows through ExploreStats into the rocker-run-report/1 JSON.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_RESILIENCE_RESILIENCE_H
#define ROCKER_RESILIENCE_RESILIENCE_H

#include <cstdint>
#include <string>
#include <vector>

namespace rocker::resilience {

/// Rung of the storage degradation ladder, in decreasing precision order.
enum class StorageRung : uint8_t {
  Exact = 0,
  /// Reserved: a retired rung between Exact and Bitstate that kept the
  /// exact visited set and shed nothing. No engine enters it; it is still
  /// named and counts as exact, so checkpoints and reports written while
  /// it existed read unchanged.
  RetiredNoPayload = 1,
  Bitstate = 2,
  /// Monitored random-schedule sampling (src/sample): no visited set at
  /// all, constant memory, probabilistic coverage. Never an in-run
  /// storage switch — exploration hands over to the sampling engine
  /// when the bitstate rung still exhausts the budget (opt-in via
  /// SampleOnExhaustion).
  Sample = 3,
};

/// Human-readable rung name ("exact", "no-payload", "bitstate", "sample").
const char *rungName(StorageRung R);

/// One step down the degradation ladder, with the context in which the
/// governor took it.
struct DowngradeEvent {
  StorageRung From = StorageRung::Exact;
  StorageRung To = StorageRung::Exact;
  /// States stored when the downgrade happened.
  uint64_t AtStates = 0;
  /// Wall-clock seconds into the run.
  double AtSeconds = 0;
  /// Estimated bytes in use that triggered the downgrade.
  uint64_t UsedBytes = 0;
};

/// Resource budgets and checkpoint/resume configuration. All fields default
/// to "off"; an engine with a default-constructed ResilienceOptions behaves
/// exactly as before this layer existed (modulo stop-signal polling).
struct ResilienceOptions {
  /// Soft memory budget in bytes for visited set + frontier payloads.
  /// 0 = unlimited. On pressure the governor walks the degradation ladder;
  /// when already on the last rung the run stops as truncated.
  uint64_t MemBudgetBytes = 0;

  /// Wall-clock deadline in seconds (0 = none). Unlike the ladder, hitting
  /// the deadline does not degrade storage — the run stops (with a final
  /// checkpoint if configured) and reports DeadlineHit.
  double DeadlineSeconds = 0;

  /// Path to write periodic crash-safe checkpoints to ("" = off).
  std::string CheckpointPath;

  /// Seconds between periodic checkpoints.
  double CheckpointIntervalSeconds = 30;

  /// Test hook: when nonzero, checkpoint every N expansions instead of on a
  /// wall-clock interval, so tests get deterministic checkpoint points.
  uint64_t CheckpointEveryExpansions = 0;

  /// Path of a checkpoint to resume from ("" = fresh run). The checkpoint's
  /// config hash must match the current program + options or the resume is
  /// rejected (ResumeError is set and the run stops without exploring).
  std::string ResumePath;

  /// Parallel engine only: if no worker makes progress for this many
  /// seconds, the watchdog stops the run as Bounded (0 = off).
  double WatchdogSeconds = 0;

  /// Fourth rung of the ladder: when exploration is truncated by the
  /// memory budget with no violation found (even after degrading to
  /// bitstate), rerun through the sampling engine (src/sample) with
  /// the configured RockerOptions::Sampling budget instead of giving
  /// up. Verdicts from the fallback are capped at BoundedRobust.
  bool SampleOnExhaustion = false;

  bool wantsCheckpoints() const { return !CheckpointPath.empty(); }
  bool wantsResume() const { return !ResumePath.empty(); }
  bool anyBudget() const { return MemBudgetBytes != 0 || DeadlineSeconds > 0; }
};

/// Per-run resilience outcome, embedded in ExploreStats and surfaced in the
/// run report's "resilience" section.
struct ResilienceReport {
  /// Rung the run ended on.
  StorageRung FinalRung = StorageRung::Exact;

  /// Every ladder step taken, in order.
  std::vector<DowngradeEvent> Downgrades;

  /// The wall-clock deadline (--deadline) fired.
  bool DeadlineHit = false;

  /// A SIGINT/SIGTERM stop request interrupted the run.
  bool Interrupted = false;

  /// The parallel stuck-worker watchdog fired.
  bool WatchdogFired = false;

  /// This run was resumed from a checkpoint.
  bool Resumed = false;

  /// States restored from the checkpoint on resume.
  uint64_t RestoredStates = 0;

  /// Checkpoints successfully written during the run.
  uint64_t CheckpointsWritten = 0;

  /// Total bytes across written checkpoints.
  uint64_t CheckpointBytes = 0;

  /// Wall-clock seconds spent serializing + writing checkpoints.
  double CheckpointSeconds = 0;

  /// Non-empty iff --resume was requested and failed (stale/corrupt
  /// checkpoint, unsupported subsystem). The run stops without exploring.
  std::string ResumeError;

  /// True while state coverage is still exhaustive: Robust is claimable
  /// only when this holds and the run completed.
  bool exact() const {
    return FinalRung == StorageRung::Exact ||
           FinalRung == StorageRung::RetiredNoPayload;
  }

  /// True if any resilience event made this run's coverage non-conclusive.
  bool degraded() const {
    return !exact() || DeadlineHit || Interrupted || WatchdogFired ||
           !ResumeError.empty();
  }
};

/// \name Cooperative stop signal (SIGINT/SIGTERM)
/// Engines poll stopRequested() in their governor tick; the CLI installs the
/// handler so ^C drains workers, flushes a final checkpoint, and still emits
/// a partial run report instead of dying mid-write.
/// @{

/// Installs SIGINT/SIGTERM handlers that latch the stop flag. Idempotent.
void installStopHandlers();

/// True once a stop signal arrived (or requestStop() was called).
bool stopRequested();

/// Programmatic stop, equivalent to receiving SIGINT (used by tests).
void requestStop();

/// Clears the stop flag (tests; also lets a CLI run after ^C-ing a prior
/// phase).
void clearStopRequest();

/// @}

/// Picks a bitstate array size (log2 of the bit count) that fits in roughly
/// a quarter of \p BudgetBytes, clamped to [16, 33]. A quarter, because the
/// run that lands here has already overflowed the budget once and still
/// needs headroom for the frontier.
unsigned bitstateLog2ForBudget(uint64_t BudgetBytes);

/// Accepted bitstate widths (log2 of the bit count), wherever one comes
/// from: the CLI, a batch manifest, or a checkpoint header. The array
/// needs at least one 64-bit word; 2^36 bits is an 8 GiB array.
inline constexpr unsigned MinBitstateLog2 = 6;
inline constexpr unsigned MaxBitstateLog2 = 36;

inline bool bitstateLog2InRange(uint64_t K) {
  return K >= MinBitstateLog2 && K <= MaxBitstateLog2;
}

/// The error a run is refused with when its options name a width outside
/// that range ("bitstate width K outside [6, 36]").
std::string bitstateLog2Error(uint64_t K);

} // namespace rocker::resilience

#endif // ROCKER_RESILIENCE_RESILIENCE_H
