//===- obs/Trace.h - Flight-recorder event tracing -------------*- C++ -*-===//
///
/// \file
/// The flight recorder: a per-thread lock-free ring buffer of timestamped
/// events — duration events for every telemetry `Span` phase, instant
/// events for runtime lifecycle moments (engine start/stop, POR chain
/// fast-forwards, steals, degradation-ladder downgrades, checkpoint
/// write/resume, watchdog trips, signal drains, cache traffic, batch job
/// transitions, violations), and periodic counter samples (frontier,
/// states, visited bytes, samples) — serialized on demand to Chrome
/// trace-event JSON that loads directly in Perfetto / chrome://tracing.
///
/// Design constraints match obs/Telemetry.h:
///
///  1. **Hot-loop cost ~zero when off.** Every recording entry point is
///     an inline `if (!traceActive()) return;` around an out-of-line
///     slow path: one relaxed atomic load when no trace is being
///     recorded. Telemetry's `Span` forwards to the recorder through the
///     same gate (see Telemetry.h), so untraced runs pay one predictable
///     branch per span.
///  2. **Fixed memory.** Each thread owns a fixed-capacity ring
///     (default 2^16 events, ~1.5 MiB) that overwrites its oldest
///     entries; a month-long run records the same bytes as a
///     millisecond one. Rings of exited threads are retained so worker
///     timelines survive until the flush.
///  3. **No locks, cycles at record time.** Writes are relaxed atomic
///     stores into the owner's ring; timestamps are raw `tick()` cycles,
///     converted to microseconds only at serialization against the same
///     steady_clock-anchor calibration telemetry uses.
///  4. **Compile-out.** -DROCKER_NO_TELEMETRY reduces every entry point
///     here to an empty inline body; `--trace` then degrades to a
///     warning with identical verdicts.
///
/// Crash-dump wiring: `traceCrashDump(reason)` writes a readable
/// last-N-events text dump (to the path set by `traceSetCrashDumpPath`,
/// by default "<trace>.crash.txt"). The engines call it when the
/// watchdog fires or a signal drain truncates the run, and
/// `traceConfigure` registers it as the fault-injection pre-kill hook,
/// so deterministic SIGKILL tests leave a post-mortem timeline next to
/// the checkpoint they also leave.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_OBS_TRACE_H
#define ROCKER_OBS_TRACE_H

#include "obs/Telemetry.h"

#include <optional>
#include <string>

namespace rocker::obs {

/// Instant-event taxonomy: one code per lifecycle moment the runtime
/// records. Names (traceInstantName) are the Perfetto row labels.
enum class TraceInstant : uint8_t {
  EngineStart,      ///< engine_start — arg: worker count.
  EngineStop,       ///< engine_stop — arg: states (or samples) done.
  FastForward,      ///< fast_forward — POR ample-chain walk; arg: length.
  Steal,            ///< steal — successful work-deque steal; arg: victim.
  Downgrade,        ///< downgrade — ladder rung taken; arg: new rung.
  CheckpointWrite,  ///< checkpoint_write — arg: payload bytes.
  CheckpointResume, ///< checkpoint_resume — arg: restored states.
  WatchdogFired,    ///< watchdog — stuck-worker watchdog tripped.
  StopDrain,        ///< stop_drain — SIGINT/SIGTERM/deadline safe-point
                    ///< drain began.
  CacheHit,         ///< cache_hit — verdict served from the store.
  CacheMiss,        ///< cache_miss — lookup fell through to an engine.
  CacheStore,       ///< cache_store — verdict published to the store.
  JobQueued,        ///< job_queued — batch job admitted; arg: job index.
  JobStarted,       ///< job_started — batch job began; arg: job index.
  JobFinished,      ///< job_finished — batch job done; arg: job index.
  JobPreempted,     ///< job_preempted — job truncated, spill left behind.
  JobResumed,       ///< job_resumed — job resumed from a prior spill.
  ViolationFound,   ///< violation — arg: state/step id of the witness.
  VisitedGrowth     ///< visited_growth — lock-free tables doubled under a
                    ///< world pause; arg: pause length in microseconds.
};
inline constexpr unsigned NumTraceInstants = 19;

/// Perfetto row label for an instant code ("steal", "watchdog", ...).
const char *traceInstantName(TraceInstant K);

/// Counter tracks sampled periodically by the engines. The serializer
/// additionally derives states_per_sec / samples_per_sec rate tracks
/// from consecutive States / Samples samples.
enum class TraceCounterTrack : uint8_t {
  Frontier,     ///< frontier — open states awaiting expansion.
  States,       ///< states — stored states so far (samples done for the
                ///< sampling engine... see Samples below for the raw
                ///< sample count).
  VisitedBytes, ///< visited_bytes — visited-set footprint.
  Samples,      ///< samples — monitored schedules executed.
  CasRetries    ///< cas_retries — lock-free visited-tier lost CAS
                ///< claims (cumulative across workers).
};
inline constexpr unsigned NumTraceCounterTracks = 5;

const char *traceCounterTrackName(TraceCounterTrack C);

/// A parsed `--trace FILE[:cap]` spec. The cap is the per-thread event
/// capacity (rounded up to a power of two); 0 means the default 2^16.
struct TraceSpec {
  std::string Path;
  uint64_t Cap = 0;
};

/// Splits "FILE[:cap]". The ":cap" suffix is only taken when it is a
/// non-empty run of digits, so paths containing ':' still parse.
/// Returns nullopt for an empty path.
std::optional<TraceSpec> parseTraceSpec(const char *Spec);

/// True when the recorder is compiled in (no -DROCKER_NO_TELEMETRY).
constexpr bool traceSupported() { return telemetryEnabled(); }

/// Result of a trace flush.
struct TraceWriteResult {
  bool Ok = false;
  uint64_t Events = 0; ///< Events serialized (after nesting repair).
  std::string Error;
};

#ifndef ROCKER_NO_TELEMETRY

/// Activates recording to \p Path with \p CapPerThread events per
/// thread (0 = default 2^16). Resets any previously recorded events
/// (call between runs, not while worker threads are recording), sets
/// the default crash-dump path to "<Path>.crash.txt", and registers the
/// crash dump as the fault-injection pre-kill hook. Returns false for
/// an empty path.
bool traceConfigure(const std::string &Path, uint64_t CapPerThread = 0);

/// Deactivates recording. Recorded events are kept until the next
/// traceConfigure, so a flush after stop still sees them.
void traceStop();

/// True when traceConfigure has been called (active or stopped).
bool traceConfigured();

/// Where traceWrite() will serialize to.
std::string traceConfiguredPath();

/// Overrides the crash-dump destination; the engines point it next to
/// the checkpoint file when one is configured.
void traceSetCrashDumpPath(const std::string &Path);
std::string traceCrashDumpPath();

/// Names the calling thread's row in the serialized trace.
void traceThreadNameSlow(const std::string &Name);
inline void traceThreadName(const std::string &Name) {
  if (traceActive())
    traceThreadNameSlow(Name);
}

void traceInstantSlow(TraceInstant K, uint64_t Arg);
/// Records an instant event on the calling thread's timeline.
inline void traceInstant(TraceInstant K, uint64_t Arg = 0) {
  if (traceActive())
    traceInstantSlow(K, Arg);
}

void traceCounterSlow(TraceCounterTrack C, uint64_t Value);
/// Records one sample of a counter track.
inline void traceCounter(TraceCounterTrack C, uint64_t Value) {
  if (traceActive())
    traceCounterSlow(C, Value);
}

/// Serializes every thread's ring (live and retired) to the configured
/// path as Chrome trace-event JSON with process/thread metadata.
TraceWriteResult traceWrite();

/// Serializes to an explicit path instead of the configured one.
TraceWriteResult traceWriteTo(const std::string &Path);

/// Writes a readable text dump of the last \p LastN events (default
/// 256, ts-ordered across threads) to the crash-dump path, prefixed
/// with \p Reason. No-op unless a trace was configured. Safe to call
/// from multiple threads; the last writer wins.
bool traceCrashDump(const char *Reason, uint64_t LastN = 256);

#else // ROCKER_NO_TELEMETRY: every entry point compiles to nothing.

inline bool traceConfigure(const std::string &, uint64_t = 0) {
  return false;
}
inline void traceStop() {}
inline bool traceConfigured() { return false; }
inline std::string traceConfiguredPath() { return {}; }
inline void traceSetCrashDumpPath(const std::string &) {}
inline std::string traceCrashDumpPath() { return {}; }
inline void traceThreadName(const std::string &) {}
inline void traceInstant(TraceInstant, uint64_t = 0) {}
inline void traceCounter(TraceCounterTrack, uint64_t) {}
inline TraceWriteResult traceWrite() {
  return {false, 0, "telemetry compiled out"};
}
inline TraceWriteResult traceWriteTo(const std::string &) {
  return {false, 0, "telemetry compiled out"};
}
inline bool traceCrashDump(const char *, uint64_t = 256) { return false; }

#endif // ROCKER_NO_TELEMETRY

} // namespace rocker::obs

#endif // ROCKER_OBS_TRACE_H
