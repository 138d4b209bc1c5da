//===- obs/Telemetry.h - Low-overhead engine telemetry ---------*- C++ -*-===//
///
/// \file
/// The observability substrate for the exploration engines: named
/// monotonic counters and phase timers with thread-local accumulation,
/// RAII spans for phase attribution, a periodic progress reporter, and
/// snapshots that the run-report writer (obs/RunReport.h) serializes.
///
/// Design constraints, in order:
///
///  1. **Hot-loop cost ~zero.** A `Span` is one TLS lookup plus two
///     cycle-counter reads (rdtsc on x86, cntvct on arm64) and two plain
///     adds; counters are relaxed single-writer adds into thread-local
///     slots. Engines batch bulk counters (transitions, dedup hits) into
///     one `add()` at run end instead of touching TLS per transition.
///  2. **Exact attribution.** Spans attribute *self time*: starting a
///     nested span pauses the enclosing phase, so at any instant each
///     thread's wall clock is charged to exactly one phase and the
///     per-phase times of a single-threaded run sum to the run's wall
///     time by construction (multi-worker runs sum to CPU seconds).
///  3. **Compile-out.** Building with -DROCKER_NO_TELEMETRY reduces every
///     entry point here to an empty inline body (sizeof(Span) == 1, no
///     TLS, no cycle reads); verdicts, counts, and reports are unchanged
///     because nothing in the engines branches on telemetry state.
///
/// Aggregation: each thread owns a ThreadBlock registered in a global
/// registry; `snapshot()` folds live blocks (relaxed atomic reads — the
/// owner is the only writer) plus the totals of retired threads, and
/// converts cycles to seconds against a steady_clock anchor, so no lock
/// is ever taken on the hot path.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_OBS_TELEMETRY_H
#define ROCKER_OBS_TELEMETRY_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

namespace rocker::obs {

/// The phase taxonomy. Phases are attributed as self time (see file
/// comment): `Explore` is the engine loop minus the nested `MonitorStep`
/// and `VisitedProbe` slices it contains. `Idle` collects everything
/// outside any span (process startup, result printing) and is excluded
/// from report breakdowns.
enum class Phase : uint8_t {
  Idle,         ///< No span active (excluded from reports).
  Parse,        ///< lang/Parser.cpp: text → Program.
  Explore,      ///< Engine expansion loop (either engine), self time.
  MonitorStep,  ///< SCM monitor checkAccess (Theorem 5.3 conditions).
  VisitedProbe, ///< Visited-set probe/insert incl. key serialization.
  OracleSweep,  ///< SC-consistency sweeps / oracle set comparisons.
  Replay,       ///< Parallel engine's deterministic sequential replay.
  Report,       ///< Run-report serialization and writing.
  Sample,       ///< Sampling engine's monitored random-schedule loop.
  Batch         ///< serve/: verdict-cache lookups/stores and batch
                ///< scheduling (engine time inside a job is attributed
                ///< to the engine phases as usual).
};
inline constexpr unsigned NumPhases = 10;
static_assert(NumPhases == static_cast<unsigned>(Phase::Batch) + 1,
              "NumPhases must track the Phase enum: when adding a phase, "
              "update the enum, NumPhases, and phaseName() together");

/// Report key for a phase ("parse", "explore", ...).
const char *phaseName(Phase P);

/// Named monotonic counters. Hot-loop quantities (transitions, probes)
/// are batched: engines accumulate locally and flush one add() per run
/// or per worker, so the names stay cheap to maintain.
enum class Ctr : uint8_t {
  ParsedPrograms, ///< parse.programs
  Expansions,     ///< explore.expansions — states popped and expanded.
  Transitions,    ///< explore.transitions
  DedupHits,      ///< visited.dedup_hits
  VisitedProbes,  ///< visited.probes — dedup lookups (hit or miss).
  VisitedInserts, ///< visited.inserts — new states stored.
  MonitorChecks,  ///< monitor.checks — SCM checkAccess calls.
  SweptStates,    ///< oracle.swept_states — SC-consistency checks.
  ReplayRuns,     ///< replay.runs
  Steals,         ///< explore.steals — successful work-deque steals.
  ProgressTicks,  ///< progress.ticks — reporter lines emitted.
  ReportWrites,   ///< report.writes
  AmpleHits,      ///< por.ample_states — states expanded via an ample set.
  PorFallbacks,   ///< por.full_expansions — POR-active states with no
                  ///< valid ample set (fell back to full expansion).
  PorSavedSteps,  ///< por.saved_steps — pending thread steps skipped at
                  ///< ample states (a lower bound on the work saved).
  PorChainedStates, ///< por.chained_states — ample-chain intermediates
                    ///< traversed transiently and never stored.
  CheckpointWrites, ///< resilience.checkpoint_writes
  CheckpointBytes,  ///< resilience.checkpoint_bytes — payload bytes
                    ///< written (pre-header, post-serialization).
  GovernorDowngrades, ///< resilience.downgrades — degradation-ladder
                      ///< rungs taken under memory pressure.
  SamplesRun,      ///< sample.samples — monitored schedules executed.
  SampleSteps,     ///< sample.steps — transitions across all samples.
  SampleDeadlocks, ///< sample.deadlocks — samples ending deadlocked.
  SampleDepthHits, ///< sample.depth_hits — samples cut by MaxDepth.
  CacheHits,       ///< cache.hits — verdicts served from the store.
  CacheMisses,     ///< cache.misses — lookups that fell through to an
                   ///< engine run.
  CacheStores,     ///< cache.stores — entries published to the store.
  CacheRejects,    ///< cache.rejects — entries present but refused
                   ///< (corrupt, truncated, wrong schema/key).
  VisitedCasRetries, ///< visited.cas_retries — lost CAS claims in the
                     ///< lock-free visited tier (contention measure).
  VisitedProbeSteps, ///< visited.probe_steps — open-address slots
                     ///< inspected by the lock-free tier (clustering
                     ///< measure; steps / probes = mean probe length).
  StealAttempts,     ///< steal.attempts — victim deques inspected
                     ///< (empty or not) by idle workers.
  StealBatchItems,   ///< steal.batch_items — states moved by batched
                     ///< steals (items / steals = mean batch size).
  VisitedGrowths     ///< visited.growths — pause-the-world growths of
                     ///< the lock-free tier (each doubles every table
                     ///< past 1/2 load).
};
inline constexpr unsigned NumCounters = 32;
static_assert(NumCounters == static_cast<unsigned>(Ctr::VisitedGrowths) + 1,
              "NumCounters must track the Ctr enum: when adding a counter, "
              "update the enum, NumCounters, and counterName() together");

/// Report key for a counter ("visited.probes", ...).
const char *counterName(Ctr C);

/// True when the subsystem is compiled in (no -DROCKER_NO_TELEMETRY).
constexpr bool telemetryEnabled() {
#ifdef ROCKER_NO_TELEMETRY
  return false;
#else
  return true;
#endif
}

/// A fold of all phase times and counters at one instant. Differences of
/// two snapshots bracket a run; obs/RunReport.h serializes them.
struct Snapshot {
  double PhaseSeconds[NumPhases] = {};
  uint64_t Counters[NumCounters] = {};

  double phase(Phase P) const {
    return PhaseSeconds[static_cast<unsigned>(P)];
  }
  uint64_t counter(Ctr C) const {
    return Counters[static_cast<unsigned>(C)];
  }
  /// Sum of all non-idle phase times — for a single-threaded run, the
  /// wall time covered by spans.
  double attributedSeconds() const {
    double S = 0;
    for (unsigned I = 1; I != NumPhases; ++I) // Skip Idle.
      S += PhaseSeconds[I];
    return S;
  }
};

/// Folds all threads' telemetry into a Snapshot (zeros when compiled
/// out). Lock-free with respect to the hot path: only the registry of
/// thread blocks is briefly locked.
Snapshot snapshot();

/// Component-wise After - Before (counters saturate at 0 underflow).
Snapshot diff(const Snapshot &After, const Snapshot &Before);

#ifndef ROCKER_NO_TELEMETRY

/// Cheap monotonic cycle source. The unit is unspecified (TSC ticks,
/// generic-timer ticks, or nanoseconds); snapshot() calibrates it
/// against steady_clock, so only rate constancy matters.
inline uint64_t tick() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
  uint64_t V;
  asm volatile("mrs %0, cntvct_el0" : "=r"(V));
  return V;
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Per-thread accumulation block. The owner is the only writer; the
/// atomics make concurrent snapshot() reads well-defined (relaxed plain
/// add on the write side — no RMW, no lock prefix).
struct ThreadBlock {
  std::atomic<uint64_t> PhaseCycles[NumPhases] = {};
  std::atomic<uint64_t> Counters[NumCounters] = {};
  Phase Cur = Phase::Idle;
  uint64_t LastStamp = 0;

  ThreadBlock();  ///< Registers with the global registry.
  ~ThreadBlock(); ///< Folds totals into the registry and deregisters.

  void bump(std::atomic<uint64_t> &A, uint64_t Delta) {
    A.store(A.load(std::memory_order_relaxed) + Delta,
            std::memory_order_relaxed);
  }
};

/// The calling thread's block (created and registered on first use).
ThreadBlock &tls();

/// Flight-recorder gate (obs/Trace.h). The flag is defined in Trace.cpp;
/// Span forwards begin/end through it so traced runs get duration events
/// for every phase while untraced runs pay one relaxed load per span.
/// traceSpanBegin returns whether the event was recorded: the recorder
/// decimates the per-expansion leaf phases (MonitorStep, VisitedProbe),
/// which fire millions of times per second, and Span must suppress the
/// matching end event to keep B/E balanced.
extern std::atomic<bool> TraceActiveFlag;
inline bool traceActive() {
  return TraceActiveFlag.load(std::memory_order_relaxed);
}
bool traceSpanBegin(Phase P, uint64_t Now); ///< Defined in Trace.cpp.
void traceSpanEnd(uint64_t Now);            ///< Defined in Trace.cpp.

/// RAII phase attribution (see file comment: self time; strictly nested
/// per thread by construction).
class Span {
public:
  explicit Span(Phase P) : T(tls()) {
    uint64_t Now = tick();
    T.bump(T.PhaseCycles[static_cast<unsigned>(T.Cur)], Now - T.LastStamp);
    T.LastStamp = Now;
    Prev = T.Cur;
    T.Cur = P;
    if (traceActive())
      Traced = traceSpanBegin(P, Now);
  }
  ~Span() {
    uint64_t Now = tick();
    T.bump(T.PhaseCycles[static_cast<unsigned>(T.Cur)], Now - T.LastStamp);
    T.LastStamp = Now;
    T.Cur = Prev;
    if (Traced)
      traceSpanEnd(Now);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  ThreadBlock &T;
  Phase Prev;
  bool Traced = false;
};

/// Adds \p N to counter \p C (thread-local; folded by snapshot()).
inline void add(Ctr C, uint64_t N = 1) {
  ThreadBlock &T = tls();
  T.bump(T.Counters[static_cast<unsigned>(C)], N);
}

/// Live engine progress published for the reporter thread. One global
/// slot: explorations do not overlap except for the parallel engine's
/// sequential replay, which ProgressScope save/restores around.
struct ProgressData {
  std::atomic<bool> Active{false};
  std::atomic<uint64_t> States{0};
  std::atomic<uint64_t> Frontier{0};
  std::atomic<uint64_t> Transitions{0};
  std::atomic<uint64_t> DedupHits{0};
  std::atomic<uint64_t> VisitedBytes{0};
  std::atomic<uint64_t> MaxStates{0}; ///< 0 = no budget (no ETA).
  /// Sampling-engine run: States/MaxStates mean samples done/budgeted
  /// and Transitions means monitored steps, so the reporter prints
  /// samples/sec and a sample-budget ETA instead of stored-state lines.
  std::atomic<bool> SampleMode{false};
};
ProgressData &progressData();

/// Marks an engine run: publishes the state budget and zeroes the live
/// fields, restoring the previous run's activity on destruction (for
/// the replay-inside-parallel nesting).
class ProgressScope {
public:
  explicit ProgressScope(uint64_t MaxStates, bool SampleMode = false);
  ~ProgressScope();
  ProgressScope(const ProgressScope &) = delete;
  ProgressScope &operator=(const ProgressScope &) = delete;

private:
  bool PrevActive;
  bool PrevSample;
  uint64_t PrevMax;
};

/// Engine push, called every ~1k expansions (relaxed stores).
inline void progressUpdate(uint64_t States, uint64_t Frontier) {
  ProgressData &D = progressData();
  D.States.store(States, std::memory_order_relaxed);
  D.Frontier.store(Frontier, std::memory_order_relaxed);
}

/// Delta-push of the dedup/transition counts (fetch_add so concurrent
/// workers compose).
inline void progressAddCounts(uint64_t DeltaTransitions,
                              uint64_t DeltaDedupHits) {
  ProgressData &D = progressData();
  if (DeltaTransitions)
    D.Transitions.fetch_add(DeltaTransitions, std::memory_order_relaxed);
  if (DeltaDedupHits)
    D.DedupHits.fetch_add(DeltaDedupHits, std::memory_order_relaxed);
}

/// Occasional push of the visited-set footprint (the sources take
/// per-shard locks, so engines call this rarely).
inline void progressVisitedBytes(uint64_t Bytes) {
  progressData().VisitedBytes.store(Bytes, std::memory_order_relaxed);
}

/// The interval reporter: a thread that samples ProgressData and the
/// counter fold every IntervalSeconds and prints one line to stderr
/// (states, states/sec, frontier, dedup hit rate, visited bytes, and the
/// ETA against the state budget when one is set). Construction with
/// IntervalSeconds <= 0 is inert; destruction (or stop()) shuts the
/// thread down promptly even mid-interval, so fast runs exit cleanly.
class ProgressReporter {
public:
  explicit ProgressReporter(double IntervalSeconds);
  ~ProgressReporter();
  void stop();
  ProgressReporter(const ProgressReporter &) = delete;
  ProgressReporter &operator=(const ProgressReporter &) = delete;

private:
  void loop(double IntervalSeconds);
  std::thread Th;
  std::mutex M;
  std::condition_variable CV;
  bool StopFlag = false;
};

#else // ROCKER_NO_TELEMETRY: every entry point compiles to nothing.

inline bool traceActive() { return false; }

class Span {
public:
  explicit Span(Phase) {}
};

inline void add(Ctr, uint64_t = 1) {}

class ProgressScope {
public:
  explicit ProgressScope(uint64_t, bool = false) {}
};

inline void progressUpdate(uint64_t, uint64_t) {}
inline void progressAddCounts(uint64_t, uint64_t) {}
inline void progressVisitedBytes(uint64_t) {}

class ProgressReporter {
public:
  explicit ProgressReporter(double) {}
  void stop() {}
};

#endif // ROCKER_NO_TELEMETRY

} // namespace rocker::obs

#endif // ROCKER_OBS_TELEMETRY_H
