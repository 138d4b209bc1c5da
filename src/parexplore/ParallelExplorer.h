//===- parexplore/ParallelExplorer.h - Work-stealing explorer --*- C++ -*-===//
///
/// \file
/// A multi-threaded drop-in alternative to the sequential ProductExplorer
/// (explore/Explorer.h) for any memory subsystem satisfying the same
/// concept (initial/enumerate/enumerateInternal/serialize). Rocker reduces
/// robustness to reachability (Theorem 5.3), so every oracle in this repo
/// bottlenecks on the exploration loop; this engine parallelizes it:
///
///  * Visited set: a lock-free collapse-compressed set of interned
///    component-id tuples (support/LockFreeVisited.h — CAS-claimed
///    open-address tables with dense ids, so a successor re-interns only
///    its changed chunks against its parent's cached ids). It
///    deduplicates exactly, so a run that is not truncated visits
///    exactly the reachable state set — state and transition counts
///    are equal to the sequential engine's. The
///    management thread doubles each lock-free table on its own as it
///    fills; on the (engineered-to-be-rare)
///    full-table event the run truncates like a MaxStates cut rather than
///    ever mis-deduplicating.
///  * Expansion: the shared core (explore/Expand.h) — the same check
///    battery, POR selection and chain walk as the sequential engine.
///  * Frontier: one WorkDeque per worker (owner LIFO, thieves FIFO), with
///    round-robin stealing.
///  * Termination: a Dijkstra-style in-flight counter (TerminationBarrier)
///    — a state is counted from the moment it is enqueued until its
///    expansion has enumerated all successors, so InFlight == 0 proves no
///    worker holds or will produce work.
///  * Determinism: exploration order is racy, but verdicts are not — the
///    visited set is order-independent. When any worker reports a
///    violation, all workers drain and the engine re-runs the sequential
///    BFS engine under the same options ("replay"), so counterexample
///    traces and Violation contents are byte-identical to what the
///    sequential engine reports on the same program.
///  * Graceful degradation: state-count (MaxStates) and wall-clock
///    (MaxSeconds) limits stop the run with ParVerdict::Bounded instead
///    of aborting; a violation found before the limit still wins.
///
/// Not supported (the dispatchers in rocker/ fall back to the sequential
/// engine): bitstate hashing, parent tracking for states other than via
/// replay.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_PAREXPLORE_PARALLELEXPLORER_H
#define ROCKER_PAREXPLORE_PARALLELEXPLORER_H

#include "explore/Explorer.h"
#include "lang/Program.h"
#include "lang/Step.h"
#include "obs/Trace.h"
#include "parexplore/WorkDeque.h"
#include "support/LockFreeVisited.h"
#include "support/PageArray.h"
#include "support/ShardedSet.h"
#include "support/StateInterner.h"
#include "support/StateKey.h"

#include <atomic>
#include <bit>
#include <chrono>
#include <concepts>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace rocker {

/// Outcome of a parallel exploration.
enum class ParVerdict : uint8_t {
  NoViolation, ///< Full state space explored, no violation.
  Violation,   ///< At least one violation found (always real).
  Bounded      ///< Hit MaxStates or MaxSeconds with no violation found:
               ///< the absence of violations is inconclusive.
};

/// Renders a verdict for reports.
const char *parVerdictName(ParVerdict V);

/// Resume error for a parallel checkpoint whose visited set uses a
/// retired format: tags 0 and 1 held the mutex-striped tier's tuples and
/// keys; tags 3 and 4 stored lock-free slot placements at a fixed
/// capacity, from when lock-free ids were slot indices; tag 6 held the
/// raw-key lock-free set.
inline std::string retiredVisitedFormatError(unsigned Tag) {
  return "checkpoint uses a retired parallel visited-set format (tag " +
         std::to_string(Tag) + "); start the run afresh";
}

/// True when \p MemSys provides the two hooks the incremental visited
/// path needs on top of serializeComponents: single-chunk re-emission
/// (serializeComponent) and a dirty-chunk mask for a step
/// (dirtyComponents — a superset mask over the subsystem's chunk
/// indices; unchanged chunks must re-serialize byte-identically).
template <typename MemSys>
concept HasIncrementalHash =
    HasSerializeComponents<MemSys> &&
    requires(const MemSys &M, const typename MemSys::State &S,
             std::string &Out, ThreadId T, const MemAccess *A) {
      M.serializeComponent(S, 0u, Out);
      { M.dirtyComponents(T, A) } -> std::convertible_to<uint64_t>;
    };

/// Resolves a requested worker count (0 = std::thread::hardware_concurrency,
/// clamped to at least 1).
unsigned resolveThreadCount(unsigned Requested);

/// Options for the parallel engine. Semantic options mirror
/// ExploreOptions; bitstate hashing does not exist here by design.
struct ParExploreOptions {
  unsigned Threads = 0;  ///< Worker count; 0 = hardware concurrency.
  uint64_t MaxStates = UINT64_MAX;
  double MaxSeconds = 0; ///< Wall-clock budget; 0 = unlimited.
  bool StopOnViolation = true;
  bool CheckAssertions = true;
  bool CheckRaces = false;
  bool CollectProgramStates = false;
  bool CollapseLocalSteps = false;
  /// Reconstruct traces via the sequential replay (see file comment).
  bool RecordTrace = true;
  /// Run the deterministic sequential replay when a violation is found.
  bool ReplayOnViolation = true;
  /// No effect: the visited set is always the lock-free interner.
  /// Leaves with the options-struct merge in the next benchmark revision.
  bool CompressVisited = true;
  /// Has one value (see VisitedImpl); kept until the next benchmark
  /// revision merges the options structs.
  VisitedImpl Visited = VisitedImpl::LockFree;
  /// Initial lock-free root-table capacity override: 2^k slots (clamped
  /// to [16, 30]); 0 = the small default (see lockFreeRootLog2). Each
  /// table then doubles on its own as it fills.
  unsigned LockFreeLog2 = 0;
  /// Max states a thief moves per steal (at least 1). Batched steals
  /// amortize the victim-lock round-trip — the steal-throughput lever
  /// past ~8 workers.
  unsigned StealBatch = 8;
  /// Ample-set partial-order reduction (see ExploreOptions::UsePor).
  /// Selection is a pure function of the state, so the reduced graph —
  /// and hence verdicts, violation sets, and deadlock counts — is
  /// identical to the sequential engine's.
  bool UsePor = defaultUsePor();
  /// Resource budgets, watchdog, and checkpoint/resume configuration
  /// (resilience/Resilience.h). A management thread enforces these while
  /// the workers run; checkpoints pause the world at a consistent cut
  /// (all unexpanded states parked in the deques). As in the sequential
  /// engine, the first memory downgrade goes to bitstate hashing.
  resilience::ResilienceOptions Resilience;
};

/// Result of a parallel exploration.
struct ParExploreResult {
  ParVerdict Verdict = ParVerdict::NoViolation;
  ExploreStats Stats;
  /// After a successful replay these are byte-identical to the sequential
  /// engine's violations; otherwise the raw parallel findings (StateId 0).
  std::vector<Violation> Violations;
  std::vector<TraceStep> FirstViolationTrace;
  std::string FirstViolationText;
  /// True when the violations above come from the deterministic replay.
  bool Replayed = false;
  /// True when the run stopped on the wall-clock budget.
  bool TimedOut = false;
  /// True when the governor downgraded the visited set to bitstate
  /// hashing: the absence of violations is then approximate, so a
  /// violation-free run reports ParVerdict::Bounded.
  bool Approximate = false;
  /// Program-state projections (when requested).
  std::unordered_set<std::string, StateKeyHash> ProgramStates;

  bool hasViolation() const { return !Violations.empty(); }
};

/// Dijkstra-style termination detection: a state is "in flight" from
/// enqueue until its expansion retired, so inFlight() == 0 means no queued
/// work exists and no expansion that could produce more is running.
class TerminationBarrier {
public:
  void enqueued() { InFlight.fetch_add(1, std::memory_order_acq_rel); }
  void retired() { InFlight.fetch_sub(1, std::memory_order_acq_rel); }
  uint64_t inFlight() const {
    return InFlight.load(std::memory_order_acquire);
  }
  void requestStop() { StopFlag.store(true, std::memory_order_release); }
  bool stopped() const {
    return StopFlag.load(std::memory_order_acquire);
  }

private:
  std::atomic<uint64_t> InFlight{0};
  std::atomic<bool> StopFlag{false};
};

/// The parallel product explorer. Hooks must be thread-safe: the access
/// hook (same signature as ProductExplorer's) and the optional state hook
/// (called once per newly discovered state) run concurrently from all
/// workers against const state.
template <typename MemSys> class ParallelExplorer {
public:
  using MemState = typename MemSys::State;

  using ProductState = typename ExpansionCore<MemSys>::ProductState;

  ParallelExplorer(const Program &P, const MemSys &Mem,
                   ParExploreOptions Opts)
      : P(P), Mem(Mem), Opts(Opts),
        Core(P, Mem,
             {.CheckAssertions = Opts.CheckAssertions,
              .CheckRaces = Opts.CheckRaces,
              .StopOnViolation = Opts.StopOnViolation,
              .CollapseLocalSteps = Opts.CollapseLocalSteps,
              .UsePor = Opts.UsePor && !Opts.CollectProgramStates,
              .FastForward = !Opts.RecordTrace}) {}

  /// Runs the exploration with an access hook and a state hook. The state
  /// hook sees every newly interned state exactly once (including the
  /// initial state) and may report a Violation — used by the graph oracle
  /// to check SC-consistency of each reached graph.
  template <typename AccessHook, typename StateHook>
  ParExploreResult runWithHooks(AccessHook AHook, StateHook SHook) {
    auto Start = std::chrono::steady_clock::now();
    // Workers span their own time (each thread owns its telemetry TLS),
    // so parallel phase times sum to CPU seconds, not wall time; the main
    // thread's join wait stays unattributed.
    obs::ProgressScope Progress(Opts.MaxStates);
    ParExploreResult Res;

    unsigned NumWorkers = resolveThreadCount(Opts.Threads);
    if (obs::traceActive()) {
      if (ckptActive())
        obs::traceSetCrashDumpPath(Opts.Resilience.CheckpointPath +
                                   ".trace.txt");
      obs::traceInstant(obs::TraceInstant::EngineStart, NumWorkers);
    }
    Shared Sh(NumWorkers);
    const unsigned RootLog2 =
        lockFreeRootLog2(Opts.LockFreeLog2, Opts.MaxStates);
    Sh.LfInterner = std::make_unique<LockFreeStateInterner>(
        P.numThreads() + memComponentCount(Mem), RootLog2);
    SlotOrder = buildSlotOrder(P.numThreads(), memComponentCount(Mem),
                               memPerThreadTailComponents(Mem));
    RunStart = Start;
    auto &RR = Res.Stats.Resilience;
    const resilience::ResilienceOptions &RO = Opts.Resilience;
    if constexpr (HasCodec) {
      if (RO.wantsResume() || ckptActive())
        CfgHash = configHash();
    }

    // Build the initial state (also sizes the payload-unit estimate the
    // governor charges per frontier state).
    ProductState Init;
    Init.Threads.reserve(P.numThreads());
    for (const SequentialProgram &S : P.Threads)
      Init.Threads.push_back(ThreadState::initial(S));
    Init.M = Mem.initial();
    PayloadUnit = Core.payloadBytes(Init);

    bool Ready = true;
    if (RO.wantsResume()) {
      if constexpr (HasCodec) {
        if (Opts.CollectProgramStates) {
          RR.ResumeError = "checkpoint/resume is unsupported with "
                           "program-state collection";
          Ready = false;
        } else if (!restoreCheckpoint(Sh, Res, NumWorkers)) {
          Ready = false;
        }
      } else {
        RR.ResumeError =
            "checkpoint/resume is unsupported for this memory subsystem";
        Ready = false;
      }
      if (!Ready) {
        Res.Stats.Truncated = true;
        Sh.Bounded.store(true, std::memory_order_relaxed);
      }
    }

    if (Ready && !RR.Resumed) {
      // The initial state fast-forwards too: state 0 is its chain
      // endpoint. No primed parent yet, so it takes the full-hash path.
      WorkerSlot &W0 = *Sh.Workers[0]; // Workers not yet running.
      Init = Core.fastForward(
          std::move(Init), W0.Scratch, AHook, reporter(Sh),
          [&W0](const ExpandStep &) { ++W0.Transitions; });
      markVisited(Sh, Init, W0);
      Sh.StateCount.store(1, std::memory_order_relaxed);
      if (Opts.CollectProgramStates)
        Sh.ProgStates.insert(programStateKey(Init.Threads));
      if (std::optional<Violation> V = SHook(Init))
        recordViolation(Sh, std::move(*V));
      Sh.TB.enqueued();
      Sh.Workers[0]->Deque.push(std::move(Init));
    }

    // Effective wall-clock limit: the tighter of MaxSeconds and the
    // resilience deadline. The latter counts wall time already spent
    // before a resume (SecondsBase), so a resumed run inherits the
    // remaining budget, not a fresh one.
    double Limit = Opts.MaxSeconds > 0 ? Opts.MaxSeconds : 0;
    if (RO.DeadlineSeconds > 0) {
      double Left = RO.DeadlineSeconds - SecondsBase;
      if (Left < 0)
        Left = 0;
      if (Limit <= 0 || Left < Limit) {
        Limit = Left;
        Sh.DeadlineFromResilience = true;
      }
    }
    Sh.HasDeadline = Opts.MaxSeconds > 0 || RO.DeadlineSeconds > 0;
    if (Sh.HasDeadline)
      Sh.Deadline = Start + std::chrono::duration_cast<
                                std::chrono::steady_clock::duration>(
                                std::chrono::duration<double>(Limit));

    std::vector<std::thread> Threads;
    if (Ready) {
      Sh.ActiveWorkers.store(NumWorkers, std::memory_order_relaxed);
      Threads.reserve(NumWorkers);
      for (unsigned I = 0; I != NumWorkers; ++I)
        Threads.emplace_back([this, &Sh, I, &AHook, &SHook] {
          workerMain(Sh, I, AHook, SHook);
        });
      // The main thread becomes the management loop: signals, watchdog,
      // memory governor, periodic checkpoints.
      manage(Sh, Res);
      for (std::thread &T : Threads)
        T.join();
    }

    // Gather statistics (workers have quiesced; plain reads are safe).
    Res.Stats.NumStates = Sh.StateCount.load(std::memory_order_relaxed);
    if (Sh.BitstateLog2.load(std::memory_order_relaxed)) {
      Res.Stats.VisitedBytes = Sh.Bitstate.size() * sizeof(uint64_t);
      Res.Stats.VisitedRawBytes =
          Sh.RawBytesAtDowngrade.load(std::memory_order_relaxed);
      Res.Approximate = true;
    } else if (Sh.LfInterner) {
      Res.Stats.VisitedBytes = Sh.LfInterner->bytesUsed();
      Res.Stats.VisitedRawBytes = Sh.LfInterner->rawBytes();
    }
    Res.Stats.PeakFrontier =
        std::max(Sh.PeakFrontier.load(std::memory_order_relaxed),
                 Base.PeakFrontier);
    Res.Stats.Truncated = Sh.Bounded.load(std::memory_order_relaxed);
    Res.TimedOut = Sh.TimedOut.load(std::memory_order_relaxed);
    if (Res.TimedOut && Sh.DeadlineFromResilience)
      RR.DeadlineHit = true;
    Res.Stats.NumTransitions = Base.Transitions;
    Res.Stats.NumDeadlockStates = Base.Deadlocks;
    Res.Stats.DedupHits = Base.DedupHits;
    for (const std::unique_ptr<WorkerSlot> &W : Sh.Workers) {
      Res.Stats.NumTransitions += W->Transitions;
      Res.Stats.NumDeadlockStates += W->Deadlocks;
      Res.Stats.DedupHits += W->DedupHits;
      ExploreStats::WorkerCounters C;
      C.Expanded = W->Expanded.load(std::memory_order_relaxed);
      C.Transitions = W->Transitions;
      C.DedupHits = W->DedupHits;
      C.Deadlocks = W->Deadlocks;
      C.Steals = W->Steals;
      C.Seconds = W->Seconds;
      Res.Stats.Workers.push_back(C);
      Res.Stats.PerThreadStatesPerSec.push_back(C.statesPerSec());
    }
    RR.FinalRung = Res.Approximate ? resilience::StorageRung::Bitstate
                                   : resilience::StorageRung::Exact;

    // A truncated run leaves a final checkpoint so --resume can pick up
    // exactly here (workers have joined: direct access is safe).
    if (Res.Stats.Truncated && ckptActive() && RR.ResumeError.empty())
      writeCheckpoint(Sh, Res, /*PauseWorkers=*/false);
    // The initial state is interned on this thread before workers start;
    // everything else was flushed per worker in workerMain.
    obs::add(obs::Ctr::VisitedProbes, 1);
    obs::add(obs::Ctr::VisitedInserts, Res.Stats.NumStates);
    if (Opts.CollectProgramStates)
      Sh.ProgStates.drainInto(Res.ProgramStates);
    Res.Violations = std::move(Sh.RawViolations);

    if (!Res.Violations.empty()) {
      Res.Verdict = ParVerdict::Violation;
      if (Opts.ReplayOnViolation)
        replay(Res, AHook);
      if (!Res.Replayed && !Res.Violations.empty())
        Res.FirstViolationText =
            formatViolation(P, Res.Violations.front(), {});
    } else {
      // A bitstate-degraded run can miss states (hash saturation), so a
      // clean sweep only proves bounded robustness.
      Res.Verdict = (Res.Stats.Truncated || Res.Approximate)
                        ? ParVerdict::Bounded
                        : ParVerdict::NoViolation;
    }

    Res.Stats.Seconds =
        SecondsBase +
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      Start)
            .count();
    if (obs::traceActive()) {
      // Final counter sample: short runs can finish inside one progress
      // interval, and traces should always end with the true totals.
      obs::traceCounter(obs::TraceCounterTrack::States,
                        Res.Stats.NumStates);
      obs::traceCounter(obs::TraceCounterTrack::Frontier, 0);
      if (Res.hasViolation())
        obs::traceInstant(obs::TraceInstant::ViolationFound,
                          Res.Violations.front().StateId);
      obs::traceInstant(obs::TraceInstant::EngineStop,
                        Res.Stats.NumStates);
    }
    return Res;
  }

  template <typename AccessHook>
  ParExploreResult runWithHook(AccessHook AHook) {
    return runWithHooks(AHook, [](const ProductState &)
                            -> std::optional<Violation> {
      return std::nullopt;
    });
  }

  ParExploreResult run() {
    return runWithHook([](const MemState &, ThreadId, uint32_t,
                          const MemAccess &) -> std::optional<Violation> {
      return std::nullopt;
    });
  }

private:
  /// Per-worker frontier and statistics. Stats fields are written only by
  /// the owning worker and read after the join.
  struct alignas(64) WorkerSlot {
    WorkDeque<ProductState> Deque;
    /// Atomic: the resilience watchdog samples every worker's expansion
    /// count from the management thread while the worker runs. The owner
    /// is the only writer (relaxed load+store increments, no RMW cost).
    std::atomic<uint64_t> Expanded{0};
    uint64_t Transitions = 0;
    uint64_t Deadlocks = 0;
    uint64_t DedupHits = 0;
    uint64_t Steals = 0; ///< Successful steals from other deques.
    uint64_t StealAttempts = 0;   ///< Steal probes, successful or not.
    uint64_t StealBatchItems = 0; ///< States moved by batched steals.
    double Seconds = 0;
    uint64_t PubTransitions = 0; ///< Progress: last published transitions.
    uint64_t PubDedupHits = 0;   ///< Progress: last published dedup hits.
    /// Lock-free probe telemetry, atomic for the same reason as Expanded:
    /// worker 0 sums all workers' totals for the cas_retries trace track
    /// while they run. The owner is the only writer (relaxed load+store).
    std::atomic<uint64_t> CasRetries{0};
    std::atomic<uint64_t> ProbeSteps{0};
    unsigned IdleSweeps = 0; ///< Consecutive empty steal sweeps (backoff).
    uint64_t StealRng = 0;   ///< xorshift64 state for victim selection.
    // Reused scratch for the compressed visited set (markVisited).
    std::string CompBuf;
    std::vector<uint32_t> TupleBuf;
    std::vector<uint32_t> TreeScratch; ///< insertTuple working space.
    ExpandScratch Scratch; ///< Expansion core buffers and POR counters.
    std::vector<ProductState> StealBuf; ///< Batched-steal landing area.
    // Incremental parent cache (compressed mode only): the state being
    // expanded, serialized and interned once by primeParent; each
    // successor then re-interns only its dirty chunks (markVisited). Ids
    // never change, so the cache survives table growth.
    std::vector<uint32_t> ParentIds;      ///< Component ids, by tuple slot.
    std::vector<uint32_t> ParentChunkLen; ///< Chunk bytes, by emission idx.
    uint64_t ParentRawLen = 0; ///< Raw serialized key length of the parent.
    bool ParentValid = false;
  };

  /// State shared by all workers of one run.
  struct Shared {
    explicit Shared(unsigned NumWorkers) {
      Workers.reserve(NumWorkers);
      for (unsigned I = 0; I != NumWorkers; ++I)
        Workers.push_back(std::make_unique<WorkerSlot>());
    }
    /// The exact visited set, engaged by runWithHooks before workers
    /// start and reset on a bitstate downgrade. unique_ptr (not optional)
    /// because the tables are immovable; each grows in place under a
    /// world pause (growLockFree).
    std::unique_ptr<LockFreeStateInterner> LfInterner;
    ShardedStateSet ProgStates; ///< Program-state projections, if asked.
    TerminationBarrier TB;
    std::vector<std::unique_ptr<WorkerSlot>> Workers;
    std::atomic<uint64_t> StateCount{0};
    std::atomic<uint64_t> PeakFrontier{0};
    std::atomic<bool> Bounded{false};
    std::atomic<bool> TimedOut{false};
    /// Set once any worker records a violation: under StopOnViolation it
    /// ends sibling generation mid-expansion, while budget stops only
    /// take effect between expansions (see expandState).
    std::atomic<bool> ViolationSeen{false};
    std::mutex ViolM;
    std::vector<Violation> RawViolations;
    std::chrono::steady_clock::time_point Deadline;
    bool HasDeadline = false;
    /// True when the resilience deadline (not MaxSeconds) is the binding
    /// wall-clock limit, for DeadlineHit attribution.
    bool DeadlineFromResilience = false;

    // Pause-the-world barrier (checkpoints, storage downgrades). The
    // management thread sets PauseRequested and waits on ParkedCv until
    // every still-active worker is parked in parkAtBarrier; parked
    // workers hold no popped state, so the deques then contain exactly
    // the unexpanded frontier — a consistent cut.
    std::atomic<bool> PauseRequested{false};
    std::mutex PauseM;
    std::condition_variable PauseCv;  ///< Workers wait here for resume.
    std::condition_variable ParkedCv; ///< Management waits for parks/exits.
    unsigned ParkedCount = 0;         ///< Guarded by PauseM.
    std::atomic<unsigned> ActiveWorkers{0};

    // Degraded visited storage (governor downgrade): nonzero BitstateLog2
    // routes markVisited to the shared bit array (atomic fetch_or double
    // bits — same scheme as the sequential engine). Its pages are zeroed
    // lazily, so the downgrade commits only the words it seeds.
    std::atomic<unsigned> BitstateLog2{0};
    PageArray<uint64_t> Bitstate;
    /// Raw-key byte estimate carried over from the exact set at downgrade
    /// time (per-insert accounting stops there).
    std::atomic<uint64_t> RawBytesAtDowngrade{0};
  };

  static void atomicMax(std::atomic<uint64_t> &A, uint64_t V) {
    uint64_t Cur = A.load(std::memory_order_relaxed);
    while (Cur < V &&
           !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
    }
  }

  static constexpr bool HasCodec = HasStateCodec<MemSys>;

  /// Checkpointing needs the product-state codec and is incompatible with
  /// program-state collection (the collected set is not serialized).
  bool ckptActive() const {
    return HasCodec && !Opts.CollectProgramStates &&
           Opts.Resilience.wantsCheckpoints();
  }

  //===------------------------------------------------------------------===//
  // Pause-the-world barrier. The management thread requests a pause;
  // workers park at the top of their loop. At full pause every deque
  // holds exactly the unexpanded frontier (a consistent cut) and worker
  // counter fields are quiescent, so checkpoints and storage downgrades
  // can read them without races.
  //===------------------------------------------------------------------===//

  static void parkAtBarrier(Shared &Sh) {
    std::unique_lock<std::mutex> L(Sh.PauseM);
    ++Sh.ParkedCount;
    Sh.ParkedCv.notify_all();
    Sh.PauseCv.wait(L, [&Sh] {
      return !Sh.PauseRequested.load(std::memory_order_acquire);
    });
    --Sh.ParkedCount;
  }

  static void pauseWorld(Shared &Sh) {
    Sh.PauseRequested.store(true, std::memory_order_release);
    std::unique_lock<std::mutex> L(Sh.PauseM);
    // Workers that exit decrement ActiveWorkers under PauseM and notify,
    // so this predicate cannot hang on a worker that is gone.
    Sh.ParkedCv.wait(L, [&Sh] {
      return Sh.ParkedCount ==
             Sh.ActiveWorkers.load(std::memory_order_acquire);
    });
  }

  static void resumeWorld(Shared &Sh) {
    {
      std::lock_guard<std::mutex> L(Sh.PauseM);
      Sh.PauseRequested.store(false, std::memory_order_release);
    }
    Sh.PauseCv.notify_all();
  }

  /// Double-bit bitstate insert (same scheme as the sequential engine so
  /// checkpoints interoperate). Returns true iff at least one bit was
  /// previously clear, i.e. the state is (probably) new.
  static bool bitstateInsert(Shared &Sh, unsigned K,
                             const std::string &Key) {
    uint64_t H = hashBytes(
        reinterpret_cast<const uint8_t *>(Key.data()), Key.size());
    uint64_t Mask = (1ull << K) - 1;
    uint64_t B1 = H & Mask;
    uint64_t B2 = (H >> 32 ^ H * 0x9e3779b97f4a7c15ull) & Mask;
    uint64_t Old1 = std::atomic_ref<uint64_t>(Sh.Bitstate[B1 >> 6])
                        .fetch_or(1ull << (B1 & 63), std::memory_order_relaxed);
    uint64_t Old2 = std::atomic_ref<uint64_t>(Sh.Bitstate[B2 >> 6])
                        .fetch_or(1ull << (B2 & 63), std::memory_order_relaxed);
    return !(Old1 & (1ull << (B1 & 63))) ||
           !(Old2 & (1ull << (B2 & 63)));
  }

  static uint64_t totalExpanded(const Shared &Sh) {
    uint64_t T = 0;
    for (const std::unique_ptr<WorkerSlot> &W : Sh.Workers)
      T += W->Expanded.load(std::memory_order_relaxed);
    return T;
  }

  /// Bytes the governor charges against the memory budget: the visited
  /// representation plus a per-state estimate for the live frontier.
  /// The visited tables are charged their resident heap (slot arrays at
  /// capacity, id segments, arena blocks), not their occupancy: probing
  /// touches every page of a slot array.
  uint64_t governedBytes(const Shared &Sh) const {
    uint64_t V = Sh.BitstateLog2.load(std::memory_order_relaxed)
                     ? Sh.Bitstate.size() * sizeof(uint64_t)
                     : Sh.LfInterner->residentBytes();
    return V + Sh.TB.inFlight() * PayloadUnit;
  }

  double elapsedSeconds() const {
    return SecondsBase +
           std::chrono::duration<double>(
               std::chrono::steady_clock::now() - RunStart)
               .count();
  }

  /// Governor downgrade, parallel flavor: Exact to Bitstate, as in the
  /// sequential engine. Runs under a world pause; seeds the bit array
  /// from the exact set, then frees it.
  void downgradeToBitstate(Shared &Sh, ParExploreResult &Res,
                           uint64_t UsedBytes) {
    auto &RR = Res.Stats.Resilience;
    pauseWorld(Sh);
    unsigned K =
        resilience::bitstateLog2ForBudget(Opts.Resilience.MemBudgetBytes);
    Sh.Bitstate.assignZeroed((1ull << K) / 64);
    Sh.RawBytesAtDowngrade.store(Sh.LfInterner->rawBytes(),
                                 std::memory_order_relaxed);
    Sh.LfInterner->forEachRawKey(SlotOrder, [&](const std::string &Key) {
      bitstateInsert(Sh, K, Key);
    });
    Sh.LfInterner.reset();
    // Publish last: workers route markVisited by this flag.
    Sh.BitstateLog2.store(K, std::memory_order_release);
    resilience::DowngradeEvent E;
    E.From = resilience::StorageRung::Exact;
    E.To = resilience::StorageRung::Bitstate;
    E.AtStates = Sh.StateCount.load(std::memory_order_relaxed);
    E.AtSeconds = elapsedSeconds();
    E.UsedBytes = UsedBytes;
    RR.Downgrades.push_back(E);
    RR.FinalRung = resilience::StorageRung::Bitstate;
    Res.Approximate = true;
    obs::add(obs::Ctr::GovernorDowngrades);
    obs::traceInstant(
        obs::TraceInstant::Downgrade,
        static_cast<uint64_t>(resilience::StorageRung::Bitstate));
    resumeWorld(Sh);
  }

  /// Grows the lock-free visited tier under a world pause: each table
  /// past 1/2 load doubles by re-placing its own slot words. Ids do not
  /// change, so nothing is re-interned and workers keep their parent
  /// caches; the pause (PauseM handoff) orders the new slot arrays before
  /// any worker's next probe. full() -> Bounded remains the safety net
  /// when a table reaches the 2^MaxLockFreeRootLog2 ceiling or fills
  /// faster than the management poll.
  void growLockFree(Shared &Sh) {
    auto T0 = std::chrono::steady_clock::now();
    pauseWorld(Sh);
    // Re-check under the pause: full() may have latched (Bounded is
    // already set, growth is pointless).
    unsigned Doublings = 0;
    if (Sh.LfInterner && !Sh.LfInterner->full())
      Doublings = Sh.LfInterner->grow();
    resumeWorld(Sh);
    if (!Doublings)
      return;
    obs::add(obs::Ctr::VisitedGrowths);
    obs::traceInstant(
        obs::TraceInstant::VisitedGrowth,
        static_cast<uint64_t>(std::chrono::duration_cast<
                                  std::chrono::microseconds>(
                                  std::chrono::steady_clock::now() - T0)
                                  .count()));
  }

  /// Management loop run by the main thread while workers explore:
  /// cooperative stop (SIGINT/SIGTERM), stuck-worker watchdog, memory
  /// governor, and periodic checkpoints. Returns when all workers exit.
  void manage(Shared &Sh, ParExploreResult &Res) {
    auto &RR = Res.Stats.Resilience;
    const resilience::ResilienceOptions &RO = Opts.Resilience;
    const bool CkptOn = ckptActive();
    // The lock-free tables start small and rely on this loop to grow
    // them ahead of full(), so their presence is a duty: poll at the
    // fast cadence (wantsGrowth at 1/2 load leaves ~3/8 capacity of
    // headroom against the fill rate between polls).
    const bool GrowOn = Sh.LfInterner != nullptr;
    const bool AnyDuty = CkptOn || GrowOn || RO.MemBudgetBytes != 0 ||
                         RO.WatchdogSeconds > 0;
    auto LastCkptT = std::chrono::steady_clock::now();
    uint64_t NextCkptExp = Base.Expanded + RO.CheckpointEveryExpansions;
    uint64_t WatchExpanded = ~0ull;
    auto WatchT = LastCkptT;
    while (Sh.ActiveWorkers.load(std::memory_order_acquire) != 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(AnyDuty ? 10 : 50));
      if (resilience::stopRequested() && !RR.Interrupted) {
        RR.Interrupted = true;
        Sh.Bounded.store(true, std::memory_order_relaxed);
        Sh.TB.requestStop();
        if (obs::traceActive()) {
          obs::traceInstant(obs::TraceInstant::StopDrain);
          obs::traceCrashDump("signal drain (parallel engine)");
        }
      }
      uint64_t Total = totalExpanded(Sh);
      auto Now = std::chrono::steady_clock::now();
      // Injected clock skew (testing): an apparent forward jump past the
      // deadline stops the run the same way real time passing would.
      if (double Skew = fi::clockSkewSeconds();
          Skew > 0 && Sh.HasDeadline && !Sh.TB.stopped() &&
          Now + std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(Skew)) >=
              Sh.Deadline) {
        Sh.TimedOut.store(true, std::memory_order_relaxed);
        Sh.Bounded.store(true, std::memory_order_relaxed);
        Sh.TB.requestStop();
      }
      if (RO.WatchdogSeconds > 0 && !Sh.TB.stopped()) {
        if (Total != WatchExpanded) {
          WatchExpanded = Total;
          WatchT = Now;
        } else if (Sh.TB.inFlight() != 0 &&
                   std::chrono::duration<double>(Now - WatchT).count() >=
                       RO.WatchdogSeconds) {
          // Work is pending but no worker has expanded anything for the
          // whole watchdog window: declare the run stuck and drain.
          RR.WatchdogFired = true;
          Sh.Bounded.store(true, std::memory_order_relaxed);
          Sh.TB.requestStop();
          if (obs::traceActive()) {
            obs::traceInstant(obs::TraceInstant::WatchdogFired,
                              Sh.TB.inFlight());
            obs::traceCrashDump("watchdog: no expansion progress");
          }
        }
      }
      if (GrowOn && !Sh.TB.stopped() &&
          Sh.BitstateLog2.load(std::memory_order_relaxed) == 0) {
        if (Sh.LfInterner && Sh.LfInterner->wantsGrowth()) {
          growLockFree(Sh);
          // The pause stalls expansion; don't let it trip the watchdog.
          WatchT = std::chrono::steady_clock::now();
          WatchExpanded = totalExpanded(Sh);
        }
      }
      if (RO.MemBudgetBytes != 0 && !Sh.TB.stopped()) {
        uint64_t Used = governedBytes(Sh);
        if (Used > RO.MemBudgetBytes || fi::shouldFail("govern.alloc")) {
          if (Sh.BitstateLog2.load(std::memory_order_relaxed) == 0) {
            downgradeToBitstate(Sh, Res, Used);
            // The pause stalls expansion; don't let it trip the watchdog.
            WatchT = std::chrono::steady_clock::now();
            WatchExpanded = totalExpanded(Sh);
          } else {
            // Already on the last rung: truncate instead of OOMing.
            Sh.Bounded.store(true, std::memory_order_relaxed);
            Sh.TB.requestStop();
          }
        }
      }
      if (CkptOn && !Sh.TB.stopped()) {
        bool Due =
            RO.CheckpointEveryExpansions
                ? Total >= NextCkptExp
                : std::chrono::duration<double>(Now - LastCkptT).count() >=
                      RO.CheckpointIntervalSeconds;
        if (Due) {
          writeCheckpoint(Sh, Res, /*PauseWorkers=*/true);
          LastCkptT = std::chrono::steady_clock::now();
          NextCkptExp = totalExpanded(Sh) + RO.CheckpointEveryExpansions;
          WatchT = LastCkptT;
          WatchExpanded = totalExpanded(Sh);
        }
      }
    }
  }

  //===------------------------------------------------------------------===//
  // Checkpoint/resume. Payload layout mirrors the sequential engine where
  // the fields coincide, but the engine byte (1) keeps the two formats
  // from being cross-loaded: the frontier here is a bag of deque
  // contents, not a slice of a state array.
  //===------------------------------------------------------------------===//

  /// Hash of everything that must match for a checkpoint to be resumable.
  /// Thread/shard counts are deliberately excluded: a checkpoint taken at
  /// -j4 resumes fine at -j1 (the frontier is redistributed round-robin).
  /// The compress term is fixed: it keeps the hashes of checkpoints
  /// written while it was a setting.
  uint64_t configHash() const {
    std::string S = toString(P);
    S += "|engine=par";
    S += "|compress=1";
    S += "|stoponviol=" + std::to_string(Opts.StopOnViolation);
    S += "|asserts=" + std::to_string(Opts.CheckAssertions);
    S += "|races=" + std::to_string(Opts.CheckRaces);
    S += "|collapse=" + std::to_string(Opts.CollapseLocalSteps);
    S += "|por=" + std::to_string(Opts.UsePor);
    S += "|trace=" + std::to_string(Opts.RecordTrace);
    std::string MemBytes;
    Mem.serialize(Mem.initial(), MemBytes);
    S += "|mem=";
    S += MemBytes;
    return hashBytes(reinterpret_cast<const uint8_t *>(S.data()),
                     S.size());
  }

  /// Checkpoint codec for deque payloads: each state is written as its
  /// key (support/StateKey.h), the sequential engine's frontier format.
  void encodeProductState(BinWriter &W, const ProductState &S) const {
    if constexpr (HasCodec)
      W.str(productStateKey(Mem, S.Threads, S.M));
  }

  bool decodeProductState(BinReader &R, ProductState &S) const {
    if constexpr (HasCodec) {
      S.Threads.clear();
      for (const SequentialProgram &SP : P.Threads)
        S.Threads.push_back(ThreadState::initial(SP));
      std::string Key = R.str();
      return !R.fail() &&
             decodeProductStateKeyChecked(Mem, Key, S.Threads, S.M);
    }
    return false;
  }

  /// Serializes a consistent cut and writes it crash-safely. When
  /// \p PauseWorkers is set the world is paused around serialization and
  /// the (slow) file write happens after resuming; with workers already
  /// joined the caller passes false.
  void writeCheckpoint(Shared &Sh, ParExploreResult &Res,
                       bool PauseWorkers) {
    if constexpr (HasCodec) {
      auto T0 = std::chrono::steady_clock::now();
      auto &RR = Res.Stats.Resilience;
      if (PauseWorkers)
        pauseWorld(Sh);
      BinWriter W;
      W.u8(1); // Engine: parallel.
      unsigned K = Sh.BitstateLog2.load(std::memory_order_relaxed);
      W.u8(K ? static_cast<uint8_t>(resilience::StorageRung::Bitstate)
             : static_cast<uint8_t>(resilience::StorageRung::Exact));
      W.u8(static_cast<uint8_t>(K));
      W.u64(Sh.StateCount.load(std::memory_order_relaxed));
      W.u64(Base.Expanded + totalExpanded(Sh));
      W.f64(SecondsBase +
            std::chrono::duration<double>(T0 - RunStart).count());
      uint64_t Transitions = Base.Transitions, Dedup = Base.DedupHits,
               Deadlocks = Base.Deadlocks, Steals = Base.Steals;
      PorCounters Por = Base.Por;
      for (const std::unique_ptr<WorkerSlot> &WS : Sh.Workers) {
        Transitions += WS->Transitions;
        Dedup += WS->DedupHits;
        Deadlocks += WS->Deadlocks;
        Steals += WS->Steals;
        Por += WS->Scratch.Por;
      }
      W.u64(Transitions);
      W.u64(Dedup);
      W.u64(Deadlocks);
      W.u64(Steals);
      W.u64(Por.Ample);
      W.u64(Por.Full);
      W.u64(Por.Saved);
      W.u64(Por.Chained);
      W.u64(std::max(Base.PeakFrontier,
                     Sh.PeakFrontier.load(std::memory_order_relaxed)));
      W.varu64(RR.Downgrades.size());
      for (const resilience::DowngradeEvent &E : RR.Downgrades) {
        W.u8(static_cast<uint8_t>(E.From));
        W.u8(static_cast<uint8_t>(E.To));
        W.u64(E.AtStates);
        W.f64(E.AtSeconds);
        W.u64(E.UsedBytes);
      }
      W.u64(RR.CheckpointsWritten);
      W.u64(RR.CheckpointBytes);
      W.f64(RR.CheckpointSeconds);
      {
        std::lock_guard<std::mutex> L(Sh.ViolM);
        W.varu64(Sh.RawViolations.size());
        for (const Violation &V : Sh.RawViolations)
          encodeViolation(W, V);
      }
      if (K) {
        W.u8(2);
        W.u64(Sh.RawBytesAtDowngrade.load(std::memory_order_relaxed));
        W.u64(Sh.Bitstate.size());
        W.bytes(Sh.Bitstate.data(), Sh.Bitstate.size() * sizeof(uint64_t));
      } else {
        // Tag 5 holds (id, payload) entries; 0, 1, 3, 4 and 6 are
        // retired (see retiredVisitedFormatError).
        W.u8(5);
        Sh.LfInterner->save(W);
      }
      uint64_t NumFrontier = 0;
      for (const std::unique_ptr<WorkerSlot> &WS : Sh.Workers)
        NumFrontier += WS->Deque.size();
      W.u64(NumFrontier);
      for (const std::unique_ptr<WorkerSlot> &WS : Sh.Workers)
        WS->Deque.forEach(
            [&](const ProductState &S) { encodeProductState(W, S); });
      fi::maybeKill("ckpt.midwrite");
      if (PauseWorkers)
        resumeWorld(Sh);
      // The (potentially slow) file write happens outside the pause.
      std::string Err;
      if (fi::shouldFail("ckpt.write")) {
        // Injected write failure: skip the write; the previous
        // checkpoint on disk stays valid.
      } else if (ckpt::writeCheckpointFile(Opts.Resilience.CheckpointPath,
                                           CfgHash, W.Buf, &Err)) {
        ++RR.CheckpointsWritten;
        RR.CheckpointBytes += W.Buf.size();
        obs::add(obs::Ctr::CheckpointWrites);
        obs::add(obs::Ctr::CheckpointBytes, W.Buf.size());
        obs::traceInstant(obs::TraceInstant::CheckpointWrite,
                          W.Buf.size());
      }
      RR.CheckpointSeconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        T0)
              .count();
    }
  }

  /// Loads a parallel checkpoint before workers spawn: restores counter
  /// bases, the visited representation, and redistributes the saved
  /// frontier round-robin over the (possibly different number of)
  /// worker deques. On failure sets ResumeError and returns false.
  bool restoreCheckpoint(Shared &Sh, ParExploreResult &Res,
                         unsigned NumWorkers) {
    if constexpr (HasCodec) {
      auto &RR = Res.Stats.Resilience;
      std::string Err;
      std::optional<std::string> Payload = ckpt::loadCheckpointFile(
          Opts.Resilience.ResumePath, CfgHash, &Err);
      if (!Payload) {
        RR.ResumeError = Err;
        return false;
      }
      BinReader R(*Payload);
      uint8_t Engine = R.u8();
      uint8_t RungByte = R.u8();
      uint8_t K = R.u8();
      if (R.fail() || Engine != 1) {
        RR.ResumeError = "checkpoint was written by a different engine";
        return false;
      }
      uint64_t NStates = R.u64();
      Base.Expanded = R.u64();
      SecondsBase = R.f64();
      Base.Transitions = R.u64();
      Base.DedupHits = R.u64();
      Base.Deadlocks = R.u64();
      Base.Steals = R.u64();
      Base.Por.Ample = R.u64();
      Base.Por.Full = R.u64();
      Base.Por.Saved = R.u64();
      Base.Por.Chained = R.u64();
      Base.PeakFrontier = R.u64();
      uint64_t NumDowngrades = R.varu64();
      for (uint64_t I = 0; I != NumDowngrades && !R.fail(); ++I) {
        resilience::DowngradeEvent E;
        E.From = static_cast<resilience::StorageRung>(R.u8());
        E.To = static_cast<resilience::StorageRung>(R.u8());
        E.AtStates = R.u64();
        E.AtSeconds = R.f64();
        E.UsedBytes = R.u64();
        RR.Downgrades.push_back(E);
      }
      RR.CheckpointsWritten = R.u64();
      RR.CheckpointBytes = R.u64();
      RR.CheckpointSeconds = R.f64();
      // Violations reach the run only once the whole payload checks out
      // (a failed resume must not report or replay them).
      std::vector<Violation> Violations;
      uint64_t NumViolations = R.varu64();
      for (uint64_t I = 0; I != NumViolations && !R.fail(); ++I)
        Violations.push_back(decodeViolation(R));
      uint8_t Tag = R.u8();
      if (R.fail()) {
        RR.ResumeError = "truncated checkpoint payload";
        return false;
      }
      if (Tag == 2) {
        if (RungByte !=
                static_cast<uint8_t>(resilience::StorageRung::Bitstate) ||
            !resilience::bitstateLog2InRange(K)) {
          RR.ResumeError = "corrupt checkpoint: bitstate header";
          return false;
        }
        Sh.LfInterner.reset();
        Sh.RawBytesAtDowngrade.store(R.u64(), std::memory_order_relaxed);
        uint64_t Words = R.u64();
        if (R.fail() || Words != (1ull << K) / 64 ||
            Words > Payload->size() / 8 + 1) {
          RR.ResumeError = "corrupt checkpoint: bitstate size";
          return false;
        }
        Sh.Bitstate.assignZeroed(Words);
        R.bytes(Sh.Bitstate.data(), Words * sizeof(uint64_t));
        Sh.BitstateLog2.store(K, std::memory_order_relaxed);
      } else if (Tag <= 1 || Tag == 3 || Tag == 4 || Tag == 6) {
        RR.ResumeError = retiredVisitedFormatError(Tag);
        return false;
      } else if (Tag == 5) {
        // Entries carry their ids, so each table sizes itself from its
        // entry count: any --visited-log2 can resume any checkpoint.
        if (!Sh.LfInterner->restore(R)) {
          RR.ResumeError =
              "corrupt checkpoint: lock-free compressed visited set";
          return false;
        }
      } else {
        RR.ResumeError = "corrupt checkpoint: unknown visited-set tag";
        return false;
      }
      uint64_t NumFrontier = R.u64();
      for (uint64_t I = 0; I != NumFrontier && !R.fail(); ++I) {
        ProductState S;
        if (!decodeProductState(R, S)) {
          RR.ResumeError = "corrupt checkpoint: frontier state";
          return false;
        }
        Sh.TB.enqueued();
        Sh.Workers[I % NumWorkers]->Deque.push(std::move(S));
      }
      if (R.fail()) {
        RR.ResumeError = "truncated checkpoint payload";
        return false;
      }
      Sh.StateCount.store(NStates, std::memory_order_relaxed);
      Sh.RawViolations = std::move(Violations);
      RR.Resumed = true;
      RR.RestoredStates = NStates;
      obs::traceInstant(obs::TraceInstant::CheckpointResume, NStates);
      return true;
    }
    return false;
  }

  /// A lock-free table hit its capacity cap: the state cannot be stored,
  /// so the run truncates exactly like a MaxStates cut. Returning false
  /// drops the state from exploration, which is sound for a truncated
  /// run; it is never reported as a duplicate of anything.
  static bool tableFull(Shared &Sh) {
    Sh.Bounded.store(true, std::memory_order_relaxed);
    Sh.TB.requestStop();
    return false;
  }

  /// Folds one markVisited call's probe telemetry into the worker's
  /// atomics (owner-only writer; relaxed load+store, no RMW cost).
  static void flushProbeStats(WorkerSlot &W, const lf::ProbeStats &St) {
    W.CasRetries.store(
        W.CasRetries.load(std::memory_order_relaxed) + St.CasRetries,
        std::memory_order_relaxed);
    W.ProbeSteps.store(
        W.ProbeSteps.load(std::memory_order_relaxed) + St.ProbeSteps,
        std::memory_order_relaxed);
  }

  /// Appends emission chunk \p Idx of \p S (threads first, then the
  /// memory subsystem's chunks — the order of markVisited's full loop)
  /// to \p Out. Only reachable on the incremental path, which requires
  /// the serializeComponent hook.
  void serializeChunk(const ProductState &S, unsigned Idx,
                      std::string &Out) const {
    unsigned NT = P.numThreads();
    if (Idx < NT) {
      appendThreadStateKey(Out, S.Threads[Idx]);
      return;
    }
    if constexpr (HasIncrementalHash<MemSys>)
      Mem.serializeComponent(S.M, Idx - NT, Out);
  }

  // Emission-index dirty masks for one successor relative to its parent:
  // bit t = thread t's chunk, bit NumThreads + j = memory chunk j. The
  // subsystem hook reports over its own chunk indices; the shift lines
  // them up. ~0 (everything dirty) doubles as the "no parent / unknown"
  // sentinel that routes markVisited to the full path, and is what
  // subsystems without the hooks — or programs too wide for a 64-bit
  // mask — always get.

  uint64_t dirtyMask(const ExpandStep &E) const {
    if constexpr (HasIncrementalHash<MemSys>) {
      if (P.numThreads() < 64) {
        uint64_t Mask = E.Internal ? 0 : uint64_t{1} << E.Thread;
        if (E.Internal || E.A)
          Mask |= Mem.dirtyComponents(E.Thread, E.A) << P.numThreads();
        return Mask;
      }
    }
    return ~uint64_t{0};
  }

  /// Caches the state being expanded — per-slot component ids, per-chunk
  /// byte lengths and raw key length — so each successor re-interns only
  /// its dirty chunks. The chunks were already
  /// interned when \p S itself was marked visited, so every probe here is
  /// a hit (one memoized-hash compare); the cost is one serialization per
  /// expansion, repaid (successors × clean chunks) times.
  void primeParent(Shared &Sh, const ProductState &S, WorkerSlot &W) const {
    W.ParentValid = false;
    if constexpr (HasIncrementalHash<MemSys>) {
      if (!Sh.LfInterner ||
          Sh.BitstateLog2.load(std::memory_order_acquire))
        return;
      LockFreeStateInterner &In = *Sh.LfInterner;
      unsigned NumEmit = In.numSlots();
      if (NumEmit > 64)
        return;
      lf::ProbeStats St;
      W.ParentIds.resize(NumEmit);
      W.ParentChunkLen.resize(NumEmit);
      W.CompBuf.clear();
      uint64_t RawLen = 0;
      unsigned Idx = 0;
      bool Ok = true;
      auto Cut = [&] {
        unsigned Slot = SlotOrder[Idx];
        uint32_t Id = In.internComponent(Slot, W.CompBuf, St);
        if (Id == LockFreeStateInterner::InvalidId)
          Ok = false;
        W.ParentIds[Slot] = Id;
        W.ParentChunkLen[Idx] = static_cast<uint32_t>(W.CompBuf.size());
        RawLen += W.CompBuf.size();
        ++Idx;
        W.CompBuf.clear();
      };
      for (const ThreadState &TS : S.Threads) {
        appendThreadStateKey(W.CompBuf, TS);
        Cut();
      }
      serializeMemComponents(Mem, S.M, W.CompBuf, Cut);
      flushProbeStats(W, St);
      if (!Ok)
        return; // Full table: successors take the (also failing) full path.
      W.ParentRawLen = RawLen;
      W.ParentValid = true;
    }
  }

  /// Lock-free compressed insert. With a valid parent cache and a
  /// bounded dirty mask, only the dirty chunks are re-serialized and
  /// re-interned (O(changed components) instead of O(state) component
  /// work); otherwise every chunk is serialized and interned.
  bool lockFreeIntern(Shared &Sh, const ProductState &S, WorkerSlot &W,
                      uint64_t Dirty) const {
    LockFreeStateInterner &In = *Sh.LfInterner;
    unsigned NumEmit = In.numSlots();
    lf::ProbeStats St;
    bool Ok = true;
    if constexpr (HasIncrementalHash<MemSys>) {
      if (W.ParentValid && Dirty != ~uint64_t{0} && NumEmit <= 64) {
        W.TupleBuf = W.ParentIds;
        uint64_t RawLen = W.ParentRawLen;
        uint64_t Mask = NumEmit == 64 ? ~uint64_t{0}
                                      : (uint64_t{1} << NumEmit) - 1;
        for (uint64_t Rest = Dirty & Mask; Rest; Rest &= Rest - 1) {
          unsigned Idx = static_cast<unsigned>(std::countr_zero(Rest));
          unsigned Slot = SlotOrder[Idx];
          W.CompBuf.clear();
          serializeChunk(S, Idx, W.CompBuf);
          uint32_t Id = In.internComponent(Slot, W.CompBuf, St);
          if (Id == LockFreeStateInterner::InvalidId) {
            Ok = false;
            break;
          }
          RawLen += W.CompBuf.size();
          RawLen -= W.ParentChunkLen[Idx];
          W.TupleBuf[Slot] = Id;
        }
        bool New = Ok && In.insertTuple(W.TupleBuf.data(),
                                        stringNodeBytes(RawLen, 0), St,
                                        W.TreeScratch);
        flushProbeStats(W, St);
        if (!New && (!Ok || In.full()))
          return tableFull(Sh);
        return New;
      }
    }
    W.TupleBuf.resize(NumEmit);
    W.CompBuf.clear();
    uint64_t RawLen = 0;
    unsigned Idx = 0;
    auto Cut = [&] {
      RawLen += W.CompBuf.size();
      unsigned Slot = SlotOrder[Idx++];
      uint32_t Id = In.internComponent(Slot, W.CompBuf, St);
      if (Id == LockFreeStateInterner::InvalidId)
        Ok = false;
      W.TupleBuf[Slot] = Id;
      W.CompBuf.clear();
    };
    for (const ThreadState &TS : S.Threads) {
      appendThreadStateKey(W.CompBuf, TS);
      Cut();
    }
    serializeMemComponents(Mem, S.M, W.CompBuf, Cut);
    bool New = Ok && In.insertTuple(W.TupleBuf.data(),
                                    stringNodeBytes(RawLen, 0), St,
                                    W.TreeScratch);
    flushProbeStats(W, St);
    if (!New && (!Ok || In.full()))
      return tableFull(Sh);
    return New;
  }

  /// Dedups \p S against the active visited representation; returns true
  /// iff the state is new. \p Dirty is the emission-chunk dirty mask of
  /// \p S relative to \p W's primed parent (~0 = unknown: full path).
  /// Uses \p W's scratch buffers so the hot path does not allocate.
  bool markVisited(Shared &Sh, const ProductState &S, WorkerSlot &W,
                   uint64_t Dirty = ~uint64_t{0}) const {
    obs::Span Sp(obs::Phase::VisitedProbe);
    if (unsigned K = Sh.BitstateLog2.load(std::memory_order_acquire))
      return bitstateInsert(Sh, K, productStateKey(Mem, S.Threads, S.M));
    return lockFreeIntern(Sh, S, W, Dirty);
  }

  void recordViolation(Shared &Sh, Violation &&V) {
    {
      std::lock_guard<std::mutex> L(Sh.ViolM);
      Sh.RawViolations.push_back(std::move(V));
    }
    Sh.ViolationSeen.store(true, std::memory_order_relaxed);
    if (Opts.StopOnViolation)
      Sh.TB.requestStop();
  }

  /// Interns a successor: dedups against the visited set and, when
  /// new, runs the state hook, applies the state budget, and enqueues the
  /// state on the discovering worker's deque.
  template <typename StateHook>
  void internChild(Shared &Sh, WorkerSlot &W, ProductState &&Next,
                   StateHook &SHook, uint64_t Dirty = ~uint64_t{0}) {
    if (!markVisited(Sh, Next, W, Dirty)) {
      ++W.DedupHits;
      return;
    }
    if (Opts.CollectProgramStates)
      Sh.ProgStates.insert(programStateKey(Next.Threads));
    if (std::optional<Violation> V = SHook(Next))
      recordViolation(Sh, std::move(*V));
    uint64_t N = Sh.StateCount.fetch_add(1, std::memory_order_relaxed) + 1;
    if (N >= Opts.MaxStates) {
      Sh.Bounded.store(true, std::memory_order_relaxed);
      Sh.TB.requestStop();
    }
    Sh.TB.enqueued();
    atomicMax(Sh.PeakFrontier, Sh.TB.inFlight());
    W.Deque.push(std::move(Next));
  }

  template <typename AccessHook, typename StateHook>
  void workerMain(Shared &Sh, unsigned Me, AccessHook &AHook,
                  StateHook &SHook) {
    auto T0 = std::chrono::steady_clock::now();
    if (obs::traceActive())
      obs::traceThreadName("explore worker " + std::to_string(Me));
    obs::Span PhaseSp(obs::Phase::Explore);
    WorkerSlot &W = *Sh.Workers[Me];
    size_t NumWorkers = Sh.Workers.size();
    // Deterministic per-worker seed; the exploration order is racy
    // anyway, so decorrelating thieves is all the randomness is for.
    W.StealRng = hashMix64(Me * 0x9e3779b97f4a7c15ull + 1) | 1;
    const size_t StealMax = std::max(1u, Opts.StealBatch);
    while (!Sh.TB.stopped()) {
      // Park at the barrier (holding no popped state) when the
      // management thread pauses the world for a checkpoint/downgrade.
      if (Sh.PauseRequested.load(std::memory_order_acquire))
        parkAtBarrier(Sh);
      std::optional<ProductState> S = W.Deque.pop();
      if (!S) {
        // Randomized sweep start (xorshift64) so idle thieves fan out
        // over different victims instead of convoying on the same deque;
        // batched steals then amortize the victim lock over StealBatch
        // states. Both matter only past ~8 workers, but cost nothing
        // below.
        W.StealRng ^= W.StealRng << 13;
        W.StealRng ^= W.StealRng >> 7;
        W.StealRng ^= W.StealRng << 17;
        size_t Start = static_cast<size_t>(W.StealRng % NumWorkers);
        for (size_t I = 0; !S && I != NumWorkers; ++I) {
          size_t Victim = (Start + I) % NumWorkers;
          if (Victim == Me)
            continue;
          ++W.StealAttempts;
          W.StealBuf.clear();
          size_t N =
              Sh.Workers[Victim]->Deque.stealBatch(W.StealBuf, StealMax);
          if (!N)
            continue;
          ++W.Steals;
          W.StealBatchItems += N;
          obs::traceInstant(obs::TraceInstant::Steal, Victim);
          S = std::move(W.StealBuf.front());
          // The surplus lands on the own deque immediately: the states
          // stay enqueued for the termination barrier and stay visible
          // to checkpoint cuts (a parked worker holds no hidden work).
          for (size_t J = 1; J != N; ++J)
            W.Deque.push(std::move(W.StealBuf[J]));
          W.StealBuf.clear();
        }
      }
      if (!S) {
        if (Sh.TB.inFlight() == 0)
          break;
        // Backoff after repeatedly empty sweeps: yields first, then
        // capped exponential micro-sleeps, so spinning thieves stop
        // hammering the deque locks while a few workers drain a long
        // tail. Reset on any successful pop or steal below.
        if (++W.IdleSweeps <= 16)
          std::this_thread::yield();
        else
          std::this_thread::sleep_for(std::chrono::microseconds(
              1u << std::min(W.IdleSweeps - 16u, 8u)));
        continue;
      }
      W.IdleSweeps = 0;
      fi::maybeStall("worker.stall");
      expandState(Sh, W, *S, AHook, SHook);
      Sh.TB.retired();
      uint64_t E = W.Expanded.load(std::memory_order_relaxed) + 1;
      W.Expanded.store(E, std::memory_order_relaxed);
      fi::maybeKill("explore.expand");
      if ((E & 255) == 0)
        publishProgress(Sh, W, Me);
      if (Sh.HasDeadline && (E & 63) == 0 &&
          std::chrono::steady_clock::now() > Sh.Deadline) {
        Sh.TimedOut.store(true, std::memory_order_relaxed);
        Sh.Bounded.store(true, std::memory_order_relaxed);
        Sh.TB.requestStop();
      }
    }
    // Deregister from the pause barrier before exiting so pauseWorld
    // never waits for a worker that is gone.
    {
      std::lock_guard<std::mutex> L(Sh.PauseM);
      Sh.ActiveWorkers.fetch_sub(1, std::memory_order_acq_rel);
    }
    Sh.ParkedCv.notify_all();
    W.Seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      T0)
            .count();
    // One bulk flush per worker; the expansion loop itself never touches
    // telemetry TLS for counters.
    obs::add(obs::Ctr::Expansions,
             W.Expanded.load(std::memory_order_relaxed));
    obs::add(obs::Ctr::Transitions, W.Transitions);
    obs::add(obs::Ctr::DedupHits, W.DedupHits);
    obs::add(obs::Ctr::VisitedProbes, W.Transitions);
    obs::add(obs::Ctr::Steals, W.Steals);
    obs::add(obs::Ctr::StealAttempts, W.StealAttempts);
    obs::add(obs::Ctr::StealBatchItems, W.StealBatchItems);
    obs::add(obs::Ctr::VisitedCasRetries,
             W.CasRetries.load(std::memory_order_relaxed));
    obs::add(obs::Ctr::VisitedProbeSteps,
             W.ProbeSteps.load(std::memory_order_relaxed));
    W.Scratch.Por.flush();
  }

  /// Publishes live counts for the progress reporter (every 256
  /// expansions per worker; worker 0 additionally samples the visited-set
  /// footprint every 4096 because bytesUsed() takes all shard locks).
  void publishProgress(Shared &Sh, WorkerSlot &W, unsigned Me) const {
    if constexpr (!obs::telemetryEnabled())
      return;
    uint64_t States = Sh.StateCount.load(std::memory_order_relaxed);
    uint64_t Frontier = Sh.TB.inFlight();
    obs::progressUpdate(States, Frontier);
    obs::progressAddCounts(W.Transitions - W.PubTransitions,
                           W.DedupHits - W.PubDedupHits);
    W.PubTransitions = W.Transitions;
    W.PubDedupHits = W.DedupHits;
    if (obs::traceActive()) {
      obs::traceCounter(obs::TraceCounterTrack::States, States);
      obs::traceCounter(obs::TraceCounterTrack::Frontier, Frontier);
    }
    if (Me == 0 &&
        (W.Expanded.load(std::memory_order_relaxed) & 4095) == 0) {
      uint64_t VisitedB =
          Sh.BitstateLog2.load(std::memory_order_relaxed)
              ? Sh.Bitstate.size() * sizeof(uint64_t)
              : Sh.LfInterner->bytesUsed();
      obs::progressVisitedBytes(VisitedB);
      obs::traceCounter(obs::TraceCounterTrack::VisitedBytes, VisitedB);
      if (obs::traceActive()) {
        uint64_t Retries = 0;
        for (const std::unique_ptr<WorkerSlot> &WS : Sh.Workers)
          Retries += WS->CasRetries.load(std::memory_order_relaxed);
        obs::traceCounter(obs::TraceCounterTrack::CasRetries, Retries);
      }
    }
  }

  /// Violation sink for the expansion core. Raw parallel findings carry
  /// StateId 0; the sequential replay fills in real ids.
  auto reporter(Shared &Sh) {
    return [this, &Sh](Violation &&V) {
      V.StateId = 0;
      recordViolation(Sh, std::move(V));
    };
  }

  /// Expands one product state through the expansion core and interns
  /// each successor's chain endpoint with its dirty mask.
  template <typename AccessHook, typename StateHook>
  void expandState(Shared &Sh, WorkerSlot &W, const ProductState &S,
                   AccessHook &AHook, StateHook &SHook) {
    // Incremental-hash setup: serialize/intern the parent once so each
    // successor below pays only for its dirty chunks (no-op unless the
    // lock-free interner is active and the subsystem has the hooks).
    primeParent(Sh, S, W);
    auto Report = reporter(Sh);
    // The chain endpoint's dirty mask vs. the expanded parent is the
    // union over every step walked (supersets compose transitively).
    uint64_t Dirty = 0;
    auto Hop = [&](const ExpandStep &E) {
      ++W.Transitions;
      Dirty |= dirtyMask(E);
    };
    auto AnyViolation = [&Sh] {
      return Sh.ViolationSeen.load(std::memory_order_relaxed);
    };
    auto Emit = [&](ProductState &&Next, const ExpandStep &E) {
      ++W.Transitions;
      Dirty = dirtyMask(E);
      ProductState End =
          Core.fastForward(std::move(Next), W.Scratch, AHook, Report, Hop);
      internChild(Sh, W, std::move(End), SHook, Dirty);
    };
    if (Core.expand(S, W.Scratch, AHook, Report, AnyViolation, Emit))
      ++W.Deadlocks;
  }

  /// Deterministic violation reporting: re-run the sequential BFS engine
  /// under the same semantic options; its violations, trace, and report
  /// replace the racy parallel findings byte-for-byte.
  template <typename AccessHook>
  void replay(ParExploreResult &Res, AccessHook &AHook) {
    ExploreOptions EO;
    EO.MaxStates = Opts.MaxStates;
    EO.RecordParents = Opts.RecordTrace;
    EO.StopOnViolation = Opts.StopOnViolation;
    EO.CheckAssertions = Opts.CheckAssertions;
    EO.CheckRaces = Opts.CheckRaces;
    EO.CollapseLocalSteps = Opts.CollapseLocalSteps;
    // Same reduction in the replay, so it traverses the identical
    // reduced graph and its violations/traces match what was found.
    EO.UsePor = Opts.UsePor;
    EO.TelemetryPhase = obs::Phase::Replay;
    obs::add(obs::Ctr::ReplayRuns);
    ProductExplorer<MemSys> Seq(P, Mem, EO);
    ExploreResult SR = Seq.runWithHook(AHook);
    if (SR.Violations.empty())
      return; // Budget-order mismatch: keep the raw parallel findings.
    Res.Violations = SR.Violations;
    Res.FirstViolationText = Seq.report(SR.Violations.front());
    if (Opts.RecordTrace)
      Res.FirstViolationTrace = Seq.trace(SR.Violations.front());
    Res.Replayed = true;
  }

  const Program &P;
  const MemSys &Mem;
  ParExploreOptions Opts;
  ExpansionCore<MemSys> Core; ///< Checks and successor generation.
  std::vector<uint32_t> SlotOrder; ///< Emission index → tuple slot.

  /// Counter totals restored from a checkpoint; folded into gathered
  /// stats and re-serialized (plus this run's deltas) on the next write.
  struct BaseCounters {
    uint64_t Expanded = 0, Transitions = 0, DedupHits = 0, Deadlocks = 0,
             Steals = 0, PeakFrontier = 0;
    PorCounters Por;
  } Base;
  double SecondsBase = 0; ///< Wall seconds spent before a resume.
  uint64_t CfgHash = 0;
  uint64_t PayloadUnit = 0; ///< Governor estimate: bytes/frontier state.
  std::chrono::steady_clock::time_point RunStart;
};

} // namespace rocker

#endif // ROCKER_PAREXPLORE_PARALLELEXPLORER_H
