//===- sample/Sampler.h - Monitored random-schedule sampling ---*- C++ -*-===//
///
/// \file
/// The third engine: Monte Carlo robustness checking. Each sample
/// executes the program under one randomly generated interleaving while
/// running the per-state checks of the exhaustive engines — the
/// Theorem 5.3 monitor conditions via the access hook, assertion
/// checking, the Definition 6.1 race check — at every visited state.
/// Nothing is stored across samples except a fixed-size sketch of final
/// states: memory is O(threads + locations + depth cap), *independent
/// of the explored state count*, which is what makes this the final
/// rung of the resilience degradation ladder (exact → bitstate →
/// sample) and the only engine that runs on state spaces no
/// visited set can hold.
///
/// What a sampling run can conclude:
///
///  * a violation found is **real** — the monitor stepped through a
///    concrete SC interleaving reaching it, and the recorded schedule
///    replays deterministically into a standard counterexample trace —
///    so NotRobust verdicts are exactly as trustworthy as exhaustive
///    ones;
///  * a clean budget proves only "no violation in N schedules":
///    coverage is probabilistic, so the verdict ceiling is
///    BoundedRobust, never Robust (rocker/RobustnessChecker.h demotes
///    via Approximate).
///
/// Scheduling nondeterminism is the only nondeterminism sampled: the
/// SCM monitor and the plain-SC subsystem step deterministically per
/// (state, thread), so a schedule is a sequence of thread choices (plus
/// a successor pick for the rare subsystem exposing several labels per
/// access). Subsystems with internal steps (TSO buffers) are out of
/// scope here. Schedule generation policies live in sample/Diversify.h;
/// the seeded, splittable per-sample PRNG in sample/Schedule.h.
///
/// Parallel sampling mirrors the parexplore plumbing: workers share the
/// sample budget through one atomic cursor, publish per-worker counters
/// into ExploreStats::Workers with the same layout as both exhaustive
/// engines, and shut down first-violation-wins. Because sample i's
/// schedule depends only on (seed, i), worker count affects neither any
/// sample's outcome nor the set of samples run on a clean budget.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_SAMPLE_SAMPLER_H
#define ROCKER_SAMPLE_SAMPLER_H

#include "explore/Expand.h"
#include "explore/Explorer.h"
#include "lang/Printer.h"
#include "lang/Program.h"
#include "lang/Step.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "resilience/Resilience.h"
#include "sample/Diversify.h"
#include "sample/Schedule.h"
#include "support/Hashing.h"
#include "support/StateKey.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace rocker::sample {

/// Fixed-size (2^16-bit, 8 KiB) presence sketch over final-state hashes,
/// read out as a linear-counting estimate of the number of distinct
/// final states the samples reached — a cheap diversity signal ("are my
/// schedules actually exploring?") that keeps the engine's storage
/// constant in the state count.
class FinalStateSketch {
public:
  static constexpr unsigned Log2Bits = 16;

  FinalStateSketch() : Bits((1u << Log2Bits) / 64, 0) {}

  void insert(uint64_t Hash) {
    uint64_t B = Hash & ((1u << Log2Bits) - 1);
    Bits[B / 64] |= static_cast<uint64_t>(1) << (B % 64);
  }

  void merge(const FinalStateSketch &Other) {
    for (size_t I = 0; I != Bits.size(); ++I)
      Bits[I] |= Other.Bits[I];
  }

  /// Linear-counting estimate m·ln(m/z) with m = 2^16 bits and z the
  /// count of still-zero bits; \p SamplesSeen caps the saturated case.
  double estimate(uint64_t SamplesSeen) const;

  uint64_t bytes() const { return Bits.size() * sizeof(uint64_t); }

private:
  std::vector<uint64_t> Bits;
};

/// Result of a sampling run. Stats uses the shared ExploreStats layout
/// (NumStates/NumTransitions = monitored steps executed, Workers = one
/// entry per sampling worker) so report consumers need no special case;
/// Sample carries the sampling-specific block.
struct SampleResult {
  ExploreStats Stats;
  SampleStats Sample;
  std::vector<Violation> Violations;
  std::string FirstViolationText;
  std::vector<TraceStep> FirstViolationTrace;

  bool hasViolation() const { return !Violations.empty(); }
};

/// The sampling engine. \p MemSys must step deterministically per
/// (state, thread, access) — at most a handful of successor labels —
/// and have no internal steps (the SCM monitor and plain SC qualify).
/// \p AccessHook has the ProductExplorer contract: called for every
/// pending access of every visited state.
template <typename MemSys> class SampleEngine {
public:
  using MemState = typename MemSys::State;

  SampleEngine(const Program &P, const MemSys &Mem, SampleOptions Opts)
      : P(P), Mem(Mem), Opts(Opts),
        // A sample ends at the first violation it meets.
        Core(P, Mem,
             {.CheckAssertions = Opts.CheckAssertions,
              .CheckRaces = Opts.CheckRaces,
              .StopOnViolation = true}) {
    if (this->Opts.Workers == 0)
      this->Opts.Workers = 1;
  }

  template <typename AccessHook> SampleResult runWithHook(AccessHook Hook) {
    auto RunStart = std::chrono::steady_clock::now();
    obs::Span PhaseSp(obs::Phase::Sample);
    obs::ProgressScope Progress(Opts.Samples, /*SampleMode=*/true);
    obs::traceInstant(obs::TraceInstant::EngineStart, Opts.Workers);

    SampleResult Res;
    Res.Sample.Enabled = true;
    Res.Sample.SamplesRequested = Opts.Samples;
    Res.Sample.Seed = Opts.Seed;
    Res.Sample.MaxDepth = Opts.MaxDepth;
    Res.Sample.Workers = Opts.Workers;
    Res.Sample.Scheduler = sampleSchedulerName(Opts.Sched);

    std::atomic<uint64_t> NextSample{0};
    std::atomic<uint64_t> Done{0};
    std::atomic<bool> Stop{false};
    std::atomic<bool> Interrupted{false};
    std::atomic<bool> DeadlineHit{false};
    std::mutex FoldMu; // Winner + violation list + sketch merges.
    std::vector<Violation> Violations;
    std::vector<Choice> WinnerChoices;
    int64_t WinnerIndex = -1;
    FinalStateSketch Sketch;
    std::vector<WorkerTally> Tallies(Opts.Workers);

    auto WorkerFn = [&](unsigned W) {
      auto WStart = std::chrono::steady_clock::now();
      FinalStateSketch Local;
      std::vector<Choice> Choices;
      StateScratch Scratch;
      WorkerTally &T = Tallies[W];
      uint64_t PubSteps = 0;
      while (!Stop.load(std::memory_order_relaxed)) {
        if (resilience::stopRequested()) {
          Interrupted.store(true, std::memory_order_relaxed);
          Stop.store(true, std::memory_order_relaxed);
          if (obs::traceActive()) {
            obs::traceInstant(obs::TraceInstant::StopDrain);
            obs::traceCrashDump("signal drain (sampling engine)");
          }
          break;
        }
        if (Opts.DeadlineSeconds > 0 &&
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          RunStart)
                    .count() >= Opts.DeadlineSeconds) {
          DeadlineHit.store(true, std::memory_order_relaxed);
          Stop.store(true, std::memory_order_relaxed);
          break;
        }
        uint64_t I = NextSample.fetch_add(1, std::memory_order_relaxed);
        if (I >= Opts.Samples)
          break;
        Choices.clear();
        SampleOutcome O = runSample(
            I, Hook, Opts.RecordTrace ? &Choices : nullptr, Scratch);
        ++T.Samples;
        T.Steps += O.StepsExecuted;
        T.Deadlocks += O.Deadlock;
        T.DepthHits += O.DepthCapped;
        T.Randomized += O.Randomized;
        if (O.V) {
          O.V->Detail += (O.V->Detail.empty() ? "" : "; ");
          O.V->Detail += "found by sample #" + std::to_string(I) +
                         " after " + std::to_string(O.StepsExecuted) +
                         " steps";
          std::lock_guard<std::mutex> L(FoldMu);
          // First violation wins: the winner's schedule is the one
          // replayed into the reported trace; later finds are still
          // collected in --all mode.
          if (WinnerIndex < 0) {
            WinnerIndex = static_cast<int64_t>(I);
            WinnerChoices = Choices;
            Violations.insert(Violations.begin(), std::move(*O.V));
            if (Opts.StopOnViolation)
              Stop.store(true, std::memory_order_relaxed);
          } else {
            Violations.push_back(std::move(*O.V));
          }
        } else {
          Local.insert(O.FinalHash);
        }
        uint64_t D = Done.fetch_add(1, std::memory_order_relaxed) + 1;
        if ((D & 63) == 0) {
          obs::progressUpdate(D, 0);
          obs::progressAddCounts(T.Steps - PubSteps, 0);
          PubSteps = T.Steps;
          obs::traceCounter(obs::TraceCounterTrack::Samples, D);
        }
      }
      T.Seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - WStart)
                      .count();
      std::lock_guard<std::mutex> L(FoldMu);
      Sketch.merge(Local);
    };

    if (Opts.Workers == 1) {
      WorkerFn(0);
    } else {
      std::vector<std::thread> Threads;
      Threads.reserve(Opts.Workers);
      for (unsigned W = 0; W != Opts.Workers; ++W)
        Threads.emplace_back([&WorkerFn, W] {
          obs::traceThreadName("sample worker " + std::to_string(W));
          WorkerFn(W);
        });
      for (std::thread &Th : Threads)
        Th.join();
    }

    for (const WorkerTally &T : Tallies) {
      Res.Sample.SamplesRun += T.Samples;
      Res.Sample.Steps += T.Steps;
      Res.Sample.DeadlockSamples += T.Deadlocks;
      Res.Sample.DepthCapHits += T.DepthHits;
      Res.Sample.RandomizedSamples += T.Randomized;
      ExploreStats::WorkerCounters W;
      W.Expanded = T.Samples;
      W.Transitions = T.Steps;
      W.Deadlocks = T.Deadlocks;
      W.Seconds = T.Seconds;
      Res.Stats.Workers.push_back(W);
      Res.Stats.PerThreadStatesPerSec.push_back(W.statesPerSec());
    }
    Res.Sample.Seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - RunStart)
                             .count();
    Res.Sample.ViolationSample = WinnerIndex;
    Res.Sample.DistinctFinalEstimate =
        Sketch.estimate(Res.Sample.SamplesRun);
    Res.Sample.SketchBytes = Sketch.bytes();

    Res.Stats.NumStates = Res.Sample.Steps;
    Res.Stats.NumTransitions = Res.Sample.Steps;
    Res.Stats.NumDeadlockStates = Res.Sample.DeadlockSamples;
    // The sketch is the engine's only cross-sample storage; reporting
    // it as the visited footprint makes "O(1) in explored states"
    // externally checkable.
    Res.Stats.VisitedBytes = Res.Sample.SketchBytes;
    Res.Stats.VisitedRawBytes = Res.Sample.SketchBytes;
    Res.Stats.Seconds = Res.Sample.Seconds;
    // Truncated = the budget was cut short for a reason other than a
    // violation win (deadline or stop signal).
    Res.Stats.Truncated = Res.Sample.SamplesRun < Opts.Samples &&
                          WinnerIndex < 0;
    Res.Stats.Resilience.Interrupted =
        Interrupted.load(std::memory_order_relaxed);
    Res.Stats.Resilience.DeadlineHit =
        DeadlineHit.load(std::memory_order_relaxed);

    Res.Violations = std::move(Violations);
    if (!Res.Violations.empty()) {
      if (Opts.RecordTrace)
        Res.FirstViolationTrace = replayChoices(WinnerChoices);
      Res.FirstViolationText =
          formatViolation(P, Res.Violations.front(), Res.FirstViolationTrace);
    }

    obs::add(obs::Ctr::SamplesRun, Res.Sample.SamplesRun);
    obs::add(obs::Ctr::SampleSteps, Res.Sample.Steps);
    obs::add(obs::Ctr::SampleDeadlocks, Res.Sample.DeadlockSamples);
    obs::add(obs::Ctr::SampleDepthHits, Res.Sample.DepthCapHits);
    if (obs::traceActive()) {
      if (Res.hasViolation())
        obs::traceInstant(obs::TraceInstant::ViolationFound,
                          WinnerIndex < 0 ? 0
                                          : static_cast<uint64_t>(
                                                WinnerIndex));
      obs::traceInstant(obs::TraceInstant::EngineStop,
                        Res.Sample.SamplesRun);
    }
    return Res;
  }

  SampleResult run() {
    return runWithHook([](const MemState &, ThreadId, uint32_t,
                          const MemAccess &) -> std::optional<Violation> {
      return std::nullopt;
    });
  }

  /// One recorded schedule step: the thread, and which of its enabled
  /// successor labels was taken (0 for the deterministic subsystems).
  struct Choice {
    ThreadId Thread;
    uint8_t Pick;
  };

  /// Re-executes a recorded schedule into a counterexample trace with
  /// the exhaustive engines' step texts, so formatViolation renders
  /// sampled and explored violations identically.
  std::vector<TraceStep> replayChoices(const std::vector<Choice> &Cs) const {
    obs::Span Sp(obs::Phase::Replay);
    obs::add(obs::Ctr::ReplayRuns);
    std::vector<ThreadState> Threads = initialThreads();
    MemState M = Mem.initial();
    std::vector<TraceStep> Trace;
    Trace.reserve(Cs.size());
    for (const Choice &C : Cs) {
      ThreadId T = C.Thread;
      ThreadStep St = inspectThread(P, T, Threads[T]);
      if (St.K == ThreadStep::Kind::Local) {
        Trace.push_back(TraceStep{
            T, false, false, Label{},
            "local: " + toString(P, T, P.Threads[T].Insts[Threads[T].Pc])});
        Threads[T] = St.Next;
        continue;
      }
      unsigned Idx = 0;
      bool Applied = false;
      Mem.enumerate(M, T, St.A, [&](const Label &L, MemState &&M2) {
        if (Idx++ != C.Pick)
          return;
        Trace.push_back(TraceStep{T, false, true, L, toString(P, L)});
        Threads[T] = applyAccess(P, T, Threads[T], St.A, L);
        M = std::move(M2);
        Applied = true;
      });
      if (!Applied) // Schedule/state mismatch: deterministic stepping
        break;      // guarantees this never fires; fail soft if it does.
    }
    return Trace;
  }

private:
  struct WorkerTally {
    uint64_t Samples = 0;
    uint64_t Steps = 0;
    uint64_t Deadlocks = 0;
    uint64_t DepthHits = 0;
    uint64_t Randomized = 0;
    double Seconds = 0;
  };

  struct SampleOutcome {
    std::optional<Violation> V;
    uint64_t StepsExecuted = 0;
    bool Deadlock = false;
    bool DepthCapped = false;
    bool Randomized = false;
    uint64_t FinalHash = 0;
  };

  std::vector<ThreadState> initialThreads() const {
    std::vector<ThreadState> Threads;
    Threads.reserve(P.numThreads());
    for (const SequentialProgram &S : P.Threads)
      Threads.push_back(ThreadState::initial(S));
    return Threads;
  }

  /// Executes sample \p Index: one monitored walk from the initial
  /// state, with the full per-state check battery before every step.
  /// \p Record, when non-null, receives the schedule for replay; \p X is
  /// the calling worker's scratch.
  template <typename AccessHook>
  SampleOutcome runSample(uint64_t Index, AccessHook &Hook,
                          std::vector<Choice> *Record, StateScratch &X) {
    SampleRng Rng = SampleRng::forSample(Opts.Seed, Index);
    SchedulePolicy Pol(Opts, Rng, P.numThreads());
    std::vector<ThreadState> Threads = initialThreads();
    MemState M = Mem.initial();
    std::vector<ThreadStep> &Steps = X.Steps;
    Steps.resize(P.numThreads());
    std::vector<std::pair<Label, MemState>> Succ;
    SampleOutcome Out;
    uint64_t Depth = 0;

    auto Finish = [&](bool Deadlock, bool Capped) {
      Out.Deadlock = Deadlock;
      Out.DepthCapped = Capped;
      Out.Randomized = Pol.tookRandomStep();
      std::string Key = productStateKey(Mem, Threads, M);
      Out.FinalHash = hashBytes(
          reinterpret_cast<const uint8_t *>(Key.data()), Key.size());
      return Out;
    };
    auto Report = [&](Violation &&V) {
      V.StateId = Depth; // For samples: the step index of the witness.
      Out.V = std::move(V);
      Out.Randomized = Pol.tookRandomStep();
    };

    for (;; ++Depth) {
      // The exhaustive engines' per-state checks — assertions, the access
      // hook (the Theorem 5.3 monitor conditions), the Definition 6.1
      // race scan — so a sampled walk detects exactly what exploration
      // would detect at these states.
      uint64_t CandMask = 0;
      bool AllHalted = true;
      X.Na.clear();
      for (unsigned T = 0; T != P.numThreads(); ++T) {
        Steps[T] = inspectThread(P, static_cast<ThreadId>(T), Threads[T]);
        if (Steps[T].K == ThreadStep::Kind::Halted)
          continue;
        AllHalted = false;
        if (Core.checkThread(Threads, M, T, Steps[T], X.Na, Hook, Report))
          return Out;
        if (Steps[T].K != ThreadStep::Kind::AssertFail)
          CandMask |= static_cast<uint64_t>(1) << T;
      }
      if (Core.raceScan(X.Na, Report))
        return Out;

      if (AllHalted)
        return Finish(false, false);
      if (!CandMask)
        return Finish(true, false);
      if (Depth >= Opts.MaxDepth)
        return Finish(false, true);

      // POR-diverse: take provably-commuting steps deterministically so
      // the schedule's randomness lands on the racy states only.
      int Ample = -1;
      const PorAnalysis &Por = Core.por();
      if (Opts.Sched == SampleScheduler::PorDiverse && Por.usable() &&
          memPorEligible(Mem, M))
        Ample = Por.selectAmple(Steps, Threads);

      // Pick and step. Picks that turn out blocked (wait/BCAS whose
      // expected value is absent) leave the candidate set and the pick
      // repeats — equivalent to drawing uniformly over the truly
      // enabled threads, without enumerating every thread's successors
      // up front.
      for (;;) {
        unsigned T = Pol.pick(Rng, CandMask, Ample);
        const ThreadStep &St = Steps[T];
        if (St.K == ThreadStep::Kind::Local) {
          Threads[T] = St.Next;
          Pol.scheduled(T, Depth);
          if (Record)
            Record->push_back(Choice{static_cast<ThreadId>(T), 0});
          ++Out.StepsExecuted;
          break;
        }
        Succ.clear();
        Mem.enumerate(M, static_cast<ThreadId>(T), St.A,
                      [&](const Label &L, MemState &&M2) {
                        Succ.emplace_back(L, std::move(M2));
                      });
        if (Succ.empty()) {
          CandMask &= ~(static_cast<uint64_t>(1) << T);
          if (static_cast<int>(T) == Ample)
            Ample = -1;
          if (!CandMask)
            return Finish(true, false);
          continue;
        }
        size_t Pick = Succ.size() == 1 ? 0 : Rng.below(Succ.size());
        Threads[T] = applyAccess(P, static_cast<ThreadId>(T), Threads[T],
                                 St.A, Succ[Pick].first);
        M = std::move(Succ[Pick].second);
        Pol.scheduled(T, Depth);
        if (Record)
          Record->push_back(
              Choice{static_cast<ThreadId>(T), static_cast<uint8_t>(Pick)});
        ++Out.StepsExecuted;
        break;
      }
    }
  }

  const Program &P;
  const MemSys &Mem;
  SampleOptions Opts;
  ExpansionCore<MemSys> Core; ///< The exact engines' check battery.
};

} // namespace rocker::sample

#endif // ROCKER_SAMPLE_SAMPLER_H
