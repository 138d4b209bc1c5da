//===- explore/Expand.h - The expansion core of all engines ----*- C++ -*-===//
///
/// \file
/// One product-state expansion, shared by the sequential engine
/// (explore/Explorer.h), the parallel engine (parexplore/
/// ParallelExplorer.h) and the sampler (sample/Sampler.h). Theorem 5.3
/// turns robustness into SC reachability over P × SCM with the monitor
/// conditions checked at every enabled access; this file holds that check
/// battery and the successor generation around it:
///
///  * checkThread + raceScan: assertions under SC, the access hook (the
///    Theorem 5.3 monitor conditions) and the Definition 6.1 race scan on
///    non-atomic locations;
///  * fastForward: ample-chain fast-forwarding, with the same checks at
///    every skipped state;
///  * expand: POR selection, per-thread checks, successor generation
///    (local steps, enumerate, enumerateInternal) and deadlock detection.
///
/// Engine-specific behaviour comes in as template callbacks: Report
/// receives each violation (the engine sets Violation::StateId), Emit
/// receives each successor with the step that produced it, Hop each chain
/// step fastForward walks, and AnyViolation answers whether the run has
/// recorded a violation yet. The core itself is const; scratch buffers
/// and POR counters live in an ExpandScratch owned by each engine worker.
///
/// The contract that keeps every count fixed across engines:
///
///  * Order. For each thread in order: check it, then generate its
///    successors, then test the stop rule. The race scan runs after all
///    threads; internal steps run only when no ample thread was selected.
///  * Stop rule. A thread's own violation under StopOnViolation ends the
///    expansion at once; otherwise sibling generation stops only when
///    StopOnViolation is set and AnyViolation() holds. Budget stops never
///    cut an expansion short — engines apply them between expansions.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_EXPLORE_EXPAND_H
#define ROCKER_EXPLORE_EXPAND_H

#include "explore/Por.h"
#include "lang/Printer.h"
#include "lang/Program.h"
#include "lang/Step.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace rocker {

/// What went wrong (or was detected) in an explored state.
struct Violation {
  enum class Kind : uint8_t {
    AssertFail,     ///< assert(e) evaluated to 0 (under SC).
    Robustness,     ///< Theorem 5.3 condition failed (non-robust).
    Race,           ///< Definition 6.1 racy state on a non-atomic location.
    MemoryViolation ///< Subsystem-specific (e.g. RAG+NA ⊥ transition).
  };
  Kind K;
  uint64_t StateId;
  ThreadId Thread;
  uint32_t Pc;
  LocId Loc = 0;
  /// For robustness: the witnessing readable-but-stale value (0xff when
  /// the witness is a non-critical value tracked only disjunctively).
  Val Witness = 0;
  AccessType Type = AccessType::R;
  std::string Detail;
};

/// A pending access to a non-atomic location, kept for the race scan.
struct NaAccess {
  ThreadId T;
  LocId Loc;
  bool IsWrite;
  uint32_t Pc;
};

/// Partial-order reduction counters, one set per engine worker.
struct PorCounters {
  uint64_t Ample = 0;   ///< States expanded or chain-walked via an ample set.
  uint64_t Full = 0;    ///< POR-active expansions with no ample set.
  uint64_t Saved = 0;   ///< Pending steps skipped at ample states.
  uint64_t Chained = 0; ///< Chain intermediates never stored.

  PorCounters &operator+=(const PorCounters &O) {
    Ample += O.Ample;
    Full += O.Full;
    Saved += O.Saved;
    Chained += O.Chained;
    return *this;
  }

  /// Adds the counters to telemetry (once per run or worker, never per
  /// transition).
  void flush() const {
    obs::add(obs::Ctr::AmpleHits, Ample);
    obs::add(obs::Ctr::PorFallbacks, Full);
    obs::add(obs::Ctr::PorSavedSteps, Saved);
    obs::add(obs::Ctr::PorChainedStates, Chained);
  }
};

/// The checks' working set for one state.
struct StateScratch {
  std::vector<ThreadStep> Steps;   ///< Every thread's step.
  std::vector<uint16_t> Collapsed; ///< Local steps: ε-instructions folded.
  std::vector<NaAccess> Na;        ///< Pending non-atomic accesses.
};

/// Per-worker scratch for expand and fastForward. Never shared between
/// threads. The chain walk has its own set because expand is still
/// iterating over Top when an Emit callback calls fastForward.
struct ExpandScratch {
  StateScratch Top;
  StateScratch Chain;
  PorCounters Por;
};

/// One step from a state to a successor, as expand emits it and
/// fastForward walks it.
struct ExpandStep {
  ThreadId Thread = 0;
  bool Internal = false;        ///< Memory-internal step (e.g. TSO flush).
  const MemAccess *A = nullptr; ///< Access steps: the access; L its label.
  Label L{};
  uint32_t FromPc = 0;    ///< Local steps: pc of the first ε-instruction.
  uint16_t Collapsed = 0; ///< Local steps: ε-instructions folded in.
};

/// True when \p MemSys's serialization has a fixed length and an inverse
/// (stateKeyBytes/decodeState), so a state key doubles as a payload: the
/// sequential engine keeps its frontier as keys (explore/KeyFrontier.h)
/// and both engines checkpoint frontier states as keys. Subsystems without
/// it keep ProductState payloads and still run under memory/time budgets;
/// --checkpoint/--resume are rejected for them.
template <typename MemSys>
concept HasStateCodec =
    requires(const MemSys &M, const char *P, typename MemSys::State &S) {
      { M.stateKeyBytes() } -> std::convertible_to<size_t>;
      { M.decodeState(P, S) } -> std::same_as<const char *>;
    };

template <typename MemSys> class ExpansionCore {
public:
  using MemState = typename MemSys::State;

  /// A full product state.
  struct ProductState {
    std::vector<ThreadState> Threads;
    MemState M;
  };

  struct Config {
    bool CheckAssertions = true;
    bool CheckRaces = false;
    bool StopOnViolation = true;
    /// Follow deterministic ε-chains to their end in one step.
    bool CollapseLocalSteps = false;
    /// Ample-set POR (explore/Por.h). Engines clear it for runs that
    /// collect program states, which need the full state space.
    bool UsePor = false;
    /// Walk ample chains before interning (non-trace runs only: trace
    /// runs store every reduced state so counterexample replay stays
    /// step-exact).
    bool FastForward = false;
  };

  ExpansionCore(const Program &P, const MemSys &Mem, Config Cfg)
      : P(P), Mem(Mem), Cfg(Cfg), Por(P) {}

  const PorAnalysis &por() const { return Por; }

  /// Resident bytes of one ProductState payload, estimated once per run
  /// from \p S (thread and memory state sizes are program-constant for
  /// every subsystem here): the object, each thread's registers, and the
  /// memory state's heap buffer — its heapBytes() when it reports one,
  /// else twice its serialization plus 32 bytes. The memory governor
  /// charges it per frontier state against --mem-budget wherever the
  /// frontier holds ProductStates; the sequential engine's key frontier
  /// charges KeyFrontier::entryBytes instead.
  uint64_t payloadBytes(const ProductState &S) const {
    uint64_t B = sizeof(ProductState);
    for (const ThreadState &TS : S.Threads)
      B += sizeof(ThreadState) + TS.Regs.capacity() * sizeof(TS.Regs[0]);
    if constexpr (requires { S.M.heapBytes(); }) {
      return B + S.M.heapBytes();
    } else {
      std::string MemBytes;
      Mem.serialize(S.M, MemBytes);
      return B + 2 * MemBytes.size() + 32;
    }
  }

  /// Checks thread \p T, whose step at the state (\p Threads, \p M) is
  /// \p Step: an assertion failure, or the access hook on a pending
  /// access, whose non-atomic accesses are also collected into \p Na for
  /// raceScan. A violation goes to \p Report with Thread and Pc filled in.
  /// Returns true when a violation was reported.
  template <typename Hook, typename Report>
  bool checkThread(const std::vector<ThreadState> &Threads,
                   const MemState &M, unsigned T, const ThreadStep &Step,
                   std::vector<NaAccess> &Na, Hook &&H, Report &&R) const {
    ThreadId Tid = static_cast<ThreadId>(T);
    uint32_t Pc = Threads[T].Pc;
    if (Step.K == ThreadStep::Kind::AssertFail) {
      if (!Cfg.CheckAssertions)
        return false;
      Violation V;
      V.K = Violation::Kind::AssertFail;
      V.Thread = Tid;
      V.Pc = Pc;
      V.Detail =
          "assertion failed: " + toString(P, Tid, P.Threads[T].Insts[Pc]);
      R(std::move(V));
      return true;
    }
    if (Step.K != ThreadStep::Kind::Access)
      return false;
    const MemAccess &A = Step.A;
    if (Cfg.CheckRaces && A.IsNA)
      Na.push_back(NaAccess{Tid, A.Loc, A.isWriteOnly(), Pc});
    std::optional<Violation> V = H(M, Tid, Pc, A);
    if (!V)
      return false;
    V->Thread = Tid;
    V->Pc = Pc;
    R(std::move(*V));
    return true;
  }

  /// Definition 6.1: a state is racy iff two threads enable accesses to
  /// the same non-atomic location, at least one of them writing. Reports
  /// every racy pair in \p Na (only the first under StopOnViolation) and
  /// returns true when it reported any.
  template <typename Report>
  bool raceScan(const std::vector<NaAccess> &Na, Report &&R) const {
    bool Any = false;
    for (unsigned I = 0; I != Na.size(); ++I) {
      for (unsigned J = I + 1; J != Na.size(); ++J) {
        if (Na[I].Loc != Na[J].Loc || (!Na[I].IsWrite && !Na[J].IsWrite))
          continue;
        Violation V;
        V.K = Violation::Kind::Race;
        V.Thread = Na[I].T;
        V.Pc = Na[I].Pc;
        V.Loc = Na[I].Loc;
        V.Detail = "data race on non-atomic '" + P.locName(Na[I].Loc) +
                   "' between t" + std::to_string(Na[I].T) + " and t" +
                   std::to_string(Na[J].T);
        R(std::move(V));
        Any = true;
        if (Cfg.StopOnViolation)
          return true;
      }
    }
    return Any;
  }

  /// Ample-chain fast-forwarding: at an ample state the reduced graph is
  /// locally a chain — porEligible guarantees the ample step has exactly
  /// one successor — so in non-trace runs every state is walked to its
  /// chain's endpoint (the first state with no ample thread) *before*
  /// being interned, and ample states never enter the visited set at all.
  /// The checks run at every skipped state and \p Hop sees every step
  /// walked (each counts as a transition), so verdicts, violation sets,
  /// and deadlock counts are those of the uncompressed reduced graph. The
  /// walk terminates because ample steps strictly increase the stepped
  /// thread's pc, and the stored set — the initial chain endpoint plus
  /// endpoints reached from fully expanded states — is a pure function of
  /// the program, so every engine and search order agrees on state
  /// counts. A violation of the walked state itself under StopOnViolation
  /// ends the walk there.
  template <typename Hook, typename Report, typename HopFn>
  ProductState fastForward(ProductState &&S, ExpandScratch &X, Hook &&H,
                           Report &&R, HopFn &&Hop) const {
    if (!Cfg.FastForward)
      return std::move(S);
    StateScratch &Ch = X.Chain;
    while (porActive(S.M)) {
      inspectAll(S.Threads, Ch);
      int Ample = Por.selectAmple(Ch.Steps, S.Threads);
      if (Ample < 0 ||
          !checkState(S, Ch, Ample, X.Por, H, R,
                      [](unsigned, bool) { return true; }))
        break;
      ++X.Por.Ample;
      ++X.Por.Chained;
      obs::traceInstant(obs::TraceInstant::FastForward, X.Por.Chained);
      ThreadStep &Step = Ch.Steps[Ample];
      ThreadId T = static_cast<ThreadId>(Ample);
      if (Step.K == ThreadStep::Kind::Local) {
        ExpandStep E{.Thread = T,
                     .FromPc = S.Threads[T].Pc,
                     .Collapsed = Ch.Collapsed[T]};
        S.Threads[T] = std::move(Step.Next);
        Hop(E);
        continue;
      }
      // Never-blocking ample access: porEligible guarantees exactly one
      // successor; keep S as-is (its expansion handles the ample set)
      // should a subsystem ever break that contract.
      unsigned Count = 0;
      Label L{};
      std::optional<MemState> Next;
      Mem.enumerate(S.M, T, Step.A, [&](const Label &L2, MemState &&M2) {
        if (++Count != 1)
          return;
        L = L2;
        Next = std::move(M2);
      });
      if (Count != 1)
        break;
      S.Threads[T] = applyAccess(P, T, S.Threads[T], Step.A, L);
      S.M = std::move(*Next);
      Hop(ExpandStep{.Thread = T, .A = &Step.A, .L = L});
    }
    return std::move(S);
  }

  /// Expands \p S: selects an ample thread under POR, checks every thread
  /// and generates its successors in thread order (only the ample
  /// thread's at an ample state), runs the race scan, then the memory's
  /// internal steps when no ample thread was selected. Each successor
  /// goes to \p Emit(ProductState &&, const ExpandStep &) unreduced; the
  /// caller fast-forwards and interns it. Returns true when \p S is a
  /// deadlock state: some thread has not halted, yet nothing can step.
  template <typename Hook, typename Report, typename AnyViolationFn,
            typename EmitFn>
  bool expand(const ProductState &S, ExpandScratch &X, Hook &&H,
              Report &&R, AnyViolationFn &&AnyViolation,
              EmitFn &&Emit) const {
    StateScratch &Top = X.Top;
    inspectAll(S.Threads, Top);
    // Selection is a pure function of the state, so every search order
    // and engine reduces to the same state graph. In non-trace runs
    // fastForward keeps ample states out of the visited set entirely, so
    // this fires only in trace mode (and on the contract-breach fallback).
    int Ample = -1;
    if (porActive(S.M)) {
      Ample = Por.selectAmple(Top.Steps, S.Threads);
      ++(Ample >= 0 ? X.Por.Ample : X.Por.Full);
    }
    bool AnyStep = false;
    bool AllHalted = true;
    auto Successors = [&](unsigned T, bool Steps) {
      const ThreadStep &Step = Top.Steps[T];
      if (Step.K != ThreadStep::Kind::Halted)
        AllHalted = false;
      if (Steps)
        AnyStep |= emitThread(S, T, Step, Top.Collapsed[T], Emit);
      // Chain walks and state hooks can record violations mid-expansion.
      return !(Cfg.StopOnViolation && AnyViolation());
    };
    if (!checkState(S, Top, Ample, X.Por, H, R, Successors))
      return false;
    // porEligible asserts no internal step is enabled at ample states.
    if (Ample < 0)
      Mem.enumerateInternal(S.M, [&](ThreadId T, MemState &&M2) {
        AnyStep = true;
        ProductState Next;
        Next.Threads = S.Threads;
        Next.M = std::move(M2);
        Emit(std::move(Next), ExpandStep{.Thread = T, .Internal = true});
      });
    return !AnyStep && !AllHalted;
  }

private:
  bool porActive(const MemState &M) const {
    return Cfg.UsePor && Por.usable() && memPorEligible(Mem, M);
  }

  /// Fills \p X.Steps with every thread's step. Under CollapseLocalSteps
  /// a Local step's Next is the end of its deterministic ε-chain, bounded
  /// in case of a local-only loop such as `l: goto l`.
  void inspectAll(const std::vector<ThreadState> &Threads,
                  StateScratch &X) const {
    X.Steps.clear();
    X.Collapsed.clear();
    for (unsigned T = 0; T != P.numThreads(); ++T) {
      ThreadId Tid = static_cast<ThreadId>(T);
      ThreadStep Step = inspectThread(P, Tid, Threads[T]);
      uint16_t Collapsed = 1;
      if (Step.K == ThreadStep::Kind::Local && Cfg.CollapseLocalSteps) {
        while (Collapsed < 4096) {
          ThreadStep More = inspectThread(P, Tid, Step.Next);
          if (More.K != ThreadStep::Kind::Local)
            break;
          Step.Next = std::move(More.Next);
          ++Collapsed;
        }
      }
      X.Steps.push_back(std::move(Step));
      X.Collapsed.push_back(Collapsed);
    }
  }

  /// The check battery over a state whose steps are in \p X: for each
  /// thread in order its checks, then \p Then(T, Steps), where Steps says
  /// whether T's successors belong to the (reduced) expansion; then the
  /// race scan. Returns false when the state's expansion must stop: an own
  /// violation under StopOnViolation, or Then returned false.
  template <typename Hook, typename Report, typename ThenFn>
  bool checkState(const ProductState &S, StateScratch &X, int Ample,
                  PorCounters &Counters, Hook &&H, Report &&R,
                  ThenFn &&Then) const {
    X.Na.clear();
    for (unsigned T = 0; T != P.numThreads(); ++T) {
      const ThreadStep &Step = X.Steps[T];
      if (checkThread(S.Threads, S.M, T, Step, X.Na, H, R) &&
          Cfg.StopOnViolation)
        return false;
      bool Steps = Step.K == ThreadStep::Kind::Local ||
                   Step.K == ThreadStep::Kind::Access;
      if (Steps && Ample >= 0 && static_cast<int>(T) != Ample) {
        ++Counters.Saved; // Checked above; the ample step covers this state.
        Steps = false;
      }
      if (!Then(T, Steps))
        return false;
    }
    return !(raceScan(X.Na, R) && Cfg.StopOnViolation);
  }

  /// Emits thread \p T's successors. Returns true when it has any.
  template <typename EmitFn>
  bool emitThread(const ProductState &S, unsigned T, const ThreadStep &Step,
                  uint16_t Collapsed, EmitFn &&Emit) const {
    ThreadId Tid = static_cast<ThreadId>(T);
    if (Step.K == ThreadStep::Kind::Local) {
      ProductState Next;
      Next.Threads = S.Threads;
      Next.M = S.M;
      Next.Threads[T] = Step.Next;
      Emit(std::move(Next), ExpandStep{.Thread = Tid,
                                       .FromPc = S.Threads[T].Pc,
                                       .Collapsed = Collapsed});
      return true;
    }
    bool Any = false;
    Mem.enumerate(S.M, Tid, Step.A, [&](const Label &L, MemState &&M2) {
      Any = true;
      ProductState Next;
      Next.Threads = S.Threads;
      Next.Threads[T] = applyAccess(P, Tid, S.Threads[T], Step.A, L);
      Next.M = std::move(M2);
      Emit(std::move(Next), ExpandStep{.Thread = Tid, .A = &Step.A, .L = L});
    });
    return Any;
  }

  const Program &P;
  const MemSys &Mem;
  Config Cfg;
  PorAnalysis Por; ///< Ample-set analysis (explore/Por.h).
};

} // namespace rocker

#endif // ROCKER_EXPLORE_EXPAND_H
