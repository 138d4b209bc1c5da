//===- explore/Por.h - Monitor-aware ample-set POR -------------*- C++ -*-===//
///
/// \file
/// Ample-set partial-order reduction for the product explorers, sound in
/// the presence of the SCM/TSO monitors. Spin owes its tractability on
/// the Figure 7 corpus largely to POR; this is the native engines'
/// equivalent. At each expansion the engine asks for a *single-thread
/// ample set*: one thread whose pending step provably commutes with every
/// step the other threads can take from here, now or later. If such a
/// thread exists, only it is expanded (the per-state checks — assertions,
/// the Theorem 5.3 monitor conditions, the Definition 6.1 race check —
/// still run for every thread); otherwise the state is fully expanded.
///
/// **Independence relation.** A pending step of thread T is ample-eligible
/// when it is
///
///  * a *register-only (ε) step* whose successor strictly increases T's
///    pc — such steps touch no shared state at all; or
///  * a *never-blocking access* (write, read, FADD, XCHG, CAS — not
///    wait/BCAS, which can block and would fake deadlocks, violating C0)
///    to a location x that is *conflict-free*: no other thread can ever
///    write x from its current pc onward, and, when T's access can write
///    x, no other thread can access x at all from its current pc onward.
///    The per-pc "future access" masks are a static reverse-reachability
///    fixpoint over each thread's CFG, so a location becomes
///    conflict-free as soon as the other threads have moved past their
///    last conflicting instruction.
///
/// **Monitor commutativity.** Location-disjointness is exactly the SCM
/// monitor's commutativity condition: every SCMState update for a step on
/// x by T writes only T-indexed rows, x-indexed columns, or x-indexed
/// entries (monitor/SCMState.cpp), and the one shared-column interleaving
/// — a write adding the same value set to V[·][x] and W[·][x] that later
/// meets (&=) them — commutes because (a|v)&(b|v) = (a&b)|v. Hence
/// deferring steps of other threads on locations y ≠ x neither changes
/// the checkAccess inputs of T's step on x (they are T-row/x-column
/// indexed, including the Crit/CV critical-value sets) nor its state
/// update, and vice versa. Reads that could flip classifyRead's outcome
/// are already excluded: the read value of a conflict-free location
/// cannot change until T's access fires.
///
/// **Cycle proviso (C3).** Every ample step strictly increases the
/// stepped thread's pc (accesses always do; ε steps are required to, so
/// `l: goto l` falls back to full expansion). The sum of pcs therefore
/// strictly increases along ample transitions, so no cycle in the reduced
/// graph consists of ample transitions only — every cycle contains a
/// fully-expanded state. The condition is a pure function of the state
/// (no visited-set or stack dependence), which makes ample selection
/// deterministic and search-order independent: the sequential BFS and
/// the parallel engine's work-stealing order reduce to the *same* state
/// graph.
///
/// **Subsystem opt-in.** Reduction additionally requires the memory
/// subsystem to declare `porEligible(State)`. A subsystem may only return
/// true for states where (a) enumerate() is deterministic (exactly one
/// successor) for the never-blocking access kinds, (b) no internal steps
/// are enabled, and (c) steps on distinct locations commute as above.
/// Subsystems without the hook are never reduced (the RA/SRA/graph
/// subsystems stay exhaustive).
///
/// What is preserved: robustness/assert/race verdicts, the *set* of
/// violations under StopOnViolation=false, deadlock-state counts, and
/// counterexample replay (the reduced graph is the same for the replay
/// run). What is not preserved: the reachable state/transition counts —
/// that is the point — so projection-collecting runs
/// (CollectProgramStates) always expand fully.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_EXPLORE_POR_H
#define ROCKER_EXPLORE_POR_H

#include "lang/Program.h"
#include "lang/Step.h"

#include <cstdint>
#include <cstdlib>
#include <vector>

namespace rocker {

/// Process-wide default for ExploreOptions/ParExploreOptions::UsePor: on,
/// unless the ROCKER_NO_POR environment variable is set (used by CI to
/// run the whole test suite with full expansion).
inline bool defaultUsePor() {
  static const bool Off = std::getenv("ROCKER_NO_POR") != nullptr;
  return !Off;
}

/// True when \p MemSys opts into partial-order reduction by providing the
/// porEligible hook (see the file comment for the contract it asserts).
template <typename MemSys>
concept HasPorSupport =
    requires(const MemSys &M, const typename MemSys::State &S) {
      { M.porEligible(S) } -> std::convertible_to<bool>;
    };

/// Whether \p M permits ample-set reduction at state \p S. Subsystems
/// without the hook are conservatively never reduced.
template <typename MemSys>
bool memPorEligible(const MemSys &M, const typename MemSys::State &S) {
  if constexpr (HasPorSupport<MemSys>)
    return M.porEligible(S);
  else
    return false;
}

/// The static conflict analysis plus the per-state ample-thread
/// selection shared by both engines (the sharing is what guarantees
/// seq/par agree on the reduced graph).
class PorAnalysis {
public:
  PorAnalysis() = default;

  explicit PorAnalysis(const Program &P) {
    if (P.numLocs() > 64) // Masks are uint64_t over locations.
      return;
    unsigned N = P.numThreads();
    ReadAt.resize(N);
    WriteAt.resize(N);
    for (unsigned T = 0; T != N; ++T)
      buildMasks(P.Threads[T].Insts, ReadAt[T], WriteAt[T]);
    Usable = true;
  }

  /// False when the program is outside the analysis' domain (> 64
  /// locations); the engines then never reduce.
  bool usable() const { return Usable; }

  /// Deterministic single-thread ample-set selection: \p Steps holds the
  /// engine's step for every thread of the state whose thread states are
  /// \p Threads. A Local step's Next must be the successor the engine
  /// stores — the end of the ε-chain under CollapseLocalSteps (see
  /// explore/Expand.h) — because its pc is the one the cycle proviso must
  /// see increase. Returns the lowest-indexed ample-eligible thread, or -1
  /// when none exists (full expansion). Pure in the state, so every engine
  /// and search order reduces identically.
  int selectAmple(const std::vector<ThreadStep> &Steps,
                  const std::vector<ThreadState> &Threads) const {
    for (unsigned T = 0; T != Steps.size(); ++T) {
      const ThreadStep &St = Steps[T];
      if (St.K == ThreadStep::Kind::Local) {
        if (St.Next.Pc > Threads[T].Pc) // Cycle proviso: pc must increase.
          return static_cast<int>(T);
        continue;
      }
      if (St.K == ThreadStep::Kind::Access &&
          accessEligible(T, St.A, Threads))
        return static_cast<int>(T);
    }
    return -1;
  }

private:
  static uint64_t bit(LocId L) { return static_cast<uint64_t>(1) << L; }

  /// Is \p T's pending access \p A conflict-free against every other
  /// thread's future accesses (from their current pcs)?
  bool accessEligible(unsigned T, const MemAccess &A,
                      const std::vector<ThreadState> &Threads) const {
    bool WriteCapable = true; // Conservative for any future access kind.
    switch (A.K) {
    case MemAccess::Kind::Read:
      WriteCapable = false;
      break;
    case MemAccess::Kind::Write:
    case MemAccess::Kind::Fadd:
    case MemAccess::Kind::Xchg:
    case MemAccess::Kind::Cas: // Conservatively a write even when failing.
      WriteCapable = true;
      break;
    case MemAccess::Kind::Wait: // Can block: reducing to a blocked step
    case MemAccess::Kind::Bcas: // would fake deadlocks (C0).
      return false;
    }
    uint64_t B = bit(A.Loc);
    for (unsigned U = 0; U != Threads.size(); ++U) {
      if (U == T)
        continue;
      uint32_t Pc = Threads[U].Pc;
      if (WriteAt[U][Pc] & B)
        return false;
      if (WriteCapable && (ReadAt[U][Pc] & B))
        return false;
    }
    return true;
  }

  /// Reverse-reachability fixpoint over one thread's CFG: entry pc holds
  /// the locations the thread may still read/write from pc onward
  /// (including pc itself). The entry past the last instruction (halted)
  /// is empty.
  static void buildMasks(const std::vector<Inst> &Insts,
                         std::vector<uint64_t> &ReadAt,
                         std::vector<uint64_t> &WriteAt) {
    size_t N = Insts.size();
    std::vector<uint64_t> OwnR(N, 0), OwnW(N, 0);
    std::vector<uint32_t> Target(N, UINT32_MAX); // Branch targets only.
    for (size_t Pc = 0; Pc != N; ++Pc) {
      std::visit(
          [&](const auto &I) {
            using V = std::decay_t<decltype(I)>;
            if constexpr (std::is_same_v<V, StoreInst>) {
              OwnW[Pc] |= bit(I.Loc);
            } else if constexpr (std::is_same_v<V, LoadInst> ||
                                 std::is_same_v<V, WaitInst>) {
              OwnR[Pc] |= bit(I.Loc);
            } else if constexpr (std::is_same_v<V, FaddInst> ||
                                 std::is_same_v<V, XchgInst> ||
                                 std::is_same_v<V, CasInst> ||
                                 std::is_same_v<V, BcasInst>) {
              OwnR[Pc] |= bit(I.Loc);
              OwnW[Pc] |= bit(I.Loc);
            } else if constexpr (std::is_same_v<V, IfGotoInst>) {
              Target[Pc] = I.Target;
            }
          },
          Insts[Pc]);
    }
    ReadAt.assign(N + 1, 0);
    WriteAt.assign(N + 1, 0);
    bool Changed = true;
    while (Changed) { // Loops converge in O(nesting) sweeps.
      Changed = false;
      for (size_t Pc = N; Pc-- > 0;) {
        uint64_t R = OwnR[Pc] | ReadAt[Pc + 1];
        uint64_t W = OwnW[Pc] | WriteAt[Pc + 1];
        if (Target[Pc] != UINT32_MAX) {
          R |= ReadAt[Target[Pc]];
          W |= WriteAt[Target[Pc]];
        }
        if (R != ReadAt[Pc] || W != WriteAt[Pc]) {
          ReadAt[Pc] = R;
          WriteAt[Pc] = W;
          Changed = true;
        }
      }
    }
  }

  /// Per thread, per pc: locations possibly read / written from pc on.
  std::vector<std::vector<uint64_t>> ReadAt;
  std::vector<std::vector<uint64_t>> WriteAt;
  bool Usable = false;
};

} // namespace rocker

#endif // ROCKER_EXPLORE_POR_H
