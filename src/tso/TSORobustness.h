//===- tso/TSORobustness.h - TSO robustness baseline -----------*- C++ -*-===//
///
/// \file
/// The Figure 7 baseline ("Trencher" column): robustness against x86-TSO.
/// We decide *state* robustness against the bounded-buffer TSO machine by
/// comparing the program states reachable under TSO with those reachable
/// under SC (Definition 2.6 instantiated with the TSO subsystem).
///
/// "Trencher mode" additionally lowers the blocking primitives wait/BCAS
/// into spin loops before checking, mirroring the fact that Trencher's
/// input language has no blocking instructions; this reproduces the
/// paper's ⋆-marked entries (programs Trencher reports non-robust even
/// though the weak behavior is a benign prolonged spin).
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_TSO_TSOROBUSTNESS_H
#define ROCKER_TSO_TSOROBUSTNESS_H

#include "explore/Explorer.h"
#include "lang/Program.h"
#include "support/LockFreeVisited.h"

namespace rocker {

/// Result of a TSO robustness check.
struct TSORobustnessResult {
  bool Robust = false;
  bool Complete = true;
  /// True if a TSO store buffer hit its bound (result then
  /// under-approximates TSO).
  bool BufferSaturated = false;
  ExploreStats Stats;
};

/// Options for the TSO baseline.
struct TSOOptions {
  unsigned BufferBound = 4;
  /// Lower wait/BCAS to spin loops first (Trencher-style input language).
  bool TrencherMode = false;
  uint64_t MaxStates = 50'000'000;
  /// Worker threads for the two explorations; >1 selects the parallel
  /// engine (parexplore/ParallelExplorer.h), same verdicts and counts.
  unsigned Threads = 1;
  /// Initial lock-free root-table log2 (see ParExploreOptions).
  unsigned LockFreeLog2 = 0;
  /// Ample-set partial-order reduction (explore/Por.h). Plumbed through
  /// to both explorations for uniformity, but state robustness compares
  /// the *full* reachable program-state projections, so the engines'
  /// CollectProgramStates gate keeps the reduction off here regardless —
  /// the TSO machine's POR support is exercised by assert-checking TSO
  /// explorations instead (see tests/PorTest.cpp).
  bool UsePor = defaultUsePor();
  /// Wall-clock deadline shared by the two explorations (0 = none). The
  /// TSO machine has no state codec, so checkpoints never apply here;
  /// the deadline and SIGINT/SIGTERM draining still do — a TSO baseline
  /// cannot wedge a budgeted robustness run past its deadline.
  double DeadlineSeconds = 0;
};

/// Rewrites every wait(x == e) into `L: r := x; if r != e goto L` and
/// every BCAS(x, a => b) into `L: r := CAS(x, a => b); if r != a goto L`
/// with a fresh register r per blocking instruction.
Program lowerBlockingInstructions(const Program &P);

/// Decides state robustness of \p P against bounded-buffer TSO.
TSORobustnessResult checkTSORobustness(const Program &P,
                                       const TSOOptions &Opts = {});

} // namespace rocker

#endif // ROCKER_TSO_TSOROBUSTNESS_H
