//===- tests/ParallelExplorerTest.cpp - Parallel-engine equivalence ---------===//
//
// The parallel engine must be a drop-in replacement for the sequential
// one: on every program in programs/*.rkr, for the SC, SCM, and TSO
// subsystems, it must report the same verdict and — because an exact
// dedup set is order-independent — the same state, transition, and
// deadlock counts at 2 and 4 worker threads. Programs whose state space
// exceeds the per-test budget are skipped (both engines would truncate at
// engine-specific frontiers); the corpus must still yield a healthy
// number of compared programs.
//
// Also covered: byte-identical violation reports via the sequential
// replay, the Bounded verdict on state and wall-clock budgets, and the
// sharded-set / work-deque primitives.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "litmus/Corpus.h"
#include "memory/SCMemory.h"
#include "parexplore/ParallelExplorer.h"
#include "rocker/RobustnessChecker.h"
#include "support/ShardedSet.h"
#include "tso/TSORobustness.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace rocker;

namespace {

// Budget sized so most corpus programs complete while the test stays
// fast; budget-exceeders are skipped (see file comment).
constexpr uint64_t Budget = 60'000;

std::vector<std::pair<std::string, Program>> loadCorpusDir() {
  std::vector<std::pair<std::string, Program>> Out;
  for (const auto &Entry :
       std::filesystem::directory_iterator(ROCKER_PROGRAMS_DIR)) {
    if (Entry.path().extension() != ".rkr")
      continue;
    std::ifstream In(Entry.path());
    std::stringstream Buf;
    Buf << In.rdbuf();
    ParseResult R = parseProgram(Buf.str());
    if (!R.ok())
      ADD_FAILURE() << "cannot parse " << Entry.path();
    else
      Out.emplace_back(Entry.path().filename().string(),
                       std::move(*R.Prog));
  }
  std::sort(Out.begin(), Out.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  EXPECT_GT(Out.size(), 40u) << "corpus went missing?";
  return Out;
}

RockerOptions fullExploreOpts(unsigned Threads) {
  RockerOptions O;
  O.StopOnViolation = false; // Full exploration: counts are comparable.
  O.RecordTrace = false;
  O.MaxStates = Budget;
  O.Threads = Threads;
  return O;
}

/// Compares sequential vs parallel full-exploration reports; returns
/// false when the comparison was skipped because of truncation.
bool expectEquivalent(const char *What, const std::string &Name,
                      unsigned Threads, const RockerReport &Seq,
                      const RockerReport &Par) {
  if (!Seq.Complete || !Par.Complete)
    return false;
  EXPECT_EQ(Seq.Robust, Par.Robust)
      << What << " verdict diverges on " << Name << " at " << Threads
      << " threads";
  EXPECT_EQ(Seq.Stats.NumStates, Par.Stats.NumStates)
      << What << " state count diverges on " << Name << " at " << Threads
      << " threads";
  EXPECT_EQ(Seq.Stats.NumTransitions, Par.Stats.NumTransitions)
      << What << " transition count diverges on " << Name << " at "
      << Threads << " threads";
  EXPECT_EQ(Seq.Stats.NumDeadlockStates, Par.Stats.NumDeadlockStates)
      << What << " deadlock count diverges on " << Name << " at "
      << Threads << " threads";
  return true;
}

} // namespace

TEST(ParallelExplorer, ScmEquivalentOnFullCorpus) {
  unsigned Compared = 0;
  for (const auto &[Name, P] : loadCorpusDir()) {
    RockerReport Seq = checkRobustness(P, fullExploreOpts(1));
    for (unsigned Threads : {2u, 4u}) {
      RockerReport Par = checkRobustness(P, fullExploreOpts(Threads));
      if (expectEquivalent("SCM", Name, Threads, Seq, Par))
        ++Compared;
    }
  }
  EXPECT_GT(Compared, 50u);
}

TEST(ParallelExplorer, ScEquivalentOnFullCorpus) {
  unsigned Compared = 0;
  for (const auto &[Name, P] : loadCorpusDir()) {
    RockerReport Seq = exploreSC(P, fullExploreOpts(1));
    for (unsigned Threads : {2u, 4u}) {
      RockerReport Par = exploreSC(P, fullExploreOpts(Threads));
      if (expectEquivalent("SC", Name, Threads, Seq, Par))
        ++Compared;
    }
  }
  EXPECT_GT(Compared, 60u);
}

TEST(ParallelExplorer, ScTraceMatchesSequentialOnAssertingProgram) {
  // dcl-broken fails its assertion under plain SC. The sequential engine
  // must return the same first-violation trace as the 4-thread engine
  // (whose replay runs the sequential engine), not just the same text.
  Program P = findCorpusEntry("dcl-broken").parse();
  RockerOptions O;
  RockerReport Seq = exploreSC(P, O);
  O.Threads = 4;
  RockerReport Par = exploreSC(P, O);
  ASSERT_FALSE(Seq.Robust);
  ASSERT_FALSE(Par.Robust);
  ASSERT_FALSE(Seq.FirstViolationTrace.empty());
  EXPECT_EQ(Seq.FirstViolationText, Par.FirstViolationText);
  ASSERT_EQ(Seq.FirstViolationTrace.size(), Par.FirstViolationTrace.size());
  for (size_t I = 0; I != Seq.FirstViolationTrace.size(); ++I) {
    const TraceStep &A = Seq.FirstViolationTrace[I];
    const TraceStep &B = Par.FirstViolationTrace[I];
    EXPECT_EQ(A.Thread, B.Thread) << "step " << I;
    EXPECT_EQ(A.Internal, B.Internal) << "step " << I;
    EXPECT_EQ(A.IsAccess, B.IsAccess) << "step " << I;
    EXPECT_EQ(A.Text, B.Text) << "step " << I;
  }
}

TEST(ParallelExplorer, TsoEquivalentOnFullCorpus) {
  unsigned Compared = 0;
  for (const auto &[Name, P] : loadCorpusDir()) {
    TSOOptions TO;
    TO.MaxStates = Budget;
    TSORobustnessResult Seq = checkTSORobustness(P, TO);
    if (!Seq.Complete)
      continue;
    for (unsigned Threads : {2u, 4u}) {
      TSOOptions PO = TO;
      PO.Threads = Threads;
      TSORobustnessResult Par = checkTSORobustness(P, PO);
      ASSERT_TRUE(Par.Complete) << Name;
      EXPECT_EQ(Seq.Robust, Par.Robust)
          << "TSO verdict diverges on " << Name << " at " << Threads
          << " threads";
      EXPECT_EQ(Seq.Stats.NumStates, Par.Stats.NumStates)
          << "TSO state count diverges on " << Name << " at " << Threads
          << " threads";
      ++Compared;
    }
  }
  EXPECT_GT(Compared, 50u);
}

TEST(ParallelExplorer, ViolationReportsAreByteIdenticalToSequential) {
  // The deterministic replay must make traces and Violation contents
  // byte-identical to the sequential engine, for both robustness
  // violations and assertion failures.
  for (const char *Name : {"SB", "MP", "peterson-ra-dmitriy"}) {
    Program P = findCorpusEntry(Name).parse();
    RockerOptions SO;
    RockerReport Seq = checkRobustness(P, SO);
    for (unsigned Threads : {2u, 4u}) {
      RockerOptions PO;
      PO.Threads = Threads;
      RockerReport Par = checkRobustness(P, PO);
      EXPECT_EQ(Seq.Robust, Par.Robust) << Name;
      ASSERT_EQ(Seq.Violations.size(), Par.Violations.size()) << Name;
      for (size_t I = 0; I != Seq.Violations.size(); ++I) {
        const Violation &A = Seq.Violations[I];
        const Violation &B = Par.Violations[I];
        EXPECT_EQ(A.K, B.K);
        EXPECT_EQ(A.StateId, B.StateId);
        EXPECT_EQ(A.Thread, B.Thread);
        EXPECT_EQ(A.Pc, B.Pc);
        EXPECT_EQ(A.Loc, B.Loc);
        EXPECT_EQ(A.Witness, B.Witness);
        EXPECT_EQ(A.Detail, B.Detail);
      }
      EXPECT_EQ(Seq.FirstViolationText, Par.FirstViolationText) << Name;
      ASSERT_EQ(Seq.FirstViolationTrace.size(),
                Par.FirstViolationTrace.size())
          << Name;
      for (size_t I = 0; I != Seq.FirstViolationTrace.size(); ++I) {
        EXPECT_EQ(Seq.FirstViolationTrace[I].Thread,
                  Par.FirstViolationTrace[I].Thread);
        EXPECT_EQ(Seq.FirstViolationTrace[I].Text,
                  Par.FirstViolationTrace[I].Text);
      }
    }
  }
}

TEST(ParallelExplorer, BoundedVerdictOnStateBudget) {
  Program P = findCorpusEntry("lamport2-ra").parse();
  SCMemory Mem(P);
  ParExploreOptions PO;
  PO.Threads = 2;
  PO.MaxStates = 100;
  ParallelExplorer<SCMemory> Ex(P, Mem, PO);
  ParExploreResult R = Ex.run();
  EXPECT_EQ(R.Verdict, ParVerdict::Bounded);
  EXPECT_TRUE(R.Stats.Truncated);
  EXPECT_FALSE(R.TimedOut);
  // Overshoot is bounded: each in-flight worker finishes one expansion.
  EXPECT_GE(R.Stats.NumStates, 100u);
}

TEST(ParallelExplorer, BoundedVerdictOnWallClock) {
  Program P = findCorpusEntry("lamport2-ra").parse();
  SCMemory Mem(P);
  ParExploreOptions PO;
  PO.Threads = 2;
  PO.MaxSeconds = 1e-9; // Expires immediately after the first batch.
  ParallelExplorer<SCMemory> Ex(P, Mem, PO);
  ParExploreResult R = Ex.run();
  if (R.Verdict == ParVerdict::Bounded) {
    EXPECT_TRUE(R.TimedOut);
    EXPECT_TRUE(R.Stats.Truncated);
  } else {
    // A tiny state space can still finish before the deadline check.
    EXPECT_EQ(R.Verdict, ParVerdict::NoViolation);
  }
}

TEST(ParallelExplorer, StatsArePopulated) {
  Program P = findCorpusEntry("peterson-ra").parse();
  RockerOptions O = fullExploreOpts(4);
  RockerReport R = checkRobustness(P, O);
  ASSERT_TRUE(R.Complete);
  EXPECT_GT(R.Stats.DedupHits, 0u);
  EXPECT_GT(R.Stats.PeakFrontier, 0u);
  EXPECT_EQ(R.Stats.PerThreadStatesPerSec.size(), 4u);
  // Sequential engine fills the same fields (satellite: engine-reported
  // stats are the single source of truth).
  RockerReport S = checkRobustness(P, fullExploreOpts(1));
  EXPECT_GT(S.Stats.DedupHits, 0u);
  EXPECT_GT(S.Stats.PeakFrontier, 0u);
  ASSERT_EQ(S.Stats.PerThreadStatesPerSec.size(), 1u);
  EXPECT_EQ(S.Stats.DedupHits, R.Stats.DedupHits);
}

// Both engines populate ExploreStats::Workers with the same layout, so
// report consumers never special-case engine type: the sequential engine
// contributes one entry, the parallel engine one per worker, and the
// per-worker totals sum to the whole-run counters — equal across engines
// on full explorations (exact dedup is order-independent).
TEST(ParallelExplorer, WorkerCountersAgreeAcrossEngines) {
  Program P = findCorpusEntry("peterson-ra").parse();
  RockerReport Seq = checkRobustness(P, fullExploreOpts(1));
  ASSERT_TRUE(Seq.Complete);
  ASSERT_EQ(Seq.Stats.Workers.size(), 1u);
  EXPECT_EQ(Seq.Stats.Workers[0].Expanded, Seq.Stats.NumStates);
  EXPECT_EQ(Seq.Stats.Workers[0].Transitions, Seq.Stats.NumTransitions);
  EXPECT_EQ(Seq.Stats.Workers[0].DedupHits, Seq.Stats.DedupHits);
  EXPECT_EQ(Seq.Stats.Workers[0].Steals, 0u);
  EXPECT_EQ(Seq.Stats.PerThreadStatesPerSec[0],
            Seq.Stats.Workers[0].statesPerSec());

  for (unsigned Threads : {2u, 4u}) {
    RockerReport Par = checkRobustness(P, fullExploreOpts(Threads));
    ASSERT_TRUE(Par.Complete);
    ASSERT_EQ(Par.Stats.Workers.size(), Threads);
    ExploreStats::WorkerCounters Sum;
    for (const ExploreStats::WorkerCounters &W : Par.Stats.Workers) {
      Sum.Expanded += W.Expanded;
      Sum.Transitions += W.Transitions;
      Sum.DedupHits += W.DedupHits;
      Sum.Deadlocks += W.Deadlocks;
    }
    EXPECT_EQ(Sum.Expanded, Seq.Stats.NumStates)
        << "at " << Threads << " threads";
    EXPECT_EQ(Sum.Transitions, Seq.Stats.NumTransitions)
        << "at " << Threads << " threads";
    EXPECT_EQ(Sum.DedupHits, Seq.Stats.DedupHits)
        << "at " << Threads << " threads";
    EXPECT_EQ(Sum.Deadlocks, Seq.Stats.NumDeadlockStates)
        << "at " << Threads << " threads";
  }
}

TEST(ShardedStateSet, InsertContainsDrain) {
  ShardedStateSet Set;
  EXPECT_TRUE(Set.insert("alpha"));
  EXPECT_FALSE(Set.insert("alpha"));
  EXPECT_TRUE(Set.insert("beta"));
  EXPECT_TRUE(Set.contains("alpha"));
  EXPECT_FALSE(Set.contains("gamma"));
  EXPECT_EQ(Set.size(), 2u);
  std::unordered_set<std::string, StateKeyHash> Out;
  Set.drainInto(Out);
  EXPECT_EQ(Out.size(), 2u);
  EXPECT_EQ(Set.size(), 0u);
  EXPECT_TRUE(Out.count("alpha"));
  EXPECT_TRUE(Out.count("beta"));
}

TEST(WorkDeque, OwnerLifoThiefFifo) {
  WorkDeque<int> D;
  D.push(1);
  D.push(2);
  D.push(3);
  EXPECT_EQ(D.size(), 3u);
  EXPECT_EQ(*D.steal(), 1); // Oldest from the front.
  EXPECT_EQ(*D.pop(), 3);   // Newest from the back.
  EXPECT_EQ(*D.pop(), 2);
  EXPECT_FALSE(D.pop().has_value());
  EXPECT_FALSE(D.steal().has_value());
}
