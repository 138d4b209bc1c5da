//===- tests/ResilienceTest.cpp - Budgets, checkpoints, fault recovery ------===//
//
// End-to-end contract of the resilience layer:
//
//  * Interrupting a run at an arbitrary point and resuming from its
//    checkpoint reproduces the exact verdict, state count, violation set,
//    and first-violation text of an uninterrupted run — sequential and
//    4-thread, including a fork+SIGKILL loop that kills the process at
//    escalating wall-clock points.
//  * A memory budget one rung too small walks the degradation ladder
//    (exact -> bitstate) with recorded provenance instead of
//    aborting; a clean sweep demotes to BoundedRobust while NotRobust
//    verdicts survive degradation.
//  * Stale, corrupt, and cross-engine checkpoints are rejected with a
//    ResumeError instead of silently mixing incompatible state, while a
//    committed sequential checkpoint from an older build still resumes
//    and the engine still writes its bytes.
//  * A SIGINT-style stop request drains at a safe point and leaves a
//    final checkpoint behind that a later run can resume from.
//
// Scenarios that need forced failures (deterministic kills, mid-write
// crashes, governor faults, worker stalls, clock skew) only compile when
// the build defines ROCKER_FAULT_INJECT; the CI resilience job builds
// with the option ON.
//
//===----------------------------------------------------------------------===//

#include "explore/KeyFrontier.h"
#include "litmus/Corpus.h"
#include "memory/SCMemory.h"
#include "monitor/SCMState.h"
#include "obs/Trace.h"
#include "parexplore/ParallelExplorer.h"
#include "resilience/Checkpoint.h"
#include "resilience/Resilience.h"
#include "rocker/RobustnessChecker.h"
#include "support/FaultInject.h"
#include "support/Hashing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>

using namespace rocker;
using resilience::StorageRung;

namespace {

namespace fs = std::filesystem;

std::string tmpPath(const std::string &Stem) {
  return (fs::temp_directory_path() /
          (Stem + "." + std::to_string(::getpid()) + ".rkcp"))
      .string();
}

/// Removes the file (and any checkpoint tmp sibling) on construction and
/// destruction, so tests never see a previous run's leftovers.
struct ScopedFile {
  std::string Path;
  explicit ScopedFile(std::string P) : Path(std::move(P)) { remove(); }
  ~ScopedFile() { remove(); }
  void remove() const {
    std::error_code Ec;
    fs::remove(Path, Ec);
    fs::remove(Path + ".tmp", Ec);
  }
};

RockerOptions baseOpts(unsigned Threads) {
  RockerOptions O;
  O.Threads = Threads;
  return O;
}

/// Container header bytes before the payload: magic, version, config
/// hash, length, payload hash (the last at offset 24).
constexpr size_t CkptHeaderBytes = 32;

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In), {});
}

/// Writes a patched checkpoint file (header included) to \p Path with its
/// payload hash recomputed, so only the payload decoder can object.
void writeRehashed(const std::string &Path, std::string Data) {
  uint64_t Hash = hashBytes(
      reinterpret_cast<const uint8_t *>(Data.data()) + CkptHeaderBytes,
      Data.size() - CkptHeaderBytes);
  std::memcpy(&Data[24], &Hash, sizeof(Hash));
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Data;
}

/// The resumed run must be indistinguishable from the uninterrupted one:
/// same verdict, same exact full-sweep counters, same violations.
void expectSameOutcome(const RockerReport &Ref, const RockerReport &Got,
                       const std::string &What) {
  EXPECT_EQ(Ref.Robust, Got.Robust) << What;
  EXPECT_EQ(Ref.Complete, Got.Complete) << What;
  EXPECT_EQ(Ref.Stats.NumStates, Got.Stats.NumStates) << What;
  EXPECT_EQ(Ref.Stats.NumTransitions, Got.Stats.NumTransitions) << What;
  EXPECT_EQ(Ref.Stats.NumDeadlockStates, Got.Stats.NumDeadlockStates)
      << What;
  ASSERT_EQ(Ref.Violations.size(), Got.Violations.size()) << What;
  EXPECT_EQ(Ref.FirstViolationText, Got.FirstViolationText) << What;
  ASSERT_EQ(Ref.FirstViolationTrace.size(), Got.FirstViolationTrace.size())
      << What;
  for (size_t I = 0; I != Ref.FirstViolationTrace.size(); ++I) {
    EXPECT_EQ(Ref.FirstViolationTrace[I].Thread,
              Got.FirstViolationTrace[I].Thread)
        << What;
    EXPECT_EQ(Ref.FirstViolationTrace[I].Text,
              Got.FirstViolationTrace[I].Text)
        << What;
  }
}

/// Truncates a run at \p Cut states with a checkpoint, then resumes to
/// completion and compares against the uninterrupted \p Ref.
void truncateThenResume(const Program &P, const RockerReport &Ref,
                        unsigned Threads, uint64_t Cut,
                        bool StopOnViolation) {
  ScopedFile Ckpt(tmpPath("trunc-" + std::to_string(Threads) + "-" +
                          std::to_string(Cut)));
  std::string What = "threads=" + std::to_string(Threads) +
                     " cut=" + std::to_string(Cut);

  RockerOptions Mid = baseOpts(Threads);
  Mid.StopOnViolation = StopOnViolation;
  Mid.MaxStates = Cut;
  Mid.Resilience.CheckpointPath = Ckpt.Path;
  RockerReport M = checkRobustness(P, Mid);
  if (M.Complete) // The cut exceeded the state space: nothing to resume.
    return;
  EXPECT_TRUE(M.Stats.Truncated) << What;
  if (M.Robust) {
    EXPECT_EQ(M.verdictClass(), VerdictClass::BoundedRobust) << What;
  }
  ASSERT_TRUE(fs::exists(Ckpt.Path))
      << What << ": truncated run left no final checkpoint";

  RockerOptions Fin = baseOpts(Threads);
  Fin.StopOnViolation = StopOnViolation;
  Fin.Resilience.ResumePath = Ckpt.Path;
  RockerReport R = checkRobustness(P, Fin);
  ASSERT_TRUE(R.Stats.Resilience.ResumeError.empty())
      << What << ": " << R.Stats.Resilience.ResumeError;
  EXPECT_TRUE(R.Stats.Resilience.Resumed) << What;
  EXPECT_GT(R.Stats.Resilience.RestoredStates, 0u) << What;
  expectSameOutcome(Ref, R, What);
}

/// Body of a forked child: run the checker (optionally resuming), write
/// "robust numstates numviolations" to \p ResultPath, and _exit without
/// ever returning through gtest. \p FiSpec configures fault injection for
/// this process only (a no-op string in non-fi builds).
[[noreturn]] void childCheckRun(const Program &P, const std::string &Ckpt,
                                const std::string &ResultPath, bool Resume,
                                unsigned Threads, const char *FiSpec) {
  fi::configure(FiSpec);
  resilience::clearStopRequest();
  RockerOptions O = baseOpts(Threads);
  O.Resilience.CheckpointPath = Ckpt;
  O.Resilience.CheckpointEveryExpansions = 20;
  if (Resume)
    O.Resilience.ResumePath = Ckpt;
  RockerReport R = checkRobustness(P, O);
  if (!R.Stats.Resilience.ResumeError.empty())
    ::_exit(90);
  if (!R.Complete)
    ::_exit(91);
  std::ofstream Out(ResultPath);
  Out << (R.Robust ? 1 : 0) << " " << R.Stats.NumStates << " "
      << R.Violations.size() << "\n";
  Out.close();
  ::_exit(Out.good() ? 0 : 92);
}

void expectChildResultMatches(const std::string &ResultPath,
                              const RockerReport &Ref) {
  std::ifstream In(ResultPath);
  int Robust = -1;
  uint64_t NumStates = 0, NumViolations = 0;
  In >> Robust >> NumStates >> NumViolations;
  ASSERT_TRUE(In.good() || In.eof()) << "child result file unreadable";
  EXPECT_EQ(Robust == 1, Ref.Robust);
  EXPECT_EQ(NumStates, Ref.Stats.NumStates);
  EXPECT_EQ(NumViolations, Ref.Violations.size());
}

/// Repeatedly forks a checkpointing child and SIGKILLs it after an
/// escalating delay; whatever checkpoint the kill left behind seeds the
/// next round. The loop ends at the first clean exit (eventually the
/// delay outlives the run), and the final result must match \p Ref.
void killResumeLoop(const Program &P, const RockerReport &Ref,
                    unsigned Threads) {
  ScopedFile Ckpt(tmpPath("kill-" + std::to_string(Threads)));
  ScopedFile Result(tmpPath("kill-result-" + std::to_string(Threads)));
  bool Clean = false;
  for (int Round = 0; Round != 60 && !Clean; ++Round) {
    pid_t Pid = ::fork();
    ASSERT_NE(Pid, -1);
    if (Pid == 0)
      childCheckRun(P, Ckpt.Path, Result.Path, fs::exists(Ckpt.Path),
                    Threads, "");
    ::usleep(200u * (Round + 1) * (Round + 1));
    ::kill(Pid, SIGKILL);
    int St = 0;
    ASSERT_EQ(::waitpid(Pid, &St, 0), Pid);
    if (WIFEXITED(St)) {
      ASSERT_EQ(WEXITSTATUS(St), 0) << "child failed in round " << Round;
      Clean = true;
    }
  }
  if (!Clean) { // Deterministic finish: one last round, no kill.
    pid_t Pid = ::fork();
    ASSERT_NE(Pid, -1);
    if (Pid == 0)
      childCheckRun(P, Ckpt.Path, Result.Path, fs::exists(Ckpt.Path),
                    Threads, "");
    int St = 0;
    ASSERT_EQ(::waitpid(Pid, &St, 0), Pid);
    ASSERT_TRUE(WIFEXITED(St) && WEXITSTATUS(St) == 0);
  }
  expectChildResultMatches(Result.Path, Ref);
}

} // namespace

//===----------------------------------------------------------------------===//
// Checkpoint/resume equivalence
//===----------------------------------------------------------------------===//

TEST(Resilience, TruncateResumeMatchesUninterruptedSequential) {
  Program P = findCorpusEntry("peterson-ra").parse();
  RockerReport Ref = checkRobustness(P, baseOpts(1));
  ASSERT_TRUE(Ref.Complete);
  ASSERT_TRUE(Ref.Robust);
  for (uint64_t Cut : {50u, 200u, 500u})
    truncateThenResume(P, Ref, 1, Cut, /*StopOnViolation=*/true);
}

TEST(Resilience, TruncateResumeMatchesUninterruptedParallel4) {
  Program P = findCorpusEntry("peterson-ra").parse();
  RockerReport Ref = checkRobustness(P, baseOpts(4));
  ASSERT_TRUE(Ref.Complete);
  ASSERT_TRUE(Ref.Robust);
  for (uint64_t Cut : {50u, 200u})
    truncateThenResume(P, Ref, 4, Cut, /*StopOnViolation=*/true);
}

// One worker makes the parallel engine's cut deterministic: a budget stop
// that lands mid-expansion must still finish that state's successors,
// because the state has already left its deque and the truncation
// checkpoint carries only deque contents. Sweeping the cut over the whole
// run hits stops in every thread's position of the expansion loop.
TEST(Resilience, TruncateResumeMatchesUninterruptedParallel1) {
  for (const char *Name : {"peterson-ra", "dekker-sc", "lamport2-ra"}) {
    Program P = findCorpusEntry(Name).parse();
    SCMemory Mem(P);
    for (bool Trace : {true, false}) {
      ParExploreOptions Base;
      Base.Threads = 1;
      Base.RecordTrace = Trace;
      ParExploreResult Ref = ParallelExplorer<SCMemory>(P, Mem, Base).run();
      ASSERT_FALSE(Ref.Stats.Truncated) << Name;
      uint64_t N = Ref.Stats.NumStates;
      for (uint64_t Cut = 3; Cut < N; Cut += std::max<uint64_t>(1, N / 12)) {
        std::string What = std::string(Name) + " trace=" +
                           std::to_string(Trace) +
                           " cut=" + std::to_string(Cut);
        ScopedFile Ckpt(tmpPath("trunc-par1-" + std::to_string(Cut)));
        ParExploreOptions Mid = Base;
        Mid.MaxStates = Cut;
        Mid.Resilience.CheckpointPath = Ckpt.Path;
        ParExploreResult M = ParallelExplorer<SCMemory>(P, Mem, Mid).run();
        ASSERT_TRUE(M.Stats.Truncated) << What;
        ParExploreOptions Fin = Base;
        Fin.Resilience.ResumePath = Ckpt.Path;
        ParExploreResult R = ParallelExplorer<SCMemory>(P, Mem, Fin).run();
        ASSERT_TRUE(R.Stats.Resilience.ResumeError.empty())
            << What << ": " << R.Stats.Resilience.ResumeError;
        EXPECT_EQ(R.Stats.NumStates, N) << What;
        EXPECT_EQ(R.Stats.NumTransitions, Ref.Stats.NumTransitions) << What;
        EXPECT_EQ(R.Stats.NumDeadlockStates, Ref.Stats.NumDeadlockStates)
            << What;
      }
    }
  }
}

TEST(Resilience, ResumePreservesViolationsAcrossTheCut) {
  // Full sweep of a non-robust program: violations recorded before the
  // cut travel through the checkpoint, ones after the cut are found by
  // the resumed run, and the merged set equals the uninterrupted one.
  Program P = findCorpusEntry("dekker-sc").parse();
  RockerOptions O = baseOpts(1);
  O.StopOnViolation = false;
  RockerReport Ref = checkRobustness(P, O);
  ASSERT_TRUE(Ref.Complete);
  ASSERT_FALSE(Ref.Robust);
  ASSERT_FALSE(Ref.Violations.empty());
  ASSERT_GT(Ref.Stats.NumStates, 40u);
  for (uint64_t Cut :
       {Ref.Stats.NumStates / 4, Ref.Stats.NumStates / 2})
    truncateThenResume(P, Ref, 1, Cut, /*StopOnViolation=*/false);
}

TEST(Resilience, PeriodicCheckpointIsResumable) {
  // A run that completes leaves its last periodic checkpoint behind;
  // resuming from that mid-run snapshot reaches the same result.
  Program P = findCorpusEntry("peterson-ra").parse();
  RockerReport Ref = checkRobustness(P, baseOpts(1));
  ASSERT_TRUE(Ref.Complete);

  ScopedFile Ckpt(tmpPath("periodic"));
  RockerOptions O = baseOpts(1);
  O.Resilience.CheckpointPath = Ckpt.Path;
  O.Resilience.CheckpointEveryExpansions = 100;
  RockerReport R = checkRobustness(P, O);
  EXPECT_TRUE(R.Complete);
  EXPECT_GE(R.Stats.Resilience.CheckpointsWritten, 4u);
  EXPECT_GT(R.Stats.Resilience.CheckpointBytes, 0u);
  expectSameOutcome(Ref, R, "checkpointing run");
  ASSERT_TRUE(fs::exists(Ckpt.Path));

  RockerOptions Res = baseOpts(1);
  Res.Resilience.ResumePath = Ckpt.Path;
  RockerReport R2 = checkRobustness(P, Res);
  ASSERT_TRUE(R2.Stats.Resilience.ResumeError.empty())
      << R2.Stats.Resilience.ResumeError;
  EXPECT_TRUE(R2.Stats.Resilience.Resumed);
  expectSameOutcome(Ref, R2, "resume from periodic checkpoint");
}

TEST(Resilience, KillResumeLoopSequential) {
  Program P = findCorpusEntry("peterson-ra").parse();
  RockerReport Ref = checkRobustness(P, baseOpts(1));
  ASSERT_TRUE(Ref.Complete);
  killResumeLoop(P, Ref, 1);
}

TEST(Resilience, KillResumeLoopParallel4) {
  Program P = findCorpusEntry("peterson-ra").parse();
  RockerReport Ref = checkRobustness(P, baseOpts(4));
  ASSERT_TRUE(Ref.Complete);
  killResumeLoop(P, Ref, 4);
}

//===----------------------------------------------------------------------===//
// Degradation ladder
//===----------------------------------------------------------------------===//

TEST(Resilience, MemBudgetWalksLadderSequential) {
  Program P = findCorpusEntry("peterson-ra").parse();
  RockerOptions O = baseOpts(1);
  O.Resilience.MemBudgetBytes = 8 * 1024;
  RockerReport R = checkRobustness(P, O);
  const resilience::ResilienceReport &RR = R.Stats.Resilience;
  ASSERT_GE(RR.Downgrades.size(), 1u);
  for (const resilience::DowngradeEvent &E : RR.Downgrades) {
    EXPECT_LT(static_cast<int>(E.From), static_cast<int>(E.To));
    EXPECT_GT(E.UsedBytes, O.Resilience.MemBudgetBytes);
  }
  EXPECT_EQ(RR.FinalRung, StorageRung::Bitstate);
  EXPECT_TRUE(R.Approximate);
  // No violations were found, but bitstate coverage can never prove
  // Robust: the clean sweep demotes to BoundedRobust.
  EXPECT_TRUE(R.Violations.empty());
  EXPECT_EQ(R.verdictClass(), VerdictClass::BoundedRobust);
}

TEST(Resilience, NotRobustSurvivesDegradation) {
  Program P = findCorpusEntry("lamport2-sc").parse();
  RockerOptions O = baseOpts(1);
  O.StopOnViolation = false;
  O.MaxStates = 20'000;
  O.Resilience.MemBudgetBytes = 8 * 1024;
  RockerReport R = checkRobustness(P, O);
  // Violations are concrete counterexamples, so degraded storage cannot
  // erase a NotRobust verdict.
  EXPECT_FALSE(R.Robust);
  EXPECT_EQ(R.verdictClass(), VerdictClass::NotRobust);
  EXPECT_FALSE(R.Violations.empty());
  EXPECT_FALSE(R.Stats.Resilience.Downgrades.empty());
}

TEST(Resilience, MemBudgetDowngradesParallel) {
  // The parallel engine has no stored payloads to shed, so its ladder
  // goes exact -> bitstate directly. lamport2-ra is big enough that the
  // governor (a 10ms management tick) sees the pressure mid-run.
  Program P = findCorpusEntry("lamport2-ra").parse();
  RockerOptions O = baseOpts(4);
  O.MaxStates = 30'000;
  O.Resilience.MemBudgetBytes = 64 * 1024;
  RockerReport R = checkRobustness(P, O);
  const resilience::ResilienceReport &RR = R.Stats.Resilience;
  ASSERT_GE(RR.Downgrades.size(), 1u);
  EXPECT_EQ(RR.Downgrades[0].From, StorageRung::Exact);
  EXPECT_EQ(RR.Downgrades[0].To, StorageRung::Bitstate);
  EXPECT_EQ(RR.FinalRung, StorageRung::Bitstate);
  EXPECT_TRUE(R.Approximate);
  if (R.Robust) {
    EXPECT_EQ(R.verdictClass(), VerdictClass::BoundedRobust);
  }
}

TEST(Resilience, PayloadChargeCoversMonitorState) {
  // The governor charges every frontier entry at its size. A ProductState
  // (the parallel engine's deques) counts at its resident size: on
  // lamport2-3-ra the monitor buffer holds all 177 bit sets (1,416 B) and
  // M padded to a word. A key entry (the sequential engine's frontier)
  // counts at its key plus the entry header.
  Program P = findCorpusEntry("lamport2-3-ra").parse();
  SCMonitor Mem(P, /*Abstract=*/true);
  ASSERT_EQ(SCMState::numMasks(P.numThreads(), P.numLocs(), true), 177u);
  using Core = ExpansionCore<SCMonitor>;
  Core C(P, Mem, Core::Config{});
  Core::ProductState Init;
  for (const SequentialProgram &S : P.Threads)
    Init.Threads.push_back(ThreadState::initial(S));
  Init.M = Mem.initial();
  size_t Buffer = (177u + (P.numLocs() + 7) / 8) * 8;
  EXPECT_EQ(Init.M.heapBytes(), Buffer);
  EXPECT_GE(C.payloadBytes(Init), sizeof(Core::ProductState) + Buffer);
  std::string Key = productStateKey(Mem, Init.Threads, Init.M);
  size_t ThreadBytes = 0; // One pc byte plus the registers, per thread.
  for (const SequentialProgram &S : P.Threads)
    ThreadBytes += 1 + S.NumRegs;
  EXPECT_EQ(Key.size(), ThreadBytes + Mem.stateKeyBytes());
  EXPECT_EQ(KeyFrontier::entryBytes(Key.size()),
            Key.size() + KeyFrontier::EntryOverhead);
  EXPECT_LT(KeyFrontier::entryBytes(Key.size()), Buffer / 8);
}

//===----------------------------------------------------------------------===//
// Resume rejection: stale, corrupt, cross-engine
//===----------------------------------------------------------------------===//

TEST(Resilience, StaleAndCrossEngineResumesAreRejected) {
  ScopedFile Ckpt(tmpPath("stale"));
  Program P = findCorpusEntry("peterson-ra").parse();
  RockerOptions Mid = baseOpts(1);
  Mid.MaxStates = 100;
  Mid.Resilience.CheckpointPath = Ckpt.Path;
  RockerReport M = checkRobustness(P, Mid);
  ASSERT_FALSE(M.Complete);
  ASSERT_TRUE(fs::exists(Ckpt.Path));

  auto ExpectRejected = [&](const Program &RP, const RockerOptions &RO,
                            const std::string &What) {
    RockerReport R = checkRobustness(RP, RO);
    EXPECT_FALSE(R.Stats.Resilience.ResumeError.empty()) << What;
    EXPECT_FALSE(R.Complete) << What;
    EXPECT_EQ(R.Stats.NumStates, 0u) << What;
    EXPECT_TRUE(R.Stats.Resilience.degraded()) << What;
  };

  // A different program is the classic stale checkpoint.
  Program Other = findCorpusEntry("SB").parse();
  RockerOptions RO = baseOpts(1);
  RO.Resilience.ResumePath = Ckpt.Path;
  ExpectRejected(Other, RO, "different program");

  // Same program, semantically different search options.
  RockerOptions Flipped = baseOpts(1);
  Flipped.UsePor = !Flipped.UsePor;
  Flipped.Resilience.ResumePath = Ckpt.Path;
  ExpectRejected(P, Flipped, "flipped POR");

  // A sequential checkpoint cannot seed the parallel engine (and vice
  // versa): the engines' config hashes are deliberately distinct.
  RockerOptions Par = baseOpts(4);
  Par.Resilience.ResumePath = Ckpt.Path;
  ExpectRejected(P, Par, "cross-engine");
}

TEST(Resilience, OldVersionCheckpointsAreRejected) {
  // Version 1 stored rendered step text in the sequential trace edges;
  // version 2 stored frontier states in a codec of their own, where
  // version 3 stores their keys. An old file must fail the container's
  // version check before any payload byte is decoded.
  Program P = findCorpusEntry("peterson-ra").parse();
  for (auto [Threads, Old] : {std::pair{1u, '\1'}, std::pair{1u, '\2'},
                              std::pair{4u, '\1'}, std::pair{4u, '\2'}}) {
    std::string What = "threads=" + std::to_string(Threads) +
                       " version=" + std::to_string(Old);
    ScopedFile Ckpt(tmpPath("old-" + std::to_string(Threads) + "-" +
                            std::to_string(Old)));
    RockerOptions Mid = baseOpts(Threads);
    Mid.MaxStates = 100;
    Mid.Resilience.CheckpointPath = Ckpt.Path;
    ASSERT_FALSE(checkRobustness(P, Mid).Complete) << What;
    ASSERT_TRUE(fs::exists(Ckpt.Path)) << What;
    {
      // The u32 version follows the u32 magic, little-endian.
      std::fstream Fix(Ckpt.Path,
                       std::ios::in | std::ios::out | std::ios::binary);
      Fix.seekp(4);
      const char V[4] = {Old, 0, 0, 0};
      Fix.write(V, sizeof(V));
    }
    RockerOptions RO = baseOpts(Threads);
    RO.Resilience.ResumePath = Ckpt.Path;
    RockerReport R = checkRobustness(P, RO);
    EXPECT_EQ(R.Stats.Resilience.ResumeError,
              "unsupported checkpoint format version " +
                  std::to_string(Old))
        << What;
    EXPECT_FALSE(R.Stats.Resilience.Resumed) << What;
    EXPECT_FALSE(R.Complete) << What;
    EXPECT_EQ(R.Stats.NumStates, 0u) << What;
  }
}

TEST(Resilience, OutOfRangeTraceEdgeIsRejected) {
  // Trace edges are rendered from (thread, pc) on demand, so a restored
  // edge naming an instruction the program does not have must be
  // rejected at resume time rather than indexed when a trace prints.
  // The payload ends with the last state's edge; with pc and collapse
  // count below 128 its last nine bytes are thread, flags, the five
  // label bytes, pc, collapse count.
  Program P = findCorpusEntry("dekker-sc").parse();
  ScopedFile Ckpt(tmpPath("bad-edge"));
  RockerOptions Mid = baseOpts(1);
  Mid.StopOnViolation = false;
  Mid.MaxStates = 40;
  Mid.Resilience.CheckpointPath = Ckpt.Path;
  ASSERT_FALSE(checkRobustness(P, Mid).Complete);

  std::string Data = readFile(Ckpt.Path);
  ASSERT_GT(Data.size(), CkptHeaderBytes + 9);
  Data[Data.size() - 8] = 0; // Flags: a local step, with no label...
  std::fill_n(Data.end() - 7, 4, '\0');
  Data[Data.size() - 2] = 127; // ...at a pc past every thread's end.
  writeRehashed(Ckpt.Path, Data);

  RockerOptions RO = baseOpts(1);
  RO.StopOnViolation = false;
  RO.Resilience.ResumePath = Ckpt.Path;
  RockerReport R = checkRobustness(P, RO);
  EXPECT_EQ(R.Stats.Resilience.ResumeError, "corrupt checkpoint: trace edge");
  EXPECT_FALSE(R.Complete);
}

TEST(Resilience, TraceEdgeThePackingCannotHoldIsRejected) {
  // A trace edge keeps one payload word: the pc of a local step or the
  // label of an access (ParentEdge). An edge carrying both would lose
  // one in memory and come back different in the next checkpoint, so
  // resume rejects it. Layout of the last edge as in
  // OutOfRangeTraceEdgeIsRejected.
  Program P = findCorpusEntry("dekker-sc").parse();
  ScopedFile Ckpt(tmpPath("unpackable-edge"));
  RockerOptions Mid = baseOpts(1);
  Mid.StopOnViolation = false;
  Mid.MaxStates = 40;
  Mid.Resilience.CheckpointPath = Ckpt.Path;
  ASSERT_FALSE(checkRobustness(P, Mid).Complete);
  const std::string Good = readFile(Ckpt.Path);
  ASSERT_GT(Good.size(), CkptHeaderBytes + 9);

  auto Edge = [&](char Flags, char Loc, char Pc) {
    std::string Bad = Good;
    Bad[Bad.size() - 8] = Flags;
    std::fill_n(Bad.end() - 7, 5, '\0');
    Bad[Bad.size() - 6] = Loc;
    Bad[Bad.size() - 2] = Pc;
    Bad[Bad.size() - 1] = 0;
    return Bad;
  };
  for (auto [What, Bad] :
       {std::pair{"local step with a label", Edge(0, 1, 0)},
        std::pair{"access with a pc", Edge(2, 0, 1)}}) {
    writeRehashed(Ckpt.Path, Bad);
    RockerOptions RO = baseOpts(1);
    RO.StopOnViolation = false;
    RO.Resilience.ResumePath = Ckpt.Path;
    RockerReport R = checkRobustness(P, RO);
    EXPECT_EQ(R.Stats.Resilience.ResumeError,
              "corrupt checkpoint: trace edge")
        << What;
    EXPECT_FALSE(R.Complete) << What;
  }

  // The same edges without the extra field resume.
  for (auto [What, Fine] : {std::pair{"local step", Edge(0, 0, 0)},
                            std::pair{"access", Edge(2, 1, 0)}}) {
    writeRehashed(Ckpt.Path, Fine);
    RockerOptions RO = baseOpts(1);
    RO.StopOnViolation = false;
    RO.Resilience.ResumePath = Ckpt.Path;
    RockerReport R = checkRobustness(P, RO);
    EXPECT_EQ(R.Stats.Resilience.ResumeError, "") << What;
    EXPECT_TRUE(R.Stats.Resilience.Resumed) << What;
  }
}

TEST(Resilience, OutOfRangeBitstateWidthIsRejected) {
  // The sequential payload keeps the bitstate width in one byte and the
  // array's word count in another. A width outside [6, 36] would index
  // or shift past the array, and so would an in-range width that
  // disagrees with the word count.
  Program P = findCorpusEntry("peterson-ra").parse();
  ScopedFile Ckpt(tmpPath("bad-bitk"));
  RockerOptions Opts = baseOpts(1);
  Opts.BitstateLog2 = 16;
  RockerOptions Mid = Opts;
  Mid.MaxStates = 40;
  Mid.Resilience.CheckpointPath = Ckpt.Path;
  ASSERT_FALSE(checkRobustness(P, Mid).Complete);
  const std::string Good = readFile(Ckpt.Path);
  // Engine, rung, order and trace bytes; twelve u64 counters; an empty
  // downgrade list; three checkpoint totals; then the width.
  const size_t BitKAt = CkptHeaderBytes + 4 + 12 * 8 + 1 + 3 * 8;
  ASSERT_GT(Good.size(), BitKAt);
  ASSERT_EQ(Good[BitKAt], 16) << "the payload layout moved the width";
  for (auto [K, Error] :
       {std::pair{3, "corrupt checkpoint: bitstate header"},
        std::pair{37, "corrupt checkpoint: bitstate header"},
        std::pair{17, "corrupt checkpoint: bitstate size"}}) {
    std::string Bad = Good;
    Bad[BitKAt] = static_cast<char>(K);
    writeRehashed(Ckpt.Path, Bad);
    RockerOptions RO = Opts;
    RO.Resilience.ResumePath = Ckpt.Path;
    RockerReport R = checkRobustness(P, RO);
    EXPECT_EQ(R.Stats.Resilience.ResumeError, Error) << "K=" << K;
    EXPECT_FALSE(R.Complete) << "K=" << K;
  }
}

TEST(Resilience, OutOfRangeBitstateOptionIsRefused) {
  // A library caller can set a bitstate width the CLI, manifests and
  // checkpoint headers would reject. The engine refuses it before sizing
  // the bit array: K < 6 would make no array word, K >= 64 would shift
  // past 64 bits. Only these two widths are tried, so a build without
  // the check crashes instead of allocating gigabytes.
  Program P = findCorpusEntry("SB").parse();
  SCMemory Mem(P);
  for (unsigned K : {3u, 64u}) {
    const std::string Error =
        "bitstate width " + std::to_string(K) + " outside [6, 36]";
    RockerOptions RO = baseOpts(1);
    RO.BitstateLog2 = K;
    RockerReport R = checkRobustness(P, RO);
    EXPECT_EQ(R.Stats.Resilience.ResumeError, Error);
    EXPECT_FALSE(R.Complete) << "K=" << K;
    EXPECT_EQ(R.Stats.NumStates, 0u) << "K=" << K;
    EXPECT_EQ(R.verdictClass(), VerdictClass::BoundedRobust) << "K=" << K;

    ExploreOptions EO;
    EO.BitstateLog2 = K;
    ExploreResult ER = ProductExplorer<SCMemory>(P, Mem, EO).run();
    EXPECT_EQ(ER.Stats.Resilience.ResumeError, Error);
    EXPECT_TRUE(ER.Stats.Truncated) << "K=" << K;
    EXPECT_EQ(ER.Stats.NumStates, 0u) << "K=" << K;
  }
}

namespace {

/// The options tests/fixtures/lamport2-sc-mid.rkcp was written under,
/// pinned against the ROCKER_NO_POR test pass.
RockerOptions fixtureOpts() {
  RockerOptions O = baseOpts(1);
  O.UsePor = true;
  O.StopOnViolation = false;
  O.RecordTrace = true;
  return O;
}

/// Zeroes the two wall-clock fields of a sequential checkpoint file (run
/// seconds after the engine/rung/order/parents bytes and three counts,
/// checkpoint seconds after eight more counts, no downgrades and two
/// checkpoint counters) and the payload hash that covers them.
std::string maskTimings(std::string Data) {
  for (size_t At : {size_t{24}, CkptHeaderBytes + 28, CkptHeaderBytes + 117})
    std::memset(&Data[At], 0, 8);
  return Data;
}

} // namespace

TEST(Resilience, CommittedSequentialCheckpointResumes) {
  // tests/fixtures/lamport2-sc-mid.rkcp is a format-3 checkpoint of
  // lamport2-sc cut at 250 of its 488 states (compressed visited set,
  // parent links, forced checkpoints every 100 expansions), written by
  // the engine before its stores moved to PageArray. Resuming it must
  // give the uninterrupted run's verdict, counts and trace text, and the
  // same cut taken now must write the same bytes but for its timings.
  const std::string Fixture =
      std::string(ROCKER_FIXTURES_DIR) + "/lamport2-sc-mid.rkcp";
  Program P = findCorpusEntry("lamport2-sc").parse();
  RockerReport Ref = checkRobustness(P, fixtureOpts());
  ASSERT_TRUE(Ref.Complete);
  ASSERT_FALSE(Ref.Robust);
  EXPECT_EQ(Ref.Stats.NumStates, 488u);
  EXPECT_EQ(Ref.Stats.NumTransitions, 558u);
  EXPECT_EQ(Ref.Violations.size(), 28u);

  RockerOptions RO = fixtureOpts();
  RO.Resilience.ResumePath = Fixture;
  RockerReport R = checkRobustness(P, RO);
  ASSERT_TRUE(R.Stats.Resilience.ResumeError.empty())
      << R.Stats.Resilience.ResumeError;
  EXPECT_TRUE(R.Stats.Resilience.Resumed);
  EXPECT_EQ(R.Stats.Resilience.RestoredStates, 250u);
  EXPECT_EQ(R.Stats.DedupHits, Ref.Stats.DedupHits);
  expectSameOutcome(Ref, R, "committed checkpoint");

  ScopedFile Ckpt(tmpPath("fixture-rewrite"));
  RockerOptions Mid = fixtureOpts();
  Mid.MaxStates = 250;
  Mid.Resilience.CheckpointPath = Ckpt.Path;
  Mid.Resilience.CheckpointEveryExpansions = 100;
  ASSERT_FALSE(checkRobustness(P, Mid).Complete);
  const std::string Old = readFile(Fixture), New = readFile(Ckpt.Path);
  ASSERT_GT(Old.size(), CkptHeaderBytes + 125);
  EXPECT_EQ(Old.size(), New.size());
  EXPECT_TRUE(maskTimings(Old) == maskTimings(New))
      << "the sequential checkpoint bytes changed";
}

TEST(Resilience, StateCountBeyondPayloadIsRejected) {
  // A run with traces stores one trace edge per state, so the state
  // count bounds the edge table it restores: a count the payload cannot
  // hold must be refused before anything is sized by it. The frontier
  // holds the states [Cursor, N), so Cursor moves with N: the frontier
  // still has its shape and only the count is wrong.
  Program P = findCorpusEntry("dekker-sc").parse();
  ScopedFile Ckpt(tmpPath("bad-count"));
  RockerOptions Opts = baseOpts(1);
  Opts.StopOnViolation = false;
  RockerOptions Mid = Opts;
  Mid.MaxStates = 40;
  Mid.Resilience.CheckpointPath = Ckpt.Path;
  ASSERT_FALSE(checkRobustness(P, Mid).Complete);
  // The state count and the cursor follow the engine, rung, order and
  // trace bytes.
  std::string Data = readFile(Ckpt.Path);
  ASSERT_GT(Data.size(), CkptHeaderBytes + 20);
  uint64_t OldN = 0, OldCursor = 0;
  std::memcpy(&OldN, &Data[CkptHeaderBytes + 4], sizeof(OldN));
  std::memcpy(&OldCursor, &Data[CkptHeaderBytes + 12], sizeof(OldCursor));
  ASSERT_LT(OldCursor, OldN) << "the cut should leave a frontier";
  const uint64_t N = uint64_t{1} << 60;
  const uint64_t Cursor = N - (OldN - OldCursor);
  std::memcpy(&Data[CkptHeaderBytes + 4], &N, sizeof(N));
  std::memcpy(&Data[CkptHeaderBytes + 12], &Cursor, sizeof(Cursor));
  writeRehashed(Ckpt.Path, Data);
  RockerOptions RO = Opts;
  RO.Resilience.ResumePath = Ckpt.Path;
  RockerReport R = checkRobustness(P, RO);
  EXPECT_EQ(R.Stats.Resilience.ResumeError, "corrupt checkpoint: state count");
  EXPECT_FALSE(R.Complete);
}

TEST(Resilience, RetiredSequentialFormatsAreRejected) {
  // Depth-first checkpoints (order byte 1) and raw-key visited sets
  // (visited-set tag 1) are formats the sequential engine no longer
  // writes. A checkpoint carrying either must be refused with its own
  // error, not decoded as the current format.
  Program P = findCorpusEntry("peterson-ra").parse();
  ScopedFile Ckpt(tmpPath("retired-seq"));
  RockerOptions Mid = baseOpts(1);
  Mid.MaxStates = 40;
  Mid.Resilience.CheckpointPath = Ckpt.Path;
  ASSERT_FALSE(checkRobustness(P, Mid).Complete);
  const std::string Good = readFile(Ckpt.Path);
  // Engine, rung, order and trace bytes; twelve u64 counters; an empty
  // downgrade list; three checkpoint totals; the bitstate width; an
  // empty violation list; then the visited-set tag.
  const size_t OrderAt = CkptHeaderBytes + 2;
  const size_t TagAt = CkptHeaderBytes + 4 + 12 * 8 + 1 + 3 * 8 + 1 + 1;
  ASSERT_GT(Good.size(), TagAt);
  ASSERT_EQ(Good[OrderAt], 0) << "the payload layout moved the order";
  ASSERT_EQ(Good[TagAt], 0) << "the payload layout moved the tag";
  for (auto [At, Error] : {std::pair{OrderAt, retiredSearchOrderError()},
                           std::pair{TagAt, retiredRawVisitedError()}}) {
    std::string Old = Good;
    Old[At] = 1;
    writeRehashed(Ckpt.Path, Old);
    RockerOptions RO = baseOpts(1);
    RO.Resilience.ResumePath = Ckpt.Path;
    RockerReport R = checkRobustness(P, RO);
    EXPECT_EQ(R.Stats.Resilience.ResumeError, Error);
    EXPECT_FALSE(R.Stats.Resilience.Resumed);
    EXPECT_FALSE(R.Complete);
    EXPECT_EQ(R.Stats.NumStates, 0u);
  }
}

TEST(Resilience, CorruptCheckpointIsRejected) {
  ScopedFile Ckpt(tmpPath("corrupt"));
  {
    std::ofstream Out(Ckpt.Path, std::ios::binary);
    Out << "RKCPgarbage that is definitely not a valid container";
  }
  Program P = findCorpusEntry("peterson-ra").parse();
  RockerOptions RO = baseOpts(1);
  RO.Resilience.ResumePath = Ckpt.Path;
  RockerReport R = checkRobustness(P, RO);
  EXPECT_FALSE(R.Stats.Resilience.ResumeError.empty());
  EXPECT_FALSE(R.Complete);
}

TEST(Resilience, ContainerRoundTripAndValidation) {
  ScopedFile F(tmpPath("container"));
  std::string Payload = "the payload bytes \0 with a nul";
  std::string Err;
  ASSERT_TRUE(ckpt::writeCheckpointFile(F.Path, 0xABCD, Payload, &Err))
      << Err;
  EXPECT_FALSE(fs::exists(F.Path + ".tmp")); // Renamed, not left behind.

  std::optional<uint64_t> Peeked = ckpt::peekConfigHash(F.Path, &Err);
  ASSERT_TRUE(Peeked.has_value()) << Err;
  EXPECT_EQ(*Peeked, 0xABCDu);

  std::optional<std::string> Back =
      ckpt::loadCheckpointFile(F.Path, 0xABCD, &Err);
  ASSERT_TRUE(Back.has_value()) << Err;
  EXPECT_EQ(*Back, Payload);

  // Wrong expected hash: stale.
  EXPECT_FALSE(ckpt::loadCheckpointFile(F.Path, 0x1234, &Err).has_value());
  EXPECT_NE(Err.find("stale"), std::string::npos) << Err;

  // Flip a payload byte: checksum failure.
  {
    std::fstream Fix(F.Path,
                     std::ios::in | std::ios::out | std::ios::binary);
    Fix.seekp(-1, std::ios::end);
    Fix.put('!');
  }
  EXPECT_FALSE(ckpt::loadCheckpointFile(F.Path, 0xABCD, &Err).has_value());
}

//===----------------------------------------------------------------------===//
// Stop requests and verdict classes
//===----------------------------------------------------------------------===//

TEST(Resilience, StopRequestDrainsAndLeavesFinalCheckpoint) {
  Program P = findCorpusEntry("peterson-ra").parse();
  RockerReport Ref = checkRobustness(P, baseOpts(1));

  ScopedFile Ckpt(tmpPath("stop"));
  RockerOptions O = baseOpts(1);
  O.Resilience.CheckpointPath = Ckpt.Path;
  O.Resilience.CheckpointEveryExpansions = 50;
  resilience::requestStop();
  RockerReport R = checkRobustness(P, O);
  resilience::clearStopRequest();
  EXPECT_TRUE(R.Stats.Resilience.Interrupted);
  EXPECT_FALSE(R.Complete);
  if (R.Robust) {
    EXPECT_EQ(R.verdictClass(), VerdictClass::BoundedRobust);
  }
  ASSERT_TRUE(fs::exists(Ckpt.Path));

  RockerOptions Res = baseOpts(1);
  Res.Resilience.ResumePath = Ckpt.Path;
  RockerReport R2 = checkRobustness(P, Res);
  ASSERT_TRUE(R2.Stats.Resilience.ResumeError.empty())
      << R2.Stats.Resilience.ResumeError;
  expectSameOutcome(Ref, R2, "resume after stop request");
}

TEST(Resilience, VerdictClassContract) {
  Program Robust = findCorpusEntry("peterson-ra").parse();
  EXPECT_EQ(checkRobustness(Robust, baseOpts(1)).verdictClass(),
            VerdictClass::Robust);

  Program NotRobust = findCorpusEntry("SB").parse();
  EXPECT_EQ(checkRobustness(NotRobust, baseOpts(1)).verdictClass(),
            VerdictClass::NotRobust);

  RockerOptions Cut = baseOpts(1);
  Cut.MaxStates = 50;
  RockerReport Truncated = checkRobustness(Robust, Cut);
  ASSERT_FALSE(Truncated.Complete);
  EXPECT_EQ(Truncated.verdictClass(), VerdictClass::BoundedRobust);

  EXPECT_STREQ(verdictClassName(VerdictClass::Robust), "robust");
  EXPECT_STREQ(verdictClassName(VerdictClass::NotRobust), "not-robust");
  EXPECT_STREQ(verdictClassName(VerdictClass::BoundedRobust),
               "bounded-robust");
}

TEST(Resilience, AtomicWriteFileRoundTrip) {
  ScopedFile F(tmpPath("atomic-write"));
  std::string Err;
  ASSERT_TRUE(ckpt::atomicWriteFile(F.Path, "hello\n", &Err)) << Err;
  {
    std::ifstream In(F.Path);
    std::string Data(std::istreambuf_iterator<char>(In), {});
    EXPECT_EQ(Data, "hello\n");
  }
  // Overwrites go through the same tmp+rename path: no partial state.
  ASSERT_TRUE(ckpt::atomicWriteFile(F.Path, "second", &Err)) << Err;
  std::ifstream In(F.Path);
  std::string Data(std::istreambuf_iterator<char>(In), {});
  EXPECT_EQ(Data, "second");
  EXPECT_FALSE(fs::exists(F.Path + ".tmp"));
}

TEST(Resilience, BitstateLog2ForBudgetClampsAndScales) {
  unsigned Tiny = resilience::bitstateLog2ForBudget(1);
  unsigned Mid = resilience::bitstateLog2ForBudget(64ull << 20);
  unsigned Huge = resilience::bitstateLog2ForBudget(1ull << 60);
  EXPECT_GE(Tiny, 16u);
  EXPECT_LE(Huge, 33u);
  EXPECT_LE(Tiny, Mid);
  EXPECT_LE(Mid, Huge);
}

//===----------------------------------------------------------------------===//
// Fault-injected scenarios (ROCKER_FAULT_INJECT builds only)
//===----------------------------------------------------------------------===//

#ifdef ROCKER_FAULT_INJECT

namespace {

/// Forks a child with \p FiSpec; the configured kill must terminate it
/// with SIGKILL, then a fault-free resume must match \p Ref. The child
/// records a flight-recorder trace, so the fault-injection pre-kill hook
/// must leave a readable last-events dump next to the checkpoint.
void fiKillThenResume(const Program &P, const RockerReport &Ref,
                      const char *FiSpec, const std::string &Stem) {
  ScopedFile Ckpt(tmpPath(Stem));
  ScopedFile Result(tmpPath(Stem + "-result"));
  ScopedFile Trace(Ckpt.Path + ".trace.json");
  ScopedFile Dump(Ckpt.Path + ".trace.txt");

  pid_t Pid = ::fork();
  ASSERT_NE(Pid, -1);
  if (Pid == 0) {
    obs::traceConfigure(Trace.Path);
    childCheckRun(P, Ckpt.Path, Result.Path, false, 1, FiSpec);
  }
  int St = 0;
  ASSERT_EQ(::waitpid(Pid, &St, 0), Pid);
  ASSERT_TRUE(WIFSIGNALED(St)) << "child was not killed (" << FiSpec << ")";
  ASSERT_EQ(WTERMSIG(St), SIGKILL);
  ASSERT_TRUE(fs::exists(Ckpt.Path))
      << "no checkpoint survived the kill (" << FiSpec << ")";
  if (obs::traceSupported()) {
    // The engine redirects the dump next to its checkpoint, and the
    // pre-kill hook fires before SIGKILL: the dump must name the kill
    // and carry at least one recorded event line.
    ASSERT_TRUE(fs::exists(Dump.Path))
        << "kill left no flight-recorder dump (" << FiSpec << ")";
    std::ifstream DumpIn(Dump.Path);
    std::stringstream DumpBuf;
    DumpBuf << DumpIn.rdbuf();
    EXPECT_NE(DumpBuf.str().find("fault-injection kill"),
              std::string::npos)
        << FiSpec;
    EXPECT_NE(DumpBuf.str().find("begin "), std::string::npos)
        << FiSpec << ": dump carries no span events";
  }

  pid_t Pid2 = ::fork();
  ASSERT_NE(Pid2, -1);
  if (Pid2 == 0)
    childCheckRun(P, Ckpt.Path, Result.Path, true, 1, "");
  ASSERT_EQ(::waitpid(Pid2, &St, 0), Pid2);
  ASSERT_TRUE(WIFEXITED(St) && WEXITSTATUS(St) == 0)
      << "resume round failed (" << FiSpec << ")";
  expectChildResultMatches(Result.Path, Ref);
}

} // namespace

TEST(ResilienceFi, KillAtDeterministicExpansionThenResume) {
  Program P = findCorpusEntry("peterson-ra").parse();
  RockerReport Ref = checkRobustness(P, baseOpts(1));
  ASSERT_TRUE(Ref.Complete);
  fiKillThenResume(P, Ref, "kill:explore.expand@40", "fi-kill-40");
  fiKillThenResume(P, Ref, "kill:explore.expand@333", "fi-kill-333");
}

TEST(ResilienceFi, MidWriteKillLeavesPreviousCheckpointIntact) {
  // Dies between the second checkpoint's payload write and its atomic
  // rename; the first checkpoint must still be complete and resumable.
  Program P = findCorpusEntry("peterson-ra").parse();
  RockerReport Ref = checkRobustness(P, baseOpts(1));
  ASSERT_TRUE(Ref.Complete);
  fiKillThenResume(P, Ref, "kill:ckpt.midwrite@2", "fi-midwrite");
}

TEST(ResilienceFi, ForcedGovernorFaultDropsExactlyOneRung) {
  // A forced allocation-pressure event with an otherwise-unreachable
  // budget: the ladder steps to bitstate and stays there. The sweep
  // completes, but bitstate coverage can only claim BoundedRobust. (A
  // 64 MiB budget sizes a 16 MiB bit array, far below the budget.)
  fi::configure("fail:govern.alloc@1");
  Program P = findCorpusEntry("peterson-ra").parse();
  RockerReport Ref = checkRobustness(P, baseOpts(1));
  RockerOptions O = baseOpts(1);
  O.Resilience.MemBudgetBytes = 64ull << 20;
  RockerReport R = checkRobustness(P, O);
  fi::configure("");
  const resilience::ResilienceReport &RR = R.Stats.Resilience;
  ASSERT_EQ(RR.Downgrades.size(), 1u);
  EXPECT_EQ(RR.Downgrades[0].From, StorageRung::Exact);
  EXPECT_EQ(RR.Downgrades[0].To, StorageRung::Bitstate);
  EXPECT_EQ(RR.FinalRung, StorageRung::Bitstate);
  EXPECT_TRUE(R.Complete);
  EXPECT_EQ(R.Stats.NumStates, Ref.Stats.NumStates);
  EXPECT_EQ(R.verdictClass(), VerdictClass::BoundedRobust);
}

TEST(ResilienceFi, ClockSkewTripsDeadline) {
  fi::configure("skew:100000");
  Program P = findCorpusEntry("lamport2-ra").parse();
  RockerOptions O = baseOpts(1);
  O.MaxStates = 50'000;
  O.Resilience.DeadlineSeconds = 3000;
  RockerReport R = checkRobustness(P, O);
  fi::configure("");
  EXPECT_TRUE(R.Stats.Resilience.DeadlineHit);
  EXPECT_FALSE(R.Complete);
  if (R.Robust) {
    EXPECT_EQ(R.verdictClass(), VerdictClass::BoundedRobust);
  }
}

TEST(ResilienceFi, WatchdogCatchesStuckWorker) {
  // Traced run: the watchdog trip must also leave a readable
  // last-events dump (default location: next to the trace file).
  ScopedFile Trace(tmpPath("fi-watchdog-trace"));
  ScopedFile Dump(Trace.Path + ".crash.txt");
  bool Tracing =
      obs::traceSupported() && obs::traceConfigure(Trace.Path);

  fi::configure("stall:worker.stall@50");
  Program P = findCorpusEntry("lamport2-ra").parse();
  SCMemory Mem(P);
  ParExploreOptions PO;
  PO.Threads = 1;
  PO.MaxStates = 200'000;
  PO.Resilience.WatchdogSeconds = 0.25;
  ParallelExplorer<SCMemory> Ex(P, Mem, PO);
  ParExploreResult R = Ex.run();
  fi::configure("");
  EXPECT_TRUE(R.Stats.Resilience.WatchdogFired);
  EXPECT_TRUE(R.Stats.Truncated);
  EXPECT_EQ(R.Verdict, ParVerdict::Bounded);
  if (Tracing) {
    obs::traceStop();
    ASSERT_TRUE(fs::exists(Dump.Path))
        << "watchdog trip left no flight-recorder dump";
    std::ifstream DumpIn(Dump.Path);
    std::stringstream DumpBuf;
    DumpBuf << DumpIn.rdbuf();
    EXPECT_NE(DumpBuf.str().find("watchdog"), std::string::npos);
  }
}

TEST(ResilienceFi, CheckpointWriteFailureIsSkippedNotFatal) {
  fi::configure("fail:ckpt.write@1");
  ScopedFile Ckpt(tmpPath("fi-write-fail"));
  Program P = findCorpusEntry("peterson-ra").parse();
  RockerOptions O = baseOpts(1);
  O.Resilience.CheckpointPath = Ckpt.Path;
  O.Resilience.CheckpointEveryExpansions = 100;
  RockerReport R = checkRobustness(P, O);
  fi::configure("");
  // The first write fails, later ones succeed, and the run itself is
  // untouched either way.
  EXPECT_TRUE(R.Complete);
  EXPECT_EQ(R.verdictClass(), VerdictClass::Robust);
  EXPECT_GE(R.Stats.Resilience.CheckpointsWritten, 1u);
  EXPECT_TRUE(fs::exists(Ckpt.Path));
}

TEST(ResilienceFi, DirectoryFsyncFailureFailsTheWrite) {
  // The parent-directory fsync added after the rename is part of the
  // durability contract: its failure must surface as a failed write,
  // not be swallowed.
  ScopedFile F(tmpPath("fi-dirsync"));
  std::string Err;
  ASSERT_TRUE(ckpt::atomicWriteFile(F.Path, "payload", &Err)) << Err;
  fi::configure("fail:ckpt.dirsync@1");
  EXPECT_FALSE(ckpt::atomicWriteFile(F.Path, "payload2", &Err));
  fi::configure("");
  EXPECT_NE(Err.find("fsync"), std::string::npos) << Err;
}

TEST(ResilienceFi, PostRenameKillLeavesDurableCheckpoint) {
  // Dies between the first checkpoint's rename and the parent-directory
  // fsync: the renamed file is complete and checksummed, so it must
  // still load and resume to the exact reference outcome.
  Program P = findCorpusEntry("peterson-ra").parse();
  RockerReport Ref = checkRobustness(P, baseOpts(1));
  ASSERT_TRUE(Ref.Complete);
  fiKillThenResume(P, Ref, "kill:ckpt.postrename@1", "fi-postrename");
}

#endif // ROCKER_FAULT_INJECT
