//===- rocker/Oracles.cpp - Reference robustness oracles --------------------===//

#include "rocker/Oracles.h"

#include "graph/Consistency.h"
#include "graph/GraphSemantics.h"
#include "memory/RAMachine.h"
#include "memory/SCMemory.h"
#include "obs/Telemetry.h"
#include "parexplore/ParallelExplorer.h"

using namespace rocker;

namespace {

/// Collects reachable program-state projections under a memory subsystem,
/// on the engine selected by \p Threads (identical sets either way).
/// Both engines deduplicate through their exact collapse-compressed
/// visited set, so the sets are the reachable projections.
template <typename MemSys>
ExploreResult collectProgramStates(const Program &P, const MemSys &Mem,
                                   uint64_t MaxStates, unsigned Threads) {
  if (Threads > 1) {
    ParExploreOptions PE;
    PE.Threads = Threads;
    PE.MaxStates = MaxStates;
    PE.StopOnViolation = false;
    PE.CheckAssertions = false;
    PE.CollectProgramStates = true;
    PE.RecordTrace = false;
    ParallelExplorer<MemSys> Ex(P, Mem, PE);
    ParExploreResult R = Ex.run();
    ExploreResult Out;
    Out.Stats = std::move(R.Stats);
    Out.ProgramStates = std::move(R.ProgramStates);
    return Out;
  }
  ExploreOptions EO;
  EO.MaxStates = MaxStates;
  EO.RecordParents = false;
  EO.StopOnViolation = false;
  EO.CheckAssertions = false;
  EO.CollectProgramStates = true;
  ProductExplorer<MemSys> Ex(P, Mem, EO);
  return Ex.run();
}

} // namespace

OracleResult rocker::checkGraphRobustnessOracle(const Program &P,
                                                uint64_t MaxStates,
                                                bool NaExtension,
                                                unsigned Threads) {
  RAGraphMem Mem(P, NaExtension);
  auto AccessHook = [&](const ExecutionGraph &G, ThreadId T, uint32_t Pc,
                        const MemAccess &A) -> std::optional<Violation> {
    if (NaExtension && Mem.naRace(G, T, A)) {
      Violation V;
      V.K = Violation::Kind::MemoryViolation;
      V.Loc = A.Loc;
      V.Detail = "RAG+NA reaches the racy state ⊥ on '" +
                 P.locName(A.Loc) + "'";
      return V;
    }
    return std::nullopt;
  };

  // Every reached ⟨q,G⟩ must be reachable in PSCG, i.e. G must be
  // SC-consistent (Lemma A.11). Both engines check each graph as it is
  // discovered; neither keeps expanded states to sweep afterwards.
  auto StateHook = [&](const auto &S) -> std::optional<Violation> {
    obs::Span Sp(obs::Phase::OracleSweep);
    obs::add(obs::Ctr::SweptStates);
    if (isSCConsistent(S.M))
      return std::nullopt;
    Violation V;
    V.K = Violation::Kind::MemoryViolation;
    V.Detail = "reachable RAG graph is not SC-consistent:\n" +
               S.M.toString(&P);
    return V;
  };

  OracleResult Res;
  std::vector<Violation> Violations;
  if (Threads > 1) {
    ParExploreOptions PE;
    PE.Threads = Threads;
    PE.MaxStates = MaxStates;
    PE.StopOnViolation = true;
    PE.CheckAssertions = false;
    PE.RecordTrace = false;
    PE.ReplayOnViolation = false; // Verdict + detail suffice here.
    ParallelExplorer<RAGraphMem> Ex(P, Mem, PE);
    ParExploreResult R = Ex.runWithHooks(AccessHook, StateHook);
    Res.Stats = std::move(R.Stats);
    Violations = std::move(R.Violations);
  } else {
    ExploreOptions EO;
    EO.MaxStates = MaxStates;
    EO.RecordParents = false;
    EO.StopOnViolation = true;
    EO.CheckAssertions = false;
    ProductExplorer<RAGraphMem> Ex(P, Mem, EO);
    ExploreResult R = Ex.runWithHooks(AccessHook, StateHook);
    Res.Stats = std::move(R.Stats);
    Violations = std::move(R.Violations);
  }
  Res.Complete = !Res.Stats.Truncated;
  Res.Robust = Violations.empty();
  if (!Res.Robust)
    Res.Detail = Violations.front().Detail;
  return Res;
}

OracleResult rocker::checkStateRobustnessOracle(const Program &P,
                                                uint64_t MaxStates,
                                                unsigned Threads) {
  RAMachine RA(P);
  SCMemory SC(P);
  ExploreResult RRa = collectProgramStates(P, RA, MaxStates, Threads);
  ExploreResult RSc = collectProgramStates(P, SC, MaxStates, Threads);

  OracleResult Res;
  Res.Complete = !RRa.Stats.Truncated && !RSc.Stats.Truncated;
  Res.Stats = RRa.Stats;
  // Both explorations are part of the check; report their combined time
  // (consistent with checkTSORobustness).
  Res.Stats.Seconds += RSc.Stats.Seconds;
  obs::Span Sp(obs::Phase::OracleSweep);
  obs::add(obs::Ctr::SweptStates, RRa.ProgramStates.size());
  for (const std::string &Key : RRa.ProgramStates) {
    if (!RSc.ProgramStates.count(Key)) {
      Res.Robust = false;
      Res.Detail = "program state reachable under RA but not under SC";
      return Res;
    }
  }
  Res.Robust = true;
  return Res;
}

std::optional<bool> rocker::crossCheckRAMachineVsRAG(const Program &P,
                                                     uint64_t MaxStates,
                                                     unsigned Threads) {
  RAMachine RA(P);
  RAGraphMem RAG(P, /*NaExtension=*/false);
  ExploreResult A = collectProgramStates(P, RA, MaxStates, Threads);
  ExploreResult B = collectProgramStates(P, RAG, MaxStates, Threads);
  if (A.Stats.Truncated || B.Stats.Truncated)
    return std::nullopt;
  return A.ProgramStates == B.ProgramStates;
}

std::optional<bool> rocker::crossCheckSCVsSCG(const Program &P,
                                              uint64_t MaxStates,
                                              unsigned Threads) {
  SCMemory SC(P);
  SCGraphMem SCG(P);
  ExploreResult A = collectProgramStates(P, SC, MaxStates, Threads);
  ExploreResult B = collectProgramStates(P, SCG, MaxStates, Threads);
  if (A.Stats.Truncated || B.Stats.Truncated)
    return std::nullopt;
  return A.ProgramStates == B.ProgramStates;
}

std::optional<bool> rocker::crossCheckSCSubsetOfRA(const Program &P,
                                                   uint64_t MaxStates,
                                                   unsigned Threads) {
  SCMemory SC(P);
  RAMachine RA(P);
  ExploreResult A = collectProgramStates(P, SC, MaxStates, Threads);
  ExploreResult B = collectProgramStates(P, RA, MaxStates, Threads);
  if (A.Stats.Truncated || B.Stats.Truncated)
    return std::nullopt;
  obs::Span Sp(obs::Phase::OracleSweep);
  obs::add(obs::Ctr::SweptStates, A.ProgramStates.size());
  for (const std::string &Key : A.ProgramStates)
    if (!B.ProgramStates.count(Key))
      return false;
  return true;
}
