//===- tso/TSORobustness.cpp - TSO robustness baseline ----------------------===//

#include "tso/TSORobustness.h"

#include "memory/SCMemory.h"
#include "memory/TSOMachine.h"
#include "obs/Telemetry.h"
#include "parexplore/ParallelExplorer.h"

using namespace rocker;

Program rocker::lowerBlockingInstructions(const Program &P) {
  Program Out;
  Out.Name = P.Name + "-lowered";
  Out.NumVals = P.NumVals;
  Out.LocNames = P.LocNames;
  Out.NaLocs = P.NaLocs;

  for (const SequentialProgram &S : P.Threads) {
    SequentialProgram NS;
    NS.Name = S.Name;
    NS.NumRegs = S.NumRegs;
    NS.RegNames = S.RegNames;

    // First pass: the new pc of each old instruction (blocking
    // instructions expand to two instructions).
    std::vector<uint32_t> NewPc(S.Insts.size() + 1);
    uint32_t Pc = 0;
    for (unsigned I = 0; I != S.Insts.size(); ++I) {
      NewPc[I] = Pc;
      bool Blocking = std::holds_alternative<WaitInst>(S.Insts[I]) ||
                      std::holds_alternative<BcasInst>(S.Insts[I]);
      Pc += Blocking ? 2 : 1;
    }
    NewPc[S.Insts.size()] = Pc;

    for (unsigned I = 0; I != S.Insts.size(); ++I) {
      const Inst &Ins = S.Insts[I];
      if (const auto *W = std::get_if<WaitInst>(&Ins)) {
        RegId R = static_cast<RegId>(NS.NumRegs++);
        NS.RegNames.push_back("__w" + std::to_string(I));
        NS.Insts.push_back(LoadInst{R, W->Loc});
        NS.Insts.push_back(IfGotoInst{
            Expr::makeBinary(Expr::BinOp::Ne, Expr::makeReg(R), W->Expected),
            NewPc[I]});
        continue;
      }
      if (const auto *B = std::get_if<BcasInst>(&Ins)) {
        RegId R = static_cast<RegId>(NS.NumRegs++);
        NS.RegNames.push_back("__b" + std::to_string(I));
        NS.Insts.push_back(CasInst{R, true, B->Loc, B->Expected, B->Desired});
        NS.Insts.push_back(IfGotoInst{
            Expr::makeBinary(Expr::BinOp::Ne, Expr::makeReg(R), B->Expected),
            NewPc[I]});
        continue;
      }
      // Retarget branches.
      if (const auto *G = std::get_if<IfGotoInst>(&Ins)) {
        NS.Insts.push_back(IfGotoInst{G->Cond, NewPc[G->Target]});
        continue;
      }
      NS.Insts.push_back(Ins);
    }
    Out.Threads.push_back(std::move(NS));
  }
  return Out;
}

namespace {

/// One exploration collecting program-state projections, via the engine
/// selected by \p Threads. Both engines visit the same reachable set, so
/// the resulting projection sets are identical.
template <typename MemSys>
ExploreResult collectStates(const Program &P, const MemSys &Mem,
                            const TSOOptions &Opts) {
  if (Opts.Threads > 1) {
    ParExploreOptions PE;
    PE.Threads = Opts.Threads;
    PE.MaxStates = Opts.MaxStates;
    PE.StopOnViolation = false;
    PE.CheckAssertions = false;
    PE.CollectProgramStates = true;
    PE.RecordTrace = false;
    PE.LockFreeLog2 = Opts.LockFreeLog2;
    PE.UsePor = Opts.UsePor; // Inert: CollectProgramStates forces full.
    PE.Resilience.DeadlineSeconds = Opts.DeadlineSeconds;
    ParallelExplorer<MemSys> Ex(P, Mem, PE);
    ParExploreResult R = Ex.run();
    ExploreResult Out;
    Out.Stats = std::move(R.Stats);
    Out.ProgramStates = std::move(R.ProgramStates);
    return Out;
  }
  ExploreOptions EO;
  EO.MaxStates = Opts.MaxStates;
  EO.RecordParents = false;
  EO.StopOnViolation = false;
  EO.CheckAssertions = false;
  EO.CollectProgramStates = true;
  EO.UsePor = Opts.UsePor; // Inert: CollectProgramStates forces full.
  EO.Resilience.DeadlineSeconds = Opts.DeadlineSeconds;
  ProductExplorer<MemSys> Ex(P, Mem, EO);
  return Ex.run();
}

} // namespace

TSORobustnessResult rocker::checkTSORobustness(const Program &Input,
                                               const TSOOptions &Opts) {
  Program Lowered;
  const Program *P = &Input;
  if (Opts.TrencherMode) {
    Lowered = lowerBlockingInstructions(Input);
    P = &Lowered;
  }

  TSOMachine TSO(*P, Opts.BufferBound);
  ExploreResult RTso = collectStates(*P, TSO, Opts);

  SCMemory SC(*P);
  ExploreResult RSc = collectStates(*P, SC, Opts);

  TSORobustnessResult Res;
  Res.Complete = !RTso.Stats.Truncated && !RSc.Stats.Truncated;
  Res.BufferSaturated = TSO.saturated();
  Res.Stats = RTso.Stats;
  Res.Stats.Seconds += RSc.Stats.Seconds;
  Res.Robust = true;
  obs::Span Sp(obs::Phase::OracleSweep);
  obs::add(obs::Ctr::SweptStates, RTso.ProgramStates.size());
  for (const std::string &Key : RTso.ProgramStates) {
    if (!RSc.ProgramStates.count(Key)) {
      Res.Robust = false;
      break;
    }
  }
  return Res;
}
