//===- tests/TestHelpers.h - Shared test utilities -------------*- C++ -*-===//
///
/// \file
/// Random program generation for the cross-validation property tests, and
/// small helpers shared between test files.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_TESTS_TESTHELPERS_H
#define ROCKER_TESTS_TESTHELPERS_H

#include "explore/Explorer.h"
#include "lang/Program.h"
#include "litmus/Corpus.h"

#include <optional>
#include <random>
#include <string>
#include <vector>

namespace rocker::test {

/// Names of every corpus program except the Figure 7 entries that
/// explore more than 100k states (covered once each in Fig7Test), so
/// corpus-wide sweeps stay fast.
inline std::vector<std::string> lightCorpusPrograms() {
  auto IsHeavy = [](const std::string &Name) {
    return Name == "seqlock" || Name == "nbw-w-lr-rl" || Name == "rcu" ||
           Name == "rcu-offline" || Name == "lamport2-3-ra";
  };
  std::vector<std::string> Names;
  for (const CorpusEntry &E : litmusTests())
    Names.push_back(E.Name);
  for (const CorpusEntry &E : extraLitmusTests())
    Names.push_back(E.Name);
  for (const CorpusEntry &E : morePrograms())
    Names.push_back(E.Name);
  for (const CorpusEntry &E : figure7Programs())
    if (!IsHeavy(E.Name))
      Names.push_back(E.Name);
  return Names;
}

/// Runs a sequential exploration and calls \p Visit once on every stored
/// (reachable) product state, through the engine's state hook.
template <typename MemSys, typename Fn>
ExploreResult forEachReachableState(const Program &P, const MemSys &Mem,
                                    const ExploreOptions &EO, Fn Visit) {
  ProductExplorer<MemSys> Ex(P, Mem, EO);
  return Ex.runWithHooks(
      [](const typename MemSys::State &, ThreadId, uint32_t,
         const MemAccess &) -> std::optional<Violation> {
        return std::nullopt;
      },
      [&](const auto &S) -> std::optional<Violation> {
        Visit(S);
        return std::nullopt;
      });
}

struct RandomProgramOptions {
  unsigned MaxThreads = 3;
  unsigned MaxLocs = 3;
  unsigned MaxVals = 3;
  unsigned MaxInstsPerThread = 5;
  bool AllowBranches = true;  ///< Forward branches only (loop-free).
  bool AllowBlocking = false; ///< wait/BCAS (may deadlock; fine for BFS).
  unsigned NumNaLocs = 0;     ///< Trailing locations become non-atomic.
};

/// Generates a random loop-free concurrent program. The mix is biased
/// toward stores/loads with occasional RMWs so that both robust and
/// non-robust programs are common.
inline Program randomProgram(std::mt19937 &Rng,
                             const RandomProgramOptions &O = {}) {
  auto Pick = [&](unsigned N) {
    return std::uniform_int_distribution<unsigned>(0, N - 1)(Rng);
  };
  unsigned NumVals = 2 + Pick(O.MaxVals - 1);
  unsigned NumLocs = 2 + Pick(O.MaxLocs - 1);
  unsigned NumThreads = 2 + Pick(O.MaxThreads - 1);

  ProgramBuilder B("fuzz", NumVals);
  std::vector<LocId> Locs;
  for (unsigned L = 0; L != NumLocs; ++L)
    Locs.push_back(B.addLoc("x" + std::to_string(L)));
  std::vector<LocId> NaLocs;
  for (unsigned L = 0; L != O.NumNaLocs; ++L)
    NaLocs.push_back(B.addNaLoc("d" + std::to_string(L)));

  for (unsigned T = 0; T != NumThreads; ++T) {
    B.beginThread();
    unsigned NumInsts = 2 + Pick(O.MaxInstsPerThread - 1);
    for (unsigned I = 0; I != NumInsts; ++I) {
      LocId X = Locs[Pick(NumLocs)];
      Val C = static_cast<Val>(Pick(NumVals));
      Val C2 = static_cast<Val>(Pick(NumVals));
      RegId R = B.reg("r" + std::to_string(Pick(3)));
      if (!NaLocs.empty() && Pick(4) == 0) {
        // A non-atomic access (plain load/store only).
        LocId D = NaLocs[Pick(NaLocs.size())];
        if (Pick(2))
          B.store(D, Expr::makeConst(C));
        else
          B.load(R, D);
        continue;
      }
      switch (Pick(O.AllowBlocking ? 9 : 8)) {
      case 0:
      case 1:
      case 2:
        B.store(X, Expr::makeConst(C));
        break;
      case 3:
      case 4:
        B.load(R, X);
        break;
      case 5:
        B.fadd(R, X, Expr::makeConst(1));
        break;
      case 6:
        B.cas(R, X, Expr::makeConst(C), Expr::makeConst(C2));
        break;
      case 7:
        if (O.AllowBranches && I + 2 < NumInsts) {
          uint32_t Target =
              B.nextPc() + 2 + Pick(NumInsts - I - 2);
          B.ifGoto(Expr::makeBinary(Expr::BinOp::Eq, Expr::makeReg(R),
                                    Expr::makeConst(C)),
                   Target);
        } else {
          B.xchg(R, X, Expr::makeConst(C));
        }
        break;
      case 8:
        B.wait(X, Expr::makeConst(C));
        break;
      }
    }
  }
  return B.build();
}

} // namespace rocker::test

#endif // ROCKER_TESTS_TESTHELPERS_H
