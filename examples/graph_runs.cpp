//===- examples/graph_runs.cpp - Figure 4 replayed ---------------------------===//
//
// Reproduces Figure 4 of the paper: an SCG run of the MP program and an
// RAG-divergence-bound run of the SB program, printing after every step
// the execution graph and the SCM monitor components (M, VSC, MSC, WSC,
// V, W). The SB run ends at the state where the monitor flags the
// robustness violation ("x ∈ VSC(2) and 0 ∈ V(2)(x)" in the paper).
//
//===----------------------------------------------------------------------===//

#include "graph/ExecutionGraph.h"
#include "lang/Program.h"
#include "monitor/FromGraph.h"
#include "monitor/SCMState.h"

#include <cstdio>
#include <string>

using namespace rocker;

namespace {

constexpr LocId X = 0, Y = 1;
constexpr ThreadId T1 = 0, T2 = 1;

Program twoLocProgram() {
  ProgramBuilder B("fig4", 2);
  LocId Lx = B.addLoc("x");
  B.addLoc("y");
  B.beginThread("t1");
  B.load(B.reg("a"), Lx);
  B.beginThread("t2");
  B.load(B.reg("b"), Lx);
  return B.build();
}

std::string locSet(const Program &P, BitSet64 S) {
  std::string Out = "{";
  bool First = true;
  for (unsigned L : S) {
    if (!First)
      Out += ",";
    Out += P.locName(static_cast<LocId>(L));
    First = false;
  }
  return Out + "}";
}

std::string valSet(BitSet64 S) {
  std::string Out = "{";
  bool First = true;
  for (unsigned V : S) {
    if (!First)
      Out += ",";
    Out += std::to_string(V);
    First = false;
  }
  return Out + "}";
}

void printState(const Program &P, const SCMState &S) {
  std::printf("  M = {x->%d, y->%d}\n", S.M[X], S.M[Y]);
  for (unsigned T = 0; T != 2; ++T)
    std::printf("  VSC(%u) = %s\n", T + 1, locSet(P, S.VSC[T]).c_str());
  std::printf("  MSC(x) = %s  MSC(y) = %s\n", locSet(P, S.MSC[X]).c_str(),
              locSet(P, S.MSC[Y]).c_str());
  std::printf("  WSC(x) = %s  WSC(y) = %s\n", locSet(P, S.WSC[X]).c_str(),
              locSet(P, S.WSC[Y]).c_str());
  for (unsigned T = 0; T != 2; ++T)
    std::printf("  V(%u) = {x->%s, y->%s}\n", T + 1,
                valSet(S.V[T * 2 + X]).c_str(),
                valSet(S.V[T * 2 + Y]).c_str());
  std::printf("  W(x)(y) = %s  W(y)(x) = %s\n",
              valSet(S.W[X * 2 + Y]).c_str(),
              valSet(S.W[Y * 2 + X]).c_str());
}

struct Runner {
  const Program &P;
  const SCMonitor &Mon;
  ExecutionGraph G;
  SCMState S;

  Runner(const Program &P, const SCMonitor &Mon)
      : P(P), Mon(Mon), G(ExecutionGraph::initial(P.numLocs())),
        S(Mon.initial()) {}

  void step(const char *Desc, ThreadId T, const Label &L) {
    EventId Pred = G.moMax(L.Loc);
    G.add(T, L, Pred);
    switch (L.Type) {
    case AccessType::W:
      Mon.stepWrite(S, T, L.Loc, L.ValW, false);
      break;
    case AccessType::R:
      Mon.stepRead(S, T, L.Loc, false);
      break;
    case AccessType::RMW:
      Mon.stepRmw(S, T, L.Loc, L.ValW);
      break;
    }
    std::printf("--- %s ---\n%s", Desc, G.toString(&P).c_str());
    printState(P, S);
    // Sanity: the incremental state matches I(G) (Lemma 5.2).
    if (!(S == monitorStateFromGraph(P, Mon, G)))
      std::printf("  !! monitor state diverged from I(G)\n");
    std::printf("\n");
  }
};

} // namespace

int main() {
  Program P = twoLocProgram();
  SCMonitor Mon(P, /*Abstract=*/false);

  std::printf("====== Figure 4 (top): SCG run of MP ======\n\n");
  {
    Runner R(P, Mon);
    R.step("<1, W(x,1)>", T1, Label::write(X, 1));
    R.step("<1, W(y,1)>", T1, Label::write(Y, 1));
    R.step("<2, R(y,1)>", T2, Label::read(Y, 1));
    R.step("<2, R(x,1)>", T2, Label::read(X, 1));
    std::printf("MP is robust: no step ever satisfied the Theorem 5.3 "
                "violation conditions.\n\n");
  }

  std::printf("====== Figure 4 (bottom): SCG run of SB ======\n\n");
  {
    Runner R(P, Mon);
    R.step("<1, W(x,1)>", T1, Label::write(X, 1));
    R.step("<1, R(y,0)>", T1, Label::read(Y, 0));
    R.step("<2, W(y,1)>", T2, Label::write(Y, 1));
    MemAccess A{};
    A.K = MemAccess::Kind::Read;
    A.Loc = X;
    std::optional<MonitorViolation> V = Mon.checkAccess(R.S, T2, A);
    if (V)
      std::printf("Robustness violation before <2, R(x,.)>: x in VSC(2) "
                  "and %d in V(2)(x) — under RA thread 2 could still read "
                  "the stale initial x.\n",
                  V->WitnessVal);
    else
      std::printf("unexpected: no violation detected\n");
    return V ? 0 : 1;
  }
}
