//===- monitor/FromGraph.cpp - I(G) from execution graphs -------------------===//

#include "monitor/FromGraph.h"

#include <cassert>

using namespace rocker;

namespace {

/// hbSC closure for SCG-generated graphs (insertion order topological).
ReachMatrix computeHbSc(const ExecutionGraph &G) {
  unsigned N = G.numEvents();
  ReachMatrix R(N);
  // Readers per write (for fr edges).
  std::vector<std::vector<EventId>> Readers(N);
  for (EventId E = 0; E != N; ++E)
    if (G.rf(E) != ExecutionGraph::NoEvent)
      Readers[G.rf(E)].push_back(E);

  unsigned NumInit = 0;
  while (NumInit != N && G.event(NumInit).isInit())
    ++NumInit;

  for (EventId E = 0; E != N; ++E) {
    if (G.event(E).isInit())
      continue;
    auto addFrom = [&](EventId From) {
      assert(From < E && "SCG graph not hbSC-topological in id order");
      R.addEdge(From, E);
    };
    if (G.poPred(E) != ExecutionGraph::NoEvent)
      addFrom(G.poPred(E));
    else
      for (EventId I = 0; I != NumInit; ++I)
        addFrom(I);
    if (G.rf(E) != ExecutionGraph::NoEvent && G.rf(E) != E)
      addFrom(G.rf(E));
    if (G.isWrite(E)) {
      const std::vector<EventId> &M = G.mo(G.loc(E));
      unsigned Pos = G.moPos(E);
      assert(Pos > 0 && "non-init write at mo position 0");
      EventId Prev = M[Pos - 1];
      addFrom(Prev); // mo edge (immediate; closure chains the rest).
      for (EventId Rd : Readers[Prev])
        if (Rd != E)
          addFrom(Rd); // fr edge r -> E for every r reading Prev.
    }
  }
  return R;
}

} // namespace

SCMState rocker::monitorStateFromGraph(const Program &P,
                                       const SCMonitor &Monitor,
                                       const ExecutionGraph &G) {
  unsigned NumThreads = P.numThreads();
  unsigned NumLocs = P.numLocs();
  BitSet64 RaLocs = P.raLocs();
  bool Abstract = Monitor.isAbstract();
  const std::vector<BitSet64> &Crit = Monitor.criticalValues();

  ReachMatrix Hb = G.computeHb();
  ReachMatrix HbSc = computeHbSc(G);

  SCMState S(NumThreads, NumLocs, Abstract); // Everything empty/0.
  for (unsigned X = 0; X != NumLocs; ++X)
    S.M[X] = G.event(G.moMax(static_cast<LocId>(X))).L.ValW;

  auto lastOf = [&](ThreadId T) { return G.threadLast(T); };

  // VSC.
  for (unsigned T = 0; T != NumThreads; ++T) {
    for (unsigned X : RaLocs) {
      EventId WMax = G.moMax(static_cast<LocId>(X));
      bool Aware = G.event(WMax).isInit();
      EventId Last = lastOf(static_cast<ThreadId>(T));
      if (!Aware && Last != ExecutionGraph::NoEvent)
        Aware = HbSc.reachesOrEq(WMax, Last);
      if (Aware)
        S.VSC[T].insert(X);
    }
  }

  // MSC and WSC.
  for (unsigned X : RaLocs) {
    for (unsigned Y : RaLocs) {
      EventId WMaxY = G.moMax(static_cast<LocId>(Y));
      // MSC(x) ∋ y iff wmax_y hbSC?-reaches some event accessing x.
      for (EventId E = 0; E != G.numEvents(); ++E) {
        if (G.loc(E) != X)
          continue;
        if (HbSc.reachesOrEq(WMaxY, E)) {
          S.MSC[X].insert(Y);
          break;
        }
      }
      if (HbSc.reachesOrEq(WMaxY, G.moMax(static_cast<LocId>(X))))
        S.WSC[X].insert(Y);
    }
  }

  // V / VRMW / W / WRMW.
  for (unsigned X : RaLocs) {
    const std::vector<EventId> &M = G.mo(static_cast<LocId>(X));
    for (unsigned Pos = 0; Pos + 1 < M.size(); ++Pos) { // skip wmax
      EventId W = M[Pos];
      Val V = G.event(W).L.ValW;
      bool VIsCrit = Crit[X].contains(V);
      bool ReadByRmw = G.isRmw(M[Pos + 1]);

      // Which "observers" rule W out: a thread τ (for V) or a wmax_y
      // (for W) observes past W iff some strictly mo-later write
      // hb?-reaches the observer.
      auto observedPast = [&](EventId Target) {
        for (unsigned Q = Pos + 1; Q != M.size(); ++Q)
          if (Hb.reachesOrEq(M[Q], Target))
            return true;
        return false;
      };

      for (unsigned T = 0; T != NumThreads; ++T) {
        EventId Last = lastOf(static_cast<ThreadId>(T));
        bool Excluded =
            Last != ExecutionGraph::NoEvent && observedPast(Last);
        if (Excluded)
          continue;
        if (!Abstract || VIsCrit) {
          S.V[T * NumLocs + X].insert(V);
          if (!ReadByRmw)
            S.VRmw[T * NumLocs + X].insert(V);
        }
      }
      for (unsigned Y : RaLocs) {
        EventId WMaxY = G.moMax(static_cast<LocId>(Y));
        if (observedPast(WMaxY))
          continue;
        if (!Abstract || VIsCrit) {
          S.W[Y * NumLocs + X].insert(V);
          if (!ReadByRmw)
            S.WRmw[Y * NumLocs + X].insert(V);
        }
      }
    }
  }

  if (!Abstract)
    return S;

  // Disjunctive summaries of the non-critical values (Appendix C
  // interpretations): recompute the unmasked sets' non-critical parts.
  for (unsigned X : RaLocs) {
    const std::vector<EventId> &M = G.mo(static_cast<LocId>(X));
    for (unsigned Pos = 0; Pos + 1 < M.size(); ++Pos) {
      EventId W = M[Pos];
      Val V = G.event(W).L.ValW;
      if (Crit[X].contains(V))
        continue;
      bool ReadByRmw = G.isRmw(M[Pos + 1]);
      auto observedPast = [&](EventId Target) {
        for (unsigned Q = Pos + 1; Q != M.size(); ++Q)
          if (Hb.reachesOrEq(M[Q], Target))
            return true;
        return false;
      };
      for (unsigned T = 0; T != NumThreads; ++T) {
        EventId Last = lastOf(static_cast<ThreadId>(T));
        if (Last != ExecutionGraph::NoEvent && observedPast(Last))
          continue;
        S.CV[T].insert(X);
        if (!ReadByRmw)
          S.CVRmw[T].insert(X);
      }
      for (unsigned Y : RaLocs) {
        if (observedPast(G.moMax(static_cast<LocId>(Y))))
          continue;
        S.CW[Y].insert(X);
        if (!ReadByRmw)
          S.CWRmw[Y].insert(X);
      }
    }
  }
  return S;
}
