//===- monitor/SCMState.cpp - SCM transitions and checks --------------------===//
//
// Figures 5 and 6 of the paper, implemented verbatim; every RHS refers to
// pre-transition components, so rows that feed each other are snapshotted
// before mutation. The Lemma 5.2 property tests replay SCG runs through
// these updates and compare against I(G) recomputed from the graph.
//
//===----------------------------------------------------------------------===//

#include "monitor/SCMState.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

using namespace rocker;

SCMonitor::SCMonitor(const Program &P, bool Abstract)
    : NumThreads(P.numThreads()), NumLocs(P.numLocs()), NumVals(P.NumVals),
      RaLocs(P.raLocs()), Abstract(Abstract),
      Crit(computeCriticalValues(P)), LocBytes((NumLocs + 7) / 8) {
  // A value set takes ceil(|Val|/8) bytes. In abstract mode value sets
  // only ever contain critical values; they are packed into
  // ceil(|Val(P,y)|/8) bytes (this is the Section 5.1 metadata bound:
  // 2(|Tid|+|Loc|)·Σ_x |Val(P,x)| bits instead of full domains), so
  // locations without critical values take none. Packing goes through
  // per-column, per-mask-byte tables, so one lookup per mask byte serves
  // every value-domain width.
  for (unsigned Y = 0; Y != NumLocs; ++Y) {
    unsigned Bytes = ((Abstract ? Crit[Y].size() : NumVals) + 7) / 8;
    if (Bytes)
      ValCols.push_back(
          {static_cast<LocId>(Y), static_cast<uint16_t>(ValRowBytes)});
    ValRowBytes += Bytes;
    if (Abstract && !Crit[Y].empty())
      PackInBytes = std::max(
          PackInBytes, 8 - unsigned(__builtin_clzll(Crit[Y].mask())) / 8);
  }
  if (Abstract) {
    for (const ValColumn &Col : ValCols)
      PackOutBytes = std::max(PackOutBytes, (Crit[Col.Loc].size() + 7) / 8);
    PackTab.assign(ValCols.size() * PackInBytes * 256, 0);
    UnpackTab.assign(ValCols.size() * PackOutBytes * 256, 0);
    for (size_t C = 0; C != ValCols.size(); ++C) {
      unsigned Rank = 0;
      for (unsigned V : Crit[ValCols[C].Loc]) {
        uint64_t *Tab = PackTab.data() + (C * PackInBytes + V / 8) * 256;
        uint64_t *Untab =
            UnpackTab.data() + (C * PackOutBytes + Rank / 8) * 256;
        for (unsigned Byte = 0; Byte != 256; ++Byte) {
          if (Byte >> (V % 8) & 1)
            Tab[Byte] |= uint64_t{1} << Rank;
          if (Byte >> (Rank % 8) & 1)
            Untab[Byte] |= uint64_t{1} << V;
        }
        ++Rank;
      }
    }
  }
  // Decoding keeps only bits of real elements, so a key with stray bits
  // (from outside the process) does not serialize back to itself.
  LocMask = BitSet64::allBelow(NumLocs).mask();
  ValMask = BitSet64::allBelow(NumVals).mask();
  size_t SummaryBytes = Abstract ? 2 * LocBytes : 0;
  GlobalBytes = NumLocs + 2 * size_t(NumLocs) * LocBytes +
                2 * NumLocs * ValRowBytes + NumLocs * SummaryBytes;
  ThreadBytes = LocBytes + 2 * ValRowBytes + SummaryBytes;
}

SCMonitor::State SCMonitor::initial() const {
  State S(NumThreads, NumLocs, Abstract);
  // Initially every thread is hbSC-aware of every (initialization) write,
  // and each wmax_x trivially reaches only events accessing x (itself).
  for (BitSet64 &B : S.VSC)
    B = RaLocs;
  for (unsigned X : RaLocs) {
    S.MSC[X].insert(X);
    S.WSC[X].insert(X);
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Figure 5: maintaining VSC, MSC, WSC
//===----------------------------------------------------------------------===//

void SCMonitor::updateHbScOnWrite(State &S, ThreadId T, LocId X) const {
  BitSet64 OldVscT = S.VSC[T];
  BitSet64 OldMscX = S.MSC[X];

  // VSC' = λπ. π = τ ? VSC(τ) ∪ MSC(x) : VSC(π) \ {x}
  for (unsigned P = 0; P != NumThreads; ++P)
    S.VSC[P].remove(X);
  S.VSC[T] = OldVscT | OldMscX;

  // MSC' = λy. y = x ? MSC(x) ∪ VSC(τ) : MSC(y) \ {x}
  // WSC' = λy. y = x ? MSC(x) ∪ VSC(τ) : WSC(y) \ {x}
  for (unsigned Y : RaLocs) {
    if (Y == X)
      continue;
    S.MSC[Y].remove(X);
    S.WSC[Y].remove(X);
  }
  S.MSC[X] = OldMscX | OldVscT;
  S.WSC[X] = OldMscX | OldVscT;
}

void SCMonitor::updateHbScOnRead(State &S, ThreadId T, LocId X) const {
  BitSet64 OldVscT = S.VSC[T];
  // VSC'(τ) = VSC(τ) ∪ WSC(x); MSC'(x) = MSC(x) ∪ VSC(τ); WSC unchanged.
  S.VSC[T] |= S.WSC[X];
  S.MSC[X] |= OldVscT;
}

//===----------------------------------------------------------------------===//
// Figure 6 (+ Appendix C): maintaining V, W, VRMW, WRMW (+ CV/CW summaries)
//===----------------------------------------------------------------------===//

void SCMonitor::stepWrite(State &S, ThreadId T, LocId X, Val V,
                          bool IsNA) const {
  Val VR = S.M[X]; // Value of the demoted mo-maximal write.
  S.M[X] = V;
  if (IsNA)
    return; // Non-atomic accesses leave the instrumentation unchanged.

  updateHbScOnWrite(S, T, X);

  bool VRCrit = Crit[X].contains(VR);
  BitSet64 VRSet;
  if (!Abstract || VRCrit)
    VRSet.insert(VR);

  // W'(z,y): z = x, y ≠ x -> V(τ,y);  z ≠ x, y = x -> W(z,x) ∪ {vR}.
  // WRMW analogous. Uses V(τ,·) before its own update below.
  for (unsigned Y : RaLocs) {
    if (Y == X)
      continue;
    S.W[wIdx(X, Y)] = S.V[vIdx(T, Y)];
    S.WRmw[wIdx(X, Y)] = S.VRmw[vIdx(T, Y)];
  }
  for (unsigned Z : RaLocs) {
    if (Z == X)
      continue;
    S.W[wIdx(Z, X)] |= VRSet;
    S.WRmw[wIdx(Z, X)] |= VRSet;
  }
  // W(x,x) stays ∅: every other write to x is mo-before the new wmax_x.
  S.W[wIdx(X, X)].clear();
  S.WRmw[wIdx(X, X)].clear();

  // V'(π,y): π = τ, y = x -> ∅;  π ≠ τ, y = x -> V(π,x) ∪ {vR}.
  for (unsigned P = 0; P != NumThreads; ++P) {
    if (P == T)
      continue;
    S.V[vIdx(P, X)] |= VRSet;
    S.VRmw[vIdx(P, X)] |= VRSet;
  }
  S.V[vIdx(T, X)].clear();
  S.VRmw[vIdx(T, X)].clear();

  if (!Abstract)
    return;

  // Appendix C, write column.
  BitSet64 OldCvT = S.CV[T];
  BitSet64 OldCvRmwT = S.CVRmw[T];
  for (unsigned Z : RaLocs) {
    if (Z == X)
      continue;
    if (!VRCrit) {
      S.CW[Z].insert(X);
      S.CWRmw[Z].insert(X);
    }
  }
  S.CW[X] = OldCvT;
  S.CW[X].remove(X);
  S.CWRmw[X] = OldCvRmwT;
  S.CWRmw[X].remove(X);
  for (unsigned P = 0; P != NumThreads; ++P) {
    if (P == T)
      continue;
    if (!VRCrit) {
      S.CV[P].insert(X);
      S.CVRmw[P].insert(X);
    }
  }
  S.CV[T].remove(X);
  S.CVRmw[T].remove(X);
}

void SCMonitor::stepRead(State &S, ThreadId T, LocId X, bool IsNA) const {
  if (IsNA)
    return;
  updateHbScOnRead(S, T, X);
  // V'(τ,y) = V(τ,y) ∩ W(x,y); VRMW'(τ,y) = VRMW(τ,y) ∩ WRMW(x,y).
  for (unsigned Y : RaLocs) {
    S.V[vIdx(T, Y)] &= S.W[wIdx(X, Y)];
    S.VRmw[vIdx(T, Y)] &= S.WRmw[wIdx(X, Y)];
  }
  if (Abstract) {
    S.CV[T] &= S.CW[X];
    S.CVRmw[T] &= S.CWRmw[X];
  }
}

void SCMonitor::stepRmw(State &S, ThreadId T, LocId X, Val VW) const {
  Val VR = S.M[X];
  S.M[X] = VW;
  assert(RaLocs.contains(X) && "RMW on a non-atomic location");

  updateHbScOnWrite(S, T, X);

  bool VRCrit = Crit[X].contains(VR);
  BitSet64 VRSet;
  if (!Abstract || VRCrit)
    VRSet.insert(VR);

  // V'(τ,y) and W'(x,y≠x) both become V(τ,y) ∩ W(x,y); compute once.
  // (W(x,x) stays ∅, and V(τ,x) ∩ W(x,x) = ∅ as well, so the y = x case
  // is uniform.)
  for (unsigned Y : RaLocs) {
    BitSet64 Meet = S.V[vIdx(T, Y)] & S.W[wIdx(X, Y)];
    S.V[vIdx(T, Y)] = Meet;
    if (Y != X)
      S.W[wIdx(X, Y)] = Meet;
    BitSet64 MeetRmw = S.VRmw[vIdx(T, Y)] & S.WRmw[wIdx(X, Y)];
    S.VRmw[vIdx(T, Y)] = MeetRmw;
    if (Y != X)
      S.WRmw[wIdx(X, Y)] = MeetRmw;
  }
  S.W[wIdx(X, X)].clear();
  S.WRmw[wIdx(X, X)].clear();

  // The demoted wmax_x is now read by this RMW, so it joins V/W (readable
  // by RAG reads) but *not* VRMW/WRMW (excluded by mo|imm;[RMW]).
  for (unsigned P = 0; P != NumThreads; ++P) {
    if (P == T)
      continue;
    S.V[vIdx(P, X)] |= VRSet;
  }
  for (unsigned Z : RaLocs) {
    if (Z == X)
      continue;
    S.W[wIdx(Z, X)] |= VRSet;
  }

  if (!Abstract)
    return;

  // Appendix C, RMW column.
  BitSet64 MeetCv = S.CV[T] & S.CW[X];
  S.CW[X] = MeetCv;
  S.CV[T] = MeetCv;
  BitSet64 MeetCvRmw = S.CVRmw[T] & S.CWRmw[X];
  S.CWRmw[X] = MeetCvRmw;
  S.CVRmw[T] = MeetCvRmw;
  if (!VRCrit) {
    for (unsigned P = 0; P != NumThreads; ++P)
      if (P != T)
        S.CV[P].insert(X);
    for (unsigned Z : RaLocs)
      if (Z != X)
        S.CW[Z].insert(X);
  }
}

//===----------------------------------------------------------------------===//
// Theorem 5.3 robustness conditions
//===----------------------------------------------------------------------===//

std::optional<MonitorViolation>
SCMonitor::checkAccess(const State &S, ThreadId T, const MemAccess &A) const {
  if (A.IsNA)
    return std::nullopt; // NA accesses are covered by the race check.
  LocId X = A.Loc;
  // All conditions are gated on hbSC-awareness of wmax_x (condition (a)
  // of the non-robustness witness, Theorem 5.1).
  if (!S.VSC[T].contains(X))
    return std::nullopt;

  auto critViolation = [&](AccessType Type, BitSet64 Set) {
    return MonitorViolation{Type, X, static_cast<Val>(Set.front()), true};
  };
  auto nonCritViolation = [&](AccessType Type) {
    return MonitorViolation{Type, X, static_cast<Val>(0xff), false};
  };

  const BitSet64 &VSet = S.V[vIdx(T, X)];
  const BitSet64 &VRmwSet = S.VRmw[vIdx(T, X)];

  switch (A.K) {
  case MemAccess::Kind::Write:
  case MemAccess::Kind::Fadd:
  case MemAccess::Kind::Xchg:
    // Enabled labels: W(x,·) resp. RMW(x,v,·) for every v. Violation iff
    // some write (any value) could serve as a non-maximal RAG predecessor.
    if (!VRmwSet.empty())
      return critViolation(
          A.K == MemAccess::Kind::Write ? AccessType::W : AccessType::RMW,
          VRmwSet);
    if (Abstract && S.CVRmw[T].contains(X))
      return nonCritViolation(
          A.K == MemAccess::Kind::Write ? AccessType::W : AccessType::RMW);
    return std::nullopt;

  case MemAccess::Kind::Read:
    // Enabled: R(x,v) for every v.
    if (!VSet.empty())
      return critViolation(AccessType::R, VSet);
    if (Abstract && S.CV[T].contains(X))
      return nonCritViolation(AccessType::R);
    return std::nullopt;

  case MemAccess::Kind::Cas: {
    // Enabled: RMW(x,Expected,Desired) and R(x,v) for v ≠ Expected.
    if (VRmwSet.contains(A.Expected))
      return MonitorViolation{AccessType::RMW, X, A.Expected, true};
    BitSet64 Plain = VSet;
    Plain.remove(A.Expected);
    if (!Plain.empty())
      return critViolation(AccessType::R, Plain);
    if (Abstract && S.CV[T].contains(X))
      return nonCritViolation(AccessType::R);
    return std::nullopt;
  }

  case MemAccess::Kind::Wait:
    // Enabled: R(x,Expected) only (this is what masks benign spin-loop
    // violations, Section 2.3).
    if (VSet.contains(A.Expected))
      return MonitorViolation{AccessType::R, X, A.Expected, true};
    return std::nullopt;

  case MemAccess::Kind::Bcas:
    if (VRmwSet.contains(A.Expected))
      return MonitorViolation{AccessType::RMW, X, A.Expected, true};
    return std::nullopt;
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//
//
// Every chunk has a program-constant length, so each emitter sizes the
// output once and writes through a pointer. Sets are stored as whole
// little-endian words at their fixed offsets, in increasing order: the
// next store overwrites the excess, and the 8 bytes of slack past the
// chunk are trimmed at the end.

namespace {

constexpr size_t Slack = sizeof(uint64_t);

/// Stores \p Bits as a little-endian word at \p P.
inline void put(char *P, uint64_t Bits) {
  if constexpr (std::endian::native == std::endian::big)
    Bits = __builtin_bswap64(Bits);
  std::memcpy(P, &Bits, sizeof(Bits));
}

/// Writes each set of \p Sets in \p Bytes bytes.
char *putSets(const SCMField<BitSet64> &Sets, unsigned Bytes, char *P) {
  for (BitSet64 B : Sets) {
    put(P, B.mask());
    P += Bytes;
  }
  return P;
}

/// Appends the \p Len bytes \p Write(char *) writes and returns the end
/// of, with Slack spare bytes past them while it writes.
template <typename Fn>
void appendChunk(std::string &Out, size_t Len, Fn &&Write) {
  size_t Old = Out.size();
  Out.resize(Old + Len + Slack);
  [[maybe_unused]] char *End = Write(Out.data() + Old);
  assert(End == Out.data() + Old + Len);
  Out.resize(Old + Len);
}

} // namespace

// The writers keep members they loop over in locals: the stores through
// P may alias any member, which would otherwise be reloaded every step.

char *SCMonitor::writeValRow(const BitSet64 *Row, char *P) const {
  const ValColumn *Col = ValCols.data(), *End = Col + ValCols.size();
  if (!Abstract) {
    for (; Col != End; ++Col)
      put(P + Col->Offset, Row[Col->Loc].mask());
    return P + ValRowBytes;
  }
  const uint64_t *Tab = PackTab.data();
  unsigned InBytes = PackInBytes;
  for (; Col != End; ++Col) {
    uint64_t Bits = Row[Col->Loc].mask(), Packed = 0;
    for (unsigned K = 0; K != InBytes; ++K, Tab += 256)
      Packed |= Tab[(Bits >> (8 * K)) & 0xff];
    put(P + Col->Offset, Packed);
  }
  return P + ValRowBytes;
}

char *SCMonitor::writeGlobal(const State &S, char *P) const {
  unsigned L = NumLocs, LB = LocBytes;
  std::memcpy(P, S.M.data(), L);
  P += L;
  P = putSets(S.MSC, LB, P);
  P = putSets(S.WSC, LB, P);
  for (const BitSet64 *Row = S.W.data(), *End = Row + S.W.size(); Row != End;
       Row += L)
    P = writeValRow(Row, P);
  for (const BitSet64 *Row = S.WRmw.data(), *End = Row + S.WRmw.size();
       Row != End; Row += L)
    P = writeValRow(Row, P);
  P = putSets(S.CW, LB, P);
  return putSets(S.CWRmw, LB, P);
}

char *SCMonitor::writeThread(const State &S, unsigned T, char *P) const {
  unsigned LB = LocBytes;
  put(P, S.VSC[T].mask());
  P = writeValRow(&S.V[T * NumLocs], P + LB);
  P = writeValRow(&S.VRmw[T * NumLocs], P);
  if (Abstract) {
    put(P, S.CV[T].mask());
    put(P + LB, S.CVRmw[T].mask());
    P += 2 * LB;
  }
  return P;
}

void SCMonitor::serializeGlobal(const State &S, std::string &Out) const {
  appendChunk(Out, GlobalBytes, [&](char *P) { return writeGlobal(S, P); });
}

void SCMonitor::serializeThread(const State &S, unsigned T,
                                std::string &Out) const {
  appendChunk(Out, ThreadBytes,
              [&](char *P) { return writeThread(S, T, P); });
}

void SCMonitor::serialize(const State &S, std::string &Out) const {
  appendChunk(Out, GlobalBytes + NumThreads * ThreadBytes, [&](char *P) {
    P = writeGlobal(S, P);
    for (unsigned T = 0; T != NumThreads; ++T)
      P = writeThread(S, T, P);
    return P;
  });
}

//===----------------------------------------------------------------------===//
// Deserialization
//===----------------------------------------------------------------------===//
//
// The readers walk the same fixed offsets as the writers. Each set is one
// whole-word load masked to its bytes (in abstract mode, one UnpackTab
// lookup per packed byte), so a read may run up to 8 bytes past the key.

namespace {

/// Loads the little-endian word at \p P.
inline uint64_t get(const char *P) {
  uint64_t Bits;
  std::memcpy(&Bits, P, sizeof(Bits));
  if constexpr (std::endian::native == std::endian::big)
    Bits = __builtin_bswap64(Bits);
  return Bits;
}

/// Reads each set of \p Sets from \p Bytes bytes.
const char *getSets(SCMField<BitSet64> &Sets, unsigned Bytes, uint64_t Mask,
                    const char *P) {
  for (BitSet64 &B : Sets) {
    B = BitSet64::fromMask(get(P) & Mask);
    P += Bytes;
  }
  return P;
}

} // namespace

const char *SCMonitor::readValRow(BitSet64 *Row, const char *P) const {
  // Locations whose sets take no bytes (abstract mode: no critical
  // values) have no column; their sets are empty.
  if (ValCols.size() != NumLocs)
    std::fill(Row, Row + NumLocs, BitSet64());
  const ValColumn *Col = ValCols.data(), *End = Col + ValCols.size();
  if (!Abstract) {
    uint64_t Mask = ValMask;
    for (; Col != End; ++Col)
      Row[Col->Loc] = BitSet64::fromMask(get(P + Col->Offset) & Mask);
    return P + ValRowBytes;
  }
  const uint64_t *Tab = UnpackTab.data();
  unsigned OutBytes = PackOutBytes;
  for (; Col != End; ++Col) {
    uint64_t Packed = get(P + Col->Offset), Bits = 0;
    for (unsigned K = 0; K != OutBytes; ++K, Tab += 256)
      Bits |= Tab[(Packed >> (8 * K)) & 0xff];
    Row[Col->Loc] = BitSet64::fromMask(Bits);
  }
  return P + ValRowBytes;
}

const char *SCMonitor::readGlobal(State &S, const char *P) const {
  unsigned L = NumLocs, LB = LocBytes;
  uint64_t Mask = LocMask;
  std::memcpy(S.M.data(), P, L);
  P += L;
  P = getSets(S.MSC, LB, Mask, P);
  P = getSets(S.WSC, LB, Mask, P);
  for (BitSet64 *Row = S.W.data(), *End = Row + S.W.size(); Row != End;
       Row += L)
    P = readValRow(Row, P);
  for (BitSet64 *Row = S.WRmw.data(), *End = Row + S.WRmw.size(); Row != End;
       Row += L)
    P = readValRow(Row, P);
  P = getSets(S.CW, LB, Mask, P);
  return getSets(S.CWRmw, LB, Mask, P);
}

const char *SCMonitor::readThread(State &S, unsigned T, const char *P) const {
  unsigned LB = LocBytes;
  uint64_t Mask = LocMask;
  S.VSC[T] = BitSet64::fromMask(get(P) & Mask);
  P = readValRow(&S.V[T * NumLocs], P + LB);
  P = readValRow(&S.VRmw[T * NumLocs], P);
  if (Abstract) {
    S.CV[T] = BitSet64::fromMask(get(P) & Mask);
    S.CVRmw[T] = BitSet64::fromMask(get(P + LB) & Mask);
    P += 2 * LB;
  }
  return P;
}

const char *SCMonitor::decodeState(const char *P, State &S) const {
  if (!S.hasShape(NumThreads, NumLocs, Abstract))
    S = State(NumThreads, NumLocs, Abstract);
  P = readGlobal(S, P);
  for (unsigned T = 0; T != NumThreads; ++T)
    P = readThread(S, T, P);
  return P;
}
