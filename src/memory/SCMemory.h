//===- memory/SCMemory.h - Sequentially consistent memory ------*- C++ -*-===//
///
/// \file
/// The SC memory subsystem of Section 2.3: a state is a plain mapping from
/// locations to their most recently written value; reads are deterministic.
/// This class follows the memory-subsystem interface used by the product
/// explorer (see explore/Explorer.h):
///
///   State     — copyable, serializable snapshot of the subsystem;
///   initial   — the state with all locations 0;
///   enumerate — all ⟨label, successor⟩ pairs the subsystem allows for a
///               thread's pending access;
///   enumerateInternal — internal (non-program) steps; none for SC.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_MEMORY_SCMEMORY_H
#define ROCKER_MEMORY_SCMEMORY_H

#include "lang/Program.h"
#include "lang/Step.h"

#include <string>
#include <vector>

namespace rocker {

/// SC memory: location -> most recent value.
class SCMemory {
public:
  using State = std::vector<Val>;

  explicit SCMemory(const Program &P)
      : NumVals(P.NumVals), NumLocs(P.numLocs()) {}

  State initial() const { return State(NumLocs, 0); }

  /// Enumerates the (at most one) transition SC allows for access \p A.
  template <typename Fn>
  void enumerate(const State &S, ThreadId T, const MemAccess &A, Fn F) const {
    if (A.K == MemAccess::Kind::Write) {
      State Next = S;
      Next[A.Loc] = A.WriteVal;
      F(Label::write(A.Loc, A.WriteVal, A.IsNA), std::move(Next));
      return;
    }
    Val V = S[A.Loc];
    ReadOutcome O = classifyRead(A, V);
    if (O == ReadOutcome::Blocked)
      return;
    if (O == ReadOutcome::PlainRead) {
      F(Label::read(A.Loc, V, A.IsNA), State(S));
      return;
    }
    Val VW = rmwWriteVal(A, V, NumVals);
    State Next = S;
    Next[A.Loc] = VW;
    F(Label::rmw(A.Loc, V, VW), std::move(Next));
  }

  /// SC has no internal steps.
  template <typename Fn>
  void enumerateInternal(const State &S, Fn F) const {}

  /// Partial-order reduction opt-in (explore/Por.h): SC stepping is
  /// deterministic, has no internal steps, and steps on distinct
  /// locations trivially commute, so every state is eligible.
  bool porEligible(const State &) const { return true; }

  // No serializeComponents hook: the state is a single flat value vector,
  // so the compressed visited set's one-chunk default (see
  // support/StateInterner.h) is already the right granularity.
  void serialize(const State &S, std::string &Out) const {
    Out.append(reinterpret_cast<const char *>(S.data()), S.size());
  }

  /// The state is exactly its value vector, so its key has a fixed
  /// length and decodes by copying it back.
  size_t stateKeyBytes() const { return NumLocs; }

  const char *decodeState(const char *P, State &S) const {
    S.assign(P, P + NumLocs);
    return P + NumLocs;
  }

private:
  unsigned NumVals;
  unsigned NumLocs;
};

} // namespace rocker

#endif // ROCKER_MEMORY_SCMEMORY_H
