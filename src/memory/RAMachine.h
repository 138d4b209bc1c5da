//===- memory/RAMachine.h - Operational release/acquire machine -*- C++ -*-===//
///
/// \file
/// The release/acquire memory subsystem of Section 3 (Figure 3): memory is
/// a pool of per-location messages carrying views, and each thread holds a
/// view bounding what it may read and where it may insert new messages.
///
/// We implement the machine in *dense positional* form: a message's
/// timestamp is its index in the per-location modification order, and
/// views map locations to indices. Timestamps in the paper's machine only
/// matter through (a) their per-location order and (b) the RMW adjacency
/// requirement (an RMW's message gets timestamp t+1 where t is the
/// timestamp it read); both are preserved by renumbering timestamps to
/// positions — this is precisely the RAG presentation of Section 4.2,
/// which Lemma 4.8 proves trace-equivalent to the timestamp machine. The
/// positional form has two advantages for explicit-state exploration:
/// states are canonical (no gap-induced redundancy) and state spaces of
/// bounded programs are finite.
///
/// Writes insert a message immediately after any chosen predecessor the
/// thread has not "seen past" (its view is not beyond the predecessor),
/// subject to never separating an RMW message from the message it read.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_MEMORY_RAMACHINE_H
#define ROCKER_MEMORY_RAMACHINE_H

#include "lang/Program.h"
#include "lang/Step.h"

#include <cstdint>
#include <string>
#include <vector>

namespace rocker {

/// A view: for each location, the index (position in that location's
/// modification order) of the maximal message observed.
using View = std::vector<uint8_t>;

/// A timestamped message ⟨x=v@t, T⟩; x and t are implicit (the containing
/// per-location vector and the index within it).
struct RAMessage {
  Val V;
  bool IsRmw; ///< Was this message added by an RMW? (atomicity guard)
  View MsgView;

  friend bool operator==(const RAMessage &A, const RAMessage &B) {
    return A.V == B.V && A.IsRmw == B.IsRmw && A.MsgView == B.MsgView;
  }
};

/// The RA machine.
class RAMachine {
public:
  struct State {
    /// Per location: messages in modification order (index = timestamp).
    std::vector<std::vector<RAMessage>> Mem;
    /// Per thread: its view.
    std::vector<View> TView;

    friend bool operator==(const State &A, const State &B) {
      return A.Mem == B.Mem && A.TView == B.TView;
    }
  };

  explicit RAMachine(const Program &P)
      : NumVals(P.NumVals), NumLocs(P.numLocs()),
        NumThreads(P.numThreads()) {}

  State initial() const;

  /// Enumerates every transition RA allows for access \p A of thread \p T:
  /// all readable messages and all legal insertion points.
  template <typename Fn>
  void enumerate(const State &S, ThreadId T, const MemAccess &A, Fn F) const {
    const std::vector<RAMessage> &Ms = S.Mem[A.Loc];
    unsigned From = S.TView[T][A.Loc];

    if (A.K == MemAccess::Kind::Write) {
      // Choose any predecessor position >= the thread's view, provided the
      // successor (if any) is not an RMW message (cannot separate an RMW
      // from the message it read).
      for (unsigned Pred = From; Pred != Ms.size(); ++Pred) {
        if (Pred + 1 < Ms.size() && Ms[Pred + 1].IsRmw)
          continue;
        F(Label::write(A.Loc, A.WriteVal, A.IsNA),
          insertAfterFor(S, T, A.Loc, Pred, A.WriteVal, /*IsRmw=*/false));
      }
      return;
    }

    for (unsigned J = From; J != Ms.size(); ++J) {
      Val V = Ms[J].V;
      ReadOutcome O = classifyRead(A, V);
      if (O == ReadOutcome::Blocked)
        continue;
      if (O == ReadOutcome::PlainRead) {
        State Next = S;
        joinInto(Next.TView[T], Ms[J].MsgView);
        F(Label::read(A.Loc, V, A.IsNA), std::move(Next));
        continue;
      }
      // RMW: must read a message whose immediate successor is not an RMW,
      // and insert its own message immediately after it.
      if (J + 1 < Ms.size() && Ms[J + 1].IsRmw)
        continue;
      Val VW = rmwWriteVal(A, V, NumVals);
      State Next = insertAfterFor(S, T, A.Loc, J, VW, /*IsRmw=*/true);
      // The RMW also acquires the view of the message it read (Figure 3:
      // TW = T(τ)[x -> t+1] ⊔ TR).
      // insertAfter already set the thread view; join the read view.
      View ReadView = Next.Mem[A.Loc][J].MsgView; // shifted copy
      joinInto(Next.TView[T], ReadView);
      Next.Mem[A.Loc][J + 1].MsgView = Next.TView[T];
      F(Label::rmw(A.Loc, V, VW), std::move(Next));
    }
  }

  /// RA has no internal steps.
  template <typename Fn>
  void enumerateInternal(const State &S, Fn F) const {}

  void serialize(const State &S, std::string &Out) const;

  /// Component split for the compressed visited set
  /// (support/StateInterner.h): one chunk per location (its message list)
  /// plus one per thread view. A step inserts into or reads one location
  /// and advances one view, but message insertion shifts views globally,
  /// so per-location granularity is what keeps untouched locations'
  /// chunks shared. Concatenating the chunks reproduces serialize()'s
  /// byte string exactly.
  unsigned numComponents() const { return NumLocs + NumThreads; }
  /// The trailing NumThreads view chunks are per-thread (tree-layout
  /// hint; see buildSlotOrder in support/StateInterner.h).
  unsigned perThreadTailComponents() const { return NumThreads; }

  template <typename Fn>
  void serializeComponents(const State &S, std::string &Out, Fn Cut) const {
    for (const std::vector<RAMessage> &Ms : S.Mem) {
      Out.push_back(static_cast<char>(Ms.size()));
      for (const RAMessage &M : Ms) {
        Out.push_back(static_cast<char>(M.V));
        Out.push_back(static_cast<char>(M.IsRmw));
        Out.append(reinterpret_cast<const char *>(M.MsgView.data()),
                   M.MsgView.size());
      }
      Cut();
    }
    for (const View &Vw : S.TView) {
      Out.append(reinterpret_cast<const char *>(Vw.data()), Vw.size());
      Cut();
    }
  }

  /// Single-chunk re-emission for the incremental visited path:
  /// appends exactly the bytes serializeComponents emits for \p Chunk.
  void serializeComponent(const State &S, unsigned Chunk,
                          std::string &Out) const {
    if (Chunk < NumLocs) {
      const std::vector<RAMessage> &Ms = S.Mem[Chunk];
      Out.push_back(static_cast<char>(Ms.size()));
      for (const RAMessage &M : Ms) {
        Out.push_back(static_cast<char>(M.V));
        Out.push_back(static_cast<char>(M.IsRmw));
        Out.append(reinterpret_cast<const char *>(M.MsgView.data()),
                   M.MsgView.size());
      }
      return;
    }
    const View &Vw = S.TView[Chunk - NumLocs];
    Out.append(reinterpret_cast<const char *>(Vw.data()), Vw.size());
  }

  /// Chunks a step by thread \p T with access \p A may change, as a bit
  /// mask over the chunk indices above. A plain read (Read/Wait) only
  /// joins the reading thread's view — chunk NumLocs + T. Anything that
  /// can insert a message (writes and the RMW-capable kinds) goes
  /// through insertAfterFor, which renumbers timestamps and shifts views
  /// everywhere — all chunks dirty. RA has no internal steps (nullptr
  /// \p A is conservatively "all").
  uint64_t dirtyComponents(ThreadId T, const MemAccess *A) const {
    if (A && (A->K == MemAccess::Kind::Read || A->K == MemAccess::Kind::Wait))
      return uint64_t{1} << (NumLocs + T);
    return ~uint64_t{0};
  }

  /// Inserts a new message for thread \p T at position Pred+1 of location
  /// \p L, shifting all views that point at or beyond the insertion point.
  /// Sets the thread's view to the new message and stamps the message with
  /// that view. Public so that machine variants with different placement
  /// policies (e.g. SRAMachine's maximal placement) can reuse it.
  State insertAfterFor(const State &S, ThreadId T, LocId L, unsigned Pred,
                       Val V, bool IsRmw) const;

private:
  /// Pointwise maximum (view join, ⊔ in Figure 3).
  static void joinInto(View &Dst, const View &Src) {
    for (unsigned I = 0; I != Dst.size(); ++I)
      if (Src[I] > Dst[I])
        Dst[I] = Src[I];
  }

  unsigned NumVals;
  unsigned NumLocs;
  unsigned NumThreads;
};

} // namespace rocker

#endif // ROCKER_MEMORY_RAMACHINE_H
