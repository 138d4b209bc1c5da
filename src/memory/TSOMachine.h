//===- memory/TSOMachine.h - x86-TSO store-buffer machine ------*- C++ -*-===//
///
/// \file
/// An operational x86-TSO memory subsystem (Owens et al. 2009): each
/// thread owns a FIFO store buffer; writes enter the buffer, buffered
/// writes drain to main memory via internal steps, reads forward from the
/// thread's own newest buffered write when present, and RMWs (locked
/// instructions) require an empty buffer and act directly on memory.
///
/// This is the substrate for the Figure 7 "Trencher" baseline column: the
/// paper compares Rocker against a TSO robustness checker, which we
/// reproduce as bounded-buffer state-robustness checking (see
/// tso/TSORobustness.h). Buffers are bounded by a configurable capacity;
/// the corpus programs never saturate realistic bounds, and the bound is
/// reported so saturation can be detected.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_MEMORY_TSOMACHINE_H
#define ROCKER_MEMORY_TSOMACHINE_H

#include "lang/Program.h"
#include "lang/Step.h"

#include <atomic>
#include <string>
#include <vector>

namespace rocker {

/// The TSO machine with per-thread bounded FIFO store buffers.
class TSOMachine {
public:
  struct BufferedWrite {
    LocId Loc;
    Val V;
    friend bool operator==(const BufferedWrite &A, const BufferedWrite &B) {
      return A.Loc == B.Loc && A.V == B.V;
    }
  };

  struct State {
    std::vector<Val> Mem;
    std::vector<std::vector<BufferedWrite>> Buf; ///< Front = oldest.
    friend bool operator==(const State &A, const State &B) {
      return A.Mem == B.Mem && A.Buf == B.Buf;
    }
  };

  explicit TSOMachine(const Program &P, unsigned BufferBound = 4)
      : NumVals(P.NumVals), NumLocs(P.numLocs()),
        NumThreads(P.numThreads()), BufferBound(BufferBound) {}

  State initial() const {
    State S;
    S.Mem.assign(NumLocs, 0);
    S.Buf.resize(NumThreads);
    return S;
  }

  template <typename Fn>
  void enumerate(const State &S, ThreadId T, const MemAccess &A, Fn F) const {
    if (A.K == MemAccess::Kind::Write) {
      if (S.Buf[T].size() >= BufferBound) {
        Saturated.store(true, std::memory_order_relaxed);
        return; // Must drain first (internal step is always enabled).
      }
      State Next = S;
      Next.Buf[T].push_back(BufferedWrite{A.Loc, A.WriteVal});
      F(Label::write(A.Loc, A.WriteVal, A.IsNA), std::move(Next));
      return;
    }

    if (A.K == MemAccess::Kind::Read || A.K == MemAccess::Kind::Wait) {
      Val V = readValue(S, T, A.Loc);
      if (classifyRead(A, V) == ReadOutcome::Blocked)
        return;
      F(Label::read(A.Loc, V, A.IsNA), State(S));
      return;
    }

    // RMWs are locked instructions: they require an empty buffer and act
    // atomically on main memory. A failed CAS still requires the flush
    // (on x86 even a failed locked cmpxchg drains the buffer).
    if (!S.Buf[T].empty())
      return;
    Val V = S.Mem[A.Loc];
    ReadOutcome O = classifyRead(A, V);
    if (O == ReadOutcome::Blocked)
      return;
    if (O == ReadOutcome::PlainRead) { // Failed CAS.
      F(Label::read(A.Loc, V, A.IsNA), State(S));
      return;
    }
    Val VW = rmwWriteVal(A, V, NumVals);
    State Next = S;
    Next.Mem[A.Loc] = VW;
    F(Label::rmw(A.Loc, V, VW), std::move(Next));
  }

  /// Internal steps: each thread with a non-empty buffer may drain its
  /// oldest write to memory.
  template <typename Fn>
  void enumerateInternal(const State &S, Fn F) const {
    for (unsigned T = 0; T != NumThreads; ++T) {
      if (S.Buf[T].empty())
        continue;
      State Next = S;
      BufferedWrite W = Next.Buf[T].front();
      Next.Buf[T].erase(Next.Buf[T].begin());
      Next.Mem[W.Loc] = W.V;
      F(static_cast<ThreadId>(T), std::move(Next));
    }
  }

  /// Partial-order reduction opt-in (explore/Por.h): only states where
  /// every store buffer is empty are eligible — there stepping is
  /// deterministic for the never-blocking access kinds (a write cannot be
  /// refused by the bound when BufferBound >= 1, reads hit main memory,
  /// RMWs see their empty-buffer precondition satisfied), no flush is
  /// enabled, and steps on distinct locations commute. With non-empty
  /// buffers pending flushes are competing internal steps, so the engine
  /// falls back to full expansion.
  bool porEligible(const State &S) const {
    if (BufferBound < 1)
      return false;
    for (const std::vector<BufferedWrite> &B : S.Buf)
      if (!B.empty())
        return false;
    return true;
  }

  void serialize(const State &S, std::string &Out) const {
    serializeComponents(S, Out, [] {});
  }

  /// Component split for the compressed visited set
  /// (support/StateInterner.h): main memory is one chunk, each thread's
  /// store buffer another — an exploration step touches at most one
  /// buffer, so the buffer chunks hash-cons well. Concatenating the
  /// chunks reproduces serialize()'s byte string exactly.
  unsigned numComponents() const { return 1 + NumThreads; }
  /// The trailing NumThreads buffer chunks are per-thread (tree-layout
  /// hint; see buildSlotOrder in support/StateInterner.h).
  unsigned perThreadTailComponents() const { return NumThreads; }

  template <typename Fn>
  void serializeComponents(const State &S, std::string &Out, Fn Cut) const {
    Out.append(reinterpret_cast<const char *>(S.Mem.data()), S.Mem.size());
    Cut();
    for (const std::vector<BufferedWrite> &B : S.Buf) {
      Out.push_back(static_cast<char>(B.size()));
      for (const BufferedWrite &W : B) {
        Out.push_back(static_cast<char>(W.Loc));
        Out.push_back(static_cast<char>(W.V));
      }
      Cut();
    }
  }

  /// Single-chunk re-emission for the incremental visited path:
  /// appends exactly the bytes serializeComponents emits for \p Chunk.
  void serializeComponent(const State &S, unsigned Chunk,
                          std::string &Out) const {
    if (Chunk == 0) {
      Out.append(reinterpret_cast<const char *>(S.Mem.data()), S.Mem.size());
      return;
    }
    const std::vector<BufferedWrite> &B = S.Buf[Chunk - 1];
    Out.push_back(static_cast<char>(B.size()));
    for (const BufferedWrite &W : B) {
      Out.push_back(static_cast<char>(W.Loc));
      Out.push_back(static_cast<char>(W.V));
    }
  }

  /// Chunks a step by thread \p T with access \p A may change, as a bit
  /// mask over the chunk indices above. Reads (including failed CAS
  /// compares) copy the state unchanged; a write appends to T's buffer
  /// (chunk 1 + T); a successful RMW writes main memory with an empty
  /// buffer (chunk 0); an internal flush (nullptr \p A) pops T's buffer
  /// into memory (chunks 0 and 1 + T).
  uint64_t dirtyComponents(ThreadId T, const MemAccess *A) const {
    if (!A)
      return uint64_t{1} | (uint64_t{1} << (1 + T));
    switch (A->K) {
    case MemAccess::Kind::Read:
    case MemAccess::Kind::Wait:
      return 0;
    case MemAccess::Kind::Write:
      return uint64_t{1} << (1 + T);
    default: // Fadd/Xchg/Cas/Bcas: locked RMW straight to memory.
      return uint64_t{1};
    }
  }

  /// True if some write was ever refused because of the buffer bound (the
  /// exploration is then an under-approximation of TSO).
  bool saturated() const {
    return Saturated.load(std::memory_order_relaxed);
  }

private:
  /// TSO read: newest buffered write to the location in the thread's own
  /// buffer, else main memory.
  Val readValue(const State &S, ThreadId T, LocId L) const {
    const std::vector<BufferedWrite> &B = S.Buf[T];
    for (auto It = B.rbegin(); It != B.rend(); ++It)
      if (It->Loc == L)
        return It->V;
    return S.Mem[L];
  }

  unsigned NumVals;
  unsigned NumLocs;
  unsigned NumThreads;
  unsigned BufferBound;
  /// Atomic: enumerate() runs concurrently from the parallel engine's
  /// workers (making TSOMachine non-copyable, which nothing relies on).
  mutable std::atomic<bool> Saturated{false};
};

} // namespace rocker

#endif // ROCKER_MEMORY_TSOMACHINE_H
