//===- monitor/SCMState.h - The SCM instrumented-SC monitor ----*- C++ -*-===//
///
/// \file
/// The finite instrumented-SC memory subsystem SCM of Section 5 — the
/// paper's core contribution. A state I tracks, for the execution graph G
/// of the SC run so far (Lemma 5.2 relates I to I(G)):
///
///  * M    — location -> value written by the mo-maximal write (plain SC);
///  * VSC  — per thread τ: the locations x whose mo-maximal write wmax_x
///           is hbSC?-before some event of τ (hbSC-awareness);
///  * MSC  — per location x: the locations y with an hbSC?-path from
///           wmax_y to some event accessing x (helper for VSC);
///  * WSC  — per location x: the locations y with an hbSC?-path from
///           wmax_y to wmax_x (helper for VSC on reads);
///  * V    — per ⟨τ,x⟩: values written by non-mo-maximal writes to x that
///           RAG would still let τ read (no mo;hb?-path into τ's events);
///  * VRMW — like V but further excluding writes already read by an RMW
///           (candidates for RAG write/RMW predecessors);
///  * W,WRMW — per ⟨x,y⟩ helper sets used to restore V/VRMW when a thread
///           reads wmax_x (they record the same information relative to
///           wmax_x instead of a thread).
///
/// Transitions implement Figures 5 and 6 verbatim; the robustness checks
/// implement Theorem 5.3. With the critical-value abstraction of
/// Section 5.1 enabled, V/VRMW/W/WRMW are restricted to each location's
/// critical values and non-critical values are summarized disjunctively
/// by CV/CVRMW (per thread) and CW/CWRMW (per location), maintained per
/// Appendix C and checked via the three extra Theorem 5.3 conditions.
///
/// Non-atomic accesses (Section 6) only update M; the instrumentation
/// applies to release/acquire locations exclusively. SCM follows the
/// explorer's memory-subsystem interface, so verifying robustness is
/// literally a reachability run of the product P × SCM under SC.
///
/// SCM is finite-state, and every component's size is fixed by |Tid|,
/// |Loc| and the abstraction flag. A state is therefore one heap buffer
/// (the bit-set tables back to back, then M) with the components as
/// views into it, and its visited-set key has a fixed layout: SCMonitor
/// precomputes every chunk's length and every set's offset, and writes
/// each chunk through a pointer into a buffer sized once. That key is the
/// monitor's one byte format: decodeState inverts it, so the visited set,
/// the sequential frontier and checkpoints all hold the same bytes.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_MONITOR_SCMSTATE_H
#define ROCKER_MONITOR_SCMSTATE_H

#include "lang/CriticalValues.h"
#include "lang/Program.h"
#include "lang/Step.h"
#include "support/BitSet64.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace rocker {

/// One SCMState field: a fixed-length run of the state's buffer, indexed
/// and iterated like a vector. Assigning one field to another copies the
/// elements (lengths must match), so a field behaves like the value it
/// views; only SCMState itself points fields at a buffer.
template <typename T> class SCMField {
public:
  SCMField() = default;
  SCMField(const SCMField &) = delete;

  SCMField &operator=(const SCMField &O) {
    assert(N == O.N && "SCMField lengths differ");
    std::copy(O.P, O.P + O.N, P);
    return *this;
  }

  T &operator[](size_t I) {
    assert(I < N && "SCMField index out of range");
    return P[I];
  }
  const T &operator[](size_t I) const {
    assert(I < N && "SCMField index out of range");
    return P[I];
  }

  size_t size() const { return N; }
  bool empty() const { return N == 0; }
  T *data() { return P; }
  const T *data() const { return P; }
  T *begin() { return P; }
  T *end() { return P + N; }
  const T *begin() const { return P; }
  const T *end() const { return P + N; }

private:
  friend struct SCMState;
  void reset(T *Ptr, size_t Len) {
    P = Ptr;
    N = Len;
  }

  T *P = nullptr;
  size_t N = 0;
};

/// The monitor's per-state data. M and the eleven bit-set tables live in
/// one heap buffer whose layout is fixed by |Tid|, |Loc| and the
/// abstraction flag: the tables back to back in the order declared below
/// (VSC first, CWRmw last), then M padded to a whole word. The named
/// fields are views into that buffer (SCMField), so copying a state is one
/// allocation plus a memcpy and == compares the buffer. Index helpers
/// live in SCMonitor.
struct SCMState {
  SCMField<Val> M;           ///< Per location.
  SCMField<BitSet64> VSC;    ///< Per thread: set of locations.
  SCMField<BitSet64> MSC;    ///< Per location: set of locations.
  SCMField<BitSet64> WSC;    ///< Per location: set of locations.
  SCMField<BitSet64> V;      ///< [τ * NumLocs + x]: set of values.
  SCMField<BitSet64> VRmw;   ///< [τ * NumLocs + x]: set of values.
  SCMField<BitSet64> W;      ///< [x * NumLocs + y]: set of values.
  SCMField<BitSet64> WRmw;   ///< [x * NumLocs + y]: set of values.
  // Abstract value management (empty fields when disabled):
  SCMField<BitSet64> CV;     ///< Per thread: set of locations.
  SCMField<BitSet64> CVRmw;  ///< Per thread: set of locations.
  SCMField<BitSet64> CW;     ///< Per location: set of locations.
  SCMField<BitSet64> CWRmw;  ///< Per location: set of locations.

  /// An empty state with no buffer (assign a real one before use).
  SCMState() = default;

  /// An all-zero state: M = 0 everywhere and every set empty.
  SCMState(unsigned NumThreads, unsigned NumLocs, bool Abstract)
      : Threads(NumThreads), Locs(NumLocs), Abs(Abstract),
        Words(numMasks(NumThreads, NumLocs, Abstract) + (NumLocs + 7) / 8),
        Buf(allocate(Words)) {
    // All-zero words are empty sets (and M = 0), so one memset clears
    // every field; the cast says the words are raw storage here.
    if (Words)
      std::memset(static_cast<void *>(Buf.get()), 0,
                  Words * sizeof(BitSet64));
    bind();
  }

  SCMState(const SCMState &O) { *this = O; }

  SCMState(SCMState &&O) noexcept { take(O); }

  SCMState &operator=(const SCMState &O) {
    if (this == &O)
      return *this;
    if (Words != O.Words)
      Buf.reset(allocate(O.Words));
    Threads = O.Threads;
    Locs = O.Locs;
    Abs = O.Abs;
    Words = O.Words;
    if (Words)
      std::memcpy(Buf.get(), O.Buf.get(), Words * sizeof(BitSet64));
    bind();
    return *this;
  }

  SCMState &operator=(SCMState &&O) noexcept {
    if (this != &O)
      take(O);
    return *this;
  }

  /// Whether this state has the buffer layout of the given dimensions.
  bool hasShape(unsigned NumThreads, unsigned NumLocs, bool Abstract) const {
    return Words && Threads == NumThreads && Locs == NumLocs &&
           Abs == Abstract;
  }

  /// Bytes of the heap buffer (the object itself not included).
  size_t heapBytes() const { return Words * sizeof(BitSet64); }

  friend bool operator==(const SCMState &A, const SCMState &B) {
    return A.Threads == B.Threads && A.Locs == B.Locs && A.Abs == B.Abs &&
           (A.Words == 0 ||
            std::memcmp(A.Buf.get(), B.Buf.get(),
                        A.Words * sizeof(BitSet64)) == 0);
  }

  /// Number of bit sets in the tables VSC … CWRmw.
  static size_t numMasks(unsigned NumThreads, unsigned NumLocs,
                         bool Abstract) {
    size_t T = NumThreads, L = NumLocs;
    return T + 2 * L + 2 * T * L + 2 * L * L + (Abstract ? 2 * (T + L) : 0);
  }

private:
  struct Release {
    void operator()(BitSet64 *P) const { ::operator delete(P); }
  };

  static BitSet64 *allocate(size_t N) {
    return N ? static_cast<BitSet64 *>(::operator new(N * sizeof(BitSet64)))
             : nullptr;
  }

  /// Points the named views at this state's buffer.
  void bind() {
    BitSet64 *P = Buf.get();
    auto Take = [&P](SCMField<BitSet64> &F, size_t N) {
      F.reset(P, N);
      P += N;
    };
    size_t T = Threads, L = Locs;
    Take(VSC, T);
    Take(MSC, L);
    Take(WSC, L);
    Take(V, T * L);
    Take(VRmw, T * L);
    Take(W, L * L);
    Take(WRmw, L * L);
    Take(CV, Abs ? T : 0);
    Take(CVRmw, Abs ? T : 0);
    Take(CW, Abs ? L : 0);
    Take(CWRmw, Abs ? L : 0);
    M.reset(reinterpret_cast<Val *>(P), L);
  }

  /// Moves \p O's buffer into this state and leaves \p O empty.
  void take(SCMState &O) {
    Threads = O.Threads;
    Locs = O.Locs;
    Abs = O.Abs;
    Words = O.Words;
    Buf = std::move(O.Buf);
    bind();
    O.Threads = O.Locs = 0;
    O.Abs = false;
    O.Words = 0;
    O.bind();
  }

  uint16_t Threads = 0;
  uint16_t Locs = 0;
  bool Abs = false;
  uint32_t Words = 0; ///< Buffer length in 64-bit words.
  std::unique_ptr<BitSet64[], Release> Buf;
};

/// A robustness violation detected by the Theorem 5.3 conditions.
struct MonitorViolation {
  AccessType Type; ///< Access type of the offending enabled label.
  LocId Loc;
  /// A value witnessing the violation: some value RAG could read from a
  /// non-mo-maximal write while SCG could not (0xff when the witness is a
  /// non-critical value summarized by CV/CVRMW).
  Val WitnessVal;
  bool WitnessIsCritical;
};

/// The SCM memory subsystem. Implements the explorer interface and the
/// Theorem 5.3 / Section 5.1 robustness checks.
class SCMonitor {
public:
  using State = SCMState;

  /// \p Abstract selects the Section 5.1 critical-value abstraction.
  SCMonitor(const Program &P, bool Abstract);

  State initial() const;

  /// SC-deterministic stepping with monitor bookkeeping.
  template <typename Fn>
  void enumerate(const State &S, ThreadId T, const MemAccess &A, Fn F) const {
    if (A.K == MemAccess::Kind::Write) {
      State Next = S;
      stepWrite(Next, T, A.Loc, A.WriteVal, A.IsNA);
      F(Label::write(A.Loc, A.WriteVal, A.IsNA), std::move(Next));
      return;
    }
    Val VR = S.M[A.Loc];
    ReadOutcome O = classifyRead(A, VR);
    if (O == ReadOutcome::Blocked)
      return;
    if (O == ReadOutcome::PlainRead) {
      State Next = S;
      stepRead(Next, T, A.Loc, A.IsNA);
      F(Label::read(A.Loc, VR, A.IsNA), std::move(Next));
      return;
    }
    Val VW = rmwWriteVal(A, VR, NumVals);
    State Next = S;
    stepRmw(Next, T, A.Loc, VW);
    F(Label::rmw(A.Loc, VR, VW), std::move(Next));
  }

  template <typename Fn>
  void enumerateInternal(const State &, Fn) const {}

  /// Partial-order reduction opt-in (explore/Por.h): stepping is
  /// SC-deterministic with no internal steps, and the monitor updates of
  /// steps on distinct locations commute — every transition for a step on
  /// x by τ writes only τ-indexed rows, x-indexed columns, or x-indexed
  /// entries of the bitset tables above, and the one shared-column
  /// interleaving (a write |=-ing the same value set into V[·][x] and
  /// W[·][x] that a later read &=-s together) commutes because
  /// (a|v)&(b|v) = (a&b)|v. The checkAccess inputs for a pending access
  /// to y (VSC[τ]∋y, V[τ][y], CV[τ]∋y, M[y], Crit[y]) are likewise
  /// untouched by other threads' steps on x ≠ y, so deferring those
  /// steps cannot hide or invent a Theorem 5.3 violation. Hence every
  /// state is eligible; the explorer's location-disjointness test is the
  /// commutativity condition.
  bool porEligible(const State &) const { return true; }

  void serialize(const State &S, std::string &Out) const;

  /// Component split for the compressed visited set
  /// (support/StateInterner.h): one chunk of location-indexed
  /// instrumentation (M, MSC, WSC, W, WRMW, CW, CWRMW) plus one chunk per
  /// thread (VSC[τ], V/VRMW rows of τ, CV[τ], CVRMW[τ]) — a step by τ
  /// leaves the other threads' rows mostly untouched, so those chunks
  /// hash-cons well. serialize() emits the same chunks in the same order,
  /// so both visited-set representations induce the same state equality.
  unsigned numComponents() const { return 1 + NumThreads; }
  /// The trailing NumThreads chunks are per-thread (tree-layout hint;
  /// see buildSlotOrder in support/StateInterner.h).
  unsigned perThreadTailComponents() const { return NumThreads; }

  template <typename Fn>
  void serializeComponents(const State &S, std::string &Out, Fn Cut) const {
    serializeGlobal(S, Out);
    Cut();
    for (unsigned T = 0; T != NumThreads; ++T) {
      serializeThread(S, T, Out);
      Cut();
    }
  }

  /// Single-chunk re-emission for the incremental visited path:
  /// appends exactly the bytes serializeComponents emits for \p Chunk.
  void serializeComponent(const State &S, unsigned Chunk,
                          std::string &Out) const {
    if (Chunk == 0)
      serializeGlobal(S, Out);
    else
      serializeThread(S, Chunk - 1, Out);
  }

  /// Chunks a step by thread \p T with access \p A may change, as a bit
  /// mask over the chunk indices above (nullptr \p A = internal step;
  /// SCM has none, so that case is conservatively "all"). Derived from
  /// stepWrite/stepRead/stepRmw: an NA write touches only M (chunk 0),
  /// an NA read nothing; a non-NA plain read updates VSC[T]/MSC (chunk
  /// 0) and T's V/VRMW/CV rows (chunk 1 + T); writes and RMWs |= the
  /// demoted value into every other thread's V row, so all chunks are
  /// dirty. Cas/Bcas may land as plain reads (failed compare) or RMWs —
  /// the mask covers the union.
  uint64_t dirtyComponents(ThreadId T, const MemAccess *A) const {
    if (!A)
      return ~uint64_t{0};
    bool ReadOnly =
        A->K == MemAccess::Kind::Read || A->K == MemAccess::Kind::Wait;
    if (A->IsNA)
      return ReadOnly ? 0 : uint64_t{1};
    if (ReadOnly)
      return uint64_t{1} | (uint64_t{1} << (1 + T));
    return ~uint64_t{0};
  }

  /// Length of every key serialize() writes (fixed per program).
  size_t stateKeyBytes() const {
    return GlobalBytes + NumThreads * ThreadBytes;
  }

  /// The inverse of serialize(): reads the key at \p P into \p S
  /// (reshaping \p S first when it has another layout) and returns the
  /// key's end. decodeState(serialize(S)) == S for every state the
  /// transitions reach, whose value sets hold only values below |Val| —
  /// in abstract mode only critical values. It loads whole 64-bit words,
  /// so up to 8 bytes past the key are read and must exist.
  const char *decodeState(const char *P, State &S) const;

  /// Theorem 5.3 (+ Section 5.1 additions): does thread \p T's pending
  /// access witness non-robustness in state \p S?
  std::optional<MonitorViolation> checkAccess(const State &S, ThreadId T,
                                              const MemAccess &A) const;

  // Individual transition updates (public for the Lemma 5.2 property
  // tests, which replay SCG runs through them).
  void stepWrite(State &S, ThreadId T, LocId X, Val V, bool IsNA) const;
  void stepRead(State &S, ThreadId T, LocId X, bool IsNA) const;
  void stepRmw(State &S, ThreadId T, LocId X, Val VW) const;

  bool isAbstract() const { return Abstract; }
  const std::vector<BitSet64> &criticalValues() const { return Crit; }

private:
  unsigned vIdx(ThreadId T, LocId X) const { return T * NumLocs + X; }
  unsigned wIdx(LocId X, LocId Y) const { return X * NumLocs + Y; }

  /// Figure 5 maintenance for a write/RMW to X by T.
  void updateHbScOnWrite(State &S, ThreadId T, LocId X) const;
  /// Figure 5 maintenance for a read of X by T.
  void updateHbScOnRead(State &S, ThreadId T, LocId X) const;

  // serializeComponents' chunk emitters (see above). Each appends a
  // chunk of fixed length (GlobalBytes resp. ThreadBytes).
  void serializeGlobal(const State &S, std::string &Out) const;
  void serializeThread(const State &S, unsigned T, std::string &Out) const;
  // The chunk writers behind them: write one chunk at \p P and return
  // its end. They store whole 64-bit words, so up to 7 bytes past the
  // end are overwritten and must exist.
  char *writeGlobal(const State &S, char *P) const;
  char *writeThread(const State &S, unsigned T, char *P) const;
  /// Writes a row of value sets indexed by location: each set as its raw
  /// mask, or in abstract mode as its packed critical-value bits.
  char *writeValRow(const BitSet64 *Row, char *P) const;
  // decodeState's chunk readers, the writers' inverses.
  const char *readGlobal(State &S, const char *P) const;
  const char *readThread(State &S, unsigned T, const char *P) const;
  const char *readValRow(BitSet64 *Row, const char *P) const;

  unsigned NumThreads;
  unsigned NumLocs;
  unsigned NumVals;
  BitSet64 RaLocs;
  bool Abstract;
  std::vector<BitSet64> Crit; ///< Critical values per location (§5.1).

  // Serializer layout, fixed per program (see the constructor).
  /// A location whose value sets take at least one byte in a key, and
  /// the offset of those bytes within a row of value sets.
  struct ValColumn {
    LocId Loc;
    uint16_t Offset;
  };
  unsigned LocBytes;               ///< Bytes per set of locations.
  std::vector<ValColumn> ValCols;  ///< In location order.
  size_t ValRowBytes = 0;          ///< Bytes per row of value sets.
  unsigned PackInBytes = 0;        ///< Abstract: mask bytes PackTab reads.
  /// Abstract mode, [(C * PackInBytes + K) * 256 + Byte]: the packed
  /// critical-value bits of mask byte K of a value set of column C.
  std::vector<uint64_t> PackTab;
  unsigned PackOutBytes = 0;       ///< Abstract: widest packed value set.
  /// Abstract mode, [(C * PackOutBytes + K) * 256 + Byte]: the mask bits
  /// of packed byte K of a value set of column C (zero for the bytes of
  /// the next column when C packs into fewer than PackOutBytes).
  std::vector<uint64_t> UnpackTab;
  uint64_t LocMask;                ///< Decoding: the bits of locations.
  uint64_t ValMask;                ///< Decoding, full mode: value bits.
  size_t GlobalBytes;              ///< Length of chunk 0.
  size_t ThreadBytes;              ///< Length of each per-thread chunk.
};

} // namespace rocker

#endif // ROCKER_MONITOR_SCMSTATE_H
