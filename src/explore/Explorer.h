//===- explore/Explorer.h - Explicit-state product explorer ----*- C++ -*-===//
///
/// \file
/// A breadth-first explicit-state model checker over the product of a
/// concurrent program (Section 2.2 LTS) and a memory subsystem
/// (Definition 2.4 concurrent system). This replaces Spin in the paper's
/// tool pipeline: Rocker reduces robustness to reachability under the
/// instrumented-SC subsystem SCM, so one generic reachability engine
/// serves SC, SCM, RA, TSO and the execution-graph subsystems alike.
///
/// A memory subsystem MemSys provides:
///   using State;                    // copyable, ==
///   State initial() const;
///   void enumerate(const State&, ThreadId, const MemAccess&, Fn) const;
///       // Fn(const Label&, State&&) for every allowed transition
///   void enumerateInternal(const State&, Fn) const;
///       // Fn(ThreadId, State&&) for internal steps (e.g. TSO flushes)
///   void serialize(const State&, std::string&) const;
///
/// Each state is expanded by the shared core (explore/Expand.h):
/// assertion checking, the Definition 6.1 data-race check on non-atomic
/// locations, a per-access hook (used for the Theorem 5.3 robustness
/// conditions), POR and ample-chain fast-forwarding. Around it this
/// engine keeps the frontier and deduplication via a hashed visited set
/// of serialized product states, optional parent tracking for
/// counterexample traces, a per-state hook that sees every newly
/// interned state once (used by the graph oracle), optional collection of
/// reachable program-state projections (used by the state-robustness
/// oracles), and the resilience governor.
///
/// State payloads live only in the frontier, a FIFO queue, and are
/// dropped once expanded: after that a state exists only as its
/// visited-set entry and, with RecordParents, a fixed-size trace edge
/// (ParentEdge, 12 bytes) from which the step text is rendered when a
/// trace is printed. For subsystems whose key decodes (HasStateCodec:
/// SCM, SC) a frontier entry is the state's key, the bytes the visited
/// probe built, and is decoded into one reused ProductState when popped
/// (explore/KeyFrontier.h, whose blocks are unmapped as they drain);
/// checkpoints write those keys verbatim. Other subsystems keep
/// ProductStates in the frontier.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_EXPLORE_EXPLORER_H
#define ROCKER_EXPLORE_EXPLORER_H

#include "explore/Expand.h"
#include "explore/KeyFrontier.h"
#include "lang/Label.h"
#include "lang/Printer.h"
#include "lang/Program.h"
#include "lang/Step.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "resilience/Checkpoint.h"
#include "resilience/Resilience.h"
#include "support/FaultInject.h"
#include "support/Hashing.h"
#include "support/PageArray.h"
#include "support/StateInterner.h"
#include "support/StateKey.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

namespace rocker {

/// One step of a counterexample trace.
struct TraceStep {
  ThreadId Thread;
  bool Internal;  ///< Memory-internal step (e.g. TSO buffer flush).
  bool IsAccess;  ///< True when L holds the access label of this step.
  Label L;        ///< Valid when IsAccess.
  std::string Text;
};

/// One trace edge of the sequential engine: the state a state was
/// discovered from, and enough of the step to re-render its text when a
/// trace is printed. The engine keeps one edge per stored state, so an
/// edge is packed into 12 bytes (24 as plain fields):
///
///   ParentLo u32 | Payload u32 | Collapsed u16 | ParentHi u8 | Bits u8
///
/// The parent id has 40 bits (ParentHi:ParentLo); a run would need 12 TiB
/// of edges to pass it. Bits holds the thread (4 bits; MaxThreads is 16)
/// and the Internal, IsAccess and IsNA flags. Payload holds FromPc on a
/// local step and the label's Type, Loc, ValR and ValW bytes on an access.
/// The expansion core leaves the other one zero (ExpandStep), and so does
/// every edge this class can represent (representable()).
class ParentEdge {
public:
  /// The edge's fields, unpacked.
  struct Fields {
    uint64_t Parent = 0;
    uint32_t FromPc = 0;    ///< Local steps: pc of the first ε-instruction.
    uint16_t Collapsed = 0; ///< Local steps: ε-instructions folded in.
    ThreadId Thread = 0;
    bool Internal = false;
    bool IsAccess = false;
    Label L{};
  };

  static constexpr uint64_t MaxParent = (uint64_t{1} << 40) - 1;

  /// True when \p F survives packing: the parent and thread fit, and the
  /// half of the payload a step does not use is zero.
  static bool representable(const Fields &F) {
    bool LabelZero = F.L.Type == AccessType{} && F.L.Loc == 0 &&
                     F.L.ValR == 0 && F.L.ValW == 0;
    return F.Parent <= MaxParent && F.Thread < MaxThreads &&
           (F.IsAccess ? F.FromPc == 0 : LabelZero);
  }

  ParentEdge() = default;
  explicit ParentEdge(const Fields &F)
      : ParentLo(static_cast<uint32_t>(F.Parent)),
        Payload(F.IsAccess ? static_cast<uint32_t>(F.L.Type) |
                                 uint32_t{F.L.Loc} << 8 |
                                 uint32_t{F.L.ValR} << 16 |
                                 uint32_t{F.L.ValW} << 24
                           : F.FromPc),
        Collapsed(F.Collapsed), ParentHi(static_cast<uint8_t>(F.Parent >> 32)),
        Bits(static_cast<uint8_t>(F.Thread | (F.Internal ? InternalBit : 0) |
                                  (F.IsAccess ? AccessBit : 0) |
                                  (F.L.IsNA ? NABit : 0))) {
    assert(representable(F) && "trace edge does not fit its packing");
  }

  Fields fields() const {
    Fields F;
    F.Parent = uint64_t{ParentHi} << 32 | ParentLo;
    F.Collapsed = Collapsed;
    F.Thread = static_cast<ThreadId>(Bits & ThreadMask);
    F.Internal = (Bits & InternalBit) != 0;
    F.IsAccess = (Bits & AccessBit) != 0;
    F.L.IsNA = (Bits & NABit) != 0;
    if (F.IsAccess) {
      F.L.Type = static_cast<AccessType>(Payload & 0xff);
      F.L.Loc = static_cast<LocId>(Payload >> 8);
      F.L.ValR = static_cast<Val>(Payload >> 16);
      F.L.ValW = static_cast<Val>(Payload >> 24);
    } else {
      F.FromPc = Payload;
    }
    return F;
  }

private:
  static constexpr uint8_t ThreadMask = 0x0f, InternalBit = 0x10,
                           AccessBit = 0x20, NABit = 0x40;

  uint32_t ParentLo = 0;
  uint32_t Payload = 0;
  uint16_t Collapsed = 0;
  uint8_t ParentHi = 0;
  uint8_t Bits = 0;
};
static_assert(sizeof(ParentEdge) == 12, "trace edges are 12 bytes");

/// Exploration statistics.
struct ExploreStats {
  uint64_t NumStates = 0;
  uint64_t NumTransitions = 0;
  /// States where no thread can step although not all have halted —
  /// blocked wait/BCAS instructions that can never be satisfied from
  /// there. Not an error (blocking is legal, Section 2.3), but useful
  /// diagnostics for protocol encodings.
  uint64_t NumDeadlockStates = 0;
  /// Transitions that led to an already-visited state. The dedup hit
  /// rate DedupHits / (DedupHits + NumStates) measures how much of the
  /// enumeration work the visited set absorbs.
  uint64_t DedupHits = 0;
  /// Maximum number of discovered-but-unexpanded states at any point.
  uint64_t PeakFrontier = 0;
  /// Estimated heap bytes held by the visited set at the end of the run.
  uint64_t VisitedBytes = 0;
  /// Estimated heap bytes a visited set of full serialized keys (one
  /// hash-map node per state) would have held.
  uint64_t VisitedRawBytes = 0;
  /// Engine-reported wall-clock time of the exploration; benches consume
  /// this instead of re-timing externally.
  double Seconds = 0;
  bool Truncated = false; ///< Hit the state budget: result is partial.
  /// Resilience outcome: degradation-ladder provenance, checkpoint
  /// activity, interruption/deadline/watchdog flags (resilience/
  /// Resilience.h). Default-constructed for runs with no resilience
  /// events.
  resilience::ResilienceReport Resilience;
  /// Expansion throughput per worker (one entry for the sequential
  /// engine, one per worker thread for the parallel engine).
  std::vector<double> PerThreadStatesPerSec;

  /// Per-worker counters, one entry per worker with the same layout for
  /// both engines (a single entry for the sequential engine), so report
  /// consumers don't special-case engine type. Totals across entries
  /// equal the whole-run counters above on full explorations.
  struct WorkerCounters {
    uint64_t Expanded = 0;    ///< States popped and expanded.
    uint64_t Transitions = 0; ///< Successor transitions generated.
    uint64_t DedupHits = 0;   ///< Successors that were already visited.
    uint64_t Deadlocks = 0;   ///< Deadlock states detected.
    uint64_t Steals = 0;      ///< Successful work steals (parallel only).
    double Seconds = 0;       ///< Worker wall time.
    double statesPerSec() const {
      return Seconds > 0 ? Expanded / Seconds : 0.0;
    }
  };
  std::vector<WorkerCounters> Workers;

  /// Visited-set compression ratio (raw / actual); 1 when nothing is
  /// stored.
  double compressionRatio() const {
    return VisitedBytes
               ? static_cast<double>(VisitedRawBytes) / VisitedBytes
               : 1.0;
  }
};

/// The sequential engine's search order. It has one value: the engine
/// is breadth-first, so counterexample traces are shortest. The enum and
/// the Order fields of ExploreOptions and RockerOptions have no effect and
/// leave with the options-struct merge in the next benchmark revision.
enum class SearchOrder : uint8_t {
  BFS,
};

/// Exploration options.
struct ExploreOptions {
  uint64_t MaxStates = UINT64_MAX;
  /// No effect (see SearchOrder).
  SearchOrder Order = SearchOrder::BFS;
  /// When non-zero, use Spin-style bitstate hashing with 2^k bits
  /// instead of storing full state keys: the visited set shrinks to
  /// 2^k/8 bytes, so only the visited bits and the unexpanded frontier
  /// (the only payloads any mode keeps) occupy memory — but hash
  /// collisions may prune reachable states, making "no violation"
  /// results approximate (violations found remain real).
  unsigned BitstateLog2 = 0;
  /// No effect: the exact visited set is always the collapse-compressed
  /// StateInterner. Leaves with the options-struct merge in the next
  /// benchmark revision.
  bool CompressVisited = true;
  bool RecordParents = true;
  bool StopOnViolation = true;
  bool CheckAssertions = true;
  bool CheckRaces = false;
  /// Collect the program-state projections (pcs + registers) of all
  /// reachable states, for state-robustness comparisons.
  bool CollectProgramStates = false;
  /// Collapse deterministic chains of thread-local (ε) steps into single
  /// transitions. Sound for violation detection — local steps neither
  /// touch memory nor change any thread's enabled accesses — but it
  /// changes the set of *stored* program states, so it must not be
  /// combined with CollectProgramStates.
  bool CollapseLocalSteps = false;
  /// Monitor-aware ample-set partial-order reduction (explore/Por.h):
  /// verdicts, violation sets, deadlock counts, and counterexample
  /// replay are preserved while typically far fewer states are expanded.
  /// Inert for subsystems without POR support and for
  /// CollectProgramStates runs (projection sets need the full state
  /// space). Default on; ROCKER_NO_POR=1 flips the default.
  bool UsePor = defaultUsePor();
  /// Phase the engine's wall time is attributed to. The parallel engine's
  /// deterministic replay re-runs this engine under obs::Phase::Replay so
  /// replay time is separable in run reports.
  obs::Phase TelemetryPhase = obs::Phase::Explore;
  /// Resource budgets, degradation ladder, and checkpoint/resume
  /// configuration (resilience/Resilience.h). All off by default. The
  /// engine polls the SIGINT/SIGTERM stop flag regardless, so a signal
  /// stops any run at the next governor tick.
  resilience::ResilienceOptions Resilience;
};

/// Result of an exploration.
struct ExploreResult {
  ExploreStats Stats;
  /// True when bitstate hashing was used: absence of violations is then
  /// approximate (Spin's -DBITSTATE caveat).
  bool Approximate = false;
  std::vector<Violation> Violations;
  /// Serialized program-state projections (when requested).
  std::unordered_set<std::string, StateKeyHash> ProgramStates;

  bool hasViolation() const { return !Violations.empty(); }
};

/// Checkpoint codec for violations (shared by both engines).
inline void encodeViolation(BinWriter &W, const Violation &V) {
  W.u8(static_cast<uint8_t>(V.K));
  W.u64(V.StateId);
  W.u8(V.Thread);
  W.varu64(V.Pc);
  W.u8(V.Loc);
  W.u8(V.Witness);
  W.u8(static_cast<uint8_t>(V.Type));
  W.str(V.Detail);
}

inline Violation decodeViolation(BinReader &R) {
  Violation V;
  V.K = static_cast<Violation::Kind>(R.u8());
  V.StateId = R.u64();
  V.Thread = R.u8();
  V.Pc = static_cast<uint32_t>(R.varu64());
  V.Loc = R.u8();
  V.Witness = R.u8();
  V.Type = static_cast<AccessType>(R.u8());
  V.Detail = R.str();
  return V;
}

/// Resume errors for sequential checkpoints in a retired format: the
/// depth-first search order (order byte 1) and the raw-key visited map
/// (visited-set tag 1).
inline std::string retiredSearchOrderError() {
  return "checkpoint uses the retired depth-first search order; start the "
         "run afresh";
}

inline std::string retiredRawVisitedError() {
  return "checkpoint uses the retired raw-key visited set (tag 1); start "
         "the run afresh";
}

/// The product explorer. \p AccessHook is called for every pending access
/// of every expanded state with (MemState, ThreadId, Pc, MemAccess) and
/// may return a Violation-like payload via std::optional<Violation>.
template <typename MemSys> class ProductExplorer {
public:
  using MemState = typename MemSys::State;

  using ProductState = typename ExpansionCore<MemSys>::ProductState;

  ProductExplorer(const Program &P, const MemSys &Mem, ExploreOptions Opts)
      : P(P), Mem(Mem), Opts(Opts),
        Core(P, Mem,
             {.CheckAssertions = Opts.CheckAssertions,
              .CheckRaces = Opts.CheckRaces,
              .StopOnViolation = Opts.StopOnViolation,
              .CollapseLocalSteps = Opts.CollapseLocalSteps,
              .UsePor = Opts.UsePor && !Opts.CollectProgramStates,
              .FastForward = !Opts.RecordParents}) {}

  /// Runs the exploration with an access hook and a state hook. The state
  /// hook sees every newly interned state exactly once (including the
  /// initial state) and may report a Violation, which is attributed to
  /// that state — the same contract as ParallelExplorer::runWithHooks.
  template <typename AccessHook, typename StateHook>
  ExploreResult runWithHooks(AccessHook Hook, StateHook SHook) {
    RunStart = std::chrono::steady_clock::now();
    LastCkptTime = RunStart;
    obs::Span PhaseSp(Opts.TelemetryPhase);
    obs::ProgressScope Progress(Opts.MaxStates);
    if (obs::traceActive()) {
      // Post-mortem dumps land next to the checkpoint when one exists.
      if (ckptActive())
        obs::traceSetCrashDumpPath(Opts.Resilience.CheckpointPath +
                                   ".trace.txt");
      obs::traceInstant(obs::TraceInstant::EngineStart, 1);
    }
    ExploreResult Res;
    auto &RR = Res.Stats.Resilience;
    uint64_t Expanded = 0;
    // Governor cadence: every 256 expansions normally; every expansion
    // when the deterministic test hook pins checkpoints to counts.
    GovMask = Opts.Resilience.CheckpointEveryExpansions ? 0 : 255;

    if (Opts.BitstateLog2 &&
        !resilience::bitstateLog2InRange(Opts.BitstateLog2)) {
      // Refused before anything is sized from it, like an unusable
      // resume: K < 6 makes no array word and K >= 64 shifts past 64 bits.
      RR.ResumeError = resilience::bitstateLog2Error(Opts.BitstateLog2);
      Res.Stats.Truncated = true;
      return Res;
    }
    if (Opts.BitstateLog2) {
      Res.Approximate = true;
      Rung = resilience::StorageRung::Bitstate;
      Bitstate.assignZeroed((static_cast<size_t>(1) << Opts.BitstateLog2) /
                            64);
    } else {
      Interner.emplace(P.numThreads() + memComponentCount(Mem));
      SlotOrder = buildSlotOrder(P.numThreads(), memComponentCount(Mem),
                                 memPerThreadTailComponents(Mem));
    }

    ProductState Init;
    Init.Threads.reserve(P.numThreads());
    for (const SequentialProgram &S : P.Threads)
      Init.Threads.push_back(ThreadState::initial(S));
    Init.M = Mem.initial();
    // The governor charges each frontier entry at its size: a key entry
    // or a resident ProductState.
    if constexpr (HasCodec)
      PayloadUnit = KeyFrontier::entryBytes(
          productStateKey(Mem, Init.Threads, Init.M).size());
    else
      PayloadUnit = Core.payloadBytes(Init);
    // Key entries are decoded into this state when popped; its threads
    // keep their register vectors across decodes.
    ProductState Cur;
    if constexpr (HasCodec)
      Cur.Threads = Init.Threads;

    bool Ready = true;
    if constexpr (HasCodec) {
      if (Opts.Resilience.wantsResume() || ckptActive())
        CfgHash = configHash();
    }
    if (Opts.Resilience.wantsResume()) {
      if constexpr (HasCodec) {
        if (Opts.CollectProgramStates) {
          RR.ResumeError =
              "checkpoint/resume is unsupported with program-state "
              "collection";
          Ready = false;
        } else if (!restoreCheckpoint(Res)) {
          Ready = false;
        }
      } else {
        RR.ResumeError =
            "checkpoint/resume is unsupported for this memory subsystem";
        Ready = false;
      }
      if (!Ready)
        Res.Stats.Truncated = true;
    }

    if (Ready && !RR.Resumed) {
      // The initial state fast-forwards too: state 0 is its chain
      // endpoint.
      auto Report = reporter(Res, 0);
      intern(Core.fastForward(std::move(Init), Scratch, Hook, Report,
                              countHop(Res)),
             Res, SHook);
    }
    Expanded = ExpandedBase;
    NextCkptExpansions =
        Expanded + Opts.Resilience.CheckpointEveryExpansions;

    while (Ready && !Frontier.empty()) {
      // Governor tick at the loop top: the frontier is then a
      // consistent cut for checkpoints.
      if ((Expanded & GovMask) == 0 && !governTick(Res, Expanded))
        break;
      if (NumStored >= Opts.MaxStates) {
        Res.Stats.Truncated = true;
        break;
      }
      Res.Stats.PeakFrontier =
          std::max(Res.Stats.PeakFrontier,
                   static_cast<uint64_t>(Frontier.size()));
      // The queue holds the newest states in discovery order, so the
      // front one's id is implicit.
      uint64_t Id = NumStored - Frontier.size();
      if constexpr (HasCodec) {
        decodeProductStateKey(Mem, Frontier.front().data(), Cur.Threads,
                              Cur.M);
        Frontier.popFront();
        expand(Id, Cur, Res, Hook, SHook);
      } else {
        ProductState Next = std::move(Frontier.front());
        Frontier.pop_front();
        expand(Id, Next, Res, Hook, SHook);
      }
      fi::maybeKill("explore.expand");
      if ((++Expanded & 1023) == 0)
        publishProgress(Res, Frontier.size());
      if (!Res.Violations.empty() && Opts.StopOnViolation)
        break;
    }

    // A truncated run (budget, deadline, signal, state cap) leaves a
    // final checkpoint so --resume can pick up exactly here.
    if (Res.Stats.Truncated && ckptActive() && RR.ResumeError.empty())
      writeCheckpoint(Res, Expanded, elapsedSeconds());

    Res.Stats.NumStates = NumStored;
    Res.Stats.VisitedBytes = visitedBytes();
    Res.Stats.VisitedRawBytes =
        Opts.BitstateLog2 ? RawVisitedBytes : Interner->rawBytes();
    Res.Stats.Seconds =
        SecondsBase +
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      RunStart)
            .count();
    RR.FinalRung = Rung;

    ExploreStats::WorkerCounters W;
    W.Expanded = Expanded;
    W.Transitions = Res.Stats.NumTransitions;
    W.DedupHits = Res.Stats.DedupHits;
    W.Deadlocks = Res.Stats.NumDeadlockStates;
    W.Seconds = Res.Stats.Seconds;
    Res.Stats.Workers.push_back(W);
    Res.Stats.PerThreadStatesPerSec.push_back(W.statesPerSec());

    // Bulk counters are accumulated in the run totals and flushed once
    // here, so the hot loop never touches telemetry TLS per transition.
    obs::add(obs::Ctr::Expansions, Expanded);
    obs::add(obs::Ctr::Transitions, Res.Stats.NumTransitions);
    obs::add(obs::Ctr::DedupHits, Res.Stats.DedupHits);
    obs::add(obs::Ctr::VisitedProbes, Res.Stats.NumTransitions + 1);
    obs::add(obs::Ctr::VisitedInserts, Res.Stats.NumStates);
    Scratch.Por.flush();
    if (obs::traceActive()) {
      // Final counter sample: short runs (POR-chained or tiny programs)
      // can finish inside one progress interval, and traces should
      // always end with the true totals on the counter tracks.
      obs::traceCounter(obs::TraceCounterTrack::States,
                        Res.Stats.NumStates);
      obs::traceCounter(obs::TraceCounterTrack::Frontier, 0);
      if (Res.hasViolation())
        obs::traceInstant(obs::TraceInstant::ViolationFound,
                          Res.Violations.front().StateId);
      obs::traceInstant(obs::TraceInstant::EngineStop,
                        Res.Stats.NumStates);
    }
    return Res;
  }

  /// Runs the exploration with an access hook only (see class comment).
  template <typename AccessHook>
  ExploreResult runWithHook(AccessHook Hook) {
    return runWithHooks(Hook, [](const ProductState &)
                            -> std::optional<Violation> {
      return std::nullopt;
    });
  }

  ExploreResult run() {
    return runWithHook([](const MemState &, ThreadId, uint32_t,
                          const MemAccess &) -> std::optional<Violation> {
      return std::nullopt;
    });
  }

  /// Reconstructs the trace (root to violation state) for a violation.
  /// Step text is rendered here, from the stored (thread, label, pc)
  /// edge, rather than per successor during the search.
  std::vector<TraceStep> trace(const Violation &V) const {
    std::vector<TraceStep> Steps;
    if (!Opts.RecordParents)
      return Steps;
    uint64_t Id = V.StateId;
    while (Id != 0) {
      ParentEdge::Fields E = Parents[Id].fields();
      Steps.push_back(TraceStep{E.Thread, E.Internal, E.IsAccess, E.L,
                                edgeText(E)});
      Id = E.Parent;
    }
    std::reverse(Steps.begin(), Steps.end());
    return Steps;
  }

  /// Renders a violation plus its trace for humans.
  std::string report(const Violation &V) const;

  /// Payloads still waiting for expansion: empty after a complete run,
  /// since expanded states keep no payload.
  uint64_t frontierSize() const { return Frontier.size(); }

private:
  /// The step text formatViolation prints for \p E.
  std::string edgeText(const ParentEdge::Fields &E) const {
    if (E.Internal)
      return "flush";
    if (E.IsAccess)
      return toString(P, E.L);
    return (E.Collapsed > 1 ? "local x" + std::to_string(E.Collapsed) + ": "
                            : "local: ") +
           toString(P, E.Thread, P.Threads[E.Thread].Insts[E.FromPc]);
  }

  /// Adds a state if new; returns its id (or the existing one). Under
  /// bitstate hashing, "new" is approximated by two independent hash
  /// bits (Spin's double-bit scheme); colliding states are treated as
  /// visited and their ids are not reusable (returns NoId).
  static constexpr uint64_t NoId = ~static_cast<uint64_t>(0);

  template <typename StateHook>
  uint64_t intern(ProductState &&S, ExploreResult &Res, StateHook &SHook) {
    obs::Span Sp(obs::Phase::VisitedProbe);
    if (Opts.BitstateLog2) {
      std::string Key = productStateKey(Mem, S.Threads, S.M);
      uint64_t H = hashBytes(
          reinterpret_cast<const uint8_t *>(Key.data()), Key.size());
      uint64_t Mask = (static_cast<uint64_t>(1) << Opts.BitstateLog2) - 1;
      uint64_t B1 = H & Mask;
      uint64_t B2 = (H >> 32 ^ H * 0x9e3779b97f4a7c15ull) & Mask;
      bool Seen = (Bitstate[B1 / 64] >> (B1 % 64)) & 1 &&
                  (Bitstate[B2 / 64] >> (B2 % 64)) & 1;
      if (Seen) {
        ++Res.Stats.DedupHits;
        return NoId;
      }
      Bitstate[B1 / 64] |= static_cast<uint64_t>(1) << (B1 % 64);
      Bitstate[B2 / 64] |= static_cast<uint64_t>(1) << (B2 % 64);
      RawVisitedBytes += stringNodeBytes(Key.size(), sizeof(uint64_t));
      return finishNew(std::move(S), Key, Res, SHook);
    }

    // Intern per-thread and memory components, then the id tuple. The
    // components are cut from one buffer that ends up holding exactly
    // productStateKey (each component goes to its SlotOrder slot), so
    // the tuple is new iff the key is.
    TupleBuf.resize(Interner->numSlots());
    KeyBuf.clear();
    size_t Start = 0;
    unsigned Idx = 0;
    auto Cut = [&] {
      unsigned Slot = SlotOrder[Idx++];
      TupleBuf[Slot] = Interner->internComponent(
          Slot, std::string_view(KeyBuf).substr(Start));
      Start = KeyBuf.size();
    };
    for (const ThreadState &TS : S.Threads) {
      appendThreadStateKey(KeyBuf, TS);
      Cut();
    }
    serializeMemComponents(Mem, S.M, KeyBuf, Cut);
    auto [Id, New] = Interner->insertTuple(
        TupleBuf.data(), stringNodeBytes(KeyBuf.size(), sizeof(uint64_t)));
    if (!New) {
      ++Res.Stats.DedupHits;
      return Id; // Dense tuple ids coincide with state ids.
    }
    return finishNew(std::move(S), KeyBuf, Res, SHook);
  }

  /// Common tail for newly visited states: record the program-state
  /// projection, run the state hook, and schedule the state (\p Key is
  /// its productStateKey, the frontier entry when keys decode).
  template <typename StateHook>
  uint64_t finishNew(ProductState &&S, std::string_view Key,
                     ExploreResult &Res, StateHook &SHook) {
    uint64_t Id = NumStored++;
    if (Opts.CollectProgramStates)
      Res.ProgramStates.insert(programStateKey(S.Threads));
    if (std::optional<Violation> V = SHook(S)) {
      V->StateId = Id;
      Res.Violations.push_back(std::move(*V));
    }
    if (Opts.RecordParents)
      Parents.push_back(ParentEdge{});
    if constexpr (HasCodec)
      Frontier.push(Key);
    else
      Frontier.push_back(std::move(S));
    return Id;
  }

  /// Publishes live counts for the progress reporter (every ~1k
  /// expansions; the visited-set footprint every 8th push because
  /// bytesUsed() walks the interner's arenas).
  void publishProgress(ExploreResult &Res, uint64_t FrontierSize) {
    if constexpr (!obs::telemetryEnabled())
      return;
    obs::progressUpdate(NumStored, FrontierSize);
    obs::progressAddCounts(Res.Stats.NumTransitions - PubTransitions,
                           Res.Stats.DedupHits - PubDedupHits);
    PubTransitions = Res.Stats.NumTransitions;
    PubDedupHits = Res.Stats.DedupHits;
    if (obs::traceActive()) {
      obs::traceCounter(obs::TraceCounterTrack::States, NumStored);
      obs::traceCounter(obs::TraceCounterTrack::Frontier, FrontierSize);
    }
    if ((++PubCount & 7) != 0)
      return;
    uint64_t VisitedB = visitedBytes();
    obs::progressVisitedBytes(VisitedB);
    obs::traceCounter(obs::TraceCounterTrack::VisitedBytes, VisitedB);
  }

  /// Records the edge that discovered \p Child when it is the state just
  /// interned (ids are discovery indices; the root has no edge). A step
  /// from the newest state back to itself is a dedup hit, not a
  /// discovery: its edge would make trace() loop.
  void link(uint64_t Child, const ParentEdge::Fields &E) {
    if (Child == NoId || !Opts.RecordParents || Child != NumStored - 1 ||
        Child == 0 || Child == E.Parent)
      return;
    Parents[Child] = ParentEdge(E);
  }

  /// Violation sink for the expansion core: violations found while
  /// expanding state \p Id (or walking a chain out of it) report \p Id.
  static auto reporter(ExploreResult &Res, uint64_t Id) {
    return [&Res, Id](Violation &&V) {
      V.StateId = Id;
      Res.Violations.push_back(std::move(V));
    };
  }

  /// Chain hops count as transitions.
  static auto countHop(ExploreResult &Res) {
    return [&Res](const ExpandStep &) { ++Res.Stats.NumTransitions; };
  }

  template <typename AccessHook, typename StateHook>
  void expand(uint64_t Id, const ProductState &S, ExploreResult &Res,
              AccessHook &Hook, StateHook &SHook) {
    auto Report = reporter(Res, Id);
    auto Hop = countHop(Res);
    auto AnyViolation = [&Res] { return !Res.Violations.empty(); };
    auto Emit = [&](ProductState &&Next, const ExpandStep &E) {
      ++Res.Stats.NumTransitions;
      link(intern(Core.fastForward(std::move(Next), Scratch, Hook, Report,
                                   Hop),
                  Res, SHook),
           ParentEdge::Fields{.Parent = Id,
                              .FromPc = E.FromPc,
                              .Collapsed = E.Collapsed,
                              .Thread = E.Thread,
                              .Internal = E.Internal,
                              .IsAccess = E.A != nullptr,
                              .L = E.L});
    };
    if (Core.expand(S, Scratch, Hook, Report, AnyViolation, Emit))
      ++Res.Stats.NumDeadlockStates;
  }

  //===--------------------------------------------------------------------===
  // Resilience: resource governor, degradation ladder, checkpoint/resume.
  //===--------------------------------------------------------------------===

  /// Whether this instantiation can write/read checkpoints at all.
  static constexpr bool HasCodec = HasStateCodec<MemSys>;

  bool ckptActive() const {
    return HasCodec && !Opts.CollectProgramStates &&
           Opts.Resilience.wantsCheckpoints();
  }

  double elapsedSeconds() const {
    return SecondsBase +
           std::chrono::duration<double>(
               std::chrono::steady_clock::now() - RunStart)
               .count();
  }

  /// Bytes the visited set holds: the bit array or the interner.
  uint64_t visitedBytes() const {
    return Opts.BitstateLog2 ? Bitstate.size() * sizeof(uint64_t)
                             : Interner->bytesUsed();
  }

  /// Bytes the governor charges against --mem-budget: the visited set
  /// plus the frontier payloads.
  uint64_t governedBytes() const {
    return visitedBytes() + Frontier.size() * PayloadUnit;
  }

  /// One governor tick: stop flag, deadline, periodic checkpoint, memory
  /// budget (in that order). Returns false when the run must stop;
  /// Truncated and the reason flags are already set then.
  bool governTick(ExploreResult &Res, uint64_t Expanded) {
    auto &RR = Res.Stats.Resilience;
    const resilience::ResilienceOptions &RO = Opts.Resilience;
    if (resilience::stopRequested()) {
      if (obs::traceActive()) {
        obs::traceInstant(obs::TraceInstant::StopDrain);
        obs::traceCrashDump("signal drain (sequential engine)");
      }
      RR.Interrupted = true;
      Res.Stats.Truncated = true;
      return false;
    }
    auto Now = std::chrono::steady_clock::now();
    double Elapsed =
        SecondsBase +
        std::chrono::duration<double>(Now - RunStart).count() +
        fi::clockSkewSeconds();
    if (RO.DeadlineSeconds > 0 && Elapsed >= RO.DeadlineSeconds) {
      RR.DeadlineHit = true;
      Res.Stats.Truncated = true;
      return false;
    }
    if (ckptActive()) {
      bool Due =
          RO.CheckpointEveryExpansions
              ? Expanded >= NextCkptExpansions
              : std::chrono::duration<double>(Now - LastCkptTime)
                        .count() >= RO.CheckpointIntervalSeconds;
      if (Due) {
        writeCheckpoint(Res, Expanded, Elapsed);
        LastCkptTime = std::chrono::steady_clock::now();
        NextCkptExpansions = Expanded + RO.CheckpointEveryExpansions;
      }
    }
    if (RO.MemBudgetBytes && !Opts.CollectProgramStates) {
      uint64_t Used = governedBytes();
      if (Used > RO.MemBudgetBytes || fi::shouldFail("govern.alloc")) {
        if (!downgrade(Res, Used, Elapsed)) {
          Res.Stats.Truncated = true;
          return false;
        }
      }
    }
    return true;
  }

  /// Walks the degradation ladder's one in-run step: the exact visited
  /// set becomes double-bit bitstate hashing, and the verdict becomes
  /// approximate (BoundedRobust). Returns false when already on bitstate;
  /// the governor then stops the run instead.
  bool downgrade(ExploreResult &Res, uint64_t Used, double Elapsed) {
    using resilience::StorageRung;
    auto &RR = Res.Stats.Resilience;
    StorageRung From = Rung;
    if (Rung == StorageRung::Bitstate)
      return false;
    enterBitstate(Res);
    Rung = StorageRung::Bitstate;
    resilience::DowngradeEvent E;
    E.From = From;
    E.To = Rung;
    E.AtStates = NumStored;
    E.AtSeconds = Elapsed;
    E.UsedBytes = Used;
    RR.Downgrades.push_back(E);
    RR.FinalRung = Rung;
    obs::add(obs::Ctr::GovernorDowngrades, 1);
    obs::traceInstant(obs::TraceInstant::Downgrade,
                      static_cast<uint64_t>(Rung));
    return true;
  }

  /// Sets the visited bits for hash \p H — the exact double-bit scheme
  /// intern() probes, so states seeded here read as visited afterwards.
  void markBits(uint64_t H) {
    uint64_t Mask = (static_cast<uint64_t>(1) << Opts.BitstateLog2) - 1;
    uint64_t B1 = H & Mask;
    uint64_t B2 = (H >> 32 ^ H * 0x9e3779b97f4a7c15ull) & Mask;
    Bitstate[B1 / 64] |= static_cast<uint64_t>(1) << (B1 % 64);
    Bitstate[B2 / 64] |= static_cast<uint64_t>(1) << (B2 % 64);
  }

  /// Exact → Bitstate: size a bit array to the budget, seed it with
  /// every visited state's raw key (the interner's raw keys concatenate
  /// to exactly productStateKey, so probes after the switch agree with
  /// the exact set), then free the exact structures.
  void enterBitstate(ExploreResult &Res) {
    unsigned K =
        resilience::bitstateLog2ForBudget(Opts.Resilience.MemBudgetBytes);
    Bitstate.assignZeroed((static_cast<size_t>(1) << K) / 64);
    Opts.BitstateLog2 = K;
    Res.Approximate = true;
    RawVisitedBytes = Interner->rawBytes();
    Interner->forEachRawKey(SlotOrder, [&](const std::string &Key) {
      markBits(hashBytes(reinterpret_cast<const uint8_t *>(Key.data()),
                         Key.size()));
    });
    Interner.reset();
  }

  /// Hash of everything that must match between a checkpointing run and
  /// a resuming run for the serialized state to mean the same thing. The
  /// order and compress terms are fixed: they keep the hashes of
  /// checkpoints written while those were settings.
  uint64_t configHash() const {
    std::string S = toString(P);
    S += "|engine=seq";
    S += "|order=0";
    S += "|compress=1";
    S += "|bitstate=" + std::to_string(Opts.BitstateLog2);
    S += "|parents=" + std::to_string(Opts.RecordParents);
    S += "|stoponviol=" + std::to_string(Opts.StopOnViolation);
    S += "|asserts=" + std::to_string(Opts.CheckAssertions);
    S += "|races=" + std::to_string(Opts.CheckRaces);
    S += "|collapse=" + std::to_string(Opts.CollapseLocalSteps);
    S += "|por=" + std::to_string(Opts.UsePor);
    std::string MemBytes;
    Mem.serialize(Mem.initial(), MemBytes);
    S += "|mem=";
    S += MemBytes;
    return hashBytes(reinterpret_cast<const uint8_t *>(S.data()),
                     S.size());
  }

  /// Serializes the full resumable run state and writes it crash-safely
  /// (resilience/Checkpoint.h: tmp + fsync + atomic rename).
  void writeCheckpoint(ExploreResult &Res, uint64_t Expanded,
                       double Elapsed) {
    if constexpr (HasCodec) {
      auto T0 = std::chrono::steady_clock::now();
      auto &RR = Res.Stats.Resilience;
      BinWriter W;
      W.u8(0); // Engine: sequential.
      W.u8(static_cast<uint8_t>(Rung));
      W.u8(0); // Search order: breadth-first (1 was depth-first).
      W.u8(Opts.RecordParents ? 1 : 0);
      // The frontier holds the states with ids [Cursor, N).
      W.u64(NumStored);
      W.u64(NumStored - Frontier.size());
      W.u64(Expanded);
      W.f64(Elapsed);
      W.u64(Res.Stats.NumTransitions);
      W.u64(Res.Stats.DedupHits);
      W.u64(Res.Stats.NumDeadlockStates);
      W.u64(Res.Stats.PeakFrontier);
      W.u64(Scratch.Por.Ample);
      W.u64(Scratch.Por.Full);
      W.u64(Scratch.Por.Saved);
      W.u64(Scratch.Por.Chained);
      // Resilience provenance, so a resumed run reports the full
      // degradation history rather than just its own.
      W.varu64(RR.Downgrades.size());
      for (const resilience::DowngradeEvent &E : RR.Downgrades) {
        W.u8(static_cast<uint8_t>(E.From));
        W.u8(static_cast<uint8_t>(E.To));
        W.u64(E.AtStates);
        W.f64(E.AtSeconds);
        W.u64(E.UsedBytes);
      }
      W.u64(RR.CheckpointsWritten);
      W.u64(RR.CheckpointBytes);
      W.f64(RR.CheckpointSeconds);
      W.u8(static_cast<uint8_t>(Opts.BitstateLog2));
      W.varu64(Res.Violations.size());
      for (const Violation &V : Res.Violations)
        encodeViolation(W, V);
      // Visited set, tagged by representation at checkpoint time (the
      // ladder may have changed it since the run started): 0 is the
      // interner, 2 the bit array; 1 was the retired raw-key map.
      if (Opts.BitstateLog2) {
        W.u8(2);
        W.u64(RawVisitedBytes);
        W.u64(Bitstate.size());
        W.bytes(Bitstate.data(), Bitstate.size() * sizeof(uint64_t));
      } else {
        W.u8(0);
        Interner->save(W);
      }
      // Frontier keys, verbatim, in queue order.
      W.u64(Frontier.size());
      Frontier.forEach([&](std::string_view Key) { W.str(Key); });
      if (Opts.RecordParents)
        for (const ParentEdge &PE : Parents) {
          ParentEdge::Fields E = PE.fields();
          W.varu64(E.Parent);
          W.u8(E.Thread);
          W.u8((E.Internal ? 1 : 0) | (E.IsAccess ? 2 : 0));
          W.u8(static_cast<uint8_t>(E.L.Type));
          W.u8(E.L.Loc);
          W.u8(E.L.ValR);
          W.u8(E.L.ValW);
          W.u8(E.L.IsNA ? 1 : 0);
          W.varu64(E.FromPc);
          W.varu64(E.Collapsed);
        }
      std::string Err;
      if (ckpt::writeCheckpointFile(Opts.Resilience.CheckpointPath,
                                    CfgHash, W.Buf, &Err)) {
        ++RR.CheckpointsWritten;
        RR.CheckpointBytes += W.Buf.size();
        obs::add(obs::Ctr::CheckpointWrites, 1);
        obs::add(obs::Ctr::CheckpointBytes, W.Buf.size());
        obs::traceInstant(obs::TraceInstant::CheckpointWrite,
                          W.Buf.size());
      }
      RR.CheckpointSeconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        T0)
              .count();
    }
  }

  /// Restores a run from Opts.Resilience.ResumePath. On failure the
  /// report's ResumeError explains why and the caller returns a
  /// truncated result — a resume failure never silently restarts the
  /// exploration from scratch.
  bool restoreCheckpoint(ExploreResult &Res) {
    if constexpr (HasCodec) {
      auto &RR = Res.Stats.Resilience;
      std::string Err;
      std::optional<std::string> Payload = ckpt::loadCheckpointFile(
          Opts.Resilience.ResumePath, CfgHash, &Err);
      if (!Payload) {
        RR.ResumeError = Err;
        return false;
      }
      BinReader R(*Payload);
      uint8_t Engine = R.u8();
      uint8_t RungByte = R.u8();
      uint8_t OrderByte = R.u8();
      uint8_t HasParents = R.u8();
      if (R.fail() || Engine != 0) {
        RR.ResumeError = "checkpoint was written by a different engine";
        return false;
      }
      if (OrderByte == 1) {
        RR.ResumeError = retiredSearchOrderError();
        return false;
      }
      if (OrderByte != 0 || (HasParents != 0) != Opts.RecordParents ||
          RungByte > static_cast<uint8_t>(
                         resilience::StorageRung::Bitstate)) {
        RR.ResumeError = "checkpoint search configuration mismatch";
        return false;
      }
      uint64_t N = R.u64();
      uint64_t Cursor = R.u64();
      ExpandedBase = R.u64();
      SecondsBase = R.f64();
      Res.Stats.NumTransitions = R.u64();
      Res.Stats.DedupHits = R.u64();
      Res.Stats.NumDeadlockStates = R.u64();
      Res.Stats.PeakFrontier = R.u64();
      Scratch.Por.Ample = R.u64();
      Scratch.Por.Full = R.u64();
      Scratch.Por.Saved = R.u64();
      Scratch.Por.Chained = R.u64();
      uint64_t NumDowngrades = R.varu64();
      for (uint64_t I = 0; I != NumDowngrades && !R.fail(); ++I) {
        resilience::DowngradeEvent E;
        E.From = static_cast<resilience::StorageRung>(R.u8());
        E.To = static_cast<resilience::StorageRung>(R.u8());
        E.AtStates = R.u64();
        E.AtSeconds = R.f64();
        E.UsedBytes = R.u64();
        RR.Downgrades.push_back(E);
      }
      RR.CheckpointsWritten = R.u64();
      RR.CheckpointBytes = R.u64();
      RR.CheckpointSeconds = R.f64();
      uint8_t BitK = R.u8();
      // Violations and the state count reach the result only once the
      // whole payload checks out: a failed resume must not leave the
      // caller violations whose trace edges were never restored.
      std::vector<Violation> Violations;
      uint64_t NumViolations = R.varu64();
      for (uint64_t I = 0; I != NumViolations && !R.fail(); ++I)
        Violations.push_back(decodeViolation(R));
      Rung = static_cast<resilience::StorageRung>(RungByte);
      uint8_t Tag = R.u8();
      if (R.fail()) {
        RR.ResumeError = "truncated checkpoint payload";
        return false;
      }
      if (Tag == 2) {
        // Checkpoint was taken on the bitstate rung (or the run started
        // with --bitstate): replace whatever representation setup chose.
        if (!resilience::bitstateLog2InRange(BitK)) {
          RR.ResumeError = "corrupt checkpoint: bitstate header";
          return false;
        }
        Opts.BitstateLog2 = BitK;
        Res.Approximate = true;
        Interner.reset();
        RawVisitedBytes = R.u64();
        uint64_t Words = R.u64();
        if (R.fail() || Words != (uint64_t{1} << BitK) / 64 ||
            Words > R.remaining() / sizeof(uint64_t)) {
          RR.ResumeError = "corrupt checkpoint: bitstate size";
          return false;
        }
        Bitstate.assignZeroed(Words);
        R.bytes(Bitstate.data(), Words * sizeof(uint64_t));
      } else if (Tag == 0) {
        if (!Interner || !Interner->restore(R)) {
          RR.ResumeError = "corrupt checkpoint: compressed visited set";
          return false;
        }
      } else if (Tag == 1) {
        RR.ResumeError = retiredRawVisitedError();
        return false;
      } else {
        RR.ResumeError = "corrupt checkpoint: unknown visited-set tag";
        return false;
      }
      // The frontier holds exactly the states [Cursor, N): their ids are
      // implicit in their queue positions.
      uint64_t NumFrontier = R.u64();
      if (R.fail() || Cursor > N || NumFrontier != N - Cursor) {
        RR.ResumeError = "corrupt checkpoint: frontier shape";
        return false;
      }
      // Each key must decode and re-serialize to itself before it is
      // trusted to the unchecked decoder at pop time.
      ProductState Check;
      for (const SequentialProgram &SP : P.Threads)
        Check.Threads.push_back(ThreadState::initial(SP));
      for (uint64_t I = 0; I != NumFrontier && !R.fail(); ++I) {
        std::string Key = R.str();
        if (R.fail() || !decodeProductStateKeyChecked(Mem, Key, Check.Threads,
                                                      Check.M)) {
          RR.ResumeError = "corrupt checkpoint: frontier state";
          return false;
        }
        Frontier.push(Key);
      }
      if (Opts.RecordParents) {
        // One trace edge per state, each at least MinEdgeBytes long.
        constexpr uint64_t MinEdgeBytes = 10;
        if (N > R.remaining() / MinEdgeBytes) {
          RR.ResumeError = "corrupt checkpoint: state count";
          return false;
        }
        Parents.clear();
        Parents.reserve(N);
        for (uint64_t I = 0; I != N && !R.fail(); ++I) {
          ParentEdge::Fields E;
          E.Parent = R.varu64();
          E.Thread = R.u8();
          uint8_t Flags = R.u8();
          E.Internal = (Flags & 1) != 0;
          E.IsAccess = (Flags & 2) != 0;
          E.L.Type = static_cast<AccessType>(R.u8());
          E.L.Loc = R.u8();
          E.L.ValR = R.u8();
          E.L.ValW = R.u8();
          E.L.IsNA = R.u8() != 0;
          E.FromPc = static_cast<uint32_t>(R.varu64());
          E.Collapsed = static_cast<uint16_t>(R.varu64());
          // trace() indexes with these fields: edges point to earlier
          // states, and local steps name a real instruction. The engine
          // writes only edges the packing represents.
          if (!R.fail() &&
              (!ParentEdge::representable(E) ||
               (I != 0 &&
                (E.Parent >= I || E.Thread >= P.numThreads() ||
                 (!E.Internal && !E.IsAccess &&
                  E.FromPc >= P.Threads[E.Thread].Insts.size()))))) {
            RR.ResumeError = "corrupt checkpoint: trace edge";
            return false;
          }
          Parents.push_back(ParentEdge(E));
        }
        for (const Violation &V : Violations)
          if (V.StateId >= N) {
            RR.ResumeError = "corrupt checkpoint: violation state";
            return false;
          }
      }
      if (R.fail()) {
        RR.ResumeError = "truncated checkpoint payload";
        return false;
      }
      NumStored = N;
      Res.Violations = std::move(Violations);
      RR.Resumed = true;
      RR.RestoredStates = N;
      obs::traceInstant(obs::TraceInstant::CheckpointResume, N);
      return true;
    }
    return false;
  }

  const Program &P;
  const MemSys &Mem;
  ExploreOptions Opts;
  ExpansionCore<MemSys> Core; ///< Checks and successor generation.
  ExpandScratch Scratch;      ///< The core's buffers and POR counters.
  /// Discovered-but-unexpanded states, a FIFO queue in discovery order:
  /// it holds the ids [NumStored - size, NumStored). No other payloads
  /// are kept.
  std::conditional_t<HasCodec, KeyFrontier, std::deque<ProductState>>
      Frontier;
  uint64_t NumStored = 0; ///< States interned so far; the next state's id.
  PageArray<ParentEdge> Parents; ///< Trace edges, indexed by state id.
  /// The exact visited set; reset when the ladder moves to bitstate.
  std::optional<StateInterner> Interner;
  std::string KeyBuf;             ///< Scratch: the key being interned.
  std::vector<uint32_t> TupleBuf; ///< Scratch: current id tuple.
  std::vector<uint32_t> SlotOrder; ///< Emission index → tuple slot.
  uint64_t RawVisitedBytes = 0;   ///< Raw-key bytes under bitstate.
  PageArray<uint64_t> Bitstate;   ///< Bitstate-hashing visited bits.
  uint64_t PubTransitions = 0; ///< Progress: last published transitions.
  uint64_t PubDedupHits = 0;   ///< Progress: last published dedup hits.
  uint64_t PubCount = 0;       ///< Progress: pushes so far.

  // Resilience state (see the helper block above).
  resilience::StorageRung Rung = resilience::StorageRung::Exact;
  uint64_t PayloadUnit = 0;     ///< Estimated bytes per frontier entry.
  uint64_t CfgHash = 0;         ///< Checkpoint compatibility hash.
  uint64_t GovMask = 255;      ///< Expansions between governor ticks - 1.
  uint64_t NextCkptExpansions = 0; ///< Count-based checkpoint trigger.
  uint64_t ExpandedBase = 0; ///< Expansions restored from a checkpoint.
  double SecondsBase = 0;    ///< Wall seconds restored from a checkpoint.
  std::chrono::steady_clock::time_point RunStart;
  std::chrono::steady_clock::time_point LastCkptTime;
};

/// Renders a violation kind for reports.
const char *violationKindName(Violation::Kind K);

/// Renders a violation + trace (standalone helper used by report()).
std::string formatViolation(const Program &P, const Violation &V,
                            const std::vector<TraceStep> &Trace);

template <typename MemSys>
std::string ProductExplorer<MemSys>::report(const Violation &V) const {
  return formatViolation(P, V, trace(V));
}

} // namespace rocker

#endif // ROCKER_EXPLORE_EXPLORER_H
