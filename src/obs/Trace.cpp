//===- obs/Trace.cpp - Flight-recorder rings and Perfetto export ----------===//

#include "obs/Trace.h"

#include "support/FaultInject.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

using namespace rocker;
using namespace rocker::obs;

const char *obs::traceInstantName(TraceInstant K) {
  switch (K) {
  case TraceInstant::EngineStart:
    return "engine_start";
  case TraceInstant::EngineStop:
    return "engine_stop";
  case TraceInstant::FastForward:
    return "fast_forward";
  case TraceInstant::Steal:
    return "steal";
  case TraceInstant::Downgrade:
    return "downgrade";
  case TraceInstant::CheckpointWrite:
    return "checkpoint_write";
  case TraceInstant::CheckpointResume:
    return "checkpoint_resume";
  case TraceInstant::WatchdogFired:
    return "watchdog";
  case TraceInstant::StopDrain:
    return "stop_drain";
  case TraceInstant::CacheHit:
    return "cache_hit";
  case TraceInstant::CacheMiss:
    return "cache_miss";
  case TraceInstant::CacheStore:
    return "cache_store";
  case TraceInstant::JobQueued:
    return "job_queued";
  case TraceInstant::JobStarted:
    return "job_started";
  case TraceInstant::JobFinished:
    return "job_finished";
  case TraceInstant::JobPreempted:
    return "job_preempted";
  case TraceInstant::JobResumed:
    return "job_resumed";
  case TraceInstant::ViolationFound:
    return "violation";
  case TraceInstant::VisitedGrowth:
    return "visited_growth";
  }
  return "unknown";
}

const char *obs::traceCounterTrackName(TraceCounterTrack C) {
  switch (C) {
  case TraceCounterTrack::Frontier:
    return "frontier";
  case TraceCounterTrack::States:
    return "states";
  case TraceCounterTrack::VisitedBytes:
    return "visited_bytes";
  case TraceCounterTrack::Samples:
    return "samples";
  case TraceCounterTrack::CasRetries:
    return "cas_retries";
  }
  return "unknown";
}

std::optional<TraceSpec> obs::parseTraceSpec(const char *Spec) {
  if (!Spec || !*Spec)
    return std::nullopt;
  std::string S(Spec);
  TraceSpec Out;
  Out.Path = S;
  size_t Colon = S.rfind(':');
  if (Colon != std::string::npos && Colon + 1 < S.size()) {
    bool AllDigits = true;
    for (size_t I = Colon + 1; I != S.size(); ++I)
      if (!std::isdigit(static_cast<unsigned char>(S[I]))) {
        AllDigits = false;
        break;
      }
    if (AllDigits) {
      Out.Cap = std::strtoull(S.c_str() + Colon + 1, nullptr, 10);
      Out.Path = S.substr(0, Colon);
    }
  }
  if (Out.Path.empty())
    return std::nullopt;
  return Out;
}

#ifndef ROCKER_NO_TELEMETRY

// Defined here (not Telemetry.cpp) so the gate and the rings live and
// die together; declared in Telemetry.h for the Span fast path.
std::atomic<bool> obs::TraceActiveFlag{false};

namespace {

enum EvKind : uint8_t { KSpanB = 0, KSpanE = 1, KInstant = 2, KCounter = 3 };

constexpr uint64_t DefaultCap = uint64_t(1) << 16;
constexpr uint64_t MinCap = 256;
constexpr uint64_t MaxCap = uint64_t(1) << 22;

uint64_t roundCap(uint64_t Cap) {
  if (Cap == 0)
    Cap = DefaultCap;
  Cap = std::min(std::max(Cap, MinCap), MaxCap);
  uint64_t P = MinCap;
  while (P < Cap)
    P <<= 1;
  return P;
}

/// One thread's ring. The owner is the only writer; entries are relaxed
/// atomics so concurrent flushes (final write, crash dump from another
/// thread) read well-defined values. Head counts pushes forever; the
/// slot index is Head & (Cap-1), overwriting the oldest entry when full.
struct Ring {
  std::unique_ptr<std::atomic<uint64_t>[]> Ts, Meta, Arg;
  std::atomic<uint64_t> Head{0};
  uint64_t Cap = 0;
  uint32_t Tid = 0;
  std::string Name;

  explicit Ring(uint64_t Capacity) : Cap(Capacity) {
    Ts.reset(new std::atomic<uint64_t>[Cap]);
    Meta.reset(new std::atomic<uint64_t>[Cap]);
    Arg.reset(new std::atomic<uint64_t>[Cap]);
  }

  void push(uint8_t Kind, uint8_t Code, uint64_t When, uint64_t A) {
    uint64_t H = Head.load(std::memory_order_relaxed);
    uint64_t I = H & (Cap - 1);
    Ts[I].store(When, std::memory_order_relaxed);
    Meta[I].store(uint64_t(Kind) | (uint64_t(Code) << 8),
                  std::memory_order_relaxed);
    Arg[I].store(A, std::memory_order_relaxed);
    Head.store(H + 1, std::memory_order_release);
  }
};

/// A decoded event, snapshotted out of a ring for serialization.
struct RawEv {
  uint64_t Ts;
  uint64_t Arg;
  uint8_t Kind;
  uint8_t Code;
};

struct RingDump {
  uint32_t Tid;
  std::string Name;
  uint64_t Dropped; ///< Events overwritten before the flush.
  std::vector<RawEv> Evs;
};

struct TraceRegistry {
  std::mutex M;
  std::vector<Ring *> Live;                 // Owned by their threads' TLS.
  std::vector<std::unique_ptr<Ring>> Retired;
  std::string Path;
  std::string CrashPath;
  uint64_t Cap = DefaultCap;
  uint32_t NextTid = 0;
  bool Configured = false;
  std::chrono::steady_clock::time_point AnchorTime;
  uint64_t AnchorCycles = 0;

  TraceRegistry() {
    AnchorTime = std::chrono::steady_clock::now();
    AnchorCycles = tick();
  }

  /// Same growing-window calibration as Telemetry's registry; a flush
  /// within the first 100us of the process busy-waits it open.
  double cyclesPerSecond() {
    for (;;) {
      auto Now = std::chrono::steady_clock::now();
      double Dt = std::chrono::duration<double>(Now - AnchorTime).count();
      if (Dt >= 1e-4)
        return (tick() - AnchorCycles) / Dt;
    }
  }
};

TraceRegistry &traceRegistry() {
  static TraceRegistry R;
  return R;
}

/// TLS handle: retires the ring (moves ownership into the registry) when
/// the thread exits so worker timelines survive until the flush.
struct RingHandle {
  Ring *R = nullptr;
  ~RingHandle() {
    if (!R)
      return;
    TraceRegistry &Reg = traceRegistry();
    std::lock_guard<std::mutex> L(Reg.M);
    for (auto It = Reg.Live.begin(); It != Reg.Live.end(); ++It)
      if (*It == R) {
        Reg.Live.erase(It);
        break;
      }
    Reg.Retired.emplace_back(R);
    R = nullptr;
  }
};

thread_local RingHandle TlsRing;

Ring &ring() {
  if (!TlsRing.R) {
    TraceRegistry &Reg = traceRegistry();
    std::lock_guard<std::mutex> L(Reg.M);
    auto *R = new Ring(Reg.Cap);
    R->Tid = Reg.NextTid++;
    R->Name = R->Tid == 0 ? "main" : "";
    Reg.Live.push_back(R);
    TlsRing.R = R;
  }
  return *TlsRing.R;
}

/// Snapshots every ring (retired first, then live) under the registry
/// lock. Live rings may still be written concurrently (crash dump); the
/// acquire on Head makes the copied prefix well-defined and at worst
/// misses the newest few events.
void snapshotRings(TraceRegistry &Reg, std::vector<RingDump> &Out) {
  auto Take = [&Out](const Ring &R) {
    RingDump D;
    D.Tid = R.Tid;
    D.Name = R.Name;
    uint64_t H = R.Head.load(std::memory_order_acquire);
    uint64_t N = std::min(H, R.Cap);
    D.Dropped = H - N;
    D.Evs.reserve(N);
    for (uint64_t K = H - N; K != H; ++K) {
      uint64_t I = K & (R.Cap - 1);
      RawEv E;
      E.Ts = R.Ts[I].load(std::memory_order_relaxed);
      E.Arg = R.Arg[I].load(std::memory_order_relaxed);
      uint64_t Meta = R.Meta[I].load(std::memory_order_relaxed);
      E.Kind = static_cast<uint8_t>(Meta & 0xff);
      E.Code = static_cast<uint8_t>((Meta >> 8) & 0xff);
      D.Evs.push_back(E);
    }
    Out.push_back(std::move(D));
  };
  for (const auto &R : Reg.Retired)
    Take(*R);
  for (const Ring *R : Reg.Live)
    Take(*R);
  std::sort(Out.begin(), Out.end(),
            [](const RingDump &A, const RingDump &B) { return A.Tid < B.Tid; });
}

/// Repairs span nesting for one ring after overwrite truncation: drops
/// "E" events whose "B" was overwritten, and reports how many synthetic
/// closes the serializer must append for still-open "B"s.
unsigned repairNesting(RingDump &D) {
  unsigned Depth = 0;
  std::vector<RawEv> Kept;
  Kept.reserve(D.Evs.size());
  for (const RawEv &E : D.Evs) {
    if (E.Kind == KSpanE) {
      if (Depth == 0)
        continue; // Begin was overwritten; dropping keeps nesting valid.
      --Depth;
    } else if (E.Kind == KSpanB) {
      ++Depth;
    }
    Kept.push_back(E);
  }
  D.Evs = std::move(Kept);
  return Depth;
}

void jsonEscape(const std::string &S, std::string &Out) {
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
}

struct FilePtr {
  FILE *F = nullptr;
  ~FilePtr() {
    if (F)
      std::fclose(F);
  }
};

TraceWriteResult writeTraceFile(const std::string &Path) {
  TraceRegistry &Reg = traceRegistry();
  std::vector<RingDump> Dumps;
  double Rate;
  uint64_t AnchorCycles;
  {
    std::lock_guard<std::mutex> L(Reg.M);
    if (!Reg.Configured)
      return {false, 0, "no trace configured"};
    snapshotRings(Reg, Dumps);
    AnchorCycles = Reg.AnchorCycles;
  }
  Rate = Reg.cyclesPerSecond();
  double UsPerCycle = 1e6 / Rate;
  auto ToUs = [&](uint64_t Ts) {
    double Us = (Ts >= AnchorCycles ? Ts - AnchorCycles : 0) * UsPerCycle;
    return Us;
  };

  FilePtr Fp;
  Fp.F = std::fopen(Path.c_str(), "w");
  if (!Fp.F)
    return {false, 0, "cannot open " + Path + ": " + std::strerror(errno)};
  FILE *F = Fp.F;

  TraceWriteResult Res;
  Res.Ok = true;
  bool First = true;
  auto Sep = [&] {
    if (!First)
      std::fputs(",\n", F);
    First = false;
  };

  std::fputs("{\"displayTimeUnit\":\"ms\",\n\"traceEvents\":[\n", F);
  Sep();
  std::fputs("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
             "\"args\":{\"name\":\"rocker\"}}",
             F);
  for (const RingDump &D : Dumps) {
    std::string Name = D.Name.empty()
                           ? "thread " + std::to_string(D.Tid)
                           : D.Name;
    std::string Esc;
    jsonEscape(Name, Esc);
    Sep();
    std::fprintf(F,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                 D.Tid, Esc.c_str());
    Sep();
    std::fprintf(F,
                 "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"sort_index\":%u}}",
                 D.Tid, D.Tid);
  }

  // Derived rate tracks: states/sec and samples/sec between consecutive
  // samples of the raw counters, in global ts order (counter values are
  // process-global totals, so cross-thread ordering is meaningful).
  struct CtrSample {
    double Us;
    uint64_t Value;
    uint32_t Tid;
    uint8_t Track;
  };
  std::vector<CtrSample> RateSamples;

  for (RingDump &D : Dumps) {
    unsigned Open = repairNesting(D);
    double LastUs = 0;
    for (const RawEv &E : D.Evs) {
      double Us = ToUs(E.Ts);
      LastUs = std::max(LastUs, Us);
      Sep();
      switch (E.Kind) {
      case KSpanB:
        std::fprintf(F,
                     "{\"name\":\"%s\",\"cat\":\"phase\",\"ph\":\"B\","
                     "\"ts\":%.3f,\"pid\":1,\"tid\":%u}",
                     phaseName(static_cast<Phase>(E.Code)), Us, D.Tid);
        break;
      case KSpanE:
        std::fprintf(F,
                     "{\"ph\":\"E\",\"ts\":%.3f,\"pid\":1,\"tid\":%u}", Us,
                     D.Tid);
        break;
      case KInstant:
        std::fprintf(
            F,
            "{\"name\":\"%s\",\"cat\":\"lifecycle\",\"ph\":\"i\","
            "\"s\":\"t\",\"ts\":%.3f,\"pid\":1,\"tid\":%u,"
            "\"args\":{\"arg\":%llu}}",
            traceInstantName(static_cast<TraceInstant>(E.Code)), Us, D.Tid,
            static_cast<unsigned long long>(E.Arg));
        break;
      case KCounter: {
        auto Track = static_cast<TraceCounterTrack>(E.Code);
        std::fprintf(F,
                     "{\"name\":\"%s\",\"cat\":\"counter\",\"ph\":\"C\","
                     "\"ts\":%.3f,\"pid\":1,\"tid\":%u,"
                     "\"args\":{\"value\":%llu}}",
                     traceCounterTrackName(Track), Us, D.Tid,
                     static_cast<unsigned long long>(E.Arg));
        if (Track == TraceCounterTrack::States ||
            Track == TraceCounterTrack::Samples)
          RateSamples.push_back({Us, E.Arg, D.Tid, E.Code});
        break;
      }
      default: // Unreadable slot (torn by a concurrent crash flush):
               // keep the stream valid with a harmless instant.
        std::fprintf(F,
                     "{\"name\":\"unknown\",\"ph\":\"i\",\"s\":\"t\","
                     "\"ts\":%.3f,\"pid\":1,\"tid\":%u}",
                     Us, D.Tid);
        break;
      }
      Res.Events++;
    }
    // Close spans still open at the flush (engine mid-run, crash) at the
    // thread's last timestamp so every B has a matching E.
    for (unsigned I = 0; I != Open; ++I) {
      Sep();
      std::fprintf(F, "{\"ph\":\"E\",\"ts\":%.3f,\"pid\":1,\"tid\":%u}",
                   LastUs, D.Tid);
      Res.Events++;
    }
  }

  // Rate tracks, emitted on tid 0 in global time order.
  std::stable_sort(RateSamples.begin(), RateSamples.end(),
                   [](const CtrSample &A, const CtrSample &B) {
                     return A.Us < B.Us;
                   });
  double PrevUs[2] = {-1, -1};
  uint64_t PrevVal[2] = {0, 0};
  for (const CtrSample &S : RateSamples) {
    unsigned Slot =
        S.Track == static_cast<uint8_t>(TraceCounterTrack::States) ? 0 : 1;
    if (PrevUs[Slot] >= 0 && S.Us > PrevUs[Slot] && S.Value >= PrevVal[Slot]) {
      double PerSec =
          (S.Value - PrevVal[Slot]) / ((S.Us - PrevUs[Slot]) / 1e6);
      Sep();
      std::fprintf(F,
                   "{\"name\":\"%s\",\"cat\":\"counter\",\"ph\":\"C\","
                   "\"ts\":%.3f,\"pid\":1,\"tid\":%u,"
                   "\"args\":{\"value\":%.0f}}",
                   Slot == 0 ? "states_per_sec" : "samples_per_sec", S.Us,
                   S.Tid, PerSec);
      Res.Events++;
    }
    PrevUs[Slot] = S.Us;
    PrevVal[Slot] = S.Value;
  }

  std::fputs("\n]}\n", F);
  if (std::fflush(F) != 0 || std::ferror(F))
    return {false, Res.Events, "write error on " + Path};
  return Res;
}

void preKillDump() { traceCrashDump("fault-injection kill"); }

/// The per-expansion leaf phases fire millions of times per second;
/// recording every occurrence costs 7-10% of engine throughput — over
/// the <5% trace budget — and a 64k-event ring would hold well under a
/// second of them anyway. Recording 1 of every 64 keeps the timeline
/// representative at ~1/64th the cost. Both phases are leaves (no span
/// ever nests inside them), so skipping whole begin/end pairs cannot
/// unbalance the stream. Coarse phases are always recorded.
constexpr uint64_t HotStride = 64;

inline bool hotPhase(Phase P) {
  return P == Phase::MonitorStep || P == Phase::VisitedProbe;
}

thread_local uint64_t HotSeq = 0;

} // namespace

bool obs::traceSpanBegin(Phase P, uint64_t Now) {
  if (hotPhase(P) && HotSeq++ % HotStride != 0)
    return false;
  ring().push(KSpanB, static_cast<uint8_t>(P), Now, 0);
  return true;
}

void obs::traceSpanEnd(uint64_t Now) { ring().push(KSpanE, 0, Now, 0); }

void obs::traceInstantSlow(TraceInstant K, uint64_t Arg) {
  ring().push(KInstant, static_cast<uint8_t>(K), tick(), Arg);
}

void obs::traceCounterSlow(TraceCounterTrack C, uint64_t Value) {
  ring().push(KCounter, static_cast<uint8_t>(C), tick(), Value);
}

void obs::traceThreadNameSlow(const std::string &Name) {
  Ring &R = ring();
  TraceRegistry &Reg = traceRegistry();
  std::lock_guard<std::mutex> L(Reg.M);
  R.Name = Name;
}

bool obs::traceConfigure(const std::string &Path, uint64_t CapPerThread) {
  if (Path.empty())
    return false;
  TraceRegistry &Reg = traceRegistry();
  {
    std::lock_guard<std::mutex> L(Reg.M);
    Reg.Path = Path;
    Reg.CrashPath = Path + ".crash.txt";
    Reg.Cap = roundCap(CapPerThread);
    Reg.Configured = true;
    // Start a fresh recording: drop retired rings and rewind live ones.
    // Callers configure between runs, when only the calling thread (and
    // long-dead workers' retired rings) have recorded anything, so
    // rewinding live heads here does not race their owners — and under
    // the same quiescence assumption, rings created by an earlier
    // configure can be reallocated to the new per-thread capacity.
    Reg.Retired.clear();
    for (Ring *R : Reg.Live) {
      if (R->Cap != Reg.Cap) {
        R->Cap = Reg.Cap;
        R->Ts.reset(new std::atomic<uint64_t>[R->Cap]);
        R->Meta.reset(new std::atomic<uint64_t>[R->Cap]);
        R->Arg.reset(new std::atomic<uint64_t>[R->Cap]);
      }
      R->Head.store(0, std::memory_order_release);
    }
  }
  fi::setPreKillHook(&preKillDump);
  TraceActiveFlag.store(true, std::memory_order_release);
  return true;
}

void obs::traceStop() {
  TraceActiveFlag.store(false, std::memory_order_release);
}

bool obs::traceConfigured() {
  TraceRegistry &Reg = traceRegistry();
  std::lock_guard<std::mutex> L(Reg.M);
  return Reg.Configured;
}

std::string obs::traceConfiguredPath() {
  TraceRegistry &Reg = traceRegistry();
  std::lock_guard<std::mutex> L(Reg.M);
  return Reg.Path;
}

void obs::traceSetCrashDumpPath(const std::string &Path) {
  TraceRegistry &Reg = traceRegistry();
  std::lock_guard<std::mutex> L(Reg.M);
  Reg.CrashPath = Path;
}

std::string obs::traceCrashDumpPath() {
  TraceRegistry &Reg = traceRegistry();
  std::lock_guard<std::mutex> L(Reg.M);
  return Reg.CrashPath;
}

TraceWriteResult obs::traceWrite() {
  std::string Path = traceConfiguredPath();
  if (Path.empty())
    return {false, 0, "no trace configured"};
  return writeTraceFile(Path);
}

TraceWriteResult obs::traceWriteTo(const std::string &Path) {
  if (Path.empty())
    return {false, 0, "empty trace path"};
  return writeTraceFile(Path);
}

bool obs::traceCrashDump(const char *Reason, uint64_t LastN) {
  TraceRegistry &Reg = traceRegistry();
  std::vector<RingDump> Dumps;
  std::string Path;
  uint64_t AnchorCycles;
  {
    std::lock_guard<std::mutex> L(Reg.M);
    if (!Reg.Configured || Reg.CrashPath.empty())
      return false;
    Path = Reg.CrashPath;
    snapshotRings(Reg, Dumps);
    AnchorCycles = Reg.AnchorCycles;
  }
  double UsPerCycle = 1e6 / Reg.cyclesPerSecond();

  struct Flat {
    double Us;
    uint32_t Tid;
    const char *TName;
    RawEv E;
  };
  std::vector<Flat> All;
  std::vector<std::string> Names(Dumps.size());
  for (size_t I = 0; I != Dumps.size(); ++I) {
    RingDump &D = Dumps[I];
    Names[I] = D.Name.empty() ? "thread " + std::to_string(D.Tid) : D.Name;
    for (const RawEv &E : D.Evs) {
      double Us =
          (E.Ts >= AnchorCycles ? E.Ts - AnchorCycles : 0) * UsPerCycle;
      All.push_back({Us, D.Tid, Names[I].c_str(), E});
    }
  }
  std::stable_sort(All.begin(), All.end(),
                   [](const Flat &A, const Flat &B) { return A.Us < B.Us; });
  size_t Begin = All.size() > LastN ? All.size() - LastN : 0;

  FilePtr Fp;
  Fp.F = std::fopen(Path.c_str(), "w");
  if (!Fp.F)
    return false;
  FILE *F = Fp.F;
  std::fprintf(F, "rocker flight-recorder crash dump\n");
  std::fprintf(F, "reason: %s\n", Reason ? Reason : "unknown");
  std::fprintf(F, "events: %zu of %zu recorded (most recent last)\n\n",
               All.size() - Begin, All.size());
  for (size_t I = Begin; I != All.size(); ++I) {
    const Flat &Fl = All[I];
    std::fprintf(F, "%12.3f ms  [t%u %-10s] ", Fl.Us / 1000.0, Fl.Tid,
                 Fl.TName);
    switch (Fl.E.Kind) {
    case KSpanB:
      std::fprintf(F, "begin %s\n", phaseName(static_cast<Phase>(Fl.E.Code)));
      break;
    case KSpanE:
      std::fprintf(F, "end\n");
      break;
    case KInstant:
      std::fprintf(F, "%s arg=%llu\n",
                   traceInstantName(static_cast<TraceInstant>(Fl.E.Code)),
                   static_cast<unsigned long long>(Fl.E.Arg));
      break;
    case KCounter:
      std::fprintf(F, "%s=%llu\n",
                   traceCounterTrackName(
                       static_cast<TraceCounterTrack>(Fl.E.Code)),
                   static_cast<unsigned long long>(Fl.E.Arg));
      break;
    default:
      std::fprintf(F, "unknown event\n");
      break;
    }
  }
  std::fflush(F);
  return true;
}

#endif // ROCKER_NO_TELEMETRY
