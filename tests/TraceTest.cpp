//===- tests/TraceTest.cpp - Flight-recorder correctness --------------------===//
//
// Covers src/obs/Trace: the --trace spec grammar, the Chrome trace-event
// JSON the serializer writes (envelope, metadata, balanced B/E nesting,
// per-thread timestamp monotonicity), verdict neutrality of recording at
// one and four engine threads, the ring-capacity clamp, and the readable
// crash dump. When telemetry is compiled out (-DROCKER_NO_TELEMETRY) the
// recorder degrades to inert stubs, asserted in the compile-out section.
//
//===----------------------------------------------------------------------===//

#include "litmus/Corpus.h"
#include "obs/Json.h"
#include "obs/Trace.h"
#include "rocker/RobustnessChecker.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unistd.h>

using namespace rocker;

namespace {

std::string tmpPath(const char *Stem) {
  return (std::filesystem::temp_directory_path() /
          (std::string(Stem) + "." + std::to_string(::getpid()) + ".json"))
      .string();
}

/// Stops the recorder and removes the trace artifacts whether or not the
/// test body reached its own cleanup — recorder state is process-global
/// and must not leak into the next test.
struct TraceCleanup {
  std::string Path;
  explicit TraceCleanup(std::string P) : Path(std::move(P)) {}
  ~TraceCleanup() {
    obs::traceStop();
    std::error_code Ec;
    std::filesystem::remove(Path, Ec);
    std::filesystem::remove(Path + ".crash.txt", Ec);
  }
};

} // namespace

TEST(TraceSpec, ParseGrammar) {
  auto S = obs::parseTraceSpec("out.json");
  ASSERT_TRUE(S.has_value());
  EXPECT_EQ(S->Path, "out.json");
  EXPECT_EQ(S->Cap, 0u); // 0 = default capacity.

  S = obs::parseTraceSpec("out.json:4096");
  ASSERT_TRUE(S.has_value());
  EXPECT_EQ(S->Path, "out.json");
  EXPECT_EQ(S->Cap, 4096u);

  // A non-numeric suffix is part of the path, not a cap.
  S = obs::parseTraceSpec("dir:with:colons/out.json");
  ASSERT_TRUE(S.has_value());
  EXPECT_EQ(S->Path, "dir:with:colons/out.json");
  EXPECT_EQ(S->Cap, 0u);

  // Only the last colon-group counts, so paths with colons still take
  // a cap.
  S = obs::parseTraceSpec("a:b/out.json:512");
  ASSERT_TRUE(S.has_value());
  EXPECT_EQ(S->Path, "a:b/out.json");
  EXPECT_EQ(S->Cap, 512u);

  // A trailing bare colon is kept as path text (empty suffix is not a
  // cap), and empty or null specs are rejected.
  S = obs::parseTraceSpec("out.json:");
  ASSERT_TRUE(S.has_value());
  EXPECT_EQ(S->Path, "out.json:");
  EXPECT_FALSE(obs::parseTraceSpec("").has_value());
  EXPECT_FALSE(obs::parseTraceSpec(nullptr).has_value());
  EXPECT_FALSE(obs::parseTraceSpec(":123").has_value());
}

#ifndef ROCKER_NO_TELEMETRY

namespace {

/// Structural validation of a serialized trace (the C++ twin of
/// bench/trace_check.py): envelope, per-(pid,tid) timestamp
/// monotonicity, balanced B/E nesting, and named non-E events.
void validateTrace(const std::string &Path, uint64_t *NumEvents = nullptr,
                   const obs::json::Value **DocOut = nullptr,
                   std::optional<obs::json::Value> *Keep = nullptr) {
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "trace file missing: " << Path;
  std::stringstream Buf;
  Buf << In.rdbuf();
  auto Doc = obs::json::parse(Buf.str());
  ASSERT_TRUE(Doc.has_value()) << "trace is not valid JSON";
  const obs::json::Value *Evs = Doc->find("traceEvents");
  ASSERT_NE(Evs, nullptr) << "missing traceEvents envelope";

  std::map<std::pair<uint64_t, uint64_t>, double> LastTs;
  std::map<std::pair<uint64_t, uint64_t>, int> Depth;
  bool SawProcessName = false;
  for (const obs::json::Value &E : Evs->items()) {
    const obs::json::Value *Ph = E.find("ph");
    ASSERT_NE(Ph, nullptr);
    std::string P = Ph->asString();
    ASSERT_NE(E.find("pid"), nullptr);
    ASSERT_NE(E.find("tid"), nullptr);
    std::pair<uint64_t, uint64_t> Key = {E.find("pid")->asUInt(),
                                         E.find("tid")->asUInt()};
    if (P != "E") {
      ASSERT_NE(E.find("name"), nullptr) << P << " event without a name";
    }
    if (P == "M") {
      if (E.find("name")->asString() == "process_name")
        SawProcessName = true;
      continue; // Metadata carries no timestamp.
    }
    const obs::json::Value *Ts = E.find("ts");
    ASSERT_NE(Ts, nullptr) << P << " event without ts";
    double T = Ts->asDouble();
    // Counter events are exempt from the file-order monotonicity check:
    // the derived rate tracks are appended after the rings and viewers
    // sort by ts. Order carries semantics only for span nesting.
    if (P != "C") {
      auto It = LastTs.find(Key);
      if (It != LastTs.end()) {
        EXPECT_GE(T, It->second) << "timestamps not monotonic on tid "
                                 << Key.second;
      }
      LastTs[Key] = T;
    }
    if (P == "B")
      ++Depth[Key];
    else if (P == "E") {
      EXPECT_GT(Depth[Key], 0) << "E without matching B on tid "
                               << Key.second;
      --Depth[Key];
    }
  }
  for (const auto &[Key, D] : Depth)
    EXPECT_EQ(D, 0) << D << " span(s) left open on tid " << Key.second;
  EXPECT_TRUE(SawProcessName) << "missing process_name metadata";
  if (NumEvents)
    *NumEvents = Evs->items().size();
  if (DocOut && Keep) {
    *Keep = std::move(Doc);
    *DocOut = &**Keep;
  }
}

} // namespace

TEST(Trace, RecordsAndWritesPerfettoJson) {
  std::string Path = tmpPath("trace-basic");
  TraceCleanup Guard(Path);
  ASSERT_TRUE(obs::traceConfigure(Path));
  EXPECT_TRUE(obs::traceConfigured());
  EXPECT_EQ(obs::traceConfiguredPath(), Path);

  Program P = findCorpusEntry("lamport2-ra").parse();
  RockerOptions O;
  O.StopOnViolation = false;
  O.RecordTrace = false;
  RockerReport R = checkRobustness(P, O);
  ASSERT_TRUE(R.Complete);

  obs::traceStop();
  obs::TraceWriteResult W = obs::traceWrite();
  ASSERT_TRUE(W.Ok) << W.Error;
  EXPECT_GT(W.Events, 0u);

  std::optional<obs::json::Value> Keep;
  const obs::json::Value *Doc = nullptr;
  uint64_t NumEvents = 0;
  validateTrace(Path, &NumEvents, &Doc, &Keep);
  if (HasFatalFailure())
    return;
  EXPECT_GT(NumEvents, 0u);

  // The engine lifecycle and the periodic counter tracks made it in.
  bool SawStart = false, SawStop = false, SawCounter = false,
       SawSpan = false;
  for (const obs::json::Value &E : Doc->find("traceEvents")->items()) {
    const obs::json::Value *Name = E.find("name");
    std::string N = Name ? Name->asString() : "";
    SawStart |= N == "engine_start";
    SawStop |= N == "engine_stop";
    SawCounter |= E.find("ph")->asString() == "C";
    SawSpan |= E.find("ph")->asString() == "B";
  }
  EXPECT_TRUE(SawStart);
  EXPECT_TRUE(SawStop);
  EXPECT_TRUE(SawCounter);
  EXPECT_TRUE(SawSpan);
}

TEST(Trace, VerdictsIdenticalUnderTracing) {
  Program P = findCorpusEntry("peterson-ra").parse();
  for (unsigned Threads : {1u, 4u}) {
    RockerOptions O;
    O.RecordTrace = false;
    O.StopOnViolation = false;
    O.Threads = Threads;
    RockerReport Plain = checkRobustness(P, O);

    std::string Path = tmpPath("trace-verdict");
    TraceCleanup Guard(Path);
    ASSERT_TRUE(obs::traceConfigure(Path));
    RockerReport Traced = checkRobustness(P, O);
    obs::traceStop();
    obs::TraceWriteResult W = obs::traceWrite();
    ASSERT_TRUE(W.Ok) << W.Error;

    EXPECT_EQ(Plain.Robust, Traced.Robust) << Threads << " threads";
    EXPECT_EQ(Plain.Stats.NumStates, Traced.Stats.NumStates)
        << Threads << " threads";
    validateTrace(Path);
    if (HasFatalFailure())
      return;
  }
}

TEST(Trace, RingCapacityIsClampedAndOverwritesOldest) {
  std::string Path = tmpPath("trace-cap");
  TraceCleanup Guard(Path);
  // 10 is below the 256 minimum: clamped up, never under-allocated.
  ASSERT_TRUE(obs::traceConfigure(Path, 10));
  for (unsigned I = 0; I != 10'000; ++I)
    obs::traceInstant(obs::TraceInstant::CacheHit, I);
  obs::traceStop();
  obs::TraceWriteResult W = obs::traceWrite();
  ASSERT_TRUE(W.Ok) << W.Error;
  // The ring kept only the newest window (256 slots on this thread),
  // not all 10k pushes; rate-track derivation may add a handful.
  EXPECT_LE(W.Events, 600u);
  EXPECT_GE(W.Events, 256u);

  std::optional<obs::json::Value> Keep;
  const obs::json::Value *Doc = nullptr;
  validateTrace(Path, nullptr, &Doc, &Keep);
  if (HasFatalFailure())
    return;
  // Overwrite-oldest: the newest instant (arg 9999) survives.
  bool SawNewest = false;
  for (const obs::json::Value &E : Doc->find("traceEvents")->items()) {
    const obs::json::Value *Args = E.find("args");
    if (Args && Args->find("arg") && Args->find("arg")->asUInt() == 9999)
      SawNewest = true;
  }
  EXPECT_TRUE(SawNewest);
}

TEST(Trace, CrashDumpIsReadableText) {
  std::string Path = tmpPath("trace-crash");
  TraceCleanup Guard(Path);
  ASSERT_TRUE(obs::traceConfigure(Path));
  EXPECT_EQ(obs::traceCrashDumpPath(), Path + ".crash.txt");

  obs::traceInstant(obs::TraceInstant::WatchdogFired, 42);
  ASSERT_TRUE(obs::traceCrashDump("unit-test reason"));

  std::ifstream In(Path + ".crash.txt");
  ASSERT_TRUE(In.good());
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Text = Buf.str();
  EXPECT_NE(Text.find("flight-recorder crash dump"), std::string::npos);
  EXPECT_NE(Text.find("reason: unit-test reason"), std::string::npos);
  EXPECT_NE(Text.find("watchdog arg=42"), std::string::npos);

  // The dump path override used by checkpointed engines sticks.
  std::string Alt = Path + ".alt.txt";
  obs::traceSetCrashDumpPath(Alt);
  EXPECT_EQ(obs::traceCrashDumpPath(), Alt);
  ASSERT_TRUE(obs::traceCrashDump("second reason", 8));
  std::ifstream In2(Alt);
  ASSERT_TRUE(In2.good());
  std::error_code Ec;
  std::filesystem::remove(Alt, Ec);
}

TEST(Trace, WriteWithoutConfigureFails) {
  // Fresh processes never write implicitly. (traceConfigured may be true
  // from an earlier test in this binary; what must hold is that a write
  // to an unwritable target reports failure, not silence.)
  obs::TraceWriteResult W = obs::traceWriteTo("");
  EXPECT_FALSE(W.Ok);
  EXPECT_FALSE(W.Error.empty());
  W = obs::traceWriteTo("/nonexistent-dir-for-rocker-test/t.json");
  EXPECT_FALSE(W.Ok);
  EXPECT_FALSE(W.Error.empty());
}

#else // ROCKER_NO_TELEMETRY

TEST(Trace, CompiledOutIsInert) {
  EXPECT_FALSE(obs::traceSupported());
  EXPECT_FALSE(obs::traceConfigure("/tmp/never-written.json"));
  EXPECT_FALSE(obs::traceConfigured());
  obs::traceInstant(obs::TraceInstant::EngineStart);
  obs::traceCounter(obs::TraceCounterTrack::States, 1);
  obs::traceThreadName("x");
  obs::TraceWriteResult W = obs::traceWrite();
  EXPECT_FALSE(W.Ok);
  EXPECT_FALSE(obs::traceCrashDump("reason"));
  EXPECT_FALSE(std::filesystem::exists("/tmp/never-written.json"));
}

#endif // ROCKER_NO_TELEMETRY
