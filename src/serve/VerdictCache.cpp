//===- serve/VerdictCache.cpp - Content-addressed verdict store -----------===//

#include "serve/VerdictCache.h"

#include "lang/Printer.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "resilience/Checkpoint.h"
#include "support/Hashing.h"

#include <cstdio>
#include <cstring>

#include <sys/stat.h>

namespace rocker::serve {

namespace {

/// Second independent FNV-1a stream: same primes, different offset basis,
/// so the two 64-bit halves of a key don't collide together.
uint64_t hashBytesAlt(const std::string &S) {
  uint64_t H = 0xaf63bd4c8601b7dfull; // FNV-0 of "rocker-cache"
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

/// The options half of the canonical form. Field order is part of the
/// format; extend only by appending (a reordering would silently orphan
/// every stored entry).
std::string canonicalOptions(const std::string &Mode,
                             const RockerOptions &O) {
  std::string S;
  auto Flag = [&](const char *K, bool V) {
    S += '|';
    S += K;
    S += V ? "=1" : "=0";
  };
  auto Num = [&](const char *K, uint64_t V) {
    S += '|';
    S += K;
    S += '=';
    S += std::to_string(V);
  };
  S += "mode=";
  S += Mode;
  Flag("crit", O.UseCriticalAbstraction);
  Flag("asserts", O.CheckAssertions);
  Flag("races", O.CheckRaces);
  Flag("stoponviol", O.StopOnViolation);
  Flag("collapse", O.CollapseLocalSteps);
  // Fixed terms: the key format is append-only, and these were the
  // search order and the visited-set compression when they were options.
  S += "|order=bfs";
  Num("maxstates", O.MaxStates);
  Num("bitstate", O.BitstateLog2);
  S += "|compress=1";
  Flag("por", O.UsePor);
  Flag("sampling", O.UseSampling);
  // Sampling knobs matter whenever the sampling engine can run — as the
  // primary engine or as the governor's fourth-rung fallback.
  if (O.UseSampling || O.Resilience.SampleOnExhaustion) {
    Num("samples", O.Sampling.Samples);
    Num("sampleseed", O.Sampling.Seed);
    Num("sampledepth", O.Sampling.MaxDepth);
    S += "|sched=";
    S += sample::sampleSchedulerName(O.Sampling.Sched);
    Num("pct", O.Sampling.PctChangePoints);
  }
  Num("membudget", O.Resilience.MemBudgetBytes);
  Flag("sampleonexhaust", O.Resilience.SampleOnExhaustion);
  return S;
}

/// mkdir -p for the two-level cache tree; EEXIST is success.
bool ensureDir(const std::string &Path, std::string *Err) {
  if (::mkdir(Path.c_str(), 0755) == 0 || errno == EEXIST)
    return true;
  if (Err)
    *Err = "mkdir " + Path + ": " + std::strerror(errno);
  return false;
}

std::optional<std::string> slurp(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return std::nullopt;
  std::string Data;
  char Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Data.append(Buf, N);
  bool Bad = std::ferror(F) != 0;
  std::fclose(F);
  if (Bad)
    return std::nullopt;
  return Data;
}

std::optional<VerdictClass> parseVerdictClass(const std::string &Name) {
  if (Name == "robust")
    return VerdictClass::Robust;
  if (Name == "not-robust")
    return VerdictClass::NotRobust;
  if (Name == "bounded-robust")
    return VerdictClass::BoundedRobust;
  return std::nullopt;
}

} // namespace

std::string cacheKey(const Program &P, const std::string &Mode,
                     const RockerOptions &Opts) {
  std::string S = "rocker-verdict-key/1|";
  S += canonicalOptions(Mode, Opts);
  S += "|prog=";
  S += toString(P); // Parser→printer round trip: the normal form.
  uint64_t H1 =
      hashBytes(reinterpret_cast<const uint8_t *>(S.data()), S.size());
  uint64_t H2 = hashBytesAlt(S);
  char Buf[33];
  std::snprintf(Buf, sizeof(Buf), "%016llx%016llx",
                static_cast<unsigned long long>(H1),
                static_cast<unsigned long long>(H2));
  return Buf;
}

VerdictCache::VerdictCache(std::string D) : Dir(std::move(D)) {
  Ok = ensureDir(Dir, &Err) && ensureDir(Dir + "/entries", &Err) &&
       ensureDir(Dir + "/jobs", &Err);
  if (Ok)
    loadIndex();
}

std::string VerdictCache::entryPath(const std::string &Key) const {
  return Dir + "/entries/" + Key + ".json";
}

std::string VerdictCache::jobCheckpointPath(const std::string &Key) const {
  return Dir + "/jobs/" + Key + ".rkcp";
}

size_t VerdictCache::entryCount() const {
  std::lock_guard<std::mutex> L(M);
  return Index.size();
}

void VerdictCache::loadIndex() {
  auto Text = slurp(Dir + "/index.json");
  if (!Text)
    return; // Fresh cache.
  auto J = obs::json::parse(*Text);
  if (!J)
    return; // Corrupt index: entries stay addressable; rebuilt on store.
  const obs::json::Value *Schema = J->find("schema");
  if (!Schema || Schema->asString() != "rocker-cache-index/1")
    return;
  const obs::json::Value *Entries = J->find("entries");
  if (!Entries)
    return;
  for (const obs::json::Value &E : Entries->items()) {
    const obs::json::Value *K = E.find("key");
    const obs::json::Value *P = E.find("program");
    const obs::json::Value *V = E.find("verdict");
    if (K && P && V)
      Index[K->asString()] = {P->asString(), V->asString()};
  }
}

std::optional<CacheHit> VerdictCache::lookup(const std::string &Key,
                                             std::string *Why) {
  obs::Span Sp(obs::Phase::Batch);
  auto Reject = [&](const char *Reason) -> std::optional<CacheHit> {
    if (Why)
      *Why = Reason;
    obs::add(obs::Ctr::CacheRejects);
    obs::add(obs::Ctr::CacheMisses);
    obs::traceInstant(obs::TraceInstant::CacheMiss);
    return std::nullopt;
  };

  auto Text = slurp(entryPath(Key));
  if (!Text) {
    if (Why)
      *Why = "absent";
    obs::add(obs::Ctr::CacheMisses);
    obs::traceInstant(obs::TraceInstant::CacheMiss);
    return std::nullopt;
  }
  auto J = obs::json::parse(*Text);
  if (!J)
    return Reject("corrupt entry: not valid JSON");
  const obs::json::Value *Schema = J->find("schema");
  if (!Schema || Schema->kind() != obs::json::Value::Kind::String ||
      Schema->asString() != "rocker-cache-entry/1")
    return Reject("corrupt entry: wrong schema");
  const obs::json::Value *K = J->find("key");
  if (!K || K->asString() != Key)
    return Reject("corrupt entry: key mismatch");
  const obs::json::Value *Report = J->find("report");
  if (!Report || Report->kind() != obs::json::Value::Kind::Object)
    return Reject("corrupt entry: missing report");
  const obs::json::Value *Verdict = Report->find("verdict");
  const obs::json::Value *Stats = Report->find("stats");
  if (!Verdict || !Stats)
    return Reject("corrupt entry: malformed report");
  const obs::json::Value *Cls = Verdict->find("class");
  auto VC = Cls ? parseVerdictClass(Cls->asString()) : std::nullopt;
  if (!VC)
    return Reject("corrupt entry: bad verdict class");

  CacheHit Hit;
  Hit.Report = *Report;
  Hit.Verdict = *VC;
  if (const obs::json::Value *B = Verdict->find("robust"))
    Hit.Robust = B->asBool();
  if (const obs::json::Value *B = Verdict->find("complete"))
    Hit.Complete = B->asBool();
  if (const obs::json::Value *N = Stats->find("states"))
    Hit.States = N->asUInt();
  if (const obs::json::Value *N = Stats->find("seconds"))
    Hit.EngineSeconds = N->asDouble();
  if (const obs::json::Value *R = Report->find("resilience")) {
    if (const obs::json::Value *FR = R->find("final_rung"))
      Hit.FinalRung = FR->asString();
    if (const obs::json::Value *D = R->find("downgrades"))
      Hit.Downgrades = D->items().size();
  }
  obs::add(obs::Ctr::CacheHits);
  obs::traceInstant(obs::TraceInstant::CacheHit);
  return Hit;
}

bool VerdictCache::store(const std::string &Key,
                         const std::string &ProgramName,
                         const std::string &VerdictName,
                         const obs::json::Value &Report,
                         std::string *StoreErr) {
  obs::Span Sp(obs::Phase::Batch);
  obs::json::Value Entry = obs::json::Value::object();
  Entry.set("schema", "rocker-cache-entry/1");
  Entry.set("key", Key);
  Entry.set("program", ProgramName);
  Entry.set("verdict", VerdictName);
  Entry.set("report", Report);
  if (!ckpt::atomicWriteFile(entryPath(Key), Entry.dump() + "\n", StoreErr))
    return false;

  std::lock_guard<std::mutex> L(M);
  Index[Key] = {ProgramName, VerdictName};
  if (!rewriteIndexLocked(StoreErr))
    return false;
  obs::add(obs::Ctr::CacheStores);
  obs::traceInstant(obs::TraceInstant::CacheStore);
  return true;
}

bool VerdictCache::rewriteIndexLocked(std::string *StoreErr) {
  obs::json::Value J = obs::json::Value::object();
  J.set("schema", "rocker-cache-index/1");
  obs::json::Value Entries = obs::json::Value::array();
  for (const auto &[K, PV] : Index) {
    obs::json::Value E = obs::json::Value::object();
    E.set("key", K);
    E.set("program", PV.first);
    E.set("verdict", PV.second);
    Entries.push(std::move(E));
  }
  J.set("entries", std::move(Entries));
  return ckpt::atomicWriteFile(Dir + "/index.json", J.dump() + "\n",
                               StoreErr);
}

} // namespace rocker::serve
