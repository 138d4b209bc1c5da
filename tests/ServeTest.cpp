//===- tests/ServeTest.cpp - Verdict cache + batch runtime ------------------===//
//
// Contract of the serving tier (src/serve):
//
//  * The cache key covers exactly the verdict-relevant surface: program
//    text (modulo parse/print normal form), mode, and every RockerOption
//    that can change a verdict or state count — and provably nothing
//    else. Thread counts, trace recording, wall-clock budgets, and
//    checkpoint plumbing must not change the key, or identical
//    submissions would miss; anything verdict-relevant must change it,
//    or different submissions would collide.
//  * A cache hit is indistinguishable from a fresh run: same verdict
//    class, robust/complete bits, and state count, across the whole
//    litmus corpus, sequential and with a worker pool.
//  * Corrupt or truncated store entries are rejected and recomputed,
//    never served.
//  * A preempted job leaves a spill that a later submission of the same
//    key resumes, with a verdict identical to an undisturbed run.
//  * Checked numeric parsing (support/ParseNum.h) accepts exactly the
//    documented forms — trailing junk is a parse failure, not a silent
//    truncation (the strtoull-era bug this hardening round removes).
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "litmus/Corpus.h"
#include "resilience/Resilience.h"
#include "serve/BatchRunner.h"
#include "support/ParseNum.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

using namespace rocker;

namespace {

namespace fs = std::filesystem;

/// A unique per-test cache directory, removed on destruction.
struct ScopedCacheDir {
  std::string Path;
  explicit ScopedCacheDir(const std::string &Stem)
      : Path((fs::temp_directory_path() /
              (Stem + "." + std::to_string(::getpid())))
                 .string()) {
    std::error_code Ec;
    fs::remove_all(Path, Ec);
  }
  ~ScopedCacheDir() {
    std::error_code Ec;
    fs::remove_all(Path, Ec);
  }
};

RockerOptions fastOpts() {
  RockerOptions O;
  O.MaxStates = 2'000'000;
  return O;
}

std::vector<serve::BatchJob> litmusBatch(const RockerOptions &Defaults) {
  std::vector<serve::BatchJob> Jobs;
  for (const CorpusEntry &E : litmusTests()) {
    serve::BatchJob J;
    J.Name = E.Name;
    J.Prog = E.parse();
    J.Opts = Defaults;
    Jobs.push_back(std::move(J));
  }
  return Jobs;
}

} // namespace

//===----------------------------------------------------------------------===//
// Cache-key canonicalization
//===----------------------------------------------------------------------===//

TEST(CacheKey, StableFormat) {
  Program P = findCorpusEntry("SB").parse();
  std::string Key = serve::cacheKey(P, "robustness", RockerOptions());
  EXPECT_EQ(Key.size(), 32u);
  EXPECT_EQ(Key.find_first_not_of("0123456789abcdef"), std::string::npos)
      << Key;
  // Deterministic across calls (and, by construction, across runs: the
  // key hashes a canonical string, never pointers or timestamps).
  EXPECT_EQ(Key, serve::cacheKey(P, "robustness", RockerOptions()));
  // And across versions: the format is append-only, so a stored entry
  // stays reachable. This is SB's key under the default options as
  // computed before the search order and visited-set compression
  // stopped being options (their terms are now fixed). POR is pinned on
  // against the ROCKER_NO_POR test pass.
  RockerOptions O;
  O.UsePor = true;
  EXPECT_EQ(serve::cacheKey(P, "robustness", O),
            "78a98ff817a782bfa9d8d1c1315b244b");
}

TEST(CacheKey, InsensitiveToWallClockAndObservabilityKnobs) {
  Program P = findCorpusEntry("peterson-ra").parse();
  std::string Base = serve::cacheKey(P, "robustness", RockerOptions());

  // Every knob that affects only how fast / how observable the run is,
  // never what it concludes. Each must leave the key untouched.
  RockerOptions O;
  O.Threads = 8;
  EXPECT_EQ(serve::cacheKey(P, "robustness", O), Base) << "Threads";

  O = RockerOptions();
  O.RecordTrace = false;
  EXPECT_EQ(serve::cacheKey(P, "robustness", O), Base) << "RecordTrace";

  O = RockerOptions();
  O.MaxSeconds = 30;
  EXPECT_EQ(serve::cacheKey(P, "robustness", O), Base) << "MaxSeconds";

  O = RockerOptions();
  O.Resilience.DeadlineSeconds = 5;
  EXPECT_EQ(serve::cacheKey(P, "robustness", O), Base) << "Deadline";

  O = RockerOptions();
  O.Resilience.WatchdogSeconds = 5;
  EXPECT_EQ(serve::cacheKey(P, "robustness", O), Base) << "Watchdog";

  O = RockerOptions();
  O.Resilience.CheckpointPath = "/tmp/somewhere.rkcp";
  O.Resilience.CheckpointIntervalSeconds = 1;
  O.Resilience.CheckpointEveryExpansions = 10;
  O.Resilience.ResumePath = "/tmp/somewhere.rkcp";
  EXPECT_EQ(serve::cacheKey(P, "robustness", O), Base) << "Checkpointing";

  // Sampling workers share one budget first-violation-wins; with a
  // fixed seed the verdict is worker-count-blind, like Threads.
  O = RockerOptions();
  O.UseSampling = true;
  std::string SampleBase = serve::cacheKey(P, "robustness", O);
  O.Sampling.Workers = 4;
  EXPECT_EQ(serve::cacheKey(P, "robustness", O), SampleBase)
      << "Sampling.Workers";
}

TEST(CacheKey, SensitiveToVerdictRelevantOptions) {
  Program P = findCorpusEntry("peterson-ra").parse();
  std::string Base = serve::cacheKey(P, "robustness", RockerOptions());

  EXPECT_NE(serve::cacheKey(P, "sc", RockerOptions()), Base) << "mode";

  Program Q = findCorpusEntry("SB").parse();
  EXPECT_NE(serve::cacheKey(Q, "robustness", RockerOptions()), Base)
      << "program";

  RockerOptions O;
  O.UseCriticalAbstraction = false;
  EXPECT_NE(serve::cacheKey(P, "robustness", O), Base) << "crit";

  O = RockerOptions();
  O.CheckRaces = false;
  EXPECT_NE(serve::cacheKey(P, "robustness", O), Base) << "races";

  O = RockerOptions();
  O.CheckAssertions = false;
  EXPECT_NE(serve::cacheKey(P, "robustness", O), Base) << "asserts";

  O = RockerOptions();
  O.StopOnViolation = false;
  EXPECT_NE(serve::cacheKey(P, "robustness", O), Base) << "stoponviol";

  O = RockerOptions();
  O.MaxStates = 12345;
  EXPECT_NE(serve::cacheKey(P, "robustness", O), Base) << "maxstates";

  O = RockerOptions();
  O.BitstateLog2 = 20;
  EXPECT_NE(serve::cacheKey(P, "robustness", O), Base) << "bitstate";

  O = RockerOptions();
  O.UsePor = !O.UsePor;
  EXPECT_NE(serve::cacheKey(P, "robustness", O), Base) << "por";

  O = RockerOptions();
  O.CollapseLocalSteps = !O.CollapseLocalSteps;
  EXPECT_NE(serve::cacheKey(P, "robustness", O), Base) << "collapse";

  O = RockerOptions();
  O.UseSampling = true;
  EXPECT_NE(serve::cacheKey(P, "robustness", O), Base) << "sampling";

  O = RockerOptions();
  O.Resilience.MemBudgetBytes = 64ull << 20;
  EXPECT_NE(serve::cacheKey(P, "robustness", O), Base) << "membudget";

  O = RockerOptions();
  O.Resilience.SampleOnExhaustion = true;
  EXPECT_NE(serve::cacheKey(P, "robustness", O), Base) << "sampleonexhaust";
}

TEST(CacheKey, SamplingConfigCountsOnlyWhenSamplingCanRun) {
  Program P = findCorpusEntry("SB").parse();

  // The sampling block is dead configuration for a purely exhaustive
  // run, so it must not perturb the key...
  RockerOptions A, B;
  B.Sampling.Seed = 999;
  B.Sampling.Samples = 7;
  B.Sampling.MaxDepth = 17;
  EXPECT_EQ(serve::cacheKey(P, "robustness", A),
            serve::cacheKey(P, "robustness", B));

  // ...but with the sampling engine (or the exhaustion fallback) armed,
  // budget and seed decide what a BoundedRobust verdict means.
  A.UseSampling = B.UseSampling = true;
  EXPECT_NE(serve::cacheKey(P, "robustness", A),
            serve::cacheKey(P, "robustness", B));

  A = RockerOptions();
  B = RockerOptions();
  A.Resilience.SampleOnExhaustion = B.Resilience.SampleOnExhaustion = true;
  B.Sampling.Seed = 999;
  EXPECT_NE(serve::cacheKey(P, "robustness", A),
            serve::cacheKey(P, "robustness", B));
}

TEST(CacheKey, ProgramTextIsNormalized) {
  // Two spellings of the same program — different whitespace, comments,
  // and instruction spacing — must map to the same key: the key hashes
  // the parse/print normal form, not the submitted bytes.
  const char *Spelling1 = R"(
program norm
vals 2
locs x y

thread t0
  x := 1
  a := y

thread t1
  y := 1
  b := x
)";
  const char *Spelling2 = R"(
# store buffering, reformatted
program norm
vals 2
locs   x   y

thread t0
    x := 1

    a := y
thread t1
  y := 1
  b := x
)";
  ParseResult R1 = parseProgram(Spelling1);
  ParseResult R2 = parseProgram(Spelling2);
  ASSERT_TRUE(R1.ok()) << "fixture must parse";
  ASSERT_TRUE(R2.ok()) << "fixture must parse";
  EXPECT_EQ(serve::cacheKey(*R1.Prog, "robustness", RockerOptions()),
            serve::cacheKey(*R2.Prog, "robustness", RockerOptions()));
}

//===----------------------------------------------------------------------===//
// Store round trips and corruption
//===----------------------------------------------------------------------===//

TEST(VerdictCache, StoreLookupRoundTrip) {
  ScopedCacheDir Dir("rocker-serve-roundtrip");

  serve::BatchJob J;
  J.Name = "SB";
  J.Prog = findCorpusEntry("SB").parse();
  J.Opts = fastOpts();

  serve::BatchOptions BO;
  BO.CacheDir = Dir.Path;
  serve::BatchResult Cold = serve::runBatch({J}, BO);
  ASSERT_EQ(Cold.Jobs.size(), 1u);
  ASSERT_TRUE(Cold.Jobs[0].Error.empty()) << Cold.Jobs[0].Error;
  EXPECT_EQ(Cold.Jobs[0].Source, serve::JobSource::Fresh);
  EXPECT_TRUE(Cold.Jobs[0].Stored);

  // A second cache object over the same directory sees the entry.
  serve::VerdictCache Cache(Dir.Path);
  ASSERT_TRUE(Cache.ok()) << Cache.error();
  EXPECT_EQ(Cache.entryCount(), 1u);
  auto Hit = Cache.lookup(Cold.Jobs[0].Key);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Verdict, VerdictClass::NotRobust);
  EXPECT_EQ(Hit->Verdict, Cold.Jobs[0].Verdict);
  EXPECT_EQ(Hit->States, Cold.Jobs[0].States);
  EXPECT_EQ(Hit->Complete, Cold.Jobs[0].Complete);
}

TEST(VerdictCache, CorruptEntryRejectedAndRecomputed) {
  ScopedCacheDir Dir("rocker-serve-corrupt");
  serve::BatchOptions BO;
  BO.CacheDir = Dir.Path;

  std::vector<serve::BatchJob> Jobs = litmusBatch(fastOpts());
  serve::BatchResult Cold = serve::runBatch(Jobs, BO);
  ASSERT_EQ(Cold.Errors, 0u);

  serve::VerdictCache Cache(Dir.Path);
  ASSERT_TRUE(Cache.ok()) << Cache.error();

  // Truncate one entry and garbage another; both must read as misses.
  const std::string TruncKey = Cold.Jobs[0].Key;
  const std::string GarbageKey = Cold.Jobs[1].Key;
  {
    std::string Full;
    {
      std::ifstream In(Cache.entryPath(TruncKey));
      ASSERT_TRUE(In.good());
      Full.assign(std::istreambuf_iterator<char>(In), {});
    }
    std::ofstream Out(Cache.entryPath(TruncKey), std::ios::trunc);
    Out << Full.substr(0, Full.size() / 2);
  }
  {
    std::ofstream Out(Cache.entryPath(GarbageKey), std::ios::trunc);
    Out << "{\"schema\":\"rocker-cache-entry/1\",\"key\":\"not-the-key\"}";
  }
  std::string Why;
  EXPECT_FALSE(Cache.lookup(TruncKey, &Why).has_value());
  EXPECT_FALSE(Cache.lookup(GarbageKey, &Why).has_value());

  // A warm batch recomputes exactly the damaged entries, serves the
  // rest from the store, and republishes what it recomputed.
  serve::BatchResult Warm = serve::runBatch(Jobs, BO);
  ASSERT_EQ(Warm.Jobs.size(), Cold.Jobs.size());
  for (size_t I = 0; I != Warm.Jobs.size(); ++I) {
    const serve::BatchJobResult &W = Warm.Jobs[I];
    ASSERT_TRUE(W.Error.empty()) << W.Name << ": " << W.Error;
    EXPECT_EQ(W.Verdict, Cold.Jobs[I].Verdict) << W.Name;
    EXPECT_EQ(W.States, Cold.Jobs[I].States) << W.Name;
    if (W.Key == TruncKey || W.Key == GarbageKey) {
      EXPECT_EQ(W.Source, serve::JobSource::Fresh) << W.Name;
      EXPECT_TRUE(W.Stored) << W.Name;
    } else {
      EXPECT_EQ(W.Source, serve::JobSource::CacheHit) << W.Name;
    }
  }

  // The recomputed entries are valid again.
  EXPECT_TRUE(Cache.lookup(TruncKey).has_value());
  EXPECT_TRUE(Cache.lookup(GarbageKey).has_value());
}

//===----------------------------------------------------------------------===//
// Batch runtime
//===----------------------------------------------------------------------===//

TEST(ServeBatch, WarmPassServesEveryVerdictUnchanged) {
  ScopedCacheDir Dir("rocker-serve-warm");
  serve::BatchOptions BO;
  BO.CacheDir = Dir.Path;

  std::vector<serve::BatchJob> Jobs = litmusBatch(fastOpts());
  serve::BatchResult Cold = serve::runBatch(Jobs, BO);
  serve::BatchResult Warm = serve::runBatch(Jobs, BO);
  ASSERT_EQ(Cold.Errors, 0u);
  ASSERT_EQ(Warm.Errors, 0u);
  ASSERT_EQ(Warm.Jobs.size(), Jobs.size());
  EXPECT_EQ(Warm.Hits, Warm.Jobs.size());
  EXPECT_EQ(Warm.Misses, 0u);

  for (size_t I = 0; I != Jobs.size(); ++I) {
    const serve::BatchJobResult &C = Cold.Jobs[I];
    const serve::BatchJobResult &W = Warm.Jobs[I];
    EXPECT_EQ(W.Source, serve::JobSource::CacheHit) << W.Name;

    // The hit must be indistinguishable from the fresh verdict — and
    // both must match a plain engine run outside the batch layer.
    EXPECT_EQ(W.Verdict, C.Verdict) << W.Name;
    EXPECT_EQ(W.Robust, C.Robust) << W.Name;
    EXPECT_EQ(W.Complete, C.Complete) << W.Name;
    EXPECT_EQ(W.States, C.States) << W.Name;
    RockerReport Fresh = checkRobustness(Jobs[I].Prog, Jobs[I].Opts);
    EXPECT_EQ(W.Verdict, Fresh.verdictClass()) << W.Name;
    EXPECT_EQ(W.States, Fresh.Stats.NumStates) << W.Name;
  }
}

TEST(ServeBatch, WorkerPoolMatchesSequential) {
  ScopedCacheDir DirSeq("rocker-serve-seq");
  ScopedCacheDir DirPar("rocker-serve-par");
  std::vector<serve::BatchJob> Jobs = litmusBatch(fastOpts());

  serve::BatchOptions Seq;
  Seq.CacheDir = DirSeq.Path;
  serve::BatchOptions Par;
  Par.CacheDir = DirPar.Path;
  Par.Workers = 4;

  serve::BatchResult A = serve::runBatch(Jobs, Seq);
  serve::BatchResult B = serve::runBatch(Jobs, Par);
  ASSERT_EQ(A.Jobs.size(), B.Jobs.size());
  for (size_t I = 0; I != A.Jobs.size(); ++I) {
    EXPECT_EQ(A.Jobs[I].Name, B.Jobs[I].Name);
    EXPECT_EQ(A.Jobs[I].Key, B.Jobs[I].Key) << A.Jobs[I].Name;
    EXPECT_EQ(A.Jobs[I].Verdict, B.Jobs[I].Verdict) << A.Jobs[I].Name;
    EXPECT_EQ(A.Jobs[I].States, B.Jobs[I].States) << A.Jobs[I].Name;
  }
}

TEST(ServeBatch, IntraBatchDuplicateComputedOnce) {
  ScopedCacheDir Dir("rocker-serve-dup");
  serve::BatchOptions BO;
  BO.CacheDir = Dir.Path;

  serve::BatchJob J;
  J.Name = "MP-first";
  J.Prog = findCorpusEntry("MP").parse();
  J.Opts = fastOpts();
  serve::BatchJob Dup = J;
  Dup.Name = "MP-again";

  serve::BatchResult R = serve::runBatch({J, Dup}, BO);
  ASSERT_EQ(R.Jobs.size(), 2u);
  EXPECT_EQ(R.Jobs[0].Source, serve::JobSource::Fresh);
  EXPECT_EQ(R.Jobs[1].Source, serve::JobSource::CacheHit);
  EXPECT_EQ(R.Jobs[1].Name, "MP-again");
  EXPECT_EQ(R.Jobs[0].Verdict, R.Jobs[1].Verdict);
  EXPECT_EQ(R.Jobs[0].States, R.Jobs[1].States);
  EXPECT_EQ(R.Hits, 1u);
  EXPECT_EQ(R.Misses, 1u);
  EXPECT_EQ(R.Stores, 1u);
}

TEST(ServeBatch, RecheckBypassesLookupButStillStores) {
  ScopedCacheDir Dir("rocker-serve-recheck");
  serve::BatchOptions BO;
  BO.CacheDir = Dir.Path;

  serve::BatchJob J;
  J.Name = "SB";
  J.Prog = findCorpusEntry("SB").parse();
  J.Opts = fastOpts();

  serve::runBatch({J}, BO);
  BO.UseCache = false;
  serve::BatchResult R = serve::runBatch({J}, BO);
  ASSERT_EQ(R.Jobs.size(), 1u);
  EXPECT_EQ(R.Jobs[0].Source, serve::JobSource::Fresh);
  EXPECT_TRUE(R.Jobs[0].Stored); // Republished over the old entry.
}

TEST(ServeBatch, PreemptedJobResumesToIdenticalVerdict) {
  ScopedCacheDir Dir("rocker-serve-resume");
  serve::BatchOptions BO;
  BO.CacheDir = Dir.Path;
  BO.CheckpointEveryExpansions = 20; // Deterministic preemption points.

  serve::BatchJob J;
  J.Name = "peterson-ra";
  J.Prog = findCorpusEntry("peterson-ra").parse();
  J.Opts = fastOpts();
  RockerReport Ref = checkRobustness(J.Prog, J.Opts);
  ASSERT_TRUE(Ref.Complete);

  // Preempt the cold run mid-exploration: the job reports incomplete,
  // publishes nothing, and leaves a resumable spill behind.
  resilience::requestStop();
  serve::BatchResult Stopped = serve::runBatch({J}, BO);
  resilience::clearStopRequest();
  ASSERT_EQ(Stopped.Jobs.size(), 1u);
  ASSERT_TRUE(Stopped.Jobs[0].Error.empty()) << Stopped.Jobs[0].Error;
  EXPECT_FALSE(Stopped.Jobs[0].Complete);
  EXPECT_FALSE(Stopped.Jobs[0].Stored);

  serve::VerdictCache Cache(Dir.Path);
  ASSERT_TRUE(Cache.ok()) << Cache.error();
  EXPECT_FALSE(Cache.lookup(Stopped.Jobs[0].Key).has_value())
      << "interrupted runs must never be published";
  ASSERT_TRUE(fs::exists(Cache.jobCheckpointPath(Stopped.Jobs[0].Key)));

  // Resubmission resumes from the spill and lands the exact verdict an
  // undisturbed run produces, then publishes it and clears the spill.
  serve::BatchResult Resumed = serve::runBatch({J}, BO);
  ASSERT_EQ(Resumed.Jobs.size(), 1u);
  ASSERT_TRUE(Resumed.Jobs[0].Error.empty()) << Resumed.Jobs[0].Error;
  EXPECT_EQ(Resumed.Jobs[0].Source, serve::JobSource::Resumed);
  EXPECT_EQ(Resumed.Jobs[0].Verdict, Ref.verdictClass());
  EXPECT_EQ(Resumed.Jobs[0].States, Ref.Stats.NumStates);
  EXPECT_TRUE(Resumed.Jobs[0].Stored);
  EXPECT_FALSE(fs::exists(Cache.jobCheckpointPath(Resumed.Jobs[0].Key)));

  // Third submission: a plain hit.
  serve::BatchResult Hit = serve::runBatch({J}, BO);
  ASSERT_EQ(Hit.Jobs.size(), 1u);
  EXPECT_EQ(Hit.Jobs[0].Source, serve::JobSource::CacheHit);
  EXPECT_EQ(Hit.Jobs[0].Verdict, Ref.verdictClass());
}

//===----------------------------------------------------------------------===//
// Manifest parsing and exit codes
//===----------------------------------------------------------------------===//

TEST(ServeBatch, ManifestParsesDefaultsAndOverrides) {
  const char *Text = R"({
    "schema": "rocker-batch-manifest/1",
    "defaults": { "threads": 2, "max_states": 5000 },
    "jobs": [
      { "program": "SB" },
      { "program": "MP", "mode": "sc", "name": "mp-under-sc" },
      { "program": "peterson-ra", "max_states": 77, "bitstate_log2": 36 }
    ]
  })";
  std::string Err;
  auto Jobs = serve::parseBatchManifest(Text, &Err);
  ASSERT_TRUE(Jobs.has_value()) << Err;
  ASSERT_EQ(Jobs->size(), 3u);
  EXPECT_EQ((*Jobs)[0].Name, "SB");
  EXPECT_EQ((*Jobs)[0].Mode, "robustness");
  EXPECT_EQ((*Jobs)[0].Opts.Threads, 2u);
  EXPECT_EQ((*Jobs)[0].Opts.MaxStates, 5000u);
  EXPECT_EQ((*Jobs)[1].Name, "mp-under-sc");
  EXPECT_EQ((*Jobs)[1].Mode, "sc");
  EXPECT_EQ((*Jobs)[2].Opts.MaxStates, 77u);
  EXPECT_EQ((*Jobs)[2].Opts.Threads, 2u); // Defaults still apply.
  EXPECT_EQ((*Jobs)[2].Opts.BitstateLog2, 36u);
}

TEST(ServeBatch, ManifestRejectsBadInput) {
  std::string Err;
  EXPECT_FALSE(serve::parseBatchManifest("not json", &Err).has_value());

  EXPECT_FALSE(
      serve::parseBatchManifest(R"({"schema":"nope","jobs":[]})", &Err)
          .has_value());
  EXPECT_NE(Err.find("schema"), std::string::npos) << Err;

  // Unknown option keys are errors, not silently ignored — a typo like
  // "max_state" must not quietly run with default budgets.
  EXPECT_FALSE(serve::parseBatchManifest(
                   R"({"schema":"rocker-batch-manifest/1",
                       "jobs":[{"program":"SB","max_state":7}]})",
                   &Err)
                   .has_value());
  EXPECT_NE(Err.find("max_state"), std::string::npos) << Err;

  // So are the keys of retired options: the search order and the
  // visited-set compression are no longer settable.
  for (auto [Key, Value] : {std::pair{"order", "\"dfs\""},
                             std::pair{"compress_visited", "false"}}) {
    EXPECT_FALSE(serve::parseBatchManifest(
                     std::string(R"({"schema":"rocker-batch-manifest/1",
                       "jobs":[{"program":"SB",")") +
                         Key + "\":" + Value + "}]}",
                     &Err)
                     .has_value())
        << Key;
    EXPECT_NE(Err.find(Key), std::string::npos) << Err;
  }

  // A job needs exactly one of program/file.
  EXPECT_FALSE(serve::parseBatchManifest(
                   R"({"schema":"rocker-batch-manifest/1","jobs":[{}]})",
                   &Err)
                   .has_value());
  EXPECT_FALSE(
      serve::parseBatchManifest(
          R"({"schema":"rocker-batch-manifest/1",
              "jobs":[{"program":"SB","file":"x.rkr"}]})",
          &Err)
          .has_value());

  // Bitstate widths outside [6, 36] (0 means off) would index or shift
  // past the bit array.
  for (const char *K : {"3", "37", "100"}) {
    EXPECT_FALSE(serve::parseBatchManifest(
                     std::string(R"({"schema":"rocker-batch-manifest/1",
                       "jobs":[{"program":"SB","bitstate_log2":)") +
                         K + "}]}",
                     &Err)
                     .has_value())
        << K;
    EXPECT_NE(Err.find("bitstate_log2"), std::string::npos) << Err;
  }

  // Unresolvable corpus names are errors too.
  EXPECT_FALSE(serve::parseBatchManifest(
                   R"({"schema":"rocker-batch-manifest/1",
                       "jobs":[{"program":"no-such-program"}]})",
                   &Err)
                   .has_value());
}

TEST(ServeBatch, ExitCodeContract) {
  serve::BatchResult R;
  R.Jobs.resize(2);
  R.Jobs[0].Verdict = VerdictClass::Robust;
  R.Jobs[1].Verdict = VerdictClass::Robust;
  EXPECT_EQ(serve::batchExitCode(R), 0);
  EXPECT_EQ(R.worst(), VerdictClass::Robust);

  R.Jobs[1].Verdict = VerdictClass::BoundedRobust;
  EXPECT_EQ(serve::batchExitCode(R), 2);
  EXPECT_EQ(R.worst(), VerdictClass::BoundedRobust);

  R.Jobs[0].Verdict = VerdictClass::NotRobust;
  EXPECT_EQ(serve::batchExitCode(R), 1);
  EXPECT_EQ(R.worst(), VerdictClass::NotRobust);

  R.Errors = 1;
  EXPECT_EQ(serve::batchExitCode(R), 4);
}

//===----------------------------------------------------------------------===//
// Checked numeric parsing
//===----------------------------------------------------------------------===//

TEST(ParseNum, U64AcceptsExactlyDigits) {
  EXPECT_EQ(num::parseU64("0"), 0u);
  EXPECT_EQ(num::parseU64("42"), 42u);
  EXPECT_EQ(num::parseU64("18446744073709551615"),
            18446744073709551615ull);

  EXPECT_FALSE(num::parseU64(""));
  EXPECT_FALSE(num::parseU64("2x"));       // The --threads=2x bug.
  EXPECT_FALSE(num::parseU64("4 "));
  EXPECT_FALSE(num::parseU64(" 4"));
  EXPECT_FALSE(num::parseU64("-1"));
  EXPECT_FALSE(num::parseU64("+1"));
  EXPECT_FALSE(num::parseU64("0x10"));
  EXPECT_FALSE(num::parseU64("18446744073709551616")); // Overflow.
  EXPECT_FALSE(num::parseU64(nullptr));
}

TEST(ParseNum, U32RangeChecks) {
  EXPECT_EQ(num::parseU32("4294967295"), 4294967295u);
  EXPECT_FALSE(num::parseU32("4294967296"));
  EXPECT_FALSE(num::parseU32("abc"));
}

TEST(ParseNum, F64AcceptsPlainDecimals) {
  EXPECT_EQ(num::parseF64("0.5"), 0.5);
  EXPECT_EQ(num::parseF64("2"), 2.0);
  EXPECT_FALSE(num::parseF64("abc"));
  EXPECT_FALSE(num::parseF64("1.5s"));
  EXPECT_FALSE(num::parseF64("-1"));
  EXPECT_FALSE(num::parseF64(""));
  EXPECT_FALSE(num::parseF64(nullptr));
}

TEST(ParseNum, ByteSizeSuffixes) {
  EXPECT_EQ(num::parseByteSize("1024"), 1024u);
  EXPECT_EQ(num::parseByteSize("4K"), 4096u);
  EXPECT_EQ(num::parseByteSize("512m"), 512ull << 20);
  EXPECT_EQ(num::parseByteSize("2G"), 2ull << 30);
  EXPECT_FALSE(num::parseByteSize("1MB")); // One suffix letter only.
  EXPECT_FALSE(num::parseByteSize("12Q"));
  EXPECT_FALSE(num::parseByteSize("M"));
  EXPECT_FALSE(num::parseByteSize(""));
  EXPECT_FALSE(num::parseByteSize("18014398509481984G")); // Overflow.
}
