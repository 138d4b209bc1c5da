//===- bench/fig7_table.cpp - Regenerate Figure 7 ---------------------------===//
//
// For every Figure 7 program: Rocker's robustness verdict and time, the
// plain-SC baseline time, and the TSO baseline ("Trencher") verdict and
// time. Expected (paper) verdicts are printed next to the measured ones;
// the shapes to compare are the verdict columns and the relative cost of
// instrumented vs plain exploration (absolute times differ: we use our
// own explicit-state checker instead of Spin, on different hardware).
//
// The same sweep is the repo's one bench driver. Each named configuration
// below is one RockerOptions change from `base` and reruns the robustness
// column only:
//
//   base           the table's run (POR on)
//   no-por         ample-set POR off               verdict = base
//   bitstate       2^24-bit supertrace hashing     (approximate)
//   collapse       thread-local step collapsing    verdict = base
//   ckpt-30s       checkpoint every 30 s           verdict, counts = base *+
//   ckpt-5s        checkpoint every 5 s            verdict, counts = base *
//   ckpt-forced    checkpoint every 50k expansions verdict, counts = base *
//   traced         flight recorder armed           verdict, counts = base +
//   threads-N      N workers, N in [2, 64]         verdict, counts = base *
//   sample-random  sampling engine, seed 1, one worker, per scheduler,
//   sample-pct     up to the first violating schedule; a program the
//   sample-por     paper marks not robust must be found not robust
//
// Every other run explores the whole state space (no stop at the first
// violation, no counterexample parent links), so counts are comparable
// on programs that are not robust too; counts are states, transitions
// and dedup hits. * = only on programs whose base run has at least
// --min-states states, default 1e5: on smaller ones, timing is noise.
// + = on those programs, each rep runs the configuration twice, each
// run right beside a base run, once with base first and once second,
// and the median of the per-pair states/s ratios is the
// configuration's overhead, which may be at most 5%. A configuration
// that breaks a count or verdict rule marks its row with "!" and fails
// the run; each report row carries its rule, so bench/report_diff.py
// checks the same rule (and judges the overhead bar) without a copy of
// this table. An untimed base run comes first and is every rule's
// reference; then every configuration runs --reps times (default 1),
// the reps of all configurations interleaved so machine-load drift hits
// each alike, and the fastest rep is kept. The SC and TSO columns run
// once.
//
// Usage: fig7_table [-v] [--configs LIST] [--min-states N] [--reps N]
//                   [--reports FILE] [--trace FILE[:N]] [program-name ...]
//        (LIST is comma-separated; `all` is every configuration above
//        with threads-2 and threads-4; base always runs. --reports
//        writes one rocker-run-report row per (program, configuration),
//        tagged "configuration" — bench/report_diff.py diffs it against
//        the committed BENCH_fig7_reports.json. --trace keeps the traced
//        configuration's recording of its last run in FILE, with an
//        N-event ring per thread. --help prints these lines and the
//        configuration names.)
//
// Exit codes follow rocker_cli's contract: 0 every verdict matches the
// paper and every configuration rule holds, 1 a mismatch, 2 at least one
// bounded (inconclusive) row, 3 usage error, 4 internal error.
//
//===----------------------------------------------------------------------===//

#include "litmus/Corpus.h"
#include "obs/RunReport.h"
#include "obs/Trace.h"
#include "rocker/RobustnessChecker.h"
#include "support/ParseNum.h"
#include "tso/TSORobustness.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

using namespace rocker;

namespace {

const char *mark(bool B) { return B ? "yes" : "no "; }

struct Config {
  std::string Name;
  RockerOptions Opts;
  bool Traced = false;      ///< Flight recorder armed for the run.
  bool LargeOnly = false;   ///< Only on programs with >= --min-states.
  bool SameVerdict = true;  ///< Robust and complete must equal base's.
  bool SameCounts = false;  ///< States, transitions and dedup hits too.
  double BarPct = 0;        ///< Max states/s overhead vs base; 0 = none.
};

/// The report fields behind SameVerdict and SameCounts, as
/// bench/report_diff.py reads them from a row's "rule".
const char *const VerdictFields[] = {"verdict.robust", "verdict.complete"};
const char *const CountFields[] = {"stats.states", "stats.transitions",
                                   "stats.dedup_hits"};

RockerOptions baseOptions() {
  RockerOptions O;
  O.MaxStates = 4'000'000;
  O.UsePor = true;
  O.StopOnViolation = false; // Full exploration: comparable counts.
  O.RecordTrace = false;
  return O;
}

const char *const AllConfigs[] = {
    "base", "no-por", "bitstate", "collapse", "ckpt-30s", "ckpt-5s",
    "ckpt-forced", "traced", "threads-2", "threads-4", "sample-random",
    "sample-pct", "sample-por"};

std::optional<Config> makeConfig(const std::string &Name,
                                 const std::string &CkptPath) {
  Config C{Name, baseOptions()};
  RockerOptions &O = C.Opts;
  auto Checkpoint = [&](double Interval, uint64_t Every) {
    O.Resilience.CheckpointPath = CkptPath;
    O.Resilience.CheckpointIntervalSeconds = Interval;
    O.Resilience.CheckpointEveryExpansions = Every;
    C.LargeOnly = true;
    C.SameCounts = true;
  };
  auto Sample = [&](sample::SampleScheduler S) {
    O.UseSampling = true;
    O.Sampling.Seed = 1;
    O.Sampling.Workers = 1;
    O.Sampling.Sched = S;
    O.StopOnViolation = true; // A schedule that violates settles it.
    C.SameVerdict = false;
  };
  if (Name == "base") {
    C.SameCounts = true; // Reps reproduce the first one.
  } else if (Name == "no-por") {
    O.UsePor = false;
  } else if (Name == "bitstate") {
    O.BitstateLog2 = 24;
    C.SameVerdict = false;
  } else if (Name == "collapse") {
    O.CollapseLocalSteps = true;
  } else if (Name == "ckpt-30s") {
    Checkpoint(30, 0);
    C.BarPct = 5;
  } else if (Name == "ckpt-5s") {
    Checkpoint(5, 0);
  } else if (Name == "ckpt-forced") {
    Checkpoint(0, 50'000);
  } else if (Name == "traced") {
    C.Traced = true;
    C.SameCounts = true;
    C.BarPct = 5;
  } else if (Name.rfind("threads-", 0) == 0) {
    std::optional<unsigned> N = num::parseU32(Name.substr(8));
    if (!N || *N < 2 || *N > 64)
      return std::nullopt;
    O.Threads = *N;
    C.LargeOnly = true;
    C.SameCounts = true;
  } else if (Name == "sample-random") {
    Sample(sample::SampleScheduler::Random);
  } else if (Name == "sample-pct") {
    Sample(sample::SampleScheduler::Pct);
  } else if (Name == "sample-por") {
    Sample(sample::SampleScheduler::PorDiverse);
  } else {
    return std::nullopt;
  }
  return C;
}

/// The best rep of one configuration on one program.
struct Row {
  const Config *C = nullptr;
  RockerReport R;
  obs::Snapshot Before, After;
};

/// Whether \p R reproduces base's \p Ref as configuration \p C requires.
bool ruleHolds(const Config &C, const RockerReport &Ref,
               const RockerReport &R) {
  if (C.SameVerdict &&
      (R.Robust != Ref.Robust || R.Complete != Ref.Complete))
    return false;
  return !C.SameCounts || (R.Stats.NumStates == Ref.Stats.NumStates &&
                           R.Stats.NumTransitions == Ref.Stats.NumTransitions &&
                           R.Stats.DedupHits == Ref.Stats.DedupHits);
}

/// One run of configuration \p C; with C.Traced the recording goes to
/// \p TracePath (removed afterwards when \p KeepTrace is false).
Row runOnce(const Program &P, const Config &C, const std::string &TracePath,
            uint64_t TraceCap, bool KeepTrace) {
  Row Out;
  Out.C = &C;
  if (C.Traced)
    obs::traceConfigure(TracePath, TraceCap);
  Out.Before = obs::snapshot();
  Out.R = checkRobustness(P, C.Opts);
  Out.After = obs::snapshot();
  std::error_code Ec;
  if (C.Traced) {
    obs::traceStop();
    obs::TraceWriteResult W = obs::traceWrite();
    if (!W.Ok)
      std::fprintf(stderr, "warning: trace write failed: %s\n",
                   W.Error.c_str());
    if (!KeepTrace)
      std::filesystem::remove(TracePath, Ec);
  }
  if (C.Opts.Resilience.wantsCheckpoints())
    std::filesystem::remove(C.Opts.Resilience.CheckpointPath, Ec);
  return Out;
}

double statesPerSec(const RockerReport &R) {
  return R.Stats.Seconds > 0 ? R.Stats.NumStates / R.Stats.Seconds : 0;
}

double ratio(double A, double B) { return B > 0 ? A / B : 0; }

/// The median of \p V (not empty).
double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t M = V.size() / 2;
  return V.size() % 2 ? V[M] : (V[M - 1] + V[M]) / 2;
}

/// One report row, tagged with its configuration. A configuration with a
/// rule carries it as "rule": the reference configuration, the fields
/// that must equal the reference's row, and, where the bar applies, the
/// bar and the measured overhead. threads-N rows also carry their
/// speedup over base.
obs::json::Value reportRow(const std::string &Name, const Row &Row,
                           const RockerReport &Base,
                           std::optional<double> OverheadPct) {
  const Config &C = *Row.C;
  obs::json::Value Report = obs::toJson(obs::buildRunReport(
      Name, "robustness", C.Opts, Row.R, Row.Before, Row.After));
  obs::json::Value J = obs::json::Value::object();
  for (const auto &[Key, V] : Report.members()) {
    J.set(Key, V);
    if (Key == "program")
      J.set("configuration", C.Name);
  }
  if (C.Name != "base" && (C.SameVerdict || C.SameCounts)) {
    obs::json::Value Equal = obs::json::Value::array();
    if (C.SameVerdict)
      for (const char *F : VerdictFields)
        Equal.push(F);
    if (C.SameCounts)
      for (const char *F : CountFields)
        Equal.push(F);
    obs::json::Value Rule = obs::json::Value::object();
    Rule.set("reference", "base");
    Rule.set("equal", std::move(Equal));
    if (OverheadPct) {
      Rule.set("bar_pct", C.BarPct);
      Rule.set("overhead_pct", *OverheadPct);
    }
    J.set("rule", std::move(Rule));
  }
  if (C.Opts.Threads > 1)
    J.set("speedup", ratio(Base.Stats.Seconds, Row.R.Stats.Seconds));
  return J;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: fig7_table [-v] [--configs LIST] [--min-states N] [--reps N]\n"
      "                  [--reports FILE] [--trace FILE[:N]] "
      "[program-name ...]\n"
      "\nconfigurations (LIST is comma-separated; `all` names them all; "
      "base\nalways runs):\n ");
  for (const char *Name : AllConfigs)
    std::fprintf(stderr, " %s", Name);
  std::fprintf(stderr, "\n  (threads-N takes any N in [2, 64])\n");
  return 3;
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Only;
  bool Verbose = false;
  uint64_t MinStates = 100'000;
  unsigned Reps = 1;
  std::string ConfigList = "base";
  std::string ReportsPath;
  std::string TraceSpec;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "-v") {
      Verbose = true;
      continue;
    }
    if (A == "--help")
      return usage();
    if (A.empty() || A[0] != '-') {
      Only.push_back(A);
      continue;
    }
    // "--flag VALUE" or "--flag=VALUE".
    std::string Flag = A.substr(0, A.find('='));
    std::string Val;
    if (Flag.size() < A.size()) {
      Val = A.substr(Flag.size() + 1);
    } else if (I + 1 < argc) {
      Val = argv[++I];
    } else {
      std::fprintf(stderr, "error: %s needs a value\n", Flag.c_str());
      return 3;
    }
    bool Ok = true;
    if (Flag == "--configs") {
      ConfigList = Val;
    } else if (Flag == "--min-states") {
      auto N = num::parseU64(Val);
      Ok = N.has_value();
      MinStates = N.value_or(0);
    } else if (Flag == "--reps") {
      auto N = num::parseU32(Val);
      Ok = N && *N >= 1 && *N <= 100;
      Reps = N.value_or(1);
    } else if (Flag == "--reports") {
      ReportsPath = Val;
    } else if (Flag == "--trace") {
      TraceSpec = Val;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Flag.c_str());
      return 3;
    }
    if (!Ok) {
      std::fprintf(stderr, "error: invalid value for %s: '%s'\n",
                   Flag.c_str(), Val.c_str());
      return 3;
    }
  }

  // The configuration list: base first, then the rest in the order named.
  std::string CkptPath =
      (std::filesystem::temp_directory_path() /
       ("fig7-ckpt." + std::to_string(::getpid()) + ".rkcp"))
          .string();
  std::vector<std::string> Names{"base"};
  for (size_t Pos = 0; Pos <= ConfigList.size();) {
    size_t End = std::min(ConfigList.find(',', Pos), ConfigList.size());
    std::string Name = ConfigList.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Name == "all")
      Names.insert(Names.end(), std::begin(AllConfigs), std::end(AllConfigs));
    else
      Names.push_back(Name);
  }
  std::vector<Config> Configs;
  for (const std::string &Name : Names) {
    if (std::any_of(Configs.begin(), Configs.end(),
                    [&](const Config &C) { return C.Name == Name; }))
      continue;
    std::optional<Config> C = makeConfig(Name, CkptPath);
    if (!C) {
      std::fprintf(stderr, "error: unknown configuration '%s'\n",
                   Name.c_str());
      return 3;
    }
    if (C->Traced && !obs::traceSupported()) {
      std::fprintf(stderr, "warning: configuration 'traced' skipped: "
                           "telemetry is compiled out "
                           "(ROCKER_NO_TELEMETRY)\n");
      continue;
    }
    Configs.push_back(std::move(*C));
  }
  bool AnyTraced = std::any_of(Configs.begin(), Configs.end(),
                               [](const Config &C) { return C.Traced; });
  std::string TracePath =
      (std::filesystem::temp_directory_path() /
       ("fig7-trace." + std::to_string(::getpid()) + ".json"))
          .string();
  uint64_t TraceCap = 0;
  if (!TraceSpec.empty()) {
    std::optional<obs::TraceSpec> TS =
        obs::parseTraceSpec(TraceSpec.c_str());
    if (!TS) {
      std::fprintf(stderr, "error: invalid value for --trace: '%s'\n",
                   TraceSpec.c_str());
      return 3;
    }
    if (!AnyTraced) {
      std::fprintf(stderr,
                   "error: --trace needs the traced configuration\n");
      return 3;
    }
    TracePath = TS->Path;
    TraceCap = TS->Cap;
  }

  std::printf("%-22s | %-3s %-4s | %2s | %4s | %9s %8s | %8s | %-4s %8s\n",
              "Program", "Res", "(exp)", "#T", "LoC", "States", "Time[s]",
              "SC[s]", "TSO", "(exp)");
  std::printf("%s\n", std::string(102, '-').c_str());

  obs::json::Value Reports = obs::json::Value::array();
  unsigned Mismatches = 0;
  unsigned Bounded = 0;
  for (const CorpusEntry &E : figure7Programs()) {
    if (!Only.empty() &&
        std::find(Only.begin(), Only.end(), E.Name) == Only.end())
      continue;
    Program P = E.parse();

    // An untimed base run first: it pays the cold allocator and cache
    // costs, is every rule's reference, and decides which configurations
    // run at all. Then the reps, interleaved across configurations.
    const RockerReport Ref =
        runOnce(P, Configs[0], TracePath, TraceCap, false).R;
    const bool Large = Ref.Stats.NumStates >= MinStates;
    std::vector<std::optional<Row>> Best(Configs.size());
    std::vector<bool> Broken(Configs.size());
    // Per barred configuration, its states/s over the adjacent base run's,
    // two ratios per rep.
    std::vector<std::vector<double>> PairRatios(Configs.size());
    auto Keep = [&](size_t CI, Row Run) {
      if (!ruleHolds(Configs[CI], Ref, Run.R))
        Broken[CI] = true;
      if (!Best[CI] || Run.R.Stats.Seconds < Best[CI]->R.Stats.Seconds)
        Best[CI] = std::move(Run);
    };
    const bool KeepTrace = !TraceSpec.empty();
    RockerReport SC;
    TSORobustnessResult Tso;
    for (unsigned Rep = 0; Rep != Reps; ++Rep) {
      for (size_t CI = 0; CI != Configs.size(); ++CI) {
        const Config &C = Configs[CI];
        if (C.LargeOnly && !Large)
          continue;
        if (CI == 0 || C.BarPct == 0 || !Large) {
          Keep(CI, runOnce(P, C, TracePath, TraceCap, KeepTrace));
          continue;
        }
        // Two (base, configuration) pairs, each run right after the
        // other, in opposite orders, so a drift within a pair favours
        // neither side.
        for (unsigned K = 0; K != 2; ++K) {
          bool BaseFirst = (Rep + K) % 2 == 0;
          std::optional<Row> Pair;
          if (BaseFirst)
            Pair = runOnce(P, Configs[0], TracePath, TraceCap, false);
          Row Run = runOnce(P, C, TracePath, TraceCap, KeepTrace);
          if (!BaseFirst)
            Pair = runOnce(P, Configs[0], TracePath, TraceCap, false);
          PairRatios[CI].push_back(
              ratio(statesPerSec(Run.R), statesPerSec(Pair->R)));
          Keep(0, std::move(*Pair));
          Keep(CI, std::move(Run));
        }
      }
      if (Rep == 0) {
        SC = exploreSC(P, baseOptions());
        TSOOptions TO;
        TO.TrencherMode = true;
        TO.MaxStates = 4'000'000;
        TO.UsePor = true;
        Tso = checkTSORobustness(P, TO);
      }
    }

    const RockerReport &Base = Best[0]->R;
    // Starred rows: the paper's Trencher verdict reflects its trace-based
    // robustness notion on lowered blocking instructions; our state-based
    // baseline reproduces it only when the difference is state-visible,
    // so starred rows are informational.
    bool TsoMatch = !E.ExpectTsoTrencher.has_value() || E.TrencherStar ||
                    Tso.Robust == *E.ExpectTsoTrencher;
    for (size_t CI = 0; CI != Configs.size(); ++CI) {
      if (!Best[CI])
        continue;
      const Row &Row = *Best[CI];
      const RockerReport &R = Row.R;
      const Config &C = *Row.C;
      // A bounded run (budget truncation, bitstate hashing, or sampling)
      // proved nothing either way: its "robust" is inconclusive, so it is
      // flagged instead of compared (rocker_cli exit code 2 = bounded).
      // Sampling must still find every violation the paper reports.
      bool Inconclusive =
          R.Robust && R.verdictClass() == VerdictClass::BoundedRobust;
      if (Inconclusive)
        ++Bounded;
      bool ResMatch = R.Robust == E.ExpectRobust ||
                      (Inconclusive && !C.Opts.UseSampling);
      bool RowMatch = ResMatch && !Broken[CI] && (CI != 0 || TsoMatch);
      if (!RowMatch)
        ++Mismatches;
      std::optional<double> OverheadPct;
      if (!PairRatios[CI].empty())
        OverheadPct = 100.0 * (1.0 - median(PairRatios[CI]));
      if (!ReportsPath.empty())
        Reports.push(reportRow(E.Name, Row, Base, OverheadPct));

      if (CI == 0) {
        std::printf(
            "%-22s | %-3s (%s)%s | %2u | %4u | %9llu %8.3f | %8.3f | "
            "%-4s (%s%s)%s\n",
            E.Name.c_str(), mark(R.Robust), mark(E.ExpectRobust),
            ResMatch && !Broken[CI] ? " " : "!", P.numThreads(),
            P.linesOfCode(), static_cast<unsigned long long>(R.Stats.NumStates),
            R.Stats.Seconds, SC.Stats.Seconds, mark(Tso.Robust),
            E.ExpectTsoTrencher ? mark(*E.ExpectTsoTrencher) : "-- ",
            E.TrencherStar ? "*" : "", TsoMatch ? " " : "!");
        if (Verbose && !R.Robust)
          std::printf("\n%s\n", R.FirstViolationText.c_str());
        if (!SC.Robust)
          std::printf("  (SC baseline found violations: %s)\n",
                      SC.FirstViolationText.c_str());
      } else {
        // Beside base's: states, states/s (a speedup or an overhead)
        // and visited bytes (a compression ratio).
        std::printf("  %-20s | %-3s %-5s%s | %9llu %8.3f | %5.2fx states, "
                    "%5.2fx states/s, %7.2f MiB visited (%.2fx)\n",
                    C.Name.c_str(), mark(R.Robust), "", RowMatch ? " " : "!",
                    static_cast<unsigned long long>(R.Stats.NumStates),
                    R.Stats.Seconds,
                    ratio(R.Stats.NumStates, Base.Stats.NumStates),
                    ratio(statesPerSec(R), statesPerSec(Base)),
                    R.Stats.VisitedBytes / (1024.0 * 1024.0),
                    ratio(R.Stats.VisitedBytes, Base.Stats.VisitedBytes));
        if (OverheadPct)
          std::printf("  %-20s   %.1f%% states/s overhead beside base, "
                      "median of %zu pairs (bar %.0f%%)\n",
                      "", *OverheadPct, PairRatios[CI].size(), C.BarPct);
      }
      if (Inconclusive && CI == 0)
        std::printf("  (bounded: %s — verdict inconclusive, not compared)\n",
                    !R.Complete ? "budget or deadline truncated the run"
                                : "storage degraded to bitstate hashing");
    }
    std::fflush(stdout);
  }
  std::printf("%s\n", std::string(102, '-').c_str());
  std::printf("verdict mismatches vs paper or base: %u", Mismatches);
  if (Bounded)
    std::printf(" (%u bounded/inconclusive row%s excluded)", Bounded,
                Bounded == 1 ? "" : "s");
  std::printf("\n");
  std::printf("(* = paper marks the Trencher verdict as an artifact of "
              "lowering blocking instructions; ! = verdict differs from the "
              "paper, or a configuration broke its rule)\n");
  if (!ReportsPath.empty()) {
    std::ofstream Out(ReportsPath);
    if (!(Out << Reports.dump() << '\n').flush()) {
      std::fprintf(stderr, "error: cannot write reports to '%s'\n",
                   ReportsPath.c_str());
      return 4;
    }
    std::printf("wrote %zu run reports to %s\n", Reports.items().size(),
                ReportsPath.c_str());
  }
  if (Mismatches)
    return 1;
  return Bounded ? 2 : 0;
}
