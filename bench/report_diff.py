#!/usr/bin/env python3
"""Compare two rocker run-report files and flag performance regressions.

Usage:
    python3 bench/report_diff.py BASELINE CURRENT [--warn-only]
                                 [--threshold PCT]

Each file is either a single run report or an array of them, as written
by `rocker_cli --report` / `fig7_table --reports` (schema
"rocker-run-report/1", or "rocker-run-report/2" when the report carries
the sampling engine's "sample" stats block — reports without that block
are still accepted, so older baselines never fail the diff). Reports
are matched by program name; for each pair the tool flags:

  * verdict changes (robust/complete flipped) — always an error;
  * states/sec drops of more than the threshold (default 10%);
  * visited-set byte growth of more than the threshold;
  * state-count changes (the exploration is deterministic, so any
    change means the engines diverged) — an error, unless the two
    reports disagree on config.use_por: the ample-set reduction changes
    state counts by design, so a POR-config difference downgrades the
    state-count finding to a warning (verdict changes stay errors). For
    sampling runs (config.engine == "sample") the "state" count is the
    step total, which shifts with worker scheduling, so it is a warning
    there too; the sampling determinism check is violation_sample
    instead — a fixed-seed single-worker run must find its violation at
    the same sample index, so a change is an error;
  * sampling schedules/sec drops beyond the threshold — a warning.

Also accepts a pair of sampler-throughput bench files (schema
"rocker-bench-sample/1", written by `sample_throughput --json`): per
(program, scheduler) row, violation_sample changes are errors (the
bench runs a fixed seed on one worker) and schedules/sec drops beyond
the threshold are warnings.

Also accepts a pair of batch-throughput bench files (schema
"rocker-bench-batch/1", written by `batch_throughput --json`): per
program, verdict/key/state-count/warm-hit changes are errors (the
verdict cache must reproduce the fresh verdict exactly and the key
format is part of the on-disk contract), a warm hit rate below 95% is
an error (the batch acceptance bar), and cold wall-time growth or
warm-speedup drops beyond the threshold are warnings.

Also accepts a pair of checkpoint-overhead bench files (schema
"rocker-bench-resilience/1", written by `checkpoint_overhead --json`).
For those the tool flags state-count changes and checkpoint-perturbed
counts as errors, checkpoint overhead at the default 30s interval above
5% of baseline throughput as an error (the resilience acceptance bar),
and overhead growth beyond the threshold in percentage points as a
warning. The two files must share a schema.

Also accepts a pair of flight-recorder overhead bench files (schema
"rocker-bench-trace/1", written by `trace_overhead --json`): per
program, state-count changes and trace-perturbed counts are errors,
traced overhead above 5% of baseline throughput is an error (the
tracing acceptance bar), and overhead growth beyond the threshold in
percentage points is a warning.

Also accepts a pair of parallel-speedup bench files (schema
"rocker-bench-speedup/1", written by `parallel_speedup --json`): per
program, verdict or state-count drift between any thread-count cell
and the sequential baseline is an error (the parallel engine must be
observationally identical to the sequential one); per matched
thread-count cell, speedup drops beyond the threshold are warnings
(timing class — thread ladders and hardware differ between machines,
so unmatched cells are skipped silently).

Also accepts a pair of batch summary reports (schema
"rocker-batch-report/1", written by `rocker_batch --report`): per job,
verdict changes are errors; queue-wait (queue_seconds) regressions
beyond the threshold — over an absolute 0.1s floor, so instant queues
don't alarm on microsecond jitter — and job wall-time growth beyond
the threshold are warnings.

Exit status: 0 when clean or when only warnings (timing-class noise)
were flagged, 1 when an error (verdict, determinism, or acceptance-bar
change) was found. With --warn-only everything is printed but the exit
status stays 0 — CI uses this to surface even error-class findings on
noise-prone benches without blocking merges.
With --update-baseline the comparison is printed as usual, then the
CURRENT file's contents are written over BASELINE and the exit status
is 0 — for regenerating the committed baseline after an intentional
change (e.g. flipping the POR default). Stdlib only; no third-party
imports.
"""

import argparse
import json
import sys

# /2 == /1 plus an optional stats.sample block for sampling runs; both
# are accepted (and may be mixed within one file) so pre-sampling
# baselines keep diffing cleanly against current output.
SCHEMAS = ("rocker-run-report/1", "rocker-run-report/2")
RESILIENCE_SCHEMA = "rocker-bench-resilience/1"
SAMPLE_SCHEMA = "rocker-bench-sample/1"
BATCH_SCHEMA = "rocker-bench-batch/1"
TRACE_SCHEMA = "rocker-bench-trace/1"
SPEEDUP_SCHEMA = "rocker-bench-speedup/1"
BATCH_REPORT_SCHEMA = "rocker-batch-report/1"
CKPT_OVERHEAD_BAR_PCT = 5.0  # 30s-interval overhead acceptance bar.
BATCH_HIT_RATE_BAR = 0.95  # warm-pass hit-rate acceptance bar.
TRACE_OVERHEAD_BAR_PCT = 5.0  # flight-recorder overhead acceptance bar.
QUEUE_WAIT_FLOOR_SECONDS = 0.1  # ignore queue-wait jitter below this.


def load_reports(path):
    """Returns ("run", {program-name: report}) for run-report files,
    ("resilience", {program-name: row}) for checkpoint-overhead bench
    files, ("sample", {(program, scheduler): row}) for
    sampler-throughput bench files, or ("batch", whole-file-dict) for
    batch-throughput bench files (those carry summary fields next to
    the per-program rows, so the dict is kept intact)."""
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if isinstance(data, dict) and data.get("schema") == RESILIENCE_SCHEMA:
        return "resilience", {p["name"]: p for p in data["programs"]}
    if isinstance(data, dict) and data.get("schema") == SAMPLE_SCHEMA:
        return "sample", {
            (p["name"], p["scheduler"]): p for p in data["programs"]
        }
    if isinstance(data, dict) and data.get("schema") == BATCH_SCHEMA:
        return "batch", data
    if isinstance(data, dict) and data.get("schema") == TRACE_SCHEMA:
        return "trace", {p["name"]: p for p in data["programs"]}
    if isinstance(data, dict) and data.get("schema") == SPEEDUP_SCHEMA:
        return "speedup", {p["name"]: p for p in data["programs"]}
    if isinstance(data, dict) and data.get("schema") == BATCH_REPORT_SCHEMA:
        return "batchreport", {j["name"]: j for j in data["jobs"]}
    reports = data if isinstance(data, list) else [data]
    out = {}
    for r in reports:
        if r.get("schema") not in SCHEMAS:
            raise ValueError(
                f"{path}: unexpected schema {r.get('schema')!r} "
                f"(want one of {SCHEMAS!r}, {RESILIENCE_SCHEMA!r}, "
                f"{SAMPLE_SCHEMA!r}, {BATCH_SCHEMA!r}, "
                f"{TRACE_SCHEMA!r}, {SPEEDUP_SCHEMA!r}, or "
                f"{BATCH_REPORT_SCHEMA!r})"
            )
        out[r["program"]] = r
    return "run", out


def pct(new, old):
    """Relative change in percent, or None when the baseline is zero.

    A zero baseline has no meaningful percentage — treating it as 0%
    (the old behaviour) silently hid every regression against a
    zero-valued baseline row. Callers turn None into a "new/absolute"
    row that reports the raw values without a percentage."""
    if not old:
        return None
    return 100.0 * (new - old) / old


def compare(base, cur, threshold):
    """Yields (severity, message) pairs; severity is 'error' for verdict
    or determinism changes and 'warn' for timing-class regressions."""
    for name in sorted(set(base) | set(cur)):
        if name not in cur:
            yield "error", f"{name}: present in baseline, missing now"
            continue
        if name not in base:
            yield "warn", f"{name}: new program (no baseline)"
            continue
        b, c = base[name], cur[name]

        bv, cv = b["verdict"], c["verdict"]
        for key in ("robust", "complete"):
            if bv.get(key) != cv.get(key):
                yield "error", (
                    f"{name}: verdict.{key} changed "
                    f"{bv.get(key)} -> {cv.get(key)}"
                )

        bs, cs = b["stats"], c["stats"]
        sampling = "sample" in (b.get("config", {}).get("engine"),
                                c.get("config", {}).get("engine"))
        if bs.get("states") != cs.get("states"):
            b_por = b.get("config", {}).get("use_por")
            c_por = c.get("config", {}).get("use_por")
            if sampling:
                # Sampling reports count executed steps, which shift with
                # worker scheduling and stop-on-violation timing; the
                # determinism check for these runs is violation_sample
                # below, not the step total.
                yield "warn", (
                    f"{name}: sampled step count changed "
                    f"{bs.get('states')} -> {cs.get('states')}"
                )
            elif b_por != c_por:
                yield "warn", (
                    f"{name}: state count changed "
                    f"{bs.get('states')} -> {cs.get('states')} "
                    f"(expected: config.use_por differs, "
                    f"{b_por} -> {c_por})"
                )
            else:
                yield "error", (
                    f"{name}: state count changed "
                    f"{bs.get('states')} -> {cs.get('states')} "
                    "(exploration should be deterministic)"
                )

        # Older baselines predate the sample block; only compare it when
        # both sides carry one.
        b_smp, c_smp = bs.get("sample", {}), cs.get("sample", {})
        if b_smp and c_smp:
            bvs = b_smp.get("violation_sample", -1)
            cvs = c_smp.get("violation_sample", -1)
            if bvs != cvs and b_smp.get("seed") == c_smp.get("seed"):
                yield "error", (
                    f"{name}: violation_sample changed {bvs} -> {cvs} "
                    "under the same seed (sampling should be "
                    "reproducible)"
                )
            sched_delta = pct(c_smp.get("schedules_per_sec", 0),
                              b_smp.get("schedules_per_sec", 0))
            if sched_delta is None:
                if c_smp.get("schedules_per_sec", 0):
                    yield "warn", (
                        f"{name}: schedules/sec new/absolute "
                        f"(baseline 0, now "
                        f"{c_smp.get('schedules_per_sec', 0):.0f}; "
                        "no percentage)"
                    )
            elif sched_delta < -threshold:
                yield "warn", (
                    f"{name}: schedules/sec dropped {-sched_delta:.1f}% "
                    f"({b_smp.get('schedules_per_sec', 0):.0f} -> "
                    f"{c_smp.get('schedules_per_sec', 0):.0f})"
                )

        rate_delta = pct(cs.get("states_per_sec", 0),
                         bs.get("states_per_sec", 0))
        if rate_delta is None:
            if cs.get("states_per_sec", 0):
                yield "warn", (
                    f"{name}: states/sec new/absolute (baseline 0, now "
                    f"{cs.get('states_per_sec', 0):.0f}; no percentage)"
                )
        elif rate_delta < -threshold:
            yield "warn", (
                f"{name}: states/sec dropped {-rate_delta:.1f}% "
                f"({bs.get('states_per_sec', 0):.0f} -> "
                f"{cs.get('states_per_sec', 0):.0f})"
            )

        bytes_delta = pct(cs.get("visited_bytes", 0),
                          bs.get("visited_bytes", 0))
        if bytes_delta is None:
            if cs.get("visited_bytes", 0):
                yield "warn", (
                    f"{name}: visited bytes new/absolute (baseline 0, "
                    f"now {cs.get('visited_bytes', 0)}; no percentage)"
                )
        elif bytes_delta > threshold:
            yield "warn", (
                f"{name}: visited bytes grew {bytes_delta:.1f}% "
                f"({bs.get('visited_bytes', 0)} -> "
                f"{cs.get('visited_bytes', 0)})"
            )


def compare_resilience(base, cur, threshold):
    """Comparison for checkpoint-overhead bench files: determinism is an
    error, the 5% 30s-interval bar is an error, overhead growth beyond
    the threshold (in percentage points) is a warning."""
    for name in sorted(set(base) | set(cur)):
        if name not in cur:
            yield "error", f"{name}: present in baseline, missing now"
            continue
        if name not in base:
            yield "warn", f"{name}: new program (no baseline)"
            continue
        b, c = base[name], cur[name]
        if b.get("states") != c.get("states"):
            yield "error", (
                f"{name}: state count changed "
                f"{b.get('states')} -> {c.get('states')} "
                "(exploration should be deterministic)"
            )
        if not c.get("counts_match", True):
            yield "error", (
                f"{name}: checkpointing perturbed the verdict or state "
                "count"
            )
        ovh30 = c.get("interval30s", {}).get("overhead_pct", 0.0)
        if ovh30 > CKPT_OVERHEAD_BAR_PCT:
            yield "error", (
                f"{name}: 30s-interval checkpoint overhead {ovh30:.2f}% "
                f"exceeds the {CKPT_OVERHEAD_BAR_PCT:.0f}% bar"
            )
        for key in ("interval30s", "interval5s", "forced50k"):
            bo = b.get(key, {}).get("overhead_pct", 0.0)
            co = c.get(key, {}).get("overhead_pct", 0.0)
            if co - bo > threshold:
                yield "warn", (
                    f"{name}: {key} overhead grew "
                    f"{bo:.2f}% -> {co:.2f}%"
                )


def compare_trace(base, cur, threshold):
    """Comparison for flight-recorder overhead bench files: determinism
    is an error, the 5% traced-overhead bar is an error, overhead growth
    beyond the threshold (in percentage points) is a warning."""
    for name in sorted(set(base) | set(cur)):
        if name not in cur:
            yield "error", f"{name}: present in baseline, missing now"
            continue
        if name not in base:
            yield "warn", f"{name}: new program (no baseline)"
            continue
        b, c = base[name], cur[name]
        if b.get("states") != c.get("states"):
            yield "error", (
                f"{name}: state count changed "
                f"{b.get('states')} -> {c.get('states')} "
                "(exploration should be deterministic)"
            )
        if not c.get("counts_match", True):
            yield "error", (
                f"{name}: tracing perturbed the verdict or state count"
            )
        ovh = c.get("traced", {}).get("overhead_pct", 0.0)
        if ovh > TRACE_OVERHEAD_BAR_PCT:
            yield "error", (
                f"{name}: flight-recorder overhead {ovh:.2f}% exceeds "
                f"the {TRACE_OVERHEAD_BAR_PCT:.0f}% bar"
            )
        bo = b.get("traced", {}).get("overhead_pct", 0.0)
        if ovh - bo > threshold:
            yield "warn", (
                f"{name}: traced overhead grew {bo:.2f}% -> {ovh:.2f}%"
            )


def compare_speedup(base, cur, threshold):
    """Comparison for parallel-speedup bench files: every thread-count
    cell must reproduce the sequential verdict and state count exactly
    (an equivalence error, machine-independent); speedup drops beyond
    the threshold on matched cells are timing-class warnings. Cells
    present on only one side are skipped — thread ladders follow the
    machine's core count."""
    for name in sorted(set(base) | set(cur)):
        if name not in cur:
            yield "error", f"{name}: present in baseline, missing now"
            continue
        if name not in base:
            yield "warn", f"{name}: new program (no baseline)"
            continue
        b, c = base[name], cur[name]
        if b.get("states") != c.get("states"):
            yield "error", (
                f"{name}: state count changed "
                f"{b.get('states')} -> {c.get('states')} "
                "(exploration should be deterministic)"
            )
        if b.get("robust") != c.get("robust"):
            yield "error", (
                f"{name}: verdict changed "
                f"{b.get('robust')} -> {c.get('robust')}"
            )
        if not c.get("counts_match", True):
            yield "error", (
                f"{name}: a parallel run diverged from the sequential "
                "baseline (verdict or state count)"
            )
        b_runs = {r["threads"]: r for r in b.get("runs", [])}
        c_runs = {r["threads"]: r for r in c.get("runs", [])}
        for threads in sorted(set(b_runs) & set(c_runs)):
            br, cr = b_runs[threads], c_runs[threads]
            if not cr.get("counts_match", True):
                yield "error", (
                    f"{name} [{threads}t]: verdict/state-count "
                    "mismatch vs sequential"
                )
            sp_delta = pct(cr.get("speedup", 0), br.get("speedup", 0))
            if sp_delta is not None and sp_delta < -threshold:
                yield "warn", (
                    f"{name} [{threads}t]: speedup dropped "
                    f"{-sp_delta:.1f}% ({br.get('speedup', 0):.2f}x -> "
                    f"{cr.get('speedup', 0):.2f}x)"
                )


def compare_batch_report(base, cur, threshold):
    """Comparison for rocker-batch-report/1 summaries: per job, verdict
    changes are errors; queue-wait regressions beyond the threshold (over
    the absolute floor) and wall-time growth beyond the threshold are
    warnings. Provenance (source) legitimately differs between cold and
    warm passes, so it is not compared."""
    for name in sorted(set(base) | set(cur)):
        if name not in cur:
            yield "error", f"{name}: present in baseline, missing now"
            continue
        if name not in base:
            yield "warn", f"{name}: new job (no baseline)"
            continue
        b, c = base[name], cur[name]
        if b.get("verdict") != c.get("verdict"):
            yield "error", (
                f"{name}: verdict changed "
                f"{b.get('verdict')!r} -> {c.get('verdict')!r}"
            )
        bq, cq = b.get("queue_seconds", 0.0), c.get("queue_seconds", 0.0)
        q_delta = pct(cq, bq)
        if cq > QUEUE_WAIT_FLOOR_SECONDS and (
            q_delta is None or q_delta > threshold
        ):
            yield "warn", (
                f"{name}: queue wait grew {bq:.3f}s -> {cq:.3f}s"
            )
        bw, cw = b.get("wall_seconds", 0.0), c.get("wall_seconds", 0.0)
        w_delta = pct(cw, bw)
        if w_delta is not None and w_delta > threshold and \
                cw > QUEUE_WAIT_FLOOR_SECONDS:
            yield "warn", (
                f"{name}: job wall time grew {bw:.3f}s -> {cw:.3f}s"
            )


def compare_sample(base, cur, threshold):
    """Comparison for sampler-throughput bench files: the bench runs a
    fixed seed on a single worker, so violation-sample changes are
    errors; schedules/sec drops beyond the threshold are warnings."""
    def label(key):
        return f"{key[0]} [{key[1]}]"

    for key in sorted(set(base) | set(cur)):
        if key not in cur:
            yield "error", f"{label(key)}: present in baseline, missing now"
            continue
        if key not in base:
            yield "warn", f"{label(key)}: new row (no baseline)"
            continue
        b, c = base[key], cur[key]
        bvs = b.get("violation_sample", -1)
        cvs = c.get("violation_sample", -1)
        if bvs != cvs:
            yield "error", (
                f"{label(key)}: violation_sample changed {bvs} -> {cvs} "
                "(fixed-seed single-worker sampling should be "
                "reproducible)"
            )
        sched_delta = pct(c.get("schedules_per_sec", 0),
                          b.get("schedules_per_sec", 0))
        if sched_delta is None:
            if c.get("schedules_per_sec", 0):
                yield "warn", (
                    f"{label(key)}: schedules/sec new/absolute "
                    f"(baseline 0, now "
                    f"{c.get('schedules_per_sec', 0):.0f}; "
                    "no percentage)"
                )
        elif sched_delta < -threshold:
            yield "warn", (
                f"{label(key)}: schedules/sec dropped "
                f"{-sched_delta:.1f}% "
                f"({b.get('schedules_per_sec', 0):.0f} -> "
                f"{c.get('schedules_per_sec', 0):.0f})"
            )


def compare_batch(base, cur, threshold):
    """Comparison for batch-throughput bench files (cold-vs-warm verdict
    cache passes over the evaluation corpus). The cache contract is that
    a warm hit reproduces the fresh verdict exactly, so per-program
    verdict, cache-key, state-count, or warm-hit changes are errors; so
    is a warm hit rate below the 95% acceptance bar. Cold wall-time
    growth and warm-speedup drops beyond the threshold are timing-class
    warnings."""
    b_rows = {p["name"]: p for p in base.get("programs", [])}
    c_rows = {p["name"]: p for p in cur.get("programs", [])}
    for name in sorted(set(b_rows) | set(c_rows)):
        if name not in c_rows:
            yield "error", f"{name}: present in baseline, missing now"
            continue
        if name not in b_rows:
            yield "warn", f"{name}: new program (no baseline)"
            continue
        b, c = b_rows[name], c_rows[name]
        for key in ("verdict", "key", "states", "warm_hit"):
            if b.get(key) != c.get(key):
                yield "error", (
                    f"{name}: {key} changed "
                    f"{b.get(key)!r} -> {c.get(key)!r}"
                )

    if not cur.get("verdicts_identical", True):
        yield "error", "warm verdicts differ from the cold pass"
    hit_rate = cur.get("hit_rate", 1.0)
    if hit_rate < BATCH_HIT_RATE_BAR:
        yield "error", (
            f"warm hit rate {100.0 * hit_rate:.1f}% below the "
            f"{100.0 * BATCH_HIT_RATE_BAR:.0f}% bar"
        )

    cold_b = base.get("cold", {}).get("seconds", 0)
    cold_c = cur.get("cold", {}).get("seconds", 0)
    cold_delta = pct(cold_c, cold_b)
    if cold_delta is None:
        if cold_c:
            yield "warn", (
                f"cold wall time new/absolute (baseline 0, now "
                f"{cold_c:.3f}s; no percentage)"
            )
    elif cold_delta > threshold:
        yield "warn", (
            f"cold wall time grew {cold_delta:.1f}% "
            f"({cold_b:.3f}s -> {cold_c:.3f}s)"
        )

    sp_delta = pct(cur.get("speedup", 0), base.get("speedup", 0))
    if sp_delta is None:
        if cur.get("speedup", 0):
            yield "warn", (
                f"warm speedup new/absolute (baseline 0, now "
                f"{cur.get('speedup', 0):.0f}x; no percentage)"
            )
    elif sp_delta < -threshold:
        yield "warn", (
            f"warm speedup dropped {-sp_delta:.1f}% "
            f"({base.get('speedup', 0):.0f}x -> "
            f"{cur.get('speedup', 0):.0f}x)"
        )


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("baseline", help="baseline report file (JSON)")
    ap.add_argument("current", help="current report file (JSON)")
    ap.add_argument(
        "--warn-only",
        action="store_true",
        help="print findings but always exit 0 (for CI)",
    )
    ap.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        metavar="PCT",
        help="regression threshold in percent (default: 10)",
    )
    ap.add_argument(
        "--update-baseline",
        action="store_true",
        help="after printing the comparison, overwrite BASELINE with "
        "CURRENT and exit 0 (for intentional config changes)",
    )
    args = ap.parse_args(argv)

    try:
        base_kind, base = load_reports(args.baseline)
        cur_kind, cur = load_reports(args.current)
        if base_kind != cur_kind:
            raise ValueError(
                f"schema mismatch: {args.baseline} is a {base_kind} "
                f"file, {args.current} is a {cur_kind} file"
            )
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"report_diff: {e}", file=sys.stderr)
        return 0 if args.warn_only else 2

    compare_fn = {
        "resilience": compare_resilience,
        "sample": compare_sample,
        "batch": compare_batch,
        "trace": compare_trace,
        "speedup": compare_speedup,
        "batchreport": compare_batch_report,
    }.get(base_kind, compare)
    findings = list(compare_fn(base, cur, args.threshold))
    for severity, msg in findings:
        print(f"{severity}: {msg}")
    if not findings:
        count = len(cur.get("programs", [])) if base_kind == "batch" \
            else len(cur)
        print(
            f"ok: {count} programs, no regressions beyond "
            f"{args.threshold:.0f}%"
        )
    if args.update_baseline:
        with open(args.current, "r", encoding="utf-8") as f:
            contents = f.read()
        with open(args.baseline, "w", encoding="utf-8") as f:
            f.write(contents)
        print(f"updated baseline {args.baseline} from {args.current}")
        return 0
    if not any(severity == "error" for severity, _ in findings):
        return 0
    return 0 if args.warn_only else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
