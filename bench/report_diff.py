#!/usr/bin/env python3
"""Compare two rocker run-report files and flag regressions.

Usage:
    python3 bench/report_diff.py BASELINE CURRENT [--warn-only]
                                 [--threshold PCT] [--update-baseline]

Each file is one run report or an array of them, as written by
`rocker_cli --report` and `fig7_table --reports` (schema
"rocker-run-report/1", or "rocker-run-report/2" when the report carries
the sampling engine's "sample" block). Rows are matched by (program,
configuration); a report without a "configuration" key is "base". Every
matched pair gets one rule, field by field (FIELDS):

  * identity fields must be equal: an error. They are the verdict,
    completeness, the state, transition and dedup-hit counts, visited
    bytes and the fixed-seed violation_sample;
  * timing fields (seconds, states/sec, schedules/sec, speedup) may get
    worse by at most the threshold (default 10%): a warning. Rows whose
    runs took under MIN_SECONDS in both files are not timed.

A row only on the baseline side is an error, a row only on the current
side a warning. Then, within CURRENT, each row's cross-configuration
"rule" (written by fig7_table, which defines them) is checked, and a
broken one is an error: the row must equal its reference
configuration's row for the same program in every field the rule
lists, and a rule with a bar ("bar_pct") fails when the measured
"overhead_pct" exceeds it.

Also accepts a pair of batch summary reports (schema
"rocker-batch-report/1", written by `rocker_batch --report`), such as
the committed BENCH_batch.json, a cold pass over the corpus. Their
rows are jobs matched by name, checked by compare_batch_report.

Exit status: 0 when clean or only warnings were flagged, 1 when an
error was found, 2 when a file cannot be read. With --warn-only
everything is printed but the exit status stays 0. With
--update-baseline the comparison is printed as usual, then CURRENT is
written over BASELINE and the exit status is 0. Stdlib only.
"""

import argparse
import json
import sys

SCHEMAS = ("rocker-run-report/1", "rocker-run-report/2")
BATCH_REPORT_SCHEMA = "rocker-batch-report/1"
# Per-job fields of a batch report that must be equal: an error.
BATCH_IDENTITY = ("verdict", "key", "states")
QUEUE_WAIT_FLOOR_SECONDS = 0.1  # ignore queue-wait jitter below this.

SAME, LOWER, HIGHER = "same", "lower", "higher"
# (path in a row, label, kind): SAME is an identity field; LOWER and
# HIGHER are timing fields that are better when lower or higher.
FIELDS = (
    ("verdict.robust", "verdict.robust", SAME),
    ("verdict.complete", "verdict.complete", SAME),
    ("stats.states", "state count", SAME),
    ("stats.transitions", "transitions", SAME),
    ("stats.dedup_hits", "dedup hits", SAME),
    ("stats.seconds", "seconds", LOWER),
    ("stats.states_per_sec", "states/sec", HIGHER),
    ("stats.visited_bytes", "visited bytes", SAME),
    ("stats.sample.violation_sample", "violation_sample", SAME),
    ("stats.sample.schedules_per_sec", "schedules/sec", HIGHER),
    ("speedup", "speedup", HIGHER),
)
# The parallel engine's visited bytes differ by a few KiB between runs
# with identical counts, so on its rows they are a size (warned on when
# they grow), not an identity. Its interner keeps the tree nodes of every
# position in one table while component ids are per slot, so an equal
# (left, right) id pair at two positions is one 8-byte node; how many
# pairs coincide depends on the order in which workers claim ids (lost
# CAS races included). docs/ALGORITHM.md section 9 has the measurement.
PARALLEL_SIZE = "stats.visited_bytes"
MIN_SECONDS = 0.01  # shorter runs measure the timer, not the engine.


def field(row, path):
    """The value at a dotted path, or None when absent."""
    for key in path.split("."):
        if not isinstance(row, dict) or key not in row:
            return None
        row = row[key]
    return row


def load_reports(path):
    """Returns ("run", {(program, configuration): report}) for run-report
    files, or ("batchreport", {job name: job}) for batch reports."""
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if isinstance(data, dict) and data.get("schema") == BATCH_REPORT_SCHEMA:
        return "batchreport", {j["name"]: j for j in data["jobs"]}
    reports = data if isinstance(data, list) else [data]
    out = {}
    for r in reports:
        if r.get("schema") not in SCHEMAS:
            raise ValueError(
                f"{path}: unexpected schema {r.get('schema')!r} "
                f"(want one of {SCHEMAS!r} or {BATCH_REPORT_SCHEMA!r})"
            )
        out[(r["program"], r.get("configuration", "base"))] = r
    return "run", out


def pct(new, old):
    """Relative change in percent, or None when the baseline is zero.

    A zero baseline has no meaningful percentage; callers report such a
    change as "new/absolute" with the raw values."""
    if not old:
        return None
    return 100.0 * (new - old) / old


def label(key):
    program, config = key
    return program if config == "base" else f"{program} [{config}]"


def shown(v):
    return "absent" if v is None else v


def compare_field(path, name, kind, b, c, threshold):
    """Yields at most one (severity, message) for one field of a pair."""
    if b == c or (b is None and c is None):
        return
    if kind == SAME:
        if b == 0 and not isinstance(b, bool):
            yield "error", f"{name} new/absolute (baseline 0, now {c})"
        else:
            yield "error", f"{name} changed {shown(b)} -> {shown(c)}"
        return
    if b is None or c is None:
        return  # A timing field only one side measures.
    delta = pct(c, b)
    if delta is None:
        yield "warn", (
            f"{name} new/absolute (baseline 0, now {c:.6g}; no percentage)"
        )
    elif (delta > threshold) if kind == LOWER else (delta < -threshold):
        verb = "grew" if kind == LOWER else "dropped"
        yield "warn", f"{name} {verb} {abs(delta):.1f}% ({b:.6g} -> {c:.6g})"


def compare(base, cur, threshold):
    """Yields (severity, message) pairs; severity is 'error' for identity
    changes and broken cross-configuration rules, 'warn' for timing."""
    for key in sorted(set(base) | set(cur)):
        if key not in cur:
            yield "error", f"{label(key)}: present in baseline, missing now"
            continue
        if key not in base:
            yield "warn", f"{label(key)}: new row (no baseline)"
            continue
        b, c = base[key], cur[key]
        parallel = "parallel" in (field(b, "config.engine"),
                                  field(c, "config.engine"))
        bs, cs = field(b, "stats.seconds"), field(c, "stats.seconds")
        untimed = bs is not None and cs is not None and \
            max(bs, cs) < MIN_SECONDS
        for path, name, kind in FIELDS:
            if parallel and path == PARALLEL_SIZE:
                kind = LOWER
            if kind != SAME and untimed:
                continue
            for severity, msg in compare_field(
                    path, name, kind, field(b, path), field(c, path),
                    threshold):
                yield severity, f"{label(key)}: {msg}"
    yield from compare_configurations(cur)


def compare_configurations(rows):
    """Each row's own "rule" within one file."""
    for key in sorted(rows):
        rule = rows[key].get("rule")
        if not rule:
            continue
        program, _ = key
        ref = rows.get((program, rule["reference"]))
        if ref is None:
            yield "error", (
                f"{label(key)}: no {rule['reference']} row to check "
                f"its rule against"
            )
            continue
        row = rows[key]
        for path in rule.get("equal", ()):
            if field(row, path) != field(ref, path):
                yield "error", (
                    f"{label(key)}: {path} {shown(field(row, path))} "
                    f"differs from {rule['reference']}'s "
                    f"{shown(field(ref, path))}"
                )
        bar, overhead = rule.get("bar_pct"), rule.get("overhead_pct")
        if bar is not None and overhead is not None and overhead > bar:
            yield "error", (
                f"{label(key)}: states/sec {overhead:.1f}% below "
                f"{rule['reference']}'s in adjacent runs, over the "
                f"{bar:.0f}% bar"
            )


def compare_batch_report(base, cur, threshold):
    """Comparison for rocker-batch-report/1 summaries: per job, a change
    of verdict, cache key or state count is an error; queue-wait
    regressions beyond the threshold (over the absolute floor) and
    wall-time growth beyond the threshold are warnings. Provenance
    (source) legitimately differs between cold and warm passes, so it is
    not compared."""
    for name in sorted(set(base) | set(cur)):
        if name not in cur:
            yield "error", f"{name}: present in baseline, missing now"
            continue
        if name not in base:
            yield "warn", f"{name}: new job (no baseline)"
            continue
        b, c = base[name], cur[name]
        for key in BATCH_IDENTITY:
            if b.get(key) != c.get(key):
                yield "error", (
                    f"{name}: {key} changed "
                    f"{b.get(key)!r} -> {c.get(key)!r}"
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

    compare_fn = compare_batch_report if base_kind == "batchreport" \
        else compare
    findings = list(compare_fn(base, cur, args.threshold))
    for severity, msg in findings:
        print(f"{severity}: {msg}")
    if not findings:
        print(
            f"ok: {len(cur)} rows, no regressions beyond "
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
