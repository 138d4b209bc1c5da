#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload large-seq --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is compiled from the checkout's sources into the directory
named by CARGO_TARGET_DIR (default .bench_build). Its last stdout line is
the JSON result; the exit code is nonzero on any wrong verdict, on a
failed build, or when the checkout holds no Rocker sources.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "rocker", "RobustnessChecker.h")):
        fail("no Rocker sources under src/; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", bdir, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(bdir, target)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main(argv):
    # Pin the engine defaults: ROCKER_NO_POR, ROCKER_NO_COMPRESS,
    # ROCKER_VISITED and friends would change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ROCKER_")}
    if argv == ["--selftest"]:
        exe = build("perfbench_selftest")
        env["PERFBENCH_BENCHMARK_JSON"] = os.path.join(ROOT, "BENCHMARK.json")
        return subprocess.run([exe], cwd=ROOT, env=env).returncode
    exe = build("rocker_perfbench")
    cmd = [exe] + argv + ["--git-sha", git_sha()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
