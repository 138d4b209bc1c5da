#!/usr/bin/env python3
"""Runs a command and fails when its peak resident set exceeds a bound.

Usage, from the root of a checkout:

    python3 bench/peak_rss.py --max-mb 400 -- ./build/examples/rocker_cli lamport2-3-ra

The peak is the child's ru_maxrss from getrusage(RUSAGE_CHILDREN), which
Linux reports in KiB. Exit code: the command's own code when it fails, 1
when its peak exceeds --max-mb, 3 on a usage error, 0 otherwise.
"""

import argparse
import resource
import subprocess
import sys


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-mb", type=float, required=True,
                    help="fail when the peak RSS exceeds this many MiB")
    ap.add_argument("cmd", nargs=argparse.REMAINDER,
                    help="the command to run, after --")
    args = ap.parse_args(argv)
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        ap.print_usage(sys.stderr)
        return 3
    rc = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak_rss: {peak_mb:.1f} MiB (bound {args.max_mb:g} MiB): "
          f"{' '.join(cmd)}")
    if rc != 0:
        print(f"peak_rss: command exited {rc}", file=sys.stderr)
        return rc
    if peak_mb > args.max_mb:
        print("peak_rss: over the bound", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
