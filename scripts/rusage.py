#!/usr/bin/env python3
"""Wall time, peak memory and minor page faults of whole commands.

    python scripts/rusage.py -n 7 "python -m bayesmlp.cli diagnose --chains a.csv b.csv" \
        "python -m bayesmlp.cli traces --chains a.csv --coords 0"

Runs each command line (split as a shell would split it, but run without a
shell) N times. The order of the commands alternates from one round to the
next, so a drift of the host weighs on each command alike. For each command
it then prints one line: the median over its runs of the wall time, of
``ru_maxrss`` (in MB of 1024 KiB) and of ``ru_minflt``, as ``os.wait4``
reports them for that process. Linux folds into them the usage of the
children the process waited for, such as the workers of ``sample --jobs``.

The commands run in the caller's environment and directory, with their
standard output discarded and their standard error passed through. A
command that exits non-zero stops the measurement with exit status 1.
"""

from __future__ import annotations

import argparse
import os
import shlex
import statistics
import subprocess
import sys
import time


def measure(argv: list[str]) -> tuple[float, float, int]:
    """Wall time in s, ru_maxrss in MB and ru_minflt of one run of argv."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"rusage: {shlex.join(argv)} exited with {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0, usage.ru_minflt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-n", "--runs", type=int, default=5, help="runs of each command (default 5)")
    parser.add_argument("commands", nargs="+", help="command lines, one argument each")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    commands = [shlex.split(command) for command in args.commands]
    results: list[list[tuple[float, float, int]]] = [[] for _ in commands]
    for round_ in range(args.runs):
        order = range(len(commands)) if round_ % 2 == 0 else reversed(range(len(commands)))
        for i in order:
            results[i].append(measure(commands[i]))
    print(f"{'wall_s':>9} {'maxrss_mb':>10} {'minflt':>9} {'runs':>5}  command")
    for command, runs in zip(args.commands, results):
        wall, maxrss, minflt = (statistics.median(values) for values in zip(*runs))
        print(f"{wall:9.4f} {maxrss:10.2f} {minflt:9.0f} {len(runs):5d}  {command}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
