#!/usr/bin/env python3
"""Alternating pairs of benchmark runs from two source trees, and their verdicts.

    python3 scripts/pairs.py --parent ../parent --change . --seed 1
    python3 scripts/pairs.py --parent ../parent --change . --workload ar1-post --pairs 10

Runs ``perfbench/run.py --trace 0`` of the parent tree and of the change
tree, each from its own directory, in pairs, for the run length that
``BENCHMARK.json`` declares. Which side runs first alternates from pair to
pair, so a drift of the host weighs on both sides alike. The benchmark runs
under ``python3 -B``, so nothing is written under ``perfbench/``; the script
itself writes nothing but its report.

For each workload and each end-to-end metric of ``BENCHMARK.json`` (read
from the tree this script is in) it prints each side's median and
quartiles, the pairs the change won (ties count for neither side), and two
verdicts:

- claim: ``met`` when at least 10 pairs ran, the change won at least 9
  pairs in 10 and its median is better than the parent's by more than the
  distance between the parent's quartiles; else ``not-met``;
- bound: ``regressed`` when the change's median is worse than the parent's
  by more than the metric's bound, a fraction of the parent's median;
  ``unresolved`` when it is not, but either side's spread (quartile
  distance over median) is wider than the bound and not every run of the
  change reads better than every run of the parent; else ``within``.

Each side's failed and attempted operations are printed too. A run that
exits non-zero, or runs no clean pipeline, stops the script with exit
status 1. SIGTERM ends the script with status 143 after ending the
benchmark run in flight, which then takes down its own commands.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The fewest pairs on which a gain can be claimed, and the share of
#: pairs the change must win for it.
CLAIM_PAIRS = 10
CLAIM_WINS = 0.9


def read_benchmark() -> dict:
    """BENCHMARK.json: its workloads and its end-to-end metrics, each with
    name, unit, better and bound."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile of values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _gain(parent: float, change: float, better: str) -> float:
    """How much better change reads than parent, in the metric's unit."""
    return parent - change if better == "lower" else change - parent


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads better; a tie counts for neither."""
    return sum(_gain(p, c, better) > 0 for p, c in zip(parent, change, strict=True))


def claim_met(parent: list[float], change: list[float], better: str) -> bool:
    """At least 10 pairs, at least 9 wins in 10, and a median gain wider
    than the parent's quartile distance."""
    if len(parent) < CLAIM_PAIRS:
        return False
    p1, p_median, p3 = quartiles(parent)
    gain = _gain(p_median, quartiles(change)[1], better)
    return wins(parent, change, better) >= CLAIM_WINS * len(parent) and gain > p3 - p1


def bound_verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``regressed``, ``unresolved`` or ``within`` the metric's bound."""
    p_median, c_median = quartiles(parent)[1], quartiles(change)[1]
    if -_gain(p_median, c_median, better) > bound * abs(p_median):
        return "regressed"
    spread = max((q3 - q1) / abs(median) for q1, median, q3 in map(quartiles, (parent, change)))
    change_beats_all = all(_gain(p, c, better) > 0 for p in parent for c in change)
    return "unresolved" if spread > bound and not change_beats_all else "within"


def report(runs: dict, metrics: list[dict]) -> list[str]:
    """Table lines of runs, {workload: {"parent": [result], "change": [result]}},
    each result the JSON line of one benchmark run."""
    lines = [f"{'workload':<11}{'metric':<13}{'parent median [q1, q3]':<30}{'change median [q1, q3]':<30}"
             f"{'wins':>6}  {'claim':<9}bound"]
    for workload, sides in runs.items():
        for metric in metrics:
            name, better = metric["name"], metric["better"]
            parent, change = ([r["metrics"][name]["value"] for r in sides[side]] for side in ("parent", "change"))
            cells = ["{1:.3f} [{0:.3f}, {2:.3f}] {3}".format(*quartiles(values), metric["unit"])
                     for values in (parent, change)]
            lines.append(f"{workload:<11}{name:<13}{cells[0]:<30}{cells[1]:<30}"
                         f"{wins(parent, change, better):>3}/{len(parent):<2}  "
                         f"{'met' if claim_met(parent, change, better) else 'not-met':<9}"
                         f"{bound_verdict(parent, change, better, metric['bound'])} ({metric['bound']})")
        for side in ("parent", "change"):
            failed = sum(r["failed"] for r in sides[side])
            attempted = sum(r["attempted"] for r in sides[side])
            lines.append(f"{workload:<11}{side} failed {failed} of {attempted} operations")
    return lines


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result of one untraced benchmark run of tree."""
    argv = [sys.executable, "-B", str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seconds", str(seconds), "--trace", "0", "--seed", str(seed)]
    with subprocess.Popen(argv, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            stdout, stderr = proc.communicate()
        except BaseException:  # interrupted: run.py's own SIGTERM handler ends its commands
            proc.terminate()
            proc.wait()
            raise
    if proc.returncode != 0:
        raise SystemExit(f"pairs: {' '.join(argv)} exited with {proc.returncode}:\n{stderr}")
    result = json.loads(stdout.strip().splitlines()[-1])
    if not result["metrics"]:
        raise SystemExit(f"pairs: {' '.join(argv)} ran no clean pipeline:\n{stdout}")
    return result


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run_benchmark, which ends the run in flight


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    benchmark = read_benchmark()
    metrics, names = benchmark["end_to_end"], [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="source tree of the parent")
    parser.add_argument("--change", type=Path, required=True, help="source tree of the change")
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {}
    for workload in args.workload:
        sides = runs[workload] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_benchmark(trees[side], workload, args.seed, benchmark["run_seconds"])
                sides[side].append(result)
                values = " ".join(f"{m['name']} {result['metrics'][m['name']]['value']:.4f}" for m in metrics)
                print(f"pair {pair} {side:<6} {workload} {values} failed {result['failed']}", flush=True)
    print(f"seed {args.seed}  pairs {args.pairs}  seconds {benchmark['run_seconds']}")
    print("\n".join(report(runs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
