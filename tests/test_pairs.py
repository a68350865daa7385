"""The verdicts of scripts/pairs.py, the alternating-pairs comparison of two
source trees, on fixed numbers; no benchmark runs."""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # quartiles 0.98, 1.02


def test_ties_count_for_neither_side(pairs):
    assert pairs.wins([1.0, 2.0, 3.0], [0.5, 2.0, 3.5], "lower") == 1
    assert pairs.wins([1.0, 2.0, 3.0], [0.5, 2.0, 3.5], "higher") == 1


def test_claim_needs_nine_wins_in_ten_and_a_gap_past_the_parents_quartiles(pairs):
    faster = [p - 0.10 for p in PARENT]
    assert pairs.claim_met(PARENT, faster, "lower")
    assert not pairs.claim_met(PARENT, faster, "higher")
    eight = faster[:8] + [p + 0.01 for p in PARENT[8:]]  # 8 wins in 10
    assert pairs.wins(PARENT, eight, "lower") == 8 and not pairs.claim_met(PARENT, eight, "lower")
    nine = faster[:9] + PARENT[9:]  # a tie is no win: 9 wins in 10
    assert pairs.wins(PARENT, nine, "lower") == 9 and pairs.claim_met(PARENT, nine, "lower")
    narrow = [p - 0.001 for p in PARENT]  # 10 wins, gap 0.001 against a quartile distance of 0.04
    assert pairs.wins(PARENT, narrow, "lower") == 10 and not pairs.claim_met(PARENT, narrow, "lower")


def test_claim_needs_ten_pairs(pairs):
    faster = [p - 0.10 for p in PARENT]
    for n in (1, 4, 9):  # every pair won, by far, but too few pairs ran
        assert pairs.wins(PARENT[:n], faster[:n], "lower") == n
        assert not pairs.claim_met(PARENT[:n], faster[:n], "lower")


def test_bound_verdicts(pairs):
    bound = 0.25
    assert pairs.bound_verdict(PARENT, [1.3 * p for p in PARENT], "lower", bound) == "regressed"
    assert pairs.bound_verdict(PARENT, [1.1 * p for p in PARENT], "lower", bound) == "within"
    assert pairs.bound_verdict(PARENT, [1.3 * p for p in PARENT], "higher", bound) == "within"
    assert pairs.bound_verdict(PARENT, [0.7 * p for p in PARENT], "higher", bound) == "regressed"
    wide = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0]  # spread 0.5 over a median of 1.0
    assert pairs.bound_verdict(wide, PARENT, "lower", bound) == "unresolved"
    assert pairs.bound_verdict(PARENT, wide, "lower", bound) == "unresolved"
    below = [p - 0.5 for p in wide]  # as wide, but every run below every parent run
    assert pairs.bound_verdict(PARENT, below, "lower", bound) == "within"


def test_report_rows_read_the_declared_metrics(pairs):
    metrics = pairs.read_benchmark()["end_to_end"]
    assert [(m["name"], m["bound"]) for m in metrics] == [
        ("pipeline_s", 0.25), ("setup_s", 0.25), ("peak_rss_mb", 0.1)]

    def result(scale):
        return {"failed": 0, "attempted": 12,
                "metrics": {m["name"]: {"value": scale, "unit": m["unit"]} for m in metrics}}

    runs = {"ar1-post": {"parent": [result(p) for p in PARENT], "change": [result(p * 1.3) for p in PARENT]}}
    header, *rows = pairs.report(runs, metrics)
    assert header.split()[:2] == ["workload", "metric"]
    assert len(rows) == 5
    assert rows[0].split()[:7] == ["ar1-post", "pipeline_s", "1.000", "[0.980,", "1.020]", "s", "1.300"]
    assert rows[0].split()[-4:] == ["0/10", "not-met", "regressed", "(0.25)"]
    assert rows[3:] == ["ar1-post   parent failed 0 of 120 operations", "ar1-post   change failed 0 of 120 operations"]


# Stands in for perfbench/run.py: records its argv and pid, then waits to be ended.
STAND_IN = """
import json, os, signal, sys, time
def _terminate(signum, frame):
    open("terminated", "w").close()
    raise SystemExit(128 + signum)
signal.signal(signal.SIGTERM, _terminate)
open("started.tmp", "w").write(json.dumps({"pid": os.getpid(), "argv": sys.argv[1:]}))
os.replace("started.tmp", "started")
time.sleep(30)
"""


def test_sigterm_ends_the_run_in_flight(pairs, tmp_path):
    tree = tmp_path / "tree"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(STAND_IN)
    argv = [sys.executable, str(SCRIPT), "--parent", str(tree), "--change", str(tree),
            "--workload", "ar1-post", "--pairs", "1"]
    with subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) as proc:
        try:
            deadline = time.monotonic() + 30
            while not (tree / "started").exists():
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            started = json.loads((tree / "started").read_text())
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 128 + signal.SIGTERM
        finally:
            proc.kill()
    assert (tree / "terminated").exists()  # ended through its own SIGTERM handler
    with pytest.raises(ProcessLookupError):
        os.kill(started["pid"], 0)
    seconds = started["argv"][started["argv"].index("--seconds") + 1]
    assert float(seconds) == pairs.read_benchmark()["run_seconds"]
