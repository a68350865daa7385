"""Plumbing of the benchmark: span arithmetic, timed child processes, output
checks and the digests behind the determinism check. Standard library only,
so the benchmark process itself loads no BLAS and starts no threads of its
own beyond one watchdog timer per command."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path


class CheckFailed(Exception):
    """A command's output broke one of the benchmark's output checks."""


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def error_rate(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("error rate of no attempts")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def union_length(intervals, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Total length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover.

    Children running in parallel (chain workers of one pool) overlap, so
    their cover is the union of their intervals, not the sum.
    """
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - union_length(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class CommandResult:
    start: float
    end: float
    exit_code: int
    maxrss_kb: int
    stderr: str

    @property
    def wall(self) -> float:
        return self.end - self.start


def run_command(name, argv, env, cwd, log_dir, timeout: float) -> CommandResult:
    """Run argv to completion and time it from outside.

    Peak RSS comes from os.wait4 on this child alone; Linux folds the usage
    of the children it reaped (pool workers) into it. RUSAGE_CHILDREN would
    not do: it never resets, so it reports the largest command so far. The
    child gets its own session, so a timeout kills its workers too.
    """
    log_dir = Path(log_dir)
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / f"{name}.out", "wb") as out, open(log_dir / f"{name}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, start_new_session=True)
        watchdog = threading.Timer(max(timeout, 0.0), _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: take the command down with us
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # any worker the command left behind
    stderr = (log_dir / f"{name}.err").read_text(errors="replace")
    return CommandResult(start, end, proc.returncode, usage.ru_maxrss, stderr)


def _kill_group(pid: int):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _finite(value, what) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise CheckFailed(f"{what}: {value!r} is not a number") from None
    if not math.isfinite(number):
        raise CheckFailed(f"{what}: {number} is not finite")
    return number


def check_chains(out_dir, chains: int, iterations: int, dim: int) -> dict:
    """Chain CSVs of the expected shape, all finite, with parsable sidecars.

    Returns per-chain acceptance and divergence counts, for information.
    """
    info = {"accepted": [], "divergences": []}
    for index in range(chains):
        csv_path = Path(out_dir) / f"chain_{index:02d}.csv"
        meta_path = csv_path.with_suffix(".json")
        if not csv_path.is_file() or not meta_path.is_file():
            raise CheckFailed(f"missing {csv_path.name} or its sidecar")
        rows = 0
        with open(csv_path, newline="") as fh:
            for row in csv.reader(fh):
                if len(row) != dim:
                    raise CheckFailed(f"{csv_path.name} row {rows}: {len(row)} values, expected {dim}")
                for value in row:
                    _finite(value, f"{csv_path.name} row {rows}")
                rows += 1
        if rows != iterations:
            raise CheckFailed(f"{csv_path.name}: {rows} rows, expected {iterations}")
        meta = json.loads(meta_path.read_text())
        info["accepted"].append(meta.get("accepted"))
        info["divergences"].append(meta.get("divergences", 0))
    return info


def check_report(path, groups: dict) -> dict:
    """Diagnose report: finite values, PSRF >= sqrt((v-1)/v), ESS > 0.

    groups maps each sampler tag to its chain count m. Returns PSRF and ESS
    per group, for information.
    """
    doc = json.loads(Path(path).read_text())
    reports = doc if len(groups) > 1 else {next(iter(groups)): doc}
    if set(reports) != set(groups):
        raise CheckFailed(f"report groups {sorted(reports)}, expected {sorted(groups)}")
    info = {}
    for tag, report in reports.items():
        v = int(report["v"])
        if int(report["m"]) != groups[tag] or v < 2:
            raise CheckFailed(f"{tag}: m={report['m']} v={v}")
        psrf = _finite(report["psrf"], f"{tag} psrf")
        if psrf < math.sqrt((v - 1) / v):
            raise CheckFailed(f"{tag}: psrf {psrf} below sqrt((v-1)/v)")
        ess = [_finite(e, f"{tag} ess") for e in report["ess_per_chain"]]
        if len(ess) != groups[tag] or min(ess) <= 0:
            raise CheckFailed(f"{tag}: ess {ess}")
        _finite(report["ess_mean"], f"{tag} ess_mean")
        info[tag] = {"psrf": psrf, "ess": ess}
    return info


def check_predictions(out_dir, chains: int, points: int) -> dict:
    """Prediction CSVs with probabilities in [0, 1] and a parsable summary.

    Returns the per-chain accuracies, for information.
    """
    out_dir = Path(out_dir)
    for index in range(chains):
        path = out_dir / f"predictions_chain_{index:02d}.csv"
        if not path.is_file():
            raise CheckFailed(f"missing {path.name}")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != points:
            raise CheckFailed(f"{path.name}: {len(rows)} rows, expected {points}")
        for row in rows:
            for key in ("true_label", "predicted_label"):
                if not row[key].lstrip("-").isdigit():
                    raise CheckFailed(f"{path.name}: {key} {row[key]!r} is not an integer")
            for key in ("prob_predicted", "prob_true"):
                p = _finite(row[key], f"{path.name} {key}")
                if not 0.0 <= p <= 1.0:
                    raise CheckFailed(f"{path.name}: {key} {p} outside [0, 1]")
    summary = json.loads((out_dir / "accuracy_summary.json").read_text())
    accs = [_finite(a, "accuracy") for a in summary["per_chain_accuracy"]]
    _finite(summary["mean_accuracy"], "mean accuracy")
    if len(accs) != chains or not all(0.0 <= a <= 1.0 for a in accs):
        raise CheckFailed(f"accuracies {accs}")
    return {"accuracy": accs}


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

#: Chain sidecar fields that carry wall-clock time and so differ run to run.
RUNTIME_FIELDS = ("runtime_seconds", "runtime_hms")


def digest(output) -> dict:
    """Path -> SHA-256 of an output file, or of every file under an output
    directory, with the runtime fields of chain sidecars left out."""
    output = Path(output)
    paths = [output] if output.is_file() else sorted(output.rglob("*"))
    digests = {}
    for path in paths:
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.match("chain_*.json"):
            meta = json.loads(data)
            for key in RUNTIME_FIELDS:
                meta.pop(key, None)
            data = json.dumps(meta, sort_keys=True).encode()
        digests[path.name if path == output else str(path.relative_to(output))] = (
            hashlib.sha256(data).hexdigest()
        )
    return digests
