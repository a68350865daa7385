"""Benchmark of the bayesmlp pipeline: sample -> diagnose -> predict.

    python3 perfbench/run.py --workload xor-mh-pp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run it from anywhere; it locates the source tree as the parent of this
directory. Every command runs through the real CLI, ``python -m bayesmlp.cli``
with the tree's ``src/`` on PYTHONPATH, as its own process, timed from
outside. Pipelines repeat on the same inputs until --seconds is used (at
least twice untraced, so the determinism check has something to compare).

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced pipelines and reports the per-layer metrics of layers.py. Human
readable lines come first; the last line of standard output is the JSON
result. Work files live under .perfbench_work/ in the source tree and are
removed at exit. See README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
import layers
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PYTHON = sys.executable

#: A run must end within 180 s; commands get what is left of this budget.
RUN_BUDGET_S = 165.0
#: Fewest fresh interpreters timed for setup_s, after one untimed warm-up.
SETUP_REPEATS = 5
#: One BLAS thread per process: the hawks pool runs two chain workers on
#: two cores, and the figures do not depend on how BLAS threads contend.
SINGLE_THREAD_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Names and units of the metrics the result reports.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The CLI would write into this directory when --out-dir is missing.
OUTPUT_DIR_ENV = "BAYESMLP_OUTPUT_DIR"


class Runner:
    """Runs the commands of one workload and keeps the failure accounting."""

    def __init__(self, workload, env, deadline):
        self.workload = workload
        self.env = env
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict = {}  # step name -> digest of its first outputs
        self.info: dict = {}  # step name -> what its check returned

    def command(self, name, argv, log_dir):
        self.attempted += 1
        result = harness.run_command(name, [str(a) for a in argv], self.env, ROOT, log_dir,
                                     self.deadline - time.perf_counter())
        if result.exit_code != 0:
            last = result.stderr.strip().splitlines()[-1:] or [""]
            self.failures.append(f"{name}: exit {result.exit_code} {last[0]}")
        return result

    def pipeline(self, rep_dir: Path, traced: bool):
        """Run every step once; returns [(step, CommandResult, spans or None)],
        or None if a step failed, so only clean pipelines feed the metrics."""
        failures = len(self.failures)
        done = []
        for step in self.workload.make_steps(rep_dir):
            if traced:
                trace_dir = rep_dir / "trace" / step.name
                trace_dir.mkdir(parents=True)
                argv = [PYTHON, HERE / "traced_cli.py", trace_dir, *step.args]
            else:
                argv = [PYTHON, "-m", "bayesmlp.cli", *step.args]
            result = self.command(step.name, argv, rep_dir / "logs")
            if result.exit_code == 0:
                self.verify(step)
            done.append((step, result, tracer.read_spans(trace_dir) if traced else None))
        shutil.rmtree(rep_dir)
        return done if len(self.failures) == failures else None

    def setup_probe(self, name, argv, log_dir):
        """Wall time of one setup probe, or None if it failed."""
        result = self.command(name, argv, log_dir)
        return result.wall if result.exit_code == 0 else None

    def verify(self, step):
        try:
            self.info[step.name] = step.check()
            found = harness.digest(step.output)
        except (harness.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
            self.failures.append(f"{step.name}: output check failed: {exc}")
            return
        expected = self.reference.setdefault(step.name, found)
        if found != expected:
            differ = sorted(k for k in expected.keys() | found.keys() if expected.get(k) != found.get(k))
            self.failures.append(f"{step.name}: output differs from the first run: {differ}")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def provenance(env, seed, jobs) -> dict:
    out = subprocess.run([PYTHON, str(HERE / "child.py"), "provenance"], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    facts = json.loads(out.stdout)
    facts.update(git_commit=git_commit(), source_sha256=source_digest(), seed=seed, max_jobs=jobs)
    return facts


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns (JSON result, human readable lines)."""
    started = time.perf_counter()
    nproc = len(os.sched_getaffinity(0))
    jobs = min(workloads.HAWKS_JOBS, nproc)
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    env = dict(os.environ)
    env.pop(OUTPUT_DIR_ENV, None)
    env.update(SINGLE_THREAD_BLAS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    try:
        workload = workloads.build(name, ROOT, seed, work / "inputs", jobs)
        workload.write_configs()
        facts = provenance(env, seed, jobs)
        runner = Runner(workload, env, started + RUN_BUDGET_S)
        logs = work / "logs"
        if workload.prepare:
            runner.command("prepare", [PYTHON, HERE / "child.py", *workload.prepare], logs)
        probe = [PYTHON, HERE / "child.py", "setup", work / "inputs" / workload.setup_config]
        runner.command("setup-warmup", probe, logs)

        # Setup probes alternate with pipelines, so both sample the same
        # stretch of machine time. Failed pipelines and probes count as
        # failures and are left out of the timings.
        plain, traced, setup = [], [], []
        reps = 0
        while True:
            plain.append(runner.pipeline(work / f"rep{reps}", traced=False))
            if trace:
                traced.append(runner.pipeline(work / f"traced{reps}", traced=True))
            setup.append(runner.setup_probe(f"setup-{reps}", probe, logs))
            reps += 1
            now = time.perf_counter()
            per_rep = (now - started) / reps
            if now + per_rep > runner.deadline:
                break
            if reps >= (1 if trace else 2) and now - started + per_rep > seconds:
                break
        while len(setup) < SETUP_REPEATS:
            longest = max((w for w in setup if w is not None), default=1.0)
            if time.perf_counter() + 3 * longest > runner.deadline:
                break
            setup.append(runner.setup_probe(f"setup-{len(setup)}", probe, logs))
        plain, traced, setup = ([x for x in series if x is not None] for series in (plain, traced, setup))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    if trace:
        metrics, lines = traced_metrics(runner, plain, traced) if plain and traced else ({}, [])
    else:
        metrics, lines = end_to_end_metrics(plain, setup) if plain and setup else ({}, [])
    failed = len(runner.failures)
    lines = [
        f"workload {name}  seed {seed}  clean pipelines {len(plain)}{' + ' + str(len(traced)) + ' traced' if trace else ''}"
        f"  commands {runner.attempted}  failed {failed}"
        f"  error_rate {harness.error_rate(failed, runner.attempted):.4f} ratio",
        "provenance " + json.dumps(facts),
        *lines,
        *(f"info {step} {json.dumps(info)}" for step, info in runner.info.items()),
        *(f"FAILED {reason}" for reason in runner.failures),
    ]
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def end_to_end_metrics(plain, setup):
    lines = []
    walls: dict = {}
    for rep in plain:
        for step, result, _ in rep:
            walls.setdefault(step.name, []).append(result.wall)
    for step, result, _ in plain[0]:
        series = walls[step.name]
        line = f"command {step.name:<10} median {statistics.median(series):.4f} s over {len(series)}"
        if step.draws:
            line += f"  sample_draws_per_s {statistics.median([step.draws / w for w in series]):.2f} 1/s"
        if step.stage in ("diagnose", "predict"):
            line += f"  {step.stage}_s {statistics.median(series):.4f} s"
        lines.append(line)
    sums = [sum(r.wall for _, r, _ in rep) for rep in plain]
    lines.append("pipeline walls s " + " ".join(f"{w:.3f}" for w in sums))
    lines.append("setup walls s " + " ".join(f"{w:.3f}" for w in setup))
    values = {
        "pipeline_s": statistics.median(sums),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r.maxrss_kb for rep in plain for _, r, _ in rep) / 1024.0,
    }
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in DECLARED["end_to_end"]}
    lines += [f"metric {k:<38} {v:>16.6f} {u}" for k, (v, u) in metrics.items()]
    return metrics, lines


def traced_metrics(runner, plain, traced):
    per_rep = [layers.per_layer(rep) for rep in traced]
    counted = [m["name"] for m in DECLARED["per_layer"] if m["unit"] == "count"]
    counts = [{k: rep[k] for k in counted} for rep in per_rep]
    runner.attempted += 1  # the comparison of call counts is an operation too
    if any(c != counts[0] for c in counts):
        runner.failures.append(f"trace: call counts differ between traced pipelines: {counts}")
    values = {k: statistics.median([rep[k] for rep in per_rep]) for k in per_rep[0]}
    untraced = statistics.median([sum(r.wall for _, r, _ in rep) for rep in plain])
    with_trace = statistics.median([sum(r.wall for _, r, _ in rep) for rep in traced])
    values["trace.overhead_ratio"] = with_trace / untraced - 1.0
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in DECLARED["per_layer"]}
    lines = [f"metric {k:<38} {v:>16.6f} {u}" for k, (v, u) in metrics.items()]
    return metrics, lines


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the cleanup of children and work files


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bayesmlp" / "cli.py").is_file():
        print(f"no bayesmlp source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
