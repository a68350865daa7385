"""The three workloads: which CLI commands each runs, on which inputs, and
how each command's output is checked. README.md says why each one exists."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import harness

NAMES = ("xor-mh-pp", "hawks-hmc", "ar1-post")

#: Workload seed of the acceptance suite's desk study (DESK_SEED). With it,
#: hawks chains 2 and 3 (chain seeds 3 and 2) stall in divergences.
DEFAULT_SEED = 1

CHAINS = 4
PRIOR_VARIANCE = 10.0

# xor-mh-pp run lengths. PP costs ~10 likelihood calls per iteration, MH one.
XOR_MH_ITERATIONS = 1500
XOR_PP_ITERATIONS = 200
XOR_BURNIN = 50
XOR_TAIL = 1000  # predict takes min(tail, chain length) draws of each chain
XOR_TEST_POINTS = 4 * 30

# hawks-hmc run lengths and pool size.
HAWKS_ITERATIONS = 600
HAWKS_BURNIN = 100
HAWKS_TAIL = 500
HAWKS_JOBS = 2

# ar1-post chain shape: n = 29 parameters of MLP(6, 2, 2, 3).
AR1_LENGTH = 10000
AR1_BURNIN = 1000
AR1_TAIL = 2500
DEEP_ARCH = [6, 2, 2, 3]
DEEP_DIM = 29


@dataclass
class Step:
    """One CLI command of a pipeline."""

    name: str
    stage: str  # "sample", "diagnose" or "predict"
    args: list  # after "python -m bayesmlp.cli"
    output: Path  # file or directory the determinism check hashes
    check: Callable[[], dict]
    draws: int = 0  # chains x iterations written by a sample command
    jobs: int = 1


@dataclass
class Workload:
    inputs: Path
    configs: dict = field(default_factory=dict)  # file name -> config document
    setup_config: str = ""
    make_steps: Callable[[Path], list] = None
    prepare: list = field(default_factory=list)  # child.py arguments that write inputs

    def write_configs(self):
        self.inputs.mkdir(parents=True, exist_ok=True)
        for name, doc in self.configs.items():
            (self.inputs / name).write_text(json.dumps(doc, indent=2) + "\n")


def _config(dataset, arch, sampler, iterations, burnin, tail, seed):
    return {
        "dataset": dataset,
        "architecture": {"layer_widths": arch},
        "prior_variance": PRIOR_VARIANCE,
        "sampler": sampler,
        "num_chains": CHAINS,
        "iterations": iterations,
        "burnin": burnin,
        "tail": tail,
        "seed": seed,
    }


def _chain_files(directory):
    return [str(Path(directory) / f"chain_{i:02d}.csv") for i in range(CHAINS)]


def test_points(root: Path, dataset: str) -> int:
    """Rows of a vendored test set, read from the source tree under test."""
    path = root / "src" / "bayesmlp" / "datasets" / f"{dataset}_test.csv"
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def xor_mh_pp(root, seed, inputs, jobs):
    dataset = {"name": "noisy-xor", "seed": seed, "train_per_corner": 125, "test_per_corner": 30}
    mh = {"kind": "MH", "proposal_variance": 1e-4}
    pp = {"kind": "PP", "temperatures": [1.0] * 10, "beta": 0.5, "proposal_variance": 1e-4}
    configs = {
        "mh.json": _config(dataset, [2, 2, 1], mh, XOR_MH_ITERATIONS, XOR_BURNIN, XOR_TAIL, seed),
        "pp.json": _config(dataset, [2, 2, 1], pp, XOR_PP_ITERATIONS, XOR_BURNIN,
                           min(XOR_TAIL, XOR_PP_ITERATIONS), seed),
    }

    def steps(rep: Path):
        chains = _chain_files(rep / "mh") + _chain_files(rep / "pp")
        return [
            Step("sample-mh", "sample",
                 ["sample", "--config", str(inputs / "mh.json"), "--out-dir", str(rep / "mh"), "--jobs", "1"],
                 rep / "mh", lambda: harness.check_chains(rep / "mh", CHAINS, XOR_MH_ITERATIONS, 9),
                 draws=CHAINS * XOR_MH_ITERATIONS),
            Step("sample-pp", "sample",
                 ["sample", "--config", str(inputs / "pp.json"), "--out-dir", str(rep / "pp"), "--jobs", "1"],
                 rep / "pp", lambda: harness.check_chains(rep / "pp", CHAINS, XOR_PP_ITERATIONS, 9),
                 draws=CHAINS * XOR_PP_ITERATIONS),
            Step("diagnose", "diagnose",
                 ["diagnose", "--chains", *chains, "--burnin", str(XOR_BURNIN),
                  "--out", str(rep / "report.json")],
                 rep / "report.json",
                 lambda: harness.check_report(rep / "report.json", {"MH": CHAINS, "PP": CHAINS})),
            Step("predict", "predict",
                 ["predict", "--config", str(inputs / "mh.json"), "--chains", *chains,
                  "--out-dir", str(rep / "pred")],
                 rep / "pred", lambda: harness.check_predictions(rep / "pred", 2 * CHAINS, XOR_TEST_POINTS)),
        ]

    return Workload(inputs, configs, "mh.json", make_steps=steps)


def hawks_hmc(root, seed, inputs, jobs):
    hmc = {"kind": "HMC", "leapfrog_steps": 5, "step_size": 0.1}
    configs = {
        "hmc.json": _config({"name": "hawks"}, DEEP_ARCH, hmc, HAWKS_ITERATIONS,
                            HAWKS_BURNIN, HAWKS_TAIL, seed),
    }
    points = test_points(root, "hawks")

    # No diagnose step: on the chains that stall (chain seeds 2 and 3, in the
    # load at seeds 0 to 3, the default among them) `diagnose` exits 6 with
    # EstimatorError or DegenerateChainError, the open defect of ROADMAP
    # item 5. Timing it would time an error path on some seeds only.
    def steps(rep: Path):
        return [
            Step("sample-hmc", "sample",
                 ["sample", "--config", str(inputs / "hmc.json"), "--out-dir", str(rep / "hmc"),
                  "--jobs", str(jobs)],
                 rep / "hmc", lambda: harness.check_chains(rep / "hmc", CHAINS, HAWKS_ITERATIONS, DEEP_DIM),
                 draws=CHAINS * HAWKS_ITERATIONS, jobs=jobs),
            Step("predict", "predict",
                 ["predict", "--config", str(inputs / "hmc.json"), "--chains", *_chain_files(rep / "hmc"),
                  "--out-dir", str(rep / "pred")],
                 rep / "pred", lambda: harness.check_predictions(rep / "pred", CHAINS, points)),
        ]

    return Workload(inputs, configs, "hmc.json", make_steps=steps)


def ar1_post(root, seed, inputs, jobs):
    configs = {
        "ar1.json": _config({"name": "hawks"}, DEEP_ARCH, {"kind": "MH", "proposal_variance": 1e-4},
                            AR1_LENGTH, AR1_BURNIN, AR1_TAIL, seed),
    }
    points = test_points(root, "hawks")
    chains = _chain_files(inputs / "ar1")

    def steps(rep: Path):
        return [
            Step("diagnose", "diagnose",
                 ["diagnose", "--chains", *chains, "--burnin", str(AR1_BURNIN),
                  "--out", str(rep / "report.json")],
                 rep / "report.json", lambda: harness.check_report(rep / "report.json", {"AR1": CHAINS})),
            Step("predict", "predict",
                 ["predict", "--config", str(inputs / "ar1.json"), "--chains", *chains,
                  "--out-dir", str(rep / "pred")],
                 rep / "pred", lambda: harness.check_predictions(rep / "pred", CHAINS, points)),
        ]

    prepare = ["ar1", inputs / "ar1", seed, CHAINS, AR1_LENGTH, DEEP_DIM]
    return Workload(inputs, configs, "ar1.json", make_steps=steps, prepare=prepare)


_BY_NAME = {"xor-mh-pp": xor_mh_pp, "hawks-hmc": hawks_hmc, "ar1-post": ar1_post}


def build(name: str, root: Path, seed: int, inputs: Path, jobs: int) -> Workload:
    return _BY_NAME[name](root, seed, inputs, jobs)
