"""The benchmark's tracer (perfbench/tracer.py) wraps bayesmlp functions by
module and attribute name, and its setup probe (perfbench/child.py setup)
builds a config through bayesmlp.cli names. These tests read the TRACED
table and run the probe, without changing anything under perfbench/, so
that renaming a name either uses fails here instead of breaking
``perfbench/run.py``."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bayesmlp import Architecture, NoisyXorConfig, chainio, generate_noisy_xor, samplers

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
CHILD_PATH = TRACER_PATH.with_name("child.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def traced_names():
    return [(module, attr) for module, attrs in load_tracer().TRACED.items() for attr in attrs]


@pytest.mark.parametrize("module_name,attr", traced_names())
def test_traced_attribute_exists_and_is_callable(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_run_posterior_chain_takes_sampler_config_fourth():
    """The tracer names a chain's sampler from its 4th positional argument."""
    assert list(inspect.signature(samplers.run_posterior_chain).parameters)[3] == "sampler_config"


@pytest.mark.parametrize("kind,config", [
    ("mh", samplers.MhConfig(0.01)),
    ("hmc", samplers.HmcConfig(3, 0.01)),
    ("pp", samplers.PpConfig((0.5, 1.0), proposal_variance=0.01)),
])
def test_chain_annotation_reads_a_posterior_chain(kind, config):
    """The tracer annotates a samplers.run_posterior_chain span from the
    chain it returns, under --trace 1 for every sampler kind."""
    train, _ = generate_noisy_xor(NoisyXorConfig(train_per_corner=5, test_per_corner=1, seed=0))
    args = (Architecture((2, 2, 1)), train, 10.0, config, 30, 3)
    chain = samplers.run_posterior_chain(*args)
    attrs = load_tracer()._chain_attrs(args, {}, chain)
    assert attrs == {
        "kind": kind,
        "iterations": 30,
        "accepted": chain.accepted,
        "swap_accepted": chain.swap_accepted or 0,
        "swap_attempts": 30 if kind == "pp" else 0,
        "divergences": chain.divergences,
    }


def test_hmc_chain_looks_up_leapfrog_as_module_global():
    """A traced samplers.leapfrog only sees HMC trajectories if hmc_chain
    reads the name from the module at call time."""
    assert "leapfrog" in samplers.hmc_chain.__code__.co_names


def test_load_chain_takes_paths_first():
    """The tracer sizes a load from its first two positional arguments."""
    assert list(inspect.signature(chainio.load_chain).parameters)[:2] == ["csv_path", "metadata_path"]


@pytest.mark.parametrize("dataset,widths,sampler", [
    ({"name": "hawks"}, [6, 2, 2, 3], {"kind": "HMC", "leapfrog_steps": 5, "step_size": 0.1}),
    ({"name": "noisy-xor", "seed": 1, "train_per_corner": 125, "test_per_corner": 30}, [2, 2, 1],
     {"kind": "MH", "proposal_variance": 1e-4}),
    ({"name": "noisy-xor", "seed": 1, "train_per_corner": 125, "test_per_corner": 30}, [2, 2, 1],
     {"kind": "PP", "temperatures": [1.0] * 10, "beta": 0.5, "proposal_variance": 1e-4}),
])
def test_setup_probe_runs(tmp_path, dataset, widths, sampler):
    """The benchmark's setup_s probe (perfbench/child.py setup) builds a
    config through bayesmlp.cli names; configs shaped like its workloads'
    must still build."""
    doc = {
        "dataset": dataset, "architecture": {"layer_widths": widths}, "prior_variance": 10.0,
        "sampler": sampler, "num_chains": 4, "iterations": 600, "burnin": 100, "tail": 500, "seed": 1,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, str(CHILD_PATH), "setup", str(path)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_harness_selftest_passes():
    """The harness's own checks of its span arithmetic (self time, layer
    shares, error rate) pass on this Python and numpy."""
    selftest = TRACER_PATH.with_name("selftest.py")
    result = subprocess.run([sys.executable, str(selftest)], cwd=selftest.parent,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
