"""The benchmark's tracer (perfbench/tracer.py) wraps bayesmlp functions by
module and attribute name. These tests read its TRACED table, without
changing anything under perfbench/, so that renaming a traced function
fails here instead of breaking ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from bayesmlp import chainio, samplers

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attrs in tracer.TRACED.items() for attr in attrs]


@pytest.mark.parametrize("module_name,attr", traced_names())
def test_traced_attribute_exists_and_is_callable(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_run_posterior_chain_takes_sampler_config_fourth():
    """The tracer names a chain's sampler from its 4th positional argument."""
    assert list(inspect.signature(samplers.run_posterior_chain).parameters)[3] == "sampler_config"


def test_hmc_chain_looks_up_leapfrog_as_module_global():
    """A traced samplers.leapfrog only sees HMC trajectories if hmc_chain
    reads the name from the module at call time."""
    assert "leapfrog" in samplers.hmc_chain.__code__.co_names


def test_load_chain_takes_paths_first():
    """The tracer sizes a load from its first two positional arguments."""
    assert list(inspect.signature(chainio.load_chain).parameters)[:2] == ["csv_path", "metadata_path"]
