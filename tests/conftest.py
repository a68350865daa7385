import numpy as np
import pytest

from bayesmlp import Architecture, LabeledDataset, parameter_count


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def xor_arch():
    return Architecture((2, 2, 1))


@pytest.fixture
def deep_arch():
    return Architecture((6, 2, 2, 3))


def random_instance(rng, arch, samples=10, theta_scale=1.0):
    """Random (theta, dataset) pair consistent with an architecture."""
    n = parameter_count(arch)
    theta = theta_scale * rng.normal(size=n)
    X = rng.normal(size=(samples, arch.input_dim))
    if arch.output_dim == 1:
        y = rng.integers(0, 2, size=samples)
    else:
        y = rng.integers(1, arch.output_dim + 1, size=samples)
    return theta, LabeledDataset(X, y)
