"""A toy sampler target for tests, built from plain functions."""

import numpy as np


def _per_row(func):
    """func of one parameter vector, applied to each row of an (m, n) stack."""

    def call(th):
        th = np.asarray(th)
        return func(th) if th.ndim == 1 else np.array([func(row) for row in th])

    return call


class ToyTarget:
    """Has the attributes the samplers read from ``mlp.Posterior``: ``dim``,
    ``log_likelihood``, ``log_prior`` (0 unless given) and, when a gradient of
    the log-posterior is given, ``grad`` and ``value_and_grad``. Each takes
    one parameter vector or a stack of them, which it evaluates row by row."""

    def __init__(self, log_likelihood, dim, gradient=None, log_prior=lambda th: 0.0):
        self.dim = dim
        self.log_likelihood = _per_row(log_likelihood)
        self.log_prior = _per_row(log_prior)
        if gradient is not None:
            value = _per_row(lambda th: log_likelihood(th) + log_prior(th))
            grad = self.grad = _per_row(gradient)
            self.value_and_grad = lambda th: (value(th), grad(th))


def run_alone(sampler, target, init, config, iterations, seed):
    """The chain that sampler gives from one init and one seed: the one
    chain of a group of one."""
    return sampler(target, np.asarray(init, dtype=float)[None], config, iterations, [seed])[0]
