"""A toy sampler target for tests, built from plain functions."""


class ToyTarget:
    """Has the attributes the samplers read from ``mlp.Posterior``: ``dim``,
    ``log_likelihood``, ``log_prior`` (0 unless given) and, when a gradient of
    the log-posterior is given, ``value_and_grad``."""

    def __init__(self, log_likelihood, dim, gradient=None, log_prior=lambda th: 0.0):
        self.dim = dim
        self.log_likelihood = log_likelihood
        self.log_prior = log_prior
        self.gradient = gradient
        if gradient is not None:
            self.value_and_grad = lambda th: (log_likelihood(th) + log_prior(th), gradient(th))
