"""MCMC samplers for MLP parameter posteriors: random-walk Metropolis,
Hamiltonian Monte Carlo and power-posterior population sampling, plus an
SGD ensemble trainer for comparison runs.

A sampler target has ``dim``, ``log_likelihood(theta)`` and
``log_prior(theta)``; HMC also needs ``value_and_grad(theta)``, the
log-posterior and its gradient. ``mlp.Posterior`` is the target of every
posterior run. All acceptance decisions are taken in log space. Samplers
are seeded and bit-reproducible; a chain never stores a state with
non-finite log-target.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import mlp, predictive
from .data import LabeledDataset

#: HMC energy-error threshold beyond which a trajectory counts as divergent.
DIVERGENCE_THRESHOLD = 1000.0


class SamplerStartupError(RuntimeError):
    """The sampler cannot start, e.g. non-finite log-target at the init."""


@dataclass(frozen=True)
class MhConfig:
    """Random-walk Metropolis with isotropic normal proposals N(theta, lambda I)."""

    proposal_variance: float = 0.02

    def __post_init__(self):
        if not self.proposal_variance > 0:
            raise ValueError("proposal variance must be positive")


@dataclass(frozen=True)
class HmcConfig:
    """Leapfrog trajectory length and step size for HMC."""

    leapfrog_steps: int = 10
    step_size: float = 0.01

    def __post_init__(self):
        if not self.leapfrog_steps >= 1:
            raise ValueError("need at least one leapfrog step")
        if not self.step_size > 0:
            raise ValueError("step size must be positive")


@dataclass(frozen=True)
class PpConfig:
    """Power-posterior population settings.

    ``temperatures`` is the schedule t_0..t_m with t_m = 1; ``beta``
    controls how strongly swap partners concentrate on neighbours;
    ``proposal_variance`` is that of every chain's random-walk Metropolis move.
    """

    temperatures: tuple[float, ...] = (1.0,) * 10
    beta: float = 0.5
    proposal_variance: float = MhConfig.proposal_variance

    def __post_init__(self):
        object.__setattr__(self, "temperatures", tuple(float(t) for t in self.temperatures))
        if len(self.temperatures) < 2:
            raise ValueError("need at least two chains in a population")
        if any(not 0.0 <= t <= 1.0 for t in self.temperatures):
            raise ValueError("temperatures must lie in [0, 1]")
        if self.temperatures[-1] != 1.0:
            raise ValueError("last temperature must equal 1")
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not self.proposal_variance > 0:
            raise ValueError("proposal variance must be positive")


@dataclass(frozen=True)
class SgdConfig:
    """Ensemble training settings; defaults match the reference runs."""

    epochs: int = 2000
    batch_size: int = 50
    learning_rate: float = 0.002
    accept_threshold: float = 0.85
    ensemble_size: int = 1000
    max_sessions: int = 100000

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.ensemble_size < 1:
            raise ValueError("epochs, batch_size and ensemble_size must be positive")
        if not self.learning_rate >= 0:
            raise ValueError("learning rate must be nonnegative")
        if not 0.0 < self.accept_threshold < 1.0:
            raise ValueError("accept threshold must lie in (0, 1)")
        if self.max_sessions < self.ensemble_size:
            raise ValueError("max_sessions must be at least ensemble_size")


@dataclass
class Chain:
    """A realized chain, one iteration per row.

    draws holds the iterations from first_row on: all of them (burn-in
    included) for a sampled chain, a tail for a partially loaded one.
    burnin and accepted always count over the whole chain.
    """

    draws: np.ndarray
    burnin: int
    seed: int
    accepted: int
    sampler_tag: str
    runtime_seconds: float = 0.0
    swap_accepted: int | None = None
    swap_attempts: int | None = None
    divergences: int = 0
    first_row: int = 0

    def __post_init__(self):
        self.draws = np.atleast_2d(np.asarray(self.draws, dtype=float))
        if self.first_row < 0:
            raise ValueError("first row must be >= 0")
        if not 0 <= self.burnin < self.iterations:
            raise ValueError("burn-in must be smaller than the chain length")
        if not 0 <= self.accepted <= self.iterations:
            raise ValueError("accepted count cannot exceed the chain length")

    def __len__(self) -> int:
        return self.draws.shape[0]

    @property
    def iterations(self) -> int:
        """Length of the whole chain, rows before first_row included."""
        return self.first_row + len(self)

    @property
    def dim(self) -> int:
        return self.draws.shape[1]

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.iterations

    def post_burnin(self) -> np.ndarray:
        return self.draws[max(self.burnin - self.first_row, 0) :]

    def tail(self, length: int) -> np.ndarray:
        if not 0 < length <= len(self):
            raise ValueError(f"tail length must lie in [1, {len(self)}]")
        return self.draws[-length:]


def _accept(rng: np.random.Generator, delta_log: float) -> bool:
    # log-space Metropolis test; delta_log of -inf or nan never accepts
    if math.isnan(delta_log):
        return False
    if delta_log >= 0:
        return True
    return math.log(rng.uniform()) < delta_log


def _metropolis_step(rng: np.random.Generator, target, scale: float, t: float, theta, ll, lp):
    """One random-walk Metropolis move on the tempered target t * ll + lp.

    Proposes theta* ~ N(theta, scale^2 I) and returns (theta, ll, lp,
    accepted) for the state the chain holds afterwards.
    """
    proposal = theta + scale * rng.standard_normal(theta.shape[0])
    ll_prop = target.log_likelihood(proposal)
    lp_prop = target.log_prior(proposal)
    if _accept(rng, (t * ll_prop + lp_prop) - (t * ll + lp)):
        return proposal, ll_prop, lp_prop, True
    return theta, ll, lp, False


def mh_chain(target, init, config: MhConfig, iterations: int, seed: int) -> Chain:
    """Random-walk Metropolis with proposals theta* ~ N(theta, lambda I).

    Records one row per iteration; rejected steps repeat the current
    state. Raises SamplerStartupError if the log-target is non-finite
    at the initial state.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    theta = np.array(init, dtype=float)
    if theta.shape != (target.dim,):
        raise ValueError(f"init must have shape ({target.dim},)")
    ll, lp = target.log_likelihood(theta), target.log_prior(theta)
    if not math.isfinite(ll + lp):
        raise SamplerStartupError(f"log-target is {ll + lp} at the initial state")
    scale = math.sqrt(config.proposal_variance)
    draws = np.empty((iterations, target.dim))
    accepted = 0
    for it in range(iterations):
        theta, ll, lp, ok = _metropolis_step(rng, target, scale, 1.0, theta, ll, lp)
        accepted += ok
        draws[it] = theta
    return Chain(
        draws,
        burnin=0,
        seed=seed,
        accepted=accepted,
        sampler_tag="MH",
        runtime_seconds=time.perf_counter() - start,
    )


def leapfrog(gradient, theta, momentum, steps: int, step_size: float):
    """Leapfrog integration of H(theta, r) = -log p(theta) + ||r||^2 / 2.

    Returns (theta, momentum, ok); ok is False when a non-finite value
    appears during the trajectory. The gradient is called first at theta
    itself (the same array object when theta is a float array) and last at
    the returned point.
    """
    theta = np.asarray(theta, dtype=float)
    g = gradient(theta)
    if not np.all(np.isfinite(g)):
        return theta, momentum, False
    r = momentum + 0.5 * step_size * g
    for step in range(steps):
        theta = theta + step_size * r
        g = gradient(theta)
        if not np.all(np.isfinite(g)) or not np.all(np.isfinite(theta)):
            return theta, r, False
        r = r + (step_size if step < steps - 1 else 0.5 * step_size) * g
    return theta, r, True


class _LastPass:
    """Gradient callable for leapfrog that keeps the log-density and
    gradient of the last point it evaluated, and answers that same point
    again without evaluating the target."""

    def __init__(self, value_and_grad):
        self._value_and_grad = value_and_grad
        self.theta = self.value = self.grad = None

    def __call__(self, theta):
        if theta is not self.theta:
            self.value, self.grad = self._value_and_grad(theta)
            self.theta = theta
        return self.grad


def hmc_chain(target, init, config: HmcConfig, iterations: int, seed: int) -> Chain:
    """Hamiltonian Monte Carlo with identity mass matrix.

    Momentum is refreshed from N(0, I) every iteration; the proposal is
    L leapfrog steps of size eps, accepted with min{1, exp(-dH)}.
    Non-finite trajectories and |dH| above DIVERGENCE_THRESHOLD count
    as rejections and are flagged as divergences.

    A trajectory costs L calls of ``target.value_and_grad``: the gradient
    at its start is carried over from the previous iteration, and the
    log-density of its end comes from the call that gave the final gradient.
    """
    if not callable(getattr(target, "value_and_grad", None)):
        raise ValueError("HMC requires a target with value_and_grad")
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    theta = np.array(init, dtype=float)
    if theta.shape != (target.dim,):
        raise ValueError(f"init must have shape ({target.dim},)")
    logp, grad = target.value_and_grad(theta)
    if not math.isfinite(logp):
        raise SamplerStartupError(f"log-target is {logp} at the initial state")
    if not np.all(np.isfinite(grad)):
        raise SamplerStartupError("log-target gradient is non-finite at the initial state")
    last = _LastPass(target.value_and_grad)
    draws = np.empty((iterations, target.dim))
    accepted = 0
    divergences = 0
    for it in range(iterations):
        r0 = rng.standard_normal(target.dim)
        last.theta, last.value, last.grad = theta, logp, grad
        prop, r1, ok = leapfrog(last, theta, r0, config.leapfrog_steps, config.step_size)
        if ok:
            logp_prop = last.value  # leapfrog evaluates prop last
            h0 = -logp + 0.5 * (r0 @ r0)
            h1 = -logp_prop + 0.5 * (r1 @ r1)
            delta_h = h1 - h0
            if not math.isfinite(delta_h) or abs(delta_h) > DIVERGENCE_THRESHOLD:
                divergences += 1
            elif _accept(rng, -delta_h):
                theta, logp, grad = prop, logp_prop, last.grad
                accepted += 1
        else:
            divergences += 1
        draws[it] = theta
    return Chain(
        draws,
        burnin=0,
        seed=seed,
        accepted=accepted,
        sampler_tag="HMC",
        runtime_seconds=time.perf_counter() - start,
        divergences=divergences,
    )


# ---------------------------------------------------------------------------
# Power posterior population sampling
# ---------------------------------------------------------------------------


def pp_normalizer(i: int, m: int, beta: float) -> float:
    """Closed-form normalizer of the swap-partner distribution for chain i.

    gamma_i = e^{-b} (2 - e^{-b i} - e^{-b (m-i)}) / (1 - e^{-b}).
    """
    if m < 1:
        raise ValueError("a population of one chain has no swap partner")
    if not 0 <= i <= m:
        raise ValueError(f"chain index {i} outside 0..{m}")
    if not beta > 0:
        raise ValueError("beta must be positive")
    eb = math.exp(-beta)
    return eb * (2.0 - math.exp(-beta * i) - math.exp(-beta * (m - i))) / (1.0 - eb)


def pp_swap_pmf(i: int, m: int, beta: float) -> np.ndarray:
    """Swap-partner probabilities alpha_i(j) = e^{-beta |j-i|} / gamma_i.

    Returns a vector over j = 0..m with a zero at j = i; the remaining
    entries are positive and sum to one.
    """
    gamma = pp_normalizer(i, m, beta)
    j = np.arange(m + 1)
    probs = np.exp(-beta * np.abs(j - i)) / gamma
    probs[i] = 0.0
    return probs


@dataclass
class PopulationRecord:
    """Full trajectory of a power-posterior population."""

    draws: np.ndarray  # (num_chains, iterations, dim)
    temperatures: tuple[float, ...]
    within_accepted: np.ndarray  # per-chain accepted within-chain moves
    swap_accepted: int
    swap_attempts: int


def pp_chain(
    target, inits: Sequence[np.ndarray], config: PpConfig, iterations: int, seed: int
) -> tuple[Chain, PopulationRecord]:
    """Population sampling from tempered targets t_i * ll + lp.

    Per iteration every chain advances by one random-walk Metropolis move
    with the configured proposal variance, then a single swap is
    attempted: a chain index i is drawn uniformly, a partner j from
    pp_swap_pmf(i), and the state exchange is accepted by a Metropolis
    test on the tempered targets. Returns the t_m = 1 chain plus the full
    population record.
    """
    start = time.perf_counter()
    temps = config.temperatures
    num_chains = len(temps)
    if len(inits) != num_chains:
        raise ValueError(f"need one init per chain ({num_chains})")
    rng = np.random.default_rng(seed)
    scale = math.sqrt(config.proposal_variance)

    states = [np.array(x, dtype=float) for x in inits]
    lls = np.empty(num_chains)
    lps = np.empty(num_chains)
    for c, theta in enumerate(states):
        if theta.shape != (target.dim,):
            raise ValueError(f"init {c} must have shape ({target.dim},)")
        lls[c] = target.log_likelihood(theta)
        lps[c] = target.log_prior(theta)
        if not math.isfinite(temps[c] * lls[c] + lps[c]):
            raise SamplerStartupError(f"log-target of chain {c} is non-finite at its init")

    draws = np.empty((num_chains, iterations, target.dim))
    within_accepted = np.zeros(num_chains, dtype=int)
    swap_accepted = 0
    # swap partner distributions are iteration-independent; precompute
    pmfs = [pp_swap_pmf(i, num_chains - 1, config.beta) for i in range(num_chains)]

    for it in range(iterations):
        for c in range(num_chains):
            states[c], lls[c], lps[c], ok = _metropolis_step(
                rng, target, scale, temps[c], states[c], lls[c], lps[c]
            )
            within_accepted[c] += ok
        i = int(rng.integers(num_chains))
        j = int(rng.choice(num_chains, p=pmfs[i]))
        delta = (temps[i] - temps[j]) * (lls[j] - lls[i])
        if _accept(rng, delta):
            states[i], states[j] = states[j], states[i]
            lls[i], lls[j] = lls[j], lls[i]
            lps[i], lps[j] = lps[j], lps[i]
            swap_accepted += 1
        for c in range(num_chains):
            draws[c, it] = states[c]

    runtime = time.perf_counter() - start
    chain = Chain(
        draws[-1],
        burnin=0,
        seed=seed,
        accepted=int(within_accepted[-1]),
        sampler_tag="PP",
        runtime_seconds=runtime,
        swap_accepted=swap_accepted,
        swap_attempts=iterations,
    )
    record = PopulationRecord(draws, temps, within_accepted, swap_accepted, iterations)
    return chain, record


# ---------------------------------------------------------------------------
# Posterior chain runner
# ---------------------------------------------------------------------------


def derive_chain_seed(seed: int, chain_index: int) -> int:
    """Private RNG stream per chain: master seed XOR chain index."""
    return seed ^ chain_index


def prior_draw(rng: np.random.Generator, dim: int, sigma2: float) -> np.ndarray:
    return rng.normal(0.0, math.sqrt(sigma2), dim)


def run_posterior_chain(
    arch: mlp.Architecture,
    data: LabeledDataset,
    sigma2: float,
    sampler_config,
    iterations: int,
    seed: int,
    burnin: int = 0,
    init: np.ndarray | None = None,
) -> Chain:
    """Sample the MLP parameter posterior with MH, HMC or PP.

    The initial state defaults to a draw from the prior N(0, sigma2 I);
    for PP every chain of the population gets its own prior draw. The
    burn-in count is recorded on the returned chain.
    """
    rng = np.random.default_rng(seed)
    post = mlp.Posterior(arch, data, sigma2)
    if isinstance(sampler_config, PpConfig):
        if init is None:
            inits = [prior_draw(rng, post.dim, sigma2) for _ in sampler_config.temperatures]
        else:
            inits = [np.array(init, dtype=float) for _ in sampler_config.temperatures]
        chain, _ = pp_chain(post, inits, sampler_config, iterations, seed)
    else:
        start = prior_draw(rng, post.dim, sigma2) if init is None else np.asarray(init, dtype=float)
        if isinstance(sampler_config, MhConfig):
            chain = mh_chain(post, start, sampler_config, iterations, seed)
        elif isinstance(sampler_config, HmcConfig):
            chain = hmc_chain(post, start, sampler_config, iterations, seed)
        else:
            raise TypeError(f"unknown sampler config {type(sampler_config).__name__}")
    chain.burnin = burnin
    return chain


# ---------------------------------------------------------------------------
# SGD ensembles
# ---------------------------------------------------------------------------


def _point_accuracy(arch, theta, data: LabeledDataset) -> float:
    """Plain classification accuracy of a single parameter vector."""
    probs = mlp.event_probabilities(arch, theta, data.features)
    predicted = predictive.classify(probs, "binary" if arch.is_binary else "multiclass")
    return float(np.mean(predicted == data.labels))


def sgd_ensemble(
    arch: mlp.Architecture,
    train: LabeledDataset,
    test: LabeledDataset,
    config: SgdConfig,
    seed: int,
    prior_variance: float = 10.0,
) -> tuple[list[np.ndarray], list[float]]:
    """Collect SGD solutions whose test accuracy clears the threshold.

    Each session initializes from the prior N(0, prior_variance I) and
    runs plain gradient ascent on the log-likelihood (descent on the
    cross-entropy loss) over shuffled minibatches. Sessions repeat until
    ensemble_size solutions are accepted; aborts past max_sessions.
    """
    rng = np.random.default_rng(seed)
    n = mlp.parameter_count(arch)
    s = len(train)
    solutions: list[np.ndarray] = []
    accuracies: list[float] = []
    sessions = 0
    while len(solutions) < config.ensemble_size:
        if sessions >= config.max_sessions:
            raise RuntimeError(
                f"gave up after {sessions} SGD sessions with only "
                f"{len(solutions)}/{config.ensemble_size} accepted solutions"
            )
        sessions += 1
        theta = prior_draw(rng, n, prior_variance)
        for _ in range(config.epochs):
            order = rng.permutation(s)
            for lo in range(0, s, config.batch_size):
                batch = train.subset(order[lo : lo + config.batch_size])
                likelihood = mlp.Posterior(arch, batch, prior_variance)
                theta = theta + config.learning_rate * likelihood.grad_log_likelihood(theta)
        acc = _point_accuracy(arch, theta, test)
        if acc > config.accept_threshold:
            solutions.append(theta)
            accuracies.append(acc)
    return solutions, accuracies
