"""MCMC samplers for MLP parameter posteriors: random-walk Metropolis,
Hamiltonian Monte Carlo and power-posterior population sampling, plus an
SGD ensemble trainer for comparison runs.

A sampler target has ``dim``, ``log_likelihood(theta)`` and
``log_prior(theta)``; HMC also needs ``grad(theta)``, the log-posterior
gradient, and ``value_and_grad(theta)``, the log-posterior and its
gradient, which it calls only at the end of a trajectory. The samplers
call them on an (m, n) stack, one row per chain, and read one value (and
gradient row) per row, which must equal the row's own evaluation.
``mlp.Posterior`` is the target of every posterior run.

``mh_chain``, ``hmc_chain`` and ``pp_chain`` each take an (m, ...) stack
of initial states and m seeds, advance the m chains in lockstep, one
batched target call per step, and return the list of m chains; a single
chain is the group of one. Every chain keeps its own RNG and accept
decision, so it draws exactly what it draws when run alone, and each
records the group's wall time. All acceptance decisions are taken in log
space. Samplers are seeded and bit-reproducible; a chain never stores a
state with non-finite log-target.

A sampler records each iteration's states into one block of about
``BLOCK_BYTES`` and hands each full block, then the last partial one, to a
sink: one callable per chain, called with each block of that chain's rows
in turn. Without a sink, the sinks fill the (m, iterations, n) draws the
returned chains hold; with one, the chains hold no rows (their first_row is
their length) and only the sink sees the draws.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import mlp
from .chainio import Chain
from .data import LabeledDataset

#: HMC energy-error threshold beyond which a trajectory counts as divergent.
DIVERGENCE_THRESHOLD = 1000.0

#: Bytes of a sampler's block of recorded states: below glibc's 128 KiB mmap
#: threshold, so the one block a group reuses is ordinary heap memory.
BLOCK_BYTES = 1 << 16


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


def _accept(rng: np.random.Generator, delta_log: float) -> bool:
    # log-space Metropolis test; delta_log of -inf or nan never accepts
    if math.isnan(delta_log):
        return False
    if delta_log >= 0:
        return True
    return math.log(rng.uniform()) < delta_log


def _chain_group(init, seeds: Sequence[int], shape: tuple[int, ...]):
    """The start time, states, seeds and RNGs of a group of m chains, from
    an (m,) + shape init stack and m seeds. Chain i draws from its own RNG
    on seeds[i], so stepping the group together changes no chain's draws.
    """
    start = time.perf_counter()
    seeds = [int(s) for s in seeds]
    states = np.array(init, dtype=float)
    if states.shape != (len(seeds),) + shape:
        raise ValueError(f"init must have shape {(len(seeds),) + shape}, got {states.shape}")
    return start, states, seeds, [np.random.default_rng(s) for s in seeds]


class _Fill:
    """The default sink of a chain: copies each block of its rows into the
    next rows of draws."""

    def __init__(self, draws):
        self.draws, self.at = draws, 0

    def __call__(self, rows):
        self.draws[self.at : self.at + len(rows)] = rows
        self.at += len(rows)


class _Recorder:
    """The states of m chains over iterations, recorded into an (m, B, n)
    block of about BLOCK_BYTES and handed to sink[i], chain i's callable,
    a block of rows at a time: each full block, then the last partial one.
    A row block passed to a sink is a view that the next block overwrites.
    Without a sink, the sinks fill ``draws``, the group's (m, iterations, n)
    array; with one, ``draws`` is an empty (m, 0, n) array.
    """

    def __init__(self, sink, m: int, iterations: int, n: int):
        self.draws = np.empty((m, iterations if sink is None else 0, n))
        self.sinks = [_Fill(rows) for rows in self.draws] if sink is None else list(sink)
        if len(self.sinks) != m:
            raise ValueError(f"need one sink per chain, {m}, got {len(self.sinks)}")
        self.block = np.empty((m, max(BLOCK_BYTES // max(8 * m * n, 1), 1), n))
        self.iterations, self.at = iterations, 0

    def __call__(self, states):
        """Record the (m, n) states of the next iteration."""
        rows = self.at % self.block.shape[1]
        self.block[:, rows] = states
        self.at += 1
        if rows + 1 == self.block.shape[1] or self.at == self.iterations:
            for sink, block in zip(self.sinks, self.block[:, : rows + 1]):
                sink(block)


def _chains(tag: str, start: float, seeds, record: _Recorder, **counts) -> list[Chain]:
    """The Chains of a group from its recorder: chain i gets its draws
    (none when they went to a sink), seeds[i], entry i of each per-chain
    count (accepted, divergences, swap_accepted, swap_attempts) and the
    group's wall time."""
    runtime = time.perf_counter() - start
    first_row = record.iterations - record.draws.shape[1]
    return [
        Chain(record.draws[i], burnin=0, seed=s, sampler_tag=tag, runtime_seconds=runtime,
              first_row=first_row, **{name: int(count[i]) for name, count in counts.items()})
        for i, s in enumerate(seeds)
    ]


def _check_start(log_target):
    for value in log_target.tolist():
        if not math.isfinite(value):
            raise SamplerStartupError(f"log-target is {value} at an initial state")


def _metropolis_step(rngs, target, scale: float, t: float, theta, ll, lp) -> np.ndarray:
    """One random-walk Metropolis move of each chain, on the tempered target
    t * ll + lp; theta, ll and lp hold one row per chain and are updated in
    place.

    Chain i proposes theta_i* ~ N(theta_i, scale^2 I) and takes its accept
    decision on rngs[i]. Returns the mask of chains that moved.
    """
    proposal = theta + scale * np.array([rng.standard_normal(theta.shape[1]) for rng in rngs])
    ll_prop = target.log_likelihood(proposal)
    lp_prop = target.log_prior(proposal)
    delta = (t * ll_prop + lp_prop) - (t * ll + lp)
    moved = np.array([_accept(rng, d) for rng, d in zip(rngs, delta.tolist())])
    np.copyto(theta, proposal, where=moved[:, None])
    np.copyto(ll, ll_prop, where=moved)
    np.copyto(lp, lp_prop, where=moved)
    return moved


def _population(target, states, rngs, record: _Recorder, proposal_variance: float, temps=(1.0,), beta=None):
    """The population loop of pp_chain and mh_chain on the (m, rungs, n)
    states, changed in place: rung c of every population takes a
    random-walk Metropolis move on the target temps[c] * ll + lp, then,
    given two rungs or more, each population attempts one swap on its RNG.

    Records the last rung's states at every iteration and returns the
    per-chain counts: its accepted moves and, given two rungs or more, the
    accepted and attempted swaps. A single rung draws nothing for swaps.
    """
    m, rungs = states.shape[:2]
    scale = math.sqrt(proposal_variance)
    lls = np.empty((m, rungs))
    lps = np.empty((m, rungs))
    for c in range(rungs):
        lls[:, c] = target.log_likelihood(states[:, c])
        lps[:, c] = target.log_prior(states[:, c])
        _check_start(temps[c] * lls[:, c] + lps[:, c])

    accepted = np.zeros(m, dtype=int)
    swap_accepted = np.zeros(m, dtype=int)
    cdfs = _swap_cdfs(rungs, beta) if rungs > 1 else None

    for _ in range(record.iterations):
        for c in range(rungs):
            moved = _metropolis_step(rngs, target, scale, temps[c], states[:, c], lls[:, c], lps[:, c])
        accepted += moved  # the moves of the last rung, t_m = 1
        for p, rng in enumerate(rngs if cdfs else ()):
            i = int(rng.integers(rungs))
            j = int(cdfs[i].searchsorted(rng.random(), side="right"))
            delta = (temps[i] - temps[j]) * (lls[p, j] - lls[p, i])
            if _accept(rng, delta):
                for values in (states, lls, lps):
                    values[p, [i, j]] = values[p, [j, i]]
                swap_accepted[p] += 1
        record(states[:, -1])

    swaps = {"swap_accepted": swap_accepted, "swap_attempts": np.full(m, record.iterations)} if cdfs else {}
    return {"accepted": accepted, **swaps}


def mh_chain(target, inits, config: MhConfig, iterations: int, seeds: Sequence[int], sink=None) -> list[Chain]:
    """Random-walk Metropolis with proposals theta* ~ N(theta, lambda I),
    one chain per row of the (m, n) inits and per seed: the population loop
    with the single rung t = 1, which attempts no swap.

    Records one row per iteration, into the chains or, given one callable
    per chain as the sink, into the sink; rejected steps repeat the
    current state. Raises SamplerStartupError if the log-target is
    non-finite at an initial state.
    """
    start, theta, seeds, rngs = _chain_group(inits, seeds, (target.dim,))
    record = _Recorder(sink, len(seeds), iterations, target.dim)
    counts = _population(target, theta[:, None], rngs, record, config.proposal_variance)
    return _chains("MH", start, seeds, record, **counts)


def leapfrog(target, theta, value, grad, momentum, steps: int, step_size: float):
    """Leapfrog integration of H(theta, r) = -log p(theta) + ||r||^2 / 2,
    for one parameter vector or for each row of an (m, n) stack, from
    theta with its log-density value and gradient grad.

    Returns (theta, momentum, value, grad, ok): value and grad are those
    of the returned theta. The L - 1 interior positions take target.grad
    and the last target.value_and_grad, so the trajectory makes L model
    passes and reads the log-density only at its end. ok, one flag per row,
    is False for a row in which a non-finite position or gradient appears
    during the trajectory. Such a row is held at its start with zero
    momentum and gradient from then on, so it evaluates nothing non-finite
    again, and its returned state is meaningless; when no row is left, the
    trajectory stops.
    """
    start = theta
    ok = np.isfinite(grad).all(axis=-1)
    r = momentum
    # pass 0 is the opening half kick; passes 1..L each drift, then kick
    # (a half kick on the last)
    for step in range(steps + 1):
        if step:
            theta = theta + step_size * r
            if step < steps:
                grad = target.grad(theta)
            else:
                value, grad = target.value_and_grad(theta)
            # one whole-array test; the rows are looked at only when it fails
            if not (np.isfinite(grad).all() and np.isfinite(theta).all()):
                ok &= np.isfinite(grad).all(axis=-1) & np.isfinite(theta).all(axis=-1)
        if not ok.all():
            if not ok.any():
                return theta, r, value, grad, ok
            held = ~ok[..., None]
            theta, r, grad = np.where(held, start, theta), np.where(held, 0.0, r), np.where(held, 0.0, grad)
        r = r + (0.5 * step_size if step in (0, steps) else step_size) * grad
    return theta, r, value, grad, ok


def _squared_norms(r) -> np.ndarray:
    # a batched (1, n) @ (n, 1) matmul is each row's own BLAS dot
    return (r[:, None, :] @ r[:, :, None])[:, 0, 0]


def hmc_chain(target, inits, config: HmcConfig, iterations: int, seeds: Sequence[int], sink=None) -> list[Chain]:
    """Hamiltonian Monte Carlo with identity mass matrix, one chain per row
    of the (m, n) inits and per seed, recorded into the chains or, given
    one callable per chain as the sink, into the sink.

    Momentum is refreshed from N(0, I) every iteration; the proposal is
    L leapfrog steps of size eps, accepted with min{1, exp(-dH)}.
    Non-finite trajectories and |dH| above DIVERGENCE_THRESHOLD count
    as rejections and are flagged as divergences.

    A trajectory costs L model passes, L - 1 calls of ``target.grad`` and
    one of ``target.value_and_grad``: each chain carries the value and
    gradient of its state from one iteration to the next, and leapfrog
    returns those of the trajectory's end.
    """
    if not all(callable(getattr(target, name, None)) for name in ("grad", "value_and_grad")):
        raise ValueError("HMC requires a target with grad and value_and_grad")
    start, theta, seeds, rngs = _chain_group(inits, seeds, (target.dim,))
    logp, grad = target.value_and_grad(theta)
    _check_start(logp)
    if not np.isfinite(grad).all():
        raise SamplerStartupError("log-target gradient is non-finite at the initial state")
    record = _Recorder(sink, len(seeds), iterations, target.dim)
    accepted = np.zeros(len(seeds), dtype=int)
    divergences = np.zeros(len(seeds), dtype=int)
    r0 = np.empty_like(theta)  # leapfrog leaves its momentum argument as it is
    for _ in range(iterations):
        for rng, row in zip(rngs, r0):
            rng.standard_normal(out=row)
        prop, r1, prop_logp, prop_grad, ok = leapfrog(
            target, theta, logp, grad, r0, config.leapfrog_steps, config.step_size
        )
        moved = np.zeros(len(seeds), dtype=bool)
        if ok.any():
            # held rows' energies are not read
            h0 = -logp + 0.5 * _squared_norms(r0)
            h1 = -prop_logp + 0.5 * _squared_norms(r1)
            for i, delta_h in enumerate((h1 - h0).tolist()):
                if not ok[i]:
                    continue
                if not math.isfinite(delta_h) or abs(delta_h) > DIVERGENCE_THRESHOLD:
                    divergences[i] += 1
                else:
                    moved[i] = _accept(rngs[i], -delta_h)
        divergences += ~ok
        # leapfrog returned new arrays, so the state can change in place
        np.copyto(theta, prop, where=moved[:, None])
        np.copyto(logp, prop_logp, where=moved)
        np.copyto(grad, prop_grad, where=moved[:, None])
        accepted += moved
        record(theta)
    return _chains("HMC", start, seeds, record, accepted=accepted, divergences=divergences)


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


def _swap_cdfs(rungs: int, beta: float) -> list[np.ndarray]:
    """Each rung's swap-partner CDF, normalised as Generator.choice
    normalises its p: cdfs[i].searchsorted(rng.random(), side="right") is
    the partner that rng.choice(rungs, p=pp_swap_pmf(i, rungs - 1, beta))
    draws, from the one uniform that choice draws too."""
    cdfs = [pp_swap_pmf(i, rungs - 1, beta).cumsum() for i in range(rungs)]
    for cdf in cdfs:
        cdf /= cdf[-1]
    return cdfs


def pp_chain(target, inits, config: PpConfig, iterations: int, seeds: Sequence[int], sink=None) -> list[Chain]:
    """Population sampling from tempered targets t_i * ll + lp, one
    population per seed, its rungs started from a row of the
    (m, rungs, n) inits.

    Per iteration every chain advances by one random-walk Metropolis move
    with the configured proposal variance, then a single swap is
    attempted: a chain index i is drawn uniformly, a partner j from
    pp_swap_pmf(i), and the state exchange is accepted by a Metropolis
    test on the tempered targets. Each population gives its t_m = 1 chain,
    with that rung's accepted moves and the population's swaps; the other
    rungs' draws are not kept. Rung c of every population moves in one
    batched target call, and each population swaps on its own RNG. The t_m
    chains' rows go to the chains or, given one callable per chain as the
    sink, to the sink.
    """
    start, states, seeds, rngs = _chain_group(inits, seeds, (len(config.temperatures), target.dim))
    record = _Recorder(sink, len(seeds), iterations, target.dim)
    counts = _population(target, states, rngs, record, config.proposal_variance,
                         config.temperatures, config.beta)
    return _chains("PP", start, seeds, record, **counts)


# ---------------------------------------------------------------------------
# Posterior chain runner
# ---------------------------------------------------------------------------


def derive_chain_seed(seed: int, chain_index: int) -> int:
    """Private RNG stream per chain: master seed XOR chain index."""
    return seed ^ chain_index


def prior_draw(rng: np.random.Generator, dim: int, sigma2: float) -> np.ndarray:
    return rng.normal(0.0, math.sqrt(sigma2), dim)


def run_posterior_chains(
    arch: mlp.Architecture,
    data: LabeledDataset,
    sigma2: float,
    sampler_config,
    iterations: int,
    seeds: Sequence[int],
    burnin: int = 0,
    sink=None,
) -> list[Chain]:
    """Sample the MLP parameter posterior with MH, HMC or PP, one chain per
    seed, all in lockstep through one batched ``mlp.Posterior``.

    Chain i is the chain its seed gives alone. Its initial state is a draw
    from the prior N(0, sigma2 I) on an RNG of its own seed; for PP every
    chain of its population gets its own prior draw. The burn-in count is
    recorded on the returned chains. Given a sink, one callable per seed,
    chain i's rows go block by block to sink[i] and the returned chains
    hold none of them.
    """
    post = mlp.Posterior(arch, data, sigma2)
    pp = isinstance(sampler_config, PpConfig)
    per_chain = len(sampler_config.temperatures) if pp else 1
    rngs = [np.random.default_rng(s) for s in seeds]
    inits = np.array([[prior_draw(rng, post.dim, sigma2) for _ in range(per_chain)] for rng in rngs])
    if pp:
        chains = pp_chain(post, inits, sampler_config, iterations, seeds, sink)
    elif isinstance(sampler_config, MhConfig):
        chains = mh_chain(post, inits[:, 0], sampler_config, iterations, seeds, sink)
    elif isinstance(sampler_config, HmcConfig):
        chains = hmc_chain(post, inits[:, 0], sampler_config, iterations, seeds, sink)
    else:
        raise TypeError(f"unknown sampler config {type(sampler_config).__name__}")
    for chain in chains:
        chain.burnin = burnin
    return chains


def run_posterior_chain(
    arch: mlp.Architecture,
    data: LabeledDataset,
    sigma2: float,
    sampler_config,
    iterations: int,
    seed: int,
    burnin: int = 0,
) -> Chain:
    """The one chain of run_posterior_chains on seed."""
    return run_posterior_chains(arch, data, sigma2, sampler_config, iterations, [seed], burnin=burnin)[0]


# ---------------------------------------------------------------------------
# SGD ensembles
# ---------------------------------------------------------------------------


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
    from . import predictive  # loaded here, so that `sample` does not load it

    rng = np.random.default_rng(seed)
    likelihood = mlp.Posterior(arch, train, prior_variance)
    n = likelihood.dim
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
                batch = likelihood.subset(order[lo : lo + config.batch_size])
                theta = theta + config.learning_rate * batch.grad_log_likelihood(theta)
        acc = predictive.accuracy(arch, theta, test)[0]
        if acc > config.accept_threshold:
            solutions.append(theta)
            accuracies.append(acc)
    return solutions, accuracies
