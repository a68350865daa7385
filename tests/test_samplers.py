import json
import math
from collections import Counter

import numpy as np
import pytest
from toy_targets import ToyTarget, run_alone

from bayesmlp import Architecture, NoisyXorConfig, generate_noisy_xor, mlp
from bayesmlp.data import load_vendored
from bayesmlp.mlp import Posterior, log_likelihood, unpack_parameters
from bayesmlp import samplers
from bayesmlp.chainio import save_chain
from bayesmlp.samplers import (
    Chain,
    HmcConfig,
    MhConfig,
    PpConfig,
    SamplerStartupError,
    SgdConfig,
    derive_chain_seed,
    hmc_chain,
    leapfrog,
    mh_chain,
    pp_chain,
    pp_normalizer,
    pp_swap_pmf,
    run_posterior_chain,
    run_posterior_chains,
    sgd_ensemble,
)


def standard_normal_target(dim):
    return ToyTarget(lambda th: -0.5 * float(th @ th), dim, gradient=lambda th: -th)


class TestConfigs:
    def test_positive_proposal_variance(self):
        with pytest.raises(ValueError):
            MhConfig(0.0)

    def test_hmc_bounds(self):
        with pytest.raises(ValueError):
            HmcConfig(0, 0.1)
        with pytest.raises(ValueError):
            HmcConfig(5, -0.1)

    def test_pp_schedule_must_end_at_one(self):
        with pytest.raises(ValueError):
            PpConfig((0.5, 0.9))
        with pytest.raises(ValueError):
            PpConfig((0.5, 1.2, 1.0))

    def test_sgd_threshold_open_interval(self):
        with pytest.raises(ValueError):
            SgdConfig(accept_threshold=1.0)

    @pytest.mark.parametrize("make", [
        lambda nan: MhConfig(nan),
        lambda nan: HmcConfig(5, nan),
        lambda nan: HmcConfig(nan, 0.1),
        lambda nan: PpConfig((0.5, 1.0), beta=nan),
        lambda nan: PpConfig((0.5, 1.0), proposal_variance=nan),
        lambda nan: SgdConfig(learning_rate=nan),
        lambda nan: pp_normalizer(0, 2, nan),
    ])
    def test_nan_is_out_of_range(self, make):
        with pytest.raises(ValueError):
            make(float("nan"))

    def test_defaults(self):
        """The defaults a config section falls back on."""
        assert MhConfig() == MhConfig(0.02)
        assert HmcConfig() == HmcConfig(10, 0.01)
        assert PpConfig() == PpConfig((1.0,) * 10, 0.5, 0.02)


class TestMetropolisHastings:
    def test_log_ratio_equals_direct_ratio(self, rng):
        """min{1, exp(delta)} and the log-space rule are the same decision."""
        for delta in rng.normal(scale=3.0, size=200):
            assert min(1.0, math.exp(delta)) == math.exp(min(0.0, delta))

    def test_recovers_standard_normal_moments(self):
        chain = run_alone(mh_chain, standard_normal_target(2), np.zeros(2), MhConfig(2.4), 50000, 8)
        draws = chain.draws[5000:]
        assert np.abs(draws.mean(axis=0)).max() < 0.05
        assert np.abs(np.cov(draws.T) - np.eye(2)).max() < 0.1

    def test_tiny_steps_always_accepted(self):
        chain = run_alone(mh_chain, standard_normal_target(3), np.ones(3), MhConfig(1e-20), 2000, 1)
        assert chain.acceptance_rate > 0.999

    def test_rejected_steps_repeat_state(self):
        # a spike target: nearly every proposal is rejected
        target = ToyTarget(lambda th: -1e8 * float(th @ th), 2)
        chain = run_alone(mh_chain, target, np.zeros(2), MhConfig(1.0), 500, 3)
        repeats = (chain.draws[1:] == chain.draws[:-1]).all(axis=1).sum()
        # row i + 1 repeats row i exactly when iteration i + 1 rejects
        moved_at_iteration_0 = int((chain.draws[0] != 0.0).any())
        assert repeats == 499 - (chain.accepted - moved_at_iteration_0)

    def test_non_finite_init_rejected(self):
        target = ToyTarget(lambda th: -math.inf, 2)
        with pytest.raises(SamplerStartupError):
            run_alone(mh_chain, target, np.zeros(2), MhConfig(1.0), 10, 0)

    def test_seed_reproducible(self):
        a = run_alone(mh_chain, standard_normal_target(3), np.zeros(3), MhConfig(0.5), 300, 11)
        b = run_alone(mh_chain, standard_normal_target(3), np.zeros(3), MhConfig(0.5), 300, 11)
        np.testing.assert_array_equal(a.draws, b.draws)
        assert a.accepted == b.accepted

    def test_finite_log_target_along_chain(self):
        # target is -inf outside the unit box; chain must never step there
        def boxed(th):
            return 0.0 if np.abs(th).max() < 1.0 else -math.inf

        chain = run_alone(mh_chain, ToyTarget(boxed, 2), np.zeros(2), MhConfig(4.0), 2000, 5)
        assert (np.abs(chain.draws) < 1.0).all()


def leapfrog_from(target, theta, momentum, steps, step_size):
    """leapfrog from theta, with the value and gradient the target gives there."""
    return leapfrog(target.value_and_grad, theta, *target.value_and_grad(theta), momentum, steps, step_size)


def held_row_target(seen):
    """The 2-D standard normal, whose gradient is infinite outside
    |theta| < 2; seen records whether each evaluated point was finite."""

    def gradient(th):
        seen.append(np.isfinite(th).all())
        return -th if np.abs(th).max() < 2.0 else np.full_like(th, np.inf)

    return ToyTarget(lambda th: -0.5 * float(th @ th), 2, gradient=gradient)


def bits(values):
    return np.asarray(values).tobytes()


class TestLeapfrog:
    def test_quarter_rotation(self):
        """Harmonic oscillator: time pi/2 maps (1, 0) near (0, -1)."""
        steps = 157
        theta, r, _, _, ok = leapfrog_from(
            standard_normal_target(1), np.array([1.0]), np.array([0.0]), steps, math.pi / 2 / steps
        )
        assert ok
        assert abs(theta[0]) < 1e-3
        assert abs(r[0] + 1.0) < 1e-3

    def test_time_reversible(self, rng):
        target = standard_normal_target(4)
        theta0 = rng.normal(size=4)
        r0 = rng.normal(size=4)
        theta1, r1, *_ = leapfrog_from(target, theta0, r0, 30, 0.11)
        theta2, r2, *_ = leapfrog_from(target, theta1, -r1, 30, 0.11)
        assert np.abs(theta2 - theta0).max() < 1e-8
        assert np.abs(-r2 - r0).max() < 1e-8

    @pytest.mark.parametrize("target,theta0,momentum,held", [
        (standard_normal_target(3), np.linspace(-1.0, 1.0, 12).reshape(4, 3),
         np.linspace(2.0, -1.0, 12).reshape(4, 3), []),
        # row 1 is pushed past |theta| = 2 and held
        (held_row_target([]), np.array([[0.0, 0.0], [1.5, -1.5], [0.5, 1.0], [-1.0, 0.2]]),
         np.array([[0.0, 0.0], [3.0, -3.0], [0.1, 0.1], [0.0, 0.0]]), [1]),
    ])
    def test_returns_value_and_grad_of_end_point(self, target, theta0, momentum, held):
        """For every row that stays finite, the returned value and gradient
        are value_and_grad's at the returned theta, bit for bit."""
        theta, _, value, grad, ok = leapfrog_from(target, theta0, momentum, 6, 0.4)
        assert np.flatnonzero(~ok).tolist() == held
        want_value, want_grad = target.value_and_grad(theta)
        assert bits(value[ok]) == bits(want_value[ok])
        assert bits(grad[ok]) == bits(want_grad[ok])


class TestHmc:
    def test_tiny_step_size_always_accepted(self):
        chain = run_alone(hmc_chain, standard_normal_target(3), np.ones(3), HmcConfig(3, 1e-6), 500, 2)
        assert chain.acceptance_rate > 0.999

    def test_recovers_standard_normal_moments(self):
        chain = run_alone(hmc_chain, standard_normal_target(2), np.zeros(2), HmcConfig(8, 0.2), 20000, 9)
        draws = chain.draws[2000:]
        assert np.abs(draws.mean(axis=0)).max() < 0.05
        assert np.abs(np.cov(draws.T) - np.eye(2)).max() < 0.1

    def test_divergences_flagged_and_rejected(self):
        # extremely stiff target: unit steps explode the energy error
        target = ToyTarget(
            lambda th: -0.5e8 * float(th @ th), 1, gradient=lambda th: -1e8 * th
        )
        chain = run_alone(hmc_chain, target, np.array([1e-4]), HmcConfig(10, 1.0), 50, 4)
        assert chain.divergences > 0
        assert np.isfinite(chain.draws).all()

    def test_requires_gradient(self):
        with pytest.raises(ValueError):
            run_alone(hmc_chain, ToyTarget(lambda th: 0.0, 1), np.zeros(1), HmcConfig(2, 0.1), 5, 0)

    def test_seed_reproducible(self):
        a = run_alone(hmc_chain, standard_normal_target(2), np.zeros(2), HmcConfig(5, 0.3), 200, 21)
        b = run_alone(hmc_chain, standard_normal_target(2), np.zeros(2), HmcConfig(5, 0.3), 200, 21)
        np.testing.assert_array_equal(a.draws, b.draws)

    @pytest.mark.parametrize("steps", [1, 5])
    def test_one_model_pass_per_leapfrog_step(self, monkeypatch, xor_arch, steps):
        """An L-step trajectory costs L forward passes: the start gradient is
        carried over and the end value comes from the last gradient pass."""
        train, _ = generate_noisy_xor(NoisyXorConfig(train_per_corner=10, test_per_corner=1, seed=0))
        passes = []
        forward_features = mlp._forward_features

        def counting(*args):
            passes.append(1)
            return forward_features(*args)

        monkeypatch.setattr(mlp, "_forward_features", counting)
        iterations = 40
        chain = run_posterior_chain(xor_arch, train, 10.0, HmcConfig(steps, 0.5), iterations, seed=5)
        assert chain.divergences == 0 and 0 < chain.accepted < iterations
        assert len(passes) == 1 + steps * iterations

    def test_one_value_and_grad_call_per_leapfrog_step(self):
        """HMC calls only value_and_grad: once at the start and L times per
        iteration, never log_likelihood or log_prior."""
        target = standard_normal_target(3)
        calls = Counter()

        def counted(name, method):
            def call(th):
                calls[name] += 1
                return method(th)

            return call

        for name in ("log_likelihood", "log_prior", "value_and_grad"):
            setattr(target, name, counted(name, getattr(target, name)))
        iterations, steps = 30, 4
        chain = run_alone(hmc_chain, target, np.ones(3), HmcConfig(steps, 0.3), iterations, 1)
        assert chain.divergences == 0
        assert calls == {"value_and_grad": 1 + steps * iterations}

    def test_carried_gradient_matches_separate_calls(self, xor_arch):
        """The posterior's one-pass path gives the draws that separate
        log-posterior and gradient calls give, on a run with rejections."""
        train, _ = generate_noisy_xor(NoisyXorConfig(train_per_corner=10, test_per_corner=1, seed=0))
        separate = ToyTarget(
            lambda th: mlp.log_posterior(xor_arch, th, train, 10.0),
            9,
            gradient=lambda th: mlp.grad_log_posterior(xor_arch, th, train, 10.0),
        )
        init = np.random.default_rng(3).normal(0.0, 3.0, 9)
        config = HmcConfig(5, 0.4)
        a = run_alone(hmc_chain, mlp.Posterior(xor_arch, train, 10.0), init, config, 150, 8)
        b = run_alone(hmc_chain, separate, init, config, 150, 8)
        assert 0 < a.accepted < 150
        np.testing.assert_array_equal(a.draws, b.draws)
        assert (a.accepted, a.divergences) == (b.accepted, b.divergences)


def direct_normalizer(i, m, beta):
    return sum(math.exp(-beta * abs(j - i)) for j in range(m + 1) if j != i)


class TestSwapPmf:
    @pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("m", [1, 2, 5, 9, 33, 64])
    def test_normalizer_matches_direct_summation(self, m, beta):
        for i in range(m + 1):
            assert pp_normalizer(i, m, beta) == pytest.approx(
                direct_normalizer(i, m, beta), abs=1e-12
            )

    def test_frozen_values_for_first_chain(self):
        """gamma_0 and alpha_0(1) at m=9, beta=0.5, from direct summation."""
        assert pp_normalizer(0, 9, 0.5) == pytest.approx(1.524369630110176, abs=1e-12)
        probs = pp_swap_pmf(0, 9, 0.5)
        assert probs[1] == pytest.approx(0.3978894932909386, abs=1e-12)

    def test_boundary_reduction_is_geometric_sum(self):
        beta, m = 0.7, 12
        eb = math.exp(-beta)
        geometric = eb * (1 - math.exp(-beta * m)) / (1 - eb)
        assert pp_normalizer(0, m, beta) == pytest.approx(geometric, abs=1e-12)

    def test_normalizer_symmetric(self):
        for m, beta in ((7, 0.5), (20, 0.25)):
            for i in range(m + 1):
                assert pp_normalizer(i, m, beta) == pytest.approx(
                    pp_normalizer(m - i, m, beta), abs=1e-12
                )

    @pytest.mark.parametrize("m", [1, 3, 9, 64])
    def test_probabilities_sum_to_one(self, m):
        for i in range(m + 1):
            probs = pp_swap_pmf(i, m, 0.5)
            assert probs[i] == 0.0
            off = np.delete(probs, i)
            assert (off > 0).all()
            assert off.sum() == pytest.approx(1.0, abs=1e-12)

    def test_neighbour_ratio_is_exp_two_beta(self):
        for beta in (0.25, 0.5, 1.0):
            probs = pp_swap_pmf(5, 10, beta)
            assert probs[6] / probs[8] == pytest.approx(math.exp(2 * beta), abs=1e-12)
            assert probs[4] / probs[2] == pytest.approx(math.exp(2 * beta), abs=1e-12)

    def test_large_beta_concentrates_on_neighbours(self):
        probs = pp_swap_pmf(0, 9, 50.0)
        assert probs[1] == pytest.approx(1.0, abs=1e-12)

    def test_two_chain_population_always_picks_other(self):
        np.testing.assert_allclose(pp_swap_pmf(0, 1, 0.5), [0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(pp_swap_pmf(1, 1, 0.5), [1.0, 0.0], atol=1e-15)

    def test_no_neighbour_error(self):
        with pytest.raises(ValueError):
            pp_normalizer(0, 0, 0.5)


def mixture_target():
    """Two well-separated normal modes at +-5 with sd 0.5, flat prior."""

    def log_mix(th):
        x = th[0]
        a = -0.5 * ((x - 5) / 0.5) ** 2
        b = -0.5 * ((x + 5) / 0.5) ** 2
        top = max(a, b)
        return top + math.log(0.5 * math.exp(a - top) + 0.5 * math.exp(b - top))

    return ToyTarget(log_mix, 1)


class TestPowerPosterior:
    def test_unit_temperatures_always_swap(self):
        target = mixture_target()
        config = PpConfig((1.0, 1.0), proposal_variance=0.5)
        chain = run_alone(pp_chain, target, [np.array([5.0]), np.array([-5.0])], config, 300, 6)
        assert chain.swap_accepted == chain.swap_attempts == 300

    def test_tempering_crosses_modes_where_mh_cannot(self):
        """The t=1 chain of the population reaches both mixture modes; a
        plain MH chain with the same proposal stays in its starting mode."""
        target = mixture_target()
        lam = 2.25
        config = PpConfig((0.1, 0.5, 1.0), beta=0.5, proposal_variance=lam)
        chain = run_alone(pp_chain, target, [np.array([5.0])] * 3, config, 50000, 2)
        x = chain.draws[:, 0]
        assert (x > 2).any() and (x < -2).any()

        plain = run_alone(mh_chain, target, np.array([5.0]), MhConfig(lam), 50000, 2)
        assert not (plain.draws[:, 0] < -2).any()

    def test_population_chain_shape(self):
        target = mixture_target()
        config = PpConfig((0.5, 1.0), proposal_variance=0.5)
        chain = run_alone(pp_chain, target, [np.zeros(1), np.zeros(1)], config, 100, 0)
        assert chain.draws.shape == (100, 1)
        assert 0 <= chain.swap_accepted <= chain.swap_attempts == 100

    def test_seed_reproducible(self):
        target = mixture_target()
        config = PpConfig((0.5, 1.0), proposal_variance=0.5)
        inits = [np.array([1.0]), np.array([2.0])]
        a = run_alone(pp_chain, target, inits, config, 200, 14)
        b = run_alone(pp_chain, target, inits, config, 200, 14)
        np.testing.assert_array_equal(a.draws, b.draws)

    def test_init_count_must_match(self):
        target = mixture_target()
        config = PpConfig((0.5, 1.0), proposal_variance=0.5)
        with pytest.raises(ValueError):
            run_alone(pp_chain, target, [np.zeros(1)], config, 10, 0)


class TestWeightSymmetry:
    def test_hidden_neuron_permutation_invariance(self, rng, xor_arch):
        """Swapping the two hidden neurons permutes rows of W1, entries of
        b1 and columns of W2 without changing the likelihood."""
        train, _ = generate_noisy_xor(NoisyXorConfig(train_per_corner=10, test_per_corner=1, seed=0))
        theta = rng.normal(size=9)
        (W1, b1), (W2, b2) = unpack_parameters(xor_arch, theta)
        permuted = np.concatenate(
            [W1[::-1].ravel(), b1[::-1], W2[:, ::-1].ravel(), b2]
        )
        base = log_likelihood(xor_arch, theta, train)
        swapped = log_likelihood(xor_arch, permuted, train)
        assert abs(base - swapped) <= 1e-12

    def test_tanh_sign_flip_invariance(self, rng):
        """For tanh hidden units, negating a unit's in-weights, bias and
        out-weights leaves the output unchanged."""
        arch = Architecture((2, 2, 1), hidden_activation=samplers.mlp.ActivationKind.TANH)
        train, _ = generate_noisy_xor(NoisyXorConfig(train_per_corner=10, test_per_corner=1, seed=0))
        theta = rng.normal(size=9)
        (W1, b1), (W2, b2) = unpack_parameters(arch, theta)
        W1f, b1f, W2f = W1.copy(), b1.copy(), W2.copy()
        W1f[0] *= -1.0
        b1f[0] *= -1.0
        W2f[:, 0] *= -1.0
        flipped = np.concatenate([W1f.ravel(), b1f, W2f.ravel(), b2])
        assert abs(
            log_likelihood(arch, theta, train)
            - log_likelihood(arch, flipped, train)
        ) <= 1e-12


class TestPosteriorRunner:
    def test_dispatch_and_burnin(self, xor_arch):
        train, _ = generate_noisy_xor(NoisyXorConfig(train_per_corner=5, test_per_corner=1, seed=0))
        for cfg, tag in (
            (MhConfig(0.01), "MH"),
            (HmcConfig(3, 0.01), "HMC"),
            (PpConfig((1.0, 1.0), proposal_variance=0.01), "PP"),
        ):
            chain = run_posterior_chain(xor_arch, train, 10.0, cfg, 50, seed=3, burnin=10)
            assert chain.sampler_tag == tag
            assert chain.burnin == 10
            assert chain.draws.shape == (50, 9)

    def test_explicit_init_used(self, xor_arch):
        train, _ = generate_noisy_xor(NoisyXorConfig(train_per_corner=5, test_per_corner=1, seed=0))
        init = np.full(9, 0.25)
        chain = run_posterior_chain(
            xor_arch, train, 10.0, MhConfig(1e-20), 5, seed=3, init=init
        )
        np.testing.assert_allclose(chain.draws[0], init, atol=1e-8)

    def test_only_populations_record_swaps(self, tmp_path, xor_arch):
        """MH chains, the one-rung case of the population loop, carry no swap
        record and save no swap keys; PP chains carry both counts."""
        train, _ = generate_noisy_xor(NoisyXorConfig(train_per_corner=5, test_per_corner=1, seed=0))
        mh = mh_chain(standard_normal_target(2), np.zeros((2, 2)), MhConfig(0.5), 20, [1, 2])
        mh += run_posterior_chains(xor_arch, train, 10.0, MhConfig(0.01), 20, [3, 4])
        pp = run_posterior_chains(xor_arch, train, 10.0, PpConfig((0.5, 1.0), proposal_variance=0.01), 20, [3])
        for i, chain in enumerate(mh + pp):
            path = tmp_path / f"chain_{i}.csv"
            save_chain(chain, path, path.with_suffix(".json"))
            keys = {k for k in json.loads(path.with_suffix(".json").read_text()) if k.startswith("swap_")}
            if chain.sampler_tag == "MH":
                assert chain.swap_accepted is None and chain.swap_attempts is None
                assert keys == set()
            else:
                assert 0 <= chain.swap_accepted <= chain.swap_attempts == 20
                assert keys == {"swap_accepted", "swap_attempts"}

    def test_chain_seed_derivation(self):
        assert derive_chain_seed(12, 0) == 12
        assert derive_chain_seed(12, 3) == 12 ^ 3
        seeds = {derive_chain_seed(7, i) for i in range(10)}
        assert len(seeds) == 10


def chain_bits(chain):
    return (chain.draws.view(np.uint64).tobytes(), chain.seed, chain.accepted, chain.divergences,
            chain.swap_accepted, chain.swap_attempts, chain.burnin)


class TestLockstep:
    """A group of chains stepped together is, chain for chain, the chains
    run alone: every chain keeps its own RNG and accept decision."""

    @pytest.mark.parametrize("dataset,widths,config,iterations", [
        ("xor", (2, 2, 1), MhConfig(0.05), 200),
        ("hawks", (6, 2, 2, 3), PpConfig((0.1, 0.5, 1.0)), 40),
        # chain seed 3 diverges on every iteration
        ("hawks", (6, 2, 2, 3), HmcConfig(5, 0.1), 60),
    ])
    def test_group_equals_chains_run_alone(self, dataset, widths, config, iterations):
        if dataset == "xor":
            train, _ = generate_noisy_xor(NoisyXorConfig(train_per_corner=10, test_per_corner=1, seed=0))
        else:
            train, _ = load_vendored(dataset)
        arch, seeds = Architecture(widths), [1, 0, 3, 2]
        group = run_posterior_chains(arch, train, 10.0, config, iterations, seeds, burnin=5)
        alone = [run_posterior_chain(arch, train, 10.0, config, iterations, s, burnin=5) for s in seeds]
        assert [chain_bits(c) for c in group] == [chain_bits(c) for c in alone]
        assert len({c.runtime_seconds for c in group}) == 1
        if isinstance(config, HmcConfig):
            assert group[2].divergences == iterations

    def test_trajectories_that_turn_non_finite_are_held(self):
        """HMC on a target whose gradient is infinite outside |theta| < 2:
        trajectories fail on some chains at some steps. The group equals the
        chains run alone, and a failed row is held at its start, so no
        non-finite state is ever evaluated."""
        seen = []
        target = held_row_target(seen)
        inits = np.array([[0.0, 0.0], [1.5, -1.5], [0.5, 1.0], [-1.0, 0.2]])
        seeds = [4, 5, 6, 7]
        config = HmcConfig(6, 0.4)
        group = hmc_chain(target, inits, config, 300, seeds)
        assert all(seen)
        alone = [run_alone(hmc_chain, target, init, config, 300, s) for init, s in zip(inits, seeds)]
        assert [chain_bits(c) for c in group] == [chain_bits(c) for c in alone]
        assert all(0 < c.divergences and 0 < c.accepted for c in group)

    def test_group_of_one_returns_a_list(self):
        target = standard_normal_target(2)
        chains = mh_chain(target, np.zeros((1, 2)), MhConfig(0.5), 5, [1])
        assert isinstance(chains, list) and len(chains) == 1 and isinstance(chains[0], Chain)
        for inits in (np.zeros((2, 2)), np.zeros(2)):
            with pytest.raises(ValueError):
                mh_chain(target, inits, MhConfig(0.5), 5, [1])


class TestChainContainer:
    def test_burnin_and_tail_views(self, rng):
        chain = Chain(rng.normal(size=(100, 3)), burnin=20, seed=0, accepted=50, sampler_tag="MH")
        assert chain.post_burnin().shape == (80, 3)
        assert chain.tail(10).shape == (10, 3)
        np.testing.assert_array_equal(chain.tail(10), chain.draws[-10:])

    def test_first_row_keeps_whole_chain_counts(self, rng):
        """A chain tail starting at first_row keeps the whole chain's
        burn-in and acceptance count, and the checks hold on the whole."""
        tail = rng.normal(size=(10, 3))
        chain = Chain(tail, burnin=15, seed=0, accepted=18, sampler_tag="MH", first_row=10)
        assert (len(chain), chain.iterations) == (10, 20)
        assert chain.acceptance_rate == 18 / 20
        np.testing.assert_array_equal(chain.post_burnin(), tail[5:])
        late = Chain(tail, burnin=5, seed=0, accepted=0, sampler_tag="MH", first_row=10)
        np.testing.assert_array_equal(late.post_burnin(), tail)
        for bad in ({"burnin": 20}, {"accepted": 21}, {"first_row": -1}):
            kwargs = {"burnin": 0, "accepted": 0, "first_row": 10, **bad}
            with pytest.raises(ValueError):
                Chain(tail, seed=0, sampler_tag="MH", **kwargs)

    def test_invariants(self, rng):
        with pytest.raises(ValueError):
            Chain(rng.normal(size=(10, 2)), burnin=10, seed=0, accepted=0, sampler_tag="MH")
        with pytest.raises(ValueError):
            Chain(rng.normal(size=(10, 2)), burnin=0, seed=0, accepted=11, sampler_tag="MH")


@pytest.fixture(scope="module")
def xor_data():
    return generate_noisy_xor(NoisyXorConfig(train_per_corner=25, test_per_corner=10, seed=4))


class TestSgdEnsemble:
    def test_zero_learning_rate_keeps_init(self, xor_arch, xor_data):
        train, test = xor_data
        config = SgdConfig(
            epochs=3, batch_size=20, learning_rate=0.0, accept_threshold=0.01,
            ensemble_size=1, max_sessions=5,
        )
        solutions, _ = sgd_ensemble(xor_arch, train, test, config, seed=5)
        expected = np.random.default_rng(5).normal(0.0, math.sqrt(10.0), 9)
        np.testing.assert_array_equal(solutions[0], expected)

    def test_single_full_batch_step_is_gradient_ascent(self, xor_arch, xor_data):
        train, test = xor_data
        config = SgdConfig(
            epochs=1, batch_size=len(train), learning_rate=0.01,
            accept_threshold=0.01, ensemble_size=1, max_sessions=5,
        )
        solutions, _ = sgd_ensemble(xor_arch, train, test, config, seed=6)
        init = np.random.default_rng(6).normal(0.0, math.sqrt(10.0), 9)
        expected = init + 0.01 * Posterior(xor_arch, train, 1.0).grad_log_likelihood(init)
        np.testing.assert_allclose(solutions[0], expected, rtol=1e-12)

    def test_matches_a_posterior_per_minibatch(self, xor_arch, xor_data):
        """Gradients taken by row index on the training-set posterior are
        those of a posterior built on each minibatch, bit for bit."""
        train, test = xor_data
        config = SgdConfig(
            epochs=3, batch_size=16, learning_rate=0.05, accept_threshold=0.01,
            ensemble_size=2, max_sessions=5,
        )
        solutions, _ = sgd_ensemble(xor_arch, train, test, config, seed=8)
        rng = np.random.default_rng(8)
        for solution in solutions:
            theta = samplers.prior_draw(rng, 9, 10.0)
            for _ in range(config.epochs):
                order = rng.permutation(len(train))
                for lo in range(0, len(train), config.batch_size):
                    batch = Posterior(xor_arch, train.subset(order[lo : lo + config.batch_size]), 10.0)
                    theta = theta + config.learning_rate * batch.grad_log_likelihood(theta)
            np.testing.assert_array_equal(solution.view(np.uint64), theta.view(np.uint64))

    def test_session_limit_enforced(self, xor_arch, xor_data):
        train, test = xor_data
        config = SgdConfig(
            epochs=1, batch_size=20, learning_rate=0.0, accept_threshold=0.99,
            ensemble_size=2, max_sessions=3,
        )
        with pytest.raises(RuntimeError, match="gave up"):
            sgd_ensemble(xor_arch, train, test, config, seed=7)
