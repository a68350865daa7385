import math

import numpy as np
import pytest

from bayesmlp import Architecture, NoisyXorConfig, generate_noisy_xor, mlp
from bayesmlp.mlp import log_likelihood_binary, unpack_parameters
from bayesmlp import samplers
from bayesmlp.samplers import (
    Chain,
    HmcConfig,
    MhConfig,
    PpConfig,
    SamplerStartupError,
    SgdConfig,
    Target,
    TemperedFamily,
    derive_chain_seed,
    hmc_chain,
    leapfrog,
    mh_chain,
    pp_chain,
    pp_normalizer,
    pp_swap_pmf,
    run_posterior_chain,
    sgd_ensemble,
)


def standard_normal_target(dim):
    return Target(
        log_density=lambda th: -0.5 * float(th @ th),
        dim=dim,
        gradient=lambda th: -th,
    )


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


class TestMetropolisHastings:
    def test_log_ratio_equals_direct_ratio(self, rng):
        """min{1, exp(delta)} and the log-space rule are the same decision."""
        for delta in rng.normal(scale=3.0, size=200):
            assert min(1.0, math.exp(delta)) == math.exp(min(0.0, delta))

    def test_recovers_standard_normal_moments(self):
        chain = mh_chain(standard_normal_target(2), np.zeros(2), MhConfig(2.4), 50000, seed=8)
        draws = chain.draws[5000:]
        assert np.abs(draws.mean(axis=0)).max() < 0.05
        assert np.abs(np.cov(draws.T) - np.eye(2)).max() < 0.1

    def test_tiny_steps_always_accepted(self):
        chain = mh_chain(standard_normal_target(3), np.ones(3), MhConfig(1e-20), 2000, seed=1)
        assert chain.acceptance_rate > 0.999

    def test_rejected_steps_repeat_state(self):
        # a spike target: nearly every proposal is rejected
        target = Target(lambda th: -1e8 * float(th @ th), 2)
        chain = mh_chain(target, np.zeros(2), MhConfig(1.0), 500, seed=3)
        repeats = (chain.draws[1:] == chain.draws[:-1]).all(axis=1).sum()
        assert repeats == 499 - chain.accepted + 1 or repeats >= 490

    def test_non_finite_init_rejected(self):
        target = Target(lambda th: -math.inf, 2)
        with pytest.raises(SamplerStartupError):
            mh_chain(target, np.zeros(2), MhConfig(1.0), 10, seed=0)

    def test_seed_reproducible(self):
        a = mh_chain(standard_normal_target(3), np.zeros(3), MhConfig(0.5), 300, seed=11)
        b = mh_chain(standard_normal_target(3), np.zeros(3), MhConfig(0.5), 300, seed=11)
        np.testing.assert_array_equal(a.draws, b.draws)
        assert a.accepted == b.accepted

    def test_finite_log_target_along_chain(self):
        # target is -inf outside the unit box; chain must never step there
        def boxed(th):
            return 0.0 if np.abs(th).max() < 1.0 else -math.inf

        chain = mh_chain(Target(boxed, 2), np.zeros(2), MhConfig(4.0), 2000, seed=5)
        assert (np.abs(chain.draws) < 1.0).all()


class TestLeapfrog:
    def test_quarter_rotation(self):
        """Harmonic oscillator: time pi/2 maps (1, 0) near (0, -1)."""
        steps = 157
        theta, r, ok = leapfrog(
            lambda th: -th, np.array([1.0]), np.array([0.0]), steps, math.pi / 2 / steps
        )
        assert ok
        assert abs(theta[0]) < 1e-3
        assert abs(r[0] + 1.0) < 1e-3

    def test_time_reversible(self, rng):
        theta0 = rng.normal(size=4)
        r0 = rng.normal(size=4)
        theta1, r1, _ = leapfrog(lambda th: -th, theta0, r0, 30, 0.11)
        theta2, r2, _ = leapfrog(lambda th: -th, theta1, -r1, 30, 0.11)
        assert np.abs(theta2 - theta0).max() < 1e-8
        assert np.abs(-r2 - r0).max() < 1e-8


class TestHmc:
    def test_tiny_step_size_always_accepted(self):
        chain = hmc_chain(standard_normal_target(3), np.ones(3), HmcConfig(3, 1e-6), 500, seed=2)
        assert chain.acceptance_rate > 0.999

    def test_recovers_standard_normal_moments(self):
        chain = hmc_chain(standard_normal_target(2), np.zeros(2), HmcConfig(8, 0.2), 20000, seed=9)
        draws = chain.draws[2000:]
        assert np.abs(draws.mean(axis=0)).max() < 0.05
        assert np.abs(np.cov(draws.T) - np.eye(2)).max() < 0.1

    def test_divergences_flagged_and_rejected(self):
        # extremely stiff target: unit steps explode the energy error
        target = Target(
            lambda th: -0.5e8 * float(th @ th), 1, gradient=lambda th: -1e8 * th
        )
        chain = hmc_chain(target, np.array([1e-4]), HmcConfig(10, 1.0), 50, seed=4)
        assert chain.divergences > 0
        assert np.isfinite(chain.draws).all()

    def test_requires_gradient(self):
        with pytest.raises(ValueError):
            hmc_chain(Target(lambda th: 0.0, 1), np.zeros(1), HmcConfig(2, 0.1), 5, seed=0)

    def test_seed_reproducible(self):
        a = hmc_chain(standard_normal_target(2), np.zeros(2), HmcConfig(5, 0.3), 200, seed=21)
        b = hmc_chain(standard_normal_target(2), np.zeros(2), HmcConfig(5, 0.3), 200, seed=21)
        np.testing.assert_array_equal(a.draws, b.draws)

    @pytest.mark.parametrize("steps", [1, 5])
    def test_one_model_pass_per_leapfrog_step(self, monkeypatch, xor_arch, steps):
        """An L-step trajectory costs L forward passes: the start gradient is
        carried over and the end value comes from the last gradient pass."""
        train, _ = generate_noisy_xor(NoisyXorConfig(train_per_corner=10, test_per_corner=1, seed=0))
        passes = []
        forward_cached = mlp._forward_cached

        def counting(*args):
            passes.append(1)
            return forward_cached(*args)

        monkeypatch.setattr(mlp, "_forward_cached", counting)
        iterations = 40
        chain = run_posterior_chain(xor_arch, train, 10.0, HmcConfig(steps, 0.5), iterations, seed=5)
        assert chain.divergences == 0 and 0 < chain.accepted < iterations
        assert len(passes) == 1 + steps * iterations

    def test_gradient_only_target_evaluates_density_at_endpoint(self):
        """A target without value_and_grad costs L gradient calls and one
        log-density call per iteration, plus one of each at the start."""
        calls = {"density": 0, "gradient": 0}

        def density(th):
            calls["density"] += 1
            return -0.5 * float(th @ th)

        def gradient(th):
            calls["gradient"] += 1
            return -th

        iterations, steps = 30, 4
        chain = hmc_chain(Target(density, 3, gradient=gradient), np.ones(3), HmcConfig(steps, 0.3),
                          iterations, seed=1)
        assert chain.divergences == 0
        assert calls == {"density": 1 + iterations, "gradient": 1 + steps * iterations}
        fused = Target(density, 3, value_and_grad=lambda th: (-0.5 * float(th @ th), -th))
        np.testing.assert_array_equal(
            chain.draws, hmc_chain(fused, np.ones(3), HmcConfig(steps, 0.3), iterations, seed=1).draws
        )

    def test_carried_gradient_matches_separate_calls(self, xor_arch):
        """The posterior target's one-pass path gives the draws that separate
        log-posterior and gradient calls give, on a run with rejections."""
        train, _ = generate_noisy_xor(NoisyXorConfig(train_per_corner=10, test_per_corner=1, seed=0))
        separate = Target(
            log_density=lambda th: mlp.log_posterior(xor_arch, th, train, 10.0),
            dim=9,
            gradient=lambda th: mlp.grad_log_posterior(xor_arch, th, train, 10.0),
        )
        init = np.random.default_rng(3).normal(0.0, 3.0, 9)
        config = HmcConfig(5, 0.4)
        a = hmc_chain(samplers.posterior_target(xor_arch, train, 10.0), init, config, 150, seed=8)
        b = hmc_chain(separate, init, config, 150, seed=8)
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


def mixture_family():
    """Two well-separated normal modes at +-5 with sd 0.5, flat prior."""

    def log_mix(th):
        x = th[0]
        a = -0.5 * ((x - 5) / 0.5) ** 2
        b = -0.5 * ((x + 5) / 0.5) ** 2
        top = max(a, b)
        return top + math.log(0.5 * math.exp(a - top) + 0.5 * math.exp(b - top))

    return TemperedFamily(log_mix, lambda th: 0.0, 1)


class TestPowerPosterior:
    def test_unit_temperatures_always_swap(self):
        family = mixture_family()
        config = PpConfig((1.0, 1.0), within_chain=MhConfig(0.5))
        _, record = pp_chain(family, [np.array([5.0]), np.array([-5.0])], config, 300, seed=6)
        assert record.swap_accepted == record.swap_attempts == 300

    def test_tempering_crosses_modes_where_mh_cannot(self):
        """The t=1 chain of the population reaches both mixture modes; a
        plain MH chain with the same proposal stays in its starting mode."""
        family = mixture_family()
        lam = 2.25
        config = PpConfig((0.1, 0.5, 1.0), beta=0.5, within_chain=MhConfig(lam))
        chain, _ = pp_chain(family, [np.array([5.0])] * 3, config, 50000, seed=2)
        x = chain.draws[:, 0]
        assert (x > 2).any() and (x < -2).any()

        plain = mh_chain(
            Target(family.log_likelihood, 1), np.array([5.0]), MhConfig(lam), 50000, seed=2
        )
        assert not (plain.draws[:, 0] < -2).any()

    def test_population_record_shape(self):
        family = mixture_family()
        config = PpConfig((0.5, 1.0), within_chain=MhConfig(0.5))
        chain, record = pp_chain(family, [np.zeros(1), np.zeros(1)], config, 100, seed=0)
        assert record.draws.shape == (2, 100, 1)
        np.testing.assert_array_equal(record.draws[-1], chain.draws)
        assert record.temperatures == (0.5, 1.0)

    def test_seed_reproducible(self):
        family = mixture_family()
        config = PpConfig((0.5, 1.0), within_chain=MhConfig(0.5))
        inits = [np.array([1.0]), np.array([2.0])]
        a, _ = pp_chain(family, inits, config, 200, seed=14)
        b, _ = pp_chain(family, inits, config, 200, seed=14)
        np.testing.assert_array_equal(a.draws, b.draws)

    def test_init_count_must_match(self):
        family = mixture_family()
        config = PpConfig((0.5, 1.0), within_chain=MhConfig(0.5))
        with pytest.raises(ValueError):
            pp_chain(family, [np.zeros(1)], config, 10, seed=0)


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
        base = log_likelihood_binary(xor_arch, theta, train)
        swapped = log_likelihood_binary(xor_arch, permuted, train)
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
            log_likelihood_binary(arch, theta, train)
            - log_likelihood_binary(arch, flipped, train)
        ) <= 1e-12


class TestPosteriorRunner:
    def test_dispatch_and_burnin(self, xor_arch):
        train, _ = generate_noisy_xor(NoisyXorConfig(train_per_corner=5, test_per_corner=1, seed=0))
        for cfg, tag in (
            (MhConfig(0.01), "MH"),
            (HmcConfig(3, 0.01), "HMC"),
            (PpConfig((1.0, 1.0), within_chain=MhConfig(0.01)), "PP"),
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

    def test_chain_seed_derivation(self):
        assert derive_chain_seed(12, 0) == 12
        assert derive_chain_seed(12, 3) == 12 ^ 3
        seeds = {derive_chain_seed(7, i) for i in range(10)}
        assert len(seeds) == 10


class TestChainContainer:
    def test_burnin_and_tail_views(self, rng):
        chain = Chain(rng.normal(size=(100, 3)), burnin=20, seed=0, accepted=50, sampler_tag="MH")
        assert chain.post_burnin().shape == (80, 3)
        assert chain.tail(10).shape == (10, 3)
        np.testing.assert_array_equal(chain.tail(10), chain.draws[-10:])

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
        expected = init + 0.01 * samplers.mlp.grad_log_likelihood(xor_arch, init, train)
        np.testing.assert_allclose(solutions[0], expected, rtol=1e-12)

    def test_session_limit_enforced(self, xor_arch, xor_data):
        train, test = xor_data
        config = SgdConfig(
            epochs=1, batch_size=20, learning_rate=0.0, accept_threshold=0.99,
            ensemble_size=2, max_sessions=3,
        )
        with pytest.raises(RuntimeError, match="gave up"):
            sgd_ensemble(xor_arch, train, test, config, seed=7)
