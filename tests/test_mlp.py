import math

import numpy as np
import pytest

from bayesmlp import (
    ActivationKind,
    Architecture,
    DimensionError,
    LabeledDataset,
    event_probabilities,
    forward,
    grad_log_posterior,
    grad_log_prior,
    log_likelihood,
    log_posterior,
    log_prior,
    parameter_count,
)
from bayesmlp.mlp import (
    Posterior,
    _sigmoid,
    _softmax,
    pack_parameters,
    unpack_parameters,
)

from bayesmlp.data import NoisyXorConfig, generate_noisy_xor, load_vendored
from conftest import random_instance


class TestArchitecture:
    def test_requires_hidden_layer(self):
        with pytest.raises(ValueError):
            Architecture((2, 1))

    def test_output_activation_follows_width(self):
        assert Architecture((2, 2, 1)).output_activation is ActivationKind.SIGMOID
        assert Architecture((2, 2, 3)).output_activation is ActivationKind.SOFTMAX

    def test_softmax_only_at_output(self):
        with pytest.raises(ValueError):
            Architecture((2, 2, 1), hidden_activation=ActivationKind.SOFTMAX)
        with pytest.raises(TypeError):  # the output width alone sets it
            Architecture((2, 2, 3), output_activation=ActivationKind.SIGMOID)


class TestParameterCount:
    @pytest.mark.parametrize(
        "widths,expected",
        [((2, 2, 1), 9), ((8, 2, 2, 1), 27), ((6, 2, 2, 3), 29), ((1, 1, 1), 4)],
    )
    def test_known_counts(self, widths, expected):
        assert parameter_count(Architecture(widths)) == expected


def masked_sigmoid(x):
    """Reference piecewise sigmoid: each branch evaluated on its masked subset."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_bits_match_masked_form(self, rng):
        special = np.array(
            [np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 750.0, -750.0, 709.8, -709.8, 36.8, -36.8]
        )
        for x in (special, 20.0 * rng.normal(size=10001), rng.normal(size=(7, 3))):
            np.testing.assert_array_equal(
                _sigmoid(x).view(np.uint64), masked_sigmoid(x).view(np.uint64)
            )


def where_sigmoid(x):
    """Reference two-branch sigmoid, each branch picked with np.where."""
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0, e) / (1.0 + e)


def allocating_softmax(x, axis=-1):
    """Reference softmax with the kernel's per-class max and sum, allocating
    every intermediate."""
    axis %= x.ndim
    lead = (slice(None),) * axis
    m = x[lead + (0,)]
    for i in range(1, x.shape[axis]):
        m = np.maximum(m, x[lead + (i,)])
    ez = np.exp(x - m[lead + (None,)])
    total = ez[lead + (0,)].copy()
    for i in range(1, x.shape[axis]):
        total += ez[lead + (i,)]
    return ez / total[lead + (None,)]


KERNEL_SPECIALS = (np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 800.0, -800.0)


def kernel_inputs(rng):
    """A row-major (m, s, k) and a feature-major (d, k, s) array of random
    values with every special value scattered in, each with the axis its
    softmax runs along."""
    for shape, axis in (((4, 37, 3), -1), ((5, 3, 41), -2)):
        x = 30.0 * rng.normal(size=shape)
        flat = x.reshape(-1)
        spots = rng.choice(flat.size, size=4 * len(KERNEL_SPECIALS), replace=False)
        flat[spots] = np.tile(KERNEL_SPECIALS, 4)
        yield x, axis


def assert_same_bits(got, want):
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestKernelOut:
    """Each kernel gives the reference's bits, NaN signs included, with and
    without out=, and with out aliasing the input."""

    def test_sigmoid(self, rng):
        for x, _ in kernel_inputs(rng):
            want = where_sigmoid(x)
            assert_same_bits(masked_sigmoid(x), want)
            assert_same_bits(_sigmoid(x), want)
            buf = np.empty_like(x)
            assert _sigmoid(x, out=buf) is buf
            assert_same_bits(buf, want)
            alias = x.copy()
            assert _sigmoid(alias, out=alias) is alias
            assert_same_bits(alias, want)

    def test_softmax(self, rng):
        for x, axis in kernel_inputs(rng):
            with np.errstate(invalid="ignore"):
                want = allocating_softmax(x, axis)
                got = _softmax(x, axis)
                buf = np.empty_like(x)
                into = _softmax(x, axis, out=buf)
                alias = x.copy()
                aliased = _softmax(alias, axis, out=alias)
            assert np.isnan(want).any() and into is buf and aliased is alias
            for result in (got, buf, alias):
                assert_same_bits(result, want)


def reduced_softmax(x):
    """Reference softmax: max and sum as reductions over the class axis."""
    z = x - x.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=-1, keepdims=True)


class TestSoftmax:
    @pytest.mark.parametrize("k", range(2, 8))
    def test_bits_match_reduction_form(self, rng, k):
        special = (np.inf, -np.inf, 0.0, -0.0, 800.0, -800.0)
        for shape in ((k,), (1, k), (596, k), (32, 295, k)):
            x = 30.0 * rng.normal(size=shape)
            rows = x.reshape(-1, k)
            if len(rows) > 4:
                rows[0] = np.inf
                rows[1] = -np.inf
                rows[2, 0] = np.inf
                rows[3, -1] = -np.inf
                for r in range(4, len(rows), 3):
                    rows[r, rng.integers(k)] = special[rng.integers(len(special))]
            with np.errstate(invalid="ignore"):
                got, want = _softmax(x), reduced_softmax(x)
                classes_first = _softmax(np.moveaxis(x, -1, 0), axis=0)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            np.testing.assert_array_equal(np.moveaxis(classes_first, 0, -1).view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("k", range(2, 8))
    def test_nan_rows_keep_nan_positions(self, rng, k):
        """A NaN input gives NaN outputs in the same places; every other
        output keeps its bits (a NaN's sign and payload may differ)."""
        x = rng.normal(size=(6, 5, k))
        x[0, 0, 0] = np.nan
        x[1, 2, k - 1] = -np.nan
        x[2, 4, :] = np.nan
        x[3, 1, 0] = np.nan
        x[3, 1, 1] = np.inf
        with np.errstate(invalid="ignore"):
            got, want = _softmax(x), reduced_softmax(x)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        finite = ~np.isnan(want)
        np.testing.assert_array_equal(got[finite].view(np.uint64), want[finite].view(np.uint64))

    @pytest.mark.parametrize("k", [8, 11, 40])
    def test_wide_rows_match_within_rounding(self, rng, k):
        """From 8 classes numpy's reduction sums pairwise, so only rounding
        separates the two forms."""
        x = 30.0 * rng.normal(size=(9, 7, k))
        np.testing.assert_allclose(_softmax(x), reduced_softmax(x), rtol=1e-13, atol=1e-300)


class TestForward:
    def test_zero_parameters_sigmoid(self, xor_arch):
        out = forward(xor_arch, np.zeros(9), np.array([0.7, -1.2]))
        np.testing.assert_allclose(out, [0.5])

    def test_zero_parameters_softmax(self):
        arch = Architecture((2, 2, 3))
        out = forward(arch, np.zeros(parameter_count(arch)), np.array([1.0, 2.0]))
        np.testing.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3])

    def test_matches_hand_evaluation(self, rng, xor_arch):
        """Layer-by-layer arithmetic done independently of the implementation."""
        theta = rng.normal(size=9)
        x = rng.normal(size=2)
        W1 = theta[0:4].reshape(2, 2)
        b1 = theta[4:6]
        W2 = theta[6:8].reshape(1, 2)
        b2 = theta[8:9]
        h1 = 1.0 / (1.0 + np.exp(-(W1 @ x + b1)))
        expected = 1.0 / (1.0 + np.exp(-(W2 @ h1 + b2)))
        np.testing.assert_allclose(forward(xor_arch, theta, x), expected, rtol=1e-12)

    def test_batch_matches_single(self, rng, deep_arch):
        theta = rng.normal(size=parameter_count(deep_arch))
        X = rng.normal(size=(5, 6))
        batch = forward(deep_arch, theta, X)
        for i in range(5):
            np.testing.assert_allclose(batch[i], forward(deep_arch, theta, X[i]), rtol=1e-12)

    def test_rejects_wrong_theta_length(self, xor_arch):
        with pytest.raises(DimensionError):
            forward(xor_arch, np.zeros(8), np.zeros(2))

    def test_rejects_wrong_input_width(self, xor_arch):
        with pytest.raises(DimensionError):
            forward(xor_arch, np.zeros(9), np.zeros(3))

    def test_softmax_rows_sum_to_one(self, rng, deep_arch):
        theta = 5.0 * rng.normal(size=parameter_count(deep_arch))
        out = forward(deep_arch, theta, rng.normal(size=(20, 6)))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert (out > 0).all() and (out < 1).all()

    def test_overflow_safe_softmax(self):
        arch = Architecture((2, 2, 3), hidden_activation=ActivationKind.IDENTITY)
        theta = np.zeros(parameter_count(arch))
        theta[0] = 500.0  # huge logit through the identity hidden layer
        theta[6] = 1000.0
        out = forward(arch, theta, np.array([1.0, 0.0]))
        assert np.isfinite(out).all()

    def test_stack_matches_single(self, rng):
        """Row i of a stack equals the call on thetas[i] bit for bit, for
        forward and event_probabilities, on one point, a batch and a stack."""
        archs = [
            Architecture((6, 2, 2, 3)),
            Architecture((2, 2, 1)),
            Architecture((3, 4, 1), hidden_activation=ActivationKind.TANH),
            Architecture((3, 4, 3), hidden_activation=ActivationKind.RELU),
        ]
        for arch in archs:
            thetas = 3.0 * rng.normal(size=(4, parameter_count(arch)))
            X = rng.normal(size=(7, arch.input_dim))
            k = arch.output_dim
            for x, shape in ((X[2], (4, k)), (X, (4, 7, k))):
                stacked = forward(arch, thetas, x)
                assert stacked.shape == shape
                for theta, out in zip(thetas, stacked):
                    assert_same_bits(out, forward(arch, theta, x))
            assert forward(arch, thetas[0], X[2]).shape == (k,)
            for x, shape in ((X[2], (4, 1, max(k, 2))), (X, (4, 7, max(k, 2)))):
                probs = event_probabilities(arch, thetas, x)
                assert probs.shape == shape
                for theta, out in zip(thetas, probs):
                    assert_same_bits(out, event_probabilities(arch, theta, x))

    def test_stack_rejects_wrong_shape(self, xor_arch):
        for thetas in (np.zeros(8), np.zeros((2, 8)), np.zeros((1, 2, 9)), np.zeros(())):
            with pytest.raises(DimensionError):
                forward(xor_arch, thetas, np.zeros((1, 2)))
            with pytest.raises(DimensionError):
                event_probabilities(xor_arch, thetas, np.zeros((1, 2)))

    def test_binary_event_probabilities_sum_exactly(self, rng, xor_arch):
        theta = rng.normal(size=9)
        probs = event_probabilities(xor_arch, theta, rng.normal(size=(10, 2)))
        np.testing.assert_array_equal(probs.sum(axis=1), np.ones(10))


class TestLogLikelihoodBinary:
    def test_single_point_half(self, xor_arch):
        ds = LabeledDataset(np.zeros((1, 2)), np.array([1]))
        ll = log_likelihood(xor_arch, np.zeros(9), ds)
        assert ll == pytest.approx(math.log(0.5), abs=1e-12)

    def test_two_point_formula(self, rng, xor_arch):
        """log 0.9 + log 0.8 for event probabilities (0.9, 0.2), labels (1, 0)."""
        # pick thetas whose forward outputs are exactly the desired probabilities
        # by inverting the sigmoid on a zero-hidden-weight network
        theta = np.zeros(9)
        ds = LabeledDataset(np.zeros((2, 2)), np.array([1, 0]))
        for target_p, label in ((0.9, 1), (0.2, 0)):
            theta[8] = math.log(target_p / (1 - target_p))  # output bias sets h
            single = LabeledDataset(np.zeros((1, 2)), np.array([label]))
            expected = math.log(target_p if label == 1 else 1 - target_p)
            assert log_likelihood(xor_arch, theta, single) == pytest.approx(expected, abs=1e-12)

    def test_matches_per_sample_oracle(self, rng, xor_arch):
        theta, ds = random_instance(rng, xor_arch, samples=10)
        total = 0.0
        for x, y in zip(ds.features, ds.labels):
            h = float(forward(xor_arch, theta, x)[0])
            total += math.log(h) if y == 1 else math.log(1 - h)
        assert log_likelihood(xor_arch, theta, ds) == pytest.approx(total, rel=1e-12)

    def test_never_infinite(self, xor_arch):
        """Saturated probabilities are clamped, not propagated to -inf."""
        theta = np.zeros(9)
        theta[8] = 1000.0  # h = 1 to machine precision
        ds = LabeledDataset(np.zeros((1, 2)), np.array([0]))
        ll = log_likelihood(xor_arch, theta, ds)
        assert math.isfinite(ll)
        assert ll == pytest.approx(math.log(1e-12), rel=1e-6)

    def test_permutation_invariant(self, rng, xor_arch):
        theta, ds = random_instance(rng, xor_arch, samples=12)
        perm = rng.permutation(12)
        shuffled = LabeledDataset(ds.features[perm], ds.labels[perm])
        assert log_likelihood(xor_arch, theta, ds) == pytest.approx(
            log_likelihood(xor_arch, theta, shuffled), rel=1e-12
        )

    def test_label_range_enforced(self, xor_arch):
        ds = LabeledDataset(np.zeros((1, 2)), np.array([2]))
        with pytest.raises(ValueError):
            log_likelihood(xor_arch, np.zeros(9), ds)


class TestLogLikelihoodMulticlass:
    def test_uniform_softmax(self):
        arch = Architecture((2, 2, 3))
        ds = LabeledDataset(np.zeros((1, 2)), np.array([2]))
        ll = log_likelihood(arch, np.zeros(parameter_count(arch)), ds)
        assert ll == pytest.approx(math.log(1 / 3), abs=1e-12)

    def test_two_class_softmax_equals_sigmoid_on_same_probs(self, rng):
        """A 2-output softmax and a sigmoid model with identical event
        probabilities give the same log-likelihood."""
        arch2 = Architecture((2, 2, 2))
        theta2 = rng.normal(size=parameter_count(arch2))
        X = rng.normal(size=(8, 2))
        y12 = rng.integers(1, 3, size=8)  # softmax labels in {1, 2}
        probs = forward(arch2, theta2, X)  # class-order (1, 2)
        ll_soft = log_likelihood(arch2, theta2, LabeledDataset(X, y12))
        manual = sum(math.log(probs[i, y12[i] - 1]) for i in range(8))
        assert ll_soft == pytest.approx(manual, rel=1e-12)

    def test_matches_per_sample_oracle(self, rng, deep_arch):
        theta, ds = random_instance(rng, deep_arch, samples=10)
        total = 0.0
        for x, y in zip(ds.features, ds.labels):
            total += math.log(forward(deep_arch, theta, x)[y - 1])
        assert log_likelihood(deep_arch, theta, ds) == pytest.approx(total, rel=1e-12)

    def test_nonpositive(self, rng, deep_arch):
        theta, ds = random_instance(rng, deep_arch, samples=30)
        assert log_likelihood(deep_arch, theta, ds) <= 0.0


class TestLogPrior:
    def test_zero_vector_scalar(self):
        expected = -0.5 * math.log(20 * math.pi)
        assert log_prior(np.zeros(1), 10.0) == pytest.approx(expected, abs=1e-12)

    def test_ones_vector_closed_form(self):
        expected = -4.5 * math.log(20 * math.pi) - 9 / 20
        assert log_prior(np.ones(9), 10.0) == pytest.approx(expected, abs=1e-12)

    def test_decreases_away_from_mode(self, rng):
        theta = rng.normal(size=5)
        base = log_prior(theta, 10.0)
        assert log_prior(theta + np.sign(theta) * 0.5, 10.0) < base

    def test_stack_rows_match_single_vectors(self, rng):
        """An (m, n) stack gives each row's own value, bit for bit."""
        thetas = rng.normal(size=(4, 9))
        values = log_prior(thetas, 10.0)
        assert values.shape == (4,)
        np.testing.assert_array_equal(bits(values), bits([log_prior(theta, 10.0) for theta in thetas]))

    def test_positive_variance_required(self):
        for sigma2 in (0.0, float("nan")):
            with pytest.raises(ValueError):
                log_prior(np.zeros(2), sigma2)
            with pytest.raises(ValueError):
                log_prior(np.zeros((3, 2)), sigma2)
            with pytest.raises(ValueError):
                grad_log_prior(np.zeros(2), sigma2)


class TestLogPosterior:
    def test_sum_of_parts(self, rng, xor_arch):
        theta, ds = random_instance(rng, xor_arch)
        ll = log_likelihood(xor_arch, theta, ds)
        assert log_posterior(xor_arch, theta, ds, 10.0) == pytest.approx(
            ll + log_prior(theta, 10.0), rel=1e-12
        )

    def test_empty_dataset_is_prior(self, rng, xor_arch):
        theta = rng.normal(size=9)
        empty = LabeledDataset(np.empty((0, 2)), np.empty(0, dtype=int))
        assert log_posterior(xor_arch, theta, empty, 10.0) == pytest.approx(
            log_prior(theta, 10.0), rel=1e-12
        )

    def test_ratio_free_of_prior_constant(self, rng, xor_arch):
        """Posterior log-ratios only involve the quadratic prior term."""
        theta_a, ds = random_instance(rng, xor_arch)
        theta_b = rng.normal(size=9)
        ratio = log_posterior(xor_arch, theta_a, ds, 10.0) - log_posterior(
            xor_arch, theta_b, ds, 10.0
        )
        unnormalized = (
            log_likelihood(xor_arch, theta_a, ds)
            - (theta_a @ theta_a) / 20
            - log_likelihood(xor_arch, theta_b, ds)
            + (theta_b @ theta_b) / 20
        )
        assert ratio == pytest.approx(unnormalized, rel=1e-10)


POSTERIOR_CASES = [
    ((2, 2, 1), ActivationKind.SIGMOID, 12),
    ((6, 2, 2, 3), ActivationKind.SIGMOID, 12),
    ((3, 4, 1), ActivationKind.TANH, 10),
    ((3, 4, 3), ActivationKind.TANH, 10),
    ((3, 4, 1), ActivationKind.RELU, 10),
    ((3, 4, 3), ActivationKind.RELU, 10),
    ((6, 2, 2, 3), ActivationKind.SIGMOID, 0),
    ((2, 2, 1), ActivationKind.SIGMOID, 0),
]


class TestPosterior:
    @pytest.mark.parametrize("widths,hidden,samples", POSTERIOR_CASES)
    def test_bits_match_module_functions(self, rng, widths, hidden, samples):
        arch = Architecture(widths, hidden_activation=hidden)
        theta, ds = random_instance(rng, arch, samples=samples, theta_scale=2.0)
        post = Posterior(arch, ds, 10.0)
        value, grad = post.value_and_grad(theta)
        assert value == log_posterior(arch, theta, ds, 10.0)
        np.testing.assert_array_equal(grad.view(np.uint64), grad_log_posterior(arch, theta, ds, 10.0).view(np.uint64))
        assert post.log_prior(theta) == log_prior(theta, 10.0)
        assert post.log_likelihood(theta) + post.log_prior(theta) == value
        np.testing.assert_array_equal(
            post.grad_log_likelihood(theta), Posterior(arch, ds, 1.0).grad_log_likelihood(theta)
        )

    def test_labels_checked_when_built(self, xor_arch):
        bad = LabeledDataset(np.zeros((2, 2)), np.array([0, 2]))
        with pytest.raises(ValueError):
            Posterior(xor_arch, bad, 10.0)

    def test_rejects_bad_inputs(self, rng, xor_arch):
        _, ds = random_instance(rng, xor_arch)
        for sigma2 in (0.0, float("nan")):
            with pytest.raises(ValueError):
                Posterior(xor_arch, ds, sigma2)
        with pytest.raises(DimensionError):
            Posterior(Architecture((3, 2, 1)), ds, 10.0)
        post = Posterior(xor_arch, ds, 10.0)
        for method in (post.value_and_grad, post.log_likelihood, post.grad_log_likelihood):
            with pytest.raises(DimensionError):
                method(np.zeros(8))


def stack_case(rng, name):
    """(posterior, m = 4 parameter vectors) for one stacked-evaluation case."""
    if name == "xor":
        train, _ = generate_noisy_xor(NoisyXorConfig(train_per_corner=25, test_per_corner=1, seed=0))
        arch = Architecture((2, 2, 1))
    elif name == "hawks":
        train, _ = load_vendored("hawks")
        arch = Architecture((6, 2, 2, 3))
    elif name == "tanh":
        train, _ = load_vendored("penguins")
        arch = Architecture((train.features.shape[1], 3, 3), hidden_activation=ActivationKind.TANH)
    elif name == "relu":
        train, _ = load_vendored("hawks")
        arch = Architecture((6, 4, 3), hidden_activation=ActivationKind.RELU)
    elif name == "identity":
        train, _ = generate_noisy_xor(NoisyXorConfig(train_per_corner=25, test_per_corner=1, seed=0))
        arch = Architecture((2, 3, 1), hidden_activation=ActivationKind.IDENTITY)
    else:
        arch, theta, train = clamped_instance(rng, 1 if name == "clamped-binary" else 3)
        thetas = theta + 0.01 * rng.normal(size=(4, theta.size))
        return Posterior(arch, train, 10.0), thetas
    return Posterior(arch, train, 10.0), rng.normal(0.0, 3.0, size=(4, parameter_count(arch)))


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class TestStackedPosterior:
    """Every method takes an (m, n) stack and returns, row for row, the bits
    of the single-vector call: the lockstep samplers rely on it."""

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize(
        "name", ["xor", "hawks", "tanh", "relu", "identity", "clamped-binary", "clamped-multiclass"]
    )
    def test_rows_match_single_calls(self, rng, name, m):
        post, thetas = stack_case(rng, name)
        thetas = thetas[:m]
        value, grad = post.value_and_grad(thetas)
        ll, lp = post.log_likelihood(thetas), post.log_prior(thetas)
        grad_ll = post.grad_log_likelihood(thetas)
        assert value.shape == ll.shape == lp.shape == (m,)
        assert grad.shape == grad_ll.shape == thetas.shape
        for i, theta in enumerate(thetas):
            value_i, grad_i = post.value_and_grad(theta)
            assert bits(value[i]) == bits(value_i)
            np.testing.assert_array_equal(bits(grad[i]), bits(grad_i))
            assert bits(ll[i]) == bits(post.log_likelihood(theta))
            assert bits(lp[i]) == bits(post.log_prior(theta))
            np.testing.assert_array_equal(bits(grad_ll[i]), bits(post.grad_log_likelihood(theta)))

    @pytest.mark.parametrize("widths", [(2, 2, 1), (6, 2, 2, 3)])
    def test_empty_stack(self, rng, widths):
        """A stack of no vectors has no values and no gradient rows."""
        arch = Architecture(widths)
        _, ds = random_instance(rng, arch, samples=5)
        post = Posterior(arch, ds, 10.0)
        empty = np.empty((0, parameter_count(arch)))
        value, grad = post.value_and_grad(empty)
        assert value.shape == post.log_likelihood(empty).shape == (0,)
        assert grad.shape == post.grad(empty).shape == post.grad_log_likelihood(empty).shape == empty.shape

    def test_axis_sum_keeps_row_sum_bits(self, rng):
        """The log-likelihood sums its (m, s) terms over the last axis in one
        call. Each row is contiguous, so numpy runs a row's 1-D pairwise sum
        on it, past its 8192-element blocks too."""
        sizes = [1, 7, 8, 9, 127, 128, 129, 500, 596, 8191, 8192, 8193]
        shapes = [(m, s) for m in (1, 2, 3, 4, 40, 64) for s in sizes]
        shapes += [(m, s) for m in (1, 3) for s in (16383, 16384, 16385, 100003)]
        for m, s in shapes:
            terms = np.log(rng.uniform(size=(m, s))) * rng.uniform(0.5, 2.0, size=(m, 1))
            want = np.array([np.add.reduce(row) for row in terms])
            np.testing.assert_array_equal(bits(np.add.reduce(terms, axis=-1)), bits(want))

    @pytest.mark.parametrize("rows", [8191, 8193])
    def test_long_rows_match_single_calls(self, rng, rows):
        train, _ = generate_noisy_xor(NoisyXorConfig(train_per_corner=2049, test_per_corner=1, seed=0))
        post = Posterior(Architecture((2, 2, 1)), train, 10.0).subset(np.arange(rows))
        thetas = rng.normal(0.0, 3.0, size=(3, 9))
        ll = post.log_likelihood(thetas)
        for i, theta in enumerate(thetas):
            assert bits(ll[i]) == bits(post.log_likelihood(theta))

    def test_rejects_bad_stack_shape(self, rng, xor_arch):
        _, ds = random_instance(rng, xor_arch)
        post = Posterior(xor_arch, ds, 10.0)
        for shape in ((2, 8), (2, 2, 9)):
            for method in (post.value_and_grad, post.log_likelihood, post.grad_log_likelihood):
                with pytest.raises(DimensionError):
                    method(np.zeros(shape))

    @pytest.mark.parametrize("widths", [(2, 2, 1), (6, 2, 2, 3)])
    def test_subset_matches_posterior_built_on_rows(self, rng, widths):
        """subset(rows) is the posterior on those rows, in their order."""
        arch = Architecture(widths)
        theta, ds = random_instance(rng, arch, samples=20)
        rows = rng.permutation(20)[:7]
        sub = Posterior(arch, ds, 10.0).subset(rows)
        direct = Posterior(arch, ds.subset(rows), 10.0)
        assert bits(sub.log_likelihood(theta)) == bits(direct.log_likelihood(theta))
        np.testing.assert_array_equal(bits(sub.grad_log_likelihood(theta)), bits(direct.grad_log_likelihood(theta)))
        thetas = rng.normal(size=(3, theta.size))
        for got, want in zip(sub.value_and_grad(thetas), direct.value_and_grad(thetas)):
            np.testing.assert_array_equal(bits(got), bits(want))


WORKSPACE_CASES = [
    ((2, 2, 1), ActivationKind.SIGMOID),
    ((6, 2, 2, 3), ActivationKind.SIGMOID),
    ((3, 4, 1), ActivationKind.TANH),
    ((3, 4, 3), ActivationKind.TANH),
    ((3, 4, 1), ActivationKind.RELU),
    ((3, 4, 3), ActivationKind.RELU),
]


def evaluations(post, theta):
    """The bits of every evaluation of post at theta, each a fresh result."""
    value, grad = post.value_and_grad(theta)
    results = (value, grad, post.grad(theta), post.log_likelihood(theta),
               post.grad_log_likelihood(theta), post.log_prior(theta))
    return [bits(r).tobytes() for r in results]


class TestWorkspace:
    """A posterior evaluates in one workspace per stack size, which no call
    leaks into another: every result equals, bit for bit, that of a freshly
    built posterior."""

    @pytest.mark.parametrize("widths,hidden", WORKSPACE_CASES)
    def test_interleaved_stack_sizes(self, rng, widths, hidden):
        arch = Architecture(widths, hidden_activation=hidden)
        _, ds = random_instance(rng, arch, samples=15, theta_scale=2.0)
        post = Posterior(arch, ds, 10.0)
        n = parameter_count(arch)
        for m in (4, 1, 2, 1, 4, 2, 4):
            thetas = rng.normal(0.0, 2.0, size=(m, n))
            for theta in (thetas, thetas[0]):
                assert evaluations(post, theta) == evaluations(Posterior(arch, ds, 10.0), theta)

    @pytest.mark.parametrize("widths,hidden", WORKSPACE_CASES)
    @pytest.mark.parametrize("size", [6, 15])
    def test_subset_and_parent_alternate(self, rng, widths, hidden, size):
        """A subset of all rows, reordered, shares its parent's workspaces."""
        arch = Architecture(widths, hidden_activation=hidden)
        _, ds = random_instance(rng, arch, samples=15, theta_scale=2.0)
        rows = rng.permutation(15)[:size]
        parent = Posterior(arch, ds, 10.0)
        sub = parent.subset(rows)
        for m in (2, 2, 1, 4):
            thetas = rng.normal(0.0, 2.0, size=(m, parameter_count(arch)))
            for post, data in ((parent, ds), (sub, ds.subset(rows)), (parent, ds)):
                assert evaluations(post, thetas) == evaluations(Posterior(arch, data, 10.0), thetas)

    @pytest.mark.parametrize("widths,hidden", WORKSPACE_CASES)
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_returned_arrays_outlive_the_next_call(self, rng, widths, hidden, m):
        arch = Architecture(widths, hidden_activation=hidden)
        _, ds = random_instance(rng, arch, samples=15, theta_scale=2.0)
        post = Posterior(arch, ds, 10.0)
        first, second = rng.normal(0.0, 2.0, size=(2, m, parameter_count(arch)))
        if m == 1:
            first, second = first[0], second[0]
        value, grad = post.value_and_grad(first)
        kept = [post.grad(first), post.grad_log_likelihood(first), post.log_likelihood(first)]
        want = [bits(r).tobytes() for r in [value, grad] + kept]
        evaluations(post, second)
        assert [bits(r).tobytes() for r in [value, grad] + kept] == want


def clamped_instance(rng, classes):
    """(arch, theta, dataset) with 4 of 12 rows in the clamped region.

    Output logits near 40 (s(x1) - s(x2)) times (1, -1, 0) put the first
    four rows deep in the clamped region, each with a label whose residual
    is about 1, and the other eight well inside it.
    """
    arch = Architecture((2, 3, classes))
    W2 = np.array([[40.0, -40.0, 0.0], [-40.0, 40.0, 0.0], [0.0, 0.0, 0.0]])[:classes]
    layers = [([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], np.zeros(3)), (W2, np.zeros(classes))]
    theta = pack_parameters(arch, layers) + 0.1 * rng.normal(size=parameter_count(arch))
    X = np.vstack([[[5.0, -5.0]] * 2 + [[-5.0, 5.0]] * 2, 0.1 * rng.normal(size=(8, 2))])
    if classes == 1:
        y = np.concatenate([[0, 0, 1, 1], rng.integers(0, 2, size=8)])
        p = forward(arch, theta, X)[:, 0]
    else:
        y = np.concatenate([[2, 3, 1, 3], rng.integers(1, 4, size=8)])
        p = forward(arch, theta, X)[np.arange(12), y - 1]
    assert ((p < 1e-15) | (p > 1.0 - 1e-15))[:4].all()
    assert ((p > 1e-3) & (p < 1.0 - 1e-3))[4:].all()
    return arch, theta, LabeledDataset(X, y)


def finite_difference_gradient(func, theta, step=1e-5):
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        plus, minus = theta.copy(), theta.copy()
        plus[i] += step
        minus[i] -= step
        grad[i] = (func(plus) - func(minus)) / (2 * step)
    return grad


class TestGradients:
    def test_prior_gradient_closed_form(self, rng):
        theta = rng.normal(size=7)
        np.testing.assert_allclose(grad_log_prior(theta, 10.0), -theta / 10.0, rtol=1e-12)

    def test_zero_at_prior_mode_with_empty_data(self, xor_arch):
        empty = LabeledDataset(np.empty((0, 2)), np.empty(0, dtype=int))
        np.testing.assert_array_equal(
            grad_log_posterior(xor_arch, np.zeros(9), empty, 10.0), np.zeros(9)
        )

    @pytest.mark.parametrize("widths", [(2, 2, 1), (6, 2, 2, 3)])
    def test_matches_finite_differences(self, rng, widths):
        arch = Architecture(widths)
        for _ in range(3):
            theta, ds = random_instance(rng, arch, samples=9)
            grad = grad_log_posterior(arch, theta, ds, 10.0)
            fd = finite_difference_gradient(
                lambda th: log_posterior(arch, th, ds, 10.0), theta
            )
            rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1.0)
            assert rel.max() < 1e-5

    @pytest.mark.parametrize(
        "hidden",
        [ActivationKind.TANH, ActivationKind.RELU, ActivationKind.IDENTITY],
    )
    def test_gradient_for_other_hidden_activations(self, rng, hidden):
        arch = Architecture((3, 4, 2), hidden_activation=hidden)
        theta, ds = random_instance(rng, arch, samples=8)
        grad = grad_log_posterior(arch, theta, ds, 10.0)
        fd = finite_difference_gradient(lambda th: log_posterior(arch, th, ds, 10.0), theta)
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1.0)
        assert rel.max() < 1e-5

    @pytest.mark.parametrize("classes", [1, 3])
    @pytest.mark.parametrize("hidden", [ActivationKind.TANH, ActivationKind.RELU])
    def test_stack_gradient_matches_finite_differences(self, rng, hidden, classes):
        """Each row of a stacked gradient matches central differences of
        the stacked log-posterior, every row's coordinate i moved at once."""
        arch = Architecture((3, 4, classes), hidden_activation=hidden)
        _, ds = random_instance(rng, arch, samples=9)
        post = Posterior(arch, ds, 10.0)
        thetas = rng.normal(size=(3, parameter_count(arch)))
        _, grad = post.value_and_grad(thetas)
        fd = np.zeros_like(thetas)
        for i in range(thetas.shape[1]):
            plus, minus = thetas.copy(), thetas.copy()
            plus[:, i] += 1e-5
            minus[:, i] -= 1e-5
            values = [post.log_likelihood(th) + post.log_prior(th) for th in (plus, minus)]
            fd[:, i] = (values[0] - values[1]) / 2e-5
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1.0)
        assert rel.max() < 1e-5

    @pytest.mark.parametrize("classes", [1, 3])
    def test_clamped_rows_add_no_gradient(self, rng, classes):
        """A row whose event probability is clamped adds a constant to the
        log-likelihood, so the gradient still matches finite differences."""
        arch, theta, data = clamped_instance(rng, classes)
        post = Posterior(arch, data, 10.0)
        _, grad = post.value_and_grad(theta)
        fd = finite_difference_gradient(lambda th: post.log_likelihood(th) + post.log_prior(th), theta)
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1.0)
        assert rel.max() < 1e-5


class TestParameterLayout:
    def test_pack_unpack_round_trip(self, rng, deep_arch):
        theta = rng.normal(size=parameter_count(deep_arch))
        np.testing.assert_array_equal(
            pack_parameters(deep_arch, unpack_parameters(deep_arch, theta)), theta
        )

    def test_row_wise_weight_layout(self, xor_arch):
        theta = np.arange(9.0)
        (W1, b1), (W2, b2) = unpack_parameters(xor_arch, theta)
        np.testing.assert_array_equal(W1, [[0.0, 1.0], [2.0, 3.0]])
        np.testing.assert_array_equal(b1, [4.0, 5.0])
        np.testing.assert_array_equal(W2, [[6.0, 7.0]])
        np.testing.assert_array_equal(b2, [8.0])
