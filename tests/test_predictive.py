import math

import numpy as np
import pytest

from bayesmlp import ActivationKind, Architecture, LabeledDataset, event_probabilities, parameter_count
from bayesmlp.mlp import DimensionError, forward
from bayesmlp.predictive import (
    PREDICTIVE_CHUNK,
    accuracy,
    classify,
    grid_cell_centers,
    grid_predictive,
    predictive_distribution,
    prior_predictive_accuracy,
    xor_truth_grid,
)


class TestPredictiveDistribution:
    def test_single_draw_equals_forward_probabilities(self, rng, xor_arch):
        theta = rng.normal(size=9)
        x = rng.normal(size=2)
        dist = predictive_distribution(xor_arch, theta[None, :], x)
        np.testing.assert_allclose(dist, event_probabilities(xor_arch, theta, x[None, :])[0], rtol=1e-12)

    def test_two_draw_mean(self, xor_arch):
        """Tail with event probabilities 0.2 and 0.8 averages to 0.5."""
        thetas = np.zeros((2, 9))
        thetas[0, 8] = math.log(0.2 / 0.8)
        thetas[1, 8] = math.log(0.8 / 0.2)
        dist = predictive_distribution(xor_arch, thetas, np.zeros(2))
        np.testing.assert_allclose(dist, [0.5, 0.5], atol=1e-12)

    def test_matches_brute_force_average(self, rng, deep_arch):
        tail = rng.normal(size=(5, parameter_count(deep_arch)))
        x = rng.normal(size=6)
        brute = np.mean(
            [event_probabilities(deep_arch, theta, x[None, :])[0] for theta in tail], axis=0
        )
        np.testing.assert_allclose(
            predictive_distribution(deep_arch, tail, x), brute, atol=1e-12
        )

    def test_distribution_sums_to_one(self, rng, deep_arch):
        tail = rng.normal(size=(20, parameter_count(deep_arch)))
        probs = predictive_distribution(deep_arch, tail, rng.normal(size=(15, 6)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert (probs >= 0).all() and (probs <= 1).all()

    def test_shuffling_tail_changes_nothing(self, rng, xor_arch):
        tail = rng.normal(size=(50, 9))
        x = rng.normal(size=(7, 2))
        base = predictive_distribution(xor_arch, tail, x)
        shuffled = predictive_distribution(xor_arch, tail[rng.permutation(50)], x)
        np.testing.assert_allclose(base, shuffled, atol=1e-12)

    def test_empty_tail_rejected(self, xor_arch):
        with pytest.raises(ValueError):
            predictive_distribution(xor_arch, np.empty((0, 9)), np.zeros(2))

    def test_wrong_tail_width_rejected(self, xor_arch):
        with pytest.raises(DimensionError):
            predictive_distribution(xor_arch, np.zeros((3, 8)), np.zeros(2))

    @pytest.mark.parametrize("draws", [1, PREDICTIVE_CHUNK - 1, PREDICTIVE_CHUNK + 1])
    @pytest.mark.parametrize("widths", [(2, 2, 1), (6, 2, 2, 3)])
    def test_chunks_match_per_draw_loop(self, rng, widths, draws):
        arch = Architecture(widths)
        tail = 2.0 * rng.normal(size=(draws, parameter_count(arch)))
        X = rng.normal(size=(13, arch.input_dim))
        loop = sum(event_probabilities(arch, theta, X) for theta in tail) / draws
        np.testing.assert_allclose(predictive_distribution(arch, tail, X), loop, rtol=0, atol=1e-12)


class TestReusedBuffers:
    """The predictive's per-call buffers keep the bits of allocating passes."""

    @pytest.mark.parametrize(
        "draws", [1, PREDICTIVE_CHUNK - 1, PREDICTIVE_CHUNK + 1, 2 * PREDICTIVE_CHUNK + 1]
    )
    @pytest.mark.parametrize("hidden", ["sigmoid", "tanh", "relu"])
    @pytest.mark.parametrize("widths", [(2, 2, 1), (6, 2, 2, 3)])
    def test_bits_match_chunked_forward_stack(self, rng, widths, hidden, draws):
        arch = Architecture(widths, hidden_activation=ActivationKind(hidden))
        tail = 2.0 * rng.normal(size=(draws, parameter_count(arch)))
        X = rng.normal(size=(13, arch.input_dim))
        total = np.zeros((13, arch.output_dim))
        for lo in range(0, draws, PREDICTIVE_CHUNK):
            total += forward(arch, tail[lo : lo + PREDICTIVE_CHUNK], X).sum(axis=0)
        want = total / draws
        if arch.is_binary:
            want = np.column_stack([1.0 - want[:, 0], want[:, 0]])
        got = predictive_distribution(arch, tail, X)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestClassify:
    def test_binary_threshold_is_inclusive(self, xor_arch):
        assert classify(np.array([0.5, 0.5]), xor_arch) == 1
        assert classify(np.array([0.51, 0.49]), xor_arch) == 0

    def test_multiclass_argmax(self):
        assert classify(np.array([0.2, 0.5, 0.3]), Architecture((2, 2, 3))) == 2

    def test_multiclass_tie_breaks_low(self):
        assert classify(np.array([0.5, 0.5, 0.0]), Architecture((2, 2, 3))) == 1

    def test_binary_and_two_class_softmax_agree(self, rng, xor_arch):
        """Away from the threshold, the sigmoid rule and the argmax rule
        pick the same event."""
        arch2 = Architecture((2, 2, 2))
        theta = rng.normal(size=parameter_count(arch2))
        X = rng.normal(size=(40, 2))
        probs = predictive_distribution(arch2, theta[None, :], X)
        away = np.abs(probs[:, 1] - 0.5) > 1e-6
        binary_rule = classify(probs[away], xor_arch)
        argmax_rule = classify(probs[away], arch2) - 1  # to {0, 1}
        np.testing.assert_array_equal(binary_rule, argmax_rule)


class TestAccuracy:
    def test_perfect_tail(self, xor_arch):
        # bias-only network pushed to the right side for each label
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        theta = np.zeros(9)
        theta[8] = 50.0
        test = LabeledDataset(X, np.array([1, 1]))
        acc, report = accuracy(xor_arch, theta[None, :], test)
        assert acc == 1.0
        assert report.accuracy == 1.0
        np.testing.assert_array_equal(report.predicted, [1, 1])

    def test_uniform_tail_on_balanced_three_classes(self, rng):
        """A constant uniform predictor scores about 1/3 on balanced labels."""
        arch = Architecture((2, 2, 3))
        theta = np.zeros(parameter_count(arch))  # softmax(0) = uniform, argmax -> class 1
        X = rng.normal(size=(300, 2))
        labels = np.tile([1, 2, 3], 100)
        acc, _ = accuracy(arch, theta[None, :], LabeledDataset(X, labels))
        assert acc == pytest.approx(1 / 3, abs=1e-9)

    def test_report_probabilities(self, rng, xor_arch):
        theta = rng.normal(size=(3, 9))
        X = rng.normal(size=(5, 2))
        labels = np.array([0, 1, 0, 1, 1])
        test = LabeledDataset(X, labels)
        _, report = accuracy(xor_arch, theta, test)
        probs = predictive_distribution(xor_arch, theta, X)
        np.testing.assert_allclose(report.prob_true, probs[np.arange(5), labels], atol=1e-12)
        assert ((report.prob_predicted >= 0.5 - 1e-12)).all()


class TestPriorPredictive:
    def test_single_draw_matches_single_network(self, rng, xor_arch):
        X = rng.normal(size=(30, 2))
        test = LabeledDataset(X, rng.integers(0, 2, 30))
        acc = prior_predictive_accuracy(xor_arch, 10.0, test, num_draws=1, seed=9)
        theta = np.random.default_rng(9).normal(0.0, math.sqrt(10.0), (1, 9))
        expected, _ = accuracy(xor_arch, theta, test)
        assert acc == expected

    def test_needs_draws(self, xor_arch, rng):
        test = LabeledDataset(rng.normal(size=(4, 2)), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            prior_predictive_accuracy(xor_arch, 10.0, test, num_draws=0, seed=0)


class TestGrid:
    def test_cell_centers_arithmetic(self):
        centers = grid_cell_centers((-0.5, 1.5), 22)
        assert centers[0] == pytest.approx(-0.5 + 1 / 22, abs=1e-12)
        assert centers[-1] == pytest.approx(1.5 - 1 / 22, abs=1e-12)
        assert len(centers) == 22

    def test_constant_predictor_uniform_grid(self, xor_arch):
        grid = grid_predictive(xor_arch, np.zeros((1, 9)), (-0.5, 1.5), 5)
        np.testing.assert_allclose(grid, 0.5, atol=1e-12)

    def test_matches_pointwise_predictive(self, rng, xor_arch):
        tail = rng.normal(size=(4, 9))
        res = 6
        grid = grid_predictive(xor_arch, tail, (-0.5, 1.5), res)
        centers = grid_cell_centers((-0.5, 1.5), res)
        for i2 in range(res):
            for i1 in range(res):
                point = np.array([centers[i1], centers[i2]])
                expected = predictive_distribution(xor_arch, tail, point)[1]
                assert grid[i2, i1] == pytest.approx(expected, abs=1e-12)

    def test_truth_grid_quadrants(self):
        truth = xor_truth_grid((0.0, 1.0), 2)  # centers at 0.25 and 0.75
        np.testing.assert_array_equal(truth, [[0, 1], [1, 0]])

    def test_wrong_model_shape_rejected(self, deep_arch, rng):
        with pytest.raises(DimensionError):
            grid_predictive(deep_arch, rng.normal(size=(2, 29)), (-0.5, 1.5), 4)
