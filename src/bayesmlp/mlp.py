"""Multilayer perceptron model with classification log-likelihoods,
Gaussian log-prior, unnormalized log-posterior and exact gradients.

Parameters live in a single flat vector. For each layer j the weight
matrix W_j (shape k_j x k_{j-1}) is stored row-wise, followed by the bias
vector b_j, so the vector length is sum_j k_j (k_{j-1} + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import LabeledDataset

#: Event probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] before logs,
#: keeping log-targets finite for the samplers.
PROB_EPS = 1e-12


class DimensionError(ValueError):
    """An input is inconsistent with the declared architecture."""


class ActivationKind(Enum):
    SIGMOID = "sigmoid"
    SOFTMAX = "softmax"
    IDENTITY = "identity"
    TANH = "tanh"
    RELU = "relu"


@dataclass(frozen=True)
class Architecture:
    """Layer widths plus hidden/output activation kinds.

    The output activation is tied to the task: sigmoid for a single
    output neuron (binary classification), softmax for two or more
    (multiclass). Omitting ``output_activation`` picks the right one.
    """

    layer_widths: tuple[int, ...]
    hidden_activation: ActivationKind = ActivationKind.SIGMOID
    output_activation: ActivationKind | None = None  # resolved in __post_init__

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 3:
            raise ValueError("need at least input, one hidden and output layer")
        if any(w < 1 for w in self.layer_widths):
            raise ValueError("all layer widths must be >= 1")
        if self.hidden_activation is ActivationKind.SOFTMAX:
            raise ValueError("softmax is permitted only at the output layer")
        required = (
            ActivationKind.SIGMOID if self.output_dim == 1 else ActivationKind.SOFTMAX
        )
        if self.output_activation is None:
            object.__setattr__(self, "output_activation", required)
        elif self.output_activation is not required:
            raise ValueError(
                f"output layer of width {self.output_dim} requires "
                f"{required.value}, got {self.output_activation.value}"
            )

    @property
    def input_dim(self) -> int:
        return self.layer_widths[0]

    @property
    def output_dim(self) -> int:
        return self.layer_widths[-1]

    @property
    def num_layers(self) -> int:
        """Number of weighted layers (hidden layers plus output layer)."""
        return len(self.layer_widths) - 1

    @property
    def is_binary(self) -> bool:
        return self.output_dim == 1


def parameter_count(arch: Architecture) -> int:
    """Length of the flat parameter vector: sum_j k_j (k_{j-1} + 1)."""
    widths = arch.layer_widths
    return sum(widths[j] * (widths[j - 1] + 1) for j in range(1, len(widths)))


def unpack_parameters(arch: Architecture, theta) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a flat parameter vector into per-layer (W, b) views."""
    theta = np.asarray(theta, dtype=float)
    n = parameter_count(arch)
    if theta.shape != (n,):
        raise DimensionError(
            f"parameter vector of length {theta.shape} does not match "
            f"expected ({n},) for architecture {arch.layer_widths}"
        )
    return _layer_views(arch, theta)


def _layer_views(arch, theta):
    """Per-layer (W, b) views of the last axis of theta; leading axes carry over."""
    lead = theta.shape[:-1]
    layers = []
    offset = 0
    widths = arch.layer_widths
    for j in range(1, len(widths)):
        rows, cols = widths[j], widths[j - 1]
        W = theta[..., offset : offset + rows * cols].reshape(lead + (rows, cols))
        offset += rows * cols
        b = theta[..., offset : offset + rows]
        offset += rows
        layers.append((W, b))
    return layers


def pack_parameters(arch: Architecture, layers) -> np.ndarray:
    """Inverse of unpack_parameters."""
    parts = []
    for W, b in layers:
        parts.append(np.asarray(W, dtype=float).ravel())
        parts.append(np.asarray(b, dtype=float).ravel())
    theta = np.concatenate(parts)
    if theta.shape != (parameter_count(arch),):
        raise DimensionError("layer shapes do not match architecture")
    return theta


def _sigmoid(x):
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) otherwise, so exp
    # never overflows. NaN takes the second branch with its sign bit intact
    # (-|x| would flip it), which keeps every output bit of the masked form.
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0, e) / (1.0 + e)


def _softmax(x):
    # max-subtraction for overflow safety; rows sum to 1. The row max and row
    # sum run one column at a time, about twice as fast as reductions over a
    # short last axis. Below 8 classes this keeps the bits of the reduction
    # form (numpy adds fewer than 8 elements in order, 8 or more pairwise),
    # except the sign or payload of a NaN output: the max reduction returns a
    # canonical NaN where np.maximum passes the input NaN on.
    k = x.shape[-1]
    m = x[..., 0]
    for i in range(1, k):
        m = np.maximum(m, x[..., i])
    ez = np.exp(x - m[..., None])
    total = ez[..., 0].copy()
    for i in range(1, k):
        total += ez[..., i]
    return ez / total[..., None]


def _apply_activation(kind: ActivationKind, g):
    if kind is ActivationKind.SIGMOID:
        return _sigmoid(g)
    if kind is ActivationKind.SOFTMAX:
        return _softmax(g)
    if kind is ActivationKind.TANH:
        return np.tanh(g)
    if kind is ActivationKind.RELU:
        return np.maximum(g, 0.0)
    return g


def _hidden_derivative(kind: ActivationKind, g, h):
    """Elementwise derivative of a hidden activation, in terms of g and h."""
    if kind is ActivationKind.SIGMOID:
        return h * (1.0 - h)
    if kind is ActivationKind.TANH:
        return 1.0 - h * h
    if kind is ActivationKind.RELU:
        return (g > 0).astype(float)  # subgradient 0 at the kink
    return np.ones_like(g)


def _forward_cached(arch, layers, X):
    """Forward pass over a batch, keeping pre/post-activations per layer.

    Layers with a leading draw axis (a stack of d parameter vectors) run as
    one batched matmul each and give activations of shape (d, s, k_j).
    """
    H = X
    gs, hs = [], [X]
    for j, (W, b) in enumerate(layers):
        G = H @ np.swapaxes(W, -1, -2) + b[..., None, :]
        kind = arch.output_activation if j == len(layers) - 1 else arch.hidden_activation
        H = _apply_activation(kind, G)
        gs.append(G)
        hs.append(H)
    return gs, hs


def _as_batch(arch, x):
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.ndim != 2 or X.shape[1] != arch.input_dim:
        raise DimensionError(
            f"input of shape {x.shape} does not match input width {arch.input_dim}"
        )
    return X, single


def forward(arch: Architecture, theta, x) -> np.ndarray:
    """Network output h_rho for one input vector or a matrix of inputs.

    Returns shape (k_rho,) for a single input and (s, k_rho) for a
    batch. A sigmoid output is the event probability Pr(y=1|x, theta);
    a softmax output is a probability vector over the classes.
    """
    X, single = _as_batch(arch, x)
    _, hs = _forward_cached(arch, unpack_parameters(arch, theta), X)
    out = hs[-1]
    return out[0] if single else out


def forward_stack(arch: Architecture, thetas, X) -> np.ndarray:
    """Network outputs of d parameter vectors on an (s, k_0) input batch.

    thetas has shape (d, n); the result has shape (d, s, k_rho), row i
    equal to forward(arch, thetas[i], X) up to rounding.
    """
    thetas = np.asarray(thetas, dtype=float)
    n = parameter_count(arch)
    if thetas.ndim != 2 or thetas.shape[1] != n:
        raise DimensionError(
            f"parameter stack of shape {thetas.shape} does not match "
            f"expected (d, {n}) for architecture {arch.layer_widths}"
        )
    X, _ = _as_batch(arch, X)
    _, hs = _forward_cached(arch, _layer_views(arch, thetas), X)
    return hs[-1]


def event_probabilities(arch: Architecture, theta, x) -> np.ndarray:
    """Per-class event probabilities, shape (s, K).

    Binary models report (1 - h, h), so K = 2 for a single output
    neuron and K = k_rho otherwise.
    """
    X, _ = _as_batch(arch, x)
    out = forward(arch, theta, X)
    if arch.is_binary:
        h = out[:, 0]
        return np.column_stack([1.0 - h, h])
    return out


def _check_labels(arch, data):
    if arch.is_binary:
        if data.labels.size and not np.isin(data.labels, (0, 1)).all():
            raise ValueError("binary labels must lie in {0, 1}")
    else:
        k = arch.output_dim
        if data.labels.size and ((data.labels < 1) | (data.labels > k)).any():
            raise ValueError(f"multiclass labels must lie in {{1, ..., {k}}}")


def _prior_constant(n: int, sigma2: float) -> float:
    if sigma2 <= 0:
        raise ValueError("prior variance must be positive")
    return -0.5 * n * math.log(2.0 * math.pi * sigma2)


class Posterior:
    """Unnormalized MLP log-posterior on one dataset, compiled once.

    Labels are checked when the object is built. A binary model keeps y
    and 1 - y, a multiclass model the 0-based label index and the one-hot
    label matrix; the normal prior keeps its constant. Every evaluation is
    then one forward pass over the stored features, and value_and_grad
    reads the log-posterior off the pass that backprop uses. The module
    functions log_likelihood*, log_posterior and grad_log_* wrap this class.
    """

    def __init__(self, arch: Architecture, data: LabeledDataset, sigma2: float):
        self.dim = parameter_count(arch)
        self._prior_const = _prior_constant(self.dim, sigma2)
        _check_labels(arch, data)
        X = np.asarray(data.features, dtype=float)
        if len(data) and X.shape[1] != arch.input_dim:
            raise DimensionError("feature width does not match input width")
        self.arch = arch
        self.sigma2 = sigma2
        self._X = X if len(data) else None
        y = data.labels
        if arch.is_binary:
            self._y, self._not_y = y, 1 - y
        else:
            self._rows, self._index = np.arange(len(y)), y - 1
            self._onehot = np.zeros((len(y), arch.output_dim))
            self._onehot[self._rows, self._index] = 1.0

    def _log_likelihood_of(self, out) -> float:
        """Log-likelihood from the network output on the stored features,
        with event probabilities clamped away from 0 and 1."""
        if self.arch.is_binary:
            p = np.clip(out[:, 0], PROB_EPS, 1.0 - PROB_EPS)
            return float(np.sum(self._y * np.log(p) + self._not_y * np.log1p(-p)))
        p = np.clip(out[self._rows, self._index], PROB_EPS, 1.0 - PROB_EPS)
        return float(np.sum(np.log(p)))

    def _backprop(self, layers, gs, hs) -> np.ndarray:
        """Log-likelihood gradient by backprop over a cached forward pass.

        The clamping applied inside the likelihood value is ignored here; it
        only binds in saturated regions where the clamped value is constant.
        """
        # dl/dg at the output layer: residual form for both link functions
        if self.arch.is_binary:
            delta = (self._y - hs[-1][:, 0])[:, None]
        else:
            delta = self._onehot - hs[-1]
        grads = [None] * len(layers)
        for j in range(len(layers) - 1, -1, -1):
            W, _ = layers[j]
            grads[j] = (delta.T @ hs[j], delta.sum(axis=0))
            if j > 0:
                delta = (delta @ W) * _hidden_derivative(
                    self.arch.hidden_activation, gs[j - 1], hs[j]
                )
        return pack_parameters(self.arch, grads)

    def log_likelihood(self, theta) -> float:
        """Classification log-likelihood; 0 on an empty dataset."""
        layers = unpack_parameters(self.arch, theta)
        if self._X is None:
            return 0.0
        _, hs = _forward_cached(self.arch, layers, self._X)
        return self._log_likelihood_of(hs[-1])

    def log_prior(self, theta) -> float:
        """Log-density of the normal prior N(0, sigma2 I)."""
        theta = np.asarray(theta, dtype=float)
        return float(self._prior_const - theta @ theta / (2.0 * self.sigma2))

    def grad_log_likelihood(self, theta) -> np.ndarray:
        layers = unpack_parameters(self.arch, theta)
        if self._X is None:
            return np.zeros(self.dim)
        gs, hs = _forward_cached(self.arch, layers, self._X)
        return self._backprop(layers, gs, hs)

    def grad(self, theta) -> np.ndarray:
        """Gradient of the unnormalized log-posterior, flat layout."""
        return self.grad_log_likelihood(theta) + grad_log_prior(theta, self.sigma2)

    def value(self, theta) -> float:
        """Unnormalized log-posterior: log-likelihood plus log-prior."""
        return self.log_likelihood(theta) + self.log_prior(theta)

    def value_and_grad(self, theta) -> tuple[float, np.ndarray]:
        """Log-posterior and its gradient from one forward pass."""
        layers = unpack_parameters(self.arch, theta)
        if self._X is None:
            ll, grad = 0.0, np.zeros(self.dim)
        else:
            gs, hs = _forward_cached(self.arch, layers, self._X)
            ll, grad = self._log_likelihood_of(hs[-1]), self._backprop(layers, gs, hs)
        return ll + self.log_prior(theta), grad + grad_log_prior(theta, self.sigma2)


def _likelihood(arch: Architecture, data: LabeledDataset) -> Posterior:
    # the prior variance plays no part in the likelihood or its gradient
    return Posterior(arch, data, 1.0)


def log_likelihood_binary(arch: Architecture, theta, data: LabeledDataset) -> float:
    """Bernoulli log-likelihood (negated binary cross entropy).

    sum_i [ y_i log h(x_i) + (1 - y_i) log(1 - h(x_i)) ], with event
    probabilities clamped away from 0 and 1.
    """
    if not arch.is_binary:
        raise DimensionError("binary likelihood needs a single output neuron")
    return _likelihood(arch, data).log_likelihood(theta)


def log_likelihood_multiclass(arch: Architecture, theta, data: LabeledDataset) -> float:
    """Categorical log-likelihood (negated cross entropy), labels 1-based."""
    if arch.is_binary:
        raise DimensionError("multiclass likelihood needs >= 2 output neurons")
    return _likelihood(arch, data).log_likelihood(theta)


def log_likelihood(arch: Architecture, theta, data: LabeledDataset) -> float:
    """Classification log-likelihood matching the output layer width."""
    return _likelihood(arch, data).log_likelihood(theta)


def log_prior(theta, sigma2: float) -> float:
    """Log-density of the isotropic normal prior N(0, sigma2 I).

    Fully normalized, so tempered posteriors stay well-defined.
    """
    theta = np.asarray(theta, dtype=float)
    return float(_prior_constant(theta.size, sigma2) - theta @ theta / (2.0 * sigma2))


def log_posterior(arch: Architecture, theta, data: LabeledDataset, sigma2: float) -> float:
    """Unnormalized log-posterior: log-likelihood plus log-prior."""
    return Posterior(arch, data, sigma2).value(theta)


def grad_log_likelihood(arch: Architecture, theta, data: LabeledDataset) -> np.ndarray:
    """Exact gradient of the classification log-likelihood via backprop."""
    return _likelihood(arch, data).grad_log_likelihood(theta)


def grad_log_prior(theta, sigma2: float) -> np.ndarray:
    if sigma2 <= 0:
        raise ValueError("prior variance must be positive")
    return -np.asarray(theta, dtype=float) / sigma2


def grad_log_posterior(arch: Architecture, theta, data: LabeledDataset, sigma2: float) -> np.ndarray:
    """Exact gradient of the unnormalized log-posterior, flat layout."""
    return Posterior(arch, data, sigma2).grad(theta)
