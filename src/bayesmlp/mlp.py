"""Multilayer perceptron model with classification log-likelihoods,
Gaussian log-prior, unnormalized log-posterior and exact gradients.

Parameters live in a single flat vector. For each layer j the weight
matrix W_j (shape k_j x k_{j-1}) is stored row-wise, followed by the bias
vector b_j, so the vector length is sum_j k_j (k_{j-1} + 1).
"""

from __future__ import annotations

import copy
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


def _sigmoid(x, out=None):
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) otherwise, so exp
    # never overflows, without branches: e = exp(min(x, -x)) and the numerator
    # max(e, x >= 0). np.minimum returns its first argument when both are NaN,
    # so a NaN keeps its sign bit, which keeps every output bit of the masked
    # form. out may alias x.
    pos = x >= 0
    e = np.negative(x)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    num = np.maximum(e, pos, out=out)
    e += 1.0
    return np.divide(num, e, out=num)


def _softmax(x, axis=-1, out=None):
    # max-subtraction for overflow safety; sums to 1 along the class axis.
    # The max and sum run one class at a time, about twice as fast as
    # reductions over a short axis. Below 8 classes this keeps the bits of the
    # reduction form (numpy adds fewer than 8 elements in order, 8 or more
    # pairwise), except the sign or payload of a NaN output: the max
    # reduction returns a canonical NaN where np.maximum passes the input on.
    # out may alias x.
    axis %= x.ndim
    lead = (slice(None),) * axis
    m = x[lead + (0,)]
    for i in range(1, x.shape[axis]):
        m = np.maximum(m, x[lead + (i,)])
    ez = np.subtract(x, m[lead + (None,)], out=out)
    np.exp(ez, out=ez)
    total = ez[lead + (0,)].copy()
    for i in range(1, x.shape[axis]):
        total += ez[lead + (i,)]
    ez /= total[lead + (None,)]
    return ez


def _apply_activation(kind: ActivationKind, g, axis=-1, out=None):
    """Activation of pre-activations g; a softmax normalizes along axis.
    The result goes to out when given, which may be g itself."""
    if kind is ActivationKind.SIGMOID:
        return _sigmoid(g, out)
    if kind is ActivationKind.SOFTMAX:
        return _softmax(g, axis, out)
    if kind is ActivationKind.TANH:
        return np.tanh(g, out=out)
    if kind is ActivationKind.RELU:
        return np.maximum(g, 0.0, out=out)
    if out is not None:
        out[...] = g
        return out
    return g


def _hidden_derivative(kind: ActivationKind, h):
    """Elementwise derivative of a hidden activation, read off its output h
    (the pass keeps no pre-activations)."""
    if kind is ActivationKind.SIGMOID:
        return h * (1.0 - h)
    if kind is ActivationKind.TANH:
        return 1.0 - h * h
    if kind is ActivationKind.RELU:
        return h > 0  # g > 0 exactly, NaN included; subgradient 0 at the kink
    return 1.0


def _layer_kind(arch, j: int) -> ActivationKind:
    return arch.output_activation if j == arch.num_layers - 1 else arch.hidden_activation


def _forward_features(arch, layers, XT, buffers=None) -> list[np.ndarray]:
    """Feature-major forward pass on (k_0, s) inputs XT, for the per-layer
    (W, b) views of one parameter vector or of a (d, n) stack: (d, k_j,
    k_{j-1}) weights times (d, k_{j-1}, s) activations, so bias adds,
    activations and the softmax run along the s points rather than along the
    1 to 3 units of a layer. Returns the post-activations of every layer, XT
    first and the (d, k_rho, s) output last.

    Each layer's matmul, bias add and activation run in one array. Given
    buffers, one (c, k_j, s) array per layer with c >= d, layer j of a stack
    runs in the leading d entries of buffers[j], so repeated calls allocate
    no array of that size; without, each layer allocates its own. Every
    vector of a stack gets the BLAS calls of its single-vector pass, so each
    keeps its bits.
    """
    hs = [XT]
    for j, (W, b) in enumerate(layers):
        G = np.matmul(W, hs[-1], out=None if buffers is None else buffers[j][: len(W)])
        G += b[..., None]
        hs.append(_apply_activation(_layer_kind(arch, j), G, axis=-2, out=G))
    return hs


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
    hs = _forward_features(arch, unpack_parameters(arch, theta), np.ascontiguousarray(X.T))
    out = hs[-1].T
    return out[0] if single else out


def _as_stack(arch, thetas) -> np.ndarray:
    """thetas as a float (d, n) stack of parameter vectors."""
    thetas = np.asarray(thetas, dtype=float)
    n = parameter_count(arch)
    if thetas.ndim != 2 or thetas.shape[1] != n:
        raise DimensionError(
            f"parameter stack of shape {thetas.shape} does not match "
            f"expected (d, {n}) for architecture {arch.layer_widths}"
        )
    return thetas


def forward_stack(arch: Architecture, thetas, X) -> np.ndarray:
    """Network outputs of d parameter vectors on an (s, k_0) input batch.

    thetas has shape (d, n); the result has shape (d, s, k_rho), row i
    equal to forward(arch, thetas[i], X) up to rounding. The pass runs
    feature-major (_forward_features); the result is a transposed view of
    the (d, k_rho, s) output.
    """
    thetas = _as_stack(arch, thetas)
    X, _ = _as_batch(arch, X)
    hs = _forward_features(arch, _layer_views(arch, thetas), np.ascontiguousarray(X.T))
    return np.swapaxes(hs[-1], -1, -2)


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


def _check_variance(sigma2: float):
    if not sigma2 > 0:
        raise ValueError("prior variance must be positive")


class Posterior:
    """Unnormalized MLP log-posterior on one dataset, compiled once.

    Labels are checked when the object is built. The features are kept as
    a contiguous (k_0, s) array, the layout of the feature-major pass
    (_forward_features). A binary model keeps y and 1 - y, a multiclass
    model the (k_rho, s) one-hot label matrix and each row's flat index of
    its true class in a (k_rho, s) output. An empty dataset is a (k_0, 0)
    feature array, whose log-likelihood is 0 and gradient 0.

    Four evaluation methods: log_likelihood, log_prior, grad_log_likelihood
    and value_and_grad (the log-posterior and its gradient, read off one
    forward pass), plus subset, the posterior on some of the stored rows.
    Each evaluation is one feature-major pass over the stored features, and
    backprop runs in the same layout. A method takes one parameter vector of
    shape (n,) and returns a float (and an (n,) gradient), or a stack of m
    vectors of shape (m, n) and returns an (m,) array (and an (m, n)
    gradient) whose row i equals, bit for bit, the result for row i alone.
    The module functions log_likelihood, log_posterior and
    grad_log_posterior are single calls into this class, and its log_prior
    is a call of the module log_prior.
    """

    def __init__(self, arch: Architecture, data: LabeledDataset, sigma2: float):
        self.dim = parameter_count(arch)
        _check_variance(sigma2)
        _check_labels(arch, data)
        X = np.asarray(data.features, dtype=float)
        if not len(data):
            X = np.empty((0, arch.input_dim))
        elif X.shape[1] != arch.input_dim:
            raise DimensionError("feature width does not match input width")
        self.arch = arch
        self.sigma2 = sigma2
        self._keep(X.T, data.labels)

    def _keep(self, XT, labels):
        """Store the points (the columns of XT) and their labels in the
        layouts the pass reads. Every array a point contributes to is built
        here, so a subset cannot read its parent's points."""
        self._XT = np.ascontiguousarray(XT)
        self._labels = labels
        if self.arch.is_binary:
            y = labels.astype(float)  # a float y spares each evaluation two casts
            self._y, self._not_y = y, 1.0 - y
        else:
            index, s = labels - 1, len(labels)
            self._onehot = (np.arange(self.arch.output_dim)[:, None] == index).astype(float)
            self._true = index * s + np.arange(s)

    def subset(self, rows) -> "Posterior":
        """The posterior on the given rows of the stored dataset, in that
        order, without checking the labels again."""
        sub = copy.copy(self)
        sub._keep(self._XT[:, rows], self._labels[rows])
        return sub

    def _pass(self, theta):
        """theta as a float array of shape (n,) or (m, n), its per-layer
        (W, b) views, the post-activations of the pass over the stored
        features, and the per-point probability of the observed event
        before clamping: h for a binary model, the true class's p for a
        multiclass one, as an (s,) or C-contiguous (m, s) array."""
        theta = np.asarray(theta, dtype=float)
        if theta.ndim not in (1, 2) or theta.shape[-1] != self.dim:
            raise DimensionError(
                f"parameter array of shape {theta.shape} does not match (n,) or "
                f"(m, n) with n = {self.dim} for architecture {self.arch.layer_widths}"
            )
        layers = _layer_views(self.arch, theta)
        hs = _forward_features(self.arch, layers, self._XT)
        out = hs[-1]
        if self.arch.is_binary:
            p = out[..., 0, :]
        else:
            p = np.take(out.reshape(out.shape[:-2] + (-1,)), self._true, axis=-1)
        return theta, layers, hs, p

    def _log_likelihood_of(self, p):
        """Log-likelihood from the event probabilities p, clamped away from
        0 and 1; one value per row of a stack."""
        p = np.maximum(p, PROB_EPS)
        np.minimum(p, 1.0 - PROB_EPS, out=p)
        if self.arch.is_binary:
            terms = self._y * np.log(p) + self._not_y * np.log1p(-p)
        else:
            terms = np.log(p)
        if terms.ndim == 1:
            return float(np.add.reduce(terms))
        # a 1-D sum per chain keeps each chain's bits, which one sum over
        # the last axis of the stack is not guaranteed to do
        return np.array([np.add.reduce(row) for row in terms])

    def _backprop(self, layers, hs, p) -> np.ndarray:
        """Log-likelihood gradient by feature-major backprop over the
        post-activations hs of a pass with event probabilities p.

        delta is (m, k_j, s): each bias gradient is a sum along the points,
        each weight gradient delta @ H^T, and delta moves back a layer as
        W^T @ delta. A point whose event probability is clamped adds a
        constant to the likelihood, so its output-layer delta is zero.
        """
        # dl/dg at the output layer: residual form for both link functions
        if self.arch.is_binary:
            delta = (self._y - p)[..., None, :]
        else:
            delta = self._onehot - hs[-1]
        np.copyto(delta, 0.0, where=((p < PROB_EPS) | (p > 1.0 - PROB_EPS))[..., None, :])
        # written layer by layer into the flat layout W_1, b_1, ..., W_rho, b_rho
        grad = np.empty(p.shape[:-1] + (self.dim,))
        grads = _layer_views(self.arch, grad)
        for j in range(len(layers) - 1, -1, -1):
            gW, gb = grads[j]
            np.add.reduce(delta, axis=-1, out=gb)
            np.matmul(delta, hs[j].swapaxes(-1, -2), out=gW)
            if j > 0:
                delta = layers[j][0].swapaxes(-1, -2) @ delta
                delta *= _hidden_derivative(self.arch.hidden_activation, hs[j])
        return grad

    def log_likelihood(self, theta):
        """Classification log-likelihood; 0 on an empty dataset."""
        return self._log_likelihood_of(self._pass(theta)[-1])

    def log_prior(self, theta):
        """Log-density of the normal prior N(0, sigma2 I)."""
        return log_prior(theta, self.sigma2)

    def grad_log_likelihood(self, theta) -> np.ndarray:
        """Exact gradient of the classification log-likelihood, flat layout."""
        _, layers, hs, p = self._pass(theta)
        return self._backprop(layers, hs, p)

    def value_and_grad(self, theta):
        """Log-posterior and its gradient from one forward pass."""
        theta, layers, hs, p = self._pass(theta)
        ll, grad = self._log_likelihood_of(p), self._backprop(layers, hs, p)
        return ll + self.log_prior(theta), grad + grad_log_prior(theta, self.sigma2)


def log_likelihood(arch: Architecture, theta, data: LabeledDataset) -> float:
    """Classification log-likelihood matching the output layer width:
    Bernoulli for one output neuron, categorical (labels 1-based) otherwise,
    with event probabilities clamped away from 0 and 1."""
    # the prior variance plays no part in the likelihood
    return Posterior(arch, data, 1.0).log_likelihood(theta)


def log_prior(theta, sigma2: float):
    """Log-density of the isotropic normal prior N(0, sigma2 I): a float for
    one parameter vector of shape (n,), an (m,) array for an (m, n) stack.

    Fully normalized, so tempered posteriors stay well-defined.
    """
    _check_variance(sigma2)
    theta = np.asarray(theta, dtype=float)
    # each row's theta . theta: a batched (1, n) @ (n, 1) matmul is the BLAS
    # dot of a single vector
    squares = (theta[..., None, :] @ theta[..., None])[..., 0, 0]
    value = -0.5 * theta.shape[-1] * math.log(2.0 * math.pi * sigma2) - squares / (2.0 * sigma2)
    return float(value) if theta.ndim == 1 else value


def log_posterior(arch: Architecture, theta, data: LabeledDataset, sigma2: float) -> float:
    """Unnormalized log-posterior: log-likelihood plus log-prior."""
    post = Posterior(arch, data, sigma2)
    return post.log_likelihood(theta) + post.log_prior(theta)


def grad_log_prior(theta, sigma2: float) -> np.ndarray:
    _check_variance(sigma2)
    return -np.asarray(theta, dtype=float) / sigma2


def grad_log_posterior(arch: Architecture, theta, data: LabeledDataset, sigma2: float) -> np.ndarray:
    """Exact gradient of the unnormalized log-posterior, flat layout."""
    return Posterior(arch, data, sigma2).value_and_grad(theta)[1]
