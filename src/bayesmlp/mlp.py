"""Multilayer perceptron model with classification log-likelihoods,
Gaussian log-prior, unnormalized log-posterior and exact gradients.

Parameters live in a single flat vector. For each layer j the weight
matrix W_j (shape k_j x k_{j-1}) is stored row-wise, followed by the bias
vector b_j, so the vector length is sum_j k_j (k_{j-1} + 1).

Posterior compiles the log-posterior on one dataset. Its five evaluation
methods run the one feature-major forward pass (_forward_features) and
backprop inside a workspace of buffers kept per stack size.
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
    """Layer widths plus the hidden activation kind; the output activation
    follows from the output width (see ``output_activation``)."""

    layer_widths: tuple[int, ...]
    hidden_activation: ActivationKind = ActivationKind.SIGMOID

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 3:
            raise ValueError("need at least input, one hidden and output layer")
        if any(w < 1 for w in self.layer_widths):
            raise ValueError("all layer widths must be >= 1")
        if self.hidden_activation is ActivationKind.SOFTMAX:
            raise ValueError("softmax is permitted only at the output layer")

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

    @property
    def output_activation(self) -> ActivationKind:
        """Sigmoid for a single output neuron (binary classification),
        softmax for two or more (multiclass)."""
        return ActivationKind.SIGMOID if self.is_binary else ActivationKind.SOFTMAX


def parameter_count(arch: Architecture) -> int:
    """Length of the flat parameter vector: sum_j k_j (k_{j-1} + 1)."""
    widths = arch.layer_widths
    return sum(widths[j] * (widths[j - 1] + 1) for j in range(1, len(widths)))


def _as_parameters(arch, theta) -> np.ndarray:
    """theta as a float (n,) parameter vector or (m, n) stack of them."""
    theta = np.asarray(theta, dtype=float)
    n = parameter_count(arch)
    if theta.ndim not in (1, 2) or theta.shape[-1] != n:
        raise DimensionError(
            f"parameter array of shape {theta.shape} does not match (n,) or "
            f"(m, n) with n = {n} for architecture {arch.layer_widths}"
        )
    return theta


def unpack_parameters(arch: Architecture, theta) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a flat parameter vector into per-layer (W, b) views; for an
    (m, n) stack the views carry the leading m axis."""
    return _layer_views(arch, _as_parameters(arch, theta))


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


def _apply_activation(kind: ActivationKind, g, axis):
    """Activation of pre-activations g, in place; a softmax normalizes
    along axis."""
    if kind is ActivationKind.SIGMOID:
        return _sigmoid(g, g)
    if kind is ActivationKind.SOFTMAX:
        return _softmax(g, axis, g)
    if kind is ActivationKind.TANH:
        return np.tanh(g, out=g)
    if kind is ActivationKind.RELU:
        return np.maximum(g, 0.0, out=g)
    return g


def _hidden_derivative(kind: ActivationKind, h, out):
    """Elementwise derivative of a hidden activation, read off its output h
    (the pass keeps no pre-activations), written to out."""
    if kind is ActivationKind.SIGMOID:
        np.subtract(1.0, h, out=out)
        return np.multiply(h, out, out=out)
    if kind is ActivationKind.TANH:
        np.multiply(h, h, out=out)
        return np.subtract(1.0, out, out=out)
    if kind is ActivationKind.RELU:
        # g > 0 exactly, NaN included; subgradient 0 at the kink
        return np.greater(h, 0.0, out=out)
    out.fill(1.0)
    return out


def _layer_kind(arch, j: int) -> ActivationKind:
    return arch.output_activation if j == arch.num_layers - 1 else arch.hidden_activation


def layer_buffers(arch, m: int, s: int) -> list[np.ndarray]:
    """One (m, k_j, s) buffer per weighted layer j, for m parameter vectors
    on s points."""
    return [np.empty((m, k, s)) for k in arch.layer_widths[1:]]


def _forward_features(arch, layers, XT, buffers) -> list[np.ndarray]:
    """Feature-major forward pass on (k_0, s) inputs XT, for the per-layer
    (W, b) views of a (d, n) stack of parameter vectors: (d, k_j, k_{j-1})
    weights times (d, k_{j-1}, s) activations, so bias adds, activations and
    the softmax run along the s points rather than along the 1 to 3 units of
    a layer. Returns the post-activations of every layer, XT first and the
    (d, k_rho, s) output last.

    buffers holds one (c, k_j, s) array per layer with c >= d (layer_buffers
    builds them). Layer j's matmul, bias add and activation run in the
    leading d entries of buffers[j], so repeated calls allocate no array of
    that size. Every vector of a stack gets the BLAS calls of its own pass as
    the stack of one, so each keeps its bits.
    """
    hs = [XT]
    for j, (W, b) in enumerate(layers):
        G = np.matmul(W, hs[-1], out=buffers[j][: len(W)])
        G += b[..., None]
        hs.append(_apply_activation(_layer_kind(arch, j), G, axis=-2))
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
    """Network output h_rho for theta of shape (n,) or an (m, n) stack, at
    x of shape (k_0,) or (s, k_0): (k_rho,) or (s, k_rho) for one vector,
    (m, k_rho) or (m, s, k_rho) for a stack, whose row i equals the call on
    theta[i] bit for bit. A sigmoid output is the event probability
    Pr(y=1|x, theta); a softmax output is a probability vector over the
    classes. The pass runs as a stack (_forward_features)."""
    theta = _as_parameters(arch, theta)
    X, single = _as_batch(arch, x)
    stack = theta if theta.ndim == 2 else theta[None]
    buffers = layer_buffers(arch, len(stack), len(X))
    hs = _forward_features(arch, _layer_views(arch, stack), np.ascontiguousarray(X.T), buffers)
    out = np.swapaxes(hs[-1], -1, -2)
    if single:
        out = out[:, 0]
    return out if theta.ndim == 2 else out[0]


def event_probabilities(arch: Architecture, theta, x) -> np.ndarray:
    """Per-class event probabilities, shape (s, K), or (m, s, K) for an
    (m, n) stack of parameter vectors.

    Binary models report (1 - h, h), so K = 2 for a single output
    neuron and K = k_rho otherwise.
    """
    X, _ = _as_batch(arch, x)
    out = forward(arch, theta, X)
    if arch.is_binary:
        h = out[..., 0]
        return np.stack([1.0 - h, h], axis=-1)
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


class _Workspace:
    """The buffers of an evaluation at stack size m on s points.

    theta is an (m, n) stack whose per-layer (W, b) views and W^T views are
    built once, as are the per-layer views of the gradient buffer. buffers
    holds the (m, k_j, s) post-activations of every layer, which
    _forward_features fills, with the transposed views of the hidden ones,
    and deltas one (m, k_j, s) backprop buffer per layer. p is the (m, s)
    per-point probability of the observed event: a view of the output
    buffer for a binary model, a buffer of its own, taken from the flat
    output view, for a multiclass one.

    A call writes every buffer before it reads it, and the points are not
    kept here, so no call sees what an earlier one left behind.
    """

    def __init__(self, arch, n, m, s):
        self.theta = np.empty((m, n))
        self.layers = _layer_views(arch, self.theta)
        self.transposed = [W.swapaxes(-1, -2) for W, _ in self.layers]
        self.buffers = layer_buffers(arch, m, s)
        self.hidden_transposed = [h.swapaxes(-1, -2) for h in self.buffers[:-1]]
        self.deltas = layer_buffers(arch, m, s)
        if arch.is_binary:
            self.p = self.buffers[-1][:, 0]
        else:
            self.p = np.empty((m, s))
            # the (m, k_rho s) output, which the true classes index into
            self.flat_output = self.buffers[-1].reshape(m, arch.output_dim * s)
        self.clamped, self.terms = np.empty((m, s)), np.empty((m, s))
        self.low, self.high = np.empty((m, s), dtype=bool), np.empty((m, s), dtype=bool)
        self.grad = np.empty((m, n))
        self.grads = _layer_views(arch, self.grad)


class Posterior:
    """Unnormalized MLP log-posterior on one dataset, compiled once.

    Labels are checked when the object is built. The features are kept as
    a contiguous (k_0, s) array, the layout of the feature-major pass
    (_forward_features). A binary model keeps y and 1 - y, a multiclass
    model the (k_rho, s) one-hot label matrix and each row's flat index of
    its true class in a (k_rho, s) output. An empty dataset is a (k_0, 0)
    feature array, whose log-likelihood is 0 and gradient 0.

    Five evaluation methods: log_likelihood, log_prior, grad_log_likelihood,
    grad (the log-posterior gradient) and value_and_grad (the log-posterior
    and its gradient, read off one forward pass), plus subset, the posterior
    on some of the stored rows. Each evaluation but log_prior is one
    feature-major pass over the stored features, and backprop runs in the
    same layout. A method takes one parameter vector of shape (n,) and
    returns a float (or an (n,) gradient), or a stack of m vectors of shape
    (m, n) and returns an (m,) array (or an (m, n) gradient) whose row i
    equals, bit for bit, the result for row i alone.

    The pass and backprop run in a workspace of buffers kept for each stack
    size m the posterior meets, an (n,) vector being the stack of one, and
    shared with its subsets of as many rows. A call copies theta in and
    returns fresh arrays, never workspace memory, so a later call changes no
    result already returned; a posterior and its subsets are not to be
    evaluated from two threads at once. The module functions log_likelihood,
    log_posterior and grad_log_posterior are single calls into this class,
    and its log_prior is a call of the module log_prior.
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
        # (m, s) -> _Workspace; subset shares this dict with its parent, so a
        # posterior and its subsets build one workspace per shape between them
        self._workspaces = {}
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
        """Copy theta, of shape (n,) or (m, n), into the workspace of its
        stack size and run the pass over the stored features there, filling
        the post-activations and the event probabilities p before clamping
        (h for a binary model, the true class's p for a multiclass one).
        Returns the workspace and whether theta is a single vector, which
        runs as the stack of one."""
        theta = _as_parameters(self.arch, theta)
        m, s = 1 if theta.ndim == 1 else len(theta), self._XT.shape[1]
        ws = self._workspaces.get((m, s))
        if ws is None:
            ws = self._workspaces[m, s] = _Workspace(self.arch, self.dim, m, s)
        np.copyto(ws.theta, theta)
        _forward_features(self.arch, ws.layers, self._XT, ws.buffers)
        if not self.arch.is_binary:
            # the indices are valid; mode "raise" would take into a copy of out
            np.take(ws.flat_output, self._true, axis=-1, out=ws.p, mode="clip")
        return ws, theta.ndim == 1

    def _log_likelihood_of(self, ws) -> np.ndarray:
        """Log-likelihood of each row of the stack, from its event
        probabilities ws.p clamped away from 0 and 1."""
        p = np.maximum(ws.p, PROB_EPS, out=ws.clamped)
        np.minimum(p, 1.0 - PROB_EPS, out=p)
        if self.arch.is_binary:
            # y log(p) + (1 - y) log1p(-p), one term per buffer
            q = np.negative(p, out=ws.terms)
            np.log1p(q, out=q)
            np.multiply(self._not_y, q, out=q)
            np.log(p, out=p)
            np.multiply(self._y, p, out=p)
            p += q
        else:
            np.log(p, out=p)
        # each row is contiguous, so the sum over the last axis runs numpy's
        # pairwise sum on each row and keeps the bits of that row's 1-D sum
        return np.add.reduce(p, axis=-1)

    def _backprop(self, ws) -> np.ndarray:
        """Log-likelihood gradient of the pass in ws by feature-major
        backprop, written to ws.grad.

        delta is (m, k_j, s): each bias gradient is a sum along the points,
        each weight gradient delta @ H^T, and delta moves back a layer as
        W^T @ delta times the activation's derivative. A point whose event
        probability is clamped adds a constant to the likelihood, so its
        output-layer delta is zero. The hidden post-activations are
        overwritten.
        """
        p, delta = ws.p, ws.deltas[-1]
        # dl/dg at the output layer: residual form for both link functions
        if self.arch.is_binary:
            np.subtract(self._y, p, out=delta[:, 0])
        else:
            np.subtract(self._onehot, ws.buffers[-1], out=delta)
        clamped = np.less(p, PROB_EPS, out=ws.low)
        clamped |= np.greater(p, 1.0 - PROB_EPS, out=ws.high)
        np.copyto(delta, 0.0, where=clamped[:, None])
        # written layer by layer into the flat layout W_1, b_1, ..., W_rho, b_rho
        for j in range(len(ws.layers) - 1, -1, -1):
            gW, gb = ws.grads[j]
            np.add.reduce(delta, axis=-1, out=gb)
            np.matmul(delta, ws.hidden_transposed[j - 1] if j else self._XT.T, out=gW)
            if j > 0:
                # layer j's input h is read here for the last time, so
                # W^T @ delta goes there
                h = ws.buffers[j - 1]
                below = _hidden_derivative(self.arch.hidden_activation, h, ws.deltas[j - 1])
                np.matmul(ws.transposed[j], delta, out=h)
                delta = np.multiply(h, below, out=below)
        return ws.grad

    def _posterior_grad(self, ws) -> np.ndarray:
        """Log-posterior gradient of the pass in ws, as a fresh array."""
        prior = grad_log_prior(ws.theta, self.sigma2)
        return np.add(self._backprop(ws), prior, out=prior)

    def log_likelihood(self, theta):
        """Classification log-likelihood; 0 on an empty dataset."""
        ws, single = self._pass(theta)
        ll = self._log_likelihood_of(ws)
        return float(ll[0]) if single else ll

    def log_prior(self, theta):
        """Log-density of the normal prior N(0, sigma2 I)."""
        return log_prior(theta, self.sigma2)

    def grad_log_likelihood(self, theta) -> np.ndarray:
        """Exact gradient of the classification log-likelihood, flat layout."""
        ws, single = self._pass(theta)
        grad = self._backprop(ws)
        return grad[0].copy() if single else grad.copy()

    def grad(self, theta) -> np.ndarray:
        """Exact gradient of the log-posterior, flat layout: the gradient of
        value_and_grad, without the log-likelihood value."""
        ws, single = self._pass(theta)
        grad = self._posterior_grad(ws)
        return grad[0] if single else grad

    def value_and_grad(self, theta):
        """Log-posterior and its gradient from one forward pass."""
        ws, single = self._pass(theta)
        value = self._log_likelihood_of(ws) + self.log_prior(ws.theta)
        grad = self._posterior_grad(ws)
        return (float(value[0]), grad[0]) if single else (value, grad)


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
    return Posterior(arch, data, sigma2).grad(theta)
