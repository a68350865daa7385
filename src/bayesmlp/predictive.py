"""Posterior predictive classification by Bayesian marginalization over a
chain tail, plus the prior-predictive baseline and grid evaluation.

The predictive evaluates the tail in chunks of PREDICTIVE_CHUNK draws, each
chunk one feature-major forward pass of a draw stack (the pass mlp.forward
runs on a stack), so the work per draw is a slice of a batched matmul rather
than a Python-level call. A call takes one (PREDICTIVE_CHUNK, k_j, s) buffer
per layer from mlp.layer_buffers and runs every chunk's matmuls, bias adds
and activations inside them, so no chunk allocates arrays of that size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mlp
from .data import LabeledDataset

#: Draws per batched forward pass. On the hawks test set (295 points,
#: MLP(6,2,2,3)), 2500 draws, on a Xeon with 2 MB of L2 per core and one
#: BLAS thread, the feature-major pass took 48 to 56 ms (best of three) for
#: chunks of 8 to 128 draws and 80 ms or more from 256 on, once a chunk's
#: (draws, width, points) activations outgrow the cache. Memory stays flat
#: in the tail length: each call reuses one buffer per layer across chunks.
#: The value also fixes the output bits, since each chunk's draws are summed
#: before the chunk is added to the total, so a smaller chunk that would
#: allocate less changes the predictions' last digits.
PREDICTIVE_CHUNK = 32

#: Grid defaults for the two-feature heatmap.
DEFAULT_GRID_BOUNDS = (-0.5, 1.5)
DEFAULT_GRID_RESOLUTION = 22


@dataclass
class PredictionReport:
    """Per-point predictions with their posterior predictive probabilities."""

    predicted: np.ndarray
    prob_predicted: np.ndarray
    prob_true: np.ndarray
    accuracy: float


def _tail_matrix(chain_tail) -> np.ndarray:
    tail = np.atleast_2d(np.asarray(chain_tail, dtype=float))
    if tail.shape[0] == 0:
        raise ValueError("chain tail must contain at least one draw")
    return tail


def predictive_distribution(arch: mlp.Architecture, chain_tail, x) -> np.ndarray:
    """Monte Carlo posterior predictive probabilities at input(s) x.

    Averages the per-draw event probabilities over the chain tail, one
    batched forward pass per PREDICTIVE_CHUNK draws. Returns (K,) for a
    single input and (s, K) for a batch; binary models average h and
    report K = 2 columns (1 - mean h, mean h).
    """
    tail = mlp._as_parameters(arch, _tail_matrix(chain_tail))
    X, single = mlp._as_batch(arch, x)
    XT = np.ascontiguousarray(X.T)
    chunk = min(PREDICTIVE_CHUNK, tail.shape[0])
    buffers = mlp.layer_buffers(arch, chunk, X.shape[0])
    total = np.zeros((X.shape[0], arch.output_dim))
    for lo in range(0, tail.shape[0], PREDICTIVE_CHUNK):
        layers = mlp._layer_views(arch, tail[lo : lo + PREDICTIVE_CHUNK])
        out = mlp._forward_features(arch, layers, XT, buffers)[-1]
        total += np.swapaxes(out, -1, -2).sum(axis=0)
    probs = total / tail.shape[0]
    if arch.is_binary:
        probs = np.column_stack([1.0 - probs[:, 0], probs[:, 0]])
    return probs[0] if single else probs


def classify(dist, task: str):
    """Maximum-a-posteriori label(s) from predictive probabilities.

    Binary rule: predict 1 iff p(y=1) >= 0.5. Multiclass rule: argmax
    over the 1-based class labels, ties broken by the lowest label.
    """
    dist = np.asarray(dist, dtype=float)
    if task == "binary":
        return (dist[..., 1] >= 0.5).astype(int)
    if task == "multiclass":
        return np.argmax(dist, axis=-1) + 1
    raise ValueError(f"task must be 'binary' or 'multiclass', got {task!r}")


def _report(arch, probs, labels) -> tuple[float, PredictionReport]:
    task = "binary" if arch.is_binary else "multiclass"
    predicted = classify(probs, task)
    rows = np.arange(len(labels))
    prob_predicted = probs[rows, predicted if arch.is_binary else predicted - 1]
    prob_true = probs[rows, labels if arch.is_binary else labels - 1]
    acc = float(np.mean(predicted == labels)) if len(labels) else math.nan
    return acc, PredictionReport(predicted, prob_predicted, prob_true, acc)


def accuracy(arch: mlp.Architecture, chain_tail, test: LabeledDataset) -> tuple[float, PredictionReport]:
    """Posterior predictive accuracy on a test set, with per-point report."""
    mlp._check_labels(arch, test)
    probs = predictive_distribution(arch, chain_tail, test.features)
    return _report(arch, probs, test.labels)


def prior_predictive_accuracy(
    arch: mlp.Architecture, sigma2: float, test: LabeledDataset, num_draws: int, seed: int
) -> float:
    """Baseline accuracy with parameters drawn i.i.d. from the prior."""
    if num_draws < 1:
        raise ValueError("need at least one prior draw")
    rng = np.random.default_rng(seed)
    tail = rng.normal(0.0, math.sqrt(sigma2), (num_draws, mlp.parameter_count(arch)))
    acc, _ = accuracy(arch, tail, test)
    return acc


def grid_cell_centers(bounds=DEFAULT_GRID_BOUNDS, resolution: int = DEFAULT_GRID_RESOLUTION) -> np.ndarray:
    """Cell-center coordinates lo + (i + 0.5)(hi - lo)/resolution."""
    lo, hi = bounds
    if not hi > lo:
        raise ValueError("bounds must satisfy hi > lo")
    if resolution < 1:
        raise ValueError("resolution must be positive")
    return lo + (np.arange(resolution) + 0.5) * (hi - lo) / resolution


def grid_predictive(
    arch: mlp.Architecture,
    chain_tail,
    bounds=DEFAULT_GRID_BOUNDS,
    resolution: int = DEFAULT_GRID_RESOLUTION,
) -> np.ndarray:
    """p(y=1 | cell center) over a square grid, for 2-feature binary models.

    Entry [i2, i1] holds the probability at (x1 = centers[i1],
    x2 = centers[i2]), so rows run along increasing x2.
    """
    if not arch.is_binary or arch.input_dim != 2:
        raise mlp.DimensionError("grid evaluation needs a binary model with 2 features")
    centers = grid_cell_centers(bounds, resolution)
    x2, x1 = np.meshgrid(centers, centers, indexing="ij")
    points = np.column_stack([x1.ravel(), x2.ravel()])
    probs = predictive_distribution(arch, chain_tail, points)[:, 1]
    return probs.reshape(resolution, resolution)


def xor_truth_grid(bounds=DEFAULT_GRID_BOUNDS, resolution: int = DEFAULT_GRID_RESOLUTION) -> np.ndarray:
    """Exact XOR label of each cell center, thresholding coordinates at 0.5."""
    centers = grid_cell_centers(bounds, resolution)
    bits = (centers > 0.5).astype(int)
    x2, x1 = np.meshgrid(bits, bits, indexing="ij")
    return x1 ^ x2
