"""Convergence and effectiveness diagnostics: lag autocovariances, the
multivariate initial monotone sequence estimator (MINSE) of Monte Carlo
covariance, multivariate PSRF across chains and multivariate ESS per chain.

MINSE dominates the cost. Its lag sums come from a block DFT: the centred
draws are cut into blocks of BLOCK rows, each block's zero-padded spectrum
is taken once per chain (two chain-sizes, the centring done block by
block), and each pass of the scan yields BLOCK consecutive lags from one
product over the stored spectra, about four lag pairs' worth of direct
products, and a small real inverse DFT. The pass buffers hold about
1.5 BLOCK n^2 doubles and are allocated once per chain.

Every number the PSRF and the report need is per chain or built from
per-chain summaries, so each chain is reduced on its own to a ChainSummary
(its shape, mean, MINSE and empirical log-determinant, a few n x n
matrices) and dropped. diagnostics_report and multivariate_psrf accept any
iterable of chains and consume it one chain at a time, so they hold one
chain's draws, read in place with the burn-in a view, and never a stacked
copy; each chain's MINSE is computed once and serves both the PSRF's
within-chain covariance and that chain's ESS. A check that fails on the
way is kept in its summary and raised when the report is assembled, in the
order of the checks: shape, burn-in, chain count, MINSE, ESS.
"""

from __future__ import annotations

import itertools
import typing
from dataclasses import dataclass

import numpy as np

#: Relative ridge added to a singular within-chain covariance before the
#: PSRF eigenproblem; falls back to an absolute 1e-10 when the trace is zero.
RIDGE_FACTOR = 1e-10

#: Rows per block of MINSE's lag-sum transform, even: each pass of the scan
#: yields BLOCK lags, and its buffers hold about 1.5 BLOCK n^2 + 3 PANEL n^2
#: doubles, next to the two chain-sizes of stored spectra.
BLOCK = 32
#: Frequency slots per stored panel of spectra and per product; divides BLOCK.
PANEL = 4
#: Blocks centred and transformed at a time.
CHUNK_BLOCKS = 8


class DegenerateChainError(ValueError):
    """Chain too short or constant in some coordinate for the estimator."""


class EstimatorError(RuntimeError):
    """A covariance estimate came out unusable (non-PD, nonpositive det)."""


@dataclass
class CovarianceEstimate:
    """An n x n covariance matrix tagged with the estimator that made it."""

    matrix: np.ndarray
    kind: str  # "empirical" | "minse"
    chain_length: int
    #: the number of lags a MINSE sums, Sig_0 ... Sig_{lags-1}: two per lag pair
    lags: int | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("covariance estimate must be a square matrix")


@dataclass
class PsrfResult:
    """Multivariate potential scale reduction factor across chains."""

    value: float
    num_chains: int
    chain_length: int
    regularized: bool = False
    degenerate_chains: tuple[int, ...] = ()


@dataclass
class EssResult:
    """Multivariate effective sample size of one chain."""

    value: float
    chain_length: int


def _as_draws(draws) -> np.ndarray:
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 1:
        draws = draws[:, None]
    if draws.ndim != 2:
        raise ValueError("chain draws must form a v x n matrix")
    return draws


def lag_autocovariance(draws, k: int) -> np.ndarray:
    """Lag-k autocovariance (1/v) sum_t (x_t - mean)(x_{t+k} - mean)^T."""
    draws = _as_draws(draws)
    v = draws.shape[0]
    if not 0 <= k < v:
        raise ValueError(f"lag {k} outside [0, {v})")
    centered = draws - draws.mean(axis=0)
    return centered[: v - k].T @ centered[k:] / v


def empirical_covariance(draws) -> CovarianceEstimate:
    """Sample covariance with divisor v - 1, the draws centred block by
    block rather than in a copy."""
    draws = _as_draws(draws)
    v = draws.shape[0]
    if v < 2:
        raise DegenerateChainError("need at least two draws for a covariance")
    return CovarianceEstimate(_centered_gram(draws, draws.mean(axis=0)) / (v - 1), "empirical", v)


def _cholesky(matrix) -> np.ndarray | None:
    """Lower Cholesky factor, or None when not positive definite."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return None


def _chol_logdet(matrix) -> float | None:
    """Log-determinant via Cholesky, or None when not positive definite."""
    chol = _cholesky(matrix)
    if chol is None:
        return None
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def _centered_chunks(draws, mean):
    """The draws less their mean, in chunks of whole BLOCK-row blocks, the
    last zero-padded to a whole block: one chunk at a time, so no centred
    copy of the chain is made."""
    v, n = draws.shape
    step = CHUNK_BLOCKS * BLOCK
    for start in range(0, v, step):
        rows = draws[start : start + step]
        chunk = np.zeros((-(-len(rows) // BLOCK) * BLOCK, n))
        np.subtract(rows, mean, out=chunk[: len(rows)])
        yield chunk


def _centered_gram(draws, mean) -> np.ndarray:
    """sum_t (x_t - mean)(x_t - mean)^T, summed chunk by chunk."""
    gram = np.zeros((draws.shape[1], draws.shape[1]))
    for chunk in _centered_chunks(draws, mean):
        gram += chunk.T @ chunk
    return gram


def _dft_rows() -> np.ndarray:
    """The 2 BLOCK-point DFT of a block zero-padded to 2 BLOCK rows, as a
    real (BLOCK, 2, BLOCK) matrix: rows [f, 0] and [f, 1] give the real and
    the imaginary part at frequency f, except [0, 1], which gives the real
    part at frequency BLOCK (the imaginary parts at 0 and BLOCK are 0)."""
    t = np.arange(BLOCK)
    # reduced mod 2 BLOCK first, so every angle lies in [0, 2 pi)
    angle = np.pi * (np.outer(t, t) % (2 * BLOCK)) / BLOCK
    rows = np.stack((np.cos(angle), -np.sin(angle)), axis=1)
    rows[0, 1] = (-1.0) ** t
    return rows


def _block_spectra(draws, mean) -> tuple[list[np.ndarray], np.ndarray]:
    """Spectra of the centred draws cut into blocks of BLOCK rows, and
    their Gram matrix, summed in the same pass.

    Each block is transformed once by _dft_rows, a real product that is
    faster here than an FFT of so short a block. Slot f of block a holds
    the two values of its rows [f]. The slots are kept in panels of PANEL,
    (PANEL, blocks, 2, n) arrays that together take two chain-sizes.
    """
    v, n = draws.shape
    blocks = -(-v // BLOCK)
    panels = [np.empty((PANEL, blocks, 2, n)) for _ in range(BLOCK // PANEL)]
    dft = _dft_rows().reshape(2 * BLOCK, BLOCK)
    gram = np.zeros((n, n))
    start = 0
    for chunk in _centered_chunks(draws, mean):
        gram += chunk.T @ chunk
        spectrum = np.matmul(dft, chunk.reshape(-1, BLOCK, n)).reshape(-1, BLOCK, 2, n)
        stop = start + len(spectrum)
        for i, panel in enumerate(panels):
            panel[:, start:stop] = spectrum[:, i * PANEL : (i + 1) * PANEL].swapaxes(0, 1)
        start = stop
    return panels, gram


def _lag_sums(spectra, combine) -> typing.Iterator[np.ndarray]:
    """combine @ [R_jK, ..., R_jK+K-1] for passes j = 0, 1, ..., where
    R_k = sum_t c_t c_{t+k}^T are the lag sums of the centred draws c whose
    _block_spectra are given, K = BLOCK and combine has K columns.

    With X_a the spectrum of block a, the window of blocks a and a + 1
    transforms to X_a + (-1)^f X_{a+1}, so pass j's lag sums are the
    inverse DFT of P_j + (-1)^f P_{j+1}, P_d = sum_a conj(X_a)^T X_{a+d}.
    Each P_d is a product over the stored spectra, one panel at a time, and
    serves two passes: its share of pass d - 1 completes that pass and its
    share of pass d is kept. The inverse DFT is a real product with a
    coefficient matrix, folded into combine. Each array yielded is
    overwritten when the next is made.
    """
    blocks, n = spectra[0].shape[1], spectra[0].shape[3]
    dft = _dft_rows()
    slot = np.arange(BLOCK)
    inverse = dft.transpose(2, 0, 1) / BLOCK  # (lag, slot, 2)
    # slot 0 gives P_0 + P_BLOCK and, below, P_0: lag l takes P_0 + (-1)^l P_BLOCK
    alternate = dft[0, 1]
    inverse[:, 0] = np.stack((alternate, 1.0 - alternate), axis=-1) / (2 * BLOCK)
    inverse = np.tensordot(combine, inverse, axes=1)  # (rows, slot, 2)
    rows = len(inverse)
    completing = inverse * (-1.0) ** slot[:, None]
    acc = np.zeros((2, rows, n * n))  # [0] the pass being completed, [1] the next
    part = np.empty((rows, n * n))
    cross = np.empty((PANEL, 2, n, n))
    scratch = np.empty((PANEL, n, n))
    for d in range(blocks + 1):
        for lo, panel in zip(range(0, BLOCK, PANEL), spectra):
            a, b = panel[:, : blocks - d], panel[:, d:]
            # Re P = sum_a Re X_a^T Re X_b + Im X_a^T Im X_b, one product
            # over the interleaved real and imaginary rows
            np.matmul(a.reshape(PANEL, -1, n).swapaxes(1, 2), b.reshape(PANEL, -1, n), out=cross[:, 0])
            np.matmul(a[:, :, 0].swapaxes(1, 2), b[:, :, 1], out=cross[:, 1])
            np.matmul(a[:, :, 1].swapaxes(1, 2), b[:, :, 0], out=scratch)
            cross[:, 1] -= scratch
            if lo == 0:
                np.matmul(a[0, :, 0].T, b[0, :, 0], out=cross[0, 1])
            flat = cross.reshape(-1, n * n)
            for share, coef in zip(acc, (completing, inverse)):
                np.matmul(coef[:, lo : lo + PANEL].reshape(rows, -1), flat, out=part)
                share += part
        if d:
            yield acc[0].reshape(rows, n, n)
        acc[0] = acc[1]
        acc[1] = 0.0


def minse(draws) -> CovarianceEstimate:
    """Initial monotone sequence estimator of the Monte Carlo covariance.

    Accumulates symmetrized lag-pair sums Gamma_t = Sig_{2t} + Sig_{2t+1}
    into partial sums C_t = -Sig_0 + 2 sum_{k<=t} Gamma_k and stops at the
    first t where C_t loses positive definiteness or its determinant stops
    increasing, returning the previous partial sum. The scan is capped at
    t = v/2 - 1. The lag sums come BLOCK at a time from _lag_sums.
    """
    draws = _as_draws(draws)
    v, n = draws.shape
    if v < 4:
        raise DegenerateChainError(f"need at least 4 draws for MINSE, got {v}")
    # exact: a constant coordinate's computed std need not be 0
    dead = np.flatnonzero(np.ptp(draws, axis=0) == 0.0)
    if dead.size:
        raise DegenerateChainError(
            f"zero-variance coordinate(s) {dead.tolist()}: MINSE is undefined"
        )
    spectra, gram = _block_spectra(draws, draws.mean(axis=0))
    pair_rows = np.kron(np.eye(BLOCK // 2), [1.0, 1.0])  # R_2t + R_2t+1
    lag_pairs = itertools.chain.from_iterable(_lag_sums(spectra, pair_rows))

    current = -(gram / v)
    prev = None
    prev_logdet = -np.inf
    for t, lag_pair in enumerate(itertools.islice(lag_pairs, v // 2)):
        gamma = lag_pair / v
        current = current + gamma + gamma.T  # 2 * symmetrized Gamma_t
        logdet = _chol_logdet(current)
        if logdet is None or logdet <= prev_logdet:
            if prev is None:
                raise EstimatorError(
                    "first MINSE partial sum is not positive definite; "
                    "the chain is too short or severely anticorrelated"
                )
            return CovarianceEstimate(prev, "minse", v, 2 * t)
        prev = current
        prev_logdet = logdet
    return CovarianceEstimate(prev, "minse", v, 2 * (v // 2))


@dataclass
class ChainSummary:
    """What the PSRF and the report need of one chain: the whole chain's
    (length, dim), the number v of draws after its burn-in, their mean,
    their MINSE (None when it raised) and the sign and log-determinant of
    their empirical covariance (None when v <= dim). An error met on the way
    is kept, without its traceback, and raised when the report is assembled.
    The summary holds no reference to the draws.
    """

    shape: tuple[int, int]
    v: int
    mean: np.ndarray | None  # None when the burn-in leaves no draws
    estimate: CovarianceEstimate | None
    minse_error: DegenerateChainError | EstimatorError | None
    empirical: tuple[float, float] | None

    def ess(self) -> EssResult:
        """Multivariate ESS, raising what multivariate_ess raises on the draws."""
        v, n = self.v, self.shape[1]
        if v <= n:
            raise DegenerateChainError(f"need more draws ({v}) than dimensions ({n})")
        sign_e, logdet_e = self.empirical
        if sign_e <= 0:
            raise EstimatorError("empirical covariance has nonpositive determinant")
        if self.minse_error is not None:
            raise self.minse_error
        sign_c, logdet_c = np.linalg.slogdet(self.estimate.matrix)
        if sign_c <= 0:
            raise EstimatorError("MINSE covariance has nonpositive determinant")
        return EssResult(float(v * np.exp((logdet_e - logdet_c) / n)), v)


def summarize_chain(draws, burnin: int = 0, first_row: int = 0) -> ChainSummary:
    """Summary of the draws after burnin of a chain given from row first_row
    on (0 <= first_row <= burnin), so a caller may leave the burn-in rows
    unread; other values raise ValueError.

    The draws' MINSE is computed here, once. A burn-in that leaves no draws
    gives a summary without statistics, which the report rejects.
    """
    if burnin < 0:
        raise ValueError(f"burn-in must be >= 0, got {burnin}")
    if not 0 <= first_row <= burnin:
        raise ValueError(f"first row must lie in [0, burn-in {burnin}], got {first_row}")
    draws = _as_draws(draws)
    shape = (first_row + draws.shape[0], draws.shape[1])
    if burnin and burnin >= shape[0]:
        return ChainSummary(shape, 0, None, None, None, None)
    # a C-ordered float chain is read in place, its burn-in a view
    draws = np.ascontiguousarray(draws[burnin - first_row :])
    v, n = draws.shape
    try:
        estimate, error = minse(draws), None
    except (DegenerateChainError, EstimatorError) as exc:
        # the traceback's frames would keep the draws alive
        estimate, error = None, exc.with_traceback(None)
    empirical = None if v <= n else tuple(np.linalg.slogdet(empirical_covariance(draws).matrix))
    return ChainSummary(shape, v, draws.mean(axis=0), estimate, error, empirical)


def _psrf(summaries: list[ChainSummary]) -> PsrfResult:
    """PSRF of summarized chains, after the checks they must pass: one
    shape, draws left after the burn-in, two chains at least, and a MINSE
    for each that is not degenerate (a degenerate chain's estimate is None).
    """
    if len({s.shape for s in summaries}) > 1:
        raise ValueError("all chains must share the same (length, dim) shape")
    if any(s.mean is None for s in summaries):
        raise ValueError("burn-in leaves no draws")
    m = len(summaries)
    if m < 2:
        raise ValueError("PSRF needs at least two chains")
    for s in summaries:
        if isinstance(s.minse_error, EstimatorError):
            raise s.minse_error
    v, n = summaries[0].v, summaries[0].shape[1]

    within = np.zeros((n, n))
    for s in summaries:
        if s.estimate is not None:
            within += s.estimate.matrix
    within /= m

    means = np.array([s.mean for s in summaries])
    grand = means.mean(axis=0)
    b_over_v = (means - grand).T @ (means - grand) / (m - 1)

    chol = _cholesky(within)
    regularized = chol is None
    if regularized:
        ridge = RIDGE_FACTOR * np.trace(within) / n
        if ridge <= 0.0:
            ridge = RIDGE_FACTOR
        chol = np.linalg.cholesky(within + ridge * np.eye(n))

    # With W = L L^T, W^-1 B/v has the eigenvalues of the symmetric
    # L^-1 (B/v) L^-T: the reduction LAPACK's generalized sygvd makes.
    inv_chol = np.linalg.inv(chol)
    lam = float(np.linalg.eigvalsh(inv_chol @ b_over_v @ inv_chol.T)[-1])
    value = float(np.sqrt((v - 1) / v + (m + 1) / m * lam))
    degenerate = tuple(i for i, s in enumerate(summaries) if s.estimate is None)
    return PsrfResult(value, m, v, regularized, degenerate)


def multivariate_psrf(chains) -> PsrfResult:
    """Multivariate potential scale reduction factor.

    W is the average per-chain MINSE covariance; B/v the covariance of
    the chain means (divisor m - 1). The factor is
    sqrt((v-1)/v + ((m+1)/m) * lambda_max(W^-1 B/v)). A chain that is
    constant in some coordinate contributes a zero matrix to W, and a
    singular W is ridged before the eigenproblem; both are flagged.
    """
    return _psrf(list(map(summarize_chain, chains)))


def multivariate_ess(draws) -> EssResult:
    """Multivariate effective sample size v (det E / det C)^(1/n).

    E is the empirical covariance (divisor v - 1) and C the MINSE; the
    ratio is evaluated through log-determinants.
    """
    return summarize_chain(draws).ess()


def diagnostics_report(chains, burnin: int = 0) -> dict:
    """PSRF across chains plus per-chain ESS on post-burn-in draws.

    chains may be any iterable of v x n chains; each is summarized as it
    arrives and, as map keeps no reference to it, can be freed before the
    next one is made. Returns the report dictionary of
    report_from_summaries.
    """
    return report_from_summaries(list(map(lambda chain: summarize_chain(chain, burnin), chains)))


def report_from_summaries(summaries: list[ChainSummary]) -> dict:
    """The report {psrf, regularized, degenerate_chains, ess_per_chain,
    ess_mean, minse_lag_per_chain, v, m, n} of summarized chains;
    regularized says whether the PSRF ridged a singular W,
    degenerate_chains lists the chains constant in some coordinate and
    minse_lag_per_chain gives the number of lags each chain's MINSE sums.
    Raises the first error the chains hold, in the order of the checks:
    shape, burn-in, chain count, MINSE, then each chain's ESS.
    """
    psrf = _psrf(summaries)
    ess = [s.ess().value for s in summaries]  # raises unless every MINSE was made
    return {
        "psrf": psrf.value,
        "regularized": psrf.regularized,
        "degenerate_chains": list(psrf.degenerate_chains),
        "ess_per_chain": ess,
        "ess_mean": float(np.mean(ess)),
        "minse_lag_per_chain": [s.estimate.lags for s in summaries],
        "v": psrf.chain_length,
        "m": psrf.num_chains,
        "n": summaries[0].shape[1],
    }
