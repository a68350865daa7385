"""Convergence and effectiveness diagnostics: lag autocovariances, the
multivariate initial monotone sequence estimator (MINSE) of Monte Carlo
covariance, multivariate PSRF across chains and multivariate ESS per chain.

MINSE dominates the cost: its scan takes one O(v n^2) product per lag pair.
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

from dataclasses import dataclass

import numpy as np

#: Relative ridge added to a singular within-chain covariance before the
#: PSRF eigenproblem; falls back to an absolute 1e-10 when the trace is zero.
RIDGE_FACTOR = 1e-10


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
    """Sample covariance with divisor v - 1."""
    draws = _as_draws(draws)
    v = draws.shape[0]
    if v < 2:
        raise DegenerateChainError("need at least two draws for a covariance")
    centered = draws - draws.mean(axis=0)
    return CovarianceEstimate(centered.T @ centered / (v - 1), "empirical", v)


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


def _lag_pair(centered, pairs, k: int) -> np.ndarray:
    """v (Sig_k + Sig_{k+1}) of centered draws as a single product.

    pairs holds centered[:-1] + centered[1:], so for k + 1 < v
    sum_i c_i c_{i+k}^T + sum_i c_i c_{i+k+1}^T
    = c[:v-k-1]^T (c[k:v-1] + c[k+1:]) + c_{v-k-1} c_{v-1}^T.
    """
    v = centered.shape[0]
    return centered[: v - k - 1].T @ pairs[k:] + np.outer(centered[v - k - 1], centered[v - 1])


def minse(draws) -> CovarianceEstimate:
    """Initial monotone sequence estimator of the Monte Carlo covariance.

    Accumulates symmetrized lag-pair sums Gamma_t = Sig_{2t} + Sig_{2t+1}
    into partial sums C_t = -Sig_0 + 2 sum_{k<=t} Gamma_k and stops at the
    first t where C_t loses positive definiteness or its determinant stops
    increasing, returning the previous partial sum. The scan is capped at
    t = v/2 - 1.
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
    centered = draws - draws.mean(axis=0)
    pairs = centered[:-1] + centered[1:]

    current = -(centered.T @ centered / v)
    prev = None
    prev_logdet = -np.inf
    for t in range(v // 2):
        gamma = _lag_pair(centered, pairs, 2 * t) / v
        current = current + gamma + gamma.T  # 2 * symmetrized Gamma_t
        logdet = _chol_logdet(current)
        if logdet is None or logdet <= prev_logdet:
            if prev is None:
                raise EstimatorError(
                    "first MINSE partial sum is not positive definite; "
                    "the chain is too short or severely anticorrelated"
                )
            return CovarianceEstimate(prev, "minse", v)
        prev = current.copy()
        prev_logdet = logdet
    return CovarianceEstimate(prev, "minse", v)


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
    on (first_row <= burnin), so a caller may leave the burn-in rows unread.

    The draws' MINSE is computed here, once. A burn-in that leaves no draws
    gives a summary without statistics, which the report rejects.
    """
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
    if burnin < 0:
        raise ValueError(f"burn-in must be >= 0, got {burnin}")
    return report_from_summaries(list(map(lambda chain: summarize_chain(chain, burnin), chains)))


def report_from_summaries(summaries: list[ChainSummary]) -> dict:
    """The report {psrf, regularized, degenerate_chains, ess_per_chain,
    ess_mean, v, m, n} of summarized chains; regularized says whether the
    PSRF ridged a singular W, degenerate_chains lists the chains constant in
    some coordinate. Raises the first error the chains hold, in the order
    of the checks: shape, burn-in, chain count, MINSE, then each chain's ESS.
    """
    psrf = _psrf(summaries)
    ess = [s.ess().value for s in summaries]
    return {
        "psrf": psrf.value,
        "regularized": psrf.regularized,
        "degenerate_chains": list(psrf.degenerate_chains),
        "ess_per_chain": ess,
        "ess_mean": float(np.mean(ess)),
        "v": psrf.chain_length,
        "m": psrf.num_chains,
        "n": summaries[0].shape[1],
    }
