import math
import tracemalloc

import numpy as np
import pytest

from bayesmlp import diagnostics
from bayesmlp.diagnostics import (
    DegenerateChainError,
    EstimatorError,
    empirical_covariance,
    lag_autocovariance,
    minse,
    multivariate_ess,
    multivariate_psrf,
)


def ar1_chain(rng, phi, length, dim=1):
    """AR(1) sequence x_t = phi x_{t-1} + e_t with standard normal noise."""
    noise = rng.standard_normal((length, dim))
    out = np.empty((length, dim))
    out[0] = noise[0] / math.sqrt(1 - phi * phi)  # start at stationarity
    for t in range(1, length):
        out[t] = phi * out[t - 1] + noise[t]
    return out


def univariate_initial_sequence(x):
    """Scalar initial-sequence variance estimate, written independently of
    the library implementation: accumulate lag-pair sums while the running
    estimate stays positive and increasing."""
    x = np.asarray(x, dtype=float)
    v = x.size
    centered = x - x.mean()

    def gamma(k):
        return float(centered[: v - k] @ centered[k:]) / v

    best = None
    current = -gamma(0)
    for t in range(v // 2):
        current += 2.0 * (gamma(2 * t) + gamma(2 * t + 1))
        if current <= 0 or (best is not None and current <= best):
            return best
        best = current
    return best


class TestLagAutocovariance:
    def test_lag_zero_matches_sample_covariance(self, rng):
        draws = rng.standard_normal((500, 3))
        v = 500
        expected = (v - 1) / v * np.cov(draws.T, ddof=1)
        np.testing.assert_allclose(lag_autocovariance(draws, 0), expected, rtol=1e-10)

    def test_constant_chain_is_zero(self):
        draws = np.tile([1.5, -2.0], (100, 1))
        for k in (0, 1, 10):
            np.testing.assert_array_equal(lag_autocovariance(draws, k), np.zeros((2, 2)))

    def test_ar1_decay(self):
        rng = np.random.default_rng(3)
        phi = 0.5
        draws = ar1_chain(rng, phi, 100000)
        var = 1.0 / (1.0 - phi * phi)
        for k in (1, 2, 3):
            got = lag_autocovariance(draws, k)[0, 0]
            assert got == pytest.approx(phi**k * var, rel=0.05)

    def test_lag_bounds(self, rng):
        draws = rng.standard_normal((10, 2))
        with pytest.raises(ValueError):
            lag_autocovariance(draws, 10)


class TestMinse:
    def test_iid_chain_recovers_identity(self):
        rng = np.random.default_rng(11)
        draws = rng.standard_normal((100000, 3))
        est = minse(draws)
        assert est.kind == "minse"
        err = np.linalg.norm(est.matrix - np.eye(3)) / np.linalg.norm(np.eye(3))
        assert err < 0.10

    def test_ar1_asymptotic_variance(self):
        rng = np.random.default_rng(13)
        phi = 0.5
        draws = ar1_chain(rng, phi, 100000)
        var = 1.0 / (1.0 - phi * phi)
        truth = var * (1 + phi) / (1 - phi)  # 3x the marginal variance
        assert minse(draws).matrix[0, 0] == pytest.approx(truth, rel=0.15)

    def test_matches_univariate_oracle(self):
        rng = np.random.default_rng(17)
        x = ar1_chain(rng, 0.7, 5000)[:, 0]
        est = minse(x[:, None]).matrix[0, 0]
        assert est == pytest.approx(univariate_initial_sequence(x), rel=1e-10)

    def test_symmetric_and_positive_definite(self):
        rng = np.random.default_rng(19)
        draws = ar1_chain(rng, 0.3, 20000, dim=4)
        matrix = minse(draws).matrix
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-10)
        assert np.all(np.linalg.eigvalsh(matrix) > 0)

    def test_mean_shift_invariant(self):
        rng = np.random.default_rng(23)
        draws = ar1_chain(rng, 0.4, 5000, dim=2)
        shifted = draws + np.array([100.0, -40.0])
        np.testing.assert_allclose(minse(draws).matrix, minse(shifted).matrix, atol=1e-8)

    def test_too_short_rejected(self):
        with pytest.raises(DegenerateChainError):
            minse(np.zeros((3, 2)))

    def test_zero_variance_coordinate_rejected(self, rng):
        draws = np.column_stack([rng.standard_normal(50), np.ones(50)])
        with pytest.raises(DegenerateChainError, match="zero-variance"):
            minse(draws)

    def test_non_dyadic_constant_coordinate_rejected(self, rng):
        """A constant whose computed mean rounds away from it still counts."""
        draws = np.column_stack([rng.standard_normal(50), np.full(50, 0.1)])
        assert draws[:, 1].std() > 0.0
        with pytest.raises(DegenerateChainError, match=r"coordinate\(s\) \[1\]"):
            minse(draws)


class TestMultivariatePsrf:
    def test_identical_chains(self):
        rng = np.random.default_rng(29)
        draws = rng.standard_normal((2000, 3))
        result = multivariate_psrf([draws, draws.copy(), draws.copy()])
        v = 2000
        assert result.value == pytest.approx(math.sqrt((v - 1) / v), abs=1e-9)
        assert result.value < 1.0

    def test_iid_chains_converged(self):
        rng = np.random.default_rng(31)
        chains = [rng.standard_normal((50000, 3)) for _ in range(4)]
        result = multivariate_psrf(chains)
        assert result.value < 1.01

    def test_constant_distinct_chains_diverge(self):
        a = np.tile([0.0, 0.0], (100, 1))
        b = np.tile([5.0, -3.0], (100, 1))
        result = multivariate_psrf([a, b])
        assert result.value > 1.1
        assert result.regularized
        assert result.degenerate_chains == (0, 1)

    def test_chain_stuck_at_random_point_is_degenerate(self):
        """A chain stuck at a non-dyadic point is flagged like one stuck at 0."""
        rng = np.random.default_rng(89)
        walks = [np.cumsum(rng.standard_normal((400, 3)), axis=0) for _ in range(3)]
        stuck = np.tile(rng.normal(size=3), (400, 1))
        assert (stuck.std(axis=0) > 0.0).all()
        result = multivariate_psrf(walks + [stuck])
        assert result.degenerate_chains == (3,)
        assert np.isfinite(result.value)

    def test_univariate_reduction_matches_oracle(self):
        """For n=1 the multivariate factor agrees with a scalar PSRF
        computed from the independent initial-sequence estimator."""
        rng = np.random.default_rng(37)
        chains = [ar1_chain(rng, 0.5, 4000) + rng.normal(0, 0.05) for _ in range(4)]
        result = multivariate_psrf(chains)

        m, v = 4, 4000
        w = np.mean([univariate_initial_sequence(c[:, 0]) for c in chains])
        means = [c.mean() for c in chains]
        b_over_v = np.var(means, ddof=1)
        oracle = math.sqrt((v - 1) / v + (m + 1) / m * b_over_v / w)
        assert result.value == pytest.approx(oracle, rel=0.02)

    def test_mean_shift_invariant(self):
        rng = np.random.default_rng(41)
        chains = [ar1_chain(rng, 0.4, 3000, dim=2) for _ in range(3)]
        shifted = [c + np.array([7.0, -2.0]) for c in chains]
        assert multivariate_psrf(chains).value == pytest.approx(
            multivariate_psrf(shifted).value, rel=1e-10
        )

    def test_needs_two_chains(self, rng):
        with pytest.raises(ValueError):
            multivariate_psrf([rng.standard_normal((100, 2))])


class TestMultivariateEss:
    def test_iid_chain_near_full_size(self):
        rng = np.random.default_rng(43)
        draws = rng.standard_normal((100000, 3))
        assert multivariate_ess(draws).value == pytest.approx(100000, rel=0.15)

    def test_ar1_ratio_one_third(self):
        rng = np.random.default_rng(47)
        draws = ar1_chain(rng, 0.5, 100000)
        ess = multivariate_ess(draws).value
        assert ess / 100000 == pytest.approx(1 / 3, rel=0.15)

    def test_duplicated_chain_not_doubled(self):
        rng = np.random.default_rng(53)
        draws = ar1_chain(rng, 0.5, 20000, dim=2)
        doubled = np.repeat(draws, 2, axis=0)
        base = multivariate_ess(draws).value
        dup = multivariate_ess(doubled).value
        assert dup == pytest.approx(base, rel=0.3)
        assert dup < 1.5 * base

    def test_linear_map_invariant(self):
        rng = np.random.default_rng(59)
        draws = ar1_chain(rng, 0.4, 30000, dim=3)
        transform = np.array([[2.0, 0.3, 0.0], [0.0, 1.5, -0.2], [0.1, 0.0, 0.7]])
        base = multivariate_ess(draws).value
        mapped = multivariate_ess(draws @ transform.T).value
        assert mapped == pytest.approx(base, rel=0.05)

    def test_requires_more_draws_than_dims(self, rng):
        with pytest.raises(DegenerateChainError):
            multivariate_ess(rng.standard_normal((3, 3)))


class TestEmpiricalCovariance:
    def test_matches_numpy(self, rng):
        draws = rng.standard_normal((200, 4))
        np.testing.assert_allclose(
            empirical_covariance(draws).matrix, np.cov(draws.T, ddof=1), rtol=1e-12
        )


class TestDiagnosticsReport:
    def test_report_fields_and_values(self):
        rng = np.random.default_rng(61)
        chains = [rng.standard_normal((8000, 3)) for _ in range(4)]
        report = diagnostics.diagnostics_report(chains, burnin=1000)
        assert set(report) == {
            "psrf", "regularized", "degenerate_chains", "ess_per_chain", "ess_mean",
            "minse_lag_per_chain", "v", "m", "n",
        }
        assert report["regularized"] is False
        assert report["degenerate_chains"] == []
        assert report["v"] == 7000
        assert report["m"] == 4
        assert report["n"] == 3
        assert report["psrf"] < 1.01
        assert report["ess_mean"] == pytest.approx(7000, rel=0.2)
        assert len(report["ess_per_chain"]) == 4
        assert report["minse_lag_per_chain"] == [minse(c[1000:]).lags for c in chains]

    def test_matches_separate_psrf_and_ess(self):
        """One MINSE per chain gives the same numbers as the public calls."""
        rng = np.random.default_rng(67)
        chains = [ar1_chain(rng, 0.6, 3000, dim=3) for _ in range(3)]
        report = diagnostics.diagnostics_report(chains)
        assert report["psrf"] == multivariate_psrf(chains).value
        assert report["ess_per_chain"] == [multivariate_ess(c).value for c in chains]

    def test_minse_once_per_chain(self, monkeypatch):
        rng = np.random.default_rng(71)
        chains = [rng.standard_normal((500, 2)) for _ in range(3)]
        calls = []
        original = diagnostics.minse

        def counted(draws):
            calls.append(1)
            return original(draws)

        monkeypatch.setattr(diagnostics, "minse", counted)
        diagnostics.diagnostics_report(chains)
        assert len(calls) == 3

    def test_generator_gives_the_list_report(self):
        """The report and the PSRF consume any iterable of chains, one chain
        at a time, with the numbers they give for the list."""
        rng = np.random.default_rng(79)
        chains = [ar1_chain(rng, 0.6, 1200, dim=3) + 0.2 * i for i in range(4)]
        report = diagnostics.diagnostics_report((c for c in chains), burnin=200)
        assert report == diagnostics.diagnostics_report(chains, burnin=200)
        assert multivariate_psrf(iter(chains)) == multivariate_psrf(chains)

    @pytest.mark.parametrize("burnin,first_row", [(0, 10), (5, 10), (-3, 0), (-10, 0)])
    def test_summary_rows_outside_the_chain_rejected(self, burnin, first_row):
        """A first row past the burn-in, or a negative burn-in, is an error,
        not a summary of the last draws."""
        draws = np.random.default_rng(83).standard_normal((90, 2))
        with pytest.raises(ValueError):
            diagnostics.summarize_chain(draws, burnin, first_row)

    def test_negative_burnin_rejected(self):
        """A negative burn-in is an error, not a slice of the last draws."""
        rng = np.random.default_rng(73)
        chains = [rng.standard_normal((500, 2)) for _ in range(3)]
        with pytest.raises(ValueError, match="burn-in must be >= 0"):
            diagnostics.diagnostics_report(chains, burnin=-30)


def stacked_report(chains, burnin):
    """Reference PSRF and per-chain ESS on a stacked copy of the chains,
    with the chain means from np.stack(chains).mean(axis=1)."""
    stacked = np.stack(chains)[:, burnin:]
    m, v, n = stacked.shape
    within = np.zeros((n, n))
    for chain in stacked:
        within += minse(chain).matrix
    within /= m
    means = stacked.mean(axis=1)
    grand = means.mean(axis=0)
    b_over_v = (means - grand).T @ (means - grand) / (m - 1)
    inv_chol = np.linalg.inv(np.linalg.cholesky(within))
    lam = float(np.linalg.eigvalsh(inv_chol @ b_over_v @ inv_chol.T)[-1])
    psrf = float(np.sqrt((v - 1) / v + (m + 1) / m * lam))
    return psrf, [multivariate_ess(chain).value for chain in stacked]


class TestChainsInPlace:
    """diagnostics_report reads the given chains in place."""

    @pytest.mark.parametrize("burnin", [0, 250])
    @pytest.mark.parametrize("dim", [1, 4])
    def test_bits_match_stacked_reference(self, burnin, dim):
        rng = np.random.default_rng(97)
        chains = [ar1_chain(rng, 0.8, 1500, dim) + 0.3 * i for i in range(4)]
        report = diagnostics.diagnostics_report(chains, burnin=burnin)
        psrf, ess = stacked_report(chains, burnin)
        assert report["psrf"] == psrf
        assert report["ess_per_chain"] == ess
        assert report["v"] == 1500 - burnin

    def test_unequal_shapes_rejected(self, rng):
        for other in (rng.standard_normal((499, 2)), rng.standard_normal((500, 3))):
            chains = [rng.standard_normal((500, 2)), other]
            with pytest.raises(ValueError, match=r"same \(length, dim\) shape"):
                diagnostics.diagnostics_report(chains)
            with pytest.raises(ValueError, match=r"same \(length, dim\) shape"):
                multivariate_psrf(chains)

    def test_summary_peak_is_the_stored_spectra(self, monkeypatch):
        """summarize_chain holds two chain-sizes of spectra and the scan's
        buffers at its peak, and, MINSE aside, no chain-sized array: the
        draws are centred block by block for the empirical covariance too."""
        rng = np.random.default_rng(103)
        draws = ar1_chain(rng, 0.99, 9000, dim=29)

        def peak():
            diagnostics.summarize_chain(draws[:100])  # first-call allocations are not the chain's
            tracemalloc.start()
            try:
                summary = diagnostics.summarize_chain(draws)
                return summary, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        summary, whole = peak()
        assert whole < 2.3 * draws.nbytes
        monkeypatch.setattr(diagnostics, "minse", lambda chain: summary.estimate)
        assert peak()[1] < 0.25 * draws.nbytes

    def test_holds_no_copy_of_the_chains(self):
        """The allocation peak of a report stays below the chains' bytes."""
        rng = np.random.default_rng(101)
        chains = [ar1_chain(rng, 0.5, 6000, dim=9) for _ in range(4)]
        tracemalloc.start()
        try:
            diagnostics.diagnostics_report(chains, burnin=500)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < sum(chain.nbytes for chain in chains)


class RowBlocks:
    """Draws served in fresh blocks of size rows on every pass, as a chain's
    files serve them."""

    def __init__(self, draws, size):
        self.draws, self.size = draws, size

    def __iter__(self):
        for at in range(0, len(self.draws), self.size):
            yield self.draws[at : at + self.size].copy()


def same_summary(a, b):
    """Two ChainSummaries agree bit for bit, their deferred errors included."""
    assert (a.shape, a.v, a.empirical) == (b.shape, b.v, b.empirical)
    assert a.mean.tobytes() == b.mean.tobytes()
    assert (a.estimate is None) == (b.estimate is None)
    if a.estimate is not None:
        assert a.estimate.lags == b.estimate.lags
        assert a.estimate.matrix.tobytes() == b.estimate.matrix.tobytes()
    assert repr(a.minse_error) == repr(b.minse_error)


class TestStreamedSummary:
    """summarize_chain reads a chain given as blocks of rows twice, holds no
    more than a block of it, and gives the summary of the chain in memory."""

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 9, 16, 29, 64])
    def test_mean_keeps_bits(self, dim):
        """The running sum over the blocks gives the bits of mean(axis=0),
        for chain lengths that are no multiple of BLOCK and blocks of any
        size, a single row included."""
        rng = np.random.default_rng(dim)
        for v in (4, 37, 255, 256, 257, 1000, 9000, 20001):
            draws = rng.standard_normal((v, dim)) * rng.uniform(0.1, 1e3, size=dim) + 5.0
            expected = draws.mean(axis=0).tobytes()
            for size in (1, 7, 282, 4096):
                if v // size > 2000:
                    continue  # a row at a time is slow and adds nothing past this
                assert diagnostics._Draws(RowBlocks(draws, size)).mean.tobytes() == expected, (v, size)

    @pytest.mark.parametrize("size", [7, 282, 1000])
    @pytest.mark.parametrize("burnin,first_row", [(0, 0), (250, 0), (250, 250), (250, 100)])
    def test_summary_keeps_bits(self, size, burnin, first_row):
        rng = np.random.default_rng(89)
        draws = ar1_chain(rng, 0.95, 2300, dim=29) @ rng.normal(size=(29, 29))
        in_memory = diagnostics.summarize_chain(draws, burnin)
        same_summary(diagnostics.summarize_chain(RowBlocks(draws[first_row:], size), burnin, first_row), in_memory)

    @pytest.mark.parametrize("kind", ["constant", "stuck", "jump", "no more draws than dims"])
    def test_degenerate_summary_keeps_bits(self, kind):
        """Each deferred error and field of a pathological chain stays as
        it is in memory: the Gram of a chain with a dead coordinate is still
        summed for its empirical covariance."""
        rng = np.random.default_rng(91)
        draws = np.cumsum(rng.standard_normal((700, 3)), axis=0)
        if kind == "constant":
            draws[:] = 0.1
        elif kind == "stuck":
            draws[:, 1] = 0.1
        elif kind == "jump":
            draws[:] = 0.1
            draws[350:] = [1.0, 2.0, 3.0]
        else:
            draws = draws[:3]
        summary = diagnostics.summarize_chain(RowBlocks(draws, 64))
        same_summary(summary, diagnostics.summarize_chain(draws))
        assert (summary.empirical is None) == (kind == "no more draws than dims")
        assert summary.minse_error is not None

    def test_burnin_past_the_blocks(self):
        summary = diagnostics.summarize_chain(RowBlocks(np.ones((90, 2)), 32), burnin=100)
        assert (summary.shape, summary.v, summary.mean) == ((90, 2), 0, None)


class TestBlockLagSums:
    def test_matches_lag_autocovariance(self):
        """Every lag sum R_k / v of the block-DFT scan equals the lag-k
        autocovariance, for chains shorter than a block, of whole blocks and
        ending in a partial block; lags past the chain sum to zero."""
        block = diagnostics.BLOCK
        rng = np.random.default_rng(73)
        for v in (block // 2 + 3, block, block + 1, 4 * block, 4 * block + 13):
            for dim in (1, 4):
                draws = ar1_chain(rng, 0.8, v, dim) @ rng.normal(size=(dim, dim)) + 3.0
                centred = diagnostics._Draws((draws,))
                spectra, gram = diagnostics._block_spectra(centred), centred.gram
                passes = diagnostics._lag_sums(spectra, np.eye(block))
                sums = np.concatenate([lags.copy() for lags in passes]) / v
                assert len(sums) == -(-v // block) * block
                scale = np.abs(lag_autocovariance(draws, 0)).max()
                np.testing.assert_allclose(gram / v, lag_autocovariance(draws, 0), rtol=1e-13)
                for k in range(v):
                    assert np.abs(sums[k] - lag_autocovariance(draws, k)).max() < 1e-14 * scale, (v, dim, k)
                assert np.abs(sums[v:]).max(initial=0.0) < 1e-14 * scale


def direct_minse(draws):
    """MINSE by the direct scan, one product per lag pair: (matrix, number
    of lags summed), or None when the first partial sum is not positive
    definite."""
    v = draws.shape[0]
    centered = draws - draws.mean(axis=0)
    pairs = centered[:-1] + centered[1:]
    current = -(centered.T @ centered / v)
    prev, prev_logdet = None, -np.inf
    for t in range(v // 2):
        k = 2 * t
        lag_pair = centered[: v - k - 1].T @ pairs[k:] + np.outer(centered[v - k - 1], centered[v - 1])
        gamma = lag_pair / v
        current = current + gamma + gamma.T
        try:
            logdet = 2.0 * np.sum(np.log(np.diag(np.linalg.cholesky(current))))
        except np.linalg.LinAlgError:
            logdet = None
        if logdet is None or logdet <= prev_logdet:
            return None if prev is None else (prev, 2 * t)
        prev, prev_logdet = current, logdet
    return prev, 2 * (v // 2)


class TestMinseParity:
    @pytest.mark.parametrize("phi", [0.3, 0.9, 0.995])
    def test_matches_direct_scan(self, phi):
        """The block-DFT scan stops at the lag the direct scan stops at and
        returns its matrix, around the block length and at benchmark sizes,
        on AR(1) chains with mixed coordinates."""
        block = diagnostics.BLOCK
        rng = np.random.default_rng(int(phi * 1000))
        lengths = (5, block - 1, block, block + 1, 63, 64, 65, 1450, 9000)
        for v in lengths:
            for dim in (1, 3, 29):
                draws = ar1_chain(rng, phi, v, dim) @ rng.normal(size=(dim, dim))
                expected = direct_minse(draws)
                if expected is None:
                    with pytest.raises(EstimatorError, match="first MINSE partial sum"):
                        minse(draws)
                    continue
                est = minse(draws)
                assert est.lags == expected[1], (v, dim)
                np.testing.assert_allclose(est.matrix, expected[0], rtol=1e-10, err_msg=str((v, dim)))


class TestPsrfEigenproblem:
    def _scipy_psrf(self, chains, scipy_linalg):
        """Reference PSRF from the generalized symmetric eigensolver."""
        stacked = np.stack(chains)
        m, v, n = stacked.shape
        within = sum(minse(c).matrix for c in stacked) / m
        means = stacked.mean(axis=1)
        centered = means - means.mean(axis=0)
        b_over_v = centered.T @ centered / (m - 1)
        lam = scipy_linalg.eigh(b_over_v, within, eigvals_only=True)[-1]
        return math.sqrt((v - 1) / v + (m + 1) / m * lam)

    @pytest.mark.parametrize("shift", [0.0, 0.05, 1.0])
    def test_matches_scipy_generalized_eigh(self, shift):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(79)
        mixing = rng.normal(size=(5, 5))  # correlated coordinates, W far from diagonal
        chains = [ar1_chain(rng, 0.7, 2000, dim=5) @ mixing + shift * i for i in range(4)]
        assert multivariate_psrf(chains).value == pytest.approx(
            self._scipy_psrf(chains, scipy_linalg), rel=1e-10
        )
