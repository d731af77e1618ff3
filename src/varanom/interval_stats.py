"""Interval test statistics for the anomaly scan.

For an interval J with baseline-adjusted response Y_J and block-diagonal
design X_J (the Kronecker lift of the lagged rows), two statistics are
available:

* OLS:    T(J) = ||Y_J||^2 - min_B ||Y_J - X_J B||^2
* lasso:  T(J) = ||Y_J||^2 - min_B { ||Y_J - X_J B||^2 + lam ||B||_1 }

Both decouple into p single-response problems sharing one Gram matrix,
which is how they are computed here; the equivalence with the monolithic
problem is covered by tests. The lasso statistic is clamped at zero and is
exactly zero whenever lam >= 2 ||X_J' Y_J||_inf.

One kernel, :func:`prefix_statistics`, computes the statistics of the
offline scan, of calibration and of the online monitor: each interval's
Gram and cross-product blocks are the difference of two prefix-sum
entries, the lasso statistics of all intervals come from one batched
solve, and the OLS ones from one solve per interval. ``ols_statistic``,
``lasso_statistic`` and ``whiten`` compute a statistic directly from a
regression view; they are the independent reference the kernel is tested
against.

Statistics over distinct intervals are independent pure computations; the
scan may be parallelised freely and reduces deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DesignError, ParameterError
from .estimation import SolverOptions, lasso_cd_gram, lasso_cd_gram_batch
from .intervals import Interval, IntervalSet
from .var_model import RegressionView, TimeSeriesPanel

_RANK_RTOL = 1e-10
LAMBDA_POLICIES = ("global", "interval_sqrt", "interval_linear")


@dataclass
class StatConfig:
    """How interval statistics are computed.

    ``sigma_mode`` is one of "identity", "known" or "estimated"; for the
    latter two ``sigma`` carries the (estimated) innovation covariance used
    for whitening. ``lambda_scale`` is the constant in front of the default
    penalty rate.

    ``lambda_policy`` controls how the scan assigns a penalty to each
    interval. "global" (default) uses the set-level minimum length L for
    every interval; "interval_sqrt" substitutes each interval's own length
    into the rate; "interval_linear" scales the global penalty by |J| / L,
    which is what an interval-length-normalised squared error implies and
    is the policy the replication studies use.
    """

    method: str = "lasso"
    lambda_scale: float = 0.15
    sigma_mode: str = "identity"
    sigma: Optional[np.ndarray] = None
    solver: SolverOptions = field(default_factory=SolverOptions)
    lambda_policy: str = "global"

    def __post_init__(self) -> None:
        if self.method not in ("lasso", "ols"):
            raise ParameterError(f"unknown method {self.method!r}")
        if self.lambda_scale < 0:
            raise ParameterError("lambda constant must be non-negative")
        if self.sigma_mode not in ("identity", "known", "estimated"):
            raise ParameterError(f"unknown sigma mode {self.sigma_mode!r}")
        if self.sigma_mode != "identity" and self.sigma is None:
            raise ParameterError(f"sigma mode {self.sigma_mode!r} requires a covariance matrix")
        if self.lambda_policy not in LAMBDA_POLICIES:
            raise ParameterError(f"unknown lambda policy {self.lambda_policy!r}")


@dataclass(frozen=True)
class IntervalStatistic:
    interval: Interval
    value: float
    method: str
    lam: float
    nonzero: int
    reliable: bool = True


def default_lambda(min_length: int, p: int, n_rows: int, scale: float = 0.15) -> float:
    """The tuning-parameter rate scale * sqrt(L (2 log p + log T)), natural logs."""
    if min_length < 1 or p < 1 or n_rows < 1:
        raise ParameterError("min_length, p and n_rows must all be >= 1")
    if scale < 0:
        raise ParameterError("scale must be non-negative")
    return scale * math.sqrt(min_length * (2.0 * math.log(p) + math.log(n_rows)))


def inverse_sqrt_psd(sigma: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root of a positive definite matrix."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ParameterError("covariance must be square")
    if not np.allclose(sigma, sigma.T, atol=1e-10):
        raise ParameterError("covariance must be symmetric")
    w, v = np.linalg.eigh(sigma)
    if np.min(w) <= 0.0:
        raise ParameterError("covariance must be positive definite")
    return (v / np.sqrt(w)) @ v.T


def whiten(view: RegressionView, sigma: np.ndarray) -> RegressionView:
    """Left-multiply each time slice of the response by sigma^(-1/2).

    The predictor block is unchanged: the transformation reparametrises the
    coefficient matrix, so the whitened view keeps the block-diagonal
    structure. Passing the identity returns the view untouched.
    """
    sigma = np.asarray(sigma, dtype=float)
    if np.array_equal(sigma, np.eye(view.n_series)):
        return view
    w = inverse_sqrt_psd(sigma)
    return RegressionView(view.start, view.end, view.residuals @ w, view.lagged)


def gram_ols_value(gram: np.ndarray, cross: np.ndarray) -> tuple[float, np.ndarray]:
    """OLS statistic sum_i c_i' G^{-1} c_i with the fitted coefficients."""
    sv = np.linalg.eigvalsh(gram)
    if sv[-1] <= 0.0 or sv[0] <= _RANK_RTOL * sv[-1]:
        raise DesignError("ill-posed design: interval Gram matrix is rank deficient")
    theta = np.linalg.solve(gram, cross)
    return float(np.sum(cross * theta)), theta


def ols_statistic(view: RegressionView, sigma: Optional[np.ndarray] = None) -> IntervalStatistic:
    """Squared norm of the projection of the response onto the design space."""
    if sigma is not None:
        view = whiten(view, sigma)
    n, m = view.lagged.shape
    if n < m:
        raise DesignError(f"ill-posed design: interval of {n} rows cannot fit {m} predictors")
    sv = np.linalg.svd(view.lagged, compute_uv=False)
    if m > 0 and sv[-1] <= _RANK_RTOL * sv[0]:
        raise DesignError("ill-posed design: rank deficient within tolerance")
    gram = view.lagged.T @ view.lagged
    cross = view.lagged.T @ view.residuals
    value, theta = gram_ols_value(gram, cross)
    return IntervalStatistic(
        Interval(view.start, view.end), value, "ols", 0.0, int(np.count_nonzero(theta)),
    )


def lasso_statistic(
    view: RegressionView,
    lam: float,
    opts: SolverOptions | None = None,
    sigma: Optional[np.ndarray] = None,
) -> IntervalStatistic:
    """Penalised objective gain of the interval, clamped at zero.

    Computed through p decoupled single-response lassos. A solve that does
    not converge marks the statistic unreliable instead of hiding it.
    """
    if lam < 0:
        raise ParameterError("lasso penalty must be non-negative")
    if sigma is not None:
        view = whiten(view, sigma)
    gram = view.lagged.T @ view.lagged
    cross = view.lagged.T @ view.residuals
    if 2.0 * float(np.max(np.abs(cross), initial=0.0)) <= lam:
        return IntervalStatistic(Interval(view.start, view.end), 0.0, "lasso", lam, 0)
    beta, _, converged, _ = lasso_cd_gram(gram, cross, lam, opts or SolverOptions())
    gain = 2.0 * float(np.sum(cross * beta)) - float(np.sum(beta * (gram @ beta)))
    gain -= lam * float(np.abs(beta).sum())
    return IntervalStatistic(
        Interval(view.start, view.end), max(gain, 0.0), "lasso", lam,
        int(np.count_nonzero(beta)), reliable=converged,
    )


def scaled_lambda(base: float, length, anchor: int, policy: str) -> np.ndarray:
    """Penalty of windows of ``length`` rows under ``policy``; ``base`` at ``anchor`` rows.

    "global" keeps ``base`` for every length, "interval_sqrt" scales it by
    sqrt(length / anchor) and "interval_linear" by length / anchor. The
    offline scan anchors at the set's minimum length, the online monitor at
    its shortest window of two rows. ``length`` may be an array.
    """
    length = np.asarray(length)
    if policy == "interval_sqrt":
        return base * np.sqrt(length / anchor)
    if policy == "interval_linear":
        return base * length / anchor
    return np.full(length.shape, float(base))


def interval_lambdas(
    config: StatConfig, interval_set: IntervalSet, p: int, n_rows: int
) -> np.ndarray:
    """Penalty of every interval in the set under the configured policy, in storage order."""
    base = default_lambda(interval_set.min_length, p, n_rows, config.lambda_scale)
    lengths = np.array([iv.length for iv in interval_set.intervals], dtype=int)
    return scaled_lambda(base, lengths, interval_set.min_length, config.lambda_policy)


def prefix_statistics(
    gram_prefix: np.ndarray,
    cross_prefix: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    lams: np.ndarray,
    method: str,
    solver: SolverOptions,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Statistics of the intervals whose blocks are ``prefix[hi[i]] - prefix[lo[i]]``.

    ``gram_prefix`` is (rows, m, m) and ``cross_prefix`` (rows, m, p), running
    sums of z_t z_t' and z_t u_t' over lag vectors z_t and (whitened) residuals
    u_t, so ``hi[i] - lo[i]`` is interval i's length. Lasso statistics come from
    one batched solve with penalties ``lams``; OLS ones from one solve per
    interval, which keeps a single pair of blocks in memory at a time and
    ignores ``lams``. Returns arrays (values, nonzero, reliable), one entry per
    interval: the statistic clamped at zero, the count of non-zero
    coefficients, and whether the lasso solve converged (always True for OLS).
    """
    n = len(lo)
    if method == "ols":
        m = gram_prefix.shape[1]
        values = np.empty(n)
        nonzero = np.empty(n, dtype=int)
        for i, (a, b) in enumerate(zip(lo, hi)):
            if b - a < m:
                raise DesignError(f"interval of {b - a} rows cannot fit {m} predictors")
            values[i], theta = gram_ols_value(
                gram_prefix[b] - gram_prefix[a], cross_prefix[b] - cross_prefix[a]
            )
            nonzero[i] = np.count_nonzero(theta)
        return values, nonzero, np.ones(n, dtype=bool)
    grams = gram_prefix[hi] - gram_prefix[lo]
    crosses = cross_prefix[hi] - cross_prefix[lo]
    beta, converged = lasso_cd_gram_batch(
        grams, crosses, lams, solver.tolerance, solver.max_iterations
    )
    gains = (
        2.0 * np.einsum("nmk,nmk->n", crosses, beta)
        - np.einsum("nmk,nmk->n", beta, grams @ beta)
        - lams * np.abs(beta).sum(axis=(1, 2))
    )
    return np.maximum(gains, 0.0), np.count_nonzero(beta.reshape(n, -1), axis=1), converged


class PanelScanner:
    """Precomputed prefix sums for constant-time per-interval Gram matrices.

    Building the scanner costs O(T (pq)^2); each interval statistic then
    reads its Gram and cross-product blocks by subtracting two prefix
    entries, independently of the interval length. Results agree with the
    direct per-view computation up to floating-point summation order.
    """

    def __init__(
        self,
        panel: TimeSeriesPanel,
        baseline: np.ndarray,
        q: int,
        sigma: Optional[np.ndarray] = None,
    ):
        values = panel.values
        n, p = values.shape
        if n <= q:
            raise DesignError(f"panel of {n} rows cannot support order q={q}")
        baseline = np.asarray(baseline, dtype=float)
        if baseline.shape != (p, p * q):
            raise ParameterError(f"baseline must be {p} x {p * q}, got {baseline.shape}")
        lagged = np.hstack([values[q - k : n - k] for k in range(1, q + 1)])
        resid = values[q:] - lagged @ baseline.T
        if sigma is not None and not np.array_equal(sigma, np.eye(p)):
            resid = resid @ inverse_sqrt_psd(sigma)
        m = p * q
        self.q = q
        self.n_rows = n
        self.n_series = p
        self._gram_prefix = np.zeros((n - q + 1, m, m))
        np.cumsum(np.einsum("ti,tj->tij", lagged, lagged), axis=0, out=self._gram_prefix[1:])
        self._cross_prefix = np.zeros((n - q + 1, m, p))
        np.cumsum(np.einsum("ti,tj->tij", lagged, resid), axis=0, out=self._cross_prefix[1:])

    def gram(self, interval: Interval) -> tuple[np.ndarray, np.ndarray]:
        if interval.start < self.q + 1 or interval.end > self.n_rows:
            raise DesignError(
                f"interval [{interval.start}, {interval.end}] outside usable domain "
                f"[{self.q + 1}, {self.n_rows}]"
            )
        a = interval.start - self.q - 1
        b = interval.end - self.q
        gram = self._gram_prefix[b] - self._gram_prefix[a]
        cross = self._cross_prefix[b] - self._cross_prefix[a]
        return gram, cross

    def scan(self, interval_set: IntervalSet, config: StatConfig) -> list[IntervalStatistic]:
        """Statistics for every interval in the set, in storage order.

        Computed by :func:`prefix_statistics`; results match the direct
        per-view computation up to floating-point summation order.
        """
        ivs = interval_set.intervals
        if not ivs:
            return []
        starts = np.array([iv.start for iv in ivs])
        ends = np.array([iv.end for iv in ivs])
        if starts.min() < self.q + 1 or ends.max() > self.n_rows:
            raise DesignError("interval set escapes the usable domain of the panel")
        if config.method == "ols":
            lams = np.zeros(len(ivs))
        else:
            lams = interval_lambdas(config, interval_set, self.n_series, self.n_rows)
        values, nonzero, reliable = prefix_statistics(
            self._gram_prefix, self._cross_prefix, starts - self.q - 1, ends - self.q,
            lams, config.method, config.solver,
        )
        return [
            IntervalStatistic(iv, float(values[i]), config.method, float(lams[i]),
                              int(nonzero[i]), reliable=bool(reliable[i]))
            for i, iv in enumerate(ivs)
        ]


def scan_intervals(
    panel: TimeSeriesPanel,
    baseline: np.ndarray,
    interval_set: IntervalSet,
    config: StatConfig,
    q: int,
) -> list[IntervalStatistic]:
    """Scan a panel over an interval collection with the configured statistic."""
    scanner = PanelScanner(panel, baseline, q, config.sigma if config.sigma_mode != "identity" else None)
    return scanner.scan(interval_set, config)
