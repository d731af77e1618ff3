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
        if self.lambda_policy not in ("global", "interval_sqrt", "interval_linear"):
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


def _apply_sigma(view: RegressionView, config: StatConfig) -> RegressionView:
    if config.sigma_mode == "identity" or config.sigma is None:
        return view
    return whiten(view, config.sigma)


def gram_ols_value(gram: np.ndarray, cross: np.ndarray) -> tuple[float, np.ndarray]:
    """OLS statistic sum_i c_i' G^{-1} c_i with the fitted coefficients."""
    sv = np.linalg.eigvalsh(gram)
    if sv[-1] <= 0.0 or sv[0] <= _RANK_RTOL * sv[-1]:
        raise DesignError("ill-posed design: interval Gram matrix is rank deficient")
    theta = np.linalg.solve(gram, cross)
    return float(np.sum(cross * theta)), theta


def gram_lasso_value(
    gram: np.ndarray, cross: np.ndarray, lam: float, opts: SolverOptions
) -> tuple[float, int, bool]:
    """Lasso statistic on Gram form: (value, nonzero count, converged)."""
    if 2.0 * float(np.max(np.abs(cross), initial=0.0)) <= lam:
        return 0.0, 0, True
    beta, _, converged, _ = lasso_cd_gram(gram, cross, lam, opts)
    gain = 2.0 * float(np.sum(cross * beta)) - float(np.sum(beta * (gram @ beta)))
    gain -= lam * float(np.abs(beta).sum())
    return max(gain, 0.0), int(np.count_nonzero(beta)), converged


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
    opts = opts or SolverOptions()
    gram = view.lagged.T @ view.lagged
    cross = view.lagged.T @ view.residuals
    value, nonzero, converged = gram_lasso_value(gram, cross, lam, opts)
    return IntervalStatistic(
        Interval(view.start, view.end), value, "lasso", lam, nonzero, reliable=converged,
    )


def interval_statistic(view: RegressionView, config: StatConfig, lam: float) -> IntervalStatistic:
    view = _apply_sigma(view, config)
    if config.method == "ols":
        return ols_statistic(view)
    return lasso_statistic(view, lam, config.solver)


def lambda_for_interval(
    config: StatConfig, min_length: int, p: int, n_rows: int, length: int
) -> float:
    """Penalty for one interval under the configured policy."""
    base = default_lambda(min_length, p, n_rows, config.lambda_scale)
    if config.lambda_policy == "interval_sqrt":
        return default_lambda(length, p, n_rows, config.lambda_scale)
    if config.lambda_policy == "interval_linear":
        return base * length / min_length
    return base


def interval_lambdas(
    config: StatConfig, interval_set: IntervalSet, p: int, n_rows: int
) -> np.ndarray:
    """Penalty of every interval in the set under the configured policy, in storage order."""
    return np.array(
        [
            lambda_for_interval(config, interval_set.min_length, p, n_rows, iv.length)
            for iv in interval_set.intervals
        ]
    )


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

    def statistic(self, interval: Interval, config: StatConfig, lam: float) -> IntervalStatistic:
        gram, cross = self.gram(interval)
        if config.method == "ols":
            if interval.length < self.n_series * self.q:
                raise DesignError(
                    f"interval of {interval.length} rows cannot fit {self.n_series * self.q} predictors"
                )
            value, theta = gram_ols_value(gram, cross)
            return IntervalStatistic(interval, value, "ols", 0.0, int(np.count_nonzero(theta)))
        value, nonzero, converged = gram_lasso_value(gram, cross, lam, config.solver)
        return IntervalStatistic(interval, value, "lasso", lam, nonzero, reliable=converged)

    def scan(self, interval_set: IntervalSet, config: StatConfig) -> list[IntervalStatistic]:
        """Statistics for every interval in the set, in storage order.

        Lasso scans run all intervals' decoupled problems through one
        batched coordinate descent; results match the per-interval path up
        to floating-point summation order.
        """
        ivs = interval_set.intervals
        if not ivs:
            return []
        lams = interval_lambdas(config, interval_set, self.n_series, self.n_rows)
        if config.method == "ols":
            return [self.statistic(iv, config, lam) for iv, lam in zip(ivs, lams)]
        starts = np.array([iv.start for iv in ivs])
        ends = np.array([iv.end for iv in ivs])
        if starts.min() < self.q + 1 or ends.max() > self.n_rows:
            raise DesignError("interval set escapes the usable domain of the panel")
        grams = self._gram_prefix[ends - self.q] - self._gram_prefix[starts - self.q - 1]
        crosses = self._cross_prefix[ends - self.q] - self._cross_prefix[starts - self.q - 1]
        beta, converged = lasso_cd_gram_batch(
            grams, crosses, lams, config.solver.tolerance, config.solver.max_iterations
        )
        gains = (
            2.0 * np.einsum("nmk,nmk->n", crosses, beta)
            - np.einsum("nmk,nmk->n", beta, grams @ beta)
            - lams * np.abs(beta).sum(axis=(1, 2))
        )
        values = np.maximum(gains, 0.0)
        nonzero = np.count_nonzero(beta.reshape(len(ivs), -1), axis=1)
        return [
            IntervalStatistic(iv, float(values[i]), "lasso", float(lams[i]), int(nonzero[i]),
                              reliable=bool(converged[i]))
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
