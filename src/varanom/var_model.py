"""VAR(q) processes with piecewise-constant coefficients.

Time indices are 1-based throughout: a panel with T rows carries the
observations x_1, ..., x_T and an interval [s, e] refers to those rows
inclusively. The first q rows of a panel can never be regression
responses because they lack a full set of lags.

All functions here are pure given their inputs and seed; the returned
objects are treated as immutable and are safe to share across threads.

Five input rules are defined here, each by one function that every entry
point taking the input calls: :func:`check_stacked` (a p x pq coefficient
matrix, such as a scan's or monitor's baseline), :func:`check_covariance`
(a p x p noise covariance or whitening sigma), :func:`check_burn_in`
(burn_in >= 0), :func:`check_window` (an anomaly window inside (0, T)) and
:func:`check_domain` (intervals inside the usable domain [q + 1, T]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DesignError, ParameterError


def companion_matrix(coeffs: Sequence[np.ndarray]) -> np.ndarray:
    """Stack lag matrices A_1..A_q into the pq x pq companion form."""
    q = len(coeffs)
    p = coeffs[0].shape[0]
    top = np.hstack(coeffs)
    if q == 1:
        return top
    lower = np.hstack([np.eye(p * (q - 1)), np.zeros((p * (q - 1), p))])
    return np.vstack([top, lower])


def check_stacked(
    coeffs: np.ndarray, q: int, p: Optional[int] = None, name: str = "baseline"
) -> np.ndarray:
    """``coeffs`` as a float array, checked to be p x pq; p defaults to its
    row count (1 for a scalar)."""
    coeffs = np.asarray(coeffs, dtype=float)
    p = p if p is not None else (coeffs.shape[0] if coeffs.ndim else 1)
    if coeffs.shape != (p, p * q):
        raise ParameterError(f"{name} must be {p} x {p * q}, got {coeffs.shape}")
    return coeffs


def check_covariance(cov: np.ndarray, p: int) -> np.ndarray:
    """``cov`` as a float array, checked to be p x p, finite, symmetric
    (to 1e-10) and positive definite."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (p, p):
        raise ParameterError(f"covariance must be {p} x {p}, got {cov.shape}")
    if not (np.isfinite(cov).all() and np.allclose(cov, cov.T, atol=1e-10) and np.linalg.eigvalsh(cov)[0] > 0.0):
        raise ParameterError("covariance must be symmetric positive definite")
    return cov


def check_burn_in(burn_in: int) -> None:
    """Reject a negative (or NaN) count of discarded burn-in draws."""
    if not burn_in >= 0:
        raise ParameterError(f"burn_in must be non-negative, got {burn_in}")


def check_window(window: tuple[int, int], n_rows: int) -> None:
    """Reject an anomaly window (eta1, eta2) outside 0 < eta1 < eta2 < T."""
    if not 0 < window[0] < window[1] < n_rows:
        raise ParameterError(f"anomaly window must satisfy 0 < eta1 < eta2 < T, got {window} with T={n_rows}")


def check_domain(starts, ends, n_rows: int, q: int) -> None:
    """Reject intervals [starts[i], ends[i]] (arrays or scalars) that escape
    the usable domain [q + 1, T] of a T-row panel, where every row has q lags."""
    starts, ends = np.atleast_1d(starts), np.atleast_1d(ends)
    out = np.flatnonzero((starts < q + 1) | (ends > n_rows))
    if out.size:
        first = f"[{starts[out[0]]}, {ends[out[0]]}]"
        raise DesignError(f"interval {first} escapes the usable domain [{q + 1}, {n_rows}] of the panel")


def spectral_radius(coeffs: Sequence[np.ndarray]) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(companion_matrix(coeffs)))))


@dataclass(frozen=True)
class VarParams:
    """Coefficient stack (A_1, ..., A_q) and innovation covariance of a VAR(q).

    Invariants enforced on construction: all lag matrices are p x p for a
    single p >= 1, the noise covariance is symmetric positive definite and
    the companion matrix has spectral radius strictly below one.
    """

    coeffs: tuple[np.ndarray, ...]
    noise_cov: np.ndarray

    def __post_init__(self) -> None:
        coeffs = tuple(np.array(a, dtype=float) for a in self.coeffs)
        if not coeffs:
            raise ParameterError("at least one lag matrix is required")
        p = coeffs[0].shape[0]
        for a in coeffs:
            if a.ndim != 2 or a.shape != (p, p):
                raise ParameterError("all lag matrices must be square with a common dimension")
        cov = check_covariance(np.array(self.noise_cov, dtype=float), p)
        rho = spectral_radius(coeffs)
        if rho >= 1.0:
            raise ParameterError(f"rejected parameters: companion spectral radius {rho:.4f} >= 1")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "noise_cov", cov)

    @property
    def p(self) -> int:
        return self.coeffs[0].shape[0]

    @property
    def q(self) -> int:
        return len(self.coeffs)

    @property
    def stacked(self) -> np.ndarray:
        """Coefficients as the p x pq matrix (A_1 ... A_q)."""
        return np.hstack(self.coeffs)

    @classmethod
    def from_stacked(cls, theta: np.ndarray, noise_cov: np.ndarray, q: int) -> "VarParams":
        theta = check_stacked(theta, q, name="stacked coefficients")
        p = theta.shape[0]
        coeffs = tuple(theta[:, k * p : (k + 1) * p] for k in range(q))
        return cls(coeffs, noise_cov)


@dataclass(frozen=True)
class TimeSeriesPanel:
    """T x p observation matrix, optionally carrying ordered timestamps."""

    values: np.ndarray
    timestamps: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ParameterError("panel must be a T x p matrix with T, p >= 1")
        if not np.all(np.isfinite(values)):
            raise ParameterError("panel contains non-finite entries")
        object.__setattr__(self, "values", values)
        if self.timestamps is not None:
            ts = np.asarray(self.timestamps)
            if len(ts) != values.shape[0]:
                raise ParameterError("timestamps must match the number of rows")
            if len(ts) > 1 and not np.all(ts[1:] > ts[:-1]):
                raise ParameterError("timestamps must be strictly increasing")
            object.__setattr__(self, "timestamps", ts)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_series(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class AnomalyScenario:
    """A baseline law plus one coefficient excursion on a closed window.

    The coefficients equal ``base`` outside ``window`` and ``base + delta``
    on it. The window (eta_1, eta_2) must satisfy 0 < eta_1 < eta_2 < T,
    and both regimes must be stationary.
    """

    base: VarParams
    delta: np.ndarray
    window: tuple[int, int]
    horizon: int
    burn_in: int = 200

    def __post_init__(self) -> None:
        q = self.base.q
        delta = check_stacked(np.array(self.delta, dtype=float), q, self.base.p, name="delta")
        object.__setattr__(self, "delta", delta)
        check_window(self.window, self.horizon)
        check_burn_in(self.burn_in)
        # validates stationarity of the anomalous regime as a side effect
        object.__setattr__(self, "_anomalous", VarParams.from_stacked(
            self.base.stacked + delta, self.base.noise_cov, q))

    @property
    def anomalous(self) -> VarParams:
        return self._anomalous  # type: ignore[attr-defined]


def _simulate(
    base: VarParams,
    episodes: Sequence[tuple[tuple[int, int], np.ndarray]],
    n_rows: int,
    burn_in: int,
    seed: int,
) -> TimeSeriesPanel:
    """Shared simulation kernel. Episode windows index the retained rows 1..T."""
    p, q = base.p, base.q
    stacks = [base.stacked]
    starts = np.full(n_rows + 1, 0, dtype=int)
    for (eta1, eta2), delta in episodes:
        stacks.append(base.stacked + np.asarray(delta, dtype=float))
        starts[eta1 : eta2 + 1] = len(stacks) - 1
    # one draw of every row's shocks is the same stream as a draw per row, and
    # one stacked product chol @ shock of every row is bitwise the per-row
    # product (a block shocks @ chol.T is not); cholesky(I) is exactly I
    shocks = np.random.default_rng(seed).standard_normal((burn_in + n_rows, p, 1))
    shocks = (np.linalg.cholesky(base.noise_cov) @ shocks)[:, :, 0]
    # every draw, burn-in included, is written in place into one buffer in
    # reverse time order, above q zero rows (the starting state), so the q
    # rows after a draw's are its lag vector (x_{t-1}, ..., x_{t-q}), read as
    # a view of the flat buffer; np.dot with out is the product theta @ state
    # with less call overhead
    rows = np.zeros((burn_in + n_rows + q, p))
    flat = rows.reshape(-1)
    thetas = [stacks[0]] * burn_in + [stacks[k] for k in starts[1:].tolist()]
    for i, theta, shock in zip(range(burn_in + n_rows - 1, -1, -1), thetas, shocks):
        x = rows[i]
        np.dot(theta, flat[(i + 1) * p : (i + 1 + q) * p], out=x)
        np.add(x, shock, out=x)
    return TimeSeriesPanel(rows[n_rows - 1 :: -1])


def simulate(params: VarParams, n_rows: int, burn_in: int = 200, seed: int = 0) -> TimeSeriesPanel:
    """Draw a stationary panel of exactly ``n_rows`` rows from ``params``.

    The recursion x_t = sum_k A_k x_{t-k} + eps_t starts from the zero state
    and the first ``burn_in`` draws are discarded. Deterministic given seed.
    """
    if n_rows < 1:
        raise ParameterError("n_rows must be >= 1")
    check_burn_in(burn_in)
    return _simulate(params, [], n_rows, burn_in, seed)


def simulate_with_anomaly(scenario: AnomalyScenario, seed: int = 0) -> TimeSeriesPanel:
    """Simulate a panel whose coefficients switch to base + delta on the window."""
    return _simulate(
        scenario.base,
        [(scenario.window, scenario.delta)],
        scenario.horizon,
        scenario.burn_in,
        seed,
    )


def simulate_episodes(
    base: VarParams,
    episodes: Sequence[tuple[tuple[int, int], np.ndarray]],
    n_rows: int,
    burn_in: int = 200,
    seed: int = 0,
) -> TimeSeriesPanel:
    """Simulate a panel with several non-overlapping coefficient excursions.

    Each episode is a ((eta1, eta2), delta) pair; windows are closed and must
    be disjoint and strictly inside [1, n_rows - 1]. Every excursion must be
    stationary on its own.
    """
    check_burn_in(burn_in)
    occupied = np.zeros(n_rows + 2, dtype=bool)
    for (eta1, eta2), delta in episodes:
        check_window((eta1, eta2), n_rows)
        if occupied[eta1 : eta2 + 1].any():
            raise ParameterError("episode windows must be disjoint")
        occupied[eta1 : eta2 + 1] = True
        VarParams.from_stacked(base.stacked + np.asarray(delta, float), base.noise_cov, base.q)
    return _simulate(base, episodes, n_rows, burn_in, seed)


def lag_design(values: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (Z, Y): lagged predictor rows and aligned responses.

    Row i of Z is (x_{t-1}', ..., x_{t-q}') and row i of Y is x_t' for
    t = q + 1 + i, so both have T - q rows.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if q < 0 or n <= q:
        raise DesignError(f"need more than q={q} rows, got {n}")
    if q == 0:
        return np.empty((n, 0)), values
    cols = [values[q - k : n - k] for k in range(1, q + 1)]
    return np.hstack(cols), values[q:]


@dataclass(frozen=True)
class RegressionView:
    """Baseline-adjusted regression of an interval J.

    ``residuals`` holds x_t' - (lag row) theta' for t in J as an |J| x p
    matrix; ``lagged`` holds the |J| x pq predictor rows. The implied full
    design is the block-diagonal Kronecker lift of ``lagged`` (one block per
    response coordinate) and is never materialised.
    """

    start: int
    end: int
    residuals: np.ndarray
    lagged: np.ndarray

    @property
    def n_times(self) -> int:
        return self.residuals.shape[0]

    @property
    def n_series(self) -> int:
        return self.residuals.shape[1]

    @property
    def response(self) -> np.ndarray:
        """The vectorised response, stacking the p coordinate columns."""
        return np.ravel(self.residuals, order="F")

    def full_design(self) -> np.ndarray:
        """Materialise the |J|p x p*pq block-diagonal design (tests only)."""
        return np.kron(np.eye(self.n_series), self.lagged)


def build_regression_view(
    panel: TimeSeriesPanel, baseline: np.ndarray, start: int, end: int, q: int
) -> RegressionView:
    """Build the anomaly regression for the interval [start, end].

    ``baseline`` is the p x pq coefficient matrix subtracted from the
    responses. The interval must lie within [q + 1, T] so that every row
    has q lags available.
    """
    values = panel.values
    n, p = values.shape
    baseline = check_stacked(baseline, q, p)
    if start > end:
        raise ParameterError(f"empty interval [{start}, {end}]")
    check_domain(start, end, n, q)
    lagged = np.hstack([values[start - 1 - k : end - k] for k in range(1, q + 1)])
    residuals = values[start - 1 : end] - lagged @ baseline.T
    return RegressionView(start, end, residuals, lagged)


def generate_dense_stationary(p: int, seed: int = 0, radius: float = 0.7) -> VarParams:
    """A fully dense stationary VAR(1) with identity noise covariance.

    Entries are drawn i.i.d. uniform(-1, 1), exact zeros redrawn, and the
    matrix is rescaled so its spectral radius equals ``radius``.
    """
    if p < 1:
        raise ParameterError("p must be >= 1")
    if not 0 < radius < 1:
        raise ParameterError("target spectral radius must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(p, p))
    while np.any(a == 0.0):
        zeros = a == 0.0
        a[zeros] = rng.uniform(-1.0, 1.0, size=int(zeros.sum()))
    rho = float(np.max(np.abs(np.linalg.eigvals(a))))
    if rho == 0.0:
        # possible only for p = 1 after sign cancellation, never in practice
        a = np.full((p, p), radius)
    else:
        a *= radius / rho
    return VarParams((a,), np.eye(p))


def generate_sparse_offdiag(p: int, value: float, q: int = 1) -> VarParams:
    """A VAR(q) whose first lag has ``value`` on the superdiagonal, zero elsewhere.

    The matrix is strictly upper triangular, hence nilpotent and stationary
    for any value; exactly p - 1 entries are nonzero.
    """
    if p < 1:
        raise ParameterError("p must be >= 1")
    a1 = np.zeros((p, p))
    idx = np.arange(p - 1)
    a1[idx, idx + 1] = value
    coeffs = (a1,) + tuple(np.zeros((p, p)) for _ in range(q - 1))
    return VarParams(coeffs, np.eye(p))
