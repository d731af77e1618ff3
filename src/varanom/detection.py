"""Detection procedures built on the interval scan.

* single-pass detection: flag the argmax interval if any statistic clears
  the threshold;
* multi-pass detection: repeatedly take the argmax among remaining
  candidates and drop everything overlapping it, yielding pairwise
  disjoint detections;
* online detection: after each new observation at time t, scan the
  geometric windows [t - 2^(j-1), t] for j = 1..floor(log2(t)) and stop at
  the first exceedance;
* threshold calibration: an empirical quantile of the per-run maximum
  statistic over simulated null panels.

Ties at the argmax break toward the earlier start, then the shorter
interval, so results are invariant to candidate storage order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ParameterError
from .estimation import SolverOptions, lasso_cd_gram_batch
from .intervals import Interval, IntervalSet
from .interval_stats import (
    IntervalStatistic,
    PanelScanner,
    StatConfig,
    inverse_sqrt_psd,
    lasso_statistic,
)
from .var_model import RegressionView, VarParams, simulate

THRESHOLD_FLOOR = 1e-12


@dataclass
class CalibrationResult:
    """Null-calibrated detection threshold and the maxima behind it."""

    threshold: float
    quantile: float
    runs: int
    max_statistics: np.ndarray

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run", "max_statistic"])
            for i, v in enumerate(self.max_statistics):
                writer.writerow([i, repr(float(v))])


@dataclass
class DetectionResult:
    """Ordered detections plus every statistic computed during the scan."""

    detected: list[IntervalStatistic]
    statistics: list[IntervalStatistic]
    threshold: float
    baseline_source: str = "known"
    excluded: list[IntervalStatistic] = field(default_factory=list)

    @property
    def detected_intervals(self) -> list[Interval]:
        return [s.interval for s in self.detected]

    def to_csv(self, path) -> None:
        flagged = {(s.interval.start, s.interval.end) for s in self.detected}
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["start", "end", "statistic", "detected"])
            for s in self.statistics:
                key = (s.interval.start, s.interval.end)
                writer.writerow([key[0], key[1], repr(float(s.value)), int(key in flagged)])


def empirical_quantile(samples: Sequence[float], quantile: float) -> float:
    """Lower order statistic: the ceil(n * quantile)-th smallest value."""
    if not 0.0 < quantile < 1.0:
        raise ParameterError("quantile must lie strictly between 0 and 1")
    ordered = np.sort(np.asarray(samples, dtype=float))
    k = math.ceil(len(ordered) * quantile)
    return float(ordered[max(k - 1, 0)])


def calibrate_threshold(
    law: VarParams,
    interval_set: IntervalSet,
    config: StatConfig,
    runs: int = 100,
    quantile: float = 0.99,
    seed: int = 0,
    baseline: Optional[np.ndarray] = None,
    burn_in: int = 200,
) -> CalibrationResult:
    """Empirical null quantile of the maximum interval statistic.

    ``law`` may be the known process or one rebuilt from estimates (a
    parametric bootstrap); ``baseline`` defaults to the law's own
    coefficients, in which case the simulated responses are pure noise.
    Each run's maximum skips unreliable statistics, as selection does.
    """
    if runs < 1:
        raise ParameterError("runs must be >= 1")
    if baseline is None:
        baseline = law.stacked
    horizon = interval_set.horizon
    seeds = np.random.SeedSequence(seed).generate_state(runs)
    sigma = config.sigma if config.sigma_mode != "identity" else None
    maxima = np.empty(runs)
    for r in range(runs):
        panel = simulate(law, horizon, burn_in=burn_in, seed=int(seeds[r]))
        scanner = PanelScanner(panel, baseline, law.q, sigma)
        maxima[r] = max_reliable_statistic(scanner.scan(interval_set, config))
    threshold = max(empirical_quantile(maxima, quantile), THRESHOLD_FLOOR)
    return CalibrationResult(threshold, quantile, runs, maxima)


def max_reliable_statistic(stats: Iterable[IntervalStatistic]) -> float:
    """Largest statistic the selection rules may compare with a threshold.

    Unreliable statistics are skipped; a scan with none reliable, or an
    empty one, gives 0.0, the value of a statistic at exactly zero.
    """
    return max((s.value for s in stats if s.reliable), default=0.0)


def _tie_key(stat: IntervalStatistic) -> tuple[float, int, int]:
    return (-stat.value, stat.interval.start, stat.interval.length)


def select_single(stats: Iterable[IntervalStatistic], threshold: float) -> list[IntervalStatistic]:
    candidates = [s for s in stats if s.reliable and s.value > threshold]
    if not candidates:
        return []
    return [min(candidates, key=_tie_key)]


def select_multiple(stats: Iterable[IntervalStatistic], threshold: float) -> list[IntervalStatistic]:
    candidates = [s for s in stats if s.reliable and s.value > threshold]
    picked: list[IntervalStatistic] = []
    while candidates:
        best = min(candidates, key=_tie_key)
        picked.append(best)
        candidates = [c for c in candidates if not c.interval.overlaps(best.interval)]
    return picked


def _run_scan(
    panel: TimeSeriesPanel,
    baseline: np.ndarray,
    interval_set: IntervalSet,
    config: StatConfig,
    threshold: float,
    q: int,
    multiple: bool,
    baseline_source: str,
) -> DetectionResult:
    if threshold <= 0:
        raise ParameterError("threshold must be strictly positive")
    sigma = config.sigma if config.sigma_mode != "identity" else None
    scanner = PanelScanner(panel, np.asarray(baseline, dtype=float), q, sigma)
    stats = scanner.scan(interval_set, config)
    excluded = [s for s in stats if not s.reliable]
    select = select_multiple if multiple else select_single
    detected = select(stats, threshold)
    return DetectionResult(detected, stats, threshold, baseline_source, excluded)


def detect_single(
    panel: TimeSeriesPanel,
    baseline: np.ndarray,
    interval_set: IntervalSet,
    config: StatConfig,
    threshold: float,
    q: int = 1,
    baseline_source: str = "known",
) -> DetectionResult:
    """Scan every interval and report the argmax if it clears the threshold."""
    return _run_scan(panel, baseline, interval_set, config, threshold, q, False, baseline_source)


def detect_multiple(
    panel: TimeSeriesPanel,
    baseline: np.ndarray,
    interval_set: IntervalSet,
    config: StatConfig,
    threshold: float,
    q: int = 1,
    baseline_source: str = "known",
) -> DetectionResult:
    """Iterated argmax detection with overlap removal; detections are disjoint."""
    return _run_scan(panel, baseline, interval_set, config, threshold, q, True, baseline_source)


def online_windows(t: int) -> list[tuple[int, int]]:
    """Geometric windows examined at time t, shortest first."""
    if t < 2:
        return []
    return [(t - 2 ** (j - 1), t) for j in range(1, int(math.floor(math.log2(t))) + 1)]


@dataclass
class OnlineAlarm:
    time: int
    window: Interval
    statistic: float


class OnlineDetector:
    """Sequential monitor that stops at the first window exceeding the threshold.

    One observation is appended at a time; monitoring starts strictly after
    ``t0`` observations have arrived. The baseline and threshold are fixed
    before monitoring begins (calibrated offline). State is not meant to be
    shared mutably across threads.

    By default every window statistic is recomputed from scratch. With
    ``incremental=True`` the detector maintains running Gram and
    cross-product prefix sums instead, which changes nothing but
    floating-point summation order (covered by tests). ``lambda_policy``
    is "global" (one penalty for every window) or "interval_linear"
    (penalty proportional to the window length, anchored at the shortest
    window of length two).
    """

    def __init__(
        self,
        baseline: np.ndarray,
        q: int,
        lam: float,
        threshold: float,
        t0: int = 10,
        solver: Optional[SolverOptions] = None,
        sigma: Optional[np.ndarray] = None,
        lambda_policy: str = "global",
        incremental: bool = False,
    ):
        if threshold <= 0:
            raise ParameterError("threshold must be strictly positive")
        if t0 < q + 1:
            raise ParameterError(
                f"monitoring start t0={t0} leaves fewer than q + 1 = {q + 1} observations for lags"
            )
        if lambda_policy not in ("global", "interval_linear", "interval_sqrt"):
            raise ParameterError(f"unknown online lambda policy {lambda_policy!r}")
        self.baseline = np.asarray(baseline, dtype=float)
        self.q = q
        self.lam = lam
        self.threshold = threshold
        self.t0 = t0
        self.solver = solver or SolverOptions()
        self.sigma = sigma
        self.lambda_policy = lambda_policy
        self.incremental = incremental
        self.stopped_at: Optional[OnlineAlarm] = None
        p = self.baseline.shape[0]
        m = self.baseline.shape[1]
        self._whiten = inverse_sqrt_psd(sigma) if sigma is not None else None
        self._data = np.empty((256, p))
        self._n = 0
        if incremental:
            self._gram_prefix = np.zeros((257, m, m))
            self._cross_prefix = np.zeros((257, m, p))

    @property
    def t(self) -> int:
        return self._n

    def _window_lambda(self, length: int) -> float:
        if self.lambda_policy == "interval_linear":
            return self.lam * length / 2.0
        if self.lambda_policy == "interval_sqrt":
            return self.lam * math.sqrt(length / 2.0)
        return self.lam

    def _append(self, x: np.ndarray) -> None:
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self._data.shape[1]:
            raise ParameterError(f"observation has {x.shape[0]} entries, expected {self._data.shape[1]}")
        if not np.all(np.isfinite(x)):
            raise ParameterError("observation contains non-finite entries")
        if self._n == self._data.shape[0]:
            grown = np.empty((2 * self._n, self._data.shape[1]))
            grown[: self._n] = self._data
            self._data = grown
            if self.incremental:
                gp = np.zeros((2 * self._n + 1,) + self._gram_prefix.shape[1:])
                gp[: self._gram_prefix.shape[0]] = self._gram_prefix
                cp = np.zeros((2 * self._n + 1,) + self._cross_prefix.shape[1:])
                cp[: self._cross_prefix.shape[0]] = self._cross_prefix
                self._gram_prefix, self._cross_prefix = gp, cp
        self._data[self._n] = x
        self._n += 1
        if self.incremental and self._n >= self.q + 1:
            t = self._n
            z = np.concatenate([self._data[t - 1 - k] for k in range(1, self.q + 1)])
            u = x - self.baseline @ z
            if self._whiten is not None:
                u = self._whiten @ u
            i = t - self.q
            self._gram_prefix[i] = self._gram_prefix[i - 1] + np.outer(z, z)
            self._cross_prefix[i] = self._cross_prefix[i - 1] + np.outer(z, u)

    def _window_statistic(self, start: int, end: int) -> IntervalStatistic:
        values = self._data
        lagged = np.hstack([values[start - 1 - k : end - k] for k in range(1, self.q + 1)])
        resid = values[start - 1 : end] - lagged @ self.baseline.T
        view = RegressionView(start, end, resid, lagged)
        return lasso_statistic(
            view, self._window_lambda(end - start + 1), self.solver, sigma=self.sigma
        )

    def _scan_windows(self, windows: list[tuple[int, int]]) -> list[IntervalStatistic]:
        if not self.incremental:
            return [self._window_statistic(s, e) for s, e in windows]
        grams = np.stack([
            self._gram_prefix[e - self.q] - self._gram_prefix[s - self.q - 1] for s, e in windows
        ])
        crosses = np.stack([
            self._cross_prefix[e - self.q] - self._cross_prefix[s - self.q - 1] for s, e in windows
        ])
        lams = np.array([self._window_lambda(e - s + 1) for s, e in windows])
        beta, converged = lasso_cd_gram_batch(
            grams, crosses, lams, self.solver.tolerance, self.solver.max_iterations
        )
        gains = (
            2.0 * np.einsum("nmk,nmk->n", crosses, beta)
            - np.einsum("nmk,nmk->n", beta, grams @ beta)
            - lams * np.abs(beta).sum(axis=(1, 2))
        )
        values = np.maximum(gains, 0.0)
        return [
            IntervalStatistic(Interval(s, e), float(values[i]), "lasso", float(lams[i]),
                              int(np.count_nonzero(beta[i])), bool(converged[i]))
            for i, (s, e) in enumerate(windows)
        ]

    def step(self, x: np.ndarray) -> list[IntervalStatistic]:
        """Ingest one observation and return every window statistic at this time.

        No stopping rule is applied; used for calibration sweeps.
        """
        self._append(x)
        t = self._n
        if t <= self.t0:
            return []
        windows = [(s, e) for s, e in online_windows(t) if s >= self.q + 1]
        return self._scan_windows(windows)

    def update(self, x: np.ndarray) -> Optional[OnlineAlarm]:
        """Ingest one observation; return an alarm if a window fires.

        Windows are checked shortest first and the monitor stops at the
        first exceedance.
        """
        if self.stopped_at is not None:
            return self.stopped_at
        for stat in self.step(x):
            if stat.reliable and stat.value > self.threshold:
                self.stopped_at = OnlineAlarm(self._n, stat.interval, stat.value)
                return self.stopped_at
        return None


def detect_online(
    stream: Iterable[np.ndarray],
    baseline: np.ndarray,
    q: int,
    lam: float,
    threshold: float,
    t0: int = 10,
    solver: Optional[SolverOptions] = None,
    sigma: Optional[np.ndarray] = None,
    lambda_policy: str = "global",
    incremental: bool = False,
) -> Optional[OnlineAlarm]:
    """Run the online monitor over a finite stream; None if it never fires."""
    detector = OnlineDetector(
        baseline, q, lam, threshold, t0, solver, sigma, lambda_policy, incremental
    )
    for x in stream:
        alarm = detector.update(x)
        if alarm is not None:
            return alarm
    return None


def online_max_statistic(
    values: np.ndarray,
    baseline: np.ndarray,
    q: int,
    lam: float,
    t0: int = 10,
    solver: Optional[SolverOptions] = None,
    sigma: Optional[np.ndarray] = None,
    lambda_policy: str = "global",
    incremental: bool = False,
) -> float:
    """Maximum statistic the online scan would inspect over a whole panel.

    Used to calibrate the online threshold on simulated null streams: no
    stopping rule is applied, every (t, window) pair contributes.
    """
    values = np.asarray(values, dtype=float)
    detector = OnlineDetector(
        baseline, q, lam, np.inf, t0, solver, sigma, lambda_policy, incremental
    )
    best = 0.0
    for x in values:
        for stat in detector.step(x):
            if stat.value > best:
                best = stat.value
    return best
