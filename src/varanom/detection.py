"""Detection procedures built on the interval scan.

* single-pass detection: flag the argmax interval if any statistic clears
  the threshold;
* multi-pass detection: repeatedly take the argmax among remaining
  candidates and drop everything overlapping it, yielding pairwise
  disjoint detections;
* online detection: after each new observation at time t, scan the
  geometric windows [t - 2^(j-1), t] for j = 1..floor(log2(t)) and stop at
  the first exceedance; window statistics come from running Gram and
  cross-product prefix sums, O(t (pq)^2) memory after t observations;
* threshold calibration: an empirical quantile of the per-run maximum
  reliable statistic over simulated null panels, offline or online.

Offline scans and online windows share one statistic kernel,
:func:`varanom.interval_stats.prefix_statistics`, which also whitens:
offline by ``StatConfig.sigma``, online by the detector's ``sigma``.

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
from .estimation import SolverOptions
from .intervals import Interval, IntervalSet
from .interval_stats import (
    LAMBDA_POLICIES,
    IntervalStatistic,
    PanelScanner,
    StatConfig,
    prefix_statistics,
    scaled_lambda,
    whitening_matrix,
)
from .var_model import VarParams, simulate

THRESHOLD_FLOOR = 1e-12


@dataclass
class CalibrationResult:
    """Null-calibrated detection threshold and the maxima behind it.

    ``unreliable`` counts the statistics the maxima skipped as unreliable,
    summed over runs.
    """

    threshold: float
    quantile: float
    runs: int
    max_statistics: np.ndarray
    unreliable: int

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


def null_threshold(maxima: Sequence[float], quantile: float) -> float:
    """Empirical quantile of null maxima, floored to stay strictly positive."""
    return max(empirical_quantile(maxima, quantile), THRESHOLD_FLOOR)


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
    Each run's maximum skips unreliable statistics, as selection does, and
    the result counts them.
    """
    if runs < 1:
        raise ParameterError("runs must be >= 1")
    if baseline is None:
        baseline = law.stacked
    horizon = interval_set.horizon
    seeds = np.random.SeedSequence(seed).generate_state(runs)
    maxima = np.empty(runs)
    unreliable = 0
    for r in range(runs):
        panel = simulate(law, horizon, burn_in=burn_in, seed=int(seeds[r]))
        stats = PanelScanner(panel, baseline, law.q).scan(interval_set, config)
        maxima[r] = max_reliable_statistic(stats)
        unreliable += sum(not s.reliable for s in stats)
    return CalibrationResult(null_threshold(maxima, quantile), quantile, runs, maxima, unreliable)


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
    scanner = PanelScanner(panel, np.asarray(baseline, dtype=float), q)
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

    The detector keeps running Gram and cross-product prefix sums of the lag
    vectors and raw residuals, O(t (pq)^2) memory after t observations, and
    reads every window's blocks from two prefix entries, whitened by ``sigma``.
    ``lambda_policy`` is one of ``LAMBDA_POLICIES``: "global" uses ``lam``
    for every window, "interval_sqrt" and "interval_linear" scale it by the
    square root of, or in proportion to, the window length, anchored at the
    shortest window of two rows.
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
    ):
        if threshold <= 0:
            raise ParameterError("threshold must be strictly positive")
        if t0 < q + 1:
            raise ParameterError(
                f"monitoring start t0={t0} leaves fewer than q + 1 = {q + 1} observations for lags"
            )
        if lambda_policy not in LAMBDA_POLICIES:
            raise ParameterError(f"unknown online lambda policy {lambda_policy!r}")
        self.baseline = np.asarray(baseline, dtype=float)
        self.q = q
        self.lam = lam
        self.threshold = threshold
        self.t0 = t0
        self.solver = solver or SolverOptions()
        self.sigma = sigma
        self.lambda_policy = lambda_policy
        self.stopped_at: Optional[OnlineAlarm] = None
        p, m = self.baseline.shape
        self._whitening = whitening_matrix(sigma, p)
        self._lags = np.zeros(m)  # x_{t-1}, ..., x_{t-q} stacked
        self._n = 0
        self._gram_prefix = np.zeros((257, m, m))
        self._cross_prefix = np.zeros((257, m, p))

    @property
    def t(self) -> int:
        return self._n

    def _append(self, x: np.ndarray) -> None:
        x = np.asarray(x, dtype=float).ravel()
        p = self.baseline.shape[0]
        if x.shape[0] != p:
            raise ParameterError(f"observation has {x.shape[0]} entries, expected {p}")
        if not np.all(np.isfinite(x)):
            raise ParameterError("observation contains non-finite entries")
        self._n += 1
        i = self._n - self.q
        if i >= 1:
            if i == self._gram_prefix.shape[0]:
                self._gram_prefix = np.concatenate([self._gram_prefix, np.zeros_like(self._gram_prefix)])
                self._cross_prefix = np.concatenate([self._cross_prefix, np.zeros_like(self._cross_prefix)])
            z = self._lags
            u = x - self.baseline @ z
            self._gram_prefix[i] = self._gram_prefix[i - 1] + np.outer(z, z)
            self._cross_prefix[i] = self._cross_prefix[i - 1] + np.outer(z, u)
        self._lags = np.concatenate([x, self._lags[: (self.q - 1) * p]])

    def step(self, x: np.ndarray) -> list[IntervalStatistic]:
        """Ingest one observation and return every window statistic at this time.

        No stopping rule is applied; used for calibration sweeps.
        """
        self._append(x)
        t = self._n
        if t <= self.t0:
            return []
        starts = np.array([s for s, _ in online_windows(t) if s >= self.q + 1], dtype=int)
        lams = scaled_lambda(self.lam, t - starts + 1, 2, self.lambda_policy)
        values, nonzero, reliable = prefix_statistics(
            self._gram_prefix, self._cross_prefix, starts - self.q - 1,
            np.full(starts.size, t - self.q), lams, "lasso", self.solver, self._whitening,
        )
        return [
            IntervalStatistic(Interval(int(s), t), float(values[i]), "lasso", float(lams[i]),
                              int(nonzero[i]), bool(reliable[i]))
            for i, s in enumerate(starts)
        ]

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
) -> Optional[OnlineAlarm]:
    """Run the online monitor over a finite stream; None if it never fires."""
    detector = OnlineDetector(baseline, q, lam, threshold, t0, solver, sigma, lambda_policy)
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
) -> float:
    """Maximum reliable statistic the online scan would inspect over a whole panel.

    Used to calibrate the online threshold on simulated null streams: no
    stopping rule is applied, and every (t, window) pair contributes unless
    its statistic is unreliable, which the alarm rule of
    :meth:`OnlineDetector.update` skips as well.
    """
    values = np.asarray(values, dtype=float)
    detector = OnlineDetector(baseline, q, lam, np.inf, t0, solver, sigma, lambda_policy)
    return max((max_reliable_statistic(detector.step(x)) for x in values), default=0.0)
