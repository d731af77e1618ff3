"""Detection procedures built on the interval scan.

* single-pass detection: flag the argmax interval if any statistic clears
  the threshold;
* multi-pass detection: repeatedly take the argmax among remaining
  candidates and drop everything overlapping it, yielding pairwise
  disjoint detections;
* online detection: after each new observation at time t, scan the
  geometric windows [t - 2^(j-1), t] for j = 1..floor(log2(t)) and stop at
  the first exceedance. ``OnlineDetector`` steps row by row over running
  Gram and cross-product prefix sums, O(t (pq)^2) memory after t
  observations; ``detect_online`` walks a finite stream's windows through a
  :class:`~varanom.interval_stats.PanelScanner` and stops at the first
  chunk holding a reliable exceedance;
* threshold calibration: an empirical quantile of the per-run maximum
  reliable statistic over simulated null panels, offline or online. Both
  read only each run's maximum, through
  :func:`~varanom.interval_stats.lasso_maximum` over the chunks of a
  bracketed walk of a :class:`~varanom.interval_stats.PanelScanner`
  (:meth:`~varanom.interval_stats.PanelScanner._bracketed`), which solves
  in full only the lasso intervals a duality-gap bracket cannot rule out
  and carries its best value from one chunk to the next: offline from
  :meth:`~varanom.interval_stats.PanelScanner.max_statistic`, online from
  :func:`online_max_statistic`. Offline, one scanner serves every run,
  refilled from each run's panel, and builds each run's prefix rows once
  through one walk plan, in a pool it reuses for every run: an OLS run
  walks the set a kernel chunk at a time and holds a row, pq (pq + 1) / 2
  + pq p doubles, only until its last reader is done; a lasso run takes
  the set as one chunk, holding every row it reads, and screens, brackets
  and solves it in solver batches (163 intervals at p = 10), each of which
  gathers its own blocks. Online, the scanner walks every window of the
  stream a kernel chunk at a time, and holds a row only until its last
  reader is done.

Offline scans and online windows share one statistic kernel,
:func:`varanom.interval_stats.prefix_statistics`, which also whitens:
offline by ``StatConfig.sigma``, online by the detector's ``sigma``. The
kernel screens a window by the KKT test at zero on its cross block before
it gathers the window's Gram block, so an online step whose windows are
all zero, the common case at the online study's penalties, costs one
cross-block gather.

``OnlineDetector.step`` and ``update`` ingest one row at a time, form
each residual as the product x_t - B z_t of that row, and write each
prefix row through :func:`~varanom.interval_stats._prefix_step`, one row
of the scanner's build, in arrays laid out by
:func:`~varanom.interval_stats._prefix_arrays`. A
:class:`~varanom.interval_stats.PanelScanner` forms its residuals with one
stacked product that is bitwise the same, row by row, so over the same
rows its prefix sums, and every window statistic read from them, are
bitwise the detector's. ``detect_online`` and ``online_max_statistic``
check the rows as ``step`` does, build one scanner over the rows, and walk
every window of every time in kernel chunks
(:func:`~varanom.interval_stats._kernel_chunk`), in time order, then shortest
window (:meth:`OnlineDetector._stream_walk`), through the bracketed walk
the offline maximum reads. The maximum takes every chunk, bitwise the
maximum of a ``step`` loop. ``detect_online`` solves in full, in order,
only the windows of a chunk whose upper bound exceeds the threshold, first
up to the first one whose bracket value already exceeds it, and stops at
the first chunk holding a reliable exceedance. Both it and ``update`` read
the alarm through :func:`_first_alarm`, so it is bitwise the alarm of an
``update`` loop.

Offline detection picks as :func:`select_single` or :func:`select_multiple`
would on a full scan. OLS selects on :meth:`PanelScanner.scan`. A lasso
detection (:func:`_run_scan`) takes its set as the one chunk of a
bracketed walk instead (:meth:`PanelScanner._bracketed`), which screens
every interval and brackets every busy one, and then solves in full only
the rows that could still change a pick (:func:`_open_rows`), selecting
again after each batch.
The picks and their values are bitwise a full scan's. A row left unsolved
holds the bracket [value, upper] of its statistic and is unreliable, so no
rule reads its lower bound as a statistic; ``DetectionResult.to_csv``
writes the bracket and whether each row was solved.

A scan, and an online step, return a
:class:`~varanom.interval_stats.ScanResult`, the kernel's result columns;
its items are :class:`~varanom.interval_stats.IntervalStatistic` objects
built on demand. Selection, the maxima, the online alarm and
``DetectionResult.to_csv`` read the columns. Selection ranks the eligible
rows once with a stable sort by the tie key (-value, start, length), so
ties at the argmax break toward the earlier start, then the shorter
interval, then storage order (a duplicated interval is the same row
twice), and results are invariant to candidate storage order.

Three input rules are defined here, each by one function that every entry
point taking the input calls: :func:`check_threshold` (a threshold > 0),
:func:`check_quantile` (a quantile in (0, 1), which calibration and the
studies check before their first run) and :func:`_check_rows` (observation
rows of p finite entries, checked on every online step). The online monitor
checks its penalty through :func:`~varanom.estimation.check_non_negative`,
its baseline through :func:`~varanom.var_model.check_stacked`, and its
lambda policy and solver options by building a ``StatConfig``, so each
fails as the offline scan's does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ParameterError
from .estimation import SolverOptions, check_non_negative
from .evaluation import write_table
from .intervals import Interval, IntervalSet, check_count
from .interval_stats import (
    IntervalStatistic,
    PanelScanner,
    ScanResult,
    StatConfig,
    _kernel_chunk,
    _prefix_arrays,
    _prefix_step,
    prefix_statistics,
    scaled_lambda,
    whitening_matrix,
)
from .var_model import TimeSeriesPanel, VarParams, check_covariance, check_domain, check_stacked, simulate

THRESHOLD_FLOOR = 1e-12
# t - start of the online windows: 2^(j-1) for j = 1..62, every window an
# int64 time can have.
_WINDOW_OFFSETS = 1 << np.arange(62, dtype=np.int64)


@dataclass
class CalibrationResult:
    """Null-calibrated detection threshold and the maxima behind it.

    Summed over runs, ``unreliable`` counts the statistics that were solved
    to the end and skipped by the maxima as unreliable, and ``pruned`` the
    lasso statistics a duality-gap bracket certified below their run's
    maximum without a full solve (:meth:`PanelScanner.max_statistic`). A
    pruned statistic cannot be its run's maximum, so it is never counted as
    unreliable.
    """

    threshold: float
    quantile: float
    runs: int
    max_statistics: np.ndarray
    unreliable: int
    pruned: int

    def to_csv(self, path) -> None:
        rows = ([i, repr(float(v))] for i, v in enumerate(self.max_statistics))
        write_table(path, ["run", "max_statistic"], rows)


@dataclass
class DetectionResult:
    """Ordered detections plus the scan they were picked from.

    An OLS scan is exact. A lasso scan is bracketed (:func:`_run_scan`): a
    row with ``statistics.solved`` False was never solved in full, holds
    the bracket [value, upper] of its statistic and is unreliable, and
    ``pruned`` counts those rows (0 for an exact scan).
    """

    detected: list[IntervalStatistic]
    statistics: ScanResult
    threshold: float

    @property
    def detected_intervals(self) -> list[Interval]:
        return [s.interval for s in self.detected]

    @property
    def pruned(self) -> int:
        solved = self.statistics.solved
        return 0 if solved is None else int(np.count_nonzero(~solved))

    def to_csv(self, path) -> None:
        """One row per statistic: start, end, statistic, upper, solved and
        detected. On an unsolved row (``solved`` 0) the statistic column
        holds only the bracket's lower bound and ``upper`` its upper bound;
        on a solved row, and on every row of an exact scan, ``upper`` is the
        statistic and ``solved`` is 1."""
        stats = self.statistics
        flagged = {(s.interval.start, s.interval.end) for s in self.detected}
        upper = stats.values if stats.upper is None else stats.upper
        solved = np.ones(len(stats), dtype=bool) if stats.solved is None else stats.solved
        columns = zip(
            stats.starts.tolist(), stats.ends.tolist(), stats.values.tolist(), upper.tolist(), solved.tolist()
        )
        rows = ([a, b, repr(v), repr(u), int(k), int((a, b) in flagged)] for a, b, v, u, k in columns)
        write_table(path, ["start", "end", "statistic", "upper", "solved", "detected"], rows)


def check_quantile(quantile: float) -> None:
    """Reject a quantile outside (0, 1); NaN fails."""
    if not 0.0 < quantile < 1.0:
        raise ParameterError(f"quantile must lie strictly between 0 and 1, got {quantile}")


def check_threshold(threshold: float) -> float:
    """``threshold``, checked to be strictly positive; NaN fails."""
    if not threshold > 0:
        raise ParameterError(f"threshold must be strictly positive, got {threshold}")
    return threshold


def _check_rows(rows: np.ndarray, p: int) -> np.ndarray:
    """``rows``, float observations along the last axis, checked to have p
    entries each, all finite. Cheap enough for every online step."""
    if rows.shape[-1] != p:
        raise ParameterError(f"observation has {rows.shape[-1]} entries, expected {p}")
    if not np.isfinite(rows).all():
        raise ParameterError("observation contains non-finite entries")
    return rows


def empirical_quantile(samples: Sequence[float], quantile: float) -> float:
    """Lower order statistic: the ceil(n * quantile)-th smallest value."""
    check_quantile(quantile)
    if len(samples) == 0:
        raise ParameterError("a quantile needs at least one sample")
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
    Each run's maximum skips unreliable statistics, as selection does; it
    comes from :meth:`PanelScanner.max_statistic`, bitwise the maximum of a
    full scan. Every run's panel has the same shape, so one
    :class:`PanelScanner` serves them all: each run after the first refills
    it, and it makes the set's walk plan and prefix arrays once and builds
    each run's rows into them, with bitwise the sums a fresh scanner builds.
    ``runs``, ``quantile``, ``config.sigma`` (against ``law.p``, by
    ``check_covariance``), a given ``baseline`` (``check_stacked``) and the
    set's intervals (``check_domain`` over its horizon) are checked before
    the first run.
    """
    check_count(runs, "runs")
    check_quantile(quantile)
    if config.sigma is not None:
        check_covariance(config.sigma, law.p)
    baseline = law.stacked if baseline is None else check_stacked(baseline, law.q, law.p)
    horizon = interval_set.horizon
    check_domain(interval_set.starts, interval_set.ends, horizon, law.q)
    seeds = np.random.SeedSequence(seed).generate_state(runs)
    maxima = np.empty(runs)
    unreliable = pruned = 0
    for r in range(runs):
        panel = simulate(law, horizon, burn_in=burn_in, seed=int(seeds[r]))
        if r == 0:
            scanner = PanelScanner(panel, baseline, law.q)
        else:
            scanner._refill(panel)
        maxima[r], skipped, ruled_out = scanner.max_statistic(interval_set, config)
        unreliable += skipped
        pruned += ruled_out
    return CalibrationResult(
        null_threshold(maxima, quantile), quantile, runs, maxima, unreliable, pruned
    )


def max_reliable_statistic(stats: ScanResult) -> float:
    """Largest statistic the selection rules may compare with a threshold.

    Unreliable statistics are skipped; a scan with none reliable, or an
    empty one, gives 0.0, the value of a statistic at exactly zero.
    """
    return max(stats.values[stats.reliable].tolist(), default=0.0)


def select_single(stats: ScanResult, threshold: float) -> list[IntervalStatistic]:
    """The first detection of :func:`select_multiple`, or none."""
    return select_multiple(stats, threshold)[:1]


def select_multiple(stats: ScanResult, threshold: float) -> list[IntervalStatistic]:
    """Greedy disjoint detections among the reliable statistics above ``threshold``.

    Only rows that are reliable and whose value exceeds ``threshold`` are
    eligible. They are ranked once by the tie key (-value, start, length),
    with a stable sort, so equal keys, such as a duplicated interval, keep
    storage order. The first ranked row is picked and every row whose
    interval overlaps it is dropped, until none is left: the picks are
    pairwise disjoint and in decreasing order of value.
    """
    order = np.flatnonzero(stats.reliable & (stats.values > check_threshold(threshold)))
    # at equal starts, ordering by end is ordering by length
    order = order[np.lexsort((stats.ends[order], stats.starts[order], -stats.values[order]))]
    picked = []
    while order.size:
        best = order[0]
        picked.append(stats[best])
        order = order[(stats.starts[order] > stats.ends[best]) | (stats.ends[order] < stats.starts[best])]
    return picked


def _run_scan(
    panel: TimeSeriesPanel,
    baseline: np.ndarray,
    interval_set: IntervalSet,
    config: StatConfig,
    threshold: float,
    q: int,
    multiple: bool,
) -> DetectionResult:
    """The picks of :func:`select_multiple`, or of :func:`select_single`, on
    an exact scan of the set, with the scan they were made on.

    OLS selects on :meth:`PanelScanner.scan`. Lasso selects on the set as
    the one chunk of a bracketed walk (:meth:`PanelScanner._bracketed`), in
    storage order, and solves in full only
    the rows that could change a pick (:func:`_open_rows`), a batch at a
    time, selecting again after each: each batch is every open row whose
    ``upper`` reaches the level max(threshold, the largest bracket value
    among them). An unsolved row is unreliable, so selection skips it, and
    once no row is open every unsolved row's statistic, which lies in its
    bracket, is certified unable to change a pick. The picks and their
    values are then bitwise those of the same selection on an exact scan,
    whose solved rows are bitwise this one's.
    """
    check_threshold(threshold)
    scanner = PanelScanner(panel, baseline, q)
    select = select_multiple if multiple else select_single
    if config.method == "ols":
        stats = scanner.scan(interval_set, config)
        return DetectionResult(select(stats, threshold), stats, threshold)
    stats, solve = next(scanner._bracketed(*scanner._kernel_args(interval_set, config), len(interval_set)))
    while True:
        picked = select(stats, threshold)
        todo = _open_rows(stats, picked, threshold, multiple)
        if not todo.size:
            return DetectionResult(picked, stats, threshold)
        level = max(threshold, float(stats.values[todo].max()))
        solve(todo[stats.upper[todo] >= level])


def _open_rows(
    stats: ScanResult, picked: list[IntervalStatistic], threshold: float, multiple: bool
) -> np.ndarray:
    """Storage indices of the unsolved rows of a bracketed scan that could
    still change ``picked``, the selection made on it.

    For pick k, that is every unsolved row overlapping none of the picks
    before k whose ``upper`` reaches pick k's value: its statistic could
    rank at or above the pick by the tie key. After the last pick (of
    :func:`select_multiple`), or when there is none, it is every unsolved
    row overlapping no pick whose ``upper`` exceeds ``threshold``: it could
    be one more pick.
    """
    unsolved = ~stats.solved
    free = np.ones(len(stats), dtype=bool)  # overlapping none of the picks so far
    found = np.zeros(len(stats), dtype=bool)
    for s in picked:
        found |= unsolved & free & (stats.upper >= s.value)
        free &= (stats.starts > s.interval.end) | (stats.ends < s.interval.start)
    if multiple or not picked:
        found |= unsolved & free & (stats.upper > threshold)
    return np.flatnonzero(found)


def detect_single(
    panel: TimeSeriesPanel,
    baseline: np.ndarray,
    interval_set: IntervalSet,
    config: StatConfig,
    threshold: float,
    q: int = 1,
) -> DetectionResult:
    """Report the argmax interval if it clears the threshold, as
    :func:`select_single` on a full scan would (:func:`_run_scan`)."""
    return _run_scan(panel, baseline, interval_set, config, threshold, q, False)


def detect_multiple(
    panel: TimeSeriesPanel,
    baseline: np.ndarray,
    interval_set: IntervalSet,
    config: StatConfig,
    threshold: float,
    q: int = 1,
) -> DetectionResult:
    """Iterated argmax detection with overlap removal, as
    :func:`select_multiple` on a full scan would (:func:`_run_scan`);
    detections are disjoint."""
    return _run_scan(panel, baseline, interval_set, config, threshold, q, True)


def online_windows(t: int) -> list[tuple[int, int]]:
    """Geometric windows examined at time t, shortest first.

    Window j exists while 2^j <= t, the rule :func:`_window_pairs` applies;
    exact in integers, where a floored float log2 counts one window too
    many at t = 2^k - 1 for k >= 49.
    """
    return [(t - offset, t) for offset in _WINDOW_OFFSETS.tolist() if 2 * offset <= t]


def _window_pairs(times: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (t, window) pair the monitor inspects at ``times``, vectorised.

    The windows of :func:`online_windows` at each t that start at q + 1 or
    later, ordered by time, then shortest first. Returns (the time of each
    pair, the index j - 1 of its window in ``_WINDOW_OFFSETS``).
    """
    # window j exists while 2^j <= t and starts at t - 2^(j-1) >= q + 1
    reach = np.minimum(times // 2, times - (q + 1))
    at, j = np.nonzero(_WINDOW_OFFSETS <= reach[:, None])
    return times[at], j


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
    vectors and raw residuals, and reads every window's blocks from two
    prefix entries, whitened by ``sigma``. The layout of its arrays
    (:func:`~varanom.interval_stats._prefix_arrays`) and each row it appends
    (:func:`~varanom.interval_stats._prefix_step`) come from the module that
    builds :class:`~varanom.interval_stats.PanelScanner` prefixes, so the
    Gram prefix is packed as a scanner packs it, and a row holds
    pq (pq + 1) / 2 + pq p doubles: 30 kB per observation at p = 50, q = 1,
    where the full pq x pq Gram took 40 kB. The arrays double in length when
    full.
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
        if t0 < q + 1:
            raise ParameterError(
                f"monitoring start t0={t0} leaves fewer than q + 1 = {q + 1} observations for lags"
            )
        # StatConfig checks the lambda policy and the solver options
        self.solver = StatConfig(solver=solver or SolverOptions(), lambda_policy=lambda_policy).solver
        self.baseline = check_stacked(baseline, q)
        p = self.baseline.shape[0]
        self.q = q
        self.lam = check_non_negative(lam, "lasso penalty")
        self.threshold = check_threshold(threshold)
        self.t0 = t0
        self.sigma = sigma
        self.lambda_policy = lambda_policy
        self.stopped_at: Optional[OnlineAlarm] = None
        m = p * q
        self._whitening = whitening_matrix(sigma, p)
        # penalty of each window length 2^(j-1) + 1, in _WINDOW_OFFSETS order
        self._window_lams = scaled_lambda(lam, _WINDOW_OFFSETS + 1, 2, lambda_policy)
        self._lags = np.zeros(m)  # x_{t-1}, ..., x_{t-q} stacked
        self._n = 0
        self._gram_prefix, self._cross_prefix = _prefix_arrays(257, m, p)

    @property
    def t(self) -> int:
        return self._n

    def _append(self, x: np.ndarray) -> None:
        p = self.baseline.shape[0]
        x = _check_rows(np.asarray(x, dtype=float).ravel(), p)
        self._n += 1
        i = self._n - self.q
        if i >= 1:
            if i == self._gram_prefix.shape[0]:
                self._gram_prefix = np.concatenate([self._gram_prefix, np.zeros_like(self._gram_prefix)])
                self._cross_prefix = np.concatenate([self._cross_prefix, np.zeros_like(self._cross_prefix)])
            z = self._lags
            _prefix_step(self._gram_prefix, self._cross_prefix, i, z, x - self.baseline @ z)
        self._lags[p:] = self._lags[:-p]
        self._lags[:p] = x

    def _pairs(self, first: int, last: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, ends, lams) of every window inspected at times ``first`` to
        ``last``, ordered by time, then shortest window."""
        times = np.arange(max(first, self.t0 + 1), last + 1)
        ends, j = _window_pairs(times, self.q)
        return ends - _WINDOW_OFFSETS[j], ends, self._window_lams[j]

    def _scan(self) -> ScanResult:
        """Statistics of every window inspected at the current time, from one
        :func:`prefix_statistics` call over :meth:`_pairs`."""
        starts, ends, lams = self._pairs(self._n, self._n)
        lo, hi = starts - (self.q + 1), ends - self.q  # the detector holds every prefix row
        values, nonzero, reliable = prefix_statistics(
            self._gram_prefix, self._cross_prefix, lo, hi, lams, "lasso", self.solver, self._whitening
        )
        return ScanResult(starts, ends, values, lams, nonzero, reliable, "lasso")

    def _stream_walk(self, rows: np.ndarray) -> tuple[PanelScanner, tuple]:
        """A :class:`PanelScanner` over ``rows``, checked observations of more
        than ``t0`` rows, and the arguments (lo, hi, lams, solver,
        whitening, chunk) of its bracketed walk
        (:meth:`PanelScanner._bracketed`) of every window inspected at times
        ``t0`` + 1 to len(rows), in the kernel chunks of a scan
        (:func:`~varanom.interval_stats._kernel_chunk`), in time order, then shortest window: the order of
        :meth:`_pairs`, since every window of a time ends on the same row."""
        starts, ends, lams = self._pairs(self.t0 + 1, len(rows))
        scanner = PanelScanner(TimeSeriesPanel(rows), self.baseline, self.q)
        chunk = _kernel_chunk(self._lags.size)
        return scanner, (starts - (self.q + 1), ends - self.q, lams, self.solver, self._whitening, chunk)

    def step(self, x: np.ndarray) -> ScanResult:
        """Ingest one observation and return every window statistic at this
        time, shortest window first; none up to ``t0``.

        No stopping rule is applied; used for calibration sweeps.
        """
        self._append(x)
        return self._scan()

    def update(self, x: np.ndarray) -> Optional[OnlineAlarm]:
        """Ingest one observation; return an alarm if a window fires.

        Windows are checked shortest first and the monitor stops at the
        first reliable exceedance. That is the alarm the statistics of
        :meth:`step` would give, read from its columns.
        """
        if self.stopped_at is not None:
            return self.stopped_at
        self._append(x)
        self.stopped_at = _first_alarm(self._scan(), self.threshold)
        return self.stopped_at


def _first_alarm(windows: ScanResult, threshold: float) -> Optional[OnlineAlarm]:
    """Alarm of the first reliable exceedance among ``windows``, ordered by
    time, then shortest window: those of :meth:`OnlineDetector._scan`, or a
    chunk of a bracketed walk, whose unsolved rows are unreliable; None if
    none."""
    hit = np.flatnonzero(windows.reliable & (windows.values > threshold))
    if hit.size == 0:
        return None
    s = windows[hit[0]]
    return OnlineAlarm(s.interval.end, s.interval, s.value)


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
    """Run the online monitor over a finite stream; None if it never fires.

    The alarm is the one :meth:`OnlineDetector.update` raises row by row:
    the first reliable exceedance, at the earliest time, then the shortest
    window. The stream is read to its end, or to its first row that fails
    the checks of ``update`` (or to an exception the stream raises), before
    any window is solved; a generator is therefore read past the alarm. One
    :class:`PanelScanner` over the rows read then walks their windows in
    kernel chunks, in time order (:meth:`PanelScanner._bracketed`), and
    stops at the first chunk holding a reliable exceedance: in each chunk a
    duality-gap bracket rules out the windows that cannot exceed the
    threshold, and the rest are solved in full in two batches, the first up
    to the first window whose bracket value already exceeds it; the alarm
    is read after each batch by :func:`_first_alarm`, as in ``update``. The
    error of a failing row, or of the stream, is raised only when no alarm
    fires before it.
    """
    detector = OnlineDetector(baseline, q, lam, threshold, t0, solver, sigma, lambda_policy)
    p = detector.baseline.shape[0]
    rows, failure = [], None
    try:
        for x in stream:
            rows.append(_check_rows(np.asarray(x, dtype=float).ravel(), p))
    except Exception as exc:  # re-raised below unless an alarm on the rows before it comes first
        failure = exc
    if len(rows) > t0:
        scanner, walk = detector._stream_walk(np.array(rows))
        for windows, solve in scanner._bracketed(*walk):
            todo = np.flatnonzero(~windows.solved & (windows.upper > threshold))
            sure = np.flatnonzero(windows.values[todo] > threshold)
            cut = int(sure[0]) + 1 if sure.size else todo.size
            for part in (todo[:cut], todo[cut:]):
                solve(part)
                alarm = _first_alarm(windows, threshold)
                if alarm is not None:
                    return alarm
    if failure is not None:
        raise failure
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
    :meth:`OnlineDetector.update` skips as well. The rows are checked as
    :meth:`OnlineDetector.step` checks them, with the same errors, then one
    :class:`PanelScanner` over the panel, whose prefix sums are bitwise the
    detector's, takes the maximum of every window of every time in one
    bracketed walk (:meth:`PanelScanner._maximum`), in kernel chunks
    (:func:`~varanom.interval_stats._kernel_chunk`) in time order. It holds a prefix
    row only while a later window still reads it, and gathers blocks one
    solver batch at a time; each chunk goes
    through :func:`~varanom.interval_stats.lasso_maximum` with the best
    value of the chunks before it as its floor, so the result is bitwise
    the maximum of a :meth:`OnlineDetector.step` loop while only the windows
    a duality-gap bracket cannot rule out are solved in full. The windows'
    index arrays, about T log2(T) entries each, are made at once.
    """
    detector = OnlineDetector(baseline, q, lam, np.inf, t0, solver, sigma, lambda_policy)
    p = detector.baseline.shape[0]
    rows = np.asarray(values, dtype=float)
    rows = _check_rows(rows.reshape(len(rows), rows[0].size if len(rows) else p), p)
    if len(rows) <= t0:
        return 0.0
    scanner, walk = detector._stream_walk(rows)
    return scanner._maximum(*walk).value
