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
entries, which the kernel reads by their positions in the rows it is
given. A :class:`PanelScanner`
builds its prefixes for each request by walking a plan (:class:`_Walk`):
the intervals in end-row order, one chunk (:func:`_kernel_chunk`) at a time, each prefix row,
m(m + 1) / 2 + m p doubles, held in a fixed pool of slots only from the
chunk whose build reaches it to the last chunk that reads it. A scan of
kernel chunks holds at most 148 rows, about 4.5 MB, for the seeded
T = 2000 set at p = 50, which reads 1061. Every written row is bitwise the
row of a build over every row (:func:`_prefix_sum`), and so is every row the
online monitor, which receives its rows one at a time, writes through
:func:`_prefix_step`. A Gram prefix is stored packed: row r holds the
m(m + 1) / 2 lower-triangle entries of the symmetric running sum, in
``np.tril_indices`` order (:func:`_pack_gram`), 1275 doubles a row at m = 50 where the full
matrix takes 2500, and only the blocks the kernel gathers are expanded to
full m x m matrices (:func:`_unpack_gram`). The products z_i z_j and z_j z_i
are the same doubles, so an expanded block is bitwise the full layout's.
An interval whose cross block already passes the KKT test at zero has a
lasso statistic of exactly zero and is screened out before any Gram block
is gathered. A walked scan hands the kernel one chunk at a time. The OLS
kernel gathers the blocks of the intervals it is handed as one block, in
buffers the scan keeps across its chunks; the lasso kernel screens and
solves in batches (:func:`_batch_size`: 163 intervals at p = 10, 52 at
p = 50), each of which gathers its own cross and Gram blocks from the held
prefix rows, so no call's blocks grow with its interval count. The lasso
statistics of the busy intervals
come from :func:`_solve_busy`, the one lasso solve path of the library:
one batched solve and one :func:`~varanom.estimation.lasso_bracket` call
per batch. The OLS ones come from one
stacked Cholesky factorisation G = LL' and the forward substitution
L^(-1): the statistic is ||L^(-1) C||_F^2. An interval counts as full rank only when
1 / ||L^(-1)||_F^2 > 2 rtol tr(G). As 1 / ||L^(-1)||_F^2 = 1 / tr(G^(-1)) is
at most lambda_min and tr(G) at least lambda_max, this certifies, with a
factor 2 to spare for rounding, the test lambda_min > rtol lambda_max of
:func:`gram_ols_value`. A block that cannot be factorised, and every
interval that misses the certificate, go through :func:`gram_ols_value`,
which raises on a rank-deficient Gram. The kernel is also
the one place that whitens: prefix sums hold raw residuals u_t, and as
W = Sigma^(-1/2) is symmetric, sum_t z_t (W u_t)' = (sum_t z_t u_t') W.
``ols_statistic``, ``lasso_statistic`` and ``whiten`` compute a statistic
directly from a regression view; they are the independent reference the
kernel is tested against.

A scan returns a :class:`ScanResult`: the kernel's columns (start, end,
value, penalty, non-zero count, reliability) and the method, which reads
as a sequence of :class:`IntervalStatistic` built on demand. The offline
scan and each online step return one, and selection reads its columns.

Null calibration reads only a scan's largest reliable statistic, the
online monitor only a stream's first reliable exceedance, and a lasso
detection only the rows that could change a pick. All three read one
bracketed walk (:meth:`PanelScanner._bracketed`): each chunk of intervals
is screened as the kernel does, and :func:`_bracket`, a few sweeps of
every busy interval through :func:`_solve_busy`, gives a bracket
[value, value + duality gap] of its statistic. The chunk comes as a
:class:`ScanResult` whose busy rows hold their brackets, unsolved, with a
``solve`` that solves rows in full through the same helper, and each
request is a rule over it: :func:`lasso_maximum` solves the rows whose
upper bound reaches the best value found and carries that value to the
next chunk as its floor (:meth:`PanelScanner.max_statistic`,
:func:`~varanom.detection.online_max_statistic`);
:func:`~varanom.detection.detect_online` solves the rows whose upper
bound exceeds the threshold and stops at the first chunk holding an
alarm; :func:`~varanom.detection.detect_single` and
:func:`~varanom.detection.detect_multiple` solve the rows that could
change a pick. A statistic left unsolved cannot be the maximum, so it is
never counted as unreliable. The offline lasso maximum and detections take
their set as one chunk, so that every busy bracket is known before any
interval is solved: they hold every prefix row the set reads, so their
memory, unlike a scan's, still grows with the interval count, but they
screen, bracket and solve it a batch at a time and hold no block beyond
its batch (a traced peak of 2.5 MB for a p = 10 maximum over 1078
intervals, and 40 MB at p = 50 over 2000 random intervals of a T = 1000
panel). The online walks take their windows in kernel chunks.

``StatConfig`` checks the statistic's options, offline and online: the
method and lambda policy (``check_choice``), the lambda scale
(``check_non_negative``), sigma (``check_covariance``) and solver options
the batched kernel can honour. :func:`check_ols_rows` owns an OLS
interval's row count, which :meth:`PanelScanner.scan` applies; the kernel
never sees an interval that fails it. A scanner checks its baseline and intervals through
``check_stacked`` and ``check_domain``.

Statistics over distinct intervals are independent pure computations; the
scan may be parallelised freely and reduces deterministically.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import DesignError, ParameterError, check_choice
from .estimation import _RANK_RTOL, SolverOptions, lasso_bracket, lasso_cd_gram, lasso_cd_gram_batch
from .estimation import check_non_negative, default_lambda
from .intervals import Interval, IntervalSet
from .var_model import RegressionView, TimeSeriesPanel, check_covariance, check_domain, check_stacked, lag_design

# Rows per block of the prefix build: a block of pq x pq products (640 kB at
# pq = 50) stays in cache while it is summed.
_PREFIX_BLOCK_ROWS = 32
# Gram entries per chunk of intervals a walk hands the kernel (m^2 per
# interval, :func:`_kernel_chunk`), all of which the OLS kernel gathers at
# once, and the most a lasso batch takes: about 50 intervals at m = 50, which
# keeps a chunk's arrays to a few megabytes, and a whole p = 10 scan (1078
# intervals) at m = 10.
_CHUNK_ENTRIES = 1 << 17
# The lasso screen and solves take their intervals in batches of
# min(_CHUNK_ENTRIES / m^2, max(_BATCH_FLOOR, _BATCH_ENTRIES / (m p))), at
# least 1 (:func:`_batch_size`): 163 at p = 10, 1024 at p = 4, 52 at p = 50
# and 1 from m = 363, so that a batch's gathers and solver copies stay near
# the cache and a call's memory does not grow with its set. Timed in
# alternating pairs of a T = 1000 lasso maximum over the seeded intervals, a
# plain cap of 128 or 163 problems made p = 4 4-22% slower, and floors of 32
# or 64 made p = 20 17-18% slower, each batch carrying a fixed cost in Python.
_BATCH_ENTRIES = 1 << 14
_BATCH_FLOOR = 128
# Sweeps of the first pass over every busy interval (_bracket), whose
# duality-gap brackets rule most intervals out of a maximum or an online
# alarm. On 8 null p = 10, T = 500 runs over 1078 seeded intervals, 3, 4 and
# 5 sweeps left 22-94, 9-44 and 5-29 intervals to solve under
# interval_linear, and 241-385, 53-144 and 9-35 under global. Timed
# alternately on 12 other runs, the three took the same time within 4% under
# interval_linear and interval_sqrt, while under global 3 sweeps took 35%
# longer than 4 or 5.
_BRACKET_SWEEPS = 4
# Slack added to every upper bound, relative to 1 + sum_k ||y_k||^2, which
# covers the rounding of the prefix differences and of the bound itself.
_BRACKET_MARGIN = 1e-9
METHODS = ("lasso", "ols")
LAMBDA_POLICIES = ("global", "interval_sqrt", "interval_linear")


@dataclass
class StatConfig:
    """How interval statistics are computed.

    ``sigma`` is the (known or estimated) innovation covariance that whitens
    the residuals; None means the identity. ``lambda_scale`` is the constant in front of the default penalty rate.

    ``lambda_policy`` controls how the scan assigns a penalty to each
    interval. "global" (default) uses the set-level minimum length L for
    every interval; "interval_sqrt" substitutes each interval's own length
    into the rate; "interval_linear" scales the global penalty by |J| / L,
    which is what an interval-length-normalised squared error implies and
    is the policy the replication studies use.
    """

    method: str = "lasso"
    lambda_scale: float = 0.15
    sigma: Optional[np.ndarray] = None
    solver: SolverOptions = field(default_factory=SolverOptions)
    lambda_policy: str = "global"

    def __post_init__(self) -> None:
        check_choice(self.method, "method", METHODS)
        check_non_negative(self.lambda_scale, "lambda constant")
        if self.sigma is not None:
            check_covariance(self.sigma, len(np.atleast_2d(self.sigma)))
        check_choice(self.lambda_policy, "lambda policy", LAMBDA_POLICIES)
        # prefix_statistics records no objective path, so a track_objective
        # would be ignored without notice; lasso_cd_gram still honours it
        if self.solver.track_objective:
            raise ParameterError("the batched lasso kernel does not track the objective")


@dataclass(frozen=True)
class IntervalStatistic:
    interval: Interval
    value: float
    method: str
    lam: float
    nonzero: int
    reliable: bool = True


@dataclass(eq=False)
class ScanResult(Sequence):
    """The kernel's result columns over a set of intervals, one entry per
    interval: start, end, statistic, penalty, count of non-zero
    coefficients and reliability, with the ``method`` they share.

    ``upper`` and ``solved`` are None on an exact scan, where every value is
    the interval's statistic. A chunk of a bracketed walk
    (:meth:`PanelScanner._bracketed`) sets them: where ``solved`` is
    False, the row was left at its duality-gap bracket, its statistic lies
    in [``values``, ``upper``], its ``nonzero`` counts the bracket iterate's
    coefficients and it is marked unreliable, so that no rule reads the
    lower bound as a statistic; where ``solved`` is True, the row is the
    exact scan's, bitwise, and ``upper`` equals its value.

    A sequence of :class:`IntervalStatistic`, indexed by int (not by slice):
    item i is built when it is read, or iterated, with every field a Python
    int, float or bool. Selection, maxima, alarms and CSV files read the
    columns and build no item but the ones they return.
    """

    starts: np.ndarray
    ends: np.ndarray
    values: np.ndarray
    lams: np.ndarray
    nonzero: np.ndarray
    reliable: np.ndarray
    method: str
    upper: Optional[np.ndarray] = None
    solved: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> IntervalStatistic:
        return IntervalStatistic(
            Interval(int(self.starts[i]), int(self.ends[i])), float(self.values[i]), self.method,
            float(self.lams[i]), int(self.nonzero[i]), bool(self.reliable[i]),
        )

    def __iter__(self) -> Iterator[IntervalStatistic]:
        return map(
            IntervalStatistic, map(Interval, self.starts.tolist(), self.ends.tolist()),
            self.values.tolist(), itertools.repeat(self.method), self.lams.tolist(),
            self.nonzero.tolist(), self.reliable.tolist(),
        )


class ScanMaximum(NamedTuple):
    """Result of :meth:`PanelScanner.max_statistic`: the largest reliable
    statistic (0.0 if none is), the count of statistics solved to the end
    and skipped as unreliable, and the count of busy lasso intervals a
    duality-gap bracket certified below the maximum without a full solve.
    """

    value: float
    unreliable: int
    pruned: int


def inverse_sqrt_psd(sigma: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root of a matrix that passes ``check_covariance``."""
    w, v = np.linalg.eigh(sigma)
    return (v / np.sqrt(w)) @ v.T


def whitening_matrix(sigma: Optional[np.ndarray], p: int) -> Optional[np.ndarray]:
    """sigma^(-1/2) for a ``sigma`` checked by ``check_covariance``; None (no
    whitening) for ``sigma`` None or the identity."""
    if sigma is None:
        return None
    sigma = check_covariance(sigma, p)
    return None if np.array_equal(sigma, np.eye(p)) else inverse_sqrt_psd(sigma)


def check_ols_rows(n: int, m: int) -> None:
    """Reject an OLS interval of n rows, fewer than its m predictors."""
    if n < m:
        raise DesignError(f"interval of {n} rows cannot fit {m} predictors")


def whiten(view: RegressionView, sigma: Optional[np.ndarray]) -> RegressionView:
    """Left-multiply each time slice of the response by sigma^(-1/2).

    The predictor block is unchanged: the transformation reparametrises the
    coefficient matrix, so the whitened view keeps the block-diagonal
    structure. Passing None or the identity returns the view untouched.
    """
    w = whitening_matrix(sigma, view.n_series)
    if w is None:
        return view
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
    view = whiten(view, sigma)
    check_ols_rows(*view.lagged.shape)
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
    check_non_negative(lam, "lasso penalty")
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
    """Penalty of every interval in the set under the configured policy, in storage order.

    OLS statistics are unpenalised, so every OLS interval gets 0.0.
    """
    if config.method == "ols":
        return np.zeros(len(interval_set))
    base = default_lambda(interval_set.min_length, p, n_rows, config.lambda_scale)
    lengths = interval_set.ends - interval_set.starts + 1
    return scaled_lambda(base, lengths, interval_set.min_length, config.lambda_policy)


def cross_blocks(
    cross_prefix: np.ndarray, lo: np.ndarray, hi: np.ndarray, whitening: Optional[np.ndarray]
) -> np.ndarray:
    """Cross blocks ``cross_prefix[hi[i]] - cross_prefix[lo[i]]``, right-multiplied
    by ``whitening`` unless it is None; (len(lo), m, p)."""
    # take along axis 0 gathers the same rows as fancy indexing, in half the time
    crosses = cross_prefix.take(hi, axis=0)
    np.subtract(crosses, cross_prefix.take(lo, axis=0), crosses)
    if whitening is not None:
        crosses = crosses @ whitening
    return crosses


def _kernel_chunk(m: int) -> int:
    """Intervals of m predictors per chunk a walk hands the kernel: ``_CHUNK_ENTRIES`` / m^2."""
    return _CHUNK_ENTRIES // (m * m)


def _batch_size(m: int, p: int) -> int:
    """Intervals of m predictors and p responses per batch of the lasso screen and solves."""
    return max(1, min(_kernel_chunk(m), max(_BATCH_FLOOR, _BATCH_ENTRIES // (m * p))))


def busy_intervals(
    cross_prefix: np.ndarray, lo: np.ndarray, hi: np.ndarray, lams: np.ndarray, whitening: Optional[np.ndarray]
) -> np.ndarray:
    """Indices of the intervals whose cross blocks (:func:`cross_blocks`) fail
    the KKT test at zero, 2 max|c| <= lam, which makes a lasso statistic
    exactly 0; gathered and tested a batch (:func:`_batch_size`) at a time,
    or in one gather, unsliced, when the set fits one batch, as an online
    step's windows do."""
    n = len(lo)
    batch = _batch_size(*cross_prefix.shape[1:])
    if n <= batch:
        peak = np.abs(cross_blocks(cross_prefix, lo, hi, whitening)).max(axis=(1, 2))
    else:
        peak = np.empty(n)
        for s in range(0, n, batch):
            at = slice(s, s + batch)
            peak[at] = np.abs(cross_blocks(cross_prefix, lo[at], hi[at], whitening)).max(axis=(1, 2))
    return np.flatnonzero(2.0 * peak > lams)


def prefix_statistics(
    gram_prefix: np.ndarray,
    cross_prefix: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    lams: np.ndarray,
    method: str,
    solver: SolverOptions,
    whitening: Optional[np.ndarray],
    buffers: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Statistics of the intervals whose blocks are ``prefix[hi[i]] - prefix[lo[i]]``.

    ``gram_prefix`` is (rows, m(m + 1) / 2) and ``cross_prefix`` (rows, m, p),
    running sums of z_t z_t', packed by :func:`_pack_gram`, and of z_t u_t'
    over lag vectors z_t and raw residuals u_t, at some of their prefix rows
    (a :class:`PanelScanner` holds only the rows its intervals read), and
    ``lo`` and ``hi`` are positions in those arrays. ``buffers``, if given,
    are the OLS buffers :func:`_ols_statistics` fills. Each interval's cross
    block is right-multiplied by ``whitening`` (:func:`whitening_matrix`)
    after the prefix difference, never the whole prefix. Lasso statistics screen
    first, through :func:`busy_intervals`, the library's one screen (the
    solver has none): the cross blocks are
    gathered and whitened by :func:`cross_blocks`, and an interval with
    2 max|c| <= ``lams[i]`` is exactly zero by the KKT test at zero (value
    0.0, no non-zero coefficient, reliable) without its Gram block ever
    being gathered. Only the rest, the busy intervals, get their Gram blocks
    and a batched solve, through :func:`_solve_busy`, so a set of at most
    one batch that is all screened, as most online windows are, costs one
    cross-block gather, and never calls the solver. The lasso screen and
    solves take batches (:func:`_batch_size`), each gathering its own
    blocks; each interval's result depends on that interval alone, so no
    batch changes a value, and the lasso kernel's memory is bounded
    whatever the number of intervals. OLS statistics ignore ``lams`` and
    are computed as one block, which a caller bounds by handing the kernel
    one walk chunk at a time, as :meth:`PanelScanner.scan` does: one
    stacked Cholesky factorisation, the batched forward substitution
    L^(-1) and the statistic ||L^(-1) C||_F^2; the coefficients are never
    formed. An interval whose factor misses the rank certificate
    1 / ||L^(-1)||_F^2 > 2 * ``_RANK_RTOL`` * tr(G), or whose block cannot
    be factorised, falls back to :func:`gram_ols_value`, so DesignError is
    raised for the first rank-deficient interval in storage order. The
    kernel applies no row-count rule: a caller checks it
    (:func:`check_ols_rows`) first. Returns arrays (values, nonzero, reliable), one entry per
    interval: the statistic clamped at zero, the count of non-zero
    coefficients, and whether the lasso solve converged (always True for
    OLS). An OLS fit is dense, so its count is the size m p of the
    coefficient block.
    """
    _check_layout(gram_prefix, cross_prefix)
    n = len(lo)
    reliable = np.ones(n, dtype=bool)
    if method == "ols":
        values = _ols_statistics(gram_prefix, cross_prefix, lo, hi, whitening, buffers)
        return values, np.full(n, cross_prefix.shape[1] * cross_prefix.shape[2]), reliable
    values = np.zeros(n)
    nonzero = np.zeros(n, dtype=int)
    busy = busy_intervals(cross_prefix, lo, hi, lams, whitening)
    if busy.size:
        values[busy], _, nonzero[busy], reliable[busy] = _solve_busy(
            gram_prefix, cross_prefix, lo, hi, lams, busy, solver.tolerance, solver.max_iterations, whitening
        )
    return values, nonzero, reliable


def _check_layout(gram_prefix: np.ndarray, cross_prefix: np.ndarray) -> None:
    """Reject a Gram prefix that is not packed to match the (rows, m, p) cross prefix."""
    m = cross_prefix.shape[1]
    if gram_prefix.shape != (len(cross_prefix), m * (m + 1) // 2):
        raise ParameterError(
            f"Gram prefix must be packed as {len(cross_prefix)} x {m * (m + 1) // 2}, got {gram_prefix.shape}"
        )


def _solve_busy(
    gram_prefix: np.ndarray, cross_prefix: np.ndarray, lo: np.ndarray, hi: np.ndarray, lams: np.ndarray,
    busy: np.ndarray, tolerance: float, sweeps: int, whitening: Optional[np.ndarray],
    y_sq: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, Optional[np.ndarray], np.ndarray, np.ndarray]:
    """(value, upper, nonzero, converged) of the intervals ``busy``, each solved from zero.

    The intervals have prefix indices ``lo`` and ``hi`` and penalties
    ``lams``; ``busy`` selects the ones to solve, and the results follow its
    order. They are solved a batch (:func:`_batch_size`) at a time: each
    batch gathers its own Gram blocks, as packed rows differenced and then
    expanded by one :func:`_unpack_gram`, and its own cross blocks, whitened
    by ``whitening`` (:func:`cross_blocks`), and takes one
    :func:`lasso_cd_gram_batch` call of at most ``sweeps`` sweeps and one
    :func:`lasso_bracket` call at its iterates. ``upper`` is None unless
    ``y_sq`` holds the column norms ||y_k||^2 of the ``busy`` intervals, in
    that order.
    """
    n = busy.size
    value = np.empty(n)
    upper = None if y_sq is None else np.empty(n)
    nonzero = np.empty(n, dtype=int)
    converged = np.empty(n, dtype=bool)
    batch = _batch_size(*cross_prefix.shape[1:])
    for s in range(0, n, batch):
        at = slice(s, s + batch)
        part = busy[at]
        a, b, lam = lo[part], hi[part], lams[part]
        grams = _unpack_gram(gram_prefix.take(b, axis=0) - gram_prefix.take(a, axis=0))
        c = cross_blocks(cross_prefix, a, b, whitening)
        beta, converged[at] = lasso_cd_gram_batch(grams, c, lam, tolerance, sweeps)
        value[at], bound = lasso_bracket(grams, c, beta, lam, None if y_sq is None else y_sq[at])
        if upper is not None:
            upper[at] = bound
        nonzero[at] = np.count_nonzero(beta.reshape(part.size, -1), axis=1)
        del grams, c, beta  # freed before the next batch gathers its own
    return value, upper, nonzero, converged


def _bracket(
    gram_prefix: np.ndarray, cross_prefix: np.ndarray, sq_prefix: np.ndarray, rows: tuple[np.ndarray, np.ndarray],
    lo: np.ndarray, hi: np.ndarray, lams: np.ndarray, solver: SolverOptions, whitening: Optional[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(busy, value, upper, nonzero) of the lasso intervals of
    :func:`prefix_statistics`: the indices of the busy ones
    (:func:`busy_intervals`), and, in the order of ``busy``, the bracket
    [value, upper] of each busy statistic after ``_BRACKET_SWEEPS`` sweeps
    of :func:`_solve_busy`, with a slack of ``_BRACKET_MARGIN``
    (1 + sum_k ||y_k||^2) on ``upper`` for rounding, and the count of
    non-zero coefficients of the iterate behind ``value``. The screen and
    the sweeps gather their cross blocks a batch at a time, so none is held
    for the whole set. ``sq_prefix`` holds the running sums of the squared
    whitened residuals at every prefix row (:meth:`PanelScanner._sq_prefix`)
    and ``rows`` each interval's two prefix rows, from which the column
    norms ||y_k||^2 of the busy intervals are differenced after the screen.
    A busy statistic solved in full lies in [value, upper]; every other one
    is exactly 0.0 and reliable.
    """
    _check_layout(gram_prefix, cross_prefix)
    busy = busy_intervals(cross_prefix, lo, hi, lams, whitening)
    y_sq = sq_prefix.take(rows[1][busy], axis=0) - sq_prefix.take(rows[0][busy], axis=0)
    sweeps = min(_BRACKET_SWEEPS, solver.max_iterations)
    value, upper, nonzero, _ = _solve_busy(
        gram_prefix, cross_prefix, lo, hi, lams, busy, solver.tolerance, sweeps, whitening, y_sq
    )
    upper += _BRACKET_MARGIN * (1.0 + y_sq.sum(axis=1))
    return busy, value, upper, nonzero


def lasso_maximum(stats: ScanResult, solve: Callable[[np.ndarray], None], floor: float) -> float:
    """The larger of ``floor`` and the largest reliable statistic of a
    bracketed chunk (:meth:`PanelScanner._bracketed`), bitwise that of an
    exact scan of it, with only a few of its rows solved in full.

    ``stats`` holds the chunk's screened rows, exact, and its busy rows at
    their brackets [value, upper], unsolved; ``solve(rows)`` solves rows in
    full and writes them back. ``floor``, a reliable value already found
    elsewhere (0.0 if none), starts both the best value and the level F,
    which then rises to the largest ``value``. Every unsolved row whose
    ``upper`` reaches F is solved in full, in a solve of its own; each
    problem's result is independent of its batch, so its value is bitwise
    the full scan's. Should the best reliable value M, the floor included,
    fall below F, every unsolved row whose ``upper`` reaches M is solved
    too, which makes the result exact at any solver budget. The rows left
    unsolved have statistics below M, so they cannot change the maximum. A
    walk of a set in chunks, each taking the maximum of the chunks before it
    as its floor, gives bitwise the maximum of one chunk of all; a higher
    floor leaves no fewer rows unsolved.
    """
    level = float(stats.values.max(initial=floor))
    while True:
        todo = np.flatnonzero(~stats.solved & (stats.upper >= level))
        if todo.size:
            solve(todo)
        best = float(stats.values[stats.solved & stats.reliable].max(initial=floor))
        if best >= level:
            return best
        level = best


def _ols_statistics(
    gram_prefix: np.ndarray,
    cross_prefix: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    whitening: Optional[np.ndarray],
    buffers: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """OLS values of :func:`prefix_statistics`, the intervals computed as one block.

    The blocks are gathered into the buffers of :func:`_ols_buffers`,
    ``buffers`` if given (sized for at least len(``lo``) intervals), else
    ones sized to the block; a scan hands every chunk of its walk the same
    buffers, since fresh chunk-sized arrays would be handed back to the
    operating system between chunks and faulted in again. An interval that
    misses the certificate is recomputed by :func:`gram_ols_value`, in
    storage order, so the first rank-deficient one raises. Row counts are
    not checked here: :meth:`PanelScanner.scan` applies
    :func:`check_ols_rows` before it walks.
    """
    k = len(lo)
    _, m, p = cross_prefix.shape
    if not k:  # an empty walk chunk: nothing to factorise
        return np.empty(0)
    if min(lo.min(), hi.min()) < 0 or max(lo.max(), hi.max()) >= len(gram_prefix):
        raise IndexError("prefix index out of range")
    size = gram_prefix.shape[1]
    pair, grams, inv = buffers or _ols_buffers(k, m, p)
    a, b = pair[:, : k * size].reshape(2, k, size)
    _unpack_gram(_difference(gram_prefix, lo, hi, a, b), out=grams[:k])
    crosses, other = pair[:, : k * m * p].reshape(2, k, m, p)
    _difference(cross_prefix, lo, hi, crosses, other)
    if whitening is not None:
        crosses, other = np.matmul(crosses, whitening, out=other), crosses
    values, certified = _cholesky_ols(grams[:k], crosses, inv[:k], other)
    for j in np.flatnonzero(~certified):
        values[j], _ = gram_ols_value(grams[j], crosses[j])
    return values


def _ols_buffers(n: int, m: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Buffers of :func:`_ols_statistics` for up to n intervals of m
    predictors and p responses. Two of them, each sized for n packed Gram
    rows or n cross blocks, take the prefix rows a difference gathers, then
    the cross blocks and L^(-1) C; the others hold the expanded Gram blocks
    and L^(-1)."""
    pair = np.empty((2, n * max(m * (m + 1) // 2, m * p)))
    inv = np.zeros((n, m, m))  # _inverse_lower never writes above the diagonal
    return pair, np.empty((n, m, m)), inv


def _difference(
    prefix: np.ndarray, lo: np.ndarray, hi: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """``prefix[hi] - prefix[lo]`` written to ``out``, with ``scratch`` of the
    same shape overwritten; returns ``out``. The indices must be in range:
    ``take`` in "clip" mode writes straight to its output, where "raise"
    mode buffers it."""
    prefix.take(hi, axis=0, out=out, mode="clip")
    prefix.take(lo, axis=0, out=scratch, mode="clip")
    return np.subtract(out, scratch, out=out)


def _cholesky_ols(
    grams: np.ndarray, crosses: np.ndarray, inv: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(values, certified) of stacked OLS problems from one Cholesky factorisation.

    ``inv`` and ``x`` are buffers of the shapes of ``grams`` and ``crosses``
    for L^(-1) and L^(-1) C; ``inv`` must be zero above the diagonal. Values
    are only meaningful where ``certified`` holds; none is certified when the
    stack cannot be factorised.
    """
    k = len(grams)
    try:
        chol = np.linalg.cholesky(grams)
    except np.linalg.LinAlgError:
        return np.zeros(k), np.zeros(k, dtype=bool)
    _inverse_lower(chol, inv)
    np.matmul(inv, crosses, out=x)
    values = np.einsum("nij,nij->n", x, x)
    inv_norm = np.einsum("nij,nij->n", inv, inv)
    certified = 1.0 / inv_norm > 2.0 * _RANK_RTOL * np.trace(grams, axis1=1, axis2=2)
    return values, certified


def _inverse_lower(chol: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` the inverses of a stack of lower-triangular matrices,
    by forward substitution; ``out`` must be zero above the diagonal, and only
    its lower triangle is written.

    Row i of L^(-1) is (e_i - L[i, :i] L^(-1)[:i]) / L[i, i], and only its
    first i + 1 entries are non-zero.
    """
    m = chol.shape[1]
    diag = 1.0 / np.diagonal(chol, axis1=1, axis2=2)
    out[:, 0, 0] = diag[:, 0]
    for i in range(1, m):
        row = out[:, i, :i]
        np.matmul(chol[:, i, None, :i], out[:, :i, :i], out=row[:, None])
        row *= -diag[:, i, None]
        out[:, i, i] = diag[:, i]


@functools.lru_cache(maxsize=16)
def _gram_layout(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(lower, full) index maps of the packed layout of m x m symmetric
    matrices, read-only: ``lower`` holds the flat positions i m + j of the
    lower-triangle entries in ``np.tril_indices`` order, and ``full[i m + j]``
    the packed position of entry (i, j) or (j, i)."""
    rows, cols = np.tril_indices(m)
    positions = np.empty((m, m), dtype=np.intp)
    positions[rows, cols] = positions[cols, rows] = np.arange(rows.size)
    lower, full = rows * m + cols, positions.ravel()
    lower.flags.writeable = full.flags.writeable = False
    return lower, full


@functools.lru_cache(maxsize=16)
def _gram_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols), read-only: packed entry k of :func:`_gram_layout` is
    entry (rows[k], cols[k]). Cached apart from the layout, so that only a
    process that writes rows one at a time (:func:`_prefix_step`) holds them."""
    rows, cols = divmod(_gram_layout(m)[0], m)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _pack_gram(full: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The lower-triangle entries of symmetric (..., m, m) matrices,
    (..., m(m + 1) / 2), written to ``out`` if given."""
    m = full.shape[-1]
    flat = full.reshape(full.shape[:-2] + (m * m,))
    return flat.take(_gram_layout(m)[0], axis=-1, out=out, mode="clip")


def _unpack_gram(packed: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The symmetric (..., m, m) matrices of packed (..., m(m + 1) / 2) rows,
    written to ``out`` (C-contiguous) if given; the inverse of :func:`_pack_gram`."""
    m = (math.isqrt(8 * packed.shape[-1] + 1) - 1) // 2
    flat = None if out is None else out.reshape(packed.shape[:-1] + (m * m,))
    full = packed.take(_gram_layout(m)[1], axis=-1, out=flat, mode="clip")
    return full.reshape(packed.shape[:-1] + (m, m))


def _prefix_arrays(rows: int, m: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Zeroed (Gram, cross) prefix arrays of ``rows`` rows for m predictors
    and p responses, the Gram prefix packed (:func:`_pack_gram`)."""
    return np.zeros((rows, m * (m + 1) // 2)), np.zeros((rows, m, p))


def _prefix_step(gram_prefix: np.ndarray, cross_prefix: np.ndarray, i: int, z: np.ndarray, u: np.ndarray) -> None:
    """Write prefix row i of both prefixes: row i - 1 plus the products of
    lag vector ``z`` with itself (the lower triangle, packed) and with
    residual ``u``. One row of :func:`_prefix_sum`, bitwise, for a caller
    that receives its rows one at a time, as the online monitor does."""
    rows, cols = _gram_pairs(z.size)
    np.multiply(z[rows], z[cols], out=gram_prefix[i])
    gram_prefix[i] += gram_prefix[i - 1]
    np.multiply(z[:, None], u, out=cross_prefix[i])
    cross_prefix[i] += cross_prefix[i - 1]


def _prefix_sum(
    left: np.ndarray, right: np.ndarray, rows: np.ndarray, out: np.ndarray, slots: np.ndarray
) -> Iterator[None]:
    """Walk the running sum of the outer products left[t] right[t]' over
    t < r, r = 0, 1, ..., ``rows[-1]``, writing its value at prefix row
    ``rows[k]`` into ``out[slots[k]]`` and yielding after each such row,
    for increasing distinct prefix rows ``rows`` in [0, len(left)] (row 0
    is the zero entry). A generator, so a
    caller can advance it a few rows at a time (:func:`_consume`), read the
    written slots and hand them to later rows; slots are written only as
    the walk reaches their rows. ``out`` is (slots, left.shape[1],
    right.shape[1]), or (slots, m(m + 1) / 2) for a Gram prefix packed as
    :func:`_pack_gram` packs it, whose symmetric products have ``right``
    equal to ``left`` (m columns).

    The products are made ``_PREFIX_BLOCK_ROWS`` rows at a time in a
    block-sized scratch array (a packed build takes their lower triangles
    there) and, while the block is in cache, each row's running sum is
    written in place: over its own products, or, at a row of ``rows``,
    straight into its slot. That adds every term in the same order as one
    cumsum over all rows, however the walk is paused, so every written row
    is bitwise that cumsum's entry, with no temporary of the full prefix's
    size and no copy of a written row. Two scratch blocks take turns, so
    the running sum a block ends on survives the next block's products;
    rows after ``rows[-1]`` are not read. Whole-row additions are
    contiguous; cumsum along the leading axis runs a strided loop per entry
    and made the build three times slower at pq = 50.
    """
    products = np.empty((_PREFIX_BLOCK_ROWS, left.shape[1], right.shape[1])) if out.ndim == 2 else None
    sums = np.empty((2, _PREFIX_BLOCK_ROWS) + out.shape[1:])
    last = int(rows.max(initial=0))  # rows[-1], or 0 for no rows, which walks none
    kept = np.zeros(last + 1, dtype=bool)
    kept[rows] = True
    held = map(out.__getitem__, slots.tolist())
    total = np.zeros(out.shape[1:])
    if kept[0]:
        total = next(held)
        total[...] = 0.0
        yield
    for b, s in enumerate(range(0, last, _PREFIX_BLOCK_ROWS)):
        e = min(s + _PREFIX_BLOCK_ROWS, last)
        block = sums[b % 2, : e - s]
        if products is None:
            np.einsum("ti,tj->tij", left[s:e], right[s:e], out=block)
        else:
            np.einsum("ti,tj->tij", left[s:e], right[s:e], out=products[: e - s])
            _pack_gram(products[: e - s], out=block)
        # out passed by position: at p = 50 the keyword and an indexed
        # out[k] cost this per-row loop about 10% of the build
        for keep, row in zip(kept[s + 1 : e + 1].tolist(), block):
            total = np.add(total, row, next(held) if keep else row)
            if keep:
                yield


def _consume(walk: Iterator[None], rows: Optional[int] = None) -> None:
    """Advance ``walk`` by ``rows`` steps, or to its end if ``rows`` is None."""
    collections.deque(itertools.islice(walk, rows), maxlen=0)


class _Walk(NamedTuple):
    """How a scanner request walks an interval set in (end row, storage
    index) order, ``chunk`` intervals at a time, holding each prefix row it
    reads in a pool of ``size`` slots only from the chunk whose walk reaches
    the row to the last chunk that reads it (:func:`_walk_plan`); an empty
    set is one empty chunk. Every request is such a walk: a scan in kernel
    chunks, and a bracketed walk (:meth:`PanelScanner._bracketed`), whose
    chunks a lasso maximum reads each from the best value of the ones
    before (:meth:`PanelScanner._maximum`), an online alarm up to the chunk
    that holds it, and a lasso detection as one chunk.

    ``order`` holds the storage indices in walk order, chunk k being
    ``order[k chunk : (k + 1) chunk]``, in storage order. ``rows`` are the
    distinct prefix rows read, increasing, ``slots`` the pool slot of each,
    and ``born[k]`` the count of them the walk writes before chunk k. ``lo`` and ``hi`` are the
    slots of each interval's two prefix rows, in storage order.
    ``prefix_rows`` are the (lo, hi) rows the plan was made for.
    """

    prefix_rows: tuple[np.ndarray, np.ndarray]
    chunk: int
    order: np.ndarray
    rows: np.ndarray
    slots: np.ndarray
    born: list[int]
    lo: np.ndarray
    hi: np.ndarray
    size: int

    def fits(self, lo: np.ndarray, hi: np.ndarray, chunk: int) -> bool:
        """Whether this plan walks intervals of prefix rows ``lo`` and ``hi`` in chunks of ``chunk``."""
        return chunk == self.chunk and all(map(np.array_equal, self.prefix_rows, (lo, hi)))


def _walk_plan(lo: np.ndarray, hi: np.ndarray, chunk: int) -> _Walk:
    """The :class:`_Walk` of the intervals whose blocks are ``prefix[hi[i]] - prefix[lo[i]]``.

    Chunk k reads rows up to its last end row; the walk writes a row before
    the first chunk whose last end row reaches it, and the row's slot is
    free again after the last chunk that reads it. Slots are handed out in
    row order, each from the most recently freed, so ``size`` is the
    largest count of rows live at once: 148 of the 1061 rows read by
    ``seeded_intervals(2000, 51, 1 / 1.1, q=1)`` in chunks of 52. Each
    chunk's intervals are handed out in storage order, sorted once per plan,
    so a chunk's result columns need no sort.
    """
    n = len(lo)
    order = np.argsort(hi, kind="stable")
    which = np.empty(n, dtype=np.intp)
    which[order] = np.arange(n) // chunk
    reach = hi[order[np.minimum(np.arange(chunk, n + chunk, chunk), n) - 1]]
    last = np.full(int(hi.max(initial=0)) + 1, -1)  # the last chunk to read each row
    np.maximum.at(last, lo, which)
    np.maximum.at(last, hi, which)
    rows = np.flatnonzero(last >= 0)
    born = np.bincount(np.searchsorted(reach, rows), minlength=max(1, len(reach))).tolist()
    slots = np.empty(len(rows), dtype=np.intp)
    fresh, free, written = itertools.count(), [], 0
    for k, count in enumerate(born):
        slots[written : written + count] = [free.pop() if free else next(fresh) for _ in range(count)]
        written += count
        free += slots[last[rows] == k].tolist()
    where = np.empty(len(last), dtype=np.intp)
    where[rows] = slots
    order = np.argsort(which, kind="stable")
    return _Walk((lo, hi), chunk, order, rows, slots, born, where[lo], where[hi], next(fresh))


class PanelScanner:
    """Prefix sums for constant-time per-interval Gram matrices.

    The Gram and cross prefixes, O(T (pq)^2) work, are built for each
    request, and a scanner holds a prefix row only while a statistic still
    reads it. Every request walks its intervals in (end row, storage index)
    order, a chunk at a time (:meth:`_walk`, :class:`_Walk`): the build
    advances to each chunk's last end row, writing into a fixed pool of
    slots only the rows that chunk or a later one reads, and a slot is
    reused once its last reader is done. A row takes pq (pq + 1) / 2 + pq p
    doubles, the Gram prefix being packed (:func:`_pack_gram`): 3775 at
    p = 50, q = 1, so a T = 2000 scan of ``seeded_intervals(2000, 51,
    1 / 1.1)`` in kernel chunks of :func:`_kernel_chunk` = 52 intervals
    holds at most 148 of the 1061 rows it reads, about 4.5 MB.
    :meth:`scan` and the OLS :meth:`max_statistic` walk kernel chunks.
    Every other lasso request reads the bracketed walk (:meth:`_bracketed`):
    lasso maxima through :meth:`_maximum`, which carries the best value from
    one chunk to the next, the lasso :meth:`max_statistic` with its set as
    one chunk, :func:`~varanom.detection.online_max_statistic` over every
    window of a stream in kernel chunks, and
    :func:`~varanom.detection.detect_online` in the same chunks up to its
    first chunk with an alarm, while lasso detections take their set as one
    chunk. Whatever the chunk, the lasso kernel and the bracketed walk
    gather cross and Gram blocks one solver batch (:func:`_batch_size`) at a
    time, so a one-chunk request holds its prefix rows and one batch's
    blocks. A scanner keeps the last plan, with its pool and the OLS
    chunk buffers; the chunk is capped at the set's size, so at p = 10
    (1310 intervals a kernel chunk) a scan and a lasso maximum of a set
    share one, and a repeated request makes no plan, but every request
    builds its rows again.

    Every written row is bitwise the row of a build over every row
    (:func:`_prefix_sum`), so how rows are held changes no statistic, and
    no (T, pq, pq) temporary is made. Each interval statistic reads its
    Gram and cross-product blocks by subtracting two rows, independently of
    the interval length. Results agree with the direct per-view computation
    up to floating-point summation order. The residuals are row-exact: one
    stacked product of the baseline with every lag row is bitwise the
    row-by-row product x_t - B z_t of
    :class:`~varanom.detection.OnlineDetector`, which writes each prefix
    row through :func:`_prefix_step`, so over the same rows the
    two build bitwise the same prefix sums, and offline and online
    statistics of a window agree bitwise. ``_refill`` takes another panel
    of the same shape and builds nothing: the next request builds its
    plan's rows in place; ``calibrate_threshold`` refills one scanner for
    every run after its first, so those runs allocate no prefix arrays.
    """

    def __init__(self, panel: TimeSeriesPanel, baseline: np.ndarray, q: int):
        n, p = panel.values.shape
        if n <= q:
            raise DesignError(f"panel of {n} rows cannot support order q={q}")
        self.q = q
        self.n_rows = n
        self.n_series = p
        self._baseline = check_stacked(baseline, q, p)
        self._gram_prefix, self._cross_prefix = _prefix_arrays(0, p * q, p)
        self._plan: Optional[_Walk] = None
        self._buffers: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._refill(panel)

    def _refill(self, panel: TimeSeriesPanel) -> None:
        """Take the rows of ``panel``, whose shape must be the one the scanner
        was built for; the baseline, the plan and its pool stay, and the next
        request builds into them. The (T - q) x pq lag rows and (T - q) x p
        residual rows are kept for the builds and :meth:`_sq_prefix`."""
        self._lagged, response = lag_design(panel.values, self.q)
        # one stacked product of the baseline with each lag row, bitwise the
        # online detector's row-by-row baseline @ z (a block lagged @ baseline.T is not)
        self._resid = response - (self._baseline @ self._lagged[:, :, None])[:, :, 0]

    def _walk(self, lo: np.ndarray, hi: np.ndarray, chunk: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Walk the intervals of prefix rows ``lo`` and ``hi`` in chunks of
        ``chunk``, capped to [1, len(lo)], through the kept :class:`_Walk`
        if it fits, else a new one, with the prefix arrays sized to its pool
        (in place when they are). For each chunk, both prefixes'
        :func:`_prefix_sum` walks advance to the rows it reads, which
        overwrites the pool, then the chunk's storage indices are yielded
        with the slots of their two prefix rows; a chunk's slots hold its
        rows until the walk is advanced."""
        chunk = max(1, min(chunk, len(lo)))
        if self._plan is None or not self._plan.fits(lo, hi, chunk):
            self._plan = self._buffers = None  # freed before the new plan's are made
            self._plan = _walk_plan(lo, hi, chunk)
        plan = self._plan
        if plan.size != len(self._gram_prefix):
            shapes = self._gram_prefix.shape[1:], self._cross_prefix.shape[1:]
            self._gram_prefix = self._cross_prefix = None  # freed before the new arrays are made
            self._gram_prefix = np.empty((plan.size,) + shapes[0])
            self._cross_prefix = np.empty((plan.size,) + shapes[1])
        walks = (
            _prefix_sum(self._lagged, self._lagged, plan.rows, self._gram_prefix, plan.slots),
            _prefix_sum(self._lagged, self._resid, plan.rows, self._cross_prefix, plan.slots),
        )
        for k, born in enumerate(plan.born):
            for walk in walks:  # the last chunk runs them to their end, which frees their scratch blocks
                _consume(walk, born if k + 1 < len(plan.born) else None)
            at = plan.order[k * plan.chunk : (k + 1) * plan.chunk]
            yield at, plan.lo[at], plan.hi[at]

    def _sq_prefix(self, whitening: Optional[np.ndarray]) -> np.ndarray:
        """Running sums of the squared residuals, whitened by ``whitening``
        unless it is None, at every prefix row; (T - q + 1) x p."""
        resid = self._resid if whitening is None else self._resid @ whitening
        sq_prefix = np.zeros((len(resid) + 1, self.n_series))
        np.cumsum(resid * resid, axis=0, out=sq_prefix[1:])
        return sq_prefix

    def _bracketed(
        self, lo: np.ndarray, hi: np.ndarray, lams: np.ndarray, solver: SolverOptions,
        whitening: Optional[np.ndarray], chunk: int,
    ) -> Iterator[tuple[ScanResult, Callable[[np.ndarray], None]]]:
        """Walk the lasso intervals of prefix rows ``lo`` and ``hi``, of
        penalties ``lams`` and whitened by ``whitening``, in chunks of
        ``chunk`` (:meth:`_walk`), yielding each chunk bracketed, with a
        ``solve``.

        Each chunk is screened and its busy intervals bracketed once by
        :func:`_bracket`, with their column norms ||y_k||^2 differenced from
        :meth:`_sq_prefix`. The chunk's :class:`ScanResult` holds its rows in
        storage order: a screened row is exact (0.0, reliable) and a busy
        row holds its bracket, unsolved and unreliable. ``solve(rows)``, for
        positions of unsolved rows in that result, solves them in full, from
        zero, through :func:`_solve_busy`, and writes their
        value, non-zero count and reliability back, with ``upper`` set to the
        value and ``solved`` True. Each problem's result is independent of
        its batch, so a solved row is bitwise the row of :meth:`scan`.
        The screen, the bracket and ``solve`` gather their blocks from the
        chunk's prefix rows a solver batch (:func:`_batch_size`) at a time,
        so no chunk-sized block array is made; ``solve`` works only until
        the walk advances, and no other request may run on the scanner while
        it is in use.
        """
        sq_prefix = self._sq_prefix(whitening)
        for at, a, b in self._walk(lo, hi, chunk):
            first, last, n = lo[at], hi[at], len(at)
            stats = ScanResult(
                first + self.q + 1, last + self.q, np.zeros(n), lams[at], np.zeros(n, dtype=int),
                np.ones(n, dtype=bool), "lasso", np.zeros(n), np.ones(n, dtype=bool),
            )
            busy, value, upper, nonzero = _bracket(
                self._gram_prefix, self._cross_prefix, sq_prefix, (first, last), a, b, stats.lams, solver, whitening
            )
            stats.values[busy], stats.upper[busy], stats.nonzero[busy] = value, upper, nonzero
            stats.reliable[busy] = stats.solved[busy] = False

            def solve(rows: np.ndarray) -> None:
                stats.values[rows], _, stats.nonzero[rows], stats.reliable[rows] = _solve_busy(
                    self._gram_prefix, self._cross_prefix, a, b, stats.lams, rows, solver.tolerance,
                    solver.max_iterations, whitening,
                )
                stats.upper[rows] = stats.values[rows]
                stats.solved[rows] = True

            yield stats, solve

    def _maximum(
        self, lo: np.ndarray, hi: np.ndarray, lams: np.ndarray, solver: SolverOptions,
        whitening: Optional[np.ndarray], chunk: int,
    ) -> ScanMaximum:
        """The largest reliable lasso statistic of the intervals of
        :meth:`_bracketed`, walked in the same chunks, with the counts read
        from each chunk's columns once :func:`lasso_maximum` is done with it:
        ``unreliable`` its rows solved to the end and unreliable, ``pruned``
        its rows left unsolved.

        Each chunk goes through :func:`lasso_maximum` with the best value of
        the chunks before it as its floor, so the result is bitwise the
        maximum of one chunk of all.
        """
        best, unreliable, pruned = 0.0, 0, 0
        for stats, solve in self._bracketed(lo, hi, lams, solver, whitening, chunk):
            best = lasso_maximum(stats, solve, best)
            unreliable += int(np.count_nonzero(stats.solved & ~stats.reliable))
            pruned += int(np.count_nonzero(~stats.solved))
        return ScanMaximum(best, unreliable, pruned)

    def _kernel_args(self, interval_set: IntervalSet, config: StatConfig) -> tuple:
        """(lo, hi, lams, solver, whitening) of the set: its intervals'
        prefix rows, checked against the scanner's domain, their penalties,
        the solver options and the whitening matrix of ``config.sigma``."""
        starts, ends = interval_set.starts, interval_set.ends
        check_domain(starts, ends, self.n_rows, self.q)
        lams = interval_lambdas(config, interval_set, self.n_series, self.n_rows)
        whitening = whitening_matrix(config.sigma, self.n_series)
        return starts - self.q - 1, ends - self.q, lams, config.solver, whitening

    def scan(self, interval_set: IntervalSet, config: StatConfig) -> ScanResult:
        """Statistics for every interval in the set, in storage order.

        Computed by :func:`prefix_statistics` on one chunk of the set's
        :class:`_Walk` at a time, in chunks of :func:`_kernel_chunk`
        intervals, whitened by ``config.sigma``; results match the direct
        per-view computation up to summation order. The scan owns the OLS
        row rule (:func:`check_ols_rows`): an OLS walk covers only the
        intervals stored before the first one of fewer than pq rows, so a
        rank-deficient one among them raises the kernel's DesignError, and
        then that short one raises, unsolved. Every OLS chunk is computed in
        the buffers the scanner keeps with its plan.
        """
        lo, hi, lams, _, whitening = self._kernel_args(interval_set, config)
        n, m, p = len(lo), self.n_series * self.q, self.n_series
        short = np.flatnonzero(hi - lo < m) if config.method == "ols" else []
        stop = int(short[0]) if len(short) else n
        values, nonzero, reliable = columns = np.empty(n), np.empty(n, dtype=int), np.empty(n, dtype=bool)
        for at, a, b in self._walk(lo[:stop], hi[:stop], _kernel_chunk(m)):
            if config.method == "ols" and self._buffers is None:
                self._buffers = _ols_buffers(len(at), m, p)  # the first chunk is a whole one
            results = prefix_statistics(
                self._gram_prefix, self._cross_prefix, a, b, lams[at], config.method, config.solver, whitening,
                self._buffers,
            )
            for column, result in zip(columns, results):
                column[at] = result
        if stop < n:
            check_ols_rows(int(hi[stop] - lo[stop]), m)
        return ScanResult(interval_set.starts, interval_set.ends, values, lams, nonzero, reliable, config.method)

    def max_statistic(self, interval_set: IntervalSet, config: StatConfig) -> ScanMaximum:
        """The largest reliable statistic of the set, bitwise
        ``max_reliable_statistic(self.scan(interval_set, config))``, with counts.

        OLS takes the maximum of a scan's values. Lasso goes through
        :meth:`_maximum`, a bracketed walk (:meth:`_bracketed`) with the set
        as one chunk: every busy interval's bracket is then known before any
        is solved in full, where kernel chunks of short intervals would set
        low floors early. It holds every prefix row the set reads, and
        gathers blocks one solver batch at a time.
        No :class:`IntervalStatistic` is built. An empty set gives 0.0.
        """
        if not interval_set.intervals:
            return ScanMaximum(0.0, 0, 0)
        if config.method == "ols":
            return ScanMaximum(float(self.scan(interval_set, config).values.max()), 0, 0)
        return self._maximum(*self._kernel_args(interval_set, config), len(interval_set))


def scan_intervals(
    panel: TimeSeriesPanel,
    baseline: np.ndarray,
    interval_set: IntervalSet,
    config: StatConfig,
    q: int,
) -> ScanResult:
    """Scan a panel over an interval collection with the configured statistic."""
    return PanelScanner(panel, baseline, q).scan(interval_set, config)
