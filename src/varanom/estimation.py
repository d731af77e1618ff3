"""Penalised and unpenalised regression solvers.

The lasso solver minimises the unnormalised objective

    ||y - X b||_2^2 + lam * ||b||_1

by cyclic coordinate descent with soft-thresholding. Note there is no
1/(2n) factor: the soft-threshold level is therefore lam / 2 and the KKT
conditions read |2 X_j'(y - X b)| <= lam on inactive coordinates and
= lam * sign(b_j) on active ones.

Internally everything runs on Gram matrices (G = X'X, C = X'Y), which
lets one factorisation serve many response columns. That is what makes
the interval scan cheap: the block-diagonal Kronecker designs used by the
test statistics decouple into p single-response problems sharing one G.

The batched solver behind interval scans runs synchronised coordinate-descent
sweeps (the "covariance updates" of Friedman, Hastie and Tibshirani, 2010)
and, every few sweeps, tries to finish each running problem by the
active-set method of Osborne, Presnell and Turlach (2000): from the support
and signs of its iterate, each round solves G_SS b_S = C_S - (lam / 2) sign_S
on the support, then drops the coordinate whose sign flips first or adds
the worst KKT violator. The finish works on a bounded set of live problems,
refilled as problems leave it, and solves them in bounded chunks, so its
memory does not grow with the batch. The solver keeps coordinate-major
copies of its inputs, so each coordinate step of every problem is one
batched row product c_j - G_{j,-j} b and an in-place soft-threshold. A
batched fit is ``converged`` when that exact support solution passes the
KKT test, or when its largest coefficient change over a sweep fell to the
tolerance; a problem already solved at zero stops after its first sweep.
The solver does not screen: the statistic kernel in
:mod:`varanom.interval_stats` passes it only problems that are not zero by
the KKT test at zero.

:func:`lasso_bracket` turns any iterates into brackets [value, upper] of
the statistics, from the Gram-form duality gap; the kernel's values are its
lower end, and the maximum of a calibration scan and the online monitor's
first exceedance use the whole bracket to skip the intervals that cannot
reach the maximum or the threshold. In the library, one helper of
:mod:`varanom.interval_stats` makes every call of
:func:`lasso_cd_gram_batch` and :func:`lasso_bracket`.

:class:`SolverOptions` holds a tolerance, a sweep budget and whether
:func:`lasso_cd_gram` records its objective path. Every solver starts from
zero.

:func:`check_non_negative` is the library's one rule for a penalty, a
penalty scale or a tolerance: the value must be >= 0, and NaN fails.
:func:`default_lambda` is the one penalty rate, for scans and baselines.

Solvers are pure and reentrant; fits of independent responses may run in
parallel and give identical results regardless of schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DesignError, ParameterError, check_choice
from .intervals import check_min_length
from .var_model import TimeSeriesPanel, lag_design

_RANK_RTOL = 1e-10
# Batched lasso: fewest sweeps between attempts to finish the running problems,
# and active-set rounds per attempt. A support solve costs about m / 3 sweeps
# in flops, and more in numpy calls, so problems of m coordinates and k
# columns are tried every max(_FINISH_EVERY, m k / 10) sweeps. On batches
# captured from null p = 10, T = 500 calibration runs (m k = 100), attempts
# every 10 sweeps made 1078-problem scans 10-18% faster than the sign-settled
# finish every 5 sweeps before them, and 5-62-problem survivor batches 2.5
# times faster; every 5 made the scans 10% slower, and every 8, 12 or 15 gave
# the same times but changed more values at the rounding level. On a p = 50,
# T = 1000 scan of 402 intervals, attempts every 10 sweeps took 17.6 s against
# 6.4 s for the sign-settled finish, and every 70 to 250 took 3.4-3.9 s; at
# p = 20 and 30, every 40 to 90 was fastest. Caps of 6, 12 and 20 rounds took
# the same time at p = 10.
_FINISH_EVERY = 10
_FINISH_ROUNDS = 12
# Bound on the finish's memory, in matrix entries, down to one problem. One
# batched support solve builds m^2 k entries per problem, so it takes chunks
# of max(1, _FINISH_ENTRIES // (m^2 k)) problems (65 at p = 10, q = 1): a
# chunk holds at most max(_FINISH_ENTRIES, m^2 k) entries, and from
# m^2 k > _FINISH_ENTRIES (p = 41 at q = 1) it is one problem larger than
# the budget (one p = 50 solve peaked at 2.18 MB of traced allocations,
# against the budget's 0.5 MB). The live set keeps four m x k arrays
# per problem across a round (signs, point, solve and gradient), beside the
# Gram and cross blocks it gathers each round, so it holds at most
# max(1, _FINISH_ENTRIES // (4 m k)) problems (163 at p = 10, 6 at p = 50):
# the flip, drop and grow steps run once per round over the live set, not
# once per chunk, and a problem that leaves makes room for a waiting one, so
# rounds stay full until the last problems of an attempt. On 1078-problem
# p = 10 scans this halved the support solves (45 per scan, from 90 when each
# chunk ran its own rounds) and cut the solver's time by about a fifth; one
# 1078-problem call peaked at 7.0 MB of traced allocations, against 13.0 MB
# with every running problem live at once.
_FINISH_ENTRIES = 1 << 16
# Smallest pivot a support solve accepts, on its unit-diagonal scale; a
# smaller one means a singular or ill-conditioned support, left to CD.
_FINISH_MIN_PIVOT = 1e-8


def check_non_negative(value: float, name: str) -> float:
    """``value``, checked to be >= 0 (a penalty, a penalty scale or a
    tolerance, named ``name`` in the error); NaN fails."""
    if not value >= 0:
        raise ParameterError(f"{name} must be non-negative, got {value}")
    return value


@dataclass
class SolverOptions:
    """Convergence controls for the coordinate-descent lasso: the coefficient
    change that stops it, the sweep budget, and whether :func:`lasso_cd_gram`
    records the objective after each sweep (the batched solver does not)."""

    tolerance: float = 1e-8
    max_iterations: int = 10000
    track_objective: bool = False

    def __post_init__(self) -> None:
        check_non_negative(self.tolerance, "tolerance")
        if not self.max_iterations >= 1:
            raise ParameterError("max_iterations must be >= 1")


@dataclass
class FitResult:
    coefficients: np.ndarray
    objective: float
    iterations: int
    converged: bool
    objective_path: Optional[list[float]] = None


def soft_threshold(value: float | np.ndarray, level: float) -> float | np.ndarray:
    return np.sign(value) * np.maximum(np.abs(value) - level, 0.0)


def lasso_cd_gram(
    gram: np.ndarray,
    cross: np.ndarray,
    lam: float,
    opts: SolverOptions | None = None,
    y_sq: float = 0.0,
) -> tuple[np.ndarray, int, bool, Optional[list[float]]]:
    """Cyclic coordinate descent on Gram form, for one or many responses.

    ``cross`` has shape (m, k): column i holds X' y_i and the k problems
    share the design. Returns (coefficients (m, k), sweeps, converged,
    objective path). The optional path records the summed objective after
    each sweep (requires ``y_sq`` = sum_i ||y_i||^2 to be meaningful).
    Zero-norm columns of the design keep a zero coefficient.
    """
    opts = opts or SolverOptions()
    cross = np.asarray(cross, dtype=float)
    if cross.ndim == 1:
        cross = cross[:, None]
    m, k = cross.shape
    beta = np.zeros((m, k))
    diag = np.diag(gram).copy()
    active_cols = diag > 0.0
    level = lam / 2.0
    path: Optional[list[float]] = [] if opts.track_objective else None
    converged = False
    for sweeps in range(1, opts.max_iterations + 1):
        max_change = 0.0
        for j in range(m):
            if not active_cols[j]:
                continue
            rho = cross[j] - gram[j] @ beta + diag[j] * beta[j]
            new = soft_threshold(rho, level) / diag[j]
            change = float(np.max(np.abs(new - beta[j])))
            if change > max_change:
                max_change = change
            beta[j] = new
        if path is not None:
            path.append(_gram_objective(gram, cross, beta, lam, y_sq))
        if max_change <= opts.tolerance:
            converged = True
            break
    return beta, sweeps, converged, path


def _gram_objective(gram, cross, beta, lam, y_sq) -> float:
    quad = float(np.sum(beta * (gram @ beta)))
    lin = float(np.sum(cross * beta))
    return y_sq - 2.0 * lin + quad + lam * float(np.abs(beta).sum())


def lasso_cd_gram_batch(
    grams: np.ndarray,
    crosses: np.ndarray,
    lams: np.ndarray,
    tolerance: float = 1e-8,
    max_iterations: int = 10000,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve many independent Gram-form lassos with synchronised sweeps.

    ``grams`` is (N, m, m), ``crosses`` (N, m, k) and ``lams`` (N,): problem
    n minimises its objective with penalty lams[n]. All problems take the
    same cyclic coordinate steps as :func:`lasso_cd_gram`, so a scan costs
    roughly one batched matrix product per coordinate per sweep. At entry
    the solver copies the Gram rows coordinate-major with their diagonal
    zeroed, (m, N, 1, m), and the crosses as (m, N, k): coordinate j's
    step is rho = c_j - G_{j,-j} b, one matmul and one subtraction, then
    the soft-threshold max(|rho| - lams / 2, 0) / G_jj with the sign of
    rho, written into the iterate in place. A zero Gram column divides by
    an infinite diagonal, so its coefficients stay zero (possibly -0.0)
    whatever its cross row holds. The coefficient change is tested once per
    sweep, as max |b - b_at_sweep_start|; each coordinate moves once per
    sweep, so that is its largest single step.

    Every max(``_FINISH_EVERY``, m k / 10) sweeps (at lag 1, 10 at p = 10
    and 250 at p = 50), every running problem is tried by
    :func:`_finish_active_set`: from the support and signs of its iterate,
    each round solves G_SS b_S = c_S - (lam / 2) sign_S for every column and
    either drops the support coordinate that reaches zero first or adds the
    worst KKT violator, and the problem takes the solution once every
    column keeps its signs and satisfies |c - G b| <= (lam / 2) (1 + 1e-12)
    off its support, the lasso KKT conditions. A support whose system is
    singular or too ill-conditioned to certify, or a problem that no round
    certifies, stays on coordinate descent until the next attempt. An
    attempt keeps at most max(1, ``_FINISH_ENTRIES`` // (4 m k)) problems
    live, refilled from the running ones as live problems leave, and solves
    them in chunks of max(1, ``_FINISH_ENTRIES`` // (m^2 k)), so a chunk
    holds max(``_FINISH_ENTRIES``, m^2 k) entries; the support solves read
    ``grams`` and ``crosses`` through the problems' original indices.
    Finished problems, and problems whose largest coefficient change in a
    sweep falls to ``tolerance``, are frozen and compacted out of the
    working copies. Each problem's result depends on that problem alone,
    not on the rest of the batch, nor on the live set or chunk it shares.

    Returns (coefficients (N, m, k), converged (N,)). ``converged[n]`` is
    True when problem n was finished by an exact support solution that
    passes the KKT test, or stopped on a coefficient change of at most
    ``tolerance`` within ``max_iterations`` sweeps. The solver applies no
    screen of its own: a problem with 2 max|c| <= lam, zero by the KKT test
    at zero, keeps every coefficient at zero and stops after its first
    sweep. ``grams``, ``crosses`` and ``lams`` are read, never written, and
    may be read-only.
    """
    n_prob, m, k = crosses.shape
    out = np.zeros((n_prob, m, k))
    converged = np.zeros(n_prob, dtype=bool)
    idx = np.arange(n_prob)
    B = np.zeros((n_prob, m, k))
    rows = grams.transpose(1, 0, 2).copy()  # rows[j] is G_{j,-j} of every problem
    on_diag = np.arange(m), slice(None), np.arange(m)
    diag = np.where(rows[on_diag] > 0.0, rows[on_diag], np.inf)[:, :, None]  # (m, N, 1)
    rows[on_diag] = 0.0
    rows = rows[:, :, None, :]
    cols = crosses.transpose(1, 0, 2).copy()  # (m, N, k)
    # (N, k) rather than (N, 1): a broadcast along k = p columns costs more than the copy
    level = np.repeat((np.asarray(lams, dtype=float) / 2.0)[:, None], k, axis=1)
    every = max(_FINISH_EVERY, m * k // 10)
    for sweep in range(1, max_iterations + 1):
        if idx.size == 0:
            return out, converged
        change = B.copy()
        for j in range(m):
            rho = cols[j] - (rows[j] @ B)[:, 0, :]
            step = np.abs(rho)
            step -= level
            np.maximum(step, 0.0, out=step)
            step /= diag[j]
            np.copysign(step, rho, out=B[:, j, :])
        change -= B
        np.abs(change, out=change)
        done = change.max(axis=(1, 2)) <= tolerance
        if sweep % every == 0:
            running = np.flatnonzero(~done)
            done[running] = _finish_active_set(grams, crosses, idx, B, level[:, :1], running)
        if done.any():
            out[idx[done]] = B[done]
            converged[idx[done]] = True
            keep = ~done
            idx, B, level = idx[keep], B[keep], level[keep]
            rows, cols, diag = rows[:, keep], cols[:, keep], diag[:, keep]
    out[idx] = B
    return out, converged


def _finish_active_set(
    grams: np.ndarray, crosses: np.ndarray, which: np.ndarray, B: np.ndarray,
    level: np.ndarray, todo: np.ndarray,
) -> np.ndarray:
    """Replace the iterates ``B[todo]`` by exact lasso solutions, where active-set steps reach one.

    ``B`` is (N, m, k) and ``level`` (N, 1); their row i belongs to the
    problem ``grams[which[i]]``, ``crosses[which[i]]``. Returns accepted
    (len(todo),): the row of ``B`` of an accepted problem now holds its
    solution, certified by the KKT test, and the other rows are unchanged.
    Each column starts from its iterate's support and signs, and each round
    solves the live problems on their supports and moves every column by one
    step of the active-set method of Osborne, Presnell and Turlach (2000):
    when a support coordinate changes sign on the segment from the column's
    point to its solve, the point moves to where the first such coordinate
    reaches zero, and that coordinate leaves the support; otherwise the point
    moves to the solve, and the coordinate off the support that violates the
    KKT test most joins it with the sign of its gradient. A problem leaves
    once it passes the test, or once its support is singular, or after
    ``_FINISH_ROUNDS`` rounds of its own.

    At most max(1, ``_FINISH_ENTRIES // (4 m k)``) problems are live at a
    time, and each one that leaves makes room for the next of ``todo``. Each
    round solves the live problems in chunks of
    max(1, ``_FINISH_ENTRIES // (m^2 k)``) problems, whose systems hold
    max(``_FINISH_ENTRIES``, m^2 k) entries: from p = 41 at q = 1 a chunk is
    one problem above the budget. It then moves them all with one set of
    array operations. A
    problem's rounds depend on that problem alone, so its result does not
    depend on which problems share its rounds or its chunks.
    """
    m, k = B.shape[1:]
    room = max(1, _FINISH_ENTRIES // (4 * m * k))
    per_chunk = max(1, _FINISH_ENTRIES // (m * m * k))
    accepted = np.zeros(todo.size, dtype=bool)
    live = rounds = np.empty(0, dtype=np.intp)  # positions in todo, rounds taken
    signs = point = np.empty((0, m, k))
    queued = 0
    while True:
        if live.size < room and queued < todo.size:
            new = np.arange(queued, min(todo.size, queued + room - live.size))
            queued += new.size
            live, rounds = np.concatenate([live, new]), np.concatenate([rounds, np.zeros_like(new)])
            signs = np.concatenate([signs, np.sign(B[todo[new]])])
            point = np.concatenate([point, B[todo[new]]])
        if not live.size:
            return accepted
        rows = todo[live]
        G, C, lev = grams[which[rows]], crosses[which[rows]], level[rows]
        chunks = [slice(at, at + per_chunk) for at in range(0, live.size, per_chunk)]
        solves = [_solve_on_support(G[c], C[c], signs[c], lev[c]) for c in chunks]
        beta = np.concatenate([b for b, _ in solves])
        solved = np.concatenate([ok for _, ok in solves])
        flipped = (signs != 0.0) & (np.sign(beta) != signs)
        grad = C - G @ beta
        excess = np.where(signs == 0.0, np.abs(grad) - lev[:, :, None] * (1.0 + 1e-12), 0.0)
        ok = solved & ~flipped.any(axis=(1, 2)) & (excess <= 0.0).all(axis=(1, 2))
        B[rows[ok]] = beta[ok]
        accepted[live[ok]] = True
        rounds += 1
        keep = solved & ~ok & (rounds < _FINISH_ROUNDS)
        live, rounds, signs, point = live[keep], rounds[keep], signs[keep], point[keep]
        beta = beta[keep]
        if not live.size:
            continue
        flipped, grad, excess = flipped[keep], grad[keep], excess[keep]
        # a flipped coordinate has opposite signs at point and beta, or is zero
        # at beta; one that joined the support last round is zero at point
        size = np.abs(point) + np.abs(beta)
        crossing = np.where(flipped, np.abs(point) / np.where(size > 0.0, size, 1.0), np.inf)
        drop = flipped.any(axis=1)  # (n, k)
        step = np.minimum(crossing.min(axis=1, keepdims=True), 1.0)
        point = np.where(drop[:, None], point + step * (beta - point), beta)
        grow = ~drop & (excess > 0.0).any(axis=1)
        prob, col = np.nonzero(drop)
        at = crossing.argmin(axis=1)[prob, col]
        signs[prob, at, col] = point[prob, at, col] = 0.0
        prob, col = np.nonzero(grow)
        at = excess.argmax(axis=1)[prob, col]
        signs[prob, at, col] = np.sign(grad[prob, at, col])


def _solve_on_support(
    G: np.ndarray, C: np.ndarray, signs: np.ndarray, level: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve G_SS b_S = c_S - level sign_S for every column of every problem.

    Each column is one m x m system: G scaled to a unit diagonal, with each
    row off the support replaced by the identity row, which pins the
    unknown there to zero (the right-hand side is zero there too).
    Such a row has a zero factor and eliminates without changing any other
    entry, so the pivots are those of the positive semi-definite G_SS and
    Gaussian elimination needs no pivoting; the columns off the support only
    ever multiply zeros. The systems are eliminated together along a trailing
    batch axis, which keeps each system's arithmetic independent of the
    others, and their m^2 k n entries are the call's largest arrays, so its
    memory grows with n m^2 k whatever ``_FINISH_ENTRIES`` says: the finish
    passes n = 1 once m^2 k exceeds that budget. Returns (coefficients (n, m, k),
    solved (n,)); a problem is unsolved when some column meets a pivot at or
    below ``_FINISH_MIN_PIVOT``, which marks a singular or ill-conditioned
    support.
    """
    n, m, k = signs.shape
    # batch axis ordered (column, problem): G's broadcast over columns is then
    # along an outer axis, which numpy does faster than along a short inner one
    on = (signs != 0.0).transpose(1, 2, 0).astype(float)  # (m, k, n), 1.0 on the support
    diag = np.einsum("nii->in", G)
    scale = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))  # (m, n)
    scaled = G.transpose(1, 2, 0) * scale[:, None, :] * scale[None, :, :]
    A = (scaled[:, :, None, :] * on[:, None]).reshape(m * m, k * n)
    A[:: m + 1] += 1.0 - on.reshape(m, k * n)  # identity rows off the support
    A = A.reshape(m, m, k * n)
    rhs = (C - level[:, :, None] * signs).transpose(1, 2, 0) * scale[:, None, :]
    x = (rhs * on).reshape(m, k * n)
    solved = np.ones(k * n, dtype=bool)
    for j in range(m):
        pivot = A[j, j]
        good = pivot > _FINISH_MIN_PIVOT
        solved &= good
        factor = A[j + 1 :, j] / np.where(good, pivot, 1.0)
        A[j + 1 :, j + 1 :] -= factor[:, None] * A[j, j + 1 :]
        x[j + 1 :] -= factor * x[j]
    for j in range(m - 1, -1, -1):
        dot = np.add.reduce(A[j, j + 1 :] * x[j + 1 :], axis=0)  # np.sum, without its wrapper
        x[j] = (x[j] - dot) / np.where(solved, A[j, j], 1.0)
    beta = np.where(on, x.reshape(m, k, n) * scale[:, None, :], 0.0).transpose(2, 0, 1)
    return beta, solved.reshape(k, n).all(axis=0)


def lasso_bracket(
    grams: np.ndarray,
    crosses: np.ndarray,
    beta: np.ndarray,
    lams: np.ndarray,
    y_sq: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(value, upper) of the lasso statistics at the iterates ``beta``.

    ``grams`` is (N, m, m), ``crosses`` and ``beta`` (N, m, k), ``lams``
    (N,). The value is the gain 2 c'b - b'Gb - lam ||b||_1 summed over the
    k columns and clamped at zero, the statistic's formula, so at any
    iterate it is a lower bound of the statistic. ``y_sq`` (N, k) holds
    each column's ||y||^2; with it, each column's duality gap (Fercoq,
    Gramfort and Salmon 2015; Ndiaye et al. 2017) in Gram form, from
    ||r||^2 = ||y||^2 - 2 c'b + b'Gb, the gradient g = c - G b and the dual
    scaling s = min(1, (lam / 2) / ||g||_inf),

        gap = (1 - s)^2 ||r||^2 + lam ||b||_1 - 2 s b'g,

    is clamped at zero and summed, and upper = value + gap: by weak
    duality the statistic lies in [value, upper], up to rounding of the
    order of 1e-16 (1 + sum_k ||y_k||^2), and the bracket closes as b
    reaches the minimiser. Without ``y_sq`` upper is None.
    """
    gb = grams @ beta
    gains = (
        2.0 * np.einsum("nmk,nmk->n", crosses, beta)
        - np.einsum("nmk,nmk->n", beta, gb)
        - lams * np.abs(beta).sum(axis=(1, 2))
    )
    value = np.maximum(gains, 0.0)
    if y_sq is None:
        return value, None
    lams = np.asarray(lams, dtype=float)[:, None]
    cb = np.einsum("nmk,nmk->nk", crosses, beta)
    bgb = np.einsum("nmk,nmk->nk", beta, gb)
    # ||g||_inf of each column, as a running maximum over the m rows into a
    # contiguous (N, k) array: a third of the time of .max(axis=1)
    grad = crosses - gb
    np.abs(grad, out=grad)
    gmax = grad[:, 0].copy()
    for row in grad.transpose(1, 0, 2)[1:]:
        np.maximum(gmax, row, out=gmax)
    s = np.ones_like(gmax)
    np.divide(lams / 2.0, gmax, out=s, where=2.0 * gmax > lams)
    # ||r||^2 = ||y||^2 - 2 c'b + b'Gb and b'g = c'b - b'Gb
    gap = (
        (1.0 - s) ** 2 * (y_sq - 2.0 * cb + bgb)
        + lams * np.abs(beta).sum(axis=1)
        - 2.0 * s * (cb - bgb)
    )
    return value, value + np.maximum(gap, 0.0).sum(axis=1)


def lasso_solve(X: np.ndarray, y: np.ndarray, lam: float, opts: SolverOptions | None = None) -> FitResult:
    """Minimise ||y - X b||^2 + lam ||b||_1 by cyclic coordinate descent.

    Non-convergence within max_iterations is reported through the
    ``converged`` flag, never hidden.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    check_non_negative(lam, "lasso penalty")
    if X.shape[0] != y.shape[0]:
        raise DesignError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    gram = X.T @ X
    cross = (X.T @ y)[:, None]
    beta, sweeps, converged, path = lasso_cd_gram(gram, cross, lam, opts, y_sq=float(y @ y))
    b = beta[:, 0]
    resid = y - X @ b
    objective = float(resid @ resid) + lam * float(np.abs(b).sum())
    return FitResult(b, objective, sweeps, converged, path)


def ols_solve(X: np.ndarray, y: np.ndarray) -> FitResult:
    """Least squares on a full column rank design with n >= m."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, m = X.shape
    if n < m:
        raise DesignError(f"ill-posed design: {n} rows for {m} columns")
    sv = np.linalg.svd(X, compute_uv=False)
    if sv.size == 0 or sv[-1] <= _RANK_RTOL * sv[0]:
        raise DesignError("ill-posed design: rank deficient within tolerance")
    b, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ b
    return FitResult(b, float(resid @ resid), 1, True)


BASELINE_PENALTIES = ("ridge", "lasso", "none")


def default_lambda(min_length: int, p: int, n_rows: int, scale: float = 0.15) -> float:
    """The tuning-parameter rate scale * sqrt(L (2 log p + log T)), natural logs."""
    check_min_length(min_length)
    if p < 1 or n_rows < 1:
        raise ParameterError("p and n_rows must both be >= 1")
    check_non_negative(scale, "lambda constant")
    return scale * math.sqrt(min_length * (2.0 * math.log(p) + math.log(n_rows)))


def estimate_baseline(
    training: TimeSeriesPanel,
    q: int,
    penalty: str = "ridge",
    lam: Optional[float] = None,
    c: float = 0.15,
    opts: SolverOptions | None = None,
) -> np.ndarray:
    """Estimate the p x pq coefficient matrix from a stationary training slice.

    Each coordinate is regressed on the lagged design independently with the
    chosen penalty, one of ``BASELINE_PENALTIES``. The default lam is
    :func:`default_lambda` with L = T = n_train; a given lam must be >= 0.
    """
    check_choice(penalty, "baseline penalty", BASELINE_PENALTIES)
    values = training.values
    n, p = values.shape
    if n < q + 2:
        raise DesignError(f"training needs at least q + 2 = {q + 2} rows, got {n}")
    lam = default_lambda(n, p, n, c) if lam is None else check_non_negative(lam, "baseline lambda")
    Z, Y = lag_design(values, q)
    if penalty == "none":
        return np.vstack([ols_solve(Z, Y[:, i]).coefficients for i in range(p)])
    gram = Z.T @ Z
    cross = Z.T @ Y
    if penalty == "ridge":
        theta = np.linalg.solve(gram + lam * np.eye(gram.shape[0]), cross)
        return theta.T
    beta, _, converged, _ = lasso_cd_gram(gram, cross, lam, opts)
    if not converged:
        raise DesignError("baseline lasso did not converge; relax solver options")
    return beta.T


def estimate_noise_covariance(training: TimeSeriesPanel, theta: np.ndarray, q: int) -> np.ndarray:
    """Residual covariance (1 / (T - q)) sum_t r_t r_t' under the fitted theta."""
    values = training.values
    n, p = values.shape
    if n <= q:
        raise DesignError(f"training needs more than q = {q} rows")
    theta = np.asarray(theta, dtype=float)
    Z, Y = lag_design(values, q)
    resid = Y - Z @ theta.T if q > 0 else Y.copy()
    return resid.T @ resid / resid.shape[0]
