"""Reference interval statistics computed without the library's solvers.

Designs are built directly from the panel rows. The OLS statistic is the
squared norm of the fitted values of ``np.linalg.lstsq``. The lasso
statistic solves each response column on its own: coordinate descent finds
the support and signs, an exact solve on that support finishes the problem,
and every solution carries its duality gap, so the true statistic T lies in
[value, value + gap]. The selection rules are re-implemented here as well,
so detections can be checked against the library's own statistics.
"""

from __future__ import annotations

import math

import numpy as np

# Polishing is accepted once the gap is below this share of ||y||^2 + 1.
GAP_RTOL = 1e-12
MAX_SWEEPS = 200_000


def design(values: np.ndarray, baseline: np.ndarray, start: int, end: int, q: int = 1):
    """Lagged rows and baseline-adjusted responses of the 1-based rows start..end."""
    lagged = np.hstack([values[start - 1 - k : end - k] for k in range(1, q + 1)])
    return lagged, values[start - 1 : end] - lagged @ baseline.T


def ols_value(values, baseline, start, end, q=1) -> float:
    X, Y = design(values, baseline, start, end, q)
    coef, *_ = np.linalg.lstsq(X, Y, rcond=None)
    return float(np.sum((X @ coef) ** 2))


def _gap(X, y, b, lam) -> float:
    """Duality gap of ||y - Xb||^2 + lam ||b||_1 at b, from the explicit residual."""
    r = y - X @ b
    g = X.T @ r
    gmax = float(np.max(np.abs(g), initial=0.0))
    s = 1.0 if gmax <= lam / 2.0 else (lam / 2.0) / gmax
    gap = (1.0 - s) ** 2 * float(r @ r) + lam * float(np.abs(b).sum()) - 2.0 * s * float(b @ g)
    return max(gap, 0.0)


def _polish(G, c, b, half):
    """Exact minimiser on the support and signs of b, or None if KKT fails."""
    support = np.flatnonzero(b)
    signs = np.sign(b[support])
    out = np.zeros_like(b)
    if support.size:
        try:
            out[support] = np.linalg.solve(G[np.ix_(support, support)], c[support] - half * signs)
        except np.linalg.LinAlgError:
            return None
        if np.any(np.sign(out[support]) != signs):
            return None
    grad = c - G @ out
    off = np.ones(b.size, dtype=bool)
    off[support] = False
    if off.any() and np.max(np.abs(grad[off])) > half * (1.0 + 1e-12):
        return None
    return out


def _lasso_column(X, y, lam) -> tuple[float, float]:
    """(gain, gap) of one single-response lasso."""
    G = X.T @ X
    c = X.T @ y
    half = lam / 2.0
    if np.max(np.abs(c), initial=0.0) <= half:
        return 0.0, 0.0
    m = c.size
    diag = np.diag(G).copy()
    b = np.zeros(m)
    target = GAP_RTOL * (1.0 + float(y @ y))
    best = (0.0, math.inf)
    for sweep in range(1, MAX_SWEEPS + 1):
        for j in range(m):
            if diag[j] <= 0.0:
                continue
            rho = c[j] - G[j] @ b + diag[j] * b[j]
            b[j] = math.copysign(max(abs(rho) - half, 0.0), rho) / diag[j]
        if sweep % 5 == 0 or sweep == 1:
            cand = _polish(G, c, b, half)
            for sol in (cand, b) if cand is not None else (b,):
                gap = _gap(X, y, sol, lam)
                if gap < best[1]:
                    gain = 2.0 * float(c @ sol) - float(sol @ G @ sol) - lam * float(np.abs(sol).sum())
                    best = (gain, gap)
            if best[1] <= target:
                break
    return best


def lasso_value(values, baseline, start, end, lam, q=1) -> tuple[float, float]:
    """(statistic, certified gap) of the lasso statistic on rows start..end."""
    X, Y = design(values, baseline, start, end, q)
    gain = gap = 0.0
    for i in range(Y.shape[1]):
        g, d = _lasso_column(X, Y[:, i], lam)
        gain += g
        gap += d
    return max(gain, 0.0), gap


def rate(min_length: int, p: int, n_rows: int, scale: float) -> float:
    """The penalty rate scale * sqrt(L (2 log p + log T))."""
    return scale * math.sqrt(min_length * (2.0 * math.log(p) + math.log(n_rows)))


def online_windows(t: int) -> list[tuple[int, int]]:
    """Geometric windows [t - 2^(j-1), t], shortest first."""
    out = []
    j = 1
    while 2 ** j <= t:
        out.append((t - 2 ** (j - 1), t))
        j += 1
    return out


def select(table, threshold: float, multiple: bool) -> list[tuple[int, int]]:
    """Argmax selection over (start, end, value, reliable) rows.

    Ties break toward the earlier start, then the shorter interval; the
    multi-pass rule keeps taking the best candidate that overlaps no
    earlier pick.
    """
    cand = sorted(
        (-v, s, e - s + 1, s, e) for s, e, v, ok in table if ok and v > threshold
    )
    picked: list[tuple[int, int]] = []
    for _, _, _, s, e in cand:
        if all(e < ps or pe < s for ps, pe in picked):
            picked.append((s, e))
            if not multiple:
                break
    return picked


def empirical_quantile(samples, quantile: float) -> float:
    ordered = sorted(float(x) for x in samples)
    k = math.ceil(len(ordered) * quantile)
    return ordered[max(k - 1, 0)]
