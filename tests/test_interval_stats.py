import itertools
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from varanom import (
    DesignError,
    Interval,
    IntervalSet,
    OnlineDetector,
    ParameterError,
    PanelScanner,
    RegressionView,
    RunConfig,
    SolverOptions,
    StatConfig,
    TimeSeriesPanel,
    VarParams,
    build_regression_view,
    calibrate_threshold,
    default_lambda,
    detect_multiple,
    detect_online,
    generate_dense_stationary,
    lasso_solve,
    lasso_statistic,
    ols_statistic,
    random_intervals,
    scan_intervals,
    seeded_intervals,
    simulate,
    whiten,
)
from varanom.detection import max_reliable_statistic, online_max_statistic, select_multiple, select_single
from varanom import interval_stats
from varanom.estimation import lasso_cd_gram_batch
from varanom.interval_stats import (
    _BRACKET_MARGIN,
    _BRACKET_SWEEPS,
    _PREFIX_BLOCK_ROWS,
    LAMBDA_POLICIES,
    ScanMaximum,
    _consume,
    _CHUNK_ENTRIES,
    _pack_gram,
    _prefix_sum,
    _unpack_gram,
    _walk_plan,
    gram_ols_value,
    interval_lambdas,
    inverse_sqrt_psd,
    lasso_maximum,
    prefix_statistics,
    scaled_lambda,
    whitening_matrix,
)
from varanom.var_model import lag_design


def _one_chunk(scanner, lo, hi):
    """The plan of a one-chunk walk of the intervals of prefix rows ``lo`` and
    ``hi``, walked to its end: slot k holds the k-th row read, and the plan's
    ``lo`` and ``hi`` are positions in the scanner's prefix arrays."""
    _consume(scanner._walk(lo, hi, len(lo)))
    return scanner._plan


def _held_prefixes(scanner):
    """The scanner's (Gram, cross) prefixes holding every prefix row, so that
    a prefix row's index is its position; a scanner builds none before its
    first request."""
    every = np.arange(scanner.n_rows - scanner.q + 1)
    _one_chunk(scanner, every, every)
    return scanner._gram_prefix, scanner._cross_prefix


def _batches(n, m, p):
    """The sizes of the batches the lasso screen and solves split n intervals
    of m predictors and p responses into."""
    batch = interval_stats._batch_size(m, p)
    return [min(batch, n - s) for s in range(0, n, batch)]


def _view_from(rng, n, p, q=1):
    base = generate_dense_stationary(p, seed=int(rng.integers(1 << 30)))
    panel = simulate(base, n + 20, seed=int(rng.integers(1 << 30)))
    start = q + 1 + int(rng.integers(0, 10))
    return build_regression_view(panel, base.stacked, start, start + n - 1, q)


def test_default_lambda_values():
    assert default_lambda(5, 1, 1, 0.0) == 0.0
    assert default_lambda(17, 1, 1, 0.15) == 0.0
    expect = 0.15 * math.sqrt(100 * (2 * math.log(10) + math.log(500)))
    assert abs(default_lambda(100, 10, 500, 0.15) - expect) < 1e-12
    assert abs(expect - 4.934) < 1e-3


def test_lambda_policies():
    # offline: anchored at the set's minimum length L = 11
    base = default_lambda(11, 10, 500, 0.15)
    assert scaled_lambda(base, 44, 11, "global") == base
    assert abs(scaled_lambda(base, 44, 11, "interval_sqrt") - default_lambda(44, 10, 500, 0.15)) < 1e-12
    assert abs(scaled_lambda(base, 44, 11, "interval_linear") - base * 4.0) < 1e-12
    ivs = IntervalSet((Interval(2, 12), Interval(3, 46)), 11, (2, 500))
    got = interval_lambdas(StatConfig(lambda_policy="interval_linear"), ivs, 10, 500)
    assert np.allclose(got, [base, base * 4.0], rtol=1e-14, atol=0.0)
    # online: anchored at the shortest window of two rows; at t=16 the
    # windows hold 2, 3, 5 and 9 rows
    lengths = np.array([2, 3, 5, 9])
    want = {
        "global": 3.0 * np.ones(4),
        "interval_sqrt": 3.0 * np.sqrt(lengths / 2.0),
        "interval_linear": 3.0 * lengths / 2.0,
    }
    assert set(want) == set(LAMBDA_POLICIES)
    for policy in LAMBDA_POLICIES:
        detector = OnlineDetector(np.zeros((2, 2)), 1, 3.0, 1e9, t0=15, lambda_policy=policy)
        for x in np.random.default_rng(0).standard_normal((16, 2)):
            stats = detector.step(x)
        assert [s.interval.length for s in stats] == lengths.tolist()
        assert np.allclose([s.lam for s in stats], want[policy], rtol=1e-14, atol=0.0)
        StatConfig(lambda_policy=policy)
        RunConfig(lambda_policy=policy)
    with pytest.raises(ParameterError):
        StatConfig(lambda_policy="nope")
    with pytest.raises(ParameterError):
        OnlineDetector(np.zeros((2, 2)), 1, 3.0, 1e9, lambda_policy="nope")
    with pytest.raises(ParameterError):
        RunConfig(lambda_policy="nope")


def test_whiten_identity_returns_same_object():
    rng = np.random.default_rng(0)
    view = _view_from(rng, 20, 3)
    assert whiten(view, np.eye(3)) is view


def test_whiten_scales_response():
    rng = np.random.default_rng(1)
    view = _view_from(rng, 15, 2)
    out = whiten(view, 4.0 * np.eye(2))
    assert np.allclose(out.residuals, view.residuals / 2.0)
    assert np.array_equal(out.lagged, view.lagged)


def test_whiten_rejects_indefinite():
    rng = np.random.default_rng(2)
    view = _view_from(rng, 15, 2)
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(ParameterError):
        whiten(view, bad)


def test_inverse_sqrt_psd():
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    w = inverse_sqrt_psd(sigma)
    assert np.allclose(w @ sigma @ w, np.eye(2), atol=1e-12)


def test_ols_statistic_zero_response():
    view = RegressionView(2, 11, np.zeros((10, 2)), np.random.default_rng(3).standard_normal((10, 2)))
    assert ols_statistic(view).value == 0.0


def test_ols_statistic_scalar():
    view = RegressionView(2, 2, np.array([[2.0]]), np.array([[1.0]]))
    stat = ols_statistic(view)
    assert abs(stat.value - 4.0) < 1e-12


def test_ols_statistic_infeasible():
    view = RegressionView(2, 4, np.ones((3, 2)), np.ones((3, 6)))
    with pytest.raises(DesignError):
        ols_statistic(view)


def test_ols_statistic_null_law():
    # null statistics behave like chi-square with p^2 degrees of freedom
    p, n, reps = 2, 200, 2000
    base = VarParams((np.zeros((p, p)),), np.eye(p))
    stats = np.empty(reps)
    for r in range(reps):
        panel = simulate(base, n + 1, burn_in=10, seed=r)
        view = build_regression_view(panel, base.stacked, 2, n + 1, 1)
        stats[r] = ols_statistic(view).value
    assert abs(stats.mean() - p * p) < 0.05 * p * p
    q99 = np.quantile(stats, 0.99)
    assert abs(q99 - chi2.ppf(0.99, p * p)) < 0.05 * chi2.ppf(0.99, p * p)


def test_lasso_statistic_zero_when_penalty_dominates():
    rng = np.random.default_rng(4)
    for _ in range(20):
        view = _view_from(rng, 12, 2)
        bound = 2.0 * np.abs(view.lagged.T @ view.residuals).max()
        stat = lasso_statistic(view, bound * 1.0001)
        assert stat.value == 0.0
        assert stat.nonzero == 0


def test_lasso_statistic_scalar():
    view = RegressionView(2, 2, np.array([[5.0]]), np.array([[1.0]]))
    stat = lasso_statistic(view, 4.0)
    assert abs(stat.value - 9.0) < 1e-12


def test_lasso_statistic_matches_ols_at_zero_penalty():
    rng = np.random.default_rng(5)
    opts = SolverOptions(tolerance=1e-12, max_iterations=100000)
    for _ in range(10):
        view = _view_from(rng, 25, 3)
        a = lasso_statistic(view, 0.0, opts)
        b = ols_statistic(view)
        assert abs(a.value - b.value) < 1e-6


def test_lasso_statistic_monotone_in_lambda():
    rng = np.random.default_rng(6)
    for _ in range(5):
        view = _view_from(rng, 30, 3)
        lams = np.linspace(0.0, 40.0, 15)
        vals = [lasso_statistic(view, lam).value for lam in lams]
        assert all(b <= a + 1e-7 for a, b in zip(vals, vals[1:]))


def test_kronecker_decoupling_against_dense_solver():
    rng = np.random.default_rng(7)
    opts = SolverOptions(tolerance=1e-13, max_iterations=200000)
    for _ in range(10):
        p = int(rng.integers(2, 4))
        n = int(rng.integers(p + 2, 11))
        view = _view_from(rng, n, p)
        lam = float(rng.uniform(0.5, 6.0))
        stat = lasso_statistic(view, lam, opts)
        y = view.response
        X = view.full_design()
        dense = lasso_solve(X, y, lam, opts)
        dense_value = max(float(y @ y) - dense.objective, 0.0)
        assert abs(stat.value - dense_value) < 1e-6


def test_whitening_matches_mahalanobis_form():
    rng = np.random.default_rng(8)
    for _ in range(5):
        p, n = 2, 8
        view = _view_from(rng, n, p)
        a = rng.standard_normal((p, p))
        sigma = a @ a.T + 0.5 * np.eye(p)
        white = whiten(view, sigma)
        stat = ols_statistic(white)
        # dense generalised least squares on the monolithic design
        W = np.kron(np.linalg.inv(sigma), np.eye(n))
        X = view.full_design()
        y = view.response
        theta = np.linalg.solve(X.T @ W @ X, X.T @ W @ y)
        resid = y - X @ theta
        direct = float(y @ W @ y - resid @ W @ resid)
        assert abs(stat.value - direct) < 1e-8
        # the whitened response norm is the Mahalanobis norm of the original
        assert abs(float(white.response @ white.response) - float(y @ W @ y)) < 1e-8


def test_scanner_matches_direct_statistics():
    rng = np.random.default_rng(9)
    base = generate_dense_stationary(4, seed=11)
    panel = simulate(base, 300, seed=12)
    ivs = random_intervals(300, 8, 60, seed=13, q=1)
    a = rng.standard_normal((4, 4))
    sigma = a @ a.T + 0.5 * np.eye(4)
    for cfg in (
        StatConfig(method="lasso"),
        StatConfig(method="lasso", lambda_policy="interval_linear"),
        StatConfig(method="lasso", lambda_scale=0.05, sigma=sigma),
        StatConfig(method="ols", sigma=sigma),
    ):
        stats = scan_intervals(panel, base.stacked, ivs, cfg, q=1)
        for s, iv in zip(list(stats)[::7], list(ivs)[::7]):
            view = build_regression_view(panel, base.stacked, iv.start, iv.end, 1)
            if cfg.sigma is not None:
                view = whiten(view, sigma)
            if cfg.method == "ols":
                direct = ols_statistic(view)
            else:
                direct = lasso_statistic(view, s.lam)
            assert abs(s.value - direct.value) < 1e-8 * (1.0 + abs(direct.value))


@pytest.mark.parametrize("method", ["ols", "lasso"])
def test_scanner_whitens_by_config_sigma(method):
    # the scanner is built without a covariance; the config's sigma alone whitens
    base = generate_dense_stationary(4, seed=11)
    panel = simulate(base, 200, seed=14)
    ivs = random_intervals(200, 8, 40, seed=15, q=1)
    sigma = np.diag([4.0, 1.0, 0.25, 9.0])
    cfg = StatConfig(method=method, lambda_scale=0.05, sigma=sigma)
    stats = PanelScanner(panel, base.stacked, 1).scan(ivs, cfg)
    for s, iv in zip(stats, ivs):
        view = whiten(build_regression_view(panel, base.stacked, iv.start, iv.end, 1), sigma)
        if method == "ols":
            direct = ols_statistic(view)
        else:
            direct = lasso_statistic(view, s.lam)
        assert abs(s.value - direct.value) <= 1e-8 * abs(direct.value)


def test_stat_config_validates_sigma():
    StatConfig(sigma=np.array([[2.0, 0.5], [0.5, 1.0]]))
    for bad in (
        np.ones((2, 3)),  # not square
        np.ones(3),  # not a matrix
        np.array([[2.0, 0.5], [0.0, 1.0]]),  # asymmetric
        np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite: eigenvalues 3 and -1
        np.zeros((2, 2)),  # singular
    ):
        with pytest.raises(ParameterError):
            StatConfig(sigma=bad)


def test_scanner_order_two_matches_direct():
    a1 = np.array([[0.3, 0.1], [0.0, 0.2]])
    a2 = np.array([[0.15, 0.0], [0.1, 0.1]])
    base = VarParams((a1, a2), np.eye(2))
    panel = simulate(base, 250, seed=23)
    ivs = random_intervals(250, 9, 40, seed=24, q=2)
    cfg = StatConfig(method="lasso")
    stats = scan_intervals(panel, base.stacked, ivs, cfg, q=2)
    for s, iv in zip(list(stats)[::5], list(ivs)[::5]):
        view = build_regression_view(panel, base.stacked, iv.start, iv.end, 2)
        direct = lasso_statistic(view, s.lam)
        assert abs(s.value - direct.value) < 1e-8 * (1.0 + abs(direct.value))
    ols_stats = scan_intervals(panel, base.stacked, ivs, StatConfig(method="ols"), q=2)
    view = build_regression_view(panel, base.stacked, ivs.intervals[0].start, ivs.intervals[0].end, 2)
    assert abs(ols_stats[0].value - ols_statistic(view).value) < 1e-8


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize(
    "rows, refilled",
    [
        pytest.param(rows, False, id=str(rows))
        for rows in (_PREFIX_BLOCK_ROWS - 1, _PREFIX_BLOCK_ROWS, _PREFIX_BLOCK_ROWS + 1, 3 * _PREFIX_BLOCK_ROWS + 5)
    ]
    + [pytest.param(3 * _PREFIX_BLOCK_ROWS + 5, True, id="refilled")],
)
def test_prefix_build_is_bitwise_one_cumsum(rows, refilled, q):
    # the blocked build adds every term in the order of one cumsum over all
    # rows, and in the order the online detector accumulates its rows; the
    # residuals are the row-by-row products x - B z, bitwise on both sides.
    # The Gram prefix holds the lower triangles of that cumsum, which unpack
    # to a bitwise symmetric full prefix
    base = generate_dense_stationary(3, seed=5)
    law = VarParams((base.coeffs[0] / q,) * q, np.eye(3))
    panel = simulate(law, rows + q, burn_in=20, seed=6)
    values = panel.values
    n = len(values)
    lagged = np.hstack([values[q - k : n - k] for k in range(1, q + 1)])
    resid = np.array([x - law.stacked @ z for x, z in zip(values[q:], lagged)])
    if refilled:
        # built from another panel of the same shape and poisoned; the refill
        # builds nothing, and the first request after it rebuilds in place
        scanner = PanelScanner(simulate(law, rows + q, burn_in=20, seed=60), law.stacked, q)
        held = _held_prefixes(scanner)
        for prefix in held:
            prefix.fill(np.nan)
        scanner._refill(panel)
        assert all(np.isnan(prefix).all() for prefix in held)
        assert all(a is b for a, b in zip(held, _held_prefixes(scanner)))
    else:
        scanner = PanelScanner(panel, law.stacked, q)
        _held_prefixes(scanner)
    m = 3 * q
    assert scanner._gram_prefix.shape == (rows + 1, m * (m + 1) // 2)
    assert not scanner._gram_prefix[0].any() and not scanner._cross_prefix[0].any()
    full = np.cumsum(np.einsum("ti,tj->tij", lagged, lagged), axis=0)
    lower = np.tril_indices(m)
    assert np.array_equal(scanner._gram_prefix[1:], full[:, lower[0], lower[1]])
    unpacked = _unpack_gram(scanner._gram_prefix)
    assert np.array_equal(unpacked[1:], full)
    assert np.array_equal(unpacked, unpacked.transpose(0, 2, 1))
    assert np.array_equal(_pack_gram(unpacked), scanner._gram_prefix)
    assert np.array_equal(scanner._cross_prefix[1:], np.cumsum(np.einsum("ti,tj->tij", lagged, resid), axis=0))
    detector = OnlineDetector(law.stacked, q, 1.0, 1.0, t0=q + 1)
    for x in values:
        detector._append(x)
    assert np.array_equal(scanner._gram_prefix, detector._gram_prefix[: rows + 1])
    assert np.array_equal(scanner._cross_prefix, detector._cross_prefix[: rows + 1])


def test_scanner_build_peaks_below_the_full_prefix_layout():
    # at p = 50, q = 1 and T = 1000 a full Gram prefix and the cross prefix
    # take 1000 (2500 + 2500) doubles, 40 MB; the packed Gram prefix holds
    # 1275 doubles a row, so a build of every row, temporaries included, stays below
    n, p = 1000, 50
    base = generate_dense_stationary(p, seed=7)
    panel = simulate(base, n, seed=8)
    tracemalloc.start()
    try:
        _held_prefixes(PanelScanner(panel, base.stacked, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * (p * p + p * p) * 8


def _full_prefix_kernel(panel, baseline, q, ivs, config):
    """The kernel's (values, nonzero, reliable) and maximum of ``ivs`` over
    prefixes of every row, built by ``_prefix_sum``, where a prefix row's
    index is its position."""
    lagged, response = lag_design(panel.values, q)
    resid = response - (baseline @ lagged[:, :, None])[:, :, 0]
    every = np.arange(len(lagged) + 1)
    m, p = lagged.shape[1], resid.shape[1]
    gram_prefix = np.empty((len(every), m * (m + 1) // 2))
    cross_prefix = np.empty((len(every), m, p))
    _consume(_prefix_sum(lagged, lagged, every, gram_prefix, every))
    _consume(_prefix_sum(lagged, resid, every, cross_prefix, every))
    lo, hi = ivs.starts - q - 1, ivs.ends - q
    lams = interval_lambdas(config, ivs, p, panel.n_rows)
    whitening = whitening_matrix(config.sigma, p)
    stats = prefix_statistics(
        gram_prefix, cross_prefix, lo, hi, hi - lo, lams, config.method, config.solver, whitening
    )
    if config.method == "ols":
        return stats, ScanMaximum(float(stats[0].max()), 0, 0)
    white = resid if whitening is None else resid @ whitening
    sq_prefix = np.zeros((len(every), p))
    np.cumsum(white * white, axis=0, out=sq_prefix[1:])
    chunk = _bracketed_chunk(gram_prefix, cross_prefix, sq_prefix, ivs, q, lams, config.solver, whitening)
    return stats, _maximum_of(chunk, 0.0)


def _bracketed_chunk(gram_prefix, cross_prefix, sq_prefix, ivs, q, lams, solver, whitening):
    """``ivs`` as one bracketed chunk with its ``solve``, as
    ``PanelScanner._bracketed`` yields them, built from ``_bracket`` and
    ``_solve_busy`` over prefixes where a prefix row's index is its position."""
    lo, hi = ivs.starts - q - 1, ivs.ends - q
    n = len(lo)
    busy, value, upper, nonzero = interval_stats._bracket(
        gram_prefix, cross_prefix, sq_prefix, (lo, hi), lo, hi, lams, solver, whitening
    )
    stats = interval_stats.ScanResult(
        ivs.starts, ivs.ends, np.zeros(n), lams, np.zeros(n, dtype=int), np.ones(n, dtype=bool), "lasso",
        np.zeros(n), np.ones(n, dtype=bool),
    )
    stats.values[busy], stats.upper[busy], stats.nonzero[busy] = value, upper, nonzero
    stats.reliable[busy] = stats.solved[busy] = False

    def solve(rows):
        stats.values[rows], _, stats.nonzero[rows], stats.reliable[rows] = interval_stats._solve_busy(
            gram_prefix, cross_prefix, lo, hi, lams, rows, solver.tolerance, solver.max_iterations, whitening
        )
        stats.upper[rows] = stats.values[rows]
        stats.solved[rows] = True

    return stats, solve


def _maximum_of(chunk, floor):
    """``lasso_maximum`` of a bracketed chunk, with the unreliable and pruned
    counts ``PanelScanner._maximum`` reads from the chunk's columns."""
    stats, solve = chunk
    value = lasso_maximum(stats, solve, floor)
    unreliable = int(np.count_nonzero(stats.solved & ~stats.reliable))
    return ScanMaximum(value, unreliable, int(np.count_nonzero(~stats.solved)))


def _sharing_set(rng, n, q, m):
    """Intervals between random cut points, so that one's end row is often
    another's start row, and a duplicate of the first."""
    cuts = np.sort(rng.choice(np.arange(q, n + 1), size=int(rng.integers(3, 9)), replace=False))
    pairs = [(int(a) + 1, int(b)) for i, a in enumerate(cuts) for b in cuts[i + 1 :] if b - a > m]
    chosen = [pairs[i] for i in rng.permutation(len(pairs))[: int(rng.integers(1, 12))]] or [(q + 1, n)]
    intervals = [Interval(a, b) for a, b in chosen + chosen[:1]]
    return IntervalSet(tuple(intervals), min(iv.length for iv in intervals), (q + 1, n))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 2), whitened=st.booleans())
def test_held_rows_give_bitwise_the_full_prefix_kernel(seed, q, whitened):
    # a scanner holds only the prefix rows its sets read; its scans and maxima
    # are bitwise the kernel's over every row, for a first set, a second set
    # on the same scanner and the second set again after a refill in place
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 4))
    n = int(rng.integers(40, 140))
    a = generate_dense_stationary(p, seed=int(rng.integers(1 << 30))).coeffs[0]
    noise = rng.standard_normal((p, p))
    cov = noise @ noise.T + 0.5 * np.eye(p)
    law = VarParams((a / q,) * q, cov)
    panels = [simulate(law, n, burn_in=20, seed=int(rng.integers(1 << 30))) for _ in range(2)]
    policy = LAMBDA_POLICIES[int(rng.integers(len(LAMBDA_POLICIES)))]
    configs = [
        StatConfig(method=method, lambda_scale=0.2, sigma=cov if whitened else None, lambda_policy=policy)
        for method in ("ols", "lasso")
    ]
    scanner = PanelScanner(panels[0], law.stacked, q)
    first, second = (_sharing_set(rng, n, q, p * q) for _ in range(2))
    for panel, ivs in ((panels[0], first), (panels[0], second), (panels[1], second)):
        if panel is panels[1]:
            held = (scanner._gram_prefix, scanner._cross_prefix)
            scanner._refill(panel)
            assert held[0] is scanner._gram_prefix and held[1] is scanner._cross_prefix
        for config in configs:
            (values, nonzero, reliable), maximum = _full_prefix_kernel(panel, law.stacked, q, ivs, config)
            got = scanner.scan(ivs, config)
            assert got.values.tobytes() == values.tobytes()
            assert np.array_equal(got.nonzero, nonzero) and np.array_equal(got.reliable, reliable)
            got_max = scanner.max_statistic(ivs, config)
            assert got_max == maximum and got_max.value.hex() == maximum.value.hex()
        # the lasso maximum, the last request, walks the set as one chunk
        assert set(scanner._plan.rows.tolist()) >= set(np.r_[ivs.starts - q - 1, ivs.ends - q].tolist())


_REQUESTS = st.lists(
    st.tuples(st.sampled_from(["scan", "max", "blocks", "refill"]), st.integers(0, 7)), min_size=1, max_size=12
)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 2), per_chunk=st.integers(1, 6), requests=_REQUESTS)
def test_interleaved_requests_are_bitwise_a_fresh_scanner(seed, q, per_chunk, requests):
    # one scanner serves a random sequence of scans and maxima (OLS and lasso,
    # two sets, with and without sigma), one-interval walks and refills that swap
    # between two panels; every result is bitwise a fresh scanner's over the
    # current panel, so no request reads rows that an earlier one's walk or a
    # refill left stale in the pool, with walks of a few intervals a chunk
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 4))
    n = int(rng.integers(40, 120))
    a = generate_dense_stationary(p, seed=int(rng.integers(1 << 30))).coeffs[0]
    noise = rng.standard_normal((p, p))
    cov = noise @ noise.T + 0.5 * np.eye(p)
    law = VarParams((a / q,) * q, cov)
    panels = [simulate(law, n, burn_in=20, seed=int(rng.integers(1 << 30))) for _ in range(2)]
    sets = [_sharing_set(rng, n, q, p * q) for _ in range(2)]
    configs = [
        StatConfig(method=method, lambda_scale=0.2, sigma=sigma, lambda_policy="interval_linear")
        for method in ("ols", "lasso") for sigma in (None, cov)
    ]
    current = 0
    scanner = PanelScanner(panels[current], law.stacked, q)
    with mock.patch.object(interval_stats, "_CHUNK_ENTRIES", per_chunk * (p * q) ** 2):
        for kind, pick in requests:
            if kind == "refill":
                current = 1 - current
                scanner._refill(panels[current])
                continue
            fresh = PanelScanner(panels[current], law.stacked, q)
            if kind == "blocks":
                start = int(rng.integers(q + 1, n + 1))
                iv = Interval(start, int(rng.integers(start, n + 1)))
                got, want = _walked_blocks(scanner, iv), _walked_blocks(fresh, iv)
                assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
                continue
            ivs, config = sets[pick % 2], configs[pick // 2]
            if kind == "max":
                got_max, want_max = scanner.max_statistic(ivs, config), fresh.max_statistic(ivs, config)
                assert got_max == want_max and got_max.value.hex() == want_max.value.hex()
                continue
            got, want = scanner.scan(ivs, config), fresh.scan(ivs, config)
            for column in ("values", "lams", "nonzero", "reliable"):
                assert getattr(got, column).tobytes() == getattr(want, column).tobytes()


def _walked_blocks(scanner, interval):
    """The interval's Gram and cross-product blocks, unwhitened, from a walk
    of that one interval through the scanner's pool."""
    lo, hi = np.array([interval.start - scanner.q - 1]), np.array([interval.end - scanner.q])
    for _, (a,), (b,) in scanner._walk(lo, hi, 1):
        gram = _unpack_gram(scanner._gram_prefix[b] - scanner._gram_prefix[a])
        cross = scanner._cross_prefix[b] - scanner._cross_prefix[a]
    return gram, cross


def _builds(call) -> int:
    """Count of the ``_prefix_sum`` walks ``call()`` makes, two per build
    (the Gram and the cross prefix)."""
    with mock.patch.object(interval_stats, "_prefix_sum", wraps=_prefix_sum) as walks:
        call()
    return walks.call_count


@pytest.mark.parametrize("method", ["lasso", "ols"])
def test_calibration_builds_once_per_run(method):
    # the refilled scanner builds each run's prefixes once, whether a lasso
    # maximum holds the set's rows or an OLS scan walks them
    law = VarParams((generate_dense_stationary(3, seed=71).coeffs[0],), np.eye(3))
    ivs = seeded_intervals(120, 4, 1 / 1.2, q=1)
    for runs in (1, 4):
        assert _builds(lambda: calibrate_threshold(law, ivs, StatConfig(method=method), runs=runs, seed=72)) == 2 * runs


def test_online_maximum_builds_once():
    # the online maximum walks every window of the stream in one build
    base = generate_dense_stationary(3, seed=73)
    values = simulate(base, 300, seed=74).values
    assert _builds(lambda: online_max_statistic(values, base.stacked, 1, 0.5)) == 2


def test_seeded_scan_holds_only_the_rows_it_reads():
    # the seeded set at p = 50, T = 1000 differences 497 of the 1000 prefix
    # rows, and a walk in chunks of 52 intervals holds at most 134 of them at
    # once, so the scan, the build and the OLS kernel's buffers included,
    # peaks below half a prefix of every row (21.2 MB with all 497 held)
    n, p = 1000, 50
    base = generate_dense_stationary(p, seed=7)
    panel = simulate(base, n, seed=8)
    ivs = seeded_intervals(n, p + 1, 1 / 1.1, q=1)
    rows = np.union1d(ivs.starts - 2, ivs.ends - 1)
    assert len(rows) < 0.6 * n
    row_bytes = (p * (p + 1) // 2 + p * p) * 8
    tracemalloc.start()
    try:
        scanner = PanelScanner(panel, base.stacked, 1)
        assert tracemalloc.get_traced_memory()[1] < 0.1 * n * row_bytes  # construction builds no prefix
        scanner.scan(ivs, StatConfig(method="ols"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(scanner._plan.rows, rows)
    assert scanner._gram_prefix.shape[0] == scanner._cross_prefix.shape[0] == scanner._plan.size <= 134
    assert peak < n * row_bytes / 2
    # the pipeline's T = 2000 test scan reads 1061 rows and holds at most 148
    test_set = seeded_intervals(2 * n, p + 1, 1 / 1.1, q=1)
    plan = _walk_plan(test_set.starts - 2, test_set.ends - 1, _CHUNK_ENTRIES // (p * p))
    assert len(plan.rows) == 1061 and plan.size <= 148


def _check_walk_plan(plan, lo, hi, chunk):
    """The plan walks (end row, storage index) order in chunks of ``chunk``,
    each chunk handed out in storage order, and no two rows live at one chunk
    share a slot, from the chunk whose last end row first reaches a row to the
    last chunk that reads it."""
    order = sorted(range(len(lo)), key=lambda i: (hi[i], i))
    chunks = [sorted(order[k : k + chunk]) for k in range(0, len(order), chunk)]
    assert plan.order.tolist() == [i for c in chunks for i in c]
    slot = dict(zip(plan.rows.tolist(), plan.slots.tolist()))
    assert plan.rows.tolist() == sorted(set(lo.tolist()) | set(hi.tolist()))
    assert plan.lo.tolist() == [slot[r] for r in lo.tolist()]
    assert plan.hi.tolist() == [slot[r] for r in hi.tolist()]
    reach = [max(hi[i] for i in c) for c in chunks]
    readers = {r: [k for k, c in enumerate(chunks) if any(r in (lo[i], hi[i]) for i in c)] for r in slot}
    for k in range(len(chunks)):
        live = [r for r in slot if min(j for j, e in enumerate(reach) if e >= r) <= k <= max(readers[r])]
        assert len({slot[r] for r in live}) == len(live) <= plan.size
    assert sum(plan.born) == len(slot) and plan.size <= len(slot)


def _interval_set(kind, rng, n, q, m):
    if kind == "seeded":
        return seeded_intervals(n, m + 1, float(rng.uniform(0.5, 0.9)), q=q)
    if kind == "random":
        return random_intervals(n, m + 1, int(rng.integers(1, 60)), seed=int(rng.integers(1 << 30)), q=q)
    return _sharing_set(rng, n, q, m)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), q=st.integers(1, 2), whitened=st.booleans(),
    method=st.sampled_from(["ols", "lasso"]), kind=st.sampled_from(["seeded", "random", "sharing"]),
    per_chunk=st.integers(1, 9),
)
def test_walked_scan_is_bitwise_the_held_rows_kernel(seed, q, whitened, method, kind, per_chunk):
    # a scan walks its set in end-row order a chunk at a time and holds a
    # prefix row only while a later interval reads it; its statistics, and
    # the OLS maximum, are bitwise the kernel's on the held rows of the whole
    # set in storage order, with sets spanning many chunks of a few intervals
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 4))
    n = int(rng.integers(40, 140))
    a = generate_dense_stationary(p, seed=int(rng.integers(1 << 30))).coeffs[0]
    noise = rng.standard_normal((p, p))
    cov = noise @ noise.T + 0.5 * np.eye(p)
    law = VarParams((a / q,) * q, cov)
    panel = simulate(law, n, burn_in=20, seed=int(rng.integers(1 << 30)))
    policy = LAMBDA_POLICIES[int(rng.integers(len(LAMBDA_POLICIES)))]
    config = StatConfig(method=method, lambda_scale=0.2, sigma=cov if whitened else None, lambda_policy=policy)
    m = p * q
    ivs = _interval_set(kind, rng, n, q, m)
    lo, hi = ivs.starts - q - 1, ivs.ends - q
    held = PanelScanner(panel, law.stacked, q)
    plan = _one_chunk(held, lo, hi)
    values, nonzero, reliable = prefix_statistics(
        held._gram_prefix, held._cross_prefix, plan.lo, plan.hi, ivs.ends - ivs.starts + 1,
        interval_lambdas(config, ivs, p, n), method, config.solver, whitening_matrix(config.sigma, p),
    )
    scanner = PanelScanner(panel, law.stacked, q)
    with mock.patch.object(interval_stats, "_CHUNK_ENTRIES", per_chunk * m * m):
        got = scanner.scan(ivs, config)
        assert got.values.tobytes() == values.tobytes()
        assert np.array_equal(got.nonzero, nonzero) and np.array_equal(got.reliable, reliable)
        if method == "ols":
            assert scanner.max_statistic(ivs, config).value.hex() == float(values.max()).hex()
    plan = scanner._plan
    assert len(scanner._gram_prefix) == len(scanner._cross_prefix) == plan.size
    _check_walk_plan(plan, lo, hi, per_chunk)


@pytest.mark.parametrize("failing", list(itertools.permutations(["singular", "two rows", "one row"])))
def test_walk_raises_the_first_error_in_storage_order(monkeypatch, failing):
    # the walk meets the one-row, the two-row and the singular interval in
    # that end-row order, yet raises what the kernel on held rows raises in
    # storage order: the singular interval's error when it is stored before
    # every short one, otherwise the first short one's
    base = generate_dense_stationary(3, seed=51)
    values = simulate(base, 300, seed=52).values.copy()
    values[150:200, 1] = values[150:200, 0]  # two identical predictors there
    panel = TimeSeriesPanel(values)
    bad = {"singular": Interval(160, 190), "two rows": Interval(100, 101), "one row": Interval(60, 60)}
    normal = [Interval(s, s + 19) for s in itertools.chain(range(2, 120, 9), range(212, 280, 9))]
    stored = normal[::2] + [bad[f] for f in failing] + normal[1::2]
    ivs = IntervalSet(tuple(stored), 1, (2, 300))
    cfg = StatConfig(method="ols")
    held = PanelScanner(panel, base.stacked, 1)
    plan = _one_chunk(held, ivs.starts - 2, ivs.ends - 1)
    with pytest.raises(DesignError) as want:
        prefix_statistics(
            held._gram_prefix, held._cross_prefix, plan.lo, plan.hi, ivs.ends - ivs.starts + 1, np.zeros(len(ivs)),
            "ols", cfg.solver, None,
        )
    expected = {"singular": "rank deficient", "two rows": "2 rows", "one row": "1 rows"}[failing[0]]
    assert expected in str(want.value)
    monkeypatch.setattr(interval_stats, "_CHUNK_ENTRIES", 4 * 3 * 3)  # 4 intervals a chunk
    scanner = PanelScanner(panel, base.stacked, 1)
    for call in (scanner.scan, scanner.max_statistic):
        with pytest.raises(DesignError) as got:
            call(ivs, cfg)
        assert str(got.value) == str(want.value)


def test_all_screened_lasso_scan_memory_stays_flat_in_the_interval_count():
    # a walk gathers cross blocks one chunk at a time, so an all-screened
    # p = 50 lasso scan peaks below a prefix of every row plus chunk-sized
    # arrays, whatever the interval count: about 19 and 28 MB over 2000 and
    # 8000 random intervals, where gathering every cross block first took
    # 80.1 and 320.4 MB
    n, p = 1000, 50
    base = generate_dense_stationary(p, seed=90)
    panel = simulate(base, n, seed=91)
    config = StatConfig(method="lasso", lambda_scale=1e6)
    peaks = []
    for count in (2000, 8000):
        ivs = random_intervals(n, p + 1, count, seed=92, q=1)
        scanner = PanelScanner(panel, base.stacked, 1)
        tracemalloc.start()
        try:
            stats = scanner.scan(ivs, config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert not stats.values.any() and stats.reliable.all()
    assert max(peaks) < (n + 1) * (p * (p + 1) // 2 + p * p) * 8 + 8e6


def _ols_reference(gram_prefix, cross_prefix, lo, hi, whitening=None):
    values, nonzero = [], []
    grams = _unpack_gram(gram_prefix)
    for a, b in zip(lo, hi):
        cross = cross_prefix[b] - cross_prefix[a]
        if whitening is not None:
            cross = cross @ whitening
        value, theta = gram_ols_value(grams[b] - grams[a], cross)
        values.append(value)
        nonzero.append(np.count_nonzero(theta))
    return np.array(values), np.array(nonzero)


def _count_fallbacks(monkeypatch):
    calls = []

    def counted(gram, cross):
        calls.append(1)
        return gram_ols_value(gram, cross)

    monkeypatch.setattr(interval_stats, "gram_ols_value", counted)
    return calls


@pytest.mark.parametrize("whitened", [False, True])
def test_ols_kernel_certified_path_matches_gram_ols_value(monkeypatch, whitened):
    # chunks of 16 intervals, so the seeded scan spans several of them
    monkeypatch.setattr(interval_stats, "_CHUNK_ENTRIES", 16 * 6 * 6)
    base = generate_dense_stationary(6, seed=31)
    panel = simulate(base, 400, seed=32)
    ivs = seeded_intervals(400, 8, 1 / 1.1, q=1)
    assert len(ivs) > 3 * 16
    scanner = PanelScanner(panel, base.stacked, 1)
    lo = np.array([iv.start for iv in ivs]) - 2
    hi = np.array([iv.end for iv in ivs]) - 1
    rng = np.random.default_rng(33)
    a = rng.standard_normal((6, 6))
    whitening = inverse_sqrt_psd(a @ a.T + 0.5 * np.eye(6)) if whitened else None
    gram_prefix, cross_prefix = _held_prefixes(scanner)
    want, want_nonzero = _ols_reference(gram_prefix, cross_prefix, lo, hi, whitening)
    calls = _count_fallbacks(monkeypatch)
    values, nonzero, reliable = prefix_statistics(
        gram_prefix, cross_prefix, lo, hi, hi - lo, np.zeros(len(lo)), "ols", SolverOptions(), whitening,
    )
    assert not calls  # every interval certified
    assert np.all(np.abs(values - want) <= 1e-12 * (1.0 + np.abs(want)))
    assert np.array_equal(nonzero, want_nonzero) and reliable.all()


def _stacked_prefix(grams):
    """Prefix arrays whose interval (0, m + i) has Gram ``grams[i]`` and a random cross block."""
    m = grams[0].shape[0]
    gram_prefix = np.zeros((m + len(grams), m * (m + 1) // 2))
    gram_prefix[m:] = _pack_gram(np.array(grams))
    cross_prefix = np.zeros((m + len(grams), m, 2))
    cross_prefix[m:] = np.random.default_rng(41).standard_normal((len(grams), m, 2))
    return gram_prefix, cross_prefix, np.zeros(len(grams), dtype=int), m + np.arange(len(grams))


def test_kernel_rejects_an_unpacked_gram_prefix_and_indices_outside_it():
    gram_prefix, cross_prefix, lo, hi = _stacked_prefix([np.eye(3)] * 2)
    full = _unpack_gram(gram_prefix)
    for method in ("ols", "lasso"):
        with pytest.raises(ParameterError, match="packed"):
            prefix_statistics(full, cross_prefix, lo, hi, hi - lo, np.zeros(2), method, SolverOptions(), None)
    with pytest.raises(ParameterError, match="packed"):
        interval_stats._bracket(
            full, cross_prefix, np.zeros((len(full), 2)), (lo, hi), lo, hi, np.zeros(2), SolverOptions(), None
        )
    # the OLS gathers write straight into reused buffers, so they check their
    # indices rather than let a clipping take read the wrong rows
    for bad_lo, bad_hi in ((lo, hi + len(gram_prefix)), (lo - 1, hi)):
        with pytest.raises(IndexError):
            prefix_statistics(
                gram_prefix, cross_prefix, bad_lo, bad_hi, hi - lo, np.zeros(2), "ols", SolverOptions(), None
            )


def _spd(rng, eigenvalues):
    rot, _ = np.linalg.qr(rng.standard_normal((len(eigenvalues), len(eigenvalues))))
    return (rot * eigenvalues) @ rot.T


def test_ols_kernel_falls_back_when_certificate_fails(monkeypatch):
    # lambda_min / lambda_max = 3e-10 passes gram_ols_value's 1e-10 test, but
    # 1 / tr(G^-1) is below 2e-10 tr(G), so the interval is not certified
    rng = np.random.default_rng(40)
    near = _spd(rng, [1.0, 1.0, 1.0, 3e-10])
    grams = [_spd(rng, [1.0, 2.0, 3.0, 4.0]), near, _spd(rng, [0.5, 1.0, 1.5, 2.0])]
    gram_prefix, cross_prefix, lo, hi = _stacked_prefix(grams)
    want, want_nonzero = _ols_reference(gram_prefix, cross_prefix, lo, hi)
    calls = _count_fallbacks(monkeypatch)
    values, nonzero, _ = prefix_statistics(
        gram_prefix, cross_prefix, lo, hi, hi - lo, np.zeros(3), "ols", SolverOptions(), None
    )
    assert len(calls) == 1
    assert values[1] == want[1] and nonzero[1] == want_nonzero[1]
    assert np.all(np.abs(values - want) <= 1e-12 * (1.0 + np.abs(want)))


def test_ols_kernel_rank_deficient_interval_raises_like_gram_ols_value():
    # series 1 copies series 0 on rows 150..199, so a lag window inside them
    # has two identical predictors and a singular Gram
    base = generate_dense_stationary(3, seed=51)
    values = simulate(base, 300, seed=52).values.copy()
    values[150:200, 1] = values[150:200, 0]
    panel = TimeSeriesPanel(values)
    normal = [Interval(s, s + 19) for s in range(2, 140, 6)]
    singular = Interval(160, 190)
    scanner = PanelScanner(panel, base.stacked, 1)
    gram, cross = _walked_blocks(scanner, singular)
    with pytest.raises(DesignError) as direct:
        gram_ols_value(gram, cross)
    cfg = StatConfig(method="ols")
    mid = len(normal) // 2
    ivs = IntervalSet(tuple(normal[:mid] + [singular] + normal[mid:]), 8, (2, 300))
    with pytest.raises(DesignError) as scanned:
        scanner.scan(ivs, cfg)
    assert str(scanned.value) == str(direct.value)
    # the first failing interval in storage order decides the message
    short = Interval(200, 201)
    with pytest.raises(DesignError, match="rank deficient"):
        scanner.scan(IntervalSet(tuple(normal + [singular, short]), 2, (2, 300)), cfg)
    with pytest.raises(DesignError, match="interval of 2 rows cannot fit 3 predictors"):
        scanner.scan(IntervalSet(tuple(normal + [short, singular]), 2, (2, 300)), cfg)
    assert len(scanner.scan(IntervalSet(tuple(normal), 8, (2, 300)), cfg)) == len(normal)


def test_ols_kernel_short_interval_raises_before_any_solve(monkeypatch):
    rng = np.random.default_rng(60)
    gram_prefix, cross_prefix, lo, hi = _stacked_prefix([_spd(rng, [1.0, 2.0, 3.0, 4.0])] * 3)
    lengths = hi - lo
    lengths[0] = 3  # 3 rows for 4 predictors, read from the row counts, not the positions

    def no_solve(*args):
        raise AssertionError("solved an interval")

    monkeypatch.setattr(np.linalg, "cholesky", no_solve)
    monkeypatch.setattr(interval_stats, "gram_ols_value", no_solve)
    with pytest.raises(DesignError, match="interval of 3 rows cannot fit 4 predictors"):
        prefix_statistics(gram_prefix, cross_prefix, lo, hi, lengths, np.zeros(3), "ols", SolverOptions(), None)


def _lasso_without_screen(gram_prefix, cross_prefix, lo, hi, lams, solver, whitening):
    """The lasso kernel that gathers every Gram block and solves every interval."""
    grams = _unpack_gram(gram_prefix[hi] - gram_prefix[lo])
    crosses = cross_prefix[hi] - cross_prefix[lo]
    if whitening is not None:
        crosses = crosses @ whitening
    beta, converged = lasso_cd_gram_batch(grams, crosses, lams, solver.tolerance, solver.max_iterations)
    gains = (
        2.0 * np.einsum("nmk,nmk->n", crosses, beta)
        - np.einsum("nmk,nmk->n", beta, grams @ beta)
        - lams * np.abs(beta).sum(axis=(1, 2))
    )
    return np.maximum(gains, 0.0), np.count_nonzero(beta.reshape(len(lo), -1), axis=1), converged


@pytest.mark.parametrize("whitened", [False, True])
def test_lasso_kernel_screens_before_gathering(monkeypatch, whitened):
    base = generate_dense_stationary(4, seed=70)
    panel = simulate(base, 300, seed=71)
    ivs = seeded_intervals(300, 6, 1 / 1.2, q=1)
    scanner = PanelScanner(panel, base.stacked, 1)
    lo = np.array([iv.start for iv in ivs]) - 2
    hi = np.array([iv.end for iv in ivs]) - 1
    rng = np.random.default_rng(72)
    a = rng.standard_normal((4, 4))
    whitening = inverse_sqrt_psd(a @ a.T + 0.5 * np.eye(4)) if whitened else None
    gram_prefix, cross_prefix = _held_prefixes(scanner)
    crosses = cross_prefix[hi] - cross_prefix[lo]
    if whitening is not None:
        crosses = crosses @ whitening
    # penalties around each interval's screening level 2 max|c|, half above it
    level = 2.0 * np.abs(crosses).max(axis=(1, 2))
    lams = level * rng.choice([0.5, 0.9, 1.0, 1.1, 2.0], len(lo))
    busy = level > lams
    assert 0 < busy.sum() < len(lo)
    solver = SolverOptions(tolerance=1e-9)
    args = (gram_prefix, cross_prefix, lo, hi, hi - lo, lams)
    want = _lasso_without_screen(*args[:4], lams, solver, whitening)
    seen = []

    def spy(grams, crosses, lams, *rest):
        seen.append(len(grams))
        # the kernel is the only screen: the solver gets no problem at zero
        assert (2.0 * np.abs(crosses).max(axis=(1, 2)) > lams).all()
        return lasso_cd_gram_batch(grams, crosses, lams, *rest)

    monkeypatch.setattr(interval_stats, "lasso_cd_gram_batch", spy)
    got = prefix_statistics(*args, "lasso", solver, whitening)
    assert seen == _batches(busy.sum(), 4, 4)  # only the busy intervals reach the solver, a batch at a time
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert not got[0][~busy].any() and not got[1][~busy].any() and got[2][~busy].all()
    # a set with every interval screened never calls the solver
    seen.clear()
    values, nonzero, reliable = prefix_statistics(*args[:5], level, "lasso", solver, whitening)
    assert seen == []
    assert not values.any() and not nonzero.any() and reliable.all()


@pytest.mark.parametrize("whitened", [False, True])
def test_lasso_kernel_chunks_change_no_value(monkeypatch, whitened):
    base = generate_dense_stationary(4, seed=80)
    panel = simulate(base, 300, seed=81)
    ivs = seeded_intervals(300, 6, 1 / 1.2, q=1)
    scanner = PanelScanner(panel, base.stacked, 1)
    lo = np.array([iv.start for iv in ivs]) - 2
    hi = np.array([iv.end for iv in ivs]) - 1
    rng = np.random.default_rng(82)
    a = rng.standard_normal((4, 4))
    whitening = inverse_sqrt_psd(a @ a.T + 0.5 * np.eye(4)) if whitened else None
    gram_prefix, cross_prefix = _held_prefixes(scanner)
    crosses = cross_prefix[hi] - cross_prefix[lo]
    if whitening is not None:
        crosses = crosses @ whitening
    level = 2.0 * np.abs(crosses).max(axis=(1, 2))
    lams = level * rng.choice([0.2, 0.5, 0.9, 2.0], len(lo))
    busy = int((level > lams).sum())
    solver = SolverOptions()
    args = (gram_prefix, cross_prefix, lo, hi, hi - lo, lams, "lasso", solver, whitening)
    whole = prefix_statistics(*args)
    seen = []

    def spy(grams, *rest):
        seen.append(len(grams))
        return lasso_cd_gram_batch(grams, *rest)

    monkeypatch.setattr(interval_stats, "lasso_cd_gram_batch", spy)
    monkeypatch.setattr(interval_stats, "_CHUNK_ENTRIES", 7 * 4 * 4)  # 7 intervals a chunk
    chunked = prefix_statistics(*args)
    assert sum(seen) == busy and len(seen) == -(-busy // 7) > 3 and max(seen) == 7
    for got, want in zip(chunked, whole):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_statistic_lists_hold_python_scalars():
    # the items of scan and step results, iterated or indexed, hold Python scalars
    base = generate_dense_stationary(3, seed=74)
    panel = simulate(base, 120, seed=75)
    ivs = seeded_intervals(120, 12, 1 / 1.3, q=1)
    detector = OnlineDetector(base.stacked, 1, 0.5, 1e9, t0=10)
    for row in panel.values[:40]:
        stepped = detector.step(row)
    assert stepped
    scanner = PanelScanner(panel, base.stacked, 1)
    for method in ("lasso", "ols"):
        scanned = scanner.scan(ivs, StatConfig(method=method))
        assert [s.interval for s in scanned] == list(ivs.intervals)
        indexed = [scanned[i] for i in range(len(scanned))] + [stepped[-1]]
        assert indexed[:-1] == list(scanned) and indexed[-1] == list(stepped)[-1]
        for s in list(scanned) + list(stepped) + indexed:
            assert type(s.interval.start) is int and type(s.interval.end) is int
            assert type(s.value) is float and type(s.lam) is float
            assert type(s.nonzero) is int and type(s.reliable) is bool


def test_batch_kernel_rejects_ignored_solver_options():
    opts = SolverOptions(track_objective=True)
    with pytest.raises(ParameterError):
        StatConfig(solver=opts)
    with pytest.raises(ParameterError):
        OnlineDetector(np.zeros((2, 2)), 1, 1.0, 5.0, solver=opts)
    # the per-interval reference and the single-problem solver keep it
    rng = np.random.default_rng(73)
    view = _view_from(rng, 30, 2)
    traced = lasso_statistic(view, 1.0, SolverOptions(track_objective=True))
    assert traced.value == pytest.approx(lasso_statistic(view, 1.0).value, rel=1e-6)


def test_scanner_rejects_out_of_domain():
    from varanom import Interval

    base = generate_dense_stationary(2, seed=1)
    panel = simulate(base, 50, seed=1)
    scanner = PanelScanner(panel, base.stacked, 1)
    with pytest.raises(DesignError):
        scanner.scan(IntervalSet((Interval(1, 10),), 5, (0, 50)), StatConfig())


def test_values_never_negative():
    rng = np.random.default_rng(10)
    for _ in range(10):
        view = _view_from(rng, 20, 3)
        for lam in (0.0, 1.0, 10.0, 100.0):
            assert lasso_statistic(view, lam).value >= 0.0


def test_unreliable_statistic_flagged():
    rng = np.random.default_rng(11)
    view = _view_from(rng, 30, 3)
    stat = lasso_statistic(view, 0.01, SolverOptions(tolerance=0.0, max_iterations=2))
    assert not stat.reliable


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 2))
def test_scan_invariant_to_storage_order(seed, q):
    # storage order and prefix-equals-direct invariants of the scan
    rng = np.random.default_rng(seed)
    a = generate_dense_stationary(3, seed=int(rng.integers(1 << 30))).coeffs[0]
    law = VarParams((a / q,) * q, np.eye(3))
    panel = simulate(law, 150, burn_in=20, seed=int(rng.integers(1 << 30)))
    ivs = random_intervals(150, 8, 40, seed=int(rng.integers(1 << 30)), q=q)
    order = rng.permutation(len(ivs))
    shuffled = IntervalSet(tuple(ivs.intervals[i] for i in order), ivs.min_length, ivs.domain)
    scanner = PanelScanner(panel, law.stacked, q)
    for method in ("ols", "lasso"):
        cfg = StatConfig(method=method, lambda_scale=0.05, lambda_policy="interval_linear")
        stats = scanner.scan(ivs, cfg)
        moved = scanner.scan(shuffled, cfg)
        assert list(moved) == [stats[i] for i in order]
        threshold = float(np.median([s.value for s in stats]))
        for select in (select_single, select_multiple):
            picked = [s.interval for s in select(stats, threshold)]
            assert picked and [s.interval for s in select(moved, threshold)] == picked
    for iv in ivs.intervals[::4]:
        gram, cross = _walked_blocks(scanner, iv)
        view = build_regression_view(panel, law.stacked, iv.start, iv.end, q)
        want_gram = view.lagged.T @ view.lagged
        want_cross = view.lagged.T @ view.residuals
        assert np.abs(gram - want_gram).max() <= 1e-10 * np.abs(want_gram).max()
        assert np.abs(cross - want_cross).max() <= 1e-10 * np.abs(want_cross).max()


def _max_case(q, whitened, seed):
    base = generate_dense_stationary(3, seed=7)
    a = np.random.default_rng(8).standard_normal((3, 3))
    cov = a @ a.T + 0.5 * np.eye(3)
    law = VarParams((base.coeffs[0] / q,) * q, cov)
    panel = simulate(law, 160, burn_in=30, seed=seed)
    ivs = seeded_intervals(160, 3 * q + 2, 1 / 1.1, q=q)
    return PanelScanner(panel, law.stacked, q), ivs, cov if whitened else None


@pytest.mark.parametrize("budget", [10000, 20])
@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("whitened", [False, True])
@pytest.mark.parametrize("policy", LAMBDA_POLICIES)
def test_max_statistic_is_the_full_scan_maximum(policy, whitened, q, budget):
    # bitwise the maximum reliable statistic of a full scan, for both
    # methods; it counts at most the scan's unreliable statistics
    for seed in (1, 2):
        scanner, ivs, sigma = _max_case(q, whitened, seed)
        for method in ("lasso", "ols"):
            config = StatConfig(
                method=method, sigma=sigma, lambda_policy=policy,
                solver=SolverOptions(max_iterations=budget),
            )
            stats = scanner.scan(ivs, config)
            got = scanner.max_statistic(ivs, config)
            assert type(got.value) is float
            assert np.float64(got.value).tobytes() == np.float64(max_reliable_statistic(stats)).tobytes()
            assert got.unreliable <= sum(not x.reliable for x in stats)
            if method == "ols":
                assert (got.unreliable, got.pruned) == (0, 0)
            else:
                busy = sum(x.nonzero > 0 for x in stats)
                assert 0 < got.pruned < busy


@pytest.mark.parametrize("budget", [1, 3])
def test_max_statistic_counts_every_unreliable_statistic_at_tiny_budgets(budget):
    # with no tolerance nothing the solver works on converges, so no reliable
    # value rules anything out and every busy interval is solved in full
    scanner, ivs, _ = _max_case(1, False, 3)
    config = StatConfig(solver=SolverOptions(tolerance=0.0, max_iterations=budget))
    stats = scanner.scan(ivs, config)
    got = scanner.max_statistic(ivs, config)
    unreliable = sum(not x.reliable for x in stats)
    assert unreliable > 0
    assert got == (max_reliable_statistic(stats), unreliable, 0)


def test_max_statistic_of_empty_and_all_screened_sets_is_zero():
    scanner, ivs, _ = _max_case(1, False, 4)
    for method in ("lasso", "ols"):
        assert scanner.max_statistic(IntervalSet((), 5, (2, 160)), StatConfig(method=method)) == (0.0, 0, 0)
    screened = StatConfig(lambda_scale=1e6)
    assert all(x.value == 0.0 for x in scanner.scan(ivs, screened))
    assert scanner.max_statistic(ivs, screened) == (0.0, 0, 0)


@pytest.mark.parametrize("q", [1, 2])
def test_max_statistic_brackets_read_whitened_column_norms(monkeypatch, q):
    # the ||y_k||^2 behind each busy interval's bracket are those of its
    # whitened response, taken from the squared-residual prefix, in storage
    # order, the order of the bracketed chunk's rows
    base = generate_dense_stationary(3, seed=7)
    a = np.random.default_rng(8).standard_normal((3, 3))
    cov = 0.1 * (a @ a.T + 0.5 * np.eye(3))
    law = VarParams((base.coeffs[0] / q,) * q, cov)
    panel = simulate(law, 160, burn_in=30, seed=5)
    ivs = seeded_intervals(160, 3 * q + 2, 1 / 1.1, q=q)
    config = StatConfig(sigma=cov)
    scanner = PanelScanner(panel, law.stacked, q)
    busy = [x.interval for x in scanner.scan(ivs, config) if x.nonzero > 0]
    seen = []
    bracket = interval_stats.lasso_bracket

    def spy(grams, crosses, beta, lams, y_sq=None):
        if y_sq is not None:
            seen.append(y_sq)
        return bracket(grams, crosses, beta, lams, y_sq)

    monkeypatch.setattr(interval_stats, "lasso_bracket", spy)
    scanner.max_statistic(ivs, config)
    views = (whiten(build_regression_view(panel, law.stacked, iv.start, iv.end, q), cov) for iv in busy)
    want = np.array([(v.residuals**2).sum(axis=0) for v in views])
    assert [len(y) for y in seen] == _batches(len(busy), 3 * q, 3)
    np.testing.assert_allclose(np.concatenate(seen), want, rtol=1e-10)


@pytest.mark.parametrize("budget, counts", [(10000, (0, 666)), (8, (583, 0))])
def test_lasso_maximum_floor(budget, counts):
    # over one chunk of 737 busy intervals, a floor below, at or above the
    # chunk's own maximum M gives max(floor, M), bitwise, and prunes no fewer;
    # floor 0.0 gives M, the kernel's largest reliable value, with the
    # unreliable and pruned counts pinned for this case (at 8 sweeps most
    # solves stop short, and the low reliable maximum rules nothing out)
    base = generate_dense_stationary(3, seed=7)
    a = np.random.default_rng(8).standard_normal((3, 3))
    cov = a @ a.T + 0.5 * np.eye(3)
    law = VarParams((base.coeffs[0],), cov)
    panel = simulate(law, 160, burn_in=30, seed=9)
    ivs = seeded_intervals(160, 5, 1 / 1.1, q=1)
    config = StatConfig(sigma=cov, solver=SolverOptions(max_iterations=budget))
    scanner = PanelScanner(panel, law.stacked, 1)
    gram_prefix, cross_prefix = _held_prefixes(scanner)
    whitening = whitening_matrix(cov, 3)
    sq_prefix = scanner._sq_prefix(whitening)
    lo, hi = ivs.starts - 2, ivs.ends - 1
    lams = interval_lambdas(config, ivs, 3, 160)
    args = (gram_prefix, cross_prefix, sq_prefix, ivs, 1, lams, config.solver, whitening)
    values, _, reliable = prefix_statistics(*args[:2], lo, hi, hi - lo, lams, "lasso", config.solver, whitening)
    top = _maximum_of(_bracketed_chunk(*args), 0.0)
    assert top.value.hex() == float(values[reliable].max()).hex()
    assert (top.unreliable, top.pruned) == counts
    pruned = top.pruned
    for floor in (top.value / 2, top.value, 2 * top.value):
        got = _maximum_of(_bracketed_chunk(*args), floor)
        assert got.value.hex() == max(floor, top.value).hex()
        assert got.pruned >= pruned
        pruned = got.pruned
    # every busy interval's upper bound lies below 2M, so that floor solves none
    assert (got.unreliable, got.pruned) == (0, 737)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), q=st.integers(1, 2), policy=st.sampled_from(LAMBDA_POLICIES),
    whitened=st.booleans(), sweeps=st.sampled_from([3, 12]), per_chunk=st.integers(1, 9),
)
def test_bracketed_walk_brackets_the_scan_chunk_by_chunk(seed, q, policy, whitened, sweeps, per_chunk):
    # a bracketed walk in chunks of a few intervals: each chunk holds its rows
    # in storage order, its screened rows are the scan's bitwise, and its busy
    # rows bracket the scan's values, the lower side up to the rounding slack,
    # until solve makes them the scan's bitwise; every gather covers at most
    # one batch, and every earlier gather's cross blocks are dead by then
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 4))
    n = int(rng.integers(40, 120))
    m = p * q
    a = generate_dense_stationary(p, seed=int(rng.integers(1 << 30))).coeffs[0]
    noise = rng.standard_normal((p, p))
    cov = noise @ noise.T + 0.5 * np.eye(p)
    law = VarParams((a / q,) * q, cov)
    panel = simulate(law, n, burn_in=20, seed=int(rng.integers(1 << 30)))
    ivs = random_intervals(n, m + 2, int(rng.integers(20, 60)), seed=int(rng.integers(1 << 30)), q=q)
    config = StatConfig(
        lambda_scale=float(rng.uniform(0.05, 0.5)), sigma=cov if whitened else None,
        solver=SolverOptions(max_iterations=sweeps), lambda_policy=policy,
    )
    full = PanelScanner(panel, law.stacked, q).scan(ivs, config)
    y_sq = np.array([
        np.sum(whiten(build_regression_view(panel, law.stacked, s, e, q), config.sigma).residuals ** 2)
        for s, e in zip(ivs.starts.tolist(), ivs.ends.tolist())
    ])
    slack = _BRACKET_MARGIN * (1.0 + y_sq)
    gathered, walked, gathers = [], [], 0
    gather = interval_stats.cross_blocks

    def spy(*args):
        assert all(ref() is None for ref in gathered), "an earlier gather's cross blocks are still held"
        assert len(args[1]) <= interval_stats._batch_size(m, p)
        crosses = gather(*args)
        gathered.append(weakref.ref(crosses))
        return crosses

    scanner = PanelScanner(panel, law.stacked, q)
    with mock.patch.object(interval_stats, "_CHUNK_ENTRIES", per_chunk * m * m), \
            mock.patch.object(interval_stats, "cross_blocks", spy):
        chunk = interval_stats._CHUNK_ENTRIES // (m * m)
        for k, (stats, solve) in enumerate(scanner._bracketed(*scanner._kernel_args(ivs, config), chunk)):
            plan = scanner._plan
            at = np.sort(plan.order[k * plan.chunk : (k + 1) * plan.chunk])
            walked.append(at)
            for column in ("starts", "ends", "lams"):
                assert getattr(stats, column).tobytes() == getattr(full, column)[at].tobytes()
            busy = ~stats.solved
            for column in ("values", "nonzero", "reliable"):
                assert getattr(stats, column)[~busy].tobytes() == getattr(full, column)[at][~busy].tobytes()
            want = full.values[at][busy]
            assert not stats.reliable[busy].any()
            assert (stats.values[busy] <= want + slack[at][busy]).all() and (want <= stats.upper[busy]).all()
            rows = np.flatnonzero(busy)
            solve(rows[::2])
            solve(rows[1::2])
            # a chunk is one batch: its screen, its bracket and each non-empty solve gather once
            gathers += 1 + 2 * (rows.size > 0) + (rows.size > 1)
            assert stats.solved.all() and stats.upper.tobytes() == stats.values.tobytes()
            for column in ("values", "nonzero", "reliable"):
                assert getattr(stats, column).tobytes() == getattr(full, column)[at].tobytes()
    assert np.array_equal(np.sort(np.concatenate(walked)), np.arange(len(ivs)))
    assert len(gathered) == gathers


def test_max_statistic_solves_fewer_problems_than_its_first_pass(monkeypatch):
    # a p = 10 null run: the survivors' solve gets fewer problems than the
    # first pass over every busy interval, and the maximum is the scan's
    rng = np.random.default_rng(5)
    a = rng.uniform(-1.0, 1.0, size=(10, 10))
    a *= 0.7 / np.max(np.abs(np.linalg.eigvals(a)))
    law = VarParams((a,), np.eye(10))
    scanner = PanelScanner(simulate(law, 500, seed=6), a, 1)
    ivs = seeded_intervals(500, 11, 1 / 1.1, q=1)
    config = StatConfig(lambda_policy="interval_linear")
    calls = []
    solve = interval_stats.lasso_cd_gram_batch

    def spy(grams, crosses, lams, tolerance, max_iterations):
        calls.append((len(grams), max_iterations))
        return solve(grams, crosses, lams, tolerance, max_iterations)

    monkeypatch.setattr(interval_stats, "lasso_cd_gram_batch", spy)
    got = scanner.max_statistic(ivs, config)
    # the first pass's batches come before every survivor solve
    k = [it for _, it in calls].count(_BRACKET_SWEEPS)
    first, rest = sum(n for n, _ in calls[:k]), calls[k:]
    assert [n for n, _ in calls[:k]] == _batches(first, 10, 10)
    assert all(it == _BRACKET_SWEEPS for _, it in calls[:k])
    assert rest and all(it == config.solver.max_iterations for _, it in rest)
    assert 0 < sum(n for n, _ in rest) < first
    assert got.pruned == first - sum(n for n, _ in rest)
    calls.clear()
    assert got.value == max_reliable_statistic(scanner.scan(ivs, config))


@pytest.mark.parametrize("tolerance, budget", [(1e-8, 10000), (1e-8, 20), (0.0, 3)])
def test_max_statistic_gathers_once_and_solves_exactly_the_survivors(monkeypatch, tolerance, budget):
    # one max_statistic call screens each interval's cross block once, a
    # batch at a time, never re-enters the kernel, and each survivor solve
    # gets exactly the unsolved busy intervals whose upper bound reaches that
    # round's level, and gathers only their blocks, a batch at a time; at no
    # tolerance nothing converges, so a second round solves the rest
    rng = np.random.default_rng(5)
    a = rng.uniform(-1.0, 1.0, size=(10, 10))
    a *= 0.7 / np.max(np.abs(np.linalg.eigvals(a)))
    law = VarParams((a,), np.eye(10))
    scanner = PanelScanner(simulate(law, 500, seed=6), a, 1)
    ivs = seeded_intervals(500, 11, 1 / 1.1, q=1)
    solver = SolverOptions(tolerance=tolerance, max_iterations=budget)
    config = StatConfig(lambda_policy="interval_linear", solver=solver)
    gathers, calls = [], []
    gather, solve = interval_stats.cross_blocks, interval_stats._solve_busy
    batch = interval_stats._batch_size(10, 10)
    assert batch == 163

    def gather_spy(cross_prefix, lo, hi, whitening):
        gathers.append(list(zip(lo.tolist(), hi.tolist())))
        return gather(cross_prefix, lo, hi, whitening)

    def no_kernel(*args):
        raise AssertionError("max_statistic called prefix_statistics")

    def solve_spy(gram_prefix, cross_prefix, lo, hi, lams, busy, tolerance, sweeps, whitening, y_sq=None):
        before = len(gathers)
        result = solve(gram_prefix, cross_prefix, lo, hi, lams, busy, tolerance, sweeps, whitening, y_sq)
        rows = list(zip(lo[busy].tolist(), hi[busy].tolist()))
        assert gathers[before:] == [rows[s : s + batch] for s in range(0, len(rows), batch)]
        del gathers[before:]
        copies = tuple(None if r is None else r.copy() for r in result)
        calls.append((rows, sweeps, y_sq, copies))
        return result

    monkeypatch.setattr(interval_stats, "cross_blocks", gather_spy)
    monkeypatch.setattr(interval_stats, "prefix_statistics", no_kernel)
    monkeypatch.setattr(interval_stats, "_solve_busy", solve_spy)
    got = scanner.max_statistic(ivs, config)
    screened = list(zip(scanner._plan.lo.tolist(), scanner._plan.hi.tolist()))  # the one chunk, in storage order
    assert len(screened) == len(ivs)
    assert gathers == [screened[s : s + batch] for s in range(0, len(ivs), batch)]
    (busy, sweeps, y_sq, (value, upper, _, _)), *rounds = calls
    assert sweeps == min(_BRACKET_SWEEPS, budget) and y_sq is not None and rounds
    upper = upper + _BRACKET_MARGIN * (1.0 + y_sq.sum(axis=1))
    solved = np.zeros(len(busy), dtype=bool)
    level, best = float(value.max(initial=0.0)), 0.0
    rounds = iter(rounds)
    while True:
        todo = ~solved & (upper >= level)
        if todo.any():
            survivors, sweeps, y_sq, (values, _, _, reliable) = next(rounds)
            assert survivors == [iv for iv, t in zip(busy, todo) if t]
            assert sweeps == budget and y_sq is None
            solved |= todo
            best = max(best, float(values[reliable].max(initial=0.0)))
        if best >= level:
            break
        level = best
    assert next(rounds, None) is None
    assert len(calls) == (3 if tolerance == 0.0 else 2)
    assert got.value == best and got.pruned == int(np.count_nonzero(~solved))


def _lasso_results(panel, baseline, q, ivs, config, chunk, lam):
    """Every lasso result a batch could change, as bytes: the held-rows
    kernel's columns and maximum, a scan, a maximum with its counts, each
    chunk of a bracketed walk in chunks of ``chunk`` before and after its
    busy rows are solved, the picks of a detection at half the maximum, and
    the online maximum and alarm of the panel as a stream at half it (at 1.0
    when a maximum is 0.0)."""
    (values, nonzero, reliable), top = _full_prefix_kernel(panel, baseline, q, ivs, config)
    out = [values.tobytes(), nonzero.tobytes(), reliable.tobytes(), top.value.hex(), top[1:]]
    scanner = PanelScanner(panel, baseline, q)
    stats = scanner.scan(ivs, config)
    out += [getattr(stats, c).tobytes() for c in ("values", "nonzero", "reliable")]
    got = scanner.max_statistic(ivs, config)
    out += [got.value.hex(), got[1:]]
    columns = ("values", "upper", "nonzero", "reliable", "solved")
    for chunk_stats, solve in scanner._bracketed(*scanner._kernel_args(ivs, config), chunk):
        out += [getattr(chunk_stats, c).tobytes() for c in columns]
        solve(np.flatnonzero(~chunk_stats.solved))
        out += [getattr(chunk_stats, c).tobytes() for c in columns]
    picked = detect_multiple(panel, baseline, ivs, config, got.value / 2 or 1.0, q=q).detected
    out.append([(x.interval, x.value.hex()) for x in picked])
    online = dict(solver=config.solver, sigma=config.sigma, lambda_policy=config.lambda_policy)
    best = online_max_statistic(panel.values, baseline, q, lam, **online)
    alarm = detect_online(panel.values, baseline, q, lam, best / 2 or 1.0, **online)
    return out + [best.hex(), alarm and (alarm.time, alarm.window, alarm.statistic.hex())]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), q=st.integers(1, 2), policy=st.sampled_from(LAMBDA_POLICIES),
    whitened=st.booleans(), sweeps=st.sampled_from([3, 12]), batch=st.integers(1, 9),
)
def test_lasso_batches_change_no_result(seed, q, policy, whitened, sweeps, batch):
    # each problem's result depends on that problem alone, so screening and
    # solving in batches of 1 to 9 intervals gives bitwise every result of
    # the default batches: kernel, scan, maximum and counts, bracketed
    # chunks, detections, online maximum and alarm
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 4))
    n = int(rng.integers(40, 120))
    m = p * q
    a = generate_dense_stationary(p, seed=int(rng.integers(1 << 30))).coeffs[0]
    noise = rng.standard_normal((p, p))
    cov = noise @ noise.T + 0.5 * np.eye(p)
    law = VarParams((a / q,) * q, cov)
    panel = simulate(law, n, burn_in=20, seed=int(rng.integers(1 << 30)))
    ivs = random_intervals(n, m + 2, int(rng.integers(20, 60)), seed=int(rng.integers(1 << 30)), q=q)
    config = StatConfig(
        lambda_scale=float(rng.uniform(0.05, 0.5)), sigma=cov if whitened else None,
        solver=SolverOptions(max_iterations=sweeps), lambda_policy=policy,
    )
    args = (panel, law.stacked, q, ivs, config, int(rng.integers(5, 30)), float(rng.uniform(0.05, 1.0)))
    want = _lasso_results(*args)
    assert interval_stats._batch_size(m, p) >= 128
    with mock.patch.object(interval_stats, "_BATCH_FLOOR", batch), mock.patch.object(interval_stats, "_BATCH_ENTRIES", 1):
        assert interval_stats._batch_size(m, p) == batch
        assert _lasso_results(*args) == want
    # fewer chunk entries than one m x m block, as at pq >= 363, floor the
    # batches and the walks' kernel chunks at one interval
    with mock.patch.object(interval_stats, "_CHUNK_ENTRIES", m * m - 1):
        assert interval_stats._batch_size(m, p) == 1
        assert _lasso_results(*args) == want


def test_p10_lasso_maximum_holds_a_few_batches():
    # a p = 10 maximum over the 1078 seeded intervals screens and solves in
    # batches of 163, so its traced peak, the scanner's prefix rows included,
    # stays below 4 MB, where gathering every cross block at once took 9.2 MB
    rng = np.random.default_rng(5)
    a = rng.uniform(-1.0, 1.0, size=(10, 10))
    a *= 0.7 / np.max(np.abs(np.linalg.eigvals(a)))
    law = VarParams((a,), np.eye(10))
    panel = simulate(law, 500, seed=6)
    ivs = seeded_intervals(500, 11, 1 / 1.1, q=1)
    config = StatConfig(lambda_policy="interval_linear")
    tracemalloc.start()
    try:
        got = PanelScanner(panel, a, 1).max_statistic(ivs, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ivs) == 1078 and got.pruned > 0
    assert peak < 4e6
