import math

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
    VarParams,
    build_regression_view,
    default_lambda,
    generate_dense_stationary,
    lasso_solve,
    lasso_statistic,
    ols_statistic,
    random_intervals,
    scan_intervals,
    simulate,
    whiten,
)
from varanom.detection import select_multiple, select_single
from varanom.interval_stats import (
    LAMBDA_POLICIES,
    interval_lambdas,
    inverse_sqrt_psd,
    scaled_lambda,
)


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
        StatConfig(method="ols", sigma_mode="known", sigma=sigma),
    ):
        stats = scan_intervals(panel, base.stacked, ivs, cfg, q=1)
        for s, iv in zip(stats[::7], list(ivs)[::7]):
            view = build_regression_view(panel, base.stacked, iv.start, iv.end, 1)
            if cfg.sigma_mode == "known":
                view = whiten(view, sigma)
            if cfg.method == "ols":
                direct = ols_statistic(view)
            else:
                direct = lasso_statistic(view, s.lam)
            assert abs(s.value - direct.value) < 1e-8 * (1.0 + abs(direct.value))


def test_scanner_order_two_matches_direct():
    a1 = np.array([[0.3, 0.1], [0.0, 0.2]])
    a2 = np.array([[0.15, 0.0], [0.1, 0.1]])
    base = VarParams((a1, a2), np.eye(2))
    panel = simulate(base, 250, seed=23)
    ivs = random_intervals(250, 9, 40, seed=24, q=2)
    cfg = StatConfig(method="lasso")
    stats = scan_intervals(panel, base.stacked, ivs, cfg, q=2)
    for s, iv in zip(stats[::5], list(ivs)[::5]):
        view = build_regression_view(panel, base.stacked, iv.start, iv.end, 2)
        direct = lasso_statistic(view, s.lam)
        assert abs(s.value - direct.value) < 1e-8 * (1.0 + abs(direct.value))
    ols_stats = scan_intervals(panel, base.stacked, ivs, StatConfig(method="ols"), q=2)
    view = build_regression_view(panel, base.stacked, ivs.intervals[0].start, ivs.intervals[0].end, 2)
    assert abs(ols_stats[0].value - ols_statistic(view).value) < 1e-8


def test_scanner_rejects_out_of_domain():
    from varanom import Interval

    base = generate_dense_stationary(2, seed=1)
    panel = simulate(base, 50, seed=1)
    scanner = PanelScanner(panel, base.stacked, 1)
    with pytest.raises(DesignError):
        scanner.gram(Interval(1, 10))


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
        assert moved == [stats[i] for i in order]
        threshold = float(np.median([s.value for s in stats]))
        for select in (select_single, select_multiple):
            picked = [s.interval for s in select(stats, threshold)]
            assert picked and [s.interval for s in select(moved, threshold)] == picked
    for iv in ivs.intervals[::4]:
        gram, cross = scanner.gram(iv)
        view = build_regression_view(panel, law.stacked, iv.start, iv.end, q)
        want_gram = view.lagged.T @ view.lagged
        want_cross = view.lagged.T @ view.residuals
        assert np.abs(gram - want_gram).max() <= 1e-10 * np.abs(want_gram).max()
        assert np.abs(cross - want_cross).max() <= 1e-10 * np.abs(want_cross).max()
