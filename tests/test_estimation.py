import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varanom import (
    DesignError,
    PanelScanner,
    ParameterError,
    RegressionView,
    SolverOptions,
    StatConfig,
    TimeSeriesPanel,
    VarParams,
    build_regression_view,
    estimate_baseline,
    estimate_noise_covariance,
    generate_dense_stationary,
    generate_sparse_offdiag,
    lasso_solve,
    lasso_statistic,
    ols_solve,
    seeded_intervals,
    simulate,
)
from varanom import estimation
from varanom.estimation import (
    default_lambda,
    lasso_bracket,
    lasso_cd_gram,
    lasso_cd_gram_batch,
    soft_threshold,
)
from varanom.interval_stats import _pack_gram, _unpack_gram, interval_lambdas, prefix_statistics


def kkt_violation(gram: np.ndarray, cross: np.ndarray, beta: np.ndarray, lam: float) -> float:
    """Worst violation of the lasso stationarity conditions, in gradient units."""
    grad = 2.0 * (gram @ beta - cross)
    active = beta != 0.0
    v = 0.0
    if np.any(active):
        v = float(np.max(np.abs(grad[active] + lam * np.sign(beta[active]))))
    inactive = ~active
    if np.any(inactive):
        v = max(v, float(np.max(np.abs(grad[inactive])) - lam))
    return max(v, 0.0)


def _interval_blocks(panel, baseline, intervals):
    """Stacked Gram and cross-product blocks of the intervals, unwhitened,
    each from the interval's regression view."""
    views = [build_regression_view(panel, baseline, iv.start, iv.end, 1) for iv in intervals]
    return np.stack([v.lagged.T @ v.lagged for v in views]), np.stack([v.lagged.T @ v.residuals for v in views])


def test_lasso_identity_design_no_penalty():
    fit = lasso_solve(np.eye(2), np.array([3.0, -1.0]), 0.0)
    assert fit.converged
    assert np.allclose(fit.coefficients, [3.0, -1.0], atol=1e-10)


def test_lasso_scalar_soft_threshold():
    fit = lasso_solve(np.array([[1.0]]), np.array([5.0]), 4.0)
    assert abs(fit.coefficients[0] - 3.0) < 1e-12
    assert abs(fit.objective - 16.0) < 1e-12


def test_lasso_large_penalty_zeroes():
    fit = lasso_solve(np.array([[1.0]]), np.array([5.0]), 12.0)
    assert fit.coefficients[0] == 0.0


def test_lasso_kkt_at_solution():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n, m = 30, 6
        X = rng.standard_normal((n, m))
        y = rng.standard_normal(n)
        lam = float(rng.uniform(0.1, 5.0))
        fit = lasso_solve(X, y, lam, SolverOptions(tolerance=1e-12))
        assert fit.converged
        viol = kkt_violation(X.T @ X, (X.T @ y)[:, None], fit.coefficients[:, None], lam)
        norms = np.sqrt((X**2).sum(axis=0))
        assert viol <= 1e-6 * norms.max()


def test_lasso_objective_non_increasing_per_sweep():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 8))
    X[:, 3] = X[:, 2] + 0.01 * rng.standard_normal(40)  # correlated columns
    y = rng.standard_normal(40)
    fit = lasso_solve(X, y, 1.0, SolverOptions(track_objective=True))
    path = np.array(fit.objective_path)
    assert len(path) >= 2
    assert np.all(np.diff(path) <= 1e-9 * (1.0 + np.abs(path[:-1])))


def test_lasso_zero_penalty_matches_ols():
    rng = np.random.default_rng(7)
    for _ in range(20):
        X = rng.standard_normal((25, 5))
        y = rng.standard_normal(25)
        lasso = lasso_solve(X, y, 0.0, SolverOptions(tolerance=1e-13, max_iterations=100000))
        ols = ols_solve(X, y)
        assert np.abs(lasso.coefficients - ols.coefficients).max() < 1e-6


def test_block_diagonal_solve_equals_monolithic():
    rng = np.random.default_rng(11)
    opts = SolverOptions(tolerance=1e-14, max_iterations=200000)
    for _ in range(10):
        p, n, m = 3, 8, 3
        B = rng.standard_normal((n, m))
        ys = rng.standard_normal((n, p))
        lam = float(rng.uniform(0.2, 2.0))
        full = lasso_solve(np.kron(np.eye(p), B), ys.ravel(order="F"), lam, opts)
        block_obj = 0.0
        for i in range(p):
            block_obj += lasso_solve(B, ys[:, i], lam, opts).objective
        assert abs(full.objective - block_obj) < 1e-10 * (1.0 + abs(block_obj))


def test_batch_solver_matches_single():
    rng = np.random.default_rng(3)
    grams, crosses, lams = [], [], []
    singles = []
    for _ in range(20):
        n, m, k = 15, 4, 3
        X = rng.standard_normal((n, m))
        Y = rng.standard_normal((n, k))
        lam = float(rng.uniform(0.0, 3.0))
        G, C = X.T @ X, X.T @ Y
        grams.append(G)
        crosses.append(C)
        lams.append(lam)
        beta, _, conv, _ = lasso_cd_gram(G, C, lam, SolverOptions())
        assert conv
        singles.append(beta)
    batch, conv = lasso_cd_gram_batch(np.stack(grams), np.stack(crosses), np.array(lams))
    assert conv.all()
    for got, want in zip(batch, singles):
        assert np.abs(got - want).max() < 1e-7


def test_lasso_non_convergence_is_flagged():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((30, 6))
    y = rng.standard_normal(30)
    fit = lasso_solve(X, y, 0.01, SolverOptions(tolerance=0.0, max_iterations=3))
    assert not fit.converged


def test_lasso_rejects_negative_penalty():
    with pytest.raises(ParameterError):
        lasso_solve(np.eye(2), np.zeros(2), -1.0)


def test_ols_examples():
    fit = ols_solve(np.eye(2), np.array([3.0, -1.0]))
    assert np.allclose(fit.coefficients, [3.0, -1.0])
    fit = ols_solve(np.array([[1.0], [1.0]]), np.array([2.0, 4.0]))
    assert abs(fit.coefficients[0] - 3.0) < 1e-12
    with pytest.raises(DesignError):
        ols_solve(np.ones((5, 10)), np.ones(5))
    with pytest.raises(DesignError):
        ols_solve(np.column_stack([np.ones(6), np.ones(6)]), np.ones(6))


def test_ols_residual_orthogonality():
    rng = np.random.default_rng(15)
    X = rng.standard_normal((50, 6))
    y = rng.standard_normal(50)
    fit = ols_solve(X, y)
    resid = y - X @ fit.coefficients
    assert np.abs(X.T @ resid).max() < 1e-8 * np.abs(X.T @ y).max()


def test_fit_result_objective_consistency():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((20, 4))
    y = rng.standard_normal(20)
    lam = 0.7
    fit = lasso_solve(X, y, lam)
    b = fit.coefficients
    direct = float(np.sum((y - X @ b) ** 2)) + lam * float(np.abs(b).sum())
    assert abs(fit.objective - direct) < 1e-10


def test_soft_threshold_values():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-3.0, 1.0) == -2.0
    assert soft_threshold(0.5, 1.0) == 0.0


def test_baseline_recovery_sparse_lasso():
    # a strictly nilpotent system decays to zero without noise, so the
    # near-noiseless panel stands in for the noiseless regression
    params = generate_sparse_offdiag(5, 0.5)
    low_noise = VarParams(params.coeffs, 1e-6 * np.eye(5))
    panel = simulate(low_noise, 32000, seed=31)
    theta = estimate_baseline(panel, 1, penalty="lasso", lam=1.6e-3)
    truth = params.stacked
    assert np.array_equal(theta != 0.0, truth != 0.0)
    assert np.abs(theta - truth).max() < 0.05


def test_baseline_too_few_rows():
    panel = TimeSeriesPanel(np.ones((2, 3)))
    with pytest.raises(DesignError):
        estimate_baseline(panel, 1)


def test_baseline_ridge_consistency():
    base = generate_dense_stationary(10, seed=1)
    errs = {500: [], 1000: []}
    for s in range(20):
        for n in (500, 1000):
            panel = simulate(base, n, seed=100 * s + n)
            theta = estimate_baseline(panel, 1, penalty="ridge")
            errs[n].append(np.abs(theta - base.stacked).max())
    assert np.mean(errs[1000]) < np.mean(errs[500])


def test_baseline_unpenalised_var2():
    a1 = np.array([[0.4, 0.1], [0.0, 0.3]])
    a2 = np.array([[0.1, 0.0], [0.2, 0.1]])
    params = VarParams((a1, a2), 0.01 * np.eye(2))
    panel = simulate(params, 5000, seed=17)
    theta = estimate_baseline(panel, 2, penalty="none")
    assert theta.shape == (2, 4)
    assert np.abs(theta - params.stacked).max() < 0.05


def test_noise_covariance_estimation():
    base = generate_dense_stationary(3, seed=2)
    panel = simulate(base, 50000, seed=3)
    sigma = estimate_noise_covariance(panel, base.stacked, 1)
    assert np.abs(sigma - np.eye(3)).max() < 0.05
    assert np.allclose(sigma, sigma.T)


def test_noise_covariance_edge_cases():
    # noiseless fit gives a zero matrix
    values = np.linspace(1.0, 2.0, 10)[:, None]
    panel = TimeSeriesPanel(values)
    Z = values[:-1]
    theta = np.linalg.lstsq(Z, values[1:], rcond=None)[0].T
    resid_cov = estimate_noise_covariance(panel, theta, 1)
    assert resid_cov.shape == (1, 1)
    # q = 0: plain mean of squares of the rows themselves
    alt = estimate_noise_covariance(
        TimeSeriesPanel(np.array([[1.0], [-1.0], [1.0], [-1.0]])), np.zeros((1, 0)), 0
    )
    assert abs(alt[0, 0] - 1.0) < 1e-12


def test_baseline_default_lambda_is_the_rate_at_the_training_length():
    # the removed default_baseline_lambda(p, n, c) was this formula; the
    # baseline now takes default_lambda with L = T = n
    n, p, c = 500, 10, 0.15
    lam = default_lambda(n, p, n, c)
    assert lam == c * math.sqrt(n * (2.0 * math.log(p) + math.log(n))) > 0
    panel = simulate(generate_dense_stationary(p, seed=4), n, seed=5)
    for penalty in ("ridge", "lasso"):
        default = estimate_baseline(panel, 1, penalty=penalty)
        assert np.array_equal(default, estimate_baseline(panel, 1, penalty=penalty, lam=lam))


def _hard_batch(seed: int = 0):
    """Batched problems the support finish must survive or leave to CD."""
    rng = np.random.default_rng(seed)
    grams, crosses, lams = [], [], []

    def add(X, Y, lam):
        grams.append(X.T @ X)
        crosses.append(X.T @ Y)
        lams.append(lam)

    for _ in range(6):  # near-collinear columns
        X = rng.standard_normal((30, 6))
        X[:, 3] = X[:, 2] + 1e-2 * rng.standard_normal(30)
        add(X, rng.standard_normal((30, 3)) + X[:, [2]], float(rng.uniform(0.5, 5.0)))
    for sign in (1.0, -1.0):  # penalty just above and just below 2 max|c|
        for _ in range(3):
            X = rng.standard_normal((25, 6))
            Y = rng.standard_normal((25, 3))
            add(X, Y, 2.0 * np.abs(X.T @ Y).max() * (1.0 + sign * 1e-6))
    for _ in range(4):  # a zero Gram column
        X = rng.standard_normal((20, 6))
        X[:, 1] = 0.0
        add(X, rng.standard_normal((20, 3)), float(rng.uniform(0.5, 3.0)))
    for n in (2, 3, 5):  # rank-deficient windows with fewer rows than columns
        for _ in range(3):
            X = rng.standard_normal((n, 6))
            add(X, rng.standard_normal((n, 3)), float(rng.uniform(0.05, 1.0)))
    return np.stack(grams), np.stack(crosses), np.array(lams)


def _gains(grams, crosses, lams, beta):
    return (
        2.0 * np.einsum("nmk,nmk->n", crosses, beta)
        - np.einsum("nmk,nmk->n", beta, grams @ beta)
        - lams * np.abs(beta).sum(axis=(1, 2))
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_solver_kkt_on_hard_problems(seed):
    # a coefficient-change stop leaves a violation of order tolerance * G_jj,
    # so the stop is tightened; an exact finish on the support leaves ~1e-15
    grams, crosses, lams = _hard_batch(seed)
    beta, conv = lasso_cd_gram_batch(grams, crosses, lams, tolerance=1e-12)
    assert conv.all()
    for G, C, b, lam in zip(grams, crosses, beta, lams):
        assert kkt_violation(G, C, b, lam) <= 1e-9 * (1.0 + np.linalg.norm(C))


def test_batch_solver_gains_match_tight_single_solver():
    base = generate_dense_stationary(4, seed=3)
    panel = simulate(base, 200, seed=8)
    intervals = seeded_intervals(200, 8, 1 / 1.1, q=1)
    config = StatConfig(lambda_policy="interval_linear")
    grams, crosses = _interval_blocks(panel, base.stacked, intervals)
    lams = interval_lambdas(config, intervals, 4, 200)
    beta, conv = lasso_cd_gram_batch(grams, crosses, lams)
    assert conv.all()
    got = _gains(grams, crosses, lams, beta)
    tight = SolverOptions(tolerance=1e-13, max_iterations=200000)
    for i, (G, C, lam) in enumerate(zip(grams, crosses, lams)):
        ref, _, ok, _ = lasso_cd_gram(G, C, lam, tight)
        assert ok
        want = _gains(G[None], C[None], np.array([lam]), ref[None])[0]
        assert abs(got[i] - want) <= 1e-10 * (1.0 + abs(want))


def test_batch_solver_stops_before_first_finish_without_tolerance():
    # the near-collinear problems, which coordinate descent cannot settle in 3 sweeps
    grams, crosses, lams = (a[:6] for a in _hard_batch(2))
    _, conv = lasso_cd_gram_batch(grams, crosses, lams, tolerance=0.0, max_iterations=3)
    assert not conv.any()


def test_batch_solver_stops_problems_at_zero_after_one_sweep():
    # the solver does not screen; a problem with 2 max|c| <= lam among busy
    # ones stays at zero, converges on its first sweep and changes no other
    grams, crosses, lams = _hard_batch(4)
    n = len(lams)
    level = 2.0 * np.abs(crosses).max(axis=(1, 2))
    lams = np.where(np.arange(n) % 3 == 0, level * np.resize([1.0, 1.5], n), lams)
    crosses[1] = 0.0  # zero at any penalty, zero included
    lams[1] = 0.0
    busy = level > lams
    assert 3 < (~busy).sum() < n - 3
    beta, conv = lasso_cd_gram_batch(grams, crosses, lams, max_iterations=300)
    assert not beta[~busy].any() and conv[~busy].all()
    for i in np.flatnonzero(busy):
        one = slice(i, i + 1)
        alone, aconv = lasso_cd_gram_batch(grams[one], crosses[one], lams[one], max_iterations=300)
        assert alone[0].tobytes() == beta[i].tobytes() and aconv[0] == conv[i]
    first, fconv = lasso_cd_gram_batch(grams, crosses, lams, max_iterations=1)
    assert not first[~busy].any() and fconv[~busy].all()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cut=st.integers(1, 24), live=st.integers(1, 2))
def test_batch_solver_results_depend_on_each_problem_alone(seed, cut, live):
    grams, crosses, lams = _hard_batch(seed % 1000)
    solve = lambda g, c, l: lasso_cd_gram_batch(g, c, l, max_iterations=300)  # noqa: E731
    whole, conv = solve(grams, crosses, lams)
    order = np.random.default_rng(seed).permutation(len(lams))
    with mock.patch.object(estimation, "_FINISH_ENTRIES", 3 * 6 * 6 * 3):  # 3 per solve, 4 live
        shuffled, sconv = solve(grams[order], crosses[order], lams[order])
    assert np.array_equal(shuffled, whole[order])
    assert np.array_equal(sconv, conv[order])
    with mock.patch.object(estimation, "_FINISH_ENTRIES", live * 4 * 6 * 3):  # 1 per solve
        shuffled, sconv = solve(grams[order], crosses[order], lams[order])
    assert shuffled.tobytes() == whole[order].tobytes()
    assert np.array_equal(sconv, conv[order])
    head, hconv = solve(grams[:cut], crosses[:cut], lams[:cut])
    tail, tconv = solve(grams[cut:], crosses[cut:], lams[cut:])
    assert np.array_equal(np.concatenate([head, tail]), whole)
    assert np.array_equal(np.concatenate([hconv, tconv]), conv)


def _p10_interval_batch():
    """The 1078 seeded-interval problems of a p = 10, T = 500 panel under
    interval_linear penalties, m = k = 10; nearly all are still running at
    the first finish."""
    base = generate_dense_stationary(10, seed=1)
    panel = simulate(base, 500, seed=2)
    intervals = seeded_intervals(500, 11, 1 / 1.1, q=1)
    lams = interval_lambdas(StatConfig(lambda_policy="interval_linear"), intervals, 10, 500)
    return (*_interval_blocks(panel, base.stacked, intervals), lams)


@pytest.mark.parametrize("live, rounds", [(1, 12), (2, 12), (2, 3)])
def test_batch_solver_results_depend_on_each_problem_alone_at_p10(live, rounds):
    # m = k = 10: every support solve's back-substitution sums up to 9 terms;
    # at 3 rounds some problems leave the live set uncertified at their first
    # attempt and are finished at a later one
    grams, crosses, lams = (a[::27] for a in _p10_interval_batch())
    first = estimation._FINISH_EVERY
    _, early = lasso_cd_gram_batch(grams, crosses, lams, max_iterations=first - 1)
    assert (~early).sum() >= 0.9 * len(lams)
    with mock.patch.object(estimation, "_FINISH_ROUNDS", rounds):
        _, finished = lasso_cd_gram_batch(grams, crosses, lams, max_iterations=first)
        assert finished.all() == (rounds == 12)
        whole, conv = lasso_cd_gram_batch(grams, crosses, lams)
        assert conv.all()
        order = np.random.default_rng(live).permutation(len(lams))
        with mock.patch.object(estimation, "_FINISH_ENTRIES", live * 4 * 10 * 10):  # 1 per solve
            shuffled, sconv = lasso_cd_gram_batch(grams[order], crosses[order], lams[order])
        assert shuffled.tobytes() == whole[order].tobytes() and sconv.all()
        for i in range(len(lams)):
            one = slice(i, i + 1)
            alone, aconv = lasso_cd_gram_batch(grams[one], crosses[one], lams[one])
            assert alone[0].tobytes() == whole[i].tobytes() and aconv[0]


def test_batch_solver_finish_keeps_a_bounded_working_set():
    # about 1000 problems reach the finish, which keeps at most
    # _FINISH_ENTRIES // (4 m k) = 163 of them live at a time: one call
    # peaks at 7.0 MB of traced allocations, against 13.0 MB with every
    # running problem live at once
    grams, crosses, lams = _p10_interval_batch()
    first = estimation._FINISH_EVERY
    _, early = lasso_cd_gram_batch(grams, crosses, lams, max_iterations=first - 1)
    assert (~early).sum() >= 1000
    tracemalloc.start()
    try:
        _, conv = lasso_cd_gram_batch(grams, crosses, lams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert conv.all()
    assert peak <= 9.5e6


def test_batch_solver_reads_read_only_inputs():
    grams, crosses, lams = _hard_batch(5)
    want, wconv = lasso_cd_gram_batch(grams, crosses, lams, max_iterations=300)
    for a in (grams, crosses, lams):
        a.flags.writeable = False
    got, conv = lasso_cd_gram_batch(grams, crosses, lams, max_iterations=300)
    assert np.array_equal(got, want) and np.array_equal(conv, wconv)


def test_batch_solver_keeps_a_zero_gram_column_at_zero():
    # a cross row no design could give: the column's coefficients still stay
    # zero, as in lasso_cd_gram, and a negative zero counts as zero
    rng = np.random.default_rng(21)
    X = rng.standard_normal((30, 5))
    X[:, 2] = 0.0
    G = X.T @ X
    C = X.T @ rng.standard_normal((30, 3))
    C[2] = [-4.0, 3.0, -5.0]
    lam = 1.0
    beta, conv = lasso_cd_gram_batch(G[None], C[None], np.array([lam]))
    assert conv[0]
    assert not beta[0, 2].any() and np.signbit(beta[0, 2]).any()
    ref, _, ok, _ = lasso_cd_gram(G, C, lam, SolverOptions(tolerance=1e-13, max_iterations=200000))
    assert ok and not ref[2].any()
    got = _gains(G[None], C[None], np.array([lam]), beta)[0]
    want = _gains(G[None], C[None], np.array([lam]), ref[None])[0]
    assert abs(got - want) <= 1e-10 * (1.0 + abs(want))
    zero = np.zeros((1, 5, 5))
    values, nonzero, reliable = prefix_statistics(
        _pack_gram(np.concatenate([zero, G[None]])), np.concatenate([zero[:, :, :3], C[None]]),
        np.array([0]), np.array([1]), np.array([30]), np.array([lam]), "lasso", SolverOptions(), None,
    )
    assert nonzero[0] == np.count_nonzero(beta[0]) == np.count_nonzero(beta[0] != 0.0)
    assert nonzero[0] <= 12 and reliable[0] and values[0] == max(got, 0.0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8), k=st.integers(1, 4),
    extra=st.integers(2, 20), scale=st.floats(0.05, 0.95),
)
def test_batch_solver_gains_match_tight_single_solver_property(seed, m, k, extra, scale):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((5, m + extra, m))
    Y = rng.standard_normal((5, m + extra, k))
    grams = X.transpose(0, 2, 1) @ X
    crosses = X.transpose(0, 2, 1) @ Y
    lams = scale * 2.0 * np.abs(crosses).max(axis=(1, 2))  # busy: not zero by the KKT test at zero
    beta, conv = lasso_cd_gram_batch(grams, crosses, lams)
    assert conv.all()
    got = _gains(grams, crosses, lams, beta)
    tight = SolverOptions(tolerance=1e-13, max_iterations=200000)
    for i, (G, C, lam) in enumerate(zip(grams, crosses, lams)):
        ref, _, ok, _ = lasso_cd_gram(G, C, lam, tight)
        assert ok
        want = _gains(G[None], C[None], np.array([lam]), ref[None])[0]
        assert abs(got[i] - want) <= 1e-10 * (1.0 + abs(want))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), m=st.integers(2, 7), k=st.integers(1, 3),
    n=st.integers(1, 30), collinear=st.booleans(), zero=st.booleans(),
    scale=st.floats(0.05, 0.95),
)
def test_batch_solver_certified_and_independent_property(seed, m, k, n, collinear, zero, scale):
    # near-collinear, zero-column and n < m designs: every problem marked
    # converged meets the KKT conditions and the tight solver's gain, and is
    # bitwise the same solved alone
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((4, n, m))
    if collinear:
        X[:, :, 1] = X[:, :, 0] + 0.1 * rng.standard_normal((4, n))
    if zero:
        X[:, :, -1] = 0.0
    Y = X[:, :, :1] + rng.standard_normal((4, n, k))
    grams = X.transpose(0, 2, 1) @ X
    crosses = X.transpose(0, 2, 1) @ Y
    lams = scale * 2.0 * np.abs(crosses).max(axis=(1, 2))
    beta, conv = lasso_cd_gram_batch(grams, crosses, lams, tolerance=1e-12, max_iterations=2000)
    tight = SolverOptions(tolerance=1e-13, max_iterations=200000)
    for i in np.flatnonzero(conv):
        G, C, lam = grams[i], crosses[i], lams[i]
        assert kkt_violation(G, C, beta[i], lam) <= 1e-9 * (1.0 + np.linalg.norm(C))
        ref, _, ok, _ = lasso_cd_gram(G, C, lam, tight)
        assert ok
        got = _gains(G[None], C[None], lams[i : i + 1], beta[i : i + 1])[0]
        want = _gains(G[None], C[None], lams[i : i + 1], ref[None])[0]
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))
    for i in range(4):
        one = slice(i, i + 1)
        alone, aconv = lasso_cd_gram_batch(
            grams[one], crosses[one], lams[one], tolerance=1e-12, max_iterations=2000
        )
        assert alone[0].tobytes() == beta[i].tobytes() and aconv[0] == conv[i]


def test_batch_solver_finish_adds_a_missing_support_coordinate():
    # at the first finish attempt the coordinate-descent iterate still lacks
    # one coordinate of the solution's support; the finish adds it, so the
    # problem is certified at that sweep with no coefficient-change stop
    rng = np.random.default_rng(272)
    X = rng.standard_normal((40, 6))
    X[:, 1] = X[:, 0] + 0.3 * rng.standard_normal(40)
    Y = X @ rng.standard_normal((6, 1)) * 0.5 + rng.standard_normal((40, 1))
    G, C = X.T @ X, X.T @ Y
    lam = 0.8 * np.abs(C).max()
    first = estimation._FINISH_EVERY
    iterate = lasso_cd_gram(G, C, lam, SolverOptions(tolerance=0.0, max_iterations=first))[0]
    ref, _, ok, _ = lasso_cd_gram(G, C, lam, SolverOptions(tolerance=1e-14, max_iterations=100000))
    assert ok and ((ref != 0.0) & (iterate == 0.0)).any()
    beta, conv = lasso_cd_gram_batch(
        G[None], C[None], np.array([lam]), tolerance=0.0, max_iterations=first
    )
    assert conv[0]
    assert np.array_equal(beta[0] != 0.0, ref != 0.0)
    assert kkt_violation(G, C, beta[0], lam) <= 1e-9 * (1.0 + np.linalg.norm(C))


def test_batch_solver_tries_larger_problems_less_often():
    # a support solve costs about m / 3 sweeps, so a problem of m k = 400
    # coefficients is first tried at sweep 40, and is certified there
    rng = np.random.default_rng(0)
    X = rng.standard_normal((60, 20))
    Y = X @ (0.3 * rng.standard_normal((20, 20))) + rng.standard_normal((60, 20))
    G, C = X.T @ X, X.T @ Y
    lam = 0.6 * np.abs(C).max()
    for sweeps, finished in ((39, False), (40, True)):
        beta, conv = lasso_cd_gram_batch(
            G[None], C[None], np.array([lam]), tolerance=0.0, max_iterations=sweeps
        )
        assert conv[0] == finished
    assert kkt_violation(G, C, beta[0], lam) <= 1e-9 * (1.0 + np.linalg.norm(C))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), k=st.integers(1, 3),
    n=st.integers(1, 14), scale=st.floats(0.05, 1.2), sweeps=st.integers(0, 6),
    size=st.floats(0.1, 10.0),
)
def test_lasso_bracket_contains_the_statistic_property(seed, m, k, n, scale, sweeps, size):
    # explicit designs, n < m included: after any number of sweeps the
    # bracket [value, upper] holds the statistic of a tight solve, and at the
    # tight solve's coefficients, an exact finish, the bracket closes
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((3, n, m))
    Y = size * rng.standard_normal((3, n, k))
    grams = X.transpose(0, 2, 1) @ X
    crosses = X.transpose(0, 2, 1) @ Y
    y_sq = (Y * Y).sum(axis=1)
    lams = scale * 2.0 * np.abs(crosses).max(axis=(1, 2))
    beta = np.zeros_like(crosses)
    if sweeps:
        beta, _ = lasso_cd_gram_batch(grams, crosses, lams, max_iterations=sweeps)
    value, upper = lasso_bracket(grams, crosses, beta, lams, y_sq)
    tight = SolverOptions(tolerance=1e-13, max_iterations=200000)
    exact = np.zeros_like(crosses)
    for i in range(3):
        ref = lasso_statistic(RegressionView(1, n, Y[i], X[i]), lams[i], tight)
        assert ref.reliable
        slack = 1e-10 * (1.0 + ref.value)
        assert value[i] <= ref.value + slack
        assert ref.value <= upper[i] + slack
        exact[i] = lasso_cd_gram(grams[i], crosses[i], lams[i], tight)[0]
    value, upper = lasso_bracket(grams, crosses, exact, lams, y_sq)
    assert (upper - value <= 1e-8 * (1.0 + y_sq.sum(axis=1))).all()
    assert lasso_bracket(grams, crosses, exact, lams)[1] is None


def test_prefix_statistics_values_are_the_bracket_values():
    # the kernel's values come from the bracket's value formula, bitwise
    base = generate_dense_stationary(4, seed=3)
    panel = simulate(base, 200, seed=8)
    intervals = seeded_intervals(200, 8, 1 / 1.1, q=1)
    scanner = PanelScanner(panel, base.stacked, 1)
    # positions of each interval's prefix rows among the rows a one-chunk walk holds
    list(scanner._walk(intervals.starts - 2, intervals.ends - 1, len(intervals)))
    held = scanner._plan
    lo, hi = held.lo, held.hi
    lams = interval_lambdas(StatConfig(), intervals, 4, 200)
    lengths = intervals.ends - intervals.starts + 1
    values, _, _ = prefix_statistics(
        scanner._gram_prefix, scanner._cross_prefix, lo, hi, lengths, lams, "lasso", SolverOptions(), None
    )
    grams = _unpack_gram(scanner._gram_prefix[hi] - scanner._gram_prefix[lo])
    crosses = scanner._cross_prefix[hi] - scanner._cross_prefix[lo]
    beta, _ = lasso_cd_gram_batch(grams, crosses, lams)
    assert lasso_bracket(grams, crosses, beta, lams)[0].tobytes() == values.tobytes()
