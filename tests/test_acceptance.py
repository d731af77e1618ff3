"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured
numbers. The heavy studies are shared module-scoped fixtures; the whole
module targets desk-scale runtimes.
"""

import math
import time

import numpy as np
import pytest
from scipy.spatial.distance import directed_hausdorff
from scipy.stats import chi2

from varanom import (
    Interval,
    SolverOptions,
    StatConfig,
    VarParams,
    build_regression_view,
    default_lambda,
    generate_dense_stationary,
    lasso_solve,
    lasso_statistic,
    ols_statistic,
    online_windows,
    scan_intervals,
    seeded_intervals,
    simulate,
)
from varanom.evaluation import (
    count_distribution,
    empirical_power,
    hausdorff_distance,
    outcome_hausdorff,
)
from varanom.experiments import (
    run_online_study,
    run_single_anomaly_study,
    run_two_anomaly_study,
)
from varanom.interval_stats import PanelScanner

pytestmark = pytest.mark.slow

RUNS = 100
CAL_RUNS = 100
STUDY_RADIUS = 0.75


def _report(criterion: int, detail: str) -> None:
    print(f"\n[criterion {criterion}] PASS: {detail}")


@pytest.fixture(scope="module")
def single_study():
    return run_single_anomaly_study(
        runs=RUNS, calibration_runs=CAL_RUNS, scheme="random", count=1029,
        radius=STUDY_RADIUS, seed=0,
    )


@pytest.fixture(scope="module")
def two_study():
    return run_two_anomaly_study(runs=RUNS, calibration_runs=CAL_RUNS, seed=0)


@pytest.fixture(scope="module")
def online_study():
    return run_online_study(runs=RUNS, calibration_runs=CAL_RUNS, seed=0)


def test_criterion_1_chi_square_null_law():
    started = time.time()
    p, n_window, reps = 3, 200, 2000
    base = generate_dense_stationary(p, seed=3)
    stats = np.empty(reps)
    for r in range(reps):
        panel = simulate(base, n_window + 1, burn_in=100, seed=10_000 + r)
        view = build_regression_view(panel, base.stacked, 2, n_window + 1, 1)
        stats[r] = ols_statistic(view).value
    elapsed = time.time() - started
    mean = stats.mean()
    q95, q99 = np.quantile(stats, [0.95, 0.99])
    t95, t99 = chi2.ppf([0.95, 0.99], p * p)
    assert abs(mean - p * p) <= 0.05 * p * p
    assert abs(q95 - t95) <= 0.07 * t95
    assert abs(q99 - t99) <= 0.07 * t99
    assert elapsed < 120.0
    _report(1, f"mean {mean:.3f} vs 9, q95 {q95:.2f} vs {t95:.2f}, "
               f"q99 {q99:.2f} vs {t99:.2f}, {elapsed:.0f}s")


def test_criterion_2_null_familywise_control():
    # base law unspecified by the criterion: white noise at the supplementary
    # experiments' noise scale, where the zero-statistic regime is binding
    p, horizon, runs = 10, 500, 200
    base = VarParams((np.zeros((p, p)),), 0.01 * np.eye(p))
    ivs = seeded_intervals(horizon, 11, 1 / 1.1, q=1)
    scales = (0.15, 0.3, 1.0, 3.0)
    configs = {c: StatConfig(method="lasso", lambda_scale=c) for c in scales}
    runs_positive = {c: 0 for c in scales}
    interval_positive = {c: 0 for c in scales}
    for r in range(runs):
        panel = simulate(base, horizon, seed=20_000 + r)
        scanner = PanelScanner(panel, base.stacked, 1)
        for c in scales:
            values = np.array([s.value for s in scanner.scan(ivs, configs[c])])
            runs_positive[c] += bool((values > 0).any())
            interval_positive[c] += int((values > 0).sum())
    frac_small = runs_positive[0.15] / runs
    frac_large = runs_positive[0.3] / runs
    assert frac_small < 0.10
    assert frac_large < 0.02
    # monotone false-alarm property along the constant grid
    counts = [interval_positive[c] for c in scales]
    assert all(b <= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 0
    _report(2, f"fraction positive: C=0.15 {frac_small:.3f} (<0.10), "
               f"C=0.3 {frac_large:.3f} (<0.02); interval counts {counts}")


def test_criterion_3_single_anomaly_power(single_study):
    table = {("known", "ols"): 1.00, ("known", "lasso"): 1.00,
             ("estimated", "ols"): 0.82, ("estimated", "lasso"): 0.94}
    power = {k: empirical_power(v) for k, v in single_study.outcomes.items()}
    detail = ", ".join(f"{mode}/{m} {100 * power[(mode, m)]:.0f}" for mode, m in power)
    print(f"\n[criterion 3] measured power: {detail}")
    assert power[("known", "ols")] >= 0.95
    assert power[("known", "lasso")] >= 0.95
    gap = power[("estimated", "lasso")] - power[("estimated", "ols")]
    assert gap >= 0.05, f"estimated-mode lasso-over-ols gap {100 * gap:.0f} points"
    for key, target in table.items():
        assert abs(power[key] - target) <= 0.12, f"{key}: {power[key]} vs table {target}"
    _report(3, f"{detail}; gap {100 * gap:.0f} pts")


def test_criterion_4_localisation_ordering(single_study):
    batches = 5
    size = RUNS // batches
    wins = {"known": 0, "estimated": 0}
    for mode in wins:
        for b in range(batches):
            means = {}
            for method in ("ols", "lasso"):
                outs = single_study.outcomes[(mode, method)][b * size:(b + 1) * size]
                vals = [outcome_hausdorff(o, 500.0) for o in outs if o.n_detected > 0]
                means[method] = float(np.mean(vals)) if vals else float("inf")
            if means["lasso"] <= means["ols"]:
                wins[mode] += 1
    assert wins["known"] >= 4, f"known-mode batches won: {wins['known']}"
    assert wins["estimated"] >= 4, f"estimated-mode batches won: {wins['estimated']}"
    _report(4, f"lasso <= ols in {wins['known']}/5 known and "
               f"{wins['estimated']}/5 estimated batches")


def test_criterion_5_two_anomaly_counting(two_study):
    hist = count_distribution(two_study.outcomes)
    exactly_two = hist.get(2, 0)
    modal = max(hist, key=hist.get)
    print(f"\n[criterion 5] count distribution: {hist}")
    assert modal == 2
    assert exactly_two >= 70
    for outcome in two_study.outcomes:
        found = [Interval(*w) for w in outcome.detected]
        for i, a in enumerate(found):
            for b in found[i + 1:]:
                assert not a.overlaps(b)
    _report(5, f"exactly two in {exactly_two}/100 runs, modal count {modal}, "
               f"all detections disjoint")


def test_criterion_6_online_detection(online_study):
    assert online_windows(16) == [(15, 16), (14, 16), (12, 16), (8, 16)]
    no_early = 1.0 - online_study.early_alarm_rate
    assert no_early >= 0.90
    assert online_study.median_delay <= 32.0
    _report(6, f"no early alarm in {100 * no_early:.0f}% of runs, "
               f"median delay {online_study.median_delay:.0f}, window trace at t=16 exact")


def test_criterion_7_oracle_equivalences():
    rng = np.random.default_rng(7)
    tight = SolverOptions(tolerance=1e-13, max_iterations=200000)

    # (a) block-diagonal decoupling equals the monolithic dense lasso
    for _ in range(50):
        p = int(rng.integers(1, 4))
        n = int(rng.integers(2, 11))
        lagged = rng.standard_normal((n, p))
        resid = rng.standard_normal((n, p))
        from varanom import RegressionView

        view = RegressionView(2, n + 1, resid, lagged)
        lam = float(rng.uniform(0.0, 5.0))
        block = lasso_statistic(view, lam, tight)
        y = view.response
        dense = lasso_solve(view.full_design(), y, lam, tight)
        dense_value = max(float(y @ y) - dense.objective, 0.0)
        assert abs(block.value - dense_value) < 1e-6

    # (b) scalar solve equals the soft-threshold closed form
    for _ in range(1000):
        x = float(rng.uniform(0.2, 3.0)) * (1 if rng.random() < 0.5 else -1)
        y = float(rng.normal(scale=3.0))
        lam = float(rng.uniform(0.0, 8.0))
        fit = lasso_solve(np.array([[x]]), np.array([y]), lam, tight)
        closed = math.copysign(max(abs(x * y) - lam / 2.0, 0.0), x * y) / (x * x)
        assert abs(fit.coefficients[0] - closed) < 1e-10

    # (c) boundary Hausdorff equals the pairwise oracle exactly
    for _ in range(500):
        a = rng.uniform(0, 500, size=int(rng.integers(1, 7)))
        b = rng.uniform(0, 500, size=int(rng.integers(1, 7)))
        want = max(
            directed_hausdorff(a[:, None], b[:, None])[0],
            directed_hausdorff(b[:, None], a[:, None])[0],
        )
        assert hausdorff_distance(a, b, 1e9) == want

    # (d) zero-penalty statistic equals the OLS statistic on full-rank designs
    for _ in range(100):
        p = int(rng.integers(1, 4))
        n = int(rng.integers(p + 2, 14))
        from varanom import RegressionView

        view = RegressionView(2, n + 1, rng.standard_normal((n, p)), rng.standard_normal((n, p)))
        a = lasso_statistic(view, 0.0, tight)
        b = ols_statistic(view)
        assert abs(a.value - b.value) < 1e-6

    # (e) the penalty bound forces an exactly zero statistic
    for _ in range(100):
        p = int(rng.integers(1, 4))
        n = int(rng.integers(2, 12))
        from varanom import RegressionView

        view = RegressionView(2, n + 1, rng.standard_normal((n, p)), rng.standard_normal((n, p)))
        bound = 2.0 * float(np.abs(view.lagged.T @ view.residuals).max())
        stat = lasso_statistic(view, bound * (1.0 + 1e-12))
        assert stat.value == 0.0
    _report(7, "kron decoupling (50), scalar closed form (1000), hausdorff oracle (500), "
               "zero-penalty vs ols (100), penalty-bound zeroing (100)")


def test_criterion_8_monotonicity():
    rng = np.random.default_rng(8)
    from varanom.estimation import lasso_cd_gram

    checked_fits = 0
    for _ in range(100):
        p = int(rng.integers(2, 4))
        n = int(rng.integers(8, 40))
        base = generate_dense_stationary(p, seed=int(rng.integers(1 << 30)))
        panel = simulate(base, n + 10, seed=int(rng.integers(1 << 30)))
        view = build_regression_view(panel, base.stacked, 2, n + 1, 1)
        gram = view.lagged.T @ view.lagged
        cross = view.lagged.T @ view.residuals
        y_sq = float(np.sum(view.residuals**2))
        lams = np.linspace(0.0, 3.0 * np.abs(cross).max(), 20)
        values = []
        for lam in lams:
            opts = SolverOptions(track_objective=True)
            beta, _, converged, path = lasso_cd_gram(gram, cross, float(lam), opts, y_sq=y_sq)
            assert converged
            path = np.array(path)
            assert np.all(np.diff(path) <= 1e-9 * (1.0 + np.abs(path[:-1])))
            checked_fits += 1
            gain = 2.0 * np.sum(cross * beta) - np.sum(beta * (gram @ beta))
            gain -= lam * np.abs(beta).sum()
            values.append(max(float(gain), 0.0))
        assert all(b <= a + 1e-7 for a, b in zip(values, values[1:]))
    _report(8, f"statistic non-increasing over 20-point grids on 100 views; "
               f"objective non-increasing per sweep on {checked_fits} fits")
