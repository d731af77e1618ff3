"""Each input rule has one owner, and every entry point that takes the input
reaches it.

For each rule, the owner is called directly on a bad value to get the
rule's exact message and the name of the function that raises it; every
entry point given the same value must raise that message from that same
function. NaN is among the bad values wherever the input is a float.
"""

import math
from unittest import mock

import numpy as np
import pytest

from varanom import (
    AnomalyScenario,
    Interval,
    IntervalSet,
    OnlineDetector,
    PanelScanner,
    ParameterError,
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
    detect_single,
    estimate_baseline,
    generate_dense_stationary,
    lasso_solve,
    lasso_statistic,
    ols_solve,
    ols_statistic,
    random_intervals,
    scan_intervals,
    seeded_intervals,
    simulate,
    simulate_episodes,
    whiten,
)
from varanom import detection, estimation, experiments, interval_stats
from varanom.detection import (
    _check_rows,
    check_quantile,
    check_threshold,
    empirical_quantile,
    null_threshold,
    online_max_statistic,
    select_multiple,
    select_single,
)
from varanom.errors import DesignError, check_choice
from varanom.estimation import BASELINE_PENALTIES, check_non_negative
from varanom.interval_stats import LAMBDA_POLICIES, METHODS, check_ols_rows
from varanom.intervals import SCHEMES, build_intervals, check_count, check_decay, check_min_length
from varanom.pipeline import SIGMA_MODES
from varanom.var_model import check_burn_in, check_covariance, check_domain, check_stacked, check_window

NAN = math.nan
LAW = generate_dense_stationary(3, seed=61)
PANEL = simulate(LAW, 60, seed=62)
BASE = LAW.stacked
IVS = seeded_intervals(60, 5, 1 / 1.2, q=1)
CONFIG = StatConfig()
VIEW = build_regression_view(PANEL, BASE, 10, 30, 1)
SCAN = scan_intervals(PANEL, BASE, IVS, CONFIG, 1)


def assert_reaches(owner, entry, error=ParameterError):
    """``entry()`` raises the message ``owner()`` raises, from the same function."""
    with pytest.raises(error) as expected:
        owner()
    with pytest.raises(error) as got:
        entry()
    assert str(got.value) == str(expected.value)
    assert got.traceback[-1].name == expected.traceback[-1].name


def cases(values, entries):
    """(value, entry name) pairs for parametrize, with readable ids."""
    return [pytest.param(v, name, id=f"{name}-{v}") for v in values for name in entries]


# the owner's keyword arguments for each entry point: the panel's p where the
# entry has a panel, else the baseline's own row count
RULE1 = {
    "PanelScanner": (lambda b: PanelScanner(PANEL, b, 1), {"p": 3}),
    "build_regression_view": (lambda b: build_regression_view(PANEL, b, 5, 20, 1), {"p": 3}),
    "detect_single": (lambda b: detect_single(PANEL, b, IVS, CONFIG, 5.0), {"p": 3}),
    "calibrate_threshold": (lambda b: calibrate_threshold(LAW, IVS, CONFIG, runs=1, baseline=b), {"p": 3}),
    "AnomalyScenario": (lambda b: AnomalyScenario(LAW, b, (20, 30), 60), {"p": 3, "name": "delta"}),
    "OnlineDetector": (lambda b: OnlineDetector(b, 1, 1.0, 5.0), {}),
    "detect_online": (lambda b: detect_online(PANEL.values, b, 1, 1.0, 5.0), {}),
    "online_max_statistic": (lambda b: online_max_statistic(PANEL.values, b, 1, 1.0), {}),
    "VarParams.from_stacked": (
        lambda b: VarParams.from_stacked(b, np.eye(3), 1), {"name": "stacked coefficients"}
    ),
}


@pytest.mark.parametrize("shape", [(3, 2), (3, 6), (2, 3), (3,), ()], ids=str)
@pytest.mark.parametrize("entry", list(RULE1))
def test_rule1_stacked_coefficients(entry, shape):
    call, kwargs = RULE1[entry]
    baseline = np.zeros(shape)
    assert_reaches(lambda: check_stacked(baseline, 1, **kwargs), lambda: call(baseline))


RULE2 = {
    "StatConfig": (lambda v: StatConfig(lambda_scale=v), "lambda constant"),
    "RunConfig": (lambda v: RunConfig(lambda_scale=v), "lambda constant"),
    "default_lambda": (lambda v: default_lambda(2, 3, 60, v), "lambda constant"),
    "lasso_statistic": (lambda v: lasso_statistic(VIEW, v), "lasso penalty"),
    "lasso_solve": (lambda v: lasso_solve(VIEW.lagged, VIEW.residuals[:, 0], v), "lasso penalty"),
    "OnlineDetector": (lambda v: OnlineDetector(BASE, 1, v, 5.0), "lasso penalty"),
    "detect_online": (lambda v: detect_online(PANEL.values, BASE, 1, v, 5.0), "lasso penalty"),
    "online_max_statistic": (lambda v: online_max_statistic(PANEL.values, BASE, 1, v), "lasso penalty"),
    "SolverOptions": (lambda v: SolverOptions(tolerance=v), "tolerance"),
}


@pytest.mark.parametrize("value, entry", cases([-1.0, NAN], RULE2))
def test_rule2_non_negative_penalty(entry, value):
    call, name = RULE2[entry]
    assert_reaches(lambda: check_non_negative(value, name), lambda: call(value))


def test_negative_online_penalty_no_longer_alarms_on_a_null_panel():
    # lam = -1 made every window busy: this null p = 3 panel alarmed at t = 15
    null = simulate(LAW, 200, seed=63).values
    assert detect_online(null, BASE, 1, 1.0, 50.0) is None
    for lam in (-1.0, NAN):
        with pytest.raises(ParameterError, match="lasso penalty must be non-negative"):
            detect_online(null, BASE, 1, lam, 50.0)


def _detector_step(row):
    return OnlineDetector(BASE, 1, 1.0, 5.0).step(row)


def _detector_update(row):
    return OnlineDetector(BASE, 1, 1.0, 5.0).update(row)


def _stream(row):
    """20 rows of the panel with row 4 replaced by ``row``; every row is
    ``row`` when its width is not the panel's, as a ragged stream is no array."""
    if len(row) != 3:
        return np.array([row] * 20)
    values = PANEL.values[:20].copy()
    values[3] = row
    return values


RULE3 = {
    "OnlineDetector.step": _detector_step,
    "OnlineDetector.update": _detector_update,
    "detect_online": lambda row: detect_online(_stream(row), BASE, 1, 1.0, 1e12),
    "online_max_statistic": lambda row: online_max_statistic(_stream(row), BASE, 1, 1.0),
}


@pytest.mark.parametrize("row", [[0.0, 1.0], [0.0, 1.0, 2.0, 3.0], [0.0, NAN, 1.0], [np.inf, 0.0, 0.0]], ids=str)
@pytest.mark.parametrize("entry", list(RULE3))
def test_rule3_observation_rows(entry, row):
    assert_reaches(lambda: _check_rows(np.array(row, dtype=float), 3), lambda: RULE3[entry](row))


RULE4 = {
    "detect_single": lambda v: detect_single(PANEL, BASE, IVS, CONFIG, v),
    "detect_multiple": lambda v: detect_multiple(PANEL, BASE, IVS, CONFIG, v),
    "select_single": lambda v: select_single(SCAN, v),
    "select_multiple": lambda v: select_multiple(SCAN, v),
    "OnlineDetector": lambda v: OnlineDetector(BASE, 1, 1.0, v),
    "detect_online": lambda v: detect_online(PANEL.values, BASE, 1, 1.0, v),
}


@pytest.mark.parametrize("value, entry", cases([0.0, -1.0, NAN], RULE4))
def test_rule4_positive_threshold(entry, value):
    assert_reaches(lambda: check_threshold(value), lambda: RULE4[entry](value))


RULE5 = {
    "OnlineDetector": lambda **kw: OnlineDetector(BASE, 1, 1.0, 5.0, **kw),
    "detect_online": lambda **kw: detect_online(PANEL.values, BASE, 1, 1.0, 5.0, **kw),
    "online_max_statistic": lambda **kw: online_max_statistic(PANEL.values, BASE, 1, 1.0, **kw),
}
RULE5_INPUTS = {
    "policy": {"lambda_policy": "bogus"},
    "solver": {"solver": SolverOptions(track_objective=True)},
}


@pytest.mark.parametrize("case", list(RULE5_INPUTS))
@pytest.mark.parametrize("entry", list(RULE5))
def test_rule5_online_options_are_statconfig_options(entry, case):
    kwargs = RULE5_INPUTS[case]
    assert_reaches(lambda: StatConfig(**kwargs), lambda: RULE5[entry](**kwargs))


@pytest.fixture
def no_simulation(monkeypatch):
    """Make every simulation in calibration and the studies fail loudly, so a
    check that comes after the first run shows."""

    def refuse(*args, **kwargs):
        raise AssertionError("simulated before the quantile was checked")

    for module in (detection, experiments):
        for name in ("simulate", "simulate_episodes", "simulate_with_anomaly"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


RULE6 = {
    "empirical_quantile": lambda v: empirical_quantile([1.0, 2.0], v),
    "null_threshold": lambda v: null_threshold([1.0, 2.0], v),
    "calibrate_threshold": lambda v: calibrate_threshold(LAW, IVS, CONFIG, runs=30, quantile=v),
    "RunConfig": lambda v: RunConfig(quantile=v),
    "run_single_anomaly_study": lambda v: experiments.run_single_anomaly_study(
        p=3, horizon=60, n_change=2, runs=1, calibration_runs=1, min_length=5, count=10, quantile=v
    ),
    "run_two_anomaly_study": lambda v: experiments.run_two_anomaly_study(
        p=3, horizon=60, n_change=2, windows=((10, 20), (35, 45)), runs=1, calibration_runs=1,
        min_length=5, quantile=v,
    ),
    "run_online_study": lambda v: experiments.run_online_study(
        p=3, onset=30, horizon=60, n_change=2, runs=1, calibration_runs=1, quantile=v
    ),
}


@pytest.mark.parametrize("value, entry", cases([0.0, 1.0, 1.5, NAN], RULE6))
def test_rule6_quantile_checked_before_any_run(no_simulation, entry, value):
    assert_reaches(lambda: check_quantile(value), lambda: RULE6[entry](value))


RULE7 = {
    "random_intervals": lambda L: random_intervals(60, L, 10, 0, q=1),
    "seeded_intervals": lambda L: seeded_intervals(60, L, 0.8, q=1),
    "build_intervals": lambda L: build_intervals("seeded", 60, L, 1, 10, 0.8, 0),
}


@pytest.mark.parametrize("value, entry", cases([0, -3, 60, 100, NAN], RULE7))
def test_rule7_interval_length(entry, value):
    assert_reaches(lambda: check_min_length(value, 60, 1), lambda: RULE7[entry](value))


@pytest.mark.parametrize("value", [0, -3, NAN])
@pytest.mark.parametrize("entry", ["RunConfig", "default_lambda"])
def test_rule7_interval_length_without_a_horizon(entry, value):
    call = {
        "RunConfig": lambda: RunConfig(min_length=value),
        "default_lambda": lambda: default_lambda(value, 3, 60),
    }
    assert_reaches(lambda: check_min_length(value), call[entry])


RULE8 = {
    "simulate": lambda v: simulate(LAW, 10, burn_in=v),
    "simulate_episodes": lambda v: simulate_episodes(LAW, [], 10, burn_in=v),
    "AnomalyScenario": lambda v: AnomalyScenario(LAW, np.zeros((3, 3)), (20, 30), 60, burn_in=v),
    "calibrate_threshold": lambda v: calibrate_threshold(LAW, IVS, CONFIG, runs=1, burn_in=v),
    "RunConfig": lambda v: RunConfig(burn_in=v),
}


@pytest.mark.parametrize("value, entry", cases([-1, NAN], RULE8))
def test_rule8_burn_in(entry, value):
    assert_reaches(lambda: check_burn_in(value), lambda: RULE8[entry](value))


RULE9 = {
    "AnomalyScenario": lambda w: AnomalyScenario(LAW, np.zeros((3, 3)), w, 60),
    "simulate_episodes": lambda w: simulate_episodes(LAW, [(w, np.zeros((3, 3)))], 60),
}


@pytest.mark.parametrize("value, entry", cases([(30, 20), (0, 10), (10, 60), (20, 20), (NAN, 10)], RULE9))
def test_rule9_anomaly_window(entry, value):
    assert_reaches(lambda: check_window(value, 60), lambda: RULE9[entry](value))


COUNTS = {
    "random_intervals": (lambda n: random_intervals(60, 5, n, 0), "count"),
    "RunConfig.count": (lambda n: RunConfig(count=n), "count"),
    "calibrate_threshold": (lambda n: calibrate_threshold(LAW, IVS, CONFIG, runs=n), "runs"),
    "RunConfig.calibration_runs": (lambda n: RunConfig(calibration_runs=n), "runs"),
}


@pytest.mark.parametrize("value, entry", cases([0, -1], COUNTS))
def test_count_rule(no_simulation, entry, value):
    call, name = COUNTS[entry]
    assert_reaches(lambda: check_count(value, name), lambda: call(value))


DECAYS = {
    "seeded_intervals": lambda d: seeded_intervals(60, 5, d),
    "build_intervals": lambda d: build_intervals("seeded", 60, 5, 1, 10, d, 0),
    "RunConfig": lambda d: RunConfig(decay=d),
}


@pytest.mark.parametrize("value, entry", cases([0.4, 1.0, 2.0, NAN], DECAYS))
def test_decay_rule(entry, value):
    assert_reaches(lambda: check_decay(value), lambda: DECAYS[entry](value))


OUTSIDE = [(1, 10), (50, 61)]
DOMAIN = {
    "PanelScanner.scan": lambda s, e: PanelScanner(PANEL, BASE, 1).scan(_set(s, e), CONFIG),
    "PanelScanner.max_statistic": lambda s, e: PanelScanner(PANEL, BASE, 1).max_statistic(_set(s, e), CONFIG),
    "scan_intervals": lambda s, e: scan_intervals(PANEL, BASE, _set(s, e), CONFIG, 1),
    "build_regression_view": lambda s, e: build_regression_view(PANEL, BASE, s, e, 1),
}


def _set(start, end):
    """A valid interval followed by [start, end], in a set over a wider
    domain than the panel's, so that only the scan rejects it."""
    return IntervalSet((Interval(20, 30), Interval(start, end)), 5, (0, 100))


@pytest.mark.parametrize("interval", OUTSIDE, ids=str)
@pytest.mark.parametrize("entry", list(DOMAIN))
def test_domain_rule(entry, interval):
    assert_reaches(lambda: check_domain(*interval, 60, 1), lambda: DOMAIN[entry](*interval), DesignError)


# the study arguments that keep the studies small; each rule's check must come
# before the first simulation (the no_simulation fixture)
STUDY = dict(p=3, horizon=60, n_change=2, runs=1, calibration_runs=1, min_length=5)
OPTIONS = {
    "method": (METHODS, {
        "StatConfig": lambda v: StatConfig(method=v),
        "RunConfig": lambda v: RunConfig(method=v),
        "run_single_anomaly_study": lambda v: experiments.run_single_anomaly_study(
            count=10, methods=(v,), **STUDY),
        "run_two_anomaly_study": lambda v: experiments.run_two_anomaly_study(
            windows=((10, 20), (35, 45)), method=v, **STUDY),
    }),
    "lambda policy": (LAMBDA_POLICIES, {
        "StatConfig": lambda v: StatConfig(lambda_policy=v),
        "RunConfig": lambda v: RunConfig(lambda_policy=v),
        "OnlineDetector": lambda v: OnlineDetector(BASE, 1, 1.0, 5.0, lambda_policy=v),
        "detect_online": lambda v: detect_online(PANEL.values, BASE, 1, 1.0, 5.0, lambda_policy=v),
        "online_max_statistic": lambda v: online_max_statistic(PANEL.values, BASE, 1, 1.0, lambda_policy=v),
        "run_single_anomaly_study": lambda v: experiments.run_single_anomaly_study(
            count=10, lambda_policy=v, **STUDY),
        "run_online_study": lambda v: experiments.run_online_study(
            p=3, onset=30, horizon=60, n_change=2, runs=1, calibration_runs=1, lambda_policy=v),
    }),
    "scheme": (SCHEMES, {
        "build_intervals": lambda v: build_intervals(v, 60, 5, 1, 10, 0.8, 0),
        "RunConfig": lambda v: RunConfig(scheme=v),
        "run_single_anomaly_study": lambda v: experiments.run_single_anomaly_study(
            count=10, scheme=v, **STUDY),
    }),
    "baseline penalty": (BASELINE_PENALTIES, {
        "estimate_baseline": lambda v: estimate_baseline(PANEL, 1, penalty=v),
        "RunConfig": lambda v: RunConfig(baseline_penalty=v),
        "run_single_anomaly_study": lambda v: experiments.run_single_anomaly_study(
            count=10, baseline_penalty=v, **STUDY),
    }),
    "sigma mode": (SIGMA_MODES, {"RunConfig": lambda v: RunConfig(sigma_mode=v)}),
}


@pytest.mark.parametrize("value", ["bogus", NAN], ids=str)
@pytest.mark.parametrize("option, entry", [(o, e) for o, (_, entries) in OPTIONS.items() for e in entries])
def test_enumerated_option_rule(no_simulation, option, entry, value):
    # run_single_anomaly_study checked its baseline penalty, and
    # run_online_study its lambda policy, only after simulating a null panel
    choices, entries = OPTIONS[option]
    assert_reaches(lambda: check_choice(value, option, choices), lambda: entries[entry](value))


SIGMA_ENTRIES = {
    "VarParams": lambda c: VarParams((np.zeros((3, 3)),), c),
    "VarParams.from_stacked": lambda c: VarParams.from_stacked(BASE, c, 1),
    "StatConfig": lambda c: StatConfig(sigma=c),
    "OnlineDetector": lambda c: OnlineDetector(BASE, 1, 1.0, 5.0, sigma=c),
    "detect_online": lambda c: detect_online(PANEL.values, BASE, 1, 1.0, 5.0, sigma=c),
    "online_max_statistic": lambda c: online_max_statistic(PANEL.values, BASE, 1, 1.0, sigma=c),
    "whiten": lambda c: whiten(VIEW, c),
    "ols_statistic": lambda c: ols_statistic(VIEW, c),
    "lasso_statistic": lambda c: lasso_statistic(VIEW, 1.0, sigma=c),
}
BAD_COVARIANCES = {
    "shape": np.ones((3, 2)),
    "asymmetric": np.array([[1.0, 0.5, 0.0], [0.4, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    "indefinite": np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    "singular": np.zeros((3, 3)),
    "nan": np.full((3, 3), NAN),
    "inf": np.diag([np.inf, 1.0, 1.0]),
}


@pytest.mark.parametrize("case", list(BAD_COVARIANCES))
@pytest.mark.parametrize("entry", list(SIGMA_ENTRIES))
def test_covariance_rule(entry, case):
    cov = BAD_COVARIANCES[case]
    assert_reaches(lambda: check_covariance(cov, 3), lambda: SIGMA_ENTRIES[entry](cov))


def test_calibration_checks_sigma_against_the_law_before_any_run(no_simulation):
    # a 2 x 2 sigma passes StatConfig, which knows no p; calibrate_threshold
    # met the law's p = 3 only in its first run's scan, after simulating it
    sigma = np.eye(2)
    config = StatConfig(sigma=sigma)
    assert_reaches(lambda: check_covariance(sigma, 3), lambda: calibrate_threshold(LAW, IVS, config, runs=3))


LAGLESS = seeded_intervals(60, 5, 1 / 1.2, q=0)  # starts at row 1, which a q = 1 law cannot lag
BEFORE_ANY_RUN = {
    # (owner, entry, error): each met only the first run's scanner, after one simulated panel
    "baseline": (
        lambda: check_stacked(np.zeros((2, 2)), 1, 3),
        lambda: calibrate_threshold(LAW, IVS, CONFIG, runs=3, baseline=np.zeros((2, 2))),
        ParameterError,
    ),
    "domain": (
        lambda: check_domain(LAGLESS.starts, LAGLESS.ends, LAGLESS.horizon, 1),
        lambda: calibrate_threshold(LAW, LAGLESS, CONFIG, runs=3),
        DesignError,
    ),
}


@pytest.mark.parametrize("case", list(BEFORE_ANY_RUN))
def test_calibration_checks_baseline_and_domain_before_any_run(case):
    owner, entry, error = BEFORE_ANY_RUN[case]
    with mock.patch.object(detection, "simulate", wraps=detection.simulate) as spy:
        assert_reaches(owner, entry, error)
    assert spy.call_count == 0


def test_penalty_rate_has_one_definition():
    # interval scans, the online study and the CLI read it from
    # interval_stats, the baseline from estimation: one function
    assert interval_stats.default_lambda is estimation.default_lambda is default_lambda


@pytest.mark.parametrize("value", [-1.0, NAN], ids=str)
@pytest.mark.parametrize("penalty", BASELINE_PENALTIES)
def test_penalty_rate_scale_of_the_baseline(penalty, value):
    # a negative scale gave a negative default penalty without complaint
    assert_reaches(lambda: default_lambda(60, 3, 60, value), lambda: estimate_baseline(PANEL, 1, penalty, c=value))


BASELINE_LAMBDA = {
    "estimate_baseline/ridge": lambda v: estimate_baseline(PANEL, 1, "ridge", lam=v),
    "estimate_baseline/lasso": lambda v: estimate_baseline(PANEL, 1, "lasso", lam=v),
    "estimate_baseline/none": lambda v: estimate_baseline(PANEL, 1, "none", lam=v),
    "RunConfig": lambda v: RunConfig(baseline_lambda=v),
}


@pytest.mark.parametrize("value, entry", cases([-30.0, NAN], BASELINE_LAMBDA))
def test_baseline_lambda_rule(entry, value):
    # -30 returned an anti-shrunk baseline and NaN a NaN one
    assert_reaches(lambda: check_non_negative(value, "baseline lambda"), lambda: BASELINE_LAMBDA[entry](value))


OLS = StatConfig(method="ols")
OLS_ENTRIES = {
    "ols_statistic": lambda n: ols_statistic(build_regression_view(PANEL, BASE, 10, 9 + n, 1)),
    "PanelScanner.scan": lambda n: PanelScanner(PANEL, BASE, 1).scan(_short(n), OLS),
    "PanelScanner.max_statistic": lambda n: PanelScanner(PANEL, BASE, 1).max_statistic(_short(n), OLS),
    "scan_intervals": lambda n: scan_intervals(PANEL, BASE, _short(n), OLS, 1),
    "detect_single": lambda n: detect_single(PANEL, BASE, _short(n), OLS, 5.0),
    "calibrate_threshold": lambda n: calibrate_threshold(LAW, _short(n), OLS, runs=1),
}


def _short(n):
    """A valid OLS interval followed by one of n rows."""
    return IntervalSet((Interval(20, 30), Interval(40, 39 + n)), 1, (2, 60))


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("entry", list(OLS_ENTRIES))
def test_ols_row_count_rule(entry, rows):
    assert_reaches(lambda: check_ols_rows(rows, 3), lambda: OLS_ENTRIES[entry](rows), DesignError)


def test_unpenalised_baseline_row_count_is_ols_solve_rule():
    # 5 rows at q = 2 leave 3 usable rows for 6 predictors
    short = TimeSeriesPanel(PANEL.values[:5])
    assert_reaches(
        lambda: ols_solve(np.zeros((3, 6)), np.zeros(3)), lambda: estimate_baseline(short, 2, "none"), DesignError
    )
