"""Each input rule has one owner, and every entry point that takes the input
reaches it.

For each rule, the owner is called directly on a bad value to get the
rule's exact message and the name of the function that raises it; every
entry point given the same value must raise that message from that same
function. NaN is among the bad values wherever the input is a float.
"""

import math

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
    VarParams,
    build_regression_view,
    calibrate_threshold,
    default_lambda,
    detect_multiple,
    detect_online,
    detect_single,
    generate_dense_stationary,
    lasso_solve,
    lasso_statistic,
    random_intervals,
    scan_intervals,
    seeded_intervals,
    simulate,
    simulate_episodes,
)
from varanom import detection, experiments
from varanom.detection import (
    _check_rows,
    check_quantile,
    check_threshold,
    empirical_quantile,
    null_threshold,
    online_max_statistic,
)
from varanom.errors import DesignError
from varanom.estimation import check_non_negative
from varanom.intervals import build_intervals, check_count, check_decay, check_min_length
from varanom.var_model import check_burn_in, check_domain, check_stacked, check_window

NAN = math.nan
LAW = generate_dense_stationary(3, seed=61)
PANEL = simulate(LAW, 60, seed=62)
BASE = LAW.stacked
IVS = seeded_intervals(60, 5, 1 / 1.2, q=1)
CONFIG = StatConfig()
VIEW = build_regression_view(PANEL, BASE, 10, 30, 1)


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
    "PanelScanner.gram": lambda s, e: PanelScanner(PANEL, BASE, 1).gram(Interval(s, e)),
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
