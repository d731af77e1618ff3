import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varanom import (
    AnomalyScenario,
    Interval,
    IntervalStatistic,
    OnlineDetector,
    PanelScanner,
    ParameterError,
    SolverOptions,
    StatConfig,
    VarParams,
    calibrate_threshold,
    detect_multiple,
    detect_online,
    detect_single,
    IntervalSet,
    build_regression_view,
    generate_dense_stationary,
    lasso_statistic,
    online_windows,
    random_intervals,
    seeded_intervals,
    simulate,
    simulate_episodes,
    simulate_with_anomaly,
)
from varanom.detection import (
    THRESHOLD_FLOOR,
    empirical_quantile,
    max_reliable_statistic,
    null_threshold,
    online_max_statistic,
    select_multiple,
    select_single,
)
from varanom.experiments import dense_base_with_change, run_two_anomaly_study


def _stat(start, end, value, reliable=True):
    return IntervalStatistic(Interval(start, end), value, "lasso", 1.0, 1, reliable)


def test_empirical_quantile_order_statistic():
    samples = np.arange(1.0, 101.0)
    np.random.default_rng(0).shuffle(samples)
    assert empirical_quantile(samples, 0.99) == 99.0
    assert empirical_quantile(samples, 0.5) == 50.0
    assert empirical_quantile([5.0, 5.0, 5.0], 0.9) == 5.0
    with pytest.raises(ParameterError):
        empirical_quantile(samples, 1.0)
    assert null_threshold(samples, 0.99) == 99.0
    assert null_threshold([0.0, 0.0, 3.0], 0.5) == THRESHOLD_FLOOR


def test_calibrate_threshold_protocol():
    base = generate_dense_stationary(3, seed=2)
    ivs = random_intervals(80, 5, 30, seed=3, q=1)
    config = StatConfig(method="lasso")
    cal = calibrate_threshold(base, ivs, config, runs=10, quantile=0.9, seed=4, burn_in=50)
    assert cal.max_statistics.shape == (10,)
    assert cal.threshold == max(np.sort(cal.max_statistics)[8], 1e-12)
    assert cal.threshold > 0


def test_max_reliable_statistic_skips_unreliable():
    stats = [_stat(1, 10, 100.0, reliable=False), _stat(20, 30, 7.0), _stat(5, 9, 3.0)]
    assert max_reliable_statistic(stats) == 7.0
    assert max_reliable_statistic([_stat(1, 10, 100.0, reliable=False)]) == 0.0
    assert max_reliable_statistic([]) == 0.0


def test_calibrate_threshold_empty_scan():
    base = generate_dense_stationary(3, seed=2)
    empty = IntervalSet((), 5, (2, 80))
    cal = calibrate_threshold(base, empty, StatConfig(), runs=3, seed=4, burn_in=50)
    assert cal.max_statistics.tolist() == [0.0, 0.0, 0.0]
    assert cal.threshold == THRESHOLD_FLOOR


def test_calibrate_threshold_skips_unreliable_statistics():
    # three sweeps with no tolerance leave every problem the solver works on
    # unconverged, so only statistics screened at exactly zero stay reliable
    base = generate_dense_stationary(3, seed=2)
    ivs = random_intervals(80, 5, 30, seed=3, q=1)
    config = StatConfig(solver=SolverOptions(tolerance=0.0, max_iterations=3))
    cal = calibrate_threshold(base, ivs, config, runs=4, seed=4, burn_in=50)
    assert cal.max_statistics.tolist() == [0.0] * 4
    assert cal.threshold == THRESHOLD_FLOOR
    loose = calibrate_threshold(base, ivs, StatConfig(), runs=4, seed=4, burn_in=50)
    assert (loose.max_statistics > 0.0).all()


def test_select_single_tie_break():
    stats = [_stat(5, 14, 9.0), _stat(3, 12, 9.0), _stat(20, 30, 2.0)]
    picked = select_single(stats, 1.0)
    assert [s.interval for s in picked] == [Interval(3, 12)]
    # shorter wins when starts tie as well
    stats = [_stat(3, 14, 9.0), _stat(3, 12, 9.0)]
    assert select_single(stats, 1.0)[0].interval == Interval(3, 12)


def test_select_single_empty_below_threshold():
    assert select_single([_stat(1, 5, 0.5)], 1.0) == []


def test_select_multiple_hand_trace():
    stats = [_stat(1, 10, 5.0), _stat(5, 15, 9.0), _stat(20, 30, 7.0)]
    picked = select_multiple(stats, 4.0)
    assert [s.interval for s in picked] == [Interval(5, 15), Interval(20, 30)]


def test_select_multiple_order_invariance():
    rng = np.random.default_rng(1)
    stats = [
        _stat(1, 10, 5.0), _stat(5, 15, 9.0), _stat(20, 30, 7.0),
        _stat(28, 40, 6.5), _stat(45, 60, 9.0), _stat(46, 60, 9.0),
    ]
    want = [s.interval for s in select_multiple(stats, 4.0)]
    for _ in range(10):
        shuffled = list(stats)
        rng.shuffle(shuffled)
        got = [s.interval for s in select_multiple(shuffled, 4.0)]
        assert got == want
    for a in want:
        for b in want:
            if a != b:
                assert not a.overlaps(b)


_stat_lists = st.lists(
    st.tuples(
        st.integers(1, 40), st.integers(0, 15),
        st.sampled_from([0.0, 1.0, 2.5, 4.0, 7.0, 9.0]), st.booleans(),
    ),
    max_size=25,
)


@settings(max_examples=200, deadline=None)
@given(rows=_stat_lists, threshold=st.sampled_from([0.0, 1.0, 4.0]))
def test_selection_properties(rows, threshold):
    # few distinct values and short ranges make ties and overlaps common
    stats = [_stat(s, s + extra, v, ok) for s, extra, v, ok in rows]
    picked = select_multiple(stats, threshold)
    for i, a in enumerate(picked):
        assert a.reliable and a.value > threshold
        for b in picked[i + 1:]:
            assert not a.interval.overlaps(b.interval)
            assert b.value <= a.value
    for s in stats:
        if s.reliable and s.value > threshold and s not in picked:
            assert any(s.interval.overlaps(b.interval) and b.value >= s.value for b in picked)
    assert select_single(stats, threshold) == picked[:1]


def test_two_anomaly_study_matches_private_loop():
    # the study calibrates and detects through the library's entry points;
    # the loop it replaced gives bitwise the same threshold and picks
    kw = dict(p=5, horizon=200, windows=((50, 80), (130, 160)), min_length=8, seed=3)
    study = run_two_anomaly_study(runs=2, calibration_runs=5, **kw)
    base, theta = dense_base_with_change(5, 0.6, 5, 3)
    config = StatConfig(method="lasso", lambda_policy="interval_linear")
    ivs = seeded_intervals(200, 8, 1 / 1.1, q=1)
    root = np.random.SeedSequence(3)
    cal_seed, eval_seed = (int(s.generate_state(1)[0]) for s in root.spawn(2))
    maxima = [
        max_reliable_statistic(
            PanelScanner(simulate(base, 200, seed=int(s)), base.stacked, 1).scan(ivs, config)
        )
        for s in np.random.SeedSequence(cal_seed).generate_state(5)
    ]
    threshold = max(empirical_quantile(maxima, 0.99), THRESHOLD_FLOOR)
    assert study.threshold == threshold
    episodes = [(w, theta) for w in kw["windows"]]
    for outcome, s in zip(study.outcomes, np.random.SeedSequence(eval_seed).generate_state(2)):
        panel = simulate_episodes(base, episodes, 200, seed=int(s))
        stats = PanelScanner(panel, base.stacked, 1).scan(ivs, config)
        want = [(p.interval.start, p.interval.end) for p in select_multiple(stats, threshold)]
        assert [tuple(d) for d in outcome.detected] == want
    assert any(outcome.detected for outcome in study.outcomes)


def test_unreliable_statistics_are_excluded():
    stats = [_stat(1, 10, 100.0, reliable=False), _stat(20, 30, 7.0)]
    picked = select_single(stats, 4.0)
    assert [s.interval for s in picked] == [Interval(20, 30)]


def test_detect_single_end_to_end():
    base, theta = dense_base_with_change(5, 0.6, 4, seed=1)
    scenario = AnomalyScenario(base, theta, (120, 180), 300)
    ivs = seeded_intervals(300, 6, 1 / 1.1, q=1)
    config = StatConfig(method="lasso", lambda_policy="interval_linear")
    cal = calibrate_threshold(base, ivs, config, runs=40, quantile=0.99, seed=5)
    panel = simulate_with_anomaly(scenario, seed=6)
    result = detect_single(panel, base.stacked, ivs, config, cal.threshold, q=1)
    assert len(result.detected) == 1
    found = result.detected[0].interval
    assert found.overlaps(Interval(120, 180))
    assert result.detected[0].value == max(s.value for s in result.statistics)
    assert result.detected[0].value > cal.threshold
    null_result = detect_single(
        simulate(base, 300, seed=777), base.stacked, ivs, config, cal.threshold, q=1
    )
    assert isinstance(null_result.detected, list)


def test_detect_multiple_disjoint_guarantee():
    base, theta = dense_base_with_change(5, 0.7, 3, seed=2)
    from varanom import simulate_episodes

    panel = simulate_episodes(base, [((80, 120), theta), ((220, 260), theta)], 350, seed=8)
    ivs = seeded_intervals(350, 6, 1 / 1.1, q=1)
    config = StatConfig(method="lasso", lambda_policy="interval_linear")
    cal = calibrate_threshold(base, ivs, config, runs=40, quantile=0.99, seed=9)
    result = detect_multiple(panel, base.stacked, ivs, config, cal.threshold, q=1)
    found = result.detected_intervals
    for i, a in enumerate(found):
        for b in found[i + 1:]:
            assert not a.overlaps(b)
    assert len(found) >= 1


def test_familywise_false_alarm_rate_at_calibrated_threshold():
    # null scan at the calibrated 0.99 threshold: fresh-run exceedance <= 5%
    p = 10
    base = VarParams((np.zeros((p, p)),), 0.01 * np.eye(p))
    ivs = seeded_intervals(500, 11, 1 / 1.1, q=1)
    config = StatConfig(method="lasso")
    cal = calibrate_threshold(base, ivs, config, runs=500, quantile=0.99, seed=41)
    fresh_hits = 0
    fresh_runs = 100
    for r in range(fresh_runs):
        panel = simulate(base, 500, seed=90_000 + r)
        result = detect_single(panel, base.stacked, ivs, config, cal.threshold, q=1)
        fresh_hits += bool(result.detected)
    assert fresh_hits / fresh_runs <= 0.05


def test_online_windows_trace_at_16():
    assert online_windows(16) == [(15, 16), (14, 16), (12, 16), (8, 16)]


def test_online_windows_properties():
    for t in range(2, 300):
        wins = online_windows(t)
        assert wins[0] == (t - 1, t)
        for s, e in wins:
            assert e == t
            assert e - s + 1 <= t - 1 or t <= 3
        assert len(wins) == int(math.floor(math.log2(t)))


def test_online_never_stops_with_huge_threshold():
    base = generate_dense_stationary(3, seed=3)
    panel = simulate(base, 120, seed=10)
    alarm = detect_online(panel.values, base.stacked, 1, 1.0, 1e12, t0=10)
    assert alarm is None


def test_online_t0_needs_lags():
    with pytest.raises(ParameterError):
        OnlineDetector(np.zeros((2, 4)), 2, 1.0, 5.0, t0=2)


def test_online_threshold_positive():
    with pytest.raises(ParameterError):
        OnlineDetector(np.zeros((2, 2)), 1, 1.0, 0.0)


@pytest.mark.parametrize("sigma_seed", [None, 5])
@pytest.mark.parametrize("policy", ["interval_linear", "interval_sqrt"])
def test_online_windows_match_direct_statistics(policy, sigma_seed):
    # every window of every step against the direct computation on its view;
    # with p=4 and q=1 each step's length-2 window has fewer rows than the
    # pq=4 predictors, so its Gram matrix is singular
    p, lam = 4, 3.0
    base = generate_dense_stationary(p, seed=4)
    panel = simulate(base, 150, seed=11)
    sigma = None
    if sigma_seed is not None:
        a = np.random.default_rng(sigma_seed).standard_normal((p, p))
        sigma = a @ a.T + 0.5 * np.eye(p)
    solver = SolverOptions(tolerance=1e-10)
    scale = {"interval_linear": lambda n: n / 2.0, "interval_sqrt": lambda n: math.sqrt(n / 2.0)}
    detector = OnlineDetector(
        base.stacked, 1, lam, 1e9, t0=10, solver=solver, sigma=sigma, lambda_policy=policy
    )
    best = 0.0
    for t, row in enumerate(panel.values, start=1):
        stats = detector.step(row)
        want = [Interval(s, e) for s, e in online_windows(t) if s >= 2] if t > 10 else []
        assert [s.interval for s in stats] == want
        for stat in stats:
            iv = stat.interval
            window_lam = lam * scale[policy](iv.length)
            assert abs(stat.lam - window_lam) <= 1e-14 * window_lam
            view = build_regression_view(panel, base.stacked, iv.start, iv.end, 1)
            direct = lasso_statistic(view, window_lam, solver, sigma=sigma)
            assert stat.reliable and direct.reliable
            assert abs(stat.value - direct.value) <= 1e-7 * (1.0 + abs(direct.value))
            best = max(best, stat.value)
    assert best > 0.0
    maximum = online_max_statistic(
        panel.values, base.stacked, 1, lam, 10, solver, sigma, lambda_policy=policy
    )
    assert maximum == best


def test_online_max_statistic_skips_unreliable_windows():
    # one sweep with no tolerance leaves every window the solver works on
    # unconverged, so only windows screened at exactly zero stay reliable
    base = generate_dense_stationary(3, seed=3)
    values = simulate(base, 60, seed=10).values
    stuck = SolverOptions(tolerance=0.0, max_iterations=1)
    assert online_max_statistic(values, base.stacked, 1, 0.1, 10, solver=stuck) == 0.0
    assert online_max_statistic(values, base.stacked, 1, 0.1, 10) > 0.0


def test_online_detects_strong_shift():
    base, theta = dense_base_with_change(4, 0.8, 3, seed=5)
    from varanom import simulate_episodes

    stream = simulate_episodes(base, [((100, 199), theta)], 200, seed=12)
    lam = 8.0
    null_max = max(
        online_max_statistic(
            simulate(base, 100, seed=100 + r).values, base.stacked, 1, lam, 10,
            lambda_policy="interval_sqrt",
        )
        for r in range(20)
    )
    alarm = detect_online(
        stream.values, base.stacked, 1, lam, max(null_max, 1e-6), 10,
        lambda_policy="interval_sqrt",
    )
    assert alarm is not None
    assert alarm.time >= 100
    assert alarm.time - 100 <= 64
    assert alarm.window.end == alarm.time


def test_detection_csv(tmp_path):
    base = generate_dense_stationary(3, seed=6)
    panel = simulate(base, 100, seed=13)
    ivs = random_intervals(100, 5, 20, seed=14, q=1)
    config = StatConfig(method="lasso")
    result = detect_single(panel, base.stacked, ivs, config, 1e6, q=1)
    path = tmp_path / "detections.csv"
    result.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "start,end,statistic,detected"
    assert len(lines) == 21
