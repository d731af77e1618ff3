import math
from unittest import mock

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
    _window_pairs,
    empirical_quantile,
    max_reliable_statistic,
    null_threshold,
    online_max_statistic,
    select_multiple,
    select_single,
)
from varanom import interval_stats
from varanom.estimation import estimate_baseline
from varanom.experiments import dense_base_with_change, run_two_anomaly_study
from varanom.interval_stats import LAMBDA_POLICIES, ScanResult, prefix_statistics, whiten, whitening_matrix


def _stat(start, end, value, reliable=True):
    return IntervalStatistic(Interval(start, end), value, "lasso", 1.0, 1, reliable)


def _scan_result(stats, method="lasso"):
    """A list of statistics packed into the columns a scan returns."""
    return ScanResult(
        np.array([s.interval.start for s in stats], dtype=int),
        np.array([s.interval.end for s in stats], dtype=int),
        np.array([s.value for s in stats], dtype=float),
        np.array([s.lam for s in stats], dtype=float),
        np.array([s.nonzero for s in stats], dtype=int),
        np.array([s.reliable for s in stats], dtype=bool),
        method,
    )


def _reference_select(stats, threshold):
    """The object-based greedy rule: repeatedly take the least tie key
    (-value, start, length), first in storage order among equals, and drop
    every candidate that overlaps it."""
    candidates = [s for s in stats if s.reliable and s.value > threshold]
    picked = []
    while candidates:
        best = min(candidates, key=lambda s: (-s.value, s.interval.start, s.interval.length))
        picked.append(best)
        candidates = [c for c in candidates if not c.interval.overlaps(best.interval)]
    return picked


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


def test_empirical_quantile_needs_a_sample():
    for empty in ([], np.empty(0)):
        with pytest.raises(ParameterError, match="at least one sample"):
            empirical_quantile(empty, 0.99)


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
    assert max_reliable_statistic(_scan_result(stats)) == 7.0
    assert max_reliable_statistic(_scan_result([_stat(1, 10, 100.0, reliable=False)])) == 0.0
    assert max_reliable_statistic(_scan_result([])) == 0.0


def test_calibrate_threshold_empty_scan():
    base = generate_dense_stationary(3, seed=2)
    empty = IntervalSet((), 5, (2, 80))
    cal = calibrate_threshold(base, empty, StatConfig(), runs=3, seed=4, burn_in=50)
    assert cal.max_statistics.tolist() == [0.0, 0.0, 0.0]
    assert cal.threshold == THRESHOLD_FLOOR
    # an empty set scans to empty columns through the kernel, for both methods
    panel = simulate(base, 80, seed=5)
    for method in ("lasso", "ols"):
        for detect in (detect_single, detect_multiple):
            result = detect(panel, base.stacked, empty, StatConfig(method=method), 1.0)
            assert len(result.statistics) == 0 and list(result.statistics) == []
            assert result.detected == [] and max_reliable_statistic(result.statistics) == 0.0
            assert result.pruned == 0
    # a bracketed lasso scan of no interval has empty bound columns
    assert result.statistics.upper is None
    lasso = detect_single(panel, base.stacked, empty, StatConfig(), 1.0).statistics
    assert lasso.upper.shape == lasso.solved.shape == (0,)


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


def test_calibrate_threshold_counts_unreliable_statistics():
    # one sweep with no tolerance leaves every problem the solver works on
    # unconverged; the count covers every run, re-scanned by the documented seeding
    base = generate_dense_stationary(3, seed=2)
    ivs = random_intervals(80, 5, 30, seed=3, q=1)
    config = StatConfig(solver=SolverOptions(tolerance=0.0, max_iterations=1))
    cal = calibrate_threshold(base, ivs, config, runs=3, seed=4, burn_in=50)
    seeds = np.random.SeedSequence(4).generate_state(3)
    want = 0
    for r in range(3):
        panel = simulate(base, ivs.horizon, burn_in=50, seed=int(seeds[r]))
        want += sum(not s.reliable for s in PanelScanner(panel, base.stacked, 1).scan(ivs, config))
    assert 0 < cal.unreliable == want
    assert calibrate_threshold(base, ivs, StatConfig(), runs=3, seed=4, burn_in=50).unreliable == 0


@pytest.mark.parametrize("whitened", [False, True])
@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("method", ["ols", "lasso"])
def test_calibrate_threshold_equals_fresh_scanner_loop(method, q, whitened):
    # calibration refills one scanner in place; a fresh scanner per run,
    # under the documented seeding, gives bitwise the same maxima and counts;
    # the maxima equal a full scan's, the counts those of max_statistic,
    # which counts only the statistics it solves in full; 9 sweeps stop
    # before the batched solver's first finish attempt, so some lasso
    # statistics stay unreliable and the counts are not all zero
    base = generate_dense_stationary(3, seed=7)
    a = np.random.default_rng(8).standard_normal((3, 3))
    cov = a @ a.T + 0.5 * np.eye(3)
    law = VarParams((base.coeffs[0] / q,) * q, cov)
    ivs = seeded_intervals(120, 3 * q + 2, 1 / 1.1, q=q)
    for budget in (20, 9):
        config = StatConfig(
            method=method, sigma=cov if whitened else None, solver=SolverOptions(max_iterations=budget)
        )
        cal = calibrate_threshold(law, ivs, config, runs=4, seed=9, burn_in=30)
        maxima, unreliable, pruned = [], 0, 0
        for s in np.random.SeedSequence(9).generate_state(4):
            panel = simulate(law, ivs.horizon, burn_in=30, seed=int(s))
            scanner = PanelScanner(panel, law.stacked, q)
            maxima.append(max_reliable_statistic(scanner.scan(ivs, config)))
            fresh = scanner.max_statistic(ivs, config)
            unreliable += fresh.unreliable
            pruned += fresh.pruned
        assert cal.max_statistics.tobytes() == np.array(maxima).tobytes()
        assert (cal.unreliable, cal.pruned) == (unreliable, pruned)
        if method == "lasso" and budget == 9:
            assert unreliable > 0


def test_select_single_tie_break():
    stats = _scan_result([_stat(5, 14, 9.0), _stat(3, 12, 9.0), _stat(20, 30, 2.0)])
    picked = select_single(stats, 1.0)
    assert [s.interval for s in picked] == [Interval(3, 12)]
    # shorter wins when starts tie as well
    stats = _scan_result([_stat(3, 14, 9.0), _stat(3, 12, 9.0)])
    assert select_single(stats, 1.0)[0].interval == Interval(3, 12)


def test_select_single_empty_below_threshold():
    assert select_single(_scan_result([_stat(1, 5, 0.5)]), 1.0) == []


def test_select_multiple_hand_trace():
    stats = _scan_result([_stat(1, 10, 5.0), _stat(5, 15, 9.0), _stat(20, 30, 7.0)])
    picked = select_multiple(stats, 4.0)
    assert [s.interval for s in picked] == [Interval(5, 15), Interval(20, 30)]


def test_select_multiple_order_invariance():
    rng = np.random.default_rng(1)
    stats = [
        _stat(1, 10, 5.0), _stat(5, 15, 9.0), _stat(20, 30, 7.0),
        _stat(28, 40, 6.5), _stat(45, 60, 9.0), _stat(46, 60, 9.0),
    ]
    want = [s.interval for s in select_multiple(_scan_result(stats), 4.0)]
    for _ in range(10):
        shuffled = list(stats)
        rng.shuffle(shuffled)
        got = [s.interval for s in select_multiple(_scan_result(shuffled), 4.0)]
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
@given(rows=_stat_lists, threshold=st.sampled_from([THRESHOLD_FLOOR, 1.0, 4.0]))
def test_selection_properties(rows, threshold):
    # few distinct values and short ranges make ties and overlaps common; the
    # smallest threshold is the floor of a calibrated one, as selection
    # rejects a threshold of zero or below
    stats = [_stat(s, s + extra, v, ok) for s, extra, v, ok in rows]
    picked = select_multiple(_scan_result(stats), threshold)
    for i, a in enumerate(picked):
        assert a.reliable and a.value > threshold
        for b in picked[i + 1:]:
            assert not a.interval.overlaps(b.interval)
            assert b.value <= a.value
    for s in stats:
        if s.reliable and s.value > threshold and s not in picked:
            assert any(s.interval.overlaps(b.interval) and b.value >= s.value for b in picked)
    assert select_single(_scan_result(stats), threshold) == picked[:1]


_scan_rows = st.lists(
    st.tuples(
        st.integers(1, 30), st.integers(0, 12),
        st.sampled_from([0.0, 1.0, 2.5, 4.0, 9.0]), st.booleans(),
        st.sampled_from([0.5, 1.0, 3.0]), st.integers(0, 4),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(rows=_scan_rows, repeats=st.lists(st.integers(0, 29), max_size=8),
       threshold=st.sampled_from([THRESHOLD_FLOOR, 1.0, 4.0]))
def test_selection_matches_object_greedy(rows, repeats, threshold):
    # duplicated intervals (with equal or different rows), equal values,
    # unreliable rows and empty inputs; picks agree field for field
    stats = [IntervalStatistic(Interval(s, s + extra), v, "lasso", lam, nz, ok)
             for s, extra, v, ok, lam, nz in rows]
    stats += [stats[i] for i in repeats if i < len(stats)]
    scan = _scan_result(stats)
    want = _reference_select(stats, threshold)
    got = select_multiple(scan, threshold)
    assert got == want
    assert select_single(scan, threshold) == want[:1]
    for a, b in zip(got, want):
        for name in ("value", "lam", "nonzero", "reliable"):
            assert type(getattr(a, name)) is type(getattr(b, name))


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
    stats = _scan_result([_stat(1, 10, 100.0, reliable=False), _stat(20, 30, 7.0)])
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


@pytest.mark.parametrize("shape", [(4, 4), (4, 3), (4, 12)])
def test_online_rejects_baseline_of_wrong_shape(shape):
    # at q = 2 a 4 x 4 baseline must not run as lag 1, and a 4 x 3 one must
    # not fail inside numpy; the message is the offline scanner's
    base = generate_dense_stationary(4, seed=3)
    panel = simulate(base, 60, seed=4)
    baseline = np.zeros(shape)
    with pytest.raises(ParameterError) as offline:
        PanelScanner(panel, baseline, 2)
    assert str(offline.value) == f"baseline must be 4 x 8, got {shape}"
    for run in (
        lambda: OnlineDetector(baseline, 2, 1.0, 5.0),
        lambda: detect_online(panel.values, baseline, 2, 1.0, 5.0),
        lambda: online_max_statistic(panel.values, baseline, 2, 1.0),
    ):
        with pytest.raises(ParameterError) as online:
            run()
        assert str(online.value) == str(offline.value)
    assert detect_online(panel.values, np.zeros((4, 8)), 2, 1.0, 1e12) is None


def test_online_rejects_scalar_baseline():
    with pytest.raises(ParameterError, match=r"baseline must be 1 x 1, got \(\)"):
        OnlineDetector(np.float64(0.5), 1, 1.0, 5.0)


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


@pytest.mark.parametrize("q", [1, 2, 3])
def test_window_pairs_match_online_windows(q):
    # a floored float log2 counts one window too many at 2^k - 1 for k >= 49
    edges = [2**k + d for k in range(2, 63) for d in (-1, 0, 1)]
    times = np.array(list(range(1, 4101)) + [t for t in edges if t > 4100], dtype=np.int64)
    ends, j = _window_pairs(times, q)
    starts = ends - (1 << j)
    got = list(zip(starts.tolist(), ends.tolist()))
    want = [(s, e) for t in times.tolist() for s, e in online_windows(t) if s >= q + 1]
    assert got == want
    single_ends, single_j = _window_pairs(np.array([4100]), q)
    assert np.array_equal(single_ends - (1 << single_j), starts[ends == 4100])


def _step_loop_max(values, baseline, q, lam, t0, sigma, policy):
    detector = OnlineDetector(baseline, q, lam, np.inf, t0, sigma=sigma, lambda_policy=policy)
    return max(
        (max((s.value for s in detector.step(x) if s.reliable), default=0.0) for x in values),
        default=0.0,
    )


@pytest.mark.parametrize("sigma_seed", [None, 8])
@pytest.mark.parametrize("policy", LAMBDA_POLICIES)
@pytest.mark.parametrize("q", [1, 2])
def test_online_max_statistic_equals_step_loop(q, policy, sigma_seed):
    p = 3
    base = generate_dense_stationary(p, seed=20)
    law = VarParams((base.coeffs[0] / q,) * q, np.eye(p))
    sigma = None
    if sigma_seed is not None:
        a = np.random.default_rng(sigma_seed).standard_normal((p, p))
        sigma = a @ a.T + 0.5 * np.eye(p)
    values = simulate(law, 129, seed=21).values
    for n in (5, 64, 129):  # shorter than t0, and longer
        for lam in (1.5, 6.0):
            want = _step_loop_max(values[:n], law.stacked, q, lam, 10, sigma, policy)
            got = online_max_statistic(values[:n], law.stacked, q, lam, 10, sigma=sigma, lambda_policy=policy)
            assert got == want
            if n <= 10 or lam == 1.5:
                assert (got > 0.0) == (n > 10)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), q=st.integers(1, 2), policy=st.sampled_from(LAMBDA_POLICIES),
    whitened=st.booleans(), per_chunk=st.integers(1, 9), lam=st.sampled_from([0.5, 1.5, 6.0]),
)
def test_walked_online_maximum_is_bitwise_the_step_loop(seed, q, policy, whitened, per_chunk, lam):
    # the online maximum walks every window of the stream in chunks of a few
    # windows, each starting from the best value of the chunks before it as
    # its floor; the result is bitwise the maximum of a step loop
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 4))
    n = int(rng.integers(12, 90))
    a = generate_dense_stationary(p, seed=int(rng.integers(1 << 30))).coeffs[0]
    noise = rng.standard_normal((p, p))
    sigma = noise @ noise.T + 0.5 * np.eye(p) if whitened else None
    law = VarParams((a / q,) * q, np.eye(p))
    values = simulate(law, n, seed=int(rng.integers(1 << 30))).values
    want = _step_loop_max(values, law.stacked, q, lam, 10, sigma, policy)
    with mock.patch.object(interval_stats, "_CHUNK_ENTRIES", per_chunk * (p * q) ** 2):
        got = online_max_statistic(values, law.stacked, q, lam, 10, sigma=sigma, lambda_policy=policy)
    assert got.hex() == want.hex()


@pytest.mark.parametrize("fortran", [False, True])
@pytest.mark.parametrize("sigma_seed", [None, 8])
@pytest.mark.parametrize("policy", LAMBDA_POLICIES)
@pytest.mark.parametrize("q", [1, 2])
def test_offline_statistics_of_online_windows_are_bitwise_the_steps(q, policy, sigma_seed, fortran):
    # a scanner's prefix over the stream is bitwise the detector's, so the
    # offline kernel gives every window of every step bitwise its step value;
    # estimate_baseline returns a transposed, Fortran-ordered array
    p, n, t0 = 3, 150, 10
    base = generate_dense_stationary(p, seed=20)
    law = VarParams((base.coeffs[0] / q,) * q, np.eye(p))
    baseline = law.stacked
    if fortran:
        baseline = estimate_baseline(simulate(law, 300, seed=22), q)
        assert baseline.flags.f_contiguous and not baseline.flags.c_contiguous
    sigma = None
    if sigma_seed is not None:
        a = np.random.default_rng(sigma_seed).standard_normal((p, p))
        sigma = a @ a.T + 0.5 * np.eye(p)
    panel = simulate(law, n, seed=21)
    detector = OnlineDetector(baseline, q, 1.5, np.inf, t0, sigma=sigma, lambda_policy=policy)
    want = [s for x in panel.values for s in detector.step(x)]
    starts, ends, lams = detector._pairs(t0 + 1, n)
    scanner = PanelScanner(panel, baseline, q)
    # a one-chunk walk holds every row it reads, and its plan's lo and hi
    # are positions in the prefix arrays
    list(scanner._walk(starts - (q + 1), ends - q, len(starts)))
    held = scanner._plan
    got = prefix_statistics(
        scanner._gram_prefix, scanner._cross_prefix, held.lo, held.hi, ends - starts + 1, lams, "lasso",
        SolverOptions(), whitening_matrix(sigma, p),
    )
    assert [(s.interval.start, s.interval.end, s.lam) for s in want] == list(
        zip(starts.tolist(), ends.tolist(), lams.tolist())
    )
    assert got[0].tobytes() == np.array([s.value for s in want]).tobytes()
    assert got[1].tolist() == [s.nonzero for s in want]
    assert got[2].tolist() == [s.reliable for s in want]
    assert np.count_nonzero(got[0]) > len(want) // 10


def test_online_max_statistic_prunes_busy_windows(monkeypatch):
    # at a penalty that leaves most windows busy, the maximum solves in full
    # far fewer windows than are busy and still equals the step loop
    base = generate_dense_stationary(4, seed=30)
    values = simulate(base, 192, seed=31).values
    want = _step_loop_max(values, base.stacked, 1, 0.5, 10, None, "global")
    calls = []
    solve_busy = interval_stats._solve_busy

    def counting(*args, **kwargs):
        calls.append((args[7], args[5].size))  # (sweeps, busy)
        return solve_busy(*args, **kwargs)

    monkeypatch.setattr(interval_stats, "_solve_busy", counting)
    got = online_max_statistic(values, base.stacked, 1, 0.5)
    assert type(got) is float and got == want > 0.0
    windows = _window_pairs(np.arange(11, len(values) + 1), 1)[0].size
    busy = sum(size for sweeps, size in calls if sweeps == interval_stats._BRACKET_SWEEPS)
    solved = sum(size for sweeps, size in calls if sweeps == SolverOptions().max_iterations)
    assert busy > windows // 2
    assert 0 < solved < busy // 4


@pytest.mark.parametrize("n", [5, 40])  # no longer than t0, and longer
def test_online_max_statistic_checks_rows_as_step_does(n):
    base = generate_dense_stationary(3, seed=32)
    values = simulate(base, n, seed=33).values
    for bad in (values[:, :2], np.where(np.arange(n)[:, None] == 3, np.nan, values)):
        with pytest.raises(ParameterError) as stepped:
            detector = OnlineDetector(base.stacked, 1, 1.0, np.inf)
            for x in bad:
                detector.step(x)
        with pytest.raises(ParameterError) as replayed:
            online_max_statistic(bad, base.stacked, 1, 1.0)
        assert str(replayed.value) == str(stepped.value)
    # a one-series stream may come as a vector
    law = VarParams((np.array([[0.5]]),), np.eye(1))
    series = simulate(law, n, seed=34).values
    assert online_max_statistic(series[:, 0], law.stacked, 1, 0.1) == (
        online_max_statistic(series, law.stacked, 1, 0.1)
    )
    assert online_max_statistic(np.empty((0, 3)), base.stacked, 1, 1.0) == 0.0


def _update_loop(stream, baseline, q, lam, threshold, t0=10, solver=None, sigma=None, policy="global"):
    detector = OnlineDetector(baseline, q, lam, threshold, t0, solver, sigma, policy)
    for x in stream:
        alarm = detector.update(x)
        if alarm is not None:
            return alarm
    return None


def _alarm_key(alarm):
    return None if alarm is None else (alarm.time, alarm.window, alarm.statistic)


def test_detect_online_equals_update_loop():
    # null rows at a penalty that screens them to zero, then one shock row
    # whose time is the first that can fire, at the edges of the walk's
    # chunks of 20 windows
    base = generate_dense_stationary(3, seed=22)
    null = simulate(base, 192, seed=23).values
    lam, per_chunk = 60.0, 20
    assert online_max_statistic(null, base.stacked, 1, lam) == 0.0
    ends = _window_pairs(np.arange(11, len(null) + 1), 1)[0]
    edges = [int(ends[k * per_chunk + d]) for k in (1, 3) for d in (-1, 0)]
    assert ends[per_chunk - 1] == ends[per_chunk]  # a time whose windows span two chunks
    with mock.patch.object(interval_stats, "_CHUNK_ENTRIES", per_chunk * 9):
        for shock_time in [11] + edges + [edges[-1] + 1]:
            stream = null.copy()
            stream[shock_time - 1] += 40.0
            want = _update_loop(stream, base.stacked, 1, lam, 1.0)
            assert want is not None and want.time == shock_time
            got = detect_online(stream, base.stacked, 1, lam, 1.0)
            assert _alarm_key(got) == _alarm_key(want)
            # a generator is read to its end, with the same alarm
            read = []
            got = detect_online((read.append(row) or row for row in stream), base.stacked, 1, lam, 1.0)
            assert _alarm_key(got) == _alarm_key(want) and len(read) == len(stream)
            # a bad row after the alarm is never reached by the row-by-row loop
            broken = stream.copy()
            broken[shock_time + 1] = np.nan
            assert _alarm_key(detect_online(broken, base.stacked, 1, lam, 1.0)) == _alarm_key(want)
    # no alarm
    assert _update_loop(null, base.stacked, 1, lam, 1.0) is None
    assert detect_online(iter(null), base.stacked, 1, lam, 1.0) is None
    # a bad row before any alarm raises, as the row-by-row loop does
    broken = null.copy()
    broken[67, 1] = np.inf
    with pytest.raises(ParameterError):
        detect_online(broken, base.stacked, 1, lam, 1.0)


def test_detect_online_equals_update_loop_on_anomalous_stream():
    # a chunk is solved up to its first window whose bracket value clears
    # the threshold, then past it if no reliable alarm came first; 1, 2 and
    # 12 sweeps, and no tolerance, leave some windows unreliable, and a
    # 9-sweep solver, which stops before the batched solver's first finish
    # attempt, leaves unreliable windows above every threshold; the lowest
    # threshold lies below every busy window
    base, theta = dense_base_with_change(4, 0.8, 3, seed=24)
    stream = simulate_episodes(base, [((60, 199), theta)], 200, seed=25).values
    solvers = (None, SolverOptions(max_iterations=12), SolverOptions(max_iterations=9),
               SolverOptions(max_iterations=1), SolverOptions(max_iterations=2), SolverOptions(tolerance=0.0))
    for policy in LAMBDA_POLICIES:
        for solver in solvers:
            for threshold in (THRESHOLD_FLOOR, 5.0, 20.0, 80.0):
                want = _update_loop(stream, base.stacked, 1, 4.0, threshold, solver=solver, policy=policy)
                got = detect_online(stream, base.stacked, 1, 4.0, threshold, solver=solver, lambda_policy=policy)
                assert _alarm_key(got) == _alarm_key(want)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), q=st.integers(1, 2), policy=st.sampled_from(LAMBDA_POLICIES),
    whitened=st.booleans(), per_chunk=st.integers(1, 9), lam=st.sampled_from([0.5, 1.5, 6.0]),
    level=st.floats(0.01, 1.2), sweeps=st.sampled_from([2, 12, 10000]),
)
def test_walked_detect_online_is_the_update_loop(seed, q, policy, whitened, per_chunk, lam, level, sweeps):
    # detect_online walks the stream's windows in chunks of a few windows and
    # stops at the first chunk with a reliable exceedance; its alarm is the
    # update loop's, at thresholds around the stream's maximum statistic
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 4))
    n = int(rng.integers(12, 90))
    a = generate_dense_stationary(p, seed=int(rng.integers(1 << 30))).coeffs[0]
    noise = rng.standard_normal((p, p))
    sigma = noise @ noise.T + 0.5 * np.eye(p) if whitened else None
    law = VarParams((a / q,) * q, np.eye(p))
    values = simulate(law, n, seed=int(rng.integers(1 << 30))).values
    solver = SolverOptions(max_iterations=sweeps)
    threshold = max(level * _step_loop_max(values, law.stacked, q, lam, 10, sigma, policy), THRESHOLD_FLOOR)
    want = _update_loop(values, law.stacked, q, lam, threshold, 10, solver, sigma, policy)
    with mock.patch.object(interval_stats, "_CHUNK_ENTRIES", per_chunk * (p * q) ** 2):
        got = detect_online(values, law.stacked, q, lam, threshold, 10, solver, sigma, policy)
    assert _alarm_key(got) == _alarm_key(want)
    if want is not None:
        assert got.statistic.hex() == want.statistic.hex()


def test_detect_online_prunes_busy_windows(monkeypatch):
    # at a penalty that leaves most windows busy, the walk solves in full far
    # fewer windows than it brackets, and its alarm is the update loop's
    base, theta = dense_base_with_change(4, 0.8, 3, seed=24)
    stream = simulate_episodes(base, [((60, 199), theta)], 200, seed=25).values
    want = _update_loop(stream, base.stacked, 1, 1.0, 80.0)
    calls = []
    solve_busy = interval_stats._solve_busy

    def counting(*args, **kwargs):
        calls.append((args[7], args[5].size))  # (sweeps, windows)
        return solve_busy(*args, **kwargs)

    monkeypatch.setattr(interval_stats, "_solve_busy", counting)
    got = detect_online(stream, base.stacked, 1, 1.0, 80.0)
    assert want is not None and _alarm_key(got) == _alarm_key(want)
    busy = sum(size for sweeps, size in calls if sweeps == interval_stats._BRACKET_SWEEPS)
    solved = sum(size for sweeps, size in calls if sweeps == SolverOptions().max_iterations)
    windows = _window_pairs(np.arange(11, len(stream) + 1), 1)[0].size
    assert busy > windows // 2
    assert 0 < solved < busy // 4


def test_update_alarms_on_the_first_reliable_step_statistic():
    base, theta = dense_base_with_change(4, 0.8, 3, seed=24)
    stream = simulate_episodes(base, [((60, 199), theta)], 200, seed=25).values
    cases = [(s, h) for s in (None, SolverOptions(max_iterations=12)) for h in (5.0, 20.0, 80.0)]
    # 9 sweeps stop before the batched solver's first finish attempt, so
    # unreliable statistics above the threshold come before its alarms (at
    # threshold 80 it raises none)
    nine = SolverOptions(max_iterations=9)
    for solver, threshold in cases + [(nine, 5.0), (nine, 20.0)]:
        monitor = OnlineDetector(base.stacked, 1, 4.0, threshold, solver=solver)
        stepper = OnlineDetector(base.stacked, 1, 4.0, threshold, solver=solver)
        skipped = 0
        for t, x in enumerate(stream, start=1):
            alarm = monitor.update(x)
            stats = stepper.step(x)
            skipped += sum(not s.reliable and s.value > threshold for s in stats)
            fired = [s for s in stats if s.reliable and s.value > threshold]
            if fired:
                assert _alarm_key(alarm) == (t, fired[0].interval, fired[0].value)
                assert monitor.update(stream[t]) is alarm
                break
            assert alarm is None
        else:
            raise AssertionError(f"no alarm at threshold {threshold}")
        if solver is nine:
            assert skipped > 0


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
    assert lines[0] == "start,end,statistic,upper,solved,detected"
    assert len(lines) == 21
    stats = result.statistics
    for line, value, upper, solved in zip(lines[1:], stats.values, stats.upper, stats.solved):
        fields = line.split(",")
        assert fields[2:5] == [repr(float(value)), repr(float(upper)), str(int(solved))]
        assert solved or float(fields[2]) <= float(fields[3])


def _check_bracketed(panel, baseline, ivs, config, threshold, q=1):
    """Assert that bracketed detect_single and detect_multiple pick as the
    selection rules do on a full scan, with every solved row bitwise that
    scan's and every unsolved row unreliable and bracketing the scan's
    value, the lower bound up to the bracket's rounding slack; returns the
    detect_multiple result."""
    full = PanelScanner(panel, baseline, q).scan(ivs, config)
    y_sq = np.array([
        np.sum(whiten(build_regression_view(panel, baseline, s, e, q), config.sigma).residuals ** 2)
        for s, e in zip(ivs.starts.tolist(), ivs.ends.tolist())
    ])
    slack = interval_stats._BRACKET_MARGIN * (1.0 + y_sq)
    for detect, select in ((detect_single, select_single), (detect_multiple, select_multiple)):
        result = detect(panel, baseline, ivs, config, threshold, q)
        assert result.detected == select(full, threshold)
        assert [s.value.hex() for s in result.detected] == [s.value.hex() for s in select(full, threshold)]
        got, solved = result.statistics, result.statistics.solved
        for column in ("values", "nonzero", "reliable"):
            assert getattr(got, column)[solved].tobytes() == getattr(full, column)[solved].tobytes()
        assert got.upper[solved].tobytes() == got.values[solved].tobytes()
        unsolved = ~solved
        assert not got.reliable[unsolved].any() and result.pruned == np.count_nonzero(unsolved)
        assert (got.values[unsolved] <= full.values[unsolved] + slack[unsolved]).all()
        assert (full.values[unsolved] <= got.upper[unsolved]).all()
    return result


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), policy=st.sampled_from(LAMBDA_POLICIES), whitened=st.booleans(),
    solver=st.sampled_from([SolverOptions(), SolverOptions(max_iterations=12), SolverOptions(tolerance=0.0, max_iterations=3)]),
    level=st.sampled_from([0.0, 0.3, 0.7, 1.0, 1.5]),
)
def test_bracketed_detection_picks_as_a_full_scan_property(seed, policy, whitened, solver, level):
    # a random set holds duplicated rows; the small budgets leave unreliable
    # statistics, and the thresholds run from the floor to above the scan's
    # largest reliable value
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 4))
    n = int(rng.integers(40, 120))
    law = generate_dense_stationary(p, seed=int(rng.integers(1 << 30)))
    theta = 0.35 * law.coeffs[0]  # spectral radius 0.7 -> 0.945
    start = int(rng.integers(2, n - 10))
    panel = simulate_episodes(law, [((start, start + 10), theta)], n, seed=int(rng.integers(1 << 30)))
    noise = rng.standard_normal((p, p))
    sigma = noise @ noise.T + 0.5 * np.eye(p) if whitened else None
    ivs = random_intervals(n, p + 2, int(rng.integers(20, 80)), seed=int(rng.integers(1 << 30)), q=1)
    config = StatConfig(lambda_scale=float(rng.uniform(0.05, 0.5)), sigma=sigma, solver=solver, lambda_policy=policy)
    top = max_reliable_statistic(PanelScanner(panel, law.stacked, 1).scan(ivs, config))
    _check_bracketed(panel, law.stacked, ivs, config, max(level * top, THRESHOLD_FLOOR))


def test_bracketed_detection_above_every_upper_bound_solves_nothing(monkeypatch):
    # a threshold above every bracket's upper bound picks nothing and leaves
    # every busy row at its bracket: the bracket pass is the only solve
    base = generate_dense_stationary(3, seed=6)
    panel = simulate(base, 100, seed=13)
    ivs = random_intervals(100, 5, 40, seed=14, q=1)
    calls = []
    solve_busy = interval_stats._solve_busy

    def counting(*args, **kwargs):
        calls.append((args[7], args[5].size))  # (sweeps, rows)
        return solve_busy(*args, **kwargs)

    monkeypatch.setattr(interval_stats, "_solve_busy", counting)
    for detect in (detect_single, detect_multiple):
        calls.clear()
        result = detect(panel, base.stacked, ivs, StatConfig(), 1e6)
        stats = result.statistics
        busy = np.count_nonzero(~stats.solved)
        assert result.detected == [] and stats.upper.max() < 1e6
        assert calls == [(interval_stats._BRACKET_SWEEPS, busy)] and result.pruned == busy > 0


def test_bracketed_detection_solves_few_of_its_busy_rows(monkeypatch):
    # at the studies' settings every interval is busy, and exact picks of
    # two anomalies solve in full a small share of them
    base, theta = dense_base_with_change(5, 0.6, 4, seed=1)
    panel = simulate_episodes(base, [((60, 90), theta), ((200, 240), theta)], 300, seed=2)
    ivs = seeded_intervals(300, 6, 1 / 1.1, q=1)
    config = StatConfig(lambda_policy="interval_linear")
    calls = []
    solve_busy = interval_stats._solve_busy

    def counting(*args, **kwargs):
        calls.append((args[7], args[5].size))  # (sweeps, rows)
        return solve_busy(*args, **kwargs)

    monkeypatch.setattr(interval_stats, "_solve_busy", counting)
    result = detect_multiple(panel, base.stacked, ivs, config, 60.0)
    monkeypatch.undo()
    (sweeps, busy), *rounds = calls
    solved = sum(size for _, size in rounds)
    assert sweeps == interval_stats._BRACKET_SWEEPS and busy > len(ivs) // 2
    assert len(result.detected) == 2 and 0 < solved < busy // 8
    assert result.pruned == busy - solved
    _check_bracketed(panel, base.stacked, ivs, config, 60.0)
