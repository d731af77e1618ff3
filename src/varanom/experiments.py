"""Desk-scale simulation studies: power, localisation, counting, online delay.

Each study fixes a master seed and derives independent substreams for
calibration and evaluation, so results are reproducible end to end. The
scenario builders follow the simulation designs used throughout the
package's evaluation: a dense stationary baseline whose smallest positive
entries gain a sparse increment during the anomaly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .detection import (
    calibrate_threshold,
    check_quantile,
    detect_multiple,
    detect_online,
    detect_single,
    null_threshold,
    online_max_statistic,
)
from .errors import ParameterError, check_choice
from .estimation import BASELINE_PENALTIES, SolverOptions, estimate_baseline
from .evaluation import ScenarioOutcome, intervals_as_tuples
from .intervals import IntervalSet, build_intervals, seeded_intervals
from .interval_stats import LAMBDA_POLICIES, PanelScanner, StatConfig, default_lambda
from .var_model import (
    AnomalyScenario,
    VarParams,
    generate_dense_stationary,
    simulate,
    simulate_episodes,
    simulate_with_anomaly,
)


def sparse_increment(base_matrix: np.ndarray, delta: float, count: int) -> np.ndarray:
    """Delta placed on the ``count`` smallest strictly positive entries."""
    a = np.asarray(base_matrix, dtype=float)
    flat = a.ravel()
    positive = np.flatnonzero(flat > 0)
    if len(positive) < count:
        raise ParameterError(f"base has only {len(positive)} positive entries, need {count}")
    chosen = positive[np.argsort(flat[positive])][:count]
    theta = np.zeros_like(flat)
    theta[chosen] = delta
    return theta.reshape(a.shape)


def dense_base_with_change(
    p: int, delta: float, count: int, seed: int, radius: float = 0.7, attempts: int = 64
) -> tuple[VarParams, np.ndarray]:
    """Dense stationary VAR(1) base whose incremented regime is also stationary."""
    for k in range(attempts):
        base = generate_dense_stationary(p, seed=seed + 7919 * k, radius=radius)
        theta = sparse_increment(base.coeffs[0], delta, count)
        try:
            VarParams.from_stacked(base.stacked + theta, base.noise_cov, 1)
        except ParameterError:
            continue
        return base, theta
    raise ParameterError(
        f"no stationary base/change pair found in {attempts} attempts (p={p}, delta={delta})"
    )


@dataclass
class SingleAnomalyStudy:
    scenario: AnomalyScenario
    interval_set: IntervalSet
    thresholds: dict
    outcomes: dict
    config: dict = field(default_factory=dict)


def run_single_anomaly_study(
    p: int = 10,
    horizon: int = 500,
    delta: float = 0.35,
    n_change: int = 10,
    window: Optional[tuple[int, int]] = None,
    runs: int = 100,
    calibration_runs: int = 100,
    quantile: float = 0.99,
    min_length: int = 11,
    scheme: str = "random",
    count: int = 1029,
    decay: float = 1 / 1.1,
    lambda_scale: float = 0.15,
    lambda_policy: str = "interval_linear",
    baseline_penalty: str = "ridge",
    methods: Sequence[str] = ("ols", "lasso"),
    modes: Sequence[str] = ("known", "estimated"),
    radius: float = 0.75,
    seed: int = 0,
) -> SingleAnomalyStudy:
    """Power and localisation study for one anomaly on a dense baseline.

    For the known mode the true coefficients drive the scan; for the
    estimated mode every calibration and evaluation run re-estimates the
    baseline from a fresh training panel of the same length, so thresholds
    absorb the estimation error. Each evaluation run's pick is
    :func:`detect_single`'s, so a lasso run solves in full only the
    intervals that could change it. ``baseline_penalty`` is checked at
    entry.
    """
    check_quantile(quantile)
    check_choice(baseline_penalty, "baseline penalty", BASELINE_PENALTIES)
    q = 1
    base, theta = dense_base_with_change(p, delta, n_change, seed, radius=radius)
    if window is None:
        window = (int(horizon * 5 / 11), int(horizon * 6 / 11))
    scenario = AnomalyScenario(base, theta, window, horizon)
    root = np.random.SeedSequence(seed)
    iv_seed, cal_seed, eval_seed = (int(s.generate_state(1)[0]) for s in root.spawn(3))
    interval_set = build_intervals(scheme, horizon, min_length, q, count, decay, iv_seed)
    configs = {
        m: StatConfig(method=m, lambda_scale=lambda_scale, lambda_policy=lambda_policy)
        for m in methods
    }

    def scan_maxima(scanner: PanelScanner) -> dict:
        return {m: scanner.max_statistic(interval_set, configs[m]).value for m in methods}

    cal_states = np.random.SeedSequence(cal_seed).generate_state(3 * calibration_runs)
    maxima = {(mode, m): [] for mode in modes for m in methods}
    for r in range(calibration_runs):
        null_panel = simulate(base, horizon, seed=int(cal_states[3 * r]))
        if "known" in modes:
            known = scan_maxima(PanelScanner(null_panel, base.stacked, q))
            for m in methods:
                maxima[("known", m)].append(known[m])
        if "estimated" in modes:
            train = simulate(base, horizon, seed=int(cal_states[3 * r + 1]))
            theta_hat = estimate_baseline(train, q, penalty=baseline_penalty)
            est = scan_maxima(PanelScanner(null_panel, theta_hat, q))
            for m in methods:
                maxima[("estimated", m)].append(est[m])
    thresholds = {key: null_threshold(vals, quantile) for key, vals in maxima.items()}

    eval_states = np.random.SeedSequence(eval_seed).generate_state(2 * runs)
    outcomes = {key: [] for key in maxima}
    truth = [window]
    for r in range(runs):
        panel = simulate_with_anomaly(scenario, seed=int(eval_states[2 * r]))
        baselines = {}
        if "known" in modes:
            baselines["known"] = base.stacked
        if "estimated" in modes:
            train = simulate(base, horizon, seed=int(eval_states[2 * r + 1]))
            baselines["estimated"] = estimate_baseline(train, q, penalty=baseline_penalty)
        for mode, baseline in baselines.items():
            for m in methods:
                picked = detect_single(
                    panel, baseline, interval_set, configs[m], thresholds[(mode, m)], q
                ).detected
                outcomes[(mode, m)].append(
                    ScenarioOutcome(
                        truth,
                        intervals_as_tuples(s.interval for s in picked),
                        {"run": r, "mode": mode, "method": m},
                    )
                )
    return SingleAnomalyStudy(
        scenario,
        interval_set,
        thresholds,
        outcomes,
        {
            "runs": runs,
            "calibration_runs": calibration_runs,
            "quantile": quantile,
            "scheme": scheme,
            "n_intervals": len(interval_set),
            "lambda_scale": lambda_scale,
            "lambda_policy": lambda_policy,
            "seed": seed,
        },
    )


@dataclass
class TwoAnomalyStudy:
    windows: tuple
    interval_set: IntervalSet
    threshold: float
    outcomes: list
    config: dict = field(default_factory=dict)


def run_two_anomaly_study(
    p: int = 10,
    horizon: int = 500,
    delta: float = 0.6,
    n_change: int = 5,
    windows: tuple = ((133, 166), (333, 366)),
    runs: int = 100,
    calibration_runs: int = 100,
    quantile: float = 0.99,
    min_length: int = 11,
    decay: float = 1 / 1.1,
    lambda_scale: float = 0.15,
    lambda_policy: str = "interval_linear",
    method: str = "lasso",
    seed: int = 0,
) -> TwoAnomalyStudy:
    """Counting study: two disjoint excursions detected by the multi-pass scan.

    ``calibrate_threshold`` checks ``quantile`` before anything is simulated.
    """
    q = 1
    base, theta = dense_base_with_change(p, delta, n_change, seed)
    episodes = [(w, theta) for w in windows]
    interval_set = seeded_intervals(horizon, min_length, decay, q=q)
    config = StatConfig(method=method, lambda_scale=lambda_scale, lambda_policy=lambda_policy)
    root = np.random.SeedSequence(seed)
    cal_seed, eval_seed = (int(s.generate_state(1)[0]) for s in root.spawn(2))

    threshold = calibrate_threshold(
        base, interval_set, config, calibration_runs, quantile, seed=cal_seed
    ).threshold

    eval_states = np.random.SeedSequence(eval_seed).generate_state(runs)
    outcomes = []
    for r in range(runs):
        panel = simulate_episodes(base, episodes, horizon, seed=int(eval_states[r]))
        picked = detect_multiple(panel, base.stacked, interval_set, config, threshold, q).detected
        outcomes.append(
            ScenarioOutcome(
                list(windows), intervals_as_tuples(s.interval for s in picked), {"run": r}
            )
        )
    return TwoAnomalyStudy(
        windows,
        interval_set,
        threshold,
        outcomes,
        {
            "runs": runs,
            "calibration_runs": calibration_runs,
            "quantile": quantile,
            "n_intervals": len(interval_set),
            "method": method,
            "seed": seed,
        },
    )


@dataclass
class OnlineStudy:
    threshold: float
    lam: float
    onset: int
    alarms: list
    config: dict = field(default_factory=dict)

    @property
    def early_alarm_rate(self) -> float:
        early = sum(1 for a in self.alarms if a is not None and a.time < self.onset)
        return early / len(self.alarms)

    @property
    def delays(self) -> list[int]:
        return [a.time - self.onset for a in self.alarms if a is not None and a.time >= self.onset]

    @property
    def median_delay(self) -> float:
        return float(np.median(self.delays)) if self.delays else float("inf")


def run_online_study(
    p: int = 10,
    onset: int = 200,
    horizon: int = 400,
    delta: float = 0.6,
    n_change: int = 5,
    runs: int = 100,
    calibration_runs: int = 100,
    quantile: float = 0.99,
    t0: int = 10,
    lambda_scale: float = 3.0,
    lambda_policy: str = "interval_sqrt",
    solver_tolerance: float = 1e-6,
    seed: int = 0,
) -> OnlineStudy:
    """Sequential detection study: geometric-window monitor on synthetic streams.

    The threshold is the calibrated quantile of the maximum statistic the
    monitor inspects over null streams covering the pre-change period. The
    default penalty grows with the square root of the window length at a
    constant large enough that null windows mostly sit at exactly zero, the
    regime where the theory places the scan. ``quantile`` and
    ``lambda_policy`` are checked at entry, before the first null stream.
    """
    check_quantile(quantile)
    check_choice(lambda_policy, "lambda policy", LAMBDA_POLICIES)
    q = 1
    base, theta = dense_base_with_change(p, delta, n_change, seed)
    lam = default_lambda(2, p, horizon, lambda_scale)
    solver = SolverOptions(tolerance=solver_tolerance)
    root = np.random.SeedSequence(seed)
    cal_seed, eval_seed = (int(s.generate_state(1)[0]) for s in root.spawn(2))

    cal_states = np.random.SeedSequence(cal_seed).generate_state(calibration_runs)
    maxima = [
        online_max_statistic(
            simulate(base, onset, seed=int(cal_states[r])).values, base.stacked, q, lam, t0,
            solver=solver, lambda_policy=lambda_policy,
        )
        for r in range(calibration_runs)
    ]
    threshold = null_threshold(maxima, quantile)

    eval_states = np.random.SeedSequence(eval_seed).generate_state(runs)
    alarms = []
    for r in range(runs):
        panel = simulate_episodes(
            base, [((onset, horizon - 1), theta)], horizon, seed=int(eval_states[r])
        )
        alarms.append(detect_online(
            panel.values, base.stacked, q, lam, threshold, t0,
            solver=solver, lambda_policy=lambda_policy,
        ))
    return OnlineStudy(
        threshold,
        lam,
        onset,
        alarms,
        {
            "runs": runs,
            "calibration_runs": calibration_runs,
            "quantile": quantile,
            "p": p,
            "horizon": horizon,
            "lambda_policy": lambda_policy,
            "seed": seed,
        },
    )
