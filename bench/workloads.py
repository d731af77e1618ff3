"""The benchmark's three workloads: inputs, operations and correctness checks.

Every input is drawn by the benchmark from the run's seed; the library only
receives the generated panels, laws and settings. The VAR laws are fixed
per workload (drawn from a constant key) and the seed draws the sample
paths, so runs with different seeds exercise the same problem sizes on
different data.

An operation is one timed public call or loop of calls: a null calibration
run, a scan, a pipeline run or a stream replay. Each returns what the
library returned; its check runs after the timer stops and returns a list
of failure messages. A workload's operations are a fixed list drawn from the
seed (one pass) of a given number of rounds; ``round_seconds`` is what one
round takes on a 2-vCPU Xeon guest, from which the run picks the number of
rounds. The run repeats the pass ``passes`` times, and each operation keeps
its fastest time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

import oracle

# Library results must agree with the oracle within RTOL * (1 + |T|) plus
# the oracle's certified gap. The seed code's measured error is below
# 4e-14 relative (lasso scans, online windows and OLS scans at p=50); the
# tolerance leaves room for reordered sums and solvers that stop on a
# certified gap, while a wrong formula, penalty or window misses by far more.
RTOL = 1e-8
LAW_KEY = 20210517
REFERENCE_SEED = 7
THRESHOLD_FLOOR = 1e-12


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    same: Callable[[Any, Any], bool]  # do a plain and a traced pass agree?
    units: Any = 1  # work units, or a function of the result giving them
    latencies: Callable[[Any], list] | None = None


def close(lib: float, ref: float, gap: float = 0.0) -> bool:
    return abs(lib - ref) <= RTOL * (1.0 + abs(ref)) + gap


# -- input generation --------------------------------------------------------

def dense_law(p: int, delta: float, n_change: int):
    """Dense VAR(1) matrix of spectral radius 0.7 and a sparse increment on its smallest positive entries.

    Both regimes are stationary; the law is the same for every seed.
    """
    for attempt in count():
        rng = np.random.default_rng([LAW_KEY, p, attempt])
        a = rng.uniform(-1.0, 1.0, size=(p, p))
        a *= 0.7 / np.max(np.abs(np.linalg.eigvals(a)))
        flat = a.ravel()
        positive = np.flatnonzero(flat > 0)
        inc = np.zeros(p * p)
        inc[positive[np.argsort(flat[positive])][:n_change]] = delta
        inc = inc.reshape(p, p)
        if np.max(np.abs(np.linalg.eigvals(a + inc))) < 1.0:
            return a, inc


def var_path(a, inc, windows, n_rows: int, rng, burn_in: int = 200) -> np.ndarray:
    """VAR(1) rows 1..n_rows with coefficients a + inc on the closed 1-based windows."""
    p = a.shape[0]
    shifted = np.zeros(n_rows + 1, dtype=bool)
    for lo, hi in windows:
        shifted[lo : hi + 1] = True
    noise = rng.standard_normal((burn_in + n_rows, p))
    moved = a + inc
    x = np.zeros(p)
    out = np.empty((n_rows, p))
    for i in range(burn_in + n_rows):
        t = i - burn_in + 1
        x = (moved if t >= 1 and shifted[t] else a) @ x + noise[i]
        if t >= 1:
            out[t - 1] = x
    return out


def library_seed(*key) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def table(stats) -> list[tuple[int, int, float, bool]]:
    """(start, end, value, reliable) rows of a scan result."""
    return [(s.interval.start, s.interval.end, float(s.value), bool(s.reliable)) for s in stats]


def detected(result) -> list[tuple[int, int]]:
    return [(s.interval.start, s.interval.end) for s in result.detected]


# -- calib-lasso-p10 ----------------------------------------------------------

class CalibLasso:
    """Lasso calibration at p=10, T=500 over 1078 seeded intervals, then two-anomaly scans."""

    name = "calib-lasso-p10"
    kinds = {"null_run", "scan"}
    p, horizon, min_length, decay = 10, 500, 11, 1 / 1.1
    windows = ((133, 166), (333, 366))
    null_runs_per_round = 4
    scans_per_round = 4
    passes = 1
    round_seconds = 4.6
    sample_every = 269

    def __init__(self):
        self.a, self.inc = dense_law(self.p, 0.6, 5)

    def setup(self, vm):
        law = vm.VarParams((self.a,), np.eye(self.p))
        intervals = vm.seeded_intervals(self.horizon, self.min_length, self.decay, q=1)
        config = vm.StatConfig(method="lasso", lambda_policy="interval_linear")
        return {"vm": vm, "law": law, "intervals": intervals, "config": config}

    def _lam(self, length: int) -> float:
        # interval_linear: the rate at L, scaled by |J| / L
        return oracle.rate(self.min_length, self.p, self.horizon, 0.15) * length / self.min_length

    def _panel(self, st, rng):
        values = var_path(self.a, self.inc, self.windows, self.horizon, rng)
        return st["vm"].TimeSeriesPanel(values)

    def _calibrate(self, st, runs, seed):
        vm = st["vm"]
        return vm.calibrate_threshold(st["law"], st["intervals"], st["config"], runs=runs, quantile=0.99, seed=seed)

    def _detect(self, st, panel, threshold):
        vm = st["vm"]
        return vm.detect_multiple(panel, self.a, st["intervals"], st["config"], threshold, q=1)

    def _null_values(self, st, runs, seed):
        """The null panels calibrate_threshold draws, by its documented seeding."""
        seeds = np.random.SeedSequence(seed).generate_state(runs)
        return [st["vm"].simulate(st["law"], self.horizon, seed=int(s)).values for s in seeds]

    def _check_calibration(self, st, cal, runs, seed) -> list:
        errs = []
        maxima = np.asarray(cal.max_statistics, dtype=float)
        if maxima.shape != (runs,) or not np.all(np.isfinite(maxima)) or np.any(maxima < 0):
            return [f"calibration maxima malformed: {maxima!r}"]
        if cal.threshold != max(oracle.empirical_quantile(maxima, 0.99), THRESHOLD_FLOOR):
            errs.append("threshold is not the 0.99 quantile of the null maxima")
        sample = st["intervals"].intervals[:: self.sample_every]
        for r, values in enumerate(self._null_values(st, runs, seed)):
            for iv in sample:
                v, gap = oracle.lasso_value(values, self.a, iv.start, iv.end, self._lam(iv.length))
                if v > maxima[r] + RTOL * (1.0 + v) + gap:
                    errs.append(f"null run {r}: oracle {v} at [{iv.start}, {iv.end}] exceeds maximum {maxima[r]}")
        return errs

    def _check_scan(self, st, panel, result, threshold) -> list:
        errs = []
        rows = table(result.statistics)
        if len(rows) != len(st["intervals"]):
            return [f"scan returned {len(rows)} statistics for {len(st['intervals'])} intervals"]
        picked = detected(result)
        want = oracle.select(rows, threshold, multiple=True)
        if picked != want:
            errs.append(f"detections {picked} differ from the selection rule's {want}")
        chosen = set(picked)
        for s, e, value, ok in rows[:: self.sample_every] + [r for r in rows if (r[0], r[1]) in chosen]:
            if not ok:
                continue
            v, gap = oracle.lasso_value(panel.values, self.a, s, e, self._lam(e - s + 1))
            if not close(value, v, gap):
                errs.append(f"statistic at [{s}, {e}] is {value}, oracle {v} (gap {gap})")
        return errs

    def reference(self, st):
        rng = np.random.default_rng([REFERENCE_SEED, 1])
        panel = self._panel(st, rng)
        seed = library_seed(REFERENCE_SEED, 2)
        cal = self._calibrate(st, 2, seed)
        result = self._detect(st, panel, cal.threshold)
        found = {
            "maxima": [float(x) for x in cal.max_statistics],
            "threshold": float(cal.threshold),
            "detected": [list(d) for d in detected(result)],
            "detected_values": [float(s.value) for s in result.detected],
        }
        return found, {"panel": panel, "seed": seed, "cal": cal, "result": result}

    def verify_reference(self, st, found, ctx) -> list:
        """Full oracle over every interval of the reference panels."""
        errs = []
        ivs = st["intervals"].intervals
        for r, values in enumerate(self._null_values(st, 2, ctx["seed"])):
            best = max(oracle.lasso_value(values, self.a, iv.start, iv.end, self._lam(iv.length))[0] for iv in ivs)
            if not close(found["maxima"][r], best):
                errs.append(f"null maximum {r}: {found['maxima'][r]} vs oracle {best}")
        values = ctx["panel"].values
        rows = [(iv.start, iv.end, oracle.lasso_value(values, self.a, iv.start, iv.end, self._lam(iv.length))[0], True) for iv in ivs]
        want = oracle.select(rows, found["threshold"], multiple=True)
        if [tuple(d) for d in found["detected"]] != want:
            errs.append(f"reference detections {found['detected']} vs oracle {want}")
        return errs

    def ops(self, st, seed, rounds: int):
        for r in range(rounds):
            held = {}
            for i in range(self.null_runs_per_round):
                cal_seed = library_seed(seed, 2, r, i)

                def calibrate(cal_seed=cal_seed, held=held, i=i):
                    cal = self._calibrate(st, 1, cal_seed)
                    held[i] = float(cal.max_statistics[0])
                    return cal

                yield Op(
                    "null_run", calibrate,
                    lambda cal, cal_seed=cal_seed: self._check_calibration(st, cal, 1, cal_seed),
                    same=lambda x, y: np.array_equal(x.max_statistics, y.max_statistics),
                )

            def threshold(held=held):
                """The round's calibrated threshold: the 0.99 quantile of its null maxima."""
                return max(oracle.empirical_quantile(list(held.values()), 0.99), THRESHOLD_FLOOR)

            for j in range(self.scans_per_round):
                panel = self._panel(st, np.random.default_rng([seed, 1, r, j]))
                yield Op(
                    "scan",
                    lambda panel=panel, threshold=threshold: self._detect(st, panel, threshold()),
                    lambda res, panel=panel, threshold=threshold: self._check_scan(st, panel, res, threshold()),
                    same=lambda x, y: table(x.statistics) == table(y.statistics) and detected(x) == detected(y),
                )

    def summarise(self, records) -> tuple[dict, list]:
        null = [r["seconds"] for r in records if r["kind"] == "null_run"]
        scans = [r["seconds"] for r in records if r["kind"] == "scan"]
        rate = 1.0 / float(np.median(null))
        scan = float(np.median(scans))
        return (
            {"throughput_per_s": rate, "op_p50_ms": 1e3 * scan},
            [
                ("calib_null_runs_per_s", rate, "1/s", f"at the median of {len(null)} null runs"),
                ("detect_scan_s", scan, "s", f"median of {len(scans)} detect_multiple scans"),
            ],
        )


# -- pipeline-ols-p50 ---------------------------------------------------------

class PipelineOls:
    """run_pipeline(stage="detect") with OLS on a p=50, T=4000 CSV panel."""

    name = "pipeline-ols-p50"
    kinds = {"pipeline"}
    p, rows = 50, 4000
    window = (3000, 3150)
    passes = 4
    round_seconds = 2.7  # one panel
    sample_every = 97

    def __init__(self, work_dir: Path):
        self.a, self.inc = dense_law(self.p, 0.6, 10)
        self.work_dir = work_dir
        self.out_dir = work_dir / "pipeline_out"

    def setup(self, vm):
        return {"vm": vm, "config": vm.RunConfig(method="ols", calibration_runs=10)}

    def _write_panel(self, rng, name: str):
        values = var_path(self.a, self.inc, (self.window,), self.rows, rng)
        path = self.work_dir / name
        np.savetxt(path, values, delimiter=",", fmt="%.17g")
        return values, path

    def _run(self, st, path):
        return st["vm"].run_pipeline(st["config"], path, self.out_dir, stage="detect")

    def _slices(self, values):
        n_train = int(self.rows * 0.25)
        n_cal = int(self.rows * 0.25)
        return values[:n_train], values[n_train + n_cal :]

    def _oracle_baseline(self, train):
        """Ridge baseline with the library's default penalty, solved directly."""
        n = train.shape[0]
        lam = 0.15 * math.sqrt(n * (2.0 * math.log(self.p) + math.log(n)))
        z, y = train[:-1], train[1:]
        return np.linalg.solve(z.T @ z + lam * np.eye(self.p), z.T @ y).T

    def _check(self, values, run) -> list:
        errs = []
        train, test = self._slices(values)
        theta = self._oracle_baseline(train)
        if not np.allclose(run.baseline, theta, rtol=RTOL, atol=RTOL):
            errs.append("baseline differs from the direct ridge solve")
        maxima = np.asarray(run.calibration.max_statistics, dtype=float)
        if maxima.shape != (10,) or not np.all(np.isfinite(maxima)):
            errs.append("calibration maxima malformed")
        elif run.calibration.threshold != max(oracle.empirical_quantile(maxima, 0.99), THRESHOLD_FLOOR):
            errs.append("threshold is not the 0.99 quantile of the null maxima")
        rows = table(run.detection.statistics)
        picked = detected(run.detection)
        want = oracle.select(rows, run.calibration.threshold, multiple=False)
        if picked != want:
            errs.append(f"detections {picked} differ from the selection rule's {want}")
        chosen = set(picked)
        for s, e, value, ok in rows[:: self.sample_every] + [r for r in rows if (r[0], r[1]) in chosen]:
            v = oracle.ols_value(test, run.baseline, s, e)
            if ok and not close(value, v):
                errs.append(f"statistic at [{s}, {e}] is {value}, oracle {v}")
        if run.manifest.get("threshold") != run.calibration.threshold:
            errs.append("manifest threshold differs from the calibration")
        return errs

    def reference(self, st):
        values, path = self._write_panel(np.random.default_rng([REFERENCE_SEED, 3]), "reference.csv")
        run = self._run(st, path)
        found = {
            "maxima": [float(x) for x in run.calibration.max_statistics],
            "threshold": float(run.calibration.threshold),
            "detected": [list(d) for d in detected(run.detection)],
            "detected_values": [float(s.value) for s in run.detection.detected],
        }
        return found, {"values": values, "run": run}

    def verify_reference(self, st, found, ctx) -> list:
        """Oracle over every test interval and every calibration null panel."""
        vm = st["vm"]
        values, run = ctx["values"], ctx["run"]
        errs = self._check(values, run)
        train, test = self._slices(values)
        theta = self._oracle_baseline(train)
        rows = [(s, e, oracle.ols_value(test, theta, s, e), True) for s, e, _, _ in table(run.detection.statistics)]
        want = oracle.select(rows, found["threshold"], multiple=False)
        if [tuple(d) for d in found["detected"]] != want:
            errs.append(f"reference detections {found['detected']} vs oracle {want}")
        law = vm.VarParams.from_stacked(run.baseline, np.eye(self.p), 1)
        cal_rows = int(self.rows * 0.25)
        cal_ivs = vm.seeded_intervals(cal_rows, self.p + 1, 1 / 1.1, q=1)
        seeds = np.random.SeedSequence(st["config"].seed + 2).generate_state(10)
        for r, s in enumerate(seeds):
            null = vm.simulate(law, cal_rows, seed=int(s)).values
            best = max(oracle.ols_value(null, run.baseline, iv.start, iv.end) for iv in cal_ivs)
            if not close(found["maxima"][r], best):
                errs.append(f"calibration maximum {r}: {found['maxima'][r]} vs oracle {best}")
        return errs

    def ops(self, st, seed, rounds: int) -> list:
        out = []
        for r in range(rounds):
            values, path = self._write_panel(np.random.default_rng([seed, 3, r]), f"panel-{r}.csv")
            out.append(Op(
                "pipeline",
                lambda path=path: self._run(st, path),
                lambda run, values=values: self._check(values, run),
                same=lambda x, y: table(x.detection.statistics) == table(y.detection.statistics)
                and x.calibration.threshold == y.calibration.threshold,
            ))
        return out

    def summarise(self, records) -> tuple[dict, list]:
        times = [r["seconds"] for r in records if r["kind"] == "pipeline"]
        median = float(np.median(times))
        return (
            {"throughput_per_s": 1.0 / median, "op_p50_ms": 1e3 * median},
            [("pipeline_s", median, "s", f"median of {len(times)} run_pipeline calls")],
        )


# -- online-p10 ---------------------------------------------------------------

class OnlineReplay:
    """Online calibration on null streams, then monitoring of anomalous streams."""

    name = "online-p10"
    kinds = {"null_stream", "monitor"}
    p, null_length, onset, stream_length = 10, 768, 768, 1024
    null_per_round = 4
    monitor_per_round = 4
    passes = 10
    round_seconds = 2.6
    sample_times = (128, 512, 768)

    def __init__(self):
        self.a, self.inc = dense_law(self.p, 0.6, 5)

    def setup(self, vm):
        lam = vm.default_lambda(2, self.p, 1024, 3.0)
        return {"vm": vm, "lam": lam}

    def _wlam(self, st, length: int) -> float:
        return st["lam"] * math.sqrt(length / 2.0)

    def _null_stream(self, rng):
        return var_path(self.a, self.inc, (), self.null_length, rng)

    def _anomalous_stream(self, rng):
        return var_path(self.a, self.inc, ((self.onset, self.stream_length),), self.stream_length, rng)

    def _null_max(self, st, values):
        return st["vm"].detection.online_max_statistic(
            values, self.a, 1, st["lam"], lambda_policy="interval_sqrt"
        )

    def _null_replay(self, st, values):
        """The loop of online_max_statistic, driven from here so each step is timed.

        Returns the stream's maximum window statistic and every step's time.
        """
        detector = st["vm"].OnlineDetector(self.a, 1, st["lam"], np.inf, lambda_policy="interval_sqrt")
        latencies = []
        best = 0.0
        for x in values:
            t0 = perf_counter()
            stats = detector.step(x)
            latencies.append(perf_counter() - t0)
            for stat in stats:
                if stat.value > best:
                    best = stat.value
        return best, latencies

    def _monitor(self, st, values, threshold):
        detector = st["vm"].OnlineDetector(self.a, 1, st["lam"], threshold, lambda_policy="interval_sqrt")
        latencies = []
        alarm = None
        for x in values:
            t0 = perf_counter()
            alarm = detector.update(x)
            latencies.append(perf_counter() - t0)
            if alarm is not None:
                break
        return alarm, latencies

    def _check_null(self, st, values, best) -> list:
        if not (math.isfinite(best) and best >= 0):
            return [f"null maximum malformed: {best}"]
        errs = []
        called = float(self._null_max(st, values))
        if called != best:
            errs.append(f"online_max_statistic gives {called}, its step loop {best}")
        for t in self.sample_times:
            for s, e in oracle.online_windows(t):
                if s < 2:
                    continue
                v, gap = oracle.lasso_value(values, self.a, s, e, self._wlam(st, e - s + 1))
                if v > best + RTOL * (1.0 + v) + gap:
                    errs.append(f"window [{s}, {e}]: oracle {v} exceeds the stream maximum {best}")
        return errs

    def _check_monitor(self, st, values, out, threshold) -> list:
        alarm, latencies = out
        if alarm is None:
            return [] if len(latencies) == len(values) else ["monitor stopped without an alarm"]
        errs = []
        if alarm.time != len(latencies):
            errs.append(f"alarm at t={alarm.time} after {len(latencies)} updates")
        t = alarm.time
        for s, e in oracle.online_windows(t):
            if s < 2:
                continue
            v, gap = oracle.lasso_value(values, self.a, s, e, self._wlam(st, e - s + 1))
            if (s, e) == (alarm.window.start, alarm.window.end):
                if not close(alarm.statistic, v, gap) or v + gap + RTOL * (1.0 + v) <= threshold:
                    errs.append(f"alarm statistic {alarm.statistic}, oracle {v}, threshold {threshold}")
                break
            if v > threshold + RTOL * (1.0 + v):
                errs.append(f"window [{s}, {e}] exceeds the threshold before the alarm window")
                break
        else:
            errs.append(f"alarm window {alarm.window} is not a window at t={t}")
        return errs

    def reference(self, st):
        nulls = [self._null_stream(np.random.default_rng([REFERENCE_SEED, 4, i])) for i in range(2)]
        maxima = [float(self._null_max(st, v)) for v in nulls]
        threshold = max(max(maxima), THRESHOLD_FLOOR)
        stream = self._anomalous_stream(np.random.default_rng([REFERENCE_SEED, 5]))
        alarm, latencies = self._monitor(st, stream, threshold)
        found = {
            "maxima": maxima,
            "threshold": threshold,
            "alarm_time": None if alarm is None else alarm.time,
            "alarm_window": None if alarm is None else [alarm.window.start, alarm.window.end],
            "alarm_statistic": None if alarm is None else float(alarm.statistic),
        }
        return found, {"nulls": nulls, "stream": stream}

    def verify_reference(self, st, found, ctx) -> list:
        """Oracle over every (time, window) pair of the reference streams."""
        errs = []
        for i, values in enumerate(ctx["nulls"]):
            best = 0.0
            for t in range(11, len(values) + 1):
                for s, e in oracle.online_windows(t):
                    if s >= 2:
                        best = max(best, oracle.lasso_value(values, self.a, s, e, self._wlam(st, e - s + 1))[0])
            if not close(found["maxima"][i], best):
                errs.append(f"null maximum {i}: {found['maxima'][i]} vs oracle {best}")
        stream, alarm = ctx["stream"], None
        for t in range(11, len(stream) + 1):
            for s, e in oracle.online_windows(t):
                if s >= 2:
                    v = oracle.lasso_value(stream, self.a, s, e, self._wlam(st, e - s + 1))[0]
                    if v > found["threshold"]:
                        alarm = (t, [s, e])
                        break
            if alarm:
                break
        got = None if found["alarm_time"] is None else (found["alarm_time"], found["alarm_window"])
        if got != alarm:
            errs.append(f"reference alarm {got} vs oracle {alarm}")
        return errs

    def ops(self, st, seed, rounds: int):
        for r in range(rounds):
            held = {}
            for i in range(self.null_per_round):
                values = self._null_stream(np.random.default_rng([seed, 4, r, i]))

                def null_run(values=values, held=held, i=i):
                    out = self._null_replay(st, values)
                    held[i] = float(out[0])
                    return out

                yield Op(
                    "null_stream", null_run,
                    lambda out, values=values: self._check_null(st, values, out[0]),
                    units=len(values), same=lambda x, y: x[0] == y[0],
                    latencies=lambda out: out[1],
                )
            for i in range(self.monitor_per_round):
                values = self._anomalous_stream(np.random.default_rng([seed, 5, r, i]))

                def threshold(held=held):
                    return max(oracle.empirical_quantile(list(held.values()), 0.99), THRESHOLD_FLOOR)

                yield Op(
                    "monitor",
                    lambda values=values, threshold=threshold: self._monitor(st, values, threshold()),
                    lambda out, values=values, threshold=threshold: self._check_monitor(st, values, out, threshold()),
                    units=lambda out: len(out[1]),
                    same=lambda x, y: _alarm_key(x[0]) == _alarm_key(y[0]),
                    latencies=lambda out: out[1],
                )

    def summarise(self, records) -> tuple[dict, list]:
        # Each step's time is its fastest pass. Steps that solve non-zero
        # windows take milliseconds and are the ones a slow phase of a shared
        # machine stretches most, so the bounded rate is taken at the median
        # step, like the other workloads' rates at the median operation; the
        # mean-based rate is printed beside it.
        steps = np.concatenate([r["latencies"] for r in records])
        rate = 1.0 / float(np.median(steps))
        mean_rate = steps.size / float(steps.sum())
        lat = np.concatenate([r["latencies"] for r in records if r["kind"] == "monitor"]) * 1e3
        p50, p99 = np.percentile(lat, [50, 99])
        return (
            {"throughput_per_s": rate, "op_p50_ms": float(p50)},
            [
                ("online_obs_per_s", rate, "1/s", f"at the median of {steps.size} null and monitor steps"),
                ("online_obs_per_s_mean", mean_rate, "1/s", f"all steps of {len(records)} streams over their total time"),
                ("online_step_p50_ms", float(p50), "ms", f"{lat.size} monitor updates"),
                ("online_step_p99_ms", float(p99), "ms", f"{lat.size} monitor updates"),
            ],
        )


def _alarm_key(alarm):
    return None if alarm is None else (alarm.time, alarm.window.start, alarm.window.end, alarm.statistic)
