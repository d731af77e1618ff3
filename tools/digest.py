"""Fixed-seed digests of varanom's results, to show that a change is bitwise.

    python3 tools/digest.py [--save FILE] [--against FILE]

Prints one SHA-256 per item, then a total over the items. Every input is
drawn from fixed seeds, so two source trees that compute bitwise the same
results print the same lines. To check a change, run the script in a copy
of the parent commit (``git archive``) and in the change, and compare. The
library is imported from ``src/`` of the checkout the script lives in.

A digest shows only that something changed. ``--save FILE`` also writes
every item's raw result arrays to FILE (``.npz``), and ``--against FILE``
compares this run's arrays with the saved ones: for each item it prints
"bitwise", or, for each field that differs, the largest relative
difference and the count of entries that differ (for an ``errors/*``
item, the saved outcome and this run's), and then whether the
thresholds, the detections and the online alarms are identical. So, with
this script copied into the parent's checkout::

    python3 <parent>/tools/digest.py --save parent.npz
    python3 tools/digest.py --against parent.npz

Items:

* ``scan/<method>-<lambda_scale>/<policy>/<sigma>/q<q>``: the columns
  (start, end, value, lambda, nonzero, reliable) of ``PanelScanner.scan``
  for OLS and for lasso at a penalty scale that screens no interval and at
  one that screens some, under the three penalty policies, unwhitened and
  whitened by a non-identity sigma, at q = 1 and q = 2;
* ``scanner/interleaved``: every array of a fixed sequence of requests on
  one ``PanelScanner`` at p = 5: a lasso ``max_statistic``, an OLS
  ``scan``, the Gram and cross blocks of three one-interval walks, a lasso
  ``scan``, a ``_refill`` from a second panel of the same shape, a lasso
  ``max_statistic`` and one more one-interval walk, so that each request
  follows one that held or walked other prefix rows;
* ``calibration/<case>``: ``calibrate_threshold`` maxima, threshold and the
  unreliable and pruned counts at p = 10, T = 500 over 1078 seeded
  intervals, for the three lasso policies, a whitened case, a 20-sweep
  budget and OLS, and at q = 2 for p = 3;
* ``detect/bracketed/<policy>/<selection>``: the picks (start, end,
  value) of lasso ``detect_single`` and ``detect_multiple`` and the
  ``upper`` and ``solved`` columns of their bracketed scans, on a
  two-anomaly panel of the calibration items' law and set, under the three
  policies, each at the threshold of its ``calibration/lasso/<policy>``
  item, so that a change to which rows are solved in full shows here;
* ``online/max`` and ``online/alarms``: ``online_max_statistic`` of null
  streams and the ``detect_online`` alarms of streams with a change, under
  the three policies and a whitening sigma, at p = 6 and T = 200, where a
  stream's windows fit one kernel chunk;
* ``online/max-chunks``: ``online_max_statistic`` of p = 20, T = 400 null
  streams under the three policies, unwhitened and whitened, whose
  windows span 9 kernel chunks, so that each chunk's maximum starts from
  the best value of the chunks before it;
* ``online/alarms-chunks``: the ``detect_online`` alarms of p = 20,
  T = 400 streams with a change, in the same cases, at a threshold just
  above each case's null maxima, so that the walk for an alarm passes
  several kernel chunks before the one that holds it;
* ``duplicates/<method>/<selection>``: the picks of ``detect_single`` and
  ``detect_multiple`` and the bytes of their ``DetectionResult.to_csv``,
  over a ``random_intervals`` set that holds duplicated intervals, for
  lasso under interval_linear and for OLS at p = 5, at the median
  statistic as threshold, so that many rows tie with a duplicate;
* ``pipeline/<case>/<file>``: the bytes of a small ``run_pipeline`` detect
  run's CSV files and of its ``manifest.json`` without the ``data_path``
  field, for lasso under global and (with an estimated sigma)
  interval_linear, and for OLS;
* ``cli/<command>``: for ``detect`` and ``calibrate``, the ``--help`` text
  (every flag string and its choices) and, as JSON, the
  ``RunConfig.to_dict()`` that the CLI builds from fixed argument lists:
  no flags, every option and switch, each switch alone, and a config file
  with flags that override some of its values;
* ``errors/<rule>``: for each input rule (a p x pq baseline, a non-negative
  penalty, an observation row, a positive threshold, the online options, a
  quantile, an interval length, burn_in, an anomaly window, a count, a
  decay, the usable domain, an enumerated option, a covariance, the
  penalty rate's scale, the baseline's own penalty, an OLS interval's row
  count, a selection threshold, NaN or negative CLI options, and the CLI's
  baseline penalty, ``--sigma`` and ``evaluate`` inputs), the outcome of
  a fixed list of bad calls, one field per call: the exception's type and
  message, "returned" if the call did not raise, and for a CLI call its
  exit code and standard error (or the exception it let escape). A changed
  message shows as a changed field.
  No call takes a NaN interval length: before that rule rejected NaN,
  ``seeded_intervals`` looped on it without end.

It takes about 9 s on a 2-vCPU machine.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from varanom import (  # noqa: E402
    AnomalyScenario,
    Interval,
    IntervalSet,
    OnlineDetector,
    RunConfig,
    SolverOptions,
    StatConfig,
    TimeSeriesPanel,
    VarParams,
    build_regression_view,
    calibrate_threshold,
    detect_multiple,
    detect_online,
    detect_single,
    estimate_baseline,
    generate_dense_stationary,
    lasso_solve,
    lasso_statistic,
    ols_statistic,
    random_intervals,
    run_pipeline,
    save_panel,
    seeded_intervals,
    simulate,
    simulate_episodes,
    whiten,
)
from varanom import experiments  # noqa: E402
from varanom.cli import _load_config, build_parser, main as cli_main  # noqa: E402
from varanom.detection import empirical_quantile, online_max_statistic, select_multiple, select_single  # noqa: E402
from varanom.interval_stats import LAMBDA_POLICIES, PanelScanner, _unpack_gram, default_lambda  # noqa: E402
from varanom.intervals import build_intervals  # noqa: E402


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _item(**fields) -> tuple[str, dict]:
    """(digest, fields) of an item whose digest covers its fields in order."""
    fields = {name: np.asarray(a) for name, a in fields.items()}
    return _sha(*fields.values()), fields


def _covariance(p: int, seed: int) -> np.ndarray:
    a = np.random.default_rng(seed).standard_normal((p, p))
    return 0.2 * (a @ a.T) + 0.5 * np.eye(p)


def _law(p: int, q: int, seed: int, cov: np.ndarray | None = None) -> VarParams:
    a = generate_dense_stationary(p, seed=seed).coeffs[0]
    return VarParams((a / q,) * q, np.eye(p) if cov is None else cov)


def scans() -> dict[str, tuple[str, dict]]:
    out = {}
    for q in (1, 2):
        law = _law(5, q, seed=11, cov=_covariance(5, 12))
        panel = simulate(law, 300, seed=13)
        ivs = seeded_intervals(300, 5 * q + 2, 1 / 1.2, q=q)
        scanner = PanelScanner(panel, law.stacked, q)
        starts = np.array([iv.start for iv in ivs.intervals])
        ends = np.array([iv.end for iv in ivs.intervals])
        for method, scale in (("lasso", 0.15), ("lasso", 2.0), ("ols", 0.15)):
            for policy in LAMBDA_POLICIES:
                for name, sigma in (("none", None), ("sigma", law.noise_cov)):
                    config = StatConfig(method, scale, sigma, lambda_policy=policy)
                    stats = scanner.scan(ivs, config)
                    out[f"scan/{method}-{scale}/{policy}/{name}/q{q}"] = _item(
                        start=starts, end=ends,
                        value=np.array([s.value for s in stats], dtype=float),
                        lam=np.array([s.lam for s in stats], dtype=float),
                        nonzero=np.array([s.nonzero for s in stats], dtype=np.int64),
                        reliable=np.array([s.reliable for s in stats], dtype=bool),
                    )
    return out


def _walked_blocks(scanner: PanelScanner, start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gram and cross-product blocks of [start, end], unwhitened, from a
    walk of that one interval through the scanner's pool."""
    lo, hi = np.array([start - scanner.q - 1]), np.array([end - scanner.q])
    for _, (a,), (b,) in scanner._walk(lo, hi, 1):
        gram = _unpack_gram(scanner._gram_prefix[b] - scanner._gram_prefix[a])
        cross = scanner._cross_prefix[b] - scanner._cross_prefix[a]
    return gram, cross


def interleaved() -> dict[str, tuple[str, dict]]:
    law = _law(5, 1, seed=61, cov=_covariance(5, 62))
    first, second = (simulate(law, 300, seed=seed) for seed in (63, 64))
    ivs = seeded_intervals(300, 7, 1 / 1.2, q=1)
    lasso = StatConfig(lambda_policy="interval_linear", sigma=law.noise_cov)
    ols = StatConfig(method="ols")
    columns = ("values", "lams", "nonzero", "reliable")
    scanner = PanelScanner(first, law.stacked, 1)
    fields = {"max": np.array(scanner.max_statistic(ivs, lasso), dtype=float)}
    stats = scanner.scan(ivs, ols)
    fields.update({f"ols_{c}": getattr(stats, c) for c in columns})
    for k, (start, end) in enumerate(((2, 40), (100, 180), (250, 300))):
        fields[f"gram{k}"], fields[f"cross{k}"] = _walked_blocks(scanner, start, end)
    stats = scanner.scan(ivs, lasso)
    fields.update({f"lasso_{c}": getattr(stats, c) for c in columns})
    scanner._refill(second)
    fields["refilled_max"] = np.array(scanner.max_statistic(ivs, lasso), dtype=float)
    fields["refilled_gram"], fields["refilled_cross"] = _walked_blocks(scanner, 60, 150)
    return {"scanner/interleaved": _item(**fields)}


def _calibration(cal) -> tuple[str, dict]:
    summary = np.array([cal.threshold, cal.unreliable, cal.pruned], dtype=float)
    fields = {"maxima": np.asarray(cal.max_statistics)}
    fields.update(zip(("threshold", "unreliable", "pruned"), summary[:, None]))
    return _sha(fields["maxima"], summary), fields


def _p10() -> tuple[VarParams, IntervalSet]:
    """The p = 10 law and the seeded set over T = 500 of the calibration and
    bracketed-detection items."""
    rng = np.random.default_rng(21)
    a = rng.uniform(-1.0, 1.0, size=(10, 10))
    a *= 0.7 / np.max(np.abs(np.linalg.eigvals(a)))
    return VarParams((a,), np.eye(10)), seeded_intervals(500, 11, 1 / 1.1, q=1)


def calibrations() -> dict[str, tuple[str, dict]]:
    law, ivs = _p10()
    cases = {f"lasso/{policy}": StatConfig(lambda_policy=policy) for policy in LAMBDA_POLICIES}
    cases["lasso/interval_linear/sigma"] = StatConfig(
        lambda_policy="interval_linear", sigma=_covariance(10, 22)
    )
    cases["lasso/global/20-sweeps"] = StatConfig(solver=SolverOptions(max_iterations=20))
    cases["ols"] = StatConfig(method="ols")
    out = {}
    for name, config in cases.items():
        cal = calibrate_threshold(law, ivs, config, runs=10, seed=23)
        out[f"calibration/{name}"] = _calibration(cal)
    small = _law(3, 2, seed=24)
    cal = calibrate_threshold(
        small, seeded_intervals(160, 8, 1 / 1.1, q=2),
        StatConfig(lambda_policy="interval_linear", lambda_scale=0.1), runs=10, seed=25,
    )
    out["calibration/lasso/q2"] = _calibration(cal)
    return out


def online() -> dict[str, tuple[str, dict]]:
    p, horizon = 6, 400
    base = generate_dense_stationary(p, seed=31)
    theta = np.zeros((p, p))
    theta[np.arange(p), np.arange(p)[::-1]] = 0.35
    cov = _covariance(p, 32)
    maxima, alarms = [], []
    for policy, scale in (("global", 1.0), ("interval_sqrt", 2.0), ("interval_linear", 0.5)):
        lam = default_lambda(2, p, horizon, scale)
        for sigma in (None, cov):
            for r in range(3):
                null = simulate(base, 200, seed=100 + r).values
                maxima.append(online_max_statistic(
                    null, base.stacked, 1, lam, sigma=sigma, lambda_policy=policy
                ))
            threshold = max(maxima[-3:]) + 1e-9
            for r in range(3):
                stream = simulate_episodes(base, [((200, horizon - 1), theta)], horizon, seed=200 + r)
                alarm = detect_online(
                    stream.values, base.stacked, 1, lam, threshold, sigma=sigma, lambda_policy=policy
                )
                alarms.append((-1, -1, -1, np.nan) if alarm is None else (
                    alarm.time, alarm.window.start, alarm.window.end, alarm.statistic
                ))
    alarms = np.array(alarms, dtype=float)
    return {
        "online/max": _item(maxima=np.array(maxima, dtype=float)),
        "online/alarms": (
            _sha(alarms), dict(zip(("time", "start", "end", "statistic"), alarms.T))
        ),
        **online_chunks(),
    }


def online_chunks() -> dict[str, tuple[str, dict]]:
    """``online_max_statistic`` of p = 20, T = 400 null streams, whose 2679
    windows span 9 kernel chunks of 327, and the ``detect_online`` alarms of
    streams of the same shape with a change from time 200, each at a
    threshold just above its case's two null maxima."""
    p, horizon = 20, 400
    base = generate_dense_stationary(p, seed=41)
    theta = np.zeros((p, p))
    theta[np.arange(p), np.arange(p)[::-1]] = 0.2
    cov = _covariance(p, 42)
    maxima, alarms = [], []
    for policy, scale in (("global", 0.5), ("interval_sqrt", 1.0), ("interval_linear", 0.3)):
        lam = default_lambda(2, p, horizon, scale)
        for sigma in (None, cov):
            for r in range(2):
                null = simulate(base, horizon, seed=300 + r).values
                maxima.append(online_max_statistic(null, base.stacked, 1, lam, sigma=sigma, lambda_policy=policy))
            threshold = max(maxima[-2:]) + 1e-9
            for r in range(2):
                stream = simulate_episodes(base, [((200, horizon - 1), theta)], horizon, seed=400 + r)
                alarm = detect_online(
                    stream.values, base.stacked, 1, lam, threshold, sigma=sigma, lambda_policy=policy
                )
                alarms.append((-1, -1, -1, np.nan) if alarm is None else (
                    alarm.time, alarm.window.start, alarm.window.end, alarm.statistic
                ))
    alarms = np.array(alarms, dtype=float)
    return {
        "online/max-chunks": _item(maxima=np.array(maxima, dtype=float)),
        "online/alarms-chunks": (
            _sha(alarms), dict(zip(("time", "start", "end", "statistic"), alarms.T))
        ),
    }


def bracketed() -> dict[str, tuple[str, dict]]:
    law, ivs = _p10()
    theta = experiments.sparse_increment(law.coeffs[0], 0.6, 5)
    panel = simulate_episodes(law, [((133, 166), theta), ((333, 366), theta)], 500, seed=26)
    out = {}
    for policy in LAMBDA_POLICIES:
        config = StatConfig(lambda_policy=policy)
        threshold = calibrate_threshold(law, ivs, config, runs=10, seed=23).threshold
        for name, detect in (("single", detect_single), ("multiple", detect_multiple)):
            result = detect(panel, law.stacked, ivs, config, threshold)
            out[f"detect/bracketed/{policy}/{name}"] = _item(
                start=np.array([s.interval.start for s in result.detected], dtype=np.int64),
                end=np.array([s.interval.end for s in result.detected], dtype=np.int64),
                value=np.array([s.value for s in result.detected], dtype=float),
                upper=result.statistics.upper,
                solved=result.statistics.solved,
            )
    return out


def duplicates() -> dict[str, tuple[str, dict]]:
    law = _law(5, 1, seed=51)
    theta = np.zeros((5, 5))
    theta[0, 1] = theta[3, 2] = 0.6
    panel = simulate_episodes(law, [((90, 130), theta)], 200, seed=52)
    ivs = random_intervals(200, 8, 1000, seed=53, q=1)
    assert len(set(ivs.intervals)) < len(ivs)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "statistics.csv"
        for method, config in (
            ("lasso", StatConfig(lambda_policy="interval_linear")), ("ols", StatConfig(method="ols"))
        ):
            stats = PanelScanner(panel, law.stacked, 1).scan(ivs, config)
            threshold = float(np.median([s.value for s in stats]))
            for name, detect in (("single", detect_single), ("multiple", detect_multiple)):
                result = detect(panel, law.stacked, ivs, config, threshold)
                result.to_csv(path)
                out[f"duplicates/{method}/{name}"] = _item(
                    start=np.array([s.interval.start for s in result.detected], dtype=np.int64),
                    end=np.array([s.interval.end for s in result.detected], dtype=np.int64),
                    value=np.array([s.value for s in result.detected], dtype=float),
                    csv=np.frombuffer(path.read_bytes(), dtype=np.uint8),
                )
    return out


def _file_fields(path: Path, body: bytes) -> dict:
    """A pipeline file's raw fields: its bytes, and for a CSV file each column
    as floats, named by its header (``col<i>`` without one); for the manifest,
    its threshold."""
    fields = {"bytes": np.frombuffer(body, dtype=np.uint8)}
    if path.suffix == ".json":
        fields["threshold"] = np.array([json.loads(body)["threshold"]], dtype=float)
        return fields
    rows = list(csv.reader(body.decode().splitlines()))
    try:
        float(rows[0][0])
        names = [f"col{i}" for i in range(len(rows[0]))]
    except ValueError:
        names, rows = rows[0], rows[1:]
    columns = np.array(rows, dtype=float).reshape(len(rows), len(names)).T
    fields.update(zip(names, columns))
    return fields


def pipelines() -> dict[str, tuple[str, dict]]:
    law = generate_dense_stationary(6, seed=41)
    theta = np.zeros((6, 6))
    theta[0, 1] = theta[2, 3] = theta[4, 5] = 0.5
    panel = simulate_episodes(law, [((700, 760), theta)], 900, seed=42)
    cases = {
        "lasso-global": RunConfig(count=200, calibration_runs=10, multiple=True),
        "lasso-linear-sigma": RunConfig(
            count=200, calibration_runs=10, lambda_policy="interval_linear", sigma_mode="estimated"
        ),
        "ols": RunConfig(method="ols", count=200, calibration_runs=10, multiple=True),
    }
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "panel.csv"
        save_panel(panel, data)
        for name, config in cases.items():
            run_dir = Path(tmp) / name
            run_pipeline(config, data, run_dir)
            for path in sorted(run_dir.iterdir()):
                if path.name == "manifest.json":
                    manifest = json.loads(path.read_text())
                    manifest.pop("data_path")
                    body = json.dumps(manifest, sort_keys=True).encode()
                else:
                    body = path.read_bytes()
                out[f"pipeline/{name}/{path.name}"] = (
                    hashlib.sha256(body).hexdigest(), _file_fields(path, body)
                )
    return out


def _help_text(command: str) -> bytes:
    out = io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "100"  # argparse wraps help to the terminal's width
    try:
        with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):
            build_parser().parse_args([command, "--help"])
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return out.getvalue().encode()


def cli() -> dict[str, tuple[str, dict]]:
    every = [
        "--q", "2", "--method", "ols", "--scheme", "random", "--count", "50", "--decay", "0.8",
        "--min-length", "30", "--lambda-scale", "0.5", "--lambda-policy", "interval_sqrt",
        "--sigma-mode", "estimated", "--quantile", "0.95", "--calibration-runs", "20",
        "--baseline-penalty", "lasso", "--seed", "7", "--difference", "--multiple", "--has-header",
    ]
    file_values = {
        "method": "ols", "min_length": 30, "multiple": True, "q": 3, "splits": [0.3, 0.3, 0.4],
        "baseline_lambda": 2.5, "burn_in": 50, "delimiter": ";", "lambda_policy": "interval_linear",
    }
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(file_values))
        cases = {
            "none": [], "every": every, "difference": ["--difference"],
            "multiple": ["--multiple"], "has-header": ["--has-header"],
            "file": ["--config", str(config), "--q", "2", "--seed", "4", "--has-header"],
        }
        for command in ("detect", "calibrate"):
            fields = {"help": np.frombuffer(_help_text(command), dtype=np.uint8)}
            for case, flags in cases.items():
                args = build_parser().parse_args([command, "--data", "d", "--out-dir", "o", *flags])
                body = json.dumps(_load_config(args).to_dict(), sort_keys=True).encode()
                fields[f"config/{case}"] = np.frombuffer(body, dtype=np.uint8)
            out[f"cli/{command}"] = _item(**fields)
    return out


def _outcome(call) -> bytes:
    """What ``call()`` does with a bad input: its exception's type and message,
    or "returned"."""
    try:
        call()
    except Exception as exc:  # recorded, whatever it is
        return f"{type(exc).__name__}: {exc}".encode()
    return b"returned"


def _cli_outcome(argv: list[str], tmp: str = "") -> bytes:
    """Exit code and standard error of the CLI on ``argv``, with ``tmp``, a
    temporary directory, shown as "TMP"; standard output, which names
    temporary paths, is dropped. An exception the CLI lets escape, which a
    console shows as a traceback, is recorded by its type and message."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except Exception as exc:  # recorded, whatever it is
            code = f"uncaught {type(exc).__name__}: {exc}"
    text = f"exit {code}: {err.getvalue()}"
    return (text.replace(tmp, "TMP") if tmp else text).encode()


def errors() -> dict[str, tuple[str, dict]]:
    nan = float("nan")
    law = generate_dense_stationary(3, seed=61)
    panel = simulate(law, 60, seed=62)
    base, values, config = law.stacked, panel.values, StatConfig()
    ivs = seeded_intervals(60, 5, 1 / 1.2, q=1)
    view = build_regression_view(panel, base, 10, 30, 1)
    zeros = np.zeros((3, 3))
    outside = IntervalSet((Interval(20, 30), Interval(50, 61)), 5, (0, 100))
    rows = values[:20].copy()
    rows[3, 1] = nan
    scan = PanelScanner(panel, base, 1).scan(ivs, config)
    ols = StatConfig(method="ols")
    study = dict(p=3, horizon=60, n_change=2, runs=1, calibration_runs=1, min_length=5, count=10)

    def short(n):  # a valid OLS interval, then one of n rows
        return IntervalSet((Interval(20, 30), Interval(40, 39 + n)), 1, (2, 60))

    cases = {
        "baseline": {
            "PanelScanner": lambda b: PanelScanner(panel, b, 1),
            "build_regression_view": lambda b: build_regression_view(panel, b, 5, 20, 1),
            "detect_single": lambda b: detect_single(panel, b, ivs, config, 5.0),
            "calibrate_threshold": lambda b: calibrate_threshold(law, ivs, config, runs=1, baseline=b),
            "AnomalyScenario": lambda b: AnomalyScenario(law, b, (20, 30), 60),
            "VarParams.from_stacked": lambda b: VarParams.from_stacked(b, np.eye(3), 1),
            "OnlineDetector": lambda b: OnlineDetector(b, 1, 1.0, 5.0),
            "detect_online": lambda b: detect_online(values, b, 1, 1.0, 5.0),
            "online_max_statistic": lambda b: online_max_statistic(values, b, 1, 1.0),
        },
        "penalty": {
            "StatConfig": lambda v: StatConfig(lambda_scale=v),
            "RunConfig": lambda v: RunConfig(lambda_scale=v),
            "default_lambda": lambda v: default_lambda(2, 3, 60, v),
            "lasso_statistic": lambda v: lasso_statistic(view, v),
            "lasso_solve": lambda v: lasso_solve(view.lagged, view.residuals[:, 0], v),
            "SolverOptions": lambda v: SolverOptions(tolerance=v),
            "OnlineDetector": lambda v: OnlineDetector(base, 1, v, 5.0),
            "detect_online": lambda v: detect_online(values, base, 1, v, 50.0),
            "online_max_statistic": lambda v: online_max_statistic(values, base, 1, v),
        },
        "rows": {
            "OnlineDetector.step": lambda r: OnlineDetector(base, 1, 1.0, 5.0).step(r[3]),
            "OnlineDetector.update": lambda r: OnlineDetector(base, 1, 1.0, 5.0).update(r[3]),
            "detect_online": lambda r: detect_online(r, base, 1, 1.0, 1e12),
            "online_max_statistic": lambda r: online_max_statistic(r, base, 1, 1.0),
        },
        "threshold": {
            "detect_single": lambda v: detect_single(panel, base, ivs, config, v),
            "detect_multiple": lambda v: detect_multiple(panel, base, ivs, config, v),
            "OnlineDetector": lambda v: OnlineDetector(base, 1, 1.0, v),
            "detect_online": lambda v: detect_online(values, base, 1, 1.0, v),
        },
        "online-options": {
            "StatConfig": lambda kw: StatConfig(**kw),
            "OnlineDetector": lambda kw: OnlineDetector(base, 1, 1.0, 5.0, **kw),
            "detect_online": lambda kw: detect_online(values, base, 1, 1.0, 5.0, **kw),
            "online_max_statistic": lambda kw: online_max_statistic(values, base, 1, 1.0, **kw),
        },
        "quantile": {
            "empirical_quantile": lambda v: empirical_quantile([1.0, 2.0], v),
            "calibrate_threshold": lambda v: calibrate_threshold(law, ivs, config, runs=3, quantile=v),
            "RunConfig": lambda v: RunConfig(quantile=v),
            "run_single_anomaly_study": lambda v: experiments.run_single_anomaly_study(
                p=3, horizon=60, n_change=2, runs=1, calibration_runs=1, min_length=5, count=10,
                quantile=v,
            ),
            "run_two_anomaly_study": lambda v: experiments.run_two_anomaly_study(
                p=3, horizon=60, n_change=2, windows=((10, 20), (35, 45)), runs=1,
                calibration_runs=1, min_length=5, quantile=v,
            ),
            "run_online_study": lambda v: experiments.run_online_study(
                p=3, onset=30, horizon=60, n_change=2, runs=1, calibration_runs=1, quantile=v
            ),
        },
        "length": {
            "random_intervals": lambda n: random_intervals(60, n, 10, 0, q=1),
            "seeded_intervals": lambda n: seeded_intervals(60, n, 0.8, q=1),
            "build_intervals": lambda n: build_intervals("seeded", 60, n, 1, 10, 0.8, 0),
            "default_lambda": lambda n: default_lambda(n, 3, 60),
            "RunConfig": lambda n: RunConfig(min_length=n),
        },
        "burn-in": {
            "simulate": lambda v: simulate(law, 10, burn_in=v),
            "AnomalyScenario": lambda v: AnomalyScenario(law, zeros, (20, 30), 60, burn_in=v),
            "calibrate_threshold": lambda v: calibrate_threshold(law, ivs, config, runs=1, burn_in=v),
            "RunConfig": lambda v: RunConfig(burn_in=v),
        },
        "window": {
            "AnomalyScenario": lambda w: AnomalyScenario(law, zeros, w, 60),
            "simulate_episodes": lambda w: simulate_episodes(law, [(w, zeros)], 60),
        },
        "count": {
            "random_intervals": lambda n: random_intervals(60, 5, n, 0),
            "calibrate_threshold": lambda n: calibrate_threshold(law, ivs, config, runs=n),
            "RunConfig.count": lambda n: RunConfig(count=n),
            "RunConfig.calibration_runs": lambda n: RunConfig(calibration_runs=n),
        },
        "decay": {
            "seeded_intervals": lambda d: seeded_intervals(60, 5, d),
            "build_intervals": lambda d: build_intervals("seeded", 60, 5, 1, 10, d, 0),
            "RunConfig": lambda d: RunConfig(decay=d),
        },
        "domain": {
            "PanelScanner.scan": lambda s: PanelScanner(panel, base, 1).scan(outside, config),
            "PanelScanner.max_statistic": lambda s: PanelScanner(panel, base, 1).max_statistic(outside, config),
            "build_regression_view": lambda s: build_regression_view(panel, base, *s, 1),
        },
        "options": {
            "method/StatConfig": lambda v: StatConfig(method=v),
            "method/RunConfig": lambda v: RunConfig(method=v),
            "lambda-policy/StatConfig": lambda v: StatConfig(lambda_policy=v),
            "lambda-policy/RunConfig": lambda v: RunConfig(lambda_policy=v),
            "lambda-policy/OnlineDetector": lambda v: OnlineDetector(base, 1, 1.0, 5.0, lambda_policy=v),
            "scheme/build_intervals": lambda v: build_intervals(v, 60, 5, 1, 10, 0.8, 0),
            "scheme/RunConfig": lambda v: RunConfig(scheme=v),
            "baseline-penalty/estimate_baseline": lambda v: estimate_baseline(panel, 1, penalty=v),
            "baseline-penalty/RunConfig": lambda v: RunConfig(baseline_penalty=v),
            "baseline-penalty/run_single_anomaly_study": lambda v: experiments.run_single_anomaly_study(
                baseline_penalty=v, **study
            ),
            "sigma-mode/RunConfig": lambda v: RunConfig(sigma_mode=v),
        },
        "covariance": {
            "VarParams": lambda c: VarParams((zeros,), c),
            "VarParams.from_stacked": lambda c: VarParams.from_stacked(base, c, 1),
            "StatConfig": lambda c: StatConfig(sigma=c),
            "OnlineDetector": lambda c: OnlineDetector(base, 1, 1.0, 5.0, sigma=c),
            "detect_online": lambda c: detect_online(values, base, 1, 1.0, 5.0, sigma=c),
            "online_max_statistic": lambda c: online_max_statistic(values, base, 1, 1.0, sigma=c),
            "whiten": lambda c: whiten(view, c),
            "ols_statistic": lambda c: ols_statistic(view, c),
            "lasso_statistic": lambda c: lasso_statistic(view, 1.0, sigma=c),
        },
        "rate": {
            "estimate_baseline/ridge": lambda v: estimate_baseline(panel, 1, "ridge", c=v),
            "estimate_baseline/lasso": lambda v: estimate_baseline(panel, 1, "lasso", c=v),
            "estimate_baseline/none": lambda v: estimate_baseline(panel, 1, "none", c=v),
            "default_lambda": lambda v: default_lambda(60, 3, 60, v),
            "run_online_study": lambda v: experiments.run_online_study(
                p=3, onset=30, horizon=60, n_change=2, runs=1, calibration_runs=1, lambda_scale=v
            ),
        },
        "baseline-lambda": {
            "estimate_baseline/ridge": lambda v: estimate_baseline(panel, 1, "ridge", lam=v),
            "estimate_baseline/lasso": lambda v: estimate_baseline(panel, 1, "lasso", lam=v),
            "estimate_baseline/none": lambda v: estimate_baseline(panel, 1, "none", lam=v),
            "RunConfig": lambda v: RunConfig(baseline_lambda=v),
        },
        "ols-rows": {
            "ols_statistic": lambda n: ols_statistic(build_regression_view(panel, base, 10, 9 + n, 1)),
            "PanelScanner.scan": lambda n: PanelScanner(panel, base, 1).scan(short(n), ols),
            "PanelScanner.max_statistic": lambda n: PanelScanner(panel, base, 1).max_statistic(short(n), ols),
            "calibrate_threshold": lambda n: calibrate_threshold(law, short(n), ols, runs=1),
            "estimate_baseline/none": lambda n: estimate_baseline(TimeSeriesPanel(values[: 4 + n]), 2, "none"),
        },
        "selection": {
            "select_single": lambda v: select_single(scan, v),
            "select_multiple": lambda v: select_multiple(scan, v),
        },
    }
    bad = {
        "baseline": [np.zeros((3, 2)), np.zeros((2, 3)), np.zeros(())],
        "penalty": [-1.0, nan], "rows": [values[:20, :2], rows],
        "threshold": [0.0, -1.0, nan],
        "online-options": [{"lambda_policy": "bogus"}, {"solver": SolverOptions(track_objective=True)}],
        "quantile": [1.5, nan], "length": [0, 60], "burn-in": [-1, nan],
        "window": [(30, 20), (10, 60), (nan, 10)], "count": [0], "decay": [1.0, nan],
        "domain": [(1, 10), (50, 61)],
        "options": ["bogus", nan],
        "covariance": [
            np.ones((3, 2)), np.array([[1.0, 0.5, 0.0], [0.4, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), np.full((3, 3), nan),
        ],
        "rate": [-1.0, nan], "baseline-lambda": [-30.0, nan], "ols-rows": [1, 2],
        "selection": [0.0, -1.0, nan],
    }
    out = {}
    for rule, calls in cases.items():
        out[f"errors/{rule}"] = _item(**{
            f"{name}/{i}": np.frombuffer(_outcome(lambda: call(value)), dtype=np.uint8)
            for name, call in calls.items() for i, value in enumerate(bad[rule])
        })
    with tempfile.TemporaryDirectory() as tmp:
        data, baseline = Path(tmp) / "panel.csv", Path(tmp) / "baseline.csv"
        save_panel(simulate(law, 400, seed=2), data)
        np.savetxt(baseline, base, delimiter=",")
        pipeline_flags = {
            "scale-nan-ols-baseline": ["--lambda-scale", "nan", "--baseline-penalty", "none"],
            "scale-nan": ["--lambda-scale", "nan"], "scale-negative": ["--lambda-scale", "-1"],
            "quantile-nan": ["--quantile", "nan"], "decay-nan": ["--decay", "nan"],
            "count-zero": ["--count", "0"], "runs-zero": ["--calibration-runs", "0"],
        }
        fields = {
            name: _cli_outcome(["detect", "--data", str(data), "--out-dir", str(Path(tmp) / name), *flags])
            for name, flags in pipeline_flags.items()
        }
        online_flags = {
            "online-lam-negative": ["--lam", "-1"], "online-lam-nan": ["--lam", "nan"],
            "online-scale-nan": ["--lambda-scale", "nan"], "online-threshold-nan": ["--threshold", "nan"],
        }
        for name, flags in online_flags.items():
            fields[name] = _cli_outcome([
                "detect-online", "--data", str(data), "--baseline", str(baseline), "--threshold", "50", *flags,
            ])
        out["errors/cli"] = _item(**{k: np.frombuffer(v, dtype=np.uint8) for k, v in fields.items()})
        fields = {}
        for name, value in (("baseline-lambda-negative", -30.0), ("baseline-lambda-nan", nan)):
            config = Path(tmp) / f"{name}.json"
            config.write_text(json.dumps({"baseline_lambda": value, "calibration_runs": 2}))
            argv = ["detect", "--data", str(data), "--out-dir", str(Path(tmp) / name), "--config", str(config)]
            fields[name] = _cli_outcome(argv, tmp) + f" out: {(Path(tmp) / name).exists()}".encode()
        for name, cov in (("sigma-shape", np.eye(2)), ("sigma-asymmetric", np.triu(np.ones((3, 3))))):
            sigma = Path(tmp) / f"{name}.csv"
            np.savetxt(sigma, cov, delimiter=",")
            fields[name] = _cli_outcome([
                "detect-online", "--data", str(data), "--baseline", str(baseline), "--threshold", "50",
                "--sigma", str(sigma),
            ], tmp)
        for name, body in (
            ("evaluate-no-start", "begin,end\n140,160\n"), ("evaluate-bad-cell", "start,end\n140,16x\n"),
        ):
            detections = Path(tmp) / f"{name}.csv"
            detections.write_text(body)
            fields[name] = _cli_outcome(["evaluate", "--detections", str(detections), "--truth", "133:166"], tmp)
        out["errors/cli-inputs"] = _item(**{k: np.frombuffer(v, dtype=np.uint8) for k, v in fields.items()})
    return out


def _difference(a: np.ndarray, b: np.ndarray) -> str:
    """'' when ``a`` and ``b`` are bitwise equal, else how they differ."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return f"{a.dtype}{a.shape} against {b.dtype}{b.shape}"
    if a.tobytes() == b.tobytes():
        return ""
    differ = ~((a == b) | (np.isnan(a) & np.isnan(b)) if a.dtype.kind == "f" else a == b)
    count = f"{np.count_nonzero(differ)} of {a.size} differ"
    if a.dtype.kind != "f":
        return count
    x, y = a[differ], b[differ]
    return f"max rel {np.max(np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))):.2e}, {count}"


def compare(items: dict[str, dict], saved: dict[str, dict]) -> None:
    """Print, item by item, how ``items`` differ from ``saved``, then whether
    the thresholds, detections and alarms are identical: the calibration and
    pipeline thresholds, which intervals the pipelines, the bracketed and
    the duplicates items detect (the start and end columns of
    ``detections.csv`` and of the picks), and the time and window of each
    online alarm. A changed statistic of a detection or an alarm, and so the
    bytes of its file, shows in its item's line."""
    same = {"thresholds": True, "detections": True, "alarms": True}
    for name in sorted(items.keys() | saved.keys()):
        if name not in items or name not in saved:
            print(f"{'missing here' if name in saved else 'not saved'}  {name}")
            continue
        notes = {}
        for field in sorted(items[name].keys() | saved[name].keys()):
            a, b = items[name].get(field), saved[name].get(field)
            diff = "missing" if a is None or b is None else _difference(a, b)
            if not diff:
                continue
            if name.startswith("errors/") and "missing" != diff:  # an outcome is text
                diff = f"{b.tobytes().decode()!r} -> {a.tobytes().decode()!r}"
            notes[field] = diff
            if field == "threshold":
                same["thresholds"] = False
            elif field in ("start", "end") and (
                name.endswith("detections.csv") or name.startswith(("duplicates/", "detect/"))
            ):
                same["detections"] = False
            elif name.startswith("online/alarms") and field != "statistic":
                same["alarms"] = False
        if len(notes) > 1:
            notes.pop("bytes", None)  # a file's parsed fields say how its bytes differ
        print(f"{'; '.join(f'{f}: {d}' for f, d in notes.items()) or 'bitwise'}  {name}")
    for what, identical in same.items():
        print(f"{what}: {'identical' if identical else 'DIFFERENT'}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--save", metavar="FILE", help="write the raw result arrays to FILE (.npz)")
    parser.add_argument("--against", metavar="FILE", help="compare with arrays saved by --save")
    args = parser.parse_args()
    items = {
        **scans(), **interleaved(), **calibrations(), **bracketed(), **online(), **duplicates(), **pipelines(),
        **cli(), **errors(),
    }
    total = hashlib.sha256()
    for name, (digest, _) in items.items():
        print(f"{digest}  {name}")
        total.update(f"{name} {digest}\n".encode())
    print(f"{total.hexdigest()}  total")
    fields = {name: f for name, (_, f) in items.items()}
    if args.save:
        np.savez(args.save, **{
            f"{name}::{field}": a for name, f in fields.items() for field, a in f.items()
        })
    if args.against:
        saved: dict[str, dict] = {}
        with np.load(args.against) as data:
            for key in data.files:
                name, field = key.rsplit("::", 1)
                saved.setdefault(name, {})[field] = data[key]
        compare(fields, saved)


if __name__ == "__main__":
    main()
