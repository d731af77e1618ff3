import csv
import dataclasses
import json
import warnings

import numpy as np
import pytest

from varanom import (
    DesignError,
    DetectionResult,
    Interval,
    IntervalSet,
    PanelFormatError,
    ParameterError,
    RunConfig,
    StatConfig,
    TimeSeriesPanel,
    default_lambda,
    detect_online,
    difference,
    generate_dense_stationary,
    load_panel,
    run_pipeline,
    save_panel,
    scan_intervals,
    seeded_intervals,
    simulate,
    simulate_episodes,
)
from varanom import pipeline
from varanom.cli import PIPELINE_FLAGS, _load_config, build_parser, main
from varanom.detection import select_multiple
from varanom.experiments import dense_base_with_change
from varanom.interval_stats import ScanResult, check_ols_rows
from varanom.panels import undifference


def test_load_panel_basic(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    panel = load_panel(path)
    assert panel.values.shape == (3, 2)
    assert panel.values[2, 1] == 6.0


def test_load_panel_header(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    panel = load_panel(path, has_header=True)
    assert panel.values.shape == (2, 2)


def test_load_panel_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(PanelFormatError, match="row 2"):
        load_panel(path)


def test_load_panel_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,x\n")
    with pytest.raises(PanelFormatError, match="row 2, column 2"):
        load_panel(path)


def _cell_loop_panel(path, has_header=False):
    """The per-cell csv.reader loop load_panel used before it parsed with np.loadtxt."""
    rows, width = [], None
    with open(path, newline="") as fh:
        for i, record in enumerate(csv.reader(fh)):
            if has_header and i == 0:
                continue
            if not record or all(cell.strip() == "" for cell in record):
                continue
            row_no = len(rows) + 1
            if width is None:
                width = len(record)
            elif len(record) != width:
                raise PanelFormatError(f"row {row_no} has {len(record)} fields, expected {width}")
            parsed = []
            for j, cell in enumerate(record):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise PanelFormatError(
                        f"row {row_no}, column {j + 1}: {cell!r} is not numeric"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise PanelFormatError(f"{path} contains no data rows")
    return TimeSeriesPanel(np.asarray(rows, dtype=float))


def _outcome(load, path, has_header):
    try:
        return load(path, has_header=has_header).values.tobytes()
    except (PanelFormatError, ParameterError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "text, has_header",
    [
        ("a,b\n1.5,-2\n3e-3,4\n", True),
        ("1,2\n\n3,4\n\n", False),
        ("1,2\n   \n3,4\n", False),
        ("1,2\n,\n3,4\n", False),
        ('"1.5",2\n3,"4"\n', False),
        ("1,2\n3,#\n", False),
        ("#1,2\n3,4\n", False),
        ("1_0,2\n3,4\n", False),
        ("nan,2\n3,4\n", False),
        ("1,inf\n3,4\n", False),
        ("1,2,\n3,4,\n", False),
        ("0.1,0.30000000000000004,1e-310\n", False),
        ("1\n-2.5\n3\n", False),
        ("1,2\r\n 3 ,4\r\n", False),
        ("", False),
        ("\n\n", False),
        ("a,b\n", True),
        ("\x1c1\n", False),
        ("1,2\x1f\n3,4\n", False),
    ],
    ids=[
        "header", "blank-lines", "whitespace-line", "delimiter-line", "quoted", "hash-cell",
        "hash-first", "underscore", "nan", "inf", "trailing-delimiter", "single-row",
        "single-column", "crlf-padded", "empty", "blank-only", "header-only",
        "separator-padded", "separator-trailing",
    ],
)
def test_load_panel_matches_cell_loop(tmp_path, text, has_header):
    path = tmp_path / "panel.csv"
    path.write_text(text, newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no loadtxt warning escapes
        got = _outcome(load_panel, path, has_header)
    assert got == _outcome(_cell_loop_panel, path, has_header)


def test_load_panel_is_bitwise_on_full_precision_values(tmp_path):
    values = np.random.default_rng(3).standard_normal((300, 7)) * 10.0 ** np.arange(-3, 4)
    path = tmp_path / "panel.csv"
    save_panel(TimeSeriesPanel(values), path)
    assert load_panel(path).values.tobytes() == _cell_loop_panel(path).values.tobytes()
    assert load_panel(path).values.tobytes() == values.tobytes()


def test_difference():
    panel = TimeSeriesPanel(np.array([[1.0], [3.0], [6.0]]))
    diffed = difference(panel)
    assert np.array_equal(diffed.values[:, 0], [2.0, 3.0])
    const = TimeSeriesPanel(np.ones((5, 2)))
    assert np.all(difference(const).values == 0.0)
    with pytest.raises(ParameterError):
        difference(TimeSeriesPanel(np.ones((1, 2))))


def test_difference_round_trip():
    rng = np.random.default_rng(0)
    panel = TimeSeriesPanel(rng.standard_normal((20, 3)))
    restored = undifference(difference(panel), panel.values[0])
    assert np.abs(restored.values - panel.values).max() < 1e-12


def test_run_config_validation(tmp_path):
    with pytest.raises(ParameterError):
        RunConfig(splits=(0.5, 0.6, 0.2))
    with pytest.raises(ParameterError):
        RunConfig(method="magic")
    with pytest.raises(ParameterError):
        RunConfig(quantile=1.5)
    with pytest.raises(ParameterError):
        RunConfig.from_dict({"no_such_key": 1})
    # rejected before run_pipeline reads a panel
    with pytest.raises(ParameterError, match="unknown baseline penalty 'foo'"):
        RunConfig(baseline_penalty="foo")
    with pytest.raises(ParameterError, match="unknown baseline penalty 'bogus'"):
        RunConfig.from_dict({"baseline_penalty": "bogus"})
    with pytest.raises(ParameterError, match="lambda constant must be non-negative"):
        RunConfig(lambda_scale=-0.1)
    cfg = RunConfig.from_dict({"splits": [0.3, 0.3, 0.4], "seed": 3})
    assert cfg.splits == (0.3, 0.3, 0.4)
    # every other checked option, NaN included, fails when the config is built,
    # with the message of the library function that owns its rule; a run that
    # fails makes no output directory
    data = tmp_path / "panel.csv"
    save_panel(simulate(generate_dense_stationary(3, seed=1), 400, seed=2), data)
    out = tmp_path / "out"
    nan = float("nan")
    for bad, message in [
        ({"decay": 2.0}, "decay must lie in"), ({"decay": nan}, "decay must lie in"),
        ({"count": 0, "scheme": "random"}, "count must be >= 1"), ({"count": 0}, "count must be >= 1"),
        ({"calibration_runs": 0}, "runs must be >= 1"), ({"min_length": 0}, "min_length must be >= 1"),
        ({"burn_in": -5}, "burn_in must be non-negative"), ({"burn_in": nan}, "burn_in must be non-negative"),
        ({"quantile": nan}, "quantile must lie"), ({"lambda_scale": nan}, "lambda constant must be non-negative"),
    ]:
        with pytest.raises(ParameterError, match=message):
            run_pipeline(RunConfig(**bad), data, out)
        assert not out.exists()
    for config, stage in ((RunConfig(), "bogus"), (RunConfig(min_length=150), "detect")):
        with pytest.raises(ParameterError):
            run_pipeline(config, data, out, stage=stage)
        assert not out.exists()


def _cli_config(command, *flags):
    return _load_config(build_parser().parse_args([command, "--data", "d", "--out-dir", "o", *flags]))


def test_pipeline_flags_cover_every_cli_settable_field():
    file_only = {"splits", "baseline_lambda", "delimiter", "burn_in"}
    fields = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    assert set(PIPELINE_FLAGS) == set(fields) - file_only
    for name, kind in PIPELINE_FLAGS.items():
        assert kind.__name__ in fields[name]
    assert set(pipeline.OPTION_CHOICES) <= set(PIPELINE_FLAGS)


@pytest.mark.parametrize("command", ["detect", "calibrate"])
@pytest.mark.parametrize("name", list(PIPELINE_FLAGS))
def test_cli_flag_sets_only_its_field(command, name):
    flag = "--difference" if name == "apply_difference" else "--" + name.replace("_", "-")
    kind = PIPELINE_FLAGS[name]
    default = RunConfig().to_dict()
    if name in pipeline.OPTION_CHOICES:
        choices = pipeline.OPTION_CHOICES[name]
        for value in choices:
            got = _cli_config(command, flag, value).to_dict()
            assert got == {**default, name: value}
        # the parser rejects what the library rejects, with exit code 2
        with pytest.raises(ParameterError):
            RunConfig(**{name: "bogus"})
        with pytest.raises(SystemExit) as exc:
            _cli_config(command, flag, "bogus")
        assert exc.value.code == 2
        return
    given = {bool: [], int: ["3"], float: ["0.75"]}[kind]
    got = _cli_config(command, flag, *given).to_dict()
    value = True if kind is bool else kind(given[0])
    assert got[name] == value != default[name]
    assert got == {**default, name: value}


def _write_null_panel(tmp_path, n_rows=420, p=4, seed=1):
    base = generate_dense_stationary(p, seed=seed)
    panel = simulate(base, n_rows, seed=seed + 1)
    path = tmp_path / "data.csv"
    save_panel(panel, path)
    return base, path


def test_pipeline_null_run(tmp_path):
    _, path = _write_null_panel(tmp_path)
    config = RunConfig(calibration_runs=30, count=80, scheme="random", seed=2)
    run = run_pipeline(config, path, tmp_path / "out")
    assert (tmp_path / "out" / "manifest.json").exists()
    assert (tmp_path / "out" / "statistics.csv").exists()
    assert (tmp_path / "out" / "detections.csv").exists()
    assert (tmp_path / "out" / "calibration.csv").exists()
    assert (tmp_path / "out" / "baseline.csv").exists()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["threshold"] > 0
    assert manifest["slice_rows"]["train"] == 105
    assert "lambda_test" in manifest


def test_pipeline_manifest_reports_calibration_unreliable(tmp_path, monkeypatch):
    _, path = _write_null_panel(tmp_path)
    config = RunConfig(calibration_runs=5, seed=2)
    run = run_pipeline(config, path, tmp_path / "out")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["calibration_unreliable"] == run.calibration.unreliable
    # the count is passed through, whatever calibration found
    calibrate = pipeline.calibrate_threshold

    def with_unreliable(*args, **kwargs):
        return dataclasses.replace(calibrate(*args, **kwargs), unreliable=7)

    monkeypatch.setattr(pipeline, "calibrate_threshold", with_unreliable)
    run = run_pipeline(config, path, tmp_path / "again")
    manifest = json.loads((tmp_path / "again" / "manifest.json").read_text())
    assert manifest["calibration_unreliable"] == run.calibration.unreliable == 7


def test_pipeline_manifest_reports_calibration_pruned(tmp_path, monkeypatch):
    _, path = _write_null_panel(tmp_path)
    config = RunConfig(calibration_runs=5, seed=2)
    run = run_pipeline(config, path, tmp_path / "out")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["calibration_pruned"] == run.calibration.pruned > 0
    ols = run_pipeline(RunConfig(calibration_runs=5, seed=2, method="ols"), path, tmp_path / "ols")
    assert ols.manifest["calibration_pruned"] == 0
    # the count is passed through, whatever calibration found
    calibrate = pipeline.calibrate_threshold

    def with_pruned(*args, **kwargs):
        return dataclasses.replace(calibrate(*args, **kwargs), pruned=11)

    monkeypatch.setattr(pipeline, "calibrate_threshold", with_pruned)
    run_pipeline(config, path, tmp_path / "again")
    manifest = json.loads((tmp_path / "again" / "manifest.json").read_text())
    assert manifest["calibration_pruned"] == 11


def test_pipeline_manifest_reports_detection_pruned(tmp_path, monkeypatch):
    _, path = _write_null_panel(tmp_path)
    config = RunConfig(calibration_runs=5, seed=2)
    run = run_pipeline(config, path, tmp_path / "out")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    solved = run.detection.statistics.solved
    assert manifest["detection_pruned"] == run.detection.pruned == np.count_nonzero(~solved) > 0
    # statistics.csv marks the same rows unsolved
    with open(tmp_path / "out" / "statistics.csv") as fh:
        assert [row["solved"] for row in csv.DictReader(fh)] == [str(int(k)) for k in solved]
    ols = run_pipeline(RunConfig(calibration_runs=5, seed=2, method="ols"), path, tmp_path / "ols")
    assert ols.manifest["detection_pruned"] == 0 and ols.detection.statistics.solved is None
    # the count is passed through, whatever detection found
    detect = pipeline.detect_single

    def with_pruned(*args, **kwargs):
        result = detect(*args, **kwargs)
        result.statistics.solved[:11] = False
        result.statistics.solved[11:] = True
        return result

    monkeypatch.setattr(pipeline, "detect_single", with_pruned)
    run_pipeline(config, path, tmp_path / "again")
    manifest = json.loads((tmp_path / "again" / "manifest.json").read_text())
    assert manifest["detection_pruned"] == 11


def test_pipeline_manifest_lambda_range_under_interval_linear(tmp_path):
    _, path = _write_null_panel(tmp_path)
    config = RunConfig(calibration_runs=5, lambda_policy="interval_linear", seed=2)
    manifest = run_pipeline(config, path, tmp_path / "out").manifest
    p, L = 4, manifest["resolved_min_length"]
    for key, rows in (("lambda_calibration", "calibrate"), ("lambda_test", "test")):
        n_rows = manifest["slice_rows"][rows]
        lengths = [iv.length for iv in seeded_intervals(n_rows, L, config.decay, q=1)]
        base = default_lambda(L, p, n_rows, config.lambda_scale)
        want = {"min": base * min(lengths) / L, "max": base * max(lengths) / L}
        assert manifest[key] == pytest.approx(want, rel=1e-12)
        assert manifest[key]["max"] > manifest[key]["min"]


def test_pipeline_manifest_lambda_range_is_zero_for_ols(tmp_path):
    # the OLS scan is unpenalised; the manifest reports the penalties it used
    _, path = _write_null_panel(tmp_path)
    config = RunConfig(method="ols", calibration_runs=2, lambda_policy="interval_linear", seed=2)
    run = run_pipeline(config, path, tmp_path / "out")
    zero = {"min": 0.0, "max": 0.0}
    assert run.manifest["lambda_calibration"] == run.manifest["lambda_test"] == zero
    assert {s.lam for s in run.detection.statistics} == {0.0}


def test_pipeline_reproducible(tmp_path):
    _, path = _write_null_panel(tmp_path)
    config = RunConfig(calibration_runs=20, count=60, scheme="random", seed=5)
    run_pipeline(config, path, tmp_path / "a")
    run_pipeline(config, path, tmp_path / "b")
    for name in ("manifest.json", "statistics.csv", "calibration.csv", "baseline.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_pipeline_detects_injected_anomaly(tmp_path):
    base, theta = dense_base_with_change(4, 0.8, 4, seed=3)
    panel = simulate_episodes(base, [((840, 900), theta)], 1000, seed=7)
    path = tmp_path / "data.csv"
    save_panel(panel, path)
    # train and calibrate on the clean half, detect on the second half
    config = RunConfig(
        calibration_runs=40, scheme="seeded", seed=4,
        splits=(0.3, 0.2, 0.5), lambda_policy="interval_linear",
    )
    run = run_pipeline(config, path, tmp_path / "out")
    assert run.detection is not None
    assert run.detection.detected, "expected a detection on the injected anomaly"
    offset = run.manifest["test_start_row"] - 1
    found = run.detection.detected[0].interval
    lo, hi = 840 - offset, 900 - offset
    assert found.start <= hi and lo <= found.end


def test_pipeline_estimated_sigma_mode(tmp_path):
    _, path = _write_null_panel(tmp_path, n_rows=420, p=3, seed=11)
    config = RunConfig(
        calibration_runs=15, count=50, scheme="random", seed=12, sigma_mode="estimated"
    )
    run = run_pipeline(config, path, tmp_path / "out")
    assert run.noise_cov is not None
    assert run.noise_cov.shape == (3, 3)
    assert (tmp_path / "out" / "noise_cov.csv").exists()
    assert run.calibration.threshold > 0


def test_pipeline_manifest_reexecutable(tmp_path):
    _, path = _write_null_panel(tmp_path)
    config = RunConfig(calibration_runs=15, count=50, scheme="random", seed=8)
    first = run_pipeline(config, path, tmp_path / "a")
    rebuilt = RunConfig.from_dict(first.manifest["config"])
    run_pipeline(rebuilt, path, tmp_path / "b")
    assert (tmp_path / "a" / "manifest.json").read_bytes() == (
        tmp_path / "b" / "manifest.json"
    ).read_bytes()
    assert (tmp_path / "a" / "statistics.csv").read_bytes() == (
        tmp_path / "b" / "statistics.csv"
    ).read_bytes()


def test_cli_unstable_estimate_is_numerical_failure(tmp_path):
    # explosive data estimates to an unstable law, unusable for the bootstrap
    rng = np.random.default_rng(3)
    walk = np.empty((400, 2))
    walk[0] = rng.standard_normal(2)
    for t in range(1, 400):
        walk[t] = 1.04 * walk[t - 1] + 0.01 * rng.standard_normal(2)
    path = tmp_path / "walk.csv"
    np.savetxt(path, walk, delimiter=",")
    rc = main([
        "detect", "--data", str(path), "--out-dir", str(tmp_path / "out"),
        "--scheme", "random", "--count", "50", "--calibration-runs", "10",
        "--baseline-penalty", "none",
    ])
    assert rc == 3


def test_pipeline_stage_calibrate_only(tmp_path):
    _, path = _write_null_panel(tmp_path)
    config = RunConfig(calibration_runs=15, count=40, scheme="random", seed=6)
    run = run_pipeline(config, path, tmp_path / "out", stage="calibrate")
    assert run.detection is None
    assert not (tmp_path / "out" / "detections.csv").exists()
    assert (tmp_path / "out" / "calibration.csv").exists()


def test_pipeline_split_too_small(tmp_path):
    path = tmp_path / "tiny.csv"
    np.savetxt(path, np.random.default_rng(0).standard_normal((6, 2)), delimiter=",")
    with pytest.raises(ParameterError):
        run_pipeline(RunConfig(), path, tmp_path / "out")


def test_pipeline_ols_needs_long_intervals(tmp_path, capsys):
    # the pipeline applies check_ols_rows, the rule the scan applies: an
    # interval of pq rows fits, one of pq - 1 rows fails with the same
    # DesignError wherever it enters (the pipeline used to reject pq rows too)
    base, path = _write_null_panel(tmp_path)
    p = 4
    with pytest.raises(DesignError) as owner:
        check_ols_rows(p - 1, p)
    panel = simulate(base, 60, seed=3)
    ols = StatConfig(method="ols")
    for rows in (p, p - 1):
        ivs = IntervalSet((Interval(10, 30), Interval(40, 39 + rows)), 1, (2, 60))
        config = RunConfig(method="ols", min_length=rows, count=40, calibration_runs=2, seed=2)
        if rows == p:
            assert len(scan_intervals(panel, base.stacked, ivs, ols, 1)) == 2
            run = run_pipeline(config, path, tmp_path / "fits")
            assert run.manifest["resolved_min_length"] == p and run.detection is not None
            continue
        with pytest.raises(DesignError) as scanned:
            scan_intervals(panel, base.stacked, ivs, ols, 1)
        with pytest.raises(DesignError) as piped:
            run_pipeline(config, path, tmp_path / "short")
        assert str(scanned.value) == str(piped.value) == str(owner.value)
        assert not (tmp_path / "short").exists()
        # the CLI reports it as an input error
        rc = main(["detect", "--data", str(path), "--out-dir", str(tmp_path / "cli"),
                   "--method", "ols", "--min-length", str(rows)])
        assert rc == 2 and capsys.readouterr().err == f"input error: {owner.value}\n"


def test_cli_simulate_and_detect(tmp_path, capsys):
    out_csv = tmp_path / "sim.csv"
    rc = main([
        "simulate", "--out", str(out_csv), "--p", "3", "--rows", "360", "--seed", "2",
    ])
    assert rc == 0
    assert out_csv.exists()
    rc = main([
        "detect", "--data", str(out_csv), "--out-dir", str(tmp_path / "res"),
        "--scheme", "random", "--count", "60", "--calibration-runs", "15", "--seed", "1",
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert "threshold" in captured.out
    assert (tmp_path / "res" / "manifest.json").exists()


@pytest.mark.parametrize("flags", [
    ["--lambda-scale", "nan", "--baseline-penalty", "none"],
    ["--lambda-scale", "nan"],
    ["--lambda-scale", "-1"],
    ["--quantile", "nan"],
    ["--decay", "nan"],
    ["--count", "0"],
    ["--calibration-runs", "0"],
], ids=" ".join)
@pytest.mark.parametrize("command", ["detect", "calibrate"])
def test_cli_nan_or_negative_option_is_input_error(tmp_path, capsys, command, flags):
    # a NaN scale used to run to a 1e-12 threshold and "no anomaly detected"
    # (exit 0) with an OLS baseline, and to a numerical failure (exit 3) with
    # the default ridge one
    data = tmp_path / "panel.csv"
    save_panel(simulate(generate_dense_stationary(3, seed=1), 400, seed=2), data)
    rc = main([command, "--data", str(data), "--out-dir", str(tmp_path / "o"), *flags])
    assert rc == 2
    assert capsys.readouterr().err.startswith("input error: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags, message", [
    (["--lam", "-1"], "lasso penalty must be non-negative, got -1.0"),
    (["--lam", "nan"], "lasso penalty must be non-negative, got nan"),
    (["--lambda-scale", "nan"], "lambda constant must be non-negative, got nan"),
    (["--threshold", "nan"], "threshold must be strictly positive, got nan"),
    (["--threshold", "-2"], "threshold must be strictly positive, got -2.0"),
])
def test_cli_detect_online_nan_or_negative_option_is_input_error(tmp_path, capsys, flags, message):
    base = generate_dense_stationary(3, seed=9)
    data = tmp_path / "stream.csv"
    save_panel(simulate(base, 120, seed=10), data)
    bl = tmp_path / "baseline.csv"
    np.savetxt(bl, base.stacked, delimiter=",")
    rc = main(["detect-online", "--data", str(data), "--baseline", str(bl), "--threshold", "5.0", *flags])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_cli_missing_file_is_input_error(tmp_path):
    rc = main(["detect", "--data", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path / "o")])
    assert rc == 2


def test_cli_reproduce_tables_without_calibration_runs_is_input_error(tmp_path, capsys):
    rc = main([
        "reproduce-tables", "--runs", "1", "--calibration-runs", "0", "--out-dir", str(tmp_path),
    ])
    assert rc == 2
    assert "at least one sample" in capsys.readouterr().err


def test_cli_bad_config_is_input_error(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("1,2\n2,3\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "sorcery"}))
    rc = main(["detect", "--data", str(data), "--out-dir", str(tmp_path / "o"), "--config", str(cfg)])
    assert rc == 2


@pytest.mark.parametrize("value", [-30.0, float("nan")], ids=str)
def test_baseline_lambda_is_checked_before_any_output(tmp_path, capsys, value):
    # -30 fitted an anti-shrunk baseline and calibrated a threshold (exit 0);
    # NaN ended in a numerical failure (exit 3)
    message = f"baseline lambda must be non-negative, got {value}"
    with pytest.raises(ParameterError, match=message):
        RunConfig(baseline_lambda=value)
    data, cfg, out = tmp_path / "panel.csv", tmp_path / "cfg.json", tmp_path / "out"
    save_panel(simulate(generate_dense_stationary(3, seed=1), 400, seed=2), data)
    cfg.write_text(json.dumps({"baseline_lambda": value, "calibration_runs": 5}))
    assert main(["detect", "--data", str(data), "--out-dir", str(out), "--config", str(cfg)]) == 2
    assert f"input error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("body, message", [
    ("begin,end,statistic\n140,160,33.0\n", "line 2: no column 'start'"),
    ("start,end,statistic,detected\n140,160,33.0,1\n10,x,1.0,1\n",
     "line 3: column 'end' must hold an integer, got 'x'"),
    ("start,end,statistic,detected\n140,160,33.0,yes\n", "line 2: column 'detected' must hold an integer, got 'yes'"),
    ("start,end\n140\n", "line 2: column 'end' must hold an integer, got None"),
], ids=["no-start-column", "non-integer-end", "non-integer-flag", "short-row"])
def test_cli_evaluate_malformed_detections_is_input_error(tmp_path, capsys, body, message):
    # a missing column raised KeyError and a bad cell ValueError, each a
    # traceback and exit 1
    det = tmp_path / "detections.csv"
    det.write_text(body)
    rc = main(["evaluate", "--detections", str(det), "--truth", "133:166"])
    assert rc == 2
    assert capsys.readouterr().err == f"input error: {det}, {message}\n"


def test_cli_evaluate(tmp_path, capsys):
    det = tmp_path / "detections.csv"
    det.write_text("start,end,statistic,detected\n140,160,33.0,1\n10,20,1.0,0\n")
    rc = main(["evaluate", "--detections", str(det), "--truth", "133:166", "--horizon", "500"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_detected"] == 1
    assert report["hausdorff"] == 7.0


def test_cli_evaluate_counts_a_duplicated_detection_once(tmp_path, capsys):
    # a random interval set can hold an interval twice; statistics.csv flags
    # every row of a detected interval, and evaluate counts it once
    stats = ScanResult(
        np.array([140, 10, 140, 150]), np.array([160, 20, 160, 170]), np.array([33.0, 1.0, 33.0, 20.0]),
        np.ones(4), np.ones(4, dtype=int), np.ones(4, dtype=bool), "lasso",
    )
    result = DetectionResult(select_multiple(stats, 5.0), stats, 5.0)
    assert result.detected_intervals == [Interval(140, 160)]
    det = tmp_path / "statistics.csv"
    result.to_csv(det)
    # an exact scan's rows are solved, with the statistic as their upper bound
    assert det.read_text().splitlines()[1:] == [
        "140,160,33.0,33.0,1,1", "10,20,1.0,1.0,1,0", "140,160,33.0,33.0,1,1", "150,170,20.0,20.0,1,0"
    ]
    rc = main(["evaluate", "--detections", str(det), "--truth", "133:166", "--horizon", "500"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_detected"] == 1
    assert report["hausdorff"] == 7.0


def test_cli_reproduce_tables_smoke(tmp_path, capsys):
    rc = main([
        "reproduce-tables", "--out-dir", str(tmp_path / "tables"),
        "--runs", "5", "--calibration-runs", "5", "--seed", "1",
    ])
    assert rc == 0
    for name in (
        "single_power.csv", "single_hausdorff.csv",
        "two_anomaly_counts.csv", "online_summary.csv",
    ):
        assert (tmp_path / "tables" / name).exists()
    power = (tmp_path / "tables" / "single_power.csv").read_text().splitlines()
    assert power[0] == "scheme,method,power_known_pct,power_estimated_pct"
    assert len(power) == 5  # two schemes x two methods


def test_cli_detect_online(tmp_path, capsys):
    base, theta = dense_base_with_change(3, 0.8, 3, seed=9)
    stream = simulate_episodes(base, [((60, 119), theta)], 120, seed=10)
    data = tmp_path / "stream.csv"
    save_panel(stream, data)
    bl = tmp_path / "baseline.csv"
    np.savetxt(bl, base.stacked, delimiter=",")
    rc = main([
        "detect-online", "--data", str(data), "--baseline", str(bl),
        "--threshold", "5.0", "--lam", "4.0", "--q", "1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "alarm" in out


@pytest.mark.parametrize("q, columns", [(2, 3), (1, 2)])
def test_cli_detect_online_rejects_baseline_of_wrong_shape(tmp_path, capsys, q, columns):
    base = generate_dense_stationary(3, seed=9)
    data = tmp_path / "stream.csv"
    save_panel(simulate(base, 120, seed=10), data)
    bl = tmp_path / "baseline.csv"
    np.savetxt(bl, base.stacked[:, :columns], delimiter=",")
    rc = main([
        "detect-online", "--data", str(data), "--baseline", str(bl),
        "--threshold", "5.0", "--lam", "4.0", "--q", str(q),
    ])
    assert rc == 2
    assert f"baseline must be 3 x {3 * q}, got (3, {columns})" in capsys.readouterr().err


def _online_files(tmp_path, sigma):
    base, theta = dense_base_with_change(3, 0.8, 3, seed=9)
    stream = simulate_episodes(base, [((60, 119), theta)], 120, seed=10)
    paths = {name: tmp_path / f"{name}.csv" for name in ("stream", "baseline", "sigma")}
    save_panel(stream, paths["stream"])
    np.savetxt(paths["baseline"], base.stacked, delimiter=",")
    np.savetxt(paths["sigma"], sigma, delimiter=",")
    args = [
        "detect-online", "--data", str(paths["stream"]), "--baseline", str(paths["baseline"]),
        "--sigma", str(paths["sigma"]), "--threshold", "5.0", "--lam", "4.0",
    ]
    return stream, base, args


def test_cli_detect_online_whitens_by_sigma(tmp_path, capsys):
    sigma = np.array([[1.5, 0.4, 0.1], [0.4, 1.0, -0.3], [0.1, -0.3, 0.8]])
    stream, base, args = _online_files(tmp_path, sigma)
    assert main(args) == 0
    alarm = detect_online(stream.values, base.stacked, 1, 4.0, 5.0, sigma=sigma)
    plain = detect_online(stream.values, base.stacked, 1, 4.0, 5.0)
    assert alarm is not None and (alarm.time, alarm.window) != (plain.time, plain.window)
    assert capsys.readouterr().out.strip() == (
        f"alarm at t={alarm.time}, window [{alarm.window.start}, {alarm.window.end}], "
        f"statistic {alarm.statistic:.6g}"
    )


def test_cli_detect_online_rejects_sigma_of_wrong_shape(tmp_path, capsys):
    _, _, args = _online_files(tmp_path, np.eye(2))
    assert main(args) == 2
    assert "covariance must be 3 x 3, got (2, 2)" in capsys.readouterr().err


def test_cli_detect_online_lambda_policy(tmp_path, capsys):
    base, theta = dense_base_with_change(3, 0.8, 3, seed=9)
    stream = simulate_episodes(base, [((60, 119), theta)], 120, seed=10)
    data = tmp_path / "stream.csv"
    save_panel(stream, data)
    bl = tmp_path / "baseline.csv"
    np.savetxt(bl, base.stacked, delimiter=",")
    args = ["detect-online", "--data", str(data), "--baseline", str(bl), "--threshold", "10.0"]
    alarms = {}
    for policy in ("global", "interval_sqrt"):
        assert main(args + ["--lam", "4.0", "--lambda-policy", policy]) == 0
        out = capsys.readouterr().out
        alarm = detect_online(stream.values, base.stacked, 1, 4.0, 10.0, lambda_policy=policy)
        assert alarm is not None
        alarms[policy] = (alarm.time, alarm.window)
        assert out.strip() == (
            f"alarm at t={alarm.time}, window [{alarm.window.start}, {alarm.window.end}], "
            f"statistic {alarm.statistic:.6g}"
        )
    assert alarms["global"] != alarms["interval_sqrt"]
    # the default policy is the library's
    assert main(args + ["--lam", "4.0"]) == 0
    assert str(alarms["global"][0]) in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(args + ["--lambda-policy", "nope"])
