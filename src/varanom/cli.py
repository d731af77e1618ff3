"""Command-line interface.

Subcommands: simulate, calibrate, detect, detect-online, evaluate,
reproduce-tables. Exit codes: 0 on completion (detection or a clean
null), 2 on input errors, 3 on numerical failures.

The flags of ``detect`` and ``calibrate`` are built from ``PIPELINE_FLAGS``,
a table of ``RunConfig`` fields: each field's flag is ``--<field with
dashes>`` (``--difference`` sets ``apply_difference``), a bool field is a
switch, and an enumerated field takes the values of
``pipeline.OPTION_CHOICES``. A flag given overrides the config file's
value; ``splits``, ``baseline_lambda``, ``delimiter`` and ``burn_in`` are
set only in the config file.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .detection import detect_online
from .errors import DesignError, NumericalError, PanelFormatError, ParameterError
from .evaluation import (
    count_distribution,
    empirical_power,
    hausdorff_summary,
    write_table,
)
from .evaluation import ScenarioOutcome
from .experiments import (
    dense_base_with_change,
    run_online_study,
    run_single_anomaly_study,
    run_two_anomaly_study,
)
from .interval_stats import LAMBDA_POLICIES, default_lambda
from .panels import load_panel, save_panel
from .pipeline import OPTION_CHOICES, RunConfig, run_pipeline
from .var_model import (
    AnomalyScenario,
    generate_dense_stationary,
    generate_sparse_offdiag,
    simulate,
    simulate_with_anomaly,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
# The RunConfig fields that detect and calibrate take as flags, with the type
# of each value; a bool field is a switch that sets it to true.
PIPELINE_FLAGS = {
    "q": int, "method": str, "scheme": str, "count": int, "decay": float,
    "min_length": int, "lambda_scale": float, "lambda_policy": str, "sigma_mode": str,
    "quantile": float, "calibration_runs": int, "baseline_penalty": str, "seed": int,
    "apply_difference": bool, "multiple": bool, "has_header": bool,
}


def _parse_window(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(":")
        return int(a), int(b)
    except ValueError:
        raise ParameterError(f"window must look like start:end, got {text!r}") from None


def _cmd_simulate(args) -> int:
    if args.scenario == "null":
        if args.base == "sparse":
            base = generate_sparse_offdiag(args.p, args.sparse_value)
        else:
            base = generate_dense_stationary(args.p, seed=args.seed)
        panel = simulate(base, args.rows, seed=args.seed)
    else:
        window = _parse_window(args.window) if args.window else (
            int(args.rows * 5 / 11), int(args.rows * 6 / 11))
        entries = min(args.entries, max(args.p * args.p // 3, 1))
        base, theta = dense_base_with_change(args.p, args.delta, entries, args.seed)
        scenario = AnomalyScenario(base, theta, window, args.rows)
        panel = simulate_with_anomaly(scenario, seed=args.seed)
    save_panel(panel, args.out)
    print(f"wrote {panel.n_rows} x {panel.n_series} panel to {args.out}")
    return EXIT_OK


def _load_config(args) -> RunConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    given = {name: getattr(args, name) for name in PIPELINE_FLAGS}
    return dataclasses.replace(config, **{k: v for k, v in given.items() if v is not None})


def _cmd_pipeline(args, stage: str) -> int:
    config = _load_config(args)
    run = run_pipeline(config, args.data, args.out_dir, stage=stage)
    print(f"threshold: {run.calibration.threshold:.6g}")
    if run.detection is not None:
        if run.detection.detected:
            for i, s in enumerate(run.detection.detected, start=1):
                print(f"detected #{i}: [{s.interval.start}, {s.interval.end}] "
                      f"statistic {s.value:.6g}")
        else:
            print("no anomaly detected")
    print(f"artifacts in {args.out_dir}")
    return EXIT_OK


def _cmd_detect_online(args) -> int:
    panel = load_panel(args.data, has_header=args.has_header)
    baseline = np.loadtxt(args.baseline, delimiter=",", ndmin=2)
    sigma = np.loadtxt(args.sigma, delimiter=",", ndmin=2) if args.sigma else None
    lam = args.lam if args.lam is not None else default_lambda(
        2, panel.n_series, panel.n_rows, args.lambda_scale)
    alarm = detect_online(
        panel.values, baseline, args.q, lam, args.threshold, t0=args.t0,
        sigma=sigma, lambda_policy=args.lambda_policy)
    if alarm is None:
        print("no alarm: stream exhausted")
    else:
        print(f"alarm at t={alarm.time}, window [{alarm.window.start}, {alarm.window.end}], "
              f"statistic {alarm.statistic:.6g}")
    return EXIT_OK


def _integer_cell(record: dict, column: str, where: str) -> int:
    """The integer in ``column`` of a CSV record; ``where`` names its file and line."""
    if column not in record:
        raise ParameterError(f"{where}: no column {column!r}")
    try:
        return int(record[column])
    except (TypeError, ValueError):
        raise ParameterError(f"{where}: column {column!r} must hold an integer, got {record[column]!r}") from None


def _cmd_evaluate(args) -> int:
    truth = [_parse_window(w) for w in args.truth]
    detected = []
    with open(args.detections, newline="") as fh:
        reader = csv.DictReader(fh)
        for record in reader:
            where = f"{args.detections}, line {reader.line_num}"
            if "detected" in record and _integer_cell(record, "detected", where) != 1:
                continue
            detected.append((_integer_cell(record, "start", where), _integer_cell(record, "end", where)))
    # detections are pairwise disjoint, so rows repeating an interval, as a
    # set sampled with replacement gives, are one detection
    outcome = ScenarioOutcome(truth, list(dict.fromkeys(detected)))
    summary = hausdorff_summary([outcome], empty_convention=args.horizon)
    report = {
        "n_detected": outcome.n_detected,
        "power": empirical_power([outcome]),
        "count_distribution": count_distribution([outcome]),
        "hausdorff": summary["mean_all"],
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _cmd_reproduce_tables(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    power_rows, hd_rows = [], []
    for scheme in ("random", "seeded"):
        study = run_single_anomaly_study(
            runs=args.runs, calibration_runs=args.calibration_runs,
            scheme=scheme, seed=args.seed,
        )
        for method in ("ols", "lasso"):
            row = [scheme, method]
            hd_row = [scheme, method]
            for mode in ("known", "estimated"):
                outcomes = study.outcomes[(mode, method)]
                row.append(f"{100 * empirical_power(outcomes):.0f}")
                hd = hausdorff_summary(outcomes, empty_convention=study.scenario.horizon)
                hd_row.extend([
                    f"{hd['mean_all']:.2f}", f"{hd['sd_all']:.2f}",
                    f"{hd['mean_scaled']:.3f}",
                    f"{hd.get('mean_detected', float('nan')):.2f}",
                    f"{int(hd['n_detected'])}",
                ])
            power_rows.append(row)
            hd_rows.append(hd_row)
    write_table(out / "single_power.csv",
                ["scheme", "method", "power_known_pct", "power_estimated_pct"], power_rows)
    write_table(out / "single_hausdorff.csv",
                ["scheme", "method",
                 "known_mean", "known_sd", "known_mean_pct_of_T",
                 "known_mean_detected_only", "known_n_detected",
                 "estimated_mean", "estimated_sd", "estimated_mean_pct_of_T",
                 "estimated_mean_detected_only", "estimated_n_detected"], hd_rows)

    two = run_two_anomaly_study(
        runs=args.runs, calibration_runs=args.calibration_runs, seed=args.seed)
    counts = count_distribution(two.outcomes)
    write_table(out / "two_anomaly_counts.csv", ["n_detected", "runs"],
                [[k, v] for k, v in counts.items()])

    online = run_online_study(
        runs=args.runs, calibration_runs=args.calibration_runs, seed=args.seed)
    write_table(out / "online_summary.csv",
                ["threshold", "lambda", "early_alarm_rate", "median_delay"],
                [[f"{online.threshold:.4f}", f"{online.lam:.4f}",
                  f"{online.early_alarm_rate:.3f}", f"{online.median_delay:.1f}"]])
    print(f"tables written to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varanom",
        description="Collective anomaly detection in VAR panels via lasso-scanned intervals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a synthetic panel CSV")
    sim.add_argument("--out", required=True)
    sim.add_argument("--p", type=int, default=10)
    sim.add_argument("--rows", type=int, default=500)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--scenario", choices=["null", "single"], default="null")
    sim.add_argument("--base", choices=["dense", "sparse"], default="dense")
    sim.add_argument("--sparse-value", type=float, default=0.6)
    sim.add_argument("--delta", type=float, default=0.35)
    sim.add_argument("--entries", type=int, default=10)
    sim.add_argument("--window", default=None, help="anomaly window start:end")
    sim.set_defaults(func=_cmd_simulate)

    for stage in ("detect", "calibrate"):
        cmd = sub.add_parser(stage, help=f"run the pipeline through the {stage} stage")
        cmd.add_argument("--data", required=True)
        cmd.add_argument("--out-dir", required=True)
        cmd.add_argument("--config", default=None, help="JSON config file")
        for name, kind in PIPELINE_FLAGS.items():
            flag = "--" + ("difference" if name == "apply_difference" else name).replace("_", "-")
            if kind is bool:  # a switch not given leaves the file's value
                cmd.add_argument(flag, dest=name, action="store_const", const=True)
            else:
                cmd.add_argument(flag, dest=name, type=kind, choices=OPTION_CHOICES.get(name))
        cmd.set_defaults(func=lambda a, s=stage: _cmd_pipeline(a, s))

    online = sub.add_parser("detect-online", help="replay a CSV through the online monitor")
    online.add_argument("--data", required=True)
    online.add_argument("--baseline", required=True, help="CSV with the p x pq coefficients")
    online.add_argument("--sigma", default=None,
                        help="CSV with the p x p noise covariance that whitens the residuals")
    online.add_argument("--threshold", type=float, required=True)
    online.add_argument("--lam", type=float, default=None)
    online.add_argument("--lambda-scale", dest="lambda_scale", type=float, default=0.15)
    online.add_argument("--lambda-policy", dest="lambda_policy",
                        choices=LAMBDA_POLICIES, default="global")
    online.add_argument("--q", type=int, default=1)
    online.add_argument("--t0", type=int, default=10)
    online.add_argument("--has-header", dest="has_header", action="store_true")
    online.set_defaults(func=_cmd_detect_online)

    ev = sub.add_parser("evaluate", help="score a detections CSV against truth windows")
    ev.add_argument("--detections", required=True)
    ev.add_argument("--truth", nargs="+", required=True, help="windows as start:end")
    ev.add_argument("--horizon", type=float, default=500.0,
                    help="empty-estimate Hausdorff convention")
    ev.set_defaults(func=_cmd_evaluate)

    rt = sub.add_parser("reproduce-tables", help="run the desk-scale studies")
    rt.add_argument("--out-dir", required=True)
    rt.add_argument("--runs", type=int, default=100)
    rt.add_argument("--calibration-runs", dest="calibration_runs", type=int, default=100)
    rt.add_argument("--seed", type=int, default=0)
    rt.set_defaults(func=_cmd_reproduce_tables)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PanelFormatError, ParameterError, DesignError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
