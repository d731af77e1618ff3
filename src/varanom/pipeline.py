"""End-to-end run: split, estimate, calibrate, detect, write artifacts.

The panel is split into train / calibrate / test slices by configurable
fractions. The baseline coefficients (and optionally the noise covariance)
come from the train slice; the threshold is a parametric-bootstrap null
quantile simulated from the estimated law at the calibration slice's
length; detection runs on the test slice. Every resolved default lands in
the run manifest so a run can be re-executed without the original config
file. All file writes are atomic (write then rename).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .detection import CalibrationResult, DetectionResult, calibrate_threshold, detect_multiple, detect_single
from .errors import NumericalError, ParameterError
from .estimation import estimate_baseline, estimate_noise_covariance
from .intervals import IntervalSet, build_intervals
from .interval_stats import LAMBDA_POLICIES, StatConfig, interval_lambdas
from .panels import difference as difference_panel
from .panels import load_panel
from .var_model import TimeSeriesPanel, VarParams


@dataclass
class RunConfig:
    """Pipeline configuration; file values are overridden by CLI flags."""

    q: int = 1
    method: str = "lasso"
    scheme: str = "seeded"
    count: int = 1000
    decay: float = 1 / 1.1
    min_length: Optional[int] = None
    lambda_scale: float = 0.15
    lambda_policy: str = "global"
    sigma_mode: str = "identity"
    quantile: float = 0.99
    calibration_runs: int = 100
    baseline_penalty: str = "ridge"
    baseline_lambda: Optional[float] = None
    splits: tuple[float, float, float] = (0.25, 0.25, 0.5)
    seed: int = 0
    apply_difference: bool = False
    multiple: bool = False
    has_header: bool = False
    delimiter: str = ","
    burn_in: int = 200

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ParameterError("q must be >= 1")
        if self.method not in ("lasso", "ols"):
            raise ParameterError(f"unknown method {self.method!r}")
        if self.scheme not in ("random", "seeded"):
            raise ParameterError(f"unknown interval scheme {self.scheme!r}")
        if self.sigma_mode not in ("identity", "estimated"):
            raise ParameterError(f"unknown sigma mode {self.sigma_mode!r}")
        if self.lambda_policy not in LAMBDA_POLICIES:
            raise ParameterError(f"unknown lambda policy {self.lambda_policy!r}")
        if not 0 < self.quantile < 1:
            raise ParameterError("quantile must lie strictly between 0 and 1")
        splits = tuple(float(f) for f in self.splits)
        if len(splits) != 3 or any(f <= 0 for f in splits) or sum(splits) > 1 + 1e-9:
            raise ParameterError("split fractions must be three positives summing to at most 1")
        self.splits = splits

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        if "splits" in data:
            data = {**data, "splits": tuple(data["splits"])}
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["splits"] = list(self.splits)
        return out


def _atomic_write(path: Path, write_fn) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    os.close(fd)
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, lambda tmp: Path(tmp).write_text(json.dumps(payload, indent=2) + "\n"))


@dataclass
class PipelineRun:
    config: RunConfig
    baseline: np.ndarray
    noise_cov: Optional[np.ndarray]
    calibration: CalibrationResult
    detection: Optional[DetectionResult]
    manifest: dict


def run_pipeline(
    config: RunConfig, data_path, out_dir, stage: str = "detect"
) -> PipelineRun:
    """Execute the configured pipeline on a CSV panel; see the module docstring.

    ``stage`` may be "calibrate" to stop after threshold calibration.
    Artifacts written: manifest.json, baseline.csv, calibration.csv and,
    for the detect stage, statistics.csv plus detections.csv.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    panel = load_panel(data_path, has_header=config.has_header, delimiter=config.delimiter)
    if config.apply_difference:
        panel = difference_panel(panel)
    n, p = panel.values.shape
    q = config.q
    min_length = config.min_length if config.min_length is not None else p * q + 1
    if config.method == "ols" and min_length <= p * q:
        raise ParameterError(
            f"OLS needs interval length above pq = {p * q}; configure min_length accordingly"
        )
    f_train, f_cal, _ = config.splits
    n_train = int(n * f_train)
    n_cal = int(n * f_cal)
    slices = {
        "train": panel.values[:n_train],
        "calibrate": panel.values[n_train : n_train + n_cal],
        "test": panel.values[n_train + n_cal :],
    }
    floor_rows = min_length + q
    for name, block in slices.items():
        need = q + 2 if name == "train" else floor_rows
        if block.shape[0] < need:
            raise ParameterError(f"{name} slice has {block.shape[0]} rows, needs at least {need}")

    train_panel = TimeSeriesPanel(slices["train"])
    theta_hat = estimate_baseline(
        train_panel, q, penalty=config.baseline_penalty, lam=config.baseline_lambda,
        c=config.lambda_scale,
    )
    sigma_hat: Optional[np.ndarray] = None
    if config.sigma_mode == "estimated":
        sigma_hat = estimate_noise_covariance(train_panel, theta_hat, q)
    try:
        law = VarParams.from_stacked(theta_hat, sigma_hat if sigma_hat is not None else np.eye(p), q)
    except ParameterError as exc:
        raise NumericalError(f"estimated law unusable for bootstrap calibration: {exc}") from exc
    stat_config = StatConfig(
        method=config.method, lambda_scale=config.lambda_scale,
        lambda_policy=config.lambda_policy, sigma=sigma_hat,
    )

    n_cal_rows = slices["calibrate"].shape[0]
    cal_intervals = build_intervals(
        config.scheme, n_cal_rows, min_length, q, config.count, config.decay, config.seed + 1
    )
    calibration = calibrate_threshold(
        law,
        cal_intervals,
        stat_config,
        runs=config.calibration_runs,
        quantile=config.quantile,
        seed=config.seed + 2,
        baseline=theta_hat,
        burn_in=config.burn_in,
    )

    detection: Optional[DetectionResult] = None
    test_intervals: Optional[IntervalSet] = None
    if stage == "detect":
        test_panel = TimeSeriesPanel(slices["test"])
        n_test = test_panel.n_rows
        test_intervals = build_intervals(
            config.scheme, n_test, min_length, q, config.count, config.decay, config.seed + 3
        )
        detect = detect_multiple if config.multiple else detect_single
        detection = detect(
            test_panel,
            theta_hat,
            test_intervals,
            stat_config,
            calibration.threshold,
            q=q,
            baseline_source="estimated",
        )
    elif stage != "calibrate":
        raise ParameterError(f"unknown stage {stage!r}")

    manifest = {
        "config": config.to_dict(),
        "data_path": str(data_path),
        "stage": stage,
        "rows": n,
        "series": p,
        "differenced": config.apply_difference,
        "resolved_min_length": min_length,
        "slice_rows": {k: int(v.shape[0]) for k, v in slices.items()},
        "test_start_row": n_train + n_cal + 1,
        "lambda_calibration": _lambda_range(stat_config, cal_intervals, p, n_cal_rows),
        "threshold": calibration.threshold,
        "calibration_intervals": {**cal_intervals.provenance, "n": len(cal_intervals)},
        "sigma_mode": config.sigma_mode,
        "baseline_penalty": config.baseline_penalty,
    }
    if test_intervals is not None:
        manifest["lambda_test"] = _lambda_range(stat_config, test_intervals, p, n_test)
        manifest["test_intervals"] = {**test_intervals.provenance, "n": len(test_intervals)}
    if detection is not None:
        manifest["detected"] = [
            {"start": s.interval.start, "end": s.interval.end, "statistic": s.value}
            for s in detection.detected
        ]

    _atomic_write(out / "baseline.csv", lambda tmp: np.savetxt(tmp, theta_hat, delimiter=","))
    if sigma_hat is not None:
        _atomic_write(out / "noise_cov.csv", lambda tmp: np.savetxt(tmp, sigma_hat, delimiter=","))
    _atomic_write(out / "calibration.csv", lambda tmp: calibration.to_csv(tmp))
    if detection is not None:
        _atomic_write(out / "statistics.csv", lambda tmp: detection.to_csv(tmp))
        _atomic_write(out / "detections.csv", lambda tmp: _write_detections(tmp, detection))
    _write_json(out / "manifest.json", manifest)
    return PipelineRun(config, theta_hat, sigma_hat, calibration, detection, manifest)


def _lambda_range(config: StatConfig, intervals: IntervalSet, p: int, n_rows: int) -> dict:
    """Smallest and largest penalty the scan of ``intervals`` used."""
    lams = interval_lambdas(config, intervals, p, n_rows)
    return {"min": float(lams.min()), "max": float(lams.max())}


def _write_detections(path, detection: DetectionResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pass", "start", "end", "statistic"])
        for i, s in enumerate(detection.detected, start=1):
            writer.writerow([i, s.interval.start, s.interval.end, repr(float(s.value))])
