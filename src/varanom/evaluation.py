"""Scoring of detection output against ground truth."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ParameterError
from .intervals import Interval


@dataclass
class ScenarioOutcome:
    """Truth windows, detected intervals and run metadata for one replication."""

    truth: list[tuple[int, int]]
    detected: list[tuple[int, int]]
    meta: dict = field(default_factory=dict)

    @property
    def n_detected(self) -> int:
        return len(self.detected)


def boundary_points(windows: Iterable[tuple[int, int]]) -> list[float]:
    pts: list[float] = []
    for s, e in windows:
        pts.extend((float(s), float(e)))
    return pts


def hausdorff_distance(
    truth: Sequence[float], estimate: Sequence[float], empty_convention: float
) -> float:
    """max(max_a min_b |a - b|, max_b min_a |a - b|) over boundary points.

    An empty estimate returns ``empty_convention``; an empty truth set is a
    contract violation.
    """
    truth = list(truth)
    if not truth:
        raise ParameterError("truth boundary set must be nonempty")
    estimate = list(estimate)
    if not estimate:
        return float(empty_convention)
    a = np.asarray(truth, dtype=float)
    b = np.asarray(estimate, dtype=float)
    gaps = np.abs(a[:, None] - b[None, :])
    return float(max(gaps.min(axis=1).max(), gaps.min(axis=0).max()))


def outcome_hausdorff(outcome: ScenarioOutcome, empty_convention: float) -> float:
    return hausdorff_distance(
        boundary_points(outcome.truth), boundary_points(outcome.detected), empty_convention
    )


def empirical_power(outcomes: Sequence[ScenarioOutcome]) -> float:
    """Fraction of runs with at least one detection."""
    if not outcomes:
        raise ParameterError("need at least one outcome")
    return sum(1 for o in outcomes if o.n_detected > 0) / len(outcomes)


def count_distribution(outcomes: Sequence[ScenarioOutcome]) -> dict[int, int]:
    """Histogram of the number of detections per run; masses sum to len(outcomes)."""
    if not outcomes:
        raise ParameterError("need at least one outcome")
    hist: dict[int, int] = {}
    for o in outcomes:
        hist[o.n_detected] = hist.get(o.n_detected, 0) + 1
    return dict(sorted(hist.items()))


def hausdorff_summary(
    outcomes: Sequence[ScenarioOutcome], empty_convention: float
) -> dict[str, float]:
    """Mean and sd of the boundary Hausdorff distance, reported three ways.

    ``mean_all``/``sd_all`` include empty-estimate runs at the convention
    value; ``mean_detected``/``sd_detected`` cover detecting runs only;
    ``mean_scaled`` rescales the all-runs mean to percent of the convention.
    """
    if not outcomes:
        raise ParameterError("need at least one outcome")
    all_vals = np.array([outcome_hausdorff(o, empty_convention) for o in outcomes])
    det_vals = all_vals[np.array([o.n_detected > 0 for o in outcomes])]
    out = {
        "n_runs": float(len(outcomes)),
        "n_detected": float(len(det_vals)),
        "mean_all": float(all_vals.mean()),
        "sd_all": float(all_vals.std(ddof=0)),
        "mean_scaled": float(all_vals.mean() / empty_convention * 100.0),
    }
    if len(det_vals) > 0:
        out["mean_detected"] = float(det_vals.mean())
        out["sd_detected"] = float(det_vals.std(ddof=0))
    return out


def intervals_as_tuples(intervals: Iterable[Interval]) -> list[tuple[int, int]]:
    return [(iv.start, iv.end) for iv in intervals]


def write_table(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
