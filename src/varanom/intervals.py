"""Candidate interval collections for the scan.

Two constructions are provided: random sampling of (start, end) pairs in
the spirit of wild binary segmentation, and the deterministic multi-scale
seeded layout with a decay parameter. Both produce immutable sets whose
members lie within the usable domain [q + 1, T] and have length at least L.

The rules on their inputs are defined once, each by one function that the
constructions and the pipeline's ``RunConfig`` call: :func:`check_min_length`
(1 <= L <= T - q), :func:`check_decay` (decay in [1/2, 1)) and
:func:`check_count` (a count of intervals, or of calibration runs, >= 1).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import ParameterError, check_choice

_CEIL_GUARD = 1e-9
SCHEMES = ("random", "seeded")


@dataclass(frozen=True, order=True)
class Interval:
    """Closed 1-based time interval [start, end]."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ParameterError(f"interval start {self.start} exceeds end {self.end}")

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    def overlaps(self, other: "Interval") -> bool:
        return self.start <= other.end and other.start <= self.end

    def contains(self, other: "Interval") -> bool:
        return self.start <= other.start and other.end <= self.end


@dataclass(frozen=True)
class IntervalSet:
    """An ordered interval collection with its construction provenance."""

    intervals: tuple[Interval, ...]
    min_length: int
    domain: tuple[int, int]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        lo, hi = self.domain
        for iv in self.intervals:
            if iv.start < lo or iv.end > hi:
                raise ParameterError(f"interval [{iv.start}, {iv.end}] escapes domain [{lo}, {hi}]")
            if iv.length < self.min_length:
                raise ParameterError(f"interval [{iv.start}, {iv.end}] shorter than L={self.min_length}")

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    @property
    def horizon(self) -> int:
        return self.domain[1]

    @cached_property
    def starts(self) -> np.ndarray:
        """Start of every interval, in storage order; read-only, built once."""
        return _frozen([iv.start for iv in self.intervals])

    @cached_property
    def ends(self) -> np.ndarray:
        """End of every interval, in storage order; read-only, built once."""
        return _frozen([iv.end for iv in self.intervals])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["start", "end"])
            for iv in self.intervals:
                writer.writerow([iv.start, iv.end])


def check_count(count: int, name: str) -> None:
    """Reject a count (of random intervals, or of calibration runs) below 1."""
    if not count >= 1:
        raise ParameterError(f"{name} must be >= 1")


def check_min_length(min_length: int, n_rows: float = math.inf, q: int = 0) -> None:
    """Reject a minimum interval length L outside 1 <= L <= T - q; without
    ``n_rows`` (T), only L >= 1 is checked."""
    if not min_length >= 1:
        raise ParameterError("min_length must be >= 1")
    if min_length > n_rows - q:
        raise ParameterError(f"infeasible length: L={min_length} exceeds usable domain of {n_rows - q} rows")


def check_decay(decay: float) -> None:
    """Reject a seeded-layout decay outside [1/2, 1); NaN fails."""
    if not 0.5 <= decay < 1.0:
        raise ParameterError(f"decay must lie in [1/2, 1), got {decay}")


def _frozen(values) -> np.ndarray:
    out = np.array(values, dtype=int)
    out.flags.writeable = False
    return out


def random_intervals(n_rows: int, min_length: int, count: int, seed: int, q: int = 0) -> IntervalSet:
    """Sample ``count`` intervals with start uniform on [q + 1, T - L + 1]
    and end uniform on [start + L - 1, T]. Sampling is with replacement and
    deterministic given the seed."""
    check_count(count, "count")
    check_min_length(min_length, n_rows, q)
    rng = np.random.default_rng(seed)
    picked = []
    for _ in range(count):
        start = int(rng.integers(q + 1, n_rows - min_length + 2))
        end = int(rng.integers(start + min_length - 1, n_rows + 1))
        picked.append(Interval(start, end))
    return IntervalSet(
        tuple(picked),
        min_length,
        (q + 1, n_rows),
        {"kind": "random", "seed": seed, "count": count, "q": q},
    )


def seeded_intervals(n_rows: int, min_length: int, decay: float, q: int = 0) -> IntervalSet:
    """Deterministic layered construction governed by ``decay`` in [1/2, 1).

    Layer k holds n_k = 2 ceil((1/decay)^(k-1)) - 1 evenly spaced intervals
    of length ceil(T * decay^(k-1)); layers stop once the length falls below
    L and exact duplicates are removed. Smaller decay gives fewer, sparser
    layers.
    """
    check_decay(decay)
    check_min_length(min_length, n_rows, q)
    domain_rows = n_rows - q
    lo = q + 1
    picked: list[Interval] = []
    seen: set[tuple[int, int]] = set()
    k = 1
    while True:
        length = math.ceil(n_rows * decay ** (k - 1) - _CEIL_GUARD)
        if length < min_length:
            break
        length = min(length, domain_rows)
        n_k = 2 * math.ceil((1.0 / decay) ** (k - 1) - _CEIL_GUARD) - 1
        hi = n_rows - length + 1
        starts = np.rint(np.linspace(lo, hi, n_k)).astype(int) if n_k > 1 else np.array([lo])
        for s in starts:
            key = (int(s), int(s) + length - 1)
            if key not in seen:
                seen.add(key)
                picked.append(Interval(*key))
        k += 1
    picked.sort()
    return IntervalSet(
        tuple(picked),
        min_length,
        (lo, n_rows),
        {"kind": "seeded", "decay": decay, "q": q},
    )


def build_intervals(
    scheme: str, n_rows: int, min_length: int, q: int, count: int, decay: float, seed: int
) -> IntervalSet:
    """The ``random`` set (which uses ``count`` and ``seed``) or the ``seeded``
    set (which uses ``decay``) over a panel of ``n_rows`` rows; ``scheme`` is
    one of ``SCHEMES``."""
    check_choice(scheme, "scheme", SCHEMES)
    if scheme == "random":
        return random_intervals(n_rows, min_length, count, seed, q=q)
    return seeded_intervals(n_rows, min_length, decay, q=q)
