"""In-memory spans around the library's public entry points.

The benchmark installs wrappers from its own files; the library is not
edited. Each span records its name, start, end, parent span and the
operation it belongs to. Counters are computed from the arguments and
results of the wrapped calls, outside the span they describe, and the time
spent computing them is excluded from every layer's self time.

An entry point that no longer exists is reported as unmeasured instead of
failing the run, so refactors that delete a path do not break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

import numpy as np

# (span name, module, attribute, where to patch). "all" patches every loaded
# varanom module that binds the same object; "class" patches the method on
# its class; any other value names the one import site to patch.
ENTRY_POINTS = [
    ("var_model.simulate", "varanom.var_model", "simulate", "all"),
    ("intervals.seeded_intervals", "varanom.intervals", "seeded_intervals", "all"),
    ("interval_stats.PanelScanner.__init__", "varanom.interval_stats", "PanelScanner.__init__", "class"),
    ("interval_stats.PanelScanner.scan", "varanom.interval_stats", "PanelScanner.scan", "class"),
    ("estimation.lasso_cd_gram_batch", "varanom.interval_stats", "lasso_cd_gram_batch", "varanom.interval_stats"),
    ("interval_stats.lasso_statistic", "varanom.detection", "lasso_statistic", "varanom.detection"),
    ("estimation.estimate_baseline", "varanom.estimation", "estimate_baseline", "all"),
    ("detection.calibrate_threshold", "varanom.detection", "calibrate_threshold", "all"),
    ("detection.select_single", "varanom.detection", "select_single", "all"),
    ("detection.select_multiple", "varanom.detection", "select_multiple", "all"),
    ("detection.OnlineDetector.step", "varanom.detection", "OnlineDetector.step", "class"),
    ("panels.load_panel", "varanom.panels", "load_panel", "all"),
    ("pipeline.run_pipeline", "varanom.pipeline", "run_pipeline", "all"),
]

# Per-layer metric -> (unit, spans whose self time it sums).
LAYER_TIMES = {
    "estimation.lasso_batch_s": ["estimation.lasso_cd_gram_batch"],
    "estimation.baseline_s": ["estimation.estimate_baseline"],
    "interval_stats.window_stat_s": ["interval_stats.lasso_statistic"],
    "interval_stats.prefix_build_s": ["interval_stats.PanelScanner.__init__"],
    "interval_stats.scan_self_s": ["interval_stats.PanelScanner.scan"],
    "var_model.simulate_s": ["var_model.simulate"],
    "detection.online_step_s": ["detection.OnlineDetector.step"],
    "detection.calibrate_s": ["detection.calibrate_threshold"],
    "detection.select_s": ["detection.select_single", "detection.select_multiple"],
    "panels.load_s": ["panels.load_panel"],
    "pipeline.self_s": ["pipeline.run_pipeline"],
    "intervals.build_s": ["intervals.seeded_intervals"],
}

# Computed per-layer metrics -> the span whose calls feed them.
COUNTED = {
    "estimation.lasso_problems": "estimation.lasso_cd_gram_batch",
    "estimation.screened_frac": "estimation.lasso_cd_gram_batch",
    "estimation.unconverged": "estimation.lasso_cd_gram_batch",
    "interval_stats.prefix_bytes": "interval_stats.PanelScanner.__init__",
    "interval_stats.zero_stats": "interval_stats.PanelScanner.scan",
    "interval_stats.unreliable": "interval_stats.PanelScanner.scan",
    "var_model.simulate_calls": "var_model.simulate",
    "detection.online_windows": "detection.OnlineDetector.step",
    "detection.online_zero_frac": "detection.OnlineDetector.step",
}
RAW_COUNTERS = (
    "problems", "screened", "unconverged", "prefix_bytes", "zero_stats", "unreliable",
    "simulate_calls", "steps", "window_stats", "zero_windows",
)


def stat_arrays(stats):
    """(values, reliable) arrays of a list of interval statistics."""
    stats = list(stats)
    return (
        np.array([s.value for s in stats], dtype=float),
        np.array([s.reliable for s in stats], dtype=bool),
    )


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_batch(c, args, kwargs, result):
    crosses = np.asarray(_arg(args, kwargs, 1, "crosses"))
    lams = np.asarray(_arg(args, kwargs, 2, "lams"), dtype=float)
    c["problems"] += crosses.shape[0]
    if crosses.shape[0]:
        c["screened"] += int(np.sum(2.0 * np.abs(crosses).max(axis=(1, 2)) <= lams))
    c["unconverged"] += int(np.sum(~np.asarray(result[1], dtype=bool)))


def _count_prefix(c, args, kwargs, result):
    panel = _arg(args, kwargs, 1, "panel")
    q = int(_arg(args, kwargs, 3, "q"))
    n, p = panel.values.shape
    m = p * q
    prefix = (n - q + 1) * (m * m + m * p) * 8
    c["prefix_bytes"] = max(c["prefix_bytes"], prefix)


def _count_scan(c, args, kwargs, result):
    values, reliable = stat_arrays(result)
    c["zero_stats"] += int(np.sum(values == 0.0))
    c["unreliable"] += int(np.sum(~reliable))


def _count_step(c, args, kwargs, result):
    values, _ = stat_arrays(result)
    c["steps"] += 1
    c["window_stats"] += values.size
    c["zero_windows"] += int(np.sum(values == 0.0))


def _count_simulate(c, args, kwargs, result):
    c["simulate_calls"] += 1


COUNTERS = {
    "estimation.lasso_cd_gram_batch": _count_batch,
    "interval_stats.PanelScanner.__init__": _count_prefix,
    "interval_stats.PanelScanner.scan": _count_scan,
    "detection.OnlineDetector.step": _count_step,
    "var_model.simulate": _count_simulate,
}


class Tracer:
    """Span recorder; wrappers are installed and removed as a group."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.excluded: list[float] = []
        self.counters: dict[str, int] = dict.fromkeys(RAW_COUNTERS, 0)
        self.unmeasured: set[str] = set()
        self.counter_errors: set[str] = set()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.excluded.append(0.0)
        self._stack.append(sid)
        return sid

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; used for the benchmark's own per-operation root span."""
        sid = self._open(name)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[sid] = perf_counter()
            self.starts[sid] = t0
            self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._open(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.starts[sid] = t0
                tracer.ends[sid] = t1
                tracer._stack.pop()
            if count is not None:
                try:
                    count(tracer.counters, args, kwargs, result)
                except Exception:  # a changed signature or result shape
                    tracer.counter_errors.add(name)
                if tracer._stack:
                    tracer.excluded[tracer._stack[-1]] += perf_counter() - t1
            return result

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "varanom" or k.startswith("varanom.")]
        for name, module_name, attr, where in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
                if where == "class":
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original, self._wrap(name, original))
                    continue
                original = getattr(module, attr)
            except (ImportError, AttributeError, KeyError):
                self.unmeasured.add(name)
                continue
            wrapped = self._wrap(name, original)
            sites = modules if where == "all" else [sys.modules.get(where)]
            for site in sites:
                if site is not None and getattr(site, attr, None) is original:
                    self._patch(site, attr, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries -------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        parents = np.asarray(self.parents, dtype=int)
        dur = ends - starts
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child - np.asarray(self.excluded)
        out: dict[str, float] = {}
        for name, t in zip(self.names, own):
            out[name] = out.get(name, 0.0) + float(t)
        return out

    def layer_metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer self times and computed counters, and the metrics left unmeasured.

        A metric is unmeasured when its entry point is missing or the
        arguments or result of that entry point no longer have the expected
        shape.
        """
        own = self.self_times()
        c = self.counters
        out = {metric: sum(own.get(s, 0.0) for s in spans) for metric, spans in LAYER_TIMES.items()}
        out.update({
            "estimation.lasso_problems": c["problems"],
            "estimation.screened_frac": c["screened"] / max(c["problems"], 1),
            "estimation.unconverged": c["unconverged"],
            "interval_stats.prefix_bytes": c["prefix_bytes"],
            "interval_stats.zero_stats": c["zero_stats"],
            "interval_stats.unreliable": c["unreliable"],
            "var_model.simulate_calls": c["simulate_calls"],
            "detection.online_windows": c["window_stats"] / max(c["steps"], 1),
            "detection.online_zero_frac": c["zero_windows"] / max(c["window_stats"], 1),
        })
        missing = self.unmeasured | self.counter_errors
        unmeasured = [m for m, spans in LAYER_TIMES.items() if all(s in self.unmeasured for s in spans)]
        unmeasured += [m for m, span in COUNTED.items() if span in missing]
        return out, sorted(unmeasured)

    def write(self, path) -> None:
        """Write the spans as JSON lines: id, name, op, parent, start, end (seconds)."""
        t0 = min(self.starts) if self.starts else 0.0
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "op": self.ops[i], "parent": self.parents[i],
                    "start": self.starts[i] - t0, "end": self.ends[i] - t0,
                }) + "\n")
