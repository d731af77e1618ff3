"""Memory of the benchmark's pipeline-ols-p50 OLS runs, of p = 50 and p = 10 lasso requests and of online calibration.

    python3 tools/memory.py [--against PARENT_CHECKOUT]

Four runs at that workload's sizes (p = 50, q = 1), four lasso ones and two
online ones, on fixed seeds:

* ``scanner``: a ``PanelScanner`` over a T = 2000 panel, the length of the
  pipeline's test slice, and one OLS ``scan`` of
  ``seeded_intervals(2000, 51, 1 / 1.1)``: the scan walks the set in
  end-row order, one kernel chunk of 52 intervals at a time, and builds
  each prefix row it reads into a pool slot held only until its last
  reader is done (at most 148 of the 1061 rows it reads);
* ``detect_single``: an OLS ``detect_single`` of that panel over
  ``seeded_intervals(2000, 51, 1 / 1.1)``, threshold 1e9;
* ``pipeline``: ``run_pipeline(stage="detect")`` with OLS and 10 calibration
  runs on a T = 4000 CSV panel;
* ``calibrate``: an OLS ``calibrate_threshold`` of 10 runs at T = 1000 over
  ``seeded_intervals(1000, 51, 1 / 1.1)``, made after one ``detect_single``
  of the T = 2000 panel (outside the measurement), as the calibration of a
  second ``run_pipeline`` in a process follows the first one's detection;
* ``lasso-detect-p50`` and ``lasso-max-p50``: a lasso ``detect_multiple``,
  at a threshold above every statistic, and a lasso ``max_statistic`` of a
  T = 1000 panel over 2000 ``random_intervals`` under ``interval_linear``:
  both bracket the set as one chunk, so they hold every prefix row the set
  reads, and screen and solve it in batches of 52 intervals;
* ``calib-lasso-p10`` and ``detect-lasso-p10``: at the benchmark's
  ``calib-lasso-p10`` settings (p = 10, T = 500, the 1078
  ``seeded_intervals(500, 11, 1 / 1.1)``, lasso under ``interval_linear``),
  one ``calibrate_threshold(runs=1)`` null run, as a benchmark operation
  makes it, with a fresh scanner, and one ``detect_multiple`` of a
  two-anomaly panel at threshold 100; each is measured after one warm-up
  call of its own kind, so that it shows the steady state of a process
  making such runs one after another;
* ``online-p50`` and ``online-p10``: ``online_max_statistic`` of one
  T = 4096 null stream at p = 50 and at p = 10 (q = 1), at the online
  study's penalty policy, ``interval_sqrt`` at scale 3: the scanner walks
  every window of the stream, a kernel chunk at a time.

Every run is made twice, each time in a fresh subprocess: once under
``tracemalloc``, which prints the peak of the allocations the run itself
makes (its inputs are built before tracing starts), and once untraced,
which prints ``ru_maxrss``, the peak resident set of the whole process, its
growth over the run, the VmRSS after the run returns and its growth
over the run, which counts freed memory the C heap keeps resident, and
``minflt``, the minor page faults (``ru_minflt``) the run makes, the fresh
pages it touches. Both
print ``pool_rows``, the most prefix rows held at the end of the run by a
``PanelScanner`` made during it. With ``--against``, each run is also made with the
library in ``src/`` of PARENT_CHECKOUT (for instance a ``git archive`` of
the parent commit), alternating which tree goes first, and the table gains
the parent's figures and the change over the parent. The panels come from
the library's own ``simulate``, so both trees see the same inputs wherever
that function is unchanged. It takes about 100 s on a 2-vCPU machine.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = (
    "scanner", "detect_single", "pipeline", "calibrate", "lasso-detect-p50", "lasso-max-p50",
    "calib-lasso-p10", "detect-lasso-p10", "online-p50", "online-p10",
)
P, TEST_ROWS, PANEL_ROWS, CALIBRATION_ROWS, STREAM_ROWS, LASSO_INTERVALS = 50, 2000, 4000, 1000, 4096, 2000


def _prepare(run: str, work: Path):
    """The run's inputs and a function that makes the run."""
    import numpy as np
    import varanom as vm
    from varanom.experiments import dense_base_with_change

    if run.endswith("lasso-p10"):
        intervals = vm.seeded_intervals(500, 11, 1 / 1.1, q=1)
        config = vm.StatConfig(lambda_policy="interval_linear")
        base, theta = dense_base_with_change(10, 0.6, 5, seed=22)
        if run == "calib-lasso-p10":
            vm.calibrate_threshold(base, intervals, config, runs=1, seed=23)  # the warm-up run
            return lambda: vm.calibrate_threshold(base, intervals, config, runs=1, seed=24)
        panel = vm.simulate_episodes(base, [((133, 166), theta), ((333, 366), theta)], 500, seed=25)
        vm.detect_multiple(panel, base.stacked, intervals, config, 100.0, q=1)  # the warm-up run
        return lambda: vm.detect_multiple(panel, base.stacked, intervals, config, 100.0, q=1)
    if run.startswith("online"):
        p = int(run[len("online-p"):])
        law = vm.generate_dense_stationary(p, seed=15)
        stream = vm.simulate(law, STREAM_ROWS, seed=19).values
        lam = vm.default_lambda(2, p, STREAM_ROWS, 3.0)
        return lambda: vm.detection.online_max_statistic(stream, law.stacked, 1, lam, lambda_policy="interval_sqrt")
    law = vm.generate_dense_stationary(P, seed=15)
    if run.startswith("lasso"):
        panel = vm.simulate(law, CALIBRATION_ROWS, seed=20)
        intervals = vm.random_intervals(CALIBRATION_ROWS, P + 1, LASSO_INTERVALS, seed=21, q=1)
        config = vm.StatConfig(lambda_policy="interval_linear")
        if run == "lasso-max-p50":
            return lambda: vm.PanelScanner(panel, law.stacked, 1).max_statistic(intervals, config)
        return lambda: vm.detect_multiple(panel, law.stacked, intervals, config, 1e9, q=1)
    if run == "pipeline":
        path = work / "panel.csv"
        np.savetxt(path, vm.simulate(law, PANEL_ROWS, seed=16).values, delimiter=",", fmt="%.17g")
        config = vm.RunConfig(method="ols", calibration_runs=10)
        return lambda: vm.run_pipeline(config, path, work / "out", stage="detect")
    panel = vm.simulate(law, TEST_ROWS, seed=17)
    intervals = vm.seeded_intervals(TEST_ROWS, P + 1, 1 / 1.1, q=1)
    config = vm.StatConfig(method="ols")
    if run == "scanner":
        return lambda: vm.PanelScanner(panel, law.stacked, 1).scan(intervals, config)
    if run == "calibrate":
        vm.detect_single(panel, law.stacked, intervals, config, 1e9, q=1)
        calibration = vm.seeded_intervals(CALIBRATION_ROWS, P + 1, 1 / 1.1, q=1)
        return lambda: vm.calibrate_threshold(law, calibration, config, runs=10, seed=18)
    return lambda: vm.detect_single(panel, law.stacked, intervals, config, 1e9, q=1)


def _vmrss_mb() -> float:
    """The resident set of this process now, from /proc/self/status (Linux)."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmRSS in /proc/self/status")


def child(run: str, src: Path, traced: bool) -> dict:
    """One run in this process, with the library imported from ``src``."""
    sys.path.insert(0, str(src))
    from varanom import PanelScanner

    with tempfile.TemporaryDirectory() as tmp:
        go = _prepare(run, Path(tmp))
        scanners = []
        init = PanelScanner.__init__

        def record(self, *args, **kwargs):
            scanners.append(self)
            init(self, *args, **kwargs)

        PanelScanner.__init__ = record
        before = resource.getrusage(resource.RUSAGE_SELF)
        resident = _vmrss_mb()
        start = time.perf_counter()
        if traced:
            tracemalloc.start()
            go()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return {"traced_peak_mb": peak / 1e6, "pool_rows": _pool_rows(scanners)}
        go()
        seconds = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)  # ru_maxrss in kB on Linux
        return {
            "maxrss_mb": after.ru_maxrss / 1024, "maxrss_growth_mb": (after.ru_maxrss - before.ru_maxrss) / 1024,
            "vmrss_mb": _vmrss_mb(), "vmrss_left_mb": _vmrss_mb() - resident, "seconds": seconds,
            "minflt": after.ru_minflt - before.ru_minflt, "pool_rows": _pool_rows(scanners),
        }


def _pool_rows(scanners: list) -> int:
    """The most prefix rows any of ``scanners`` holds now."""
    return max((len(s._gram_prefix) for s in scanners), default=0)


def measure(run: str, src: Path) -> dict:
    """Both measurements of a run, each from a fresh subprocess."""
    out = {}
    for traced in (True, False):
        cmd = [sys.executable, __file__, "--child", run, "--src", str(src), "--traced", str(int(traced))]
        done = subprocess.run(cmd, check=True, capture_output=True, text=True)
        out.update(json.loads(done.stdout.splitlines()[-1]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, help="checkout of the parent commit")
    parser.add_argument("--child", choices=RUNS, help=argparse.SUPPRESS)
    parser.add_argument("--src", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child, args.src, bool(args.traced))))
        return 0
    trees = {"change": ROOT / "src"}
    if args.against is not None:
        parent = args.against.resolve() / "src"
        if not (parent / "varanom" / "__init__.py").is_file():
            raise SystemExit(f"no src/varanom under {args.against}")
        trees["parent"] = parent
    results = {}
    for i, run in enumerate(RUNS):
        order = list(trees) if i % 2 else list(reversed(trees))
        results[run] = {side: measure(run, trees[side]) for side in order}
    fields = (
        "traced_peak_mb", "maxrss_mb", "maxrss_growth_mb", "vmrss_mb", "vmrss_left_mb", "seconds", "minflt",
        "pool_rows",
    )
    print("run              tree    " + "  ".join(f"{f:>16s}" for f in fields))
    for run, sides in results.items():
        for side in trees:
            print(f"{run:16s} {side:7s} " + "  ".join(f"{sides[side][f]:16.2f}" for f in fields))
        if "parent" in sides:
            ratios = (sides["change"][f] / sides["parent"][f] for f in fields[:2])
            print(f"{run:16s} {'ratio':7s} " + "  ".join(f"{r:16.3f}" for r in ratios))
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
