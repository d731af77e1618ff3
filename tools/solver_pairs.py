"""Time this tree's batched lasso solver against a parent checkout's, in one process.

    python3 tools/solver_pairs.py PARENT_CHECKOUT [--case p10|p50] [--pairs N]

With this tree's library, the script first records every
``lasso_cd_gram_batch`` call (grams, crosses, penalties, tolerance and
sweep budget) that fixed-seed scans and null calibrations make:

* ``p10`` (default): 6 ``detect_multiple`` scans of p = 10, T = 500 panels
  with two anomalies, on rows 133-166 and 333-366, and 20
  ``calibrate_threshold`` null runs, over the 1078 seeded intervals of
  ``seeded_intervals(500, 11, 1 / 1.1)`` under ``interval_linear``
  penalties, the settings of the benchmark's ``calib-lasso-p10`` workload;
* ``p50``: one ``PanelScanner.scan`` of a null p = 50, T = 1000 panel and one
  with an anomaly on rows 400-550, over the 402 intervals of
  ``seeded_intervals(1000, 51, 1 / 1.1)`` at the default penalties.

It then copies ``src/varanom`` of PARENT_CHECKOUT (for instance a
``git archive`` of the parent commit) to a temporary directory, imports it
as the package ``varanom_parent`` and solves every recorded batch with both
trees' ``lasso_cd_gram_batch``, in alternating order: the parent goes first
in the 1st, 3rd, 5th ... pair. For each kind of batch it prints each side's
median seconds per pass with the quartiles, the parent-over-change ratio of
the medians and the number of pairs the change was faster, and then whether
every output (coefficients and converged flags) is bitwise the parent's.

Both trees run in the same process on the same inputs, so the pairs see the
same machine state; on a shared 2-vCPU host fresh-process pairs swing by
10-30%, which hides gains of that size.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import varanom  # noqa: E402
from varanom import (  # noqa: E402
    PanelScanner,
    StatConfig,
    calibrate_threshold,
    detect_multiple,
    seeded_intervals,
    simulate,
    simulate_episodes,
)
from varanom import interval_stats  # noqa: E402
from varanom.experiments import dense_base_with_change  # noqa: E402


def capture(run) -> list[tuple]:
    """The arguments of every batched solver call that ``run()`` makes."""
    calls = []
    solve = interval_stats.lasso_cd_gram_batch

    def record(grams, crosses, lams, tolerance, max_iterations):
        calls.append((grams.copy(), crosses.copy(), np.array(lams), tolerance, max_iterations))
        return solve(grams, crosses, lams, tolerance, max_iterations)

    interval_stats.lasso_cd_gram_batch = record
    try:
        run()
    finally:
        interval_stats.lasso_cd_gram_batch = solve
    return calls


def p10_batches() -> dict[str, list[tuple]]:
    base, theta = dense_base_with_change(10, 0.6, 5, seed=0)
    intervals = seeded_intervals(500, 11, 1 / 1.1, q=1)
    config = StatConfig(method="lasso", lambda_policy="interval_linear")
    episodes = [((133, 166), theta), ((333, 366), theta)]

    def scan():
        for s in range(6):
            panel = simulate_episodes(base, episodes, 500, seed=100 + s)
            detect_multiple(panel, base.stacked, intervals, config, 1e9, q=1)

    def null():
        for s in range(20):
            calibrate_threshold(base, intervals, config, runs=1, seed=200 + s)

    return {"scan": capture(scan), "null": capture(null)}


def p50_batches() -> dict[str, list[tuple]]:
    base, theta = dense_base_with_change(50, 0.6, 25, seed=0)
    intervals = seeded_intervals(1000, 51, 1 / 1.1, q=1)
    config = StatConfig()
    panels = {
        "null": simulate(base, 1000, seed=300),
        "anomaly": simulate_episodes(base, [((400, 550), theta)], 1000, seed=301),
    }

    def scan(panel):
        return lambda: PanelScanner(panel, base.stacked, 1).scan(intervals, config)

    return {kind: capture(scan(panel)) for kind, panel in panels.items()}


def import_parent(checkout: Path, where: Path):
    """The parent's ``varanom.estimation``, imported as ``varanom_parent``."""
    source = checkout / "src" / "varanom"
    if not (source / "estimation.py").is_file():
        raise SystemExit(f"no src/varanom/estimation.py under {checkout}")
    shutil.copytree(source, where / "varanom_parent", ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(where))
    return importlib.import_module("varanom_parent.estimation")


def solve_all(solver, batches) -> tuple[float, list]:
    start = time.perf_counter()
    outs = [solver(*batch) for batch in batches]
    return time.perf_counter() - start, outs


def bitwise(a: list, b: list) -> bool:
    return all(
        x.tobytes() == y.tobytes() and cx.tobytes() == cy.tobytes()
        for (x, cx), (y, cy) in zip(a, b)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--case", choices=["p10", "p50"], default="p10")
    parser.add_argument("--pairs", type=int, default=12)
    args = parser.parse_args(argv)
    batches = p10_batches() if args.case == "p10" else p50_batches()
    with tempfile.TemporaryDirectory() as tmp:
        parent = import_parent(args.parent.resolve(), Path(tmp))
        sides = {
            "parent": parent.lasso_cd_gram_batch,
            "change": varanom.estimation.lasso_cd_gram_batch,
        }
        seconds = {kind: {side: [] for side in sides} for kind in batches}
        same = True
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for kind, calls in batches.items():
                outs = {}
                for side in order:
                    elapsed, outs[side] = solve_all(sides[side], calls)
                    seconds[kind][side].append(elapsed)
                same = same and bitwise(outs["parent"], outs["change"])
    print(f"case {args.case}, {args.pairs} alternating pairs, seconds per pass over the batches")
    for kind, calls in batches.items():
        problems = sum(len(call[2]) for call in calls)
        t = {side: np.array(v) for side, v in seconds[kind].items()}
        print(f"{kind}: {len(calls)} batches, {problems} problems")
        for side, v in t.items():
            q25, q50, q75 = np.percentile(v, [25, 50, 75])
            print(f"  {side:6s} median {q50:.4f}  quartiles {q25:.4f} {q75:.4f}")
        wins = int((t["change"] < t["parent"]).sum())
        ratio = np.median(t["parent"]) / np.median(t["change"])
        print(f"  parent / change medians {ratio:.3f}, change faster in {wins} of {args.pairs}")
    print("outputs: " + ("bitwise the parent's" if same else "DIFFERENT from the parent's"))
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
