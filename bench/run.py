"""varanom benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload calib-lasso-p10 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else. The seed draws a fixed list of
operations (one pass) whose size is set by ``--seconds``, so that the
workload's fixed number of passes takes about that long. The run makes
those passes; an operation's first pass is checked in full and every later
pass must give the same result. Each operation's time is its fastest pass
(per step, where a workload times steps), which keeps bursts of other load
on a shared machine out of the figures. With ``--trace 0`` the run
measures the end-to-end metrics with no wrappers installed. With
``--trace 1`` every operation runs twice on the same inputs, first
untraced and then with spans around the library's public entry points, and
the run reports per-layer self times, computed counters and the tracing
overhead (traced minus untraced time). The last line of standard output is
one JSON object; the lines before it name each metric with its unit.
``--write-reference`` recomputes the stored fixed-seed reference after
checking it against the oracle on every interval.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"
# Set-up is sampled this many times, spread over the run, so that its median
# sees the same machine conditions as the timed operations.
SETUP_SAMPLES = 20
# No pass starts that would end, at the last pass's pace, after this many times
# --seconds, and no operation starts after it.
OVERRUN = 1.3
# Per-layer metrics that are not totals, so are not divided by the passes.
LAYER_INTENSIVE = {
    "estimation.screened_frac", "interval_stats.prefix_bytes", "detection.online_windows",
    "detection.online_zero_frac", "trace.overhead_frac",
}

E2E_UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "estimation.lasso_batch_s": "s",
    "estimation.lasso_problems": "count",
    "estimation.screened_frac": "fraction",
    "estimation.unconverged": "count",
    "estimation.baseline_s": "s",
    "interval_stats.window_stat_s": "s",
    "interval_stats.prefix_build_s": "s",
    "interval_stats.prefix_bytes": "bytes",
    "interval_stats.scan_self_s": "s",
    "interval_stats.zero_stats": "count",
    "interval_stats.unreliable": "count",
    "var_model.simulate_s": "s",
    "var_model.simulate_calls": "count",
    "detection.online_step_s": "s",
    "detection.online_windows": "count",
    "detection.online_zero_frac": "fraction",
    "detection.calibrate_s": "s",
    "detection.select_s": "s",
    "panels.load_s": "s",
    "pipeline.self_s": "s",
    "intervals.build_s": "s",
    "trace.traced_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
}


def _library_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "varanom" or k.startswith("varanom.")}


def timed_setup(wl):
    """Time a fresh import of varanom from src/ plus the workload's set-up.

    The first call keeps the fresh modules; later calls restore the modules
    already in use, so every operation and wrapper sees one library instance.
    """
    saved = _library_modules()
    for name in saved:
        del sys.modules[name]
    t0 = perf_counter()
    vm = importlib.import_module("varanom")
    st = wl.setup(vm)
    seconds = perf_counter() - t0
    if Path(vm.__file__).resolve().parent != SRC / "varanom":
        raise ImportError(f"varanom imported from {vm.__file__}, not from {SRC}")
    if saved:
        for name in _library_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    return seconds, st


def blas_facts() -> dict:
    """BLAS vendor, version and the thread count it will use."""
    import numpy as np

    facts = {"blas": None, "blas_version": None, "blas_threads": None}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        facts["blas"], facts["blas_version"] = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "MKL_Get_Max_Threads", "bli_thread_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = int(fn())
                return facts
    return facts


def machine_facts(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        **blas_facts(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "seed": seed,
    }


def make_workload(name: str):
    import workloads

    if name == "calib-lasso-p10":
        return workloads.CalibLasso()
    if name == "pipeline-ols-p50":
        return workloads.PipelineOls(WORK)
    if name == "online-p10":
        return workloads.OnlineReplay()
    raise SystemExit(f"unknown workload {name!r}")


def compare_reference(name: str, found: dict) -> list:
    import workloads

    stored = json.loads(REFERENCE.read_text())[name]
    errs = []
    for key, want in stored.items():
        got = found.get(key)
        if isinstance(want, float):
            ok = got is not None and workloads.close(got, want)
        elif isinstance(want, list) and want and isinstance(want[0], float):
            ok = got is not None and len(got) == len(want) and all(map(workloads.close, got, want))
        else:
            ok = got == want
        if not ok:
            errs.append(f"reference {key}: got {got!r}, stored {want!r}")
    return errs


def run_op(op, tracer, index: int, traced_first: bool, first=None) -> tuple[dict, list, object]:
    """Time one operation and check its result.

    The first pass of an operation is checked in full; a later pass must
    give the same result as the first (``first``). When tracing, the
    operation runs twice on the same inputs, once plain and once traced, in
    the order the caller alternates so that warm caches favour neither side;
    both results must agree, and the difference of the two times is the
    tracing overhead.
    """
    rec = {"kind": op.kind}
    errs = []
    result = None
    try:
        traced_first = tracer is not None and traced_first
        if traced_first:
            traced = _traced_pass(op, tracer, index, rec)
        t0 = perf_counter()
        result = op.run()
        rec["seconds"] = perf_counter() - t0
        if tracer is not None:
            if not traced_first:
                traced = _traced_pass(op, tracer, index, rec)
            if not op.same(result, traced):
                errs.append("traced and plain results differ")
        rec["units"] = op.units(result) if callable(op.units) else op.units
        if op.latencies is not None:
            rec["latencies"] = op.latencies(result)
        if first is None:
            errs += op.check(result)
        elif not op.same(result, first):
            errs.append("result differs from the checked first pass")
    except Exception:
        errs.append(traceback.format_exc(limit=4))
    return rec, errs, result


def fastest(recs: list) -> dict:
    """One operation's record at its fastest pass; update latencies are the per-step minimum."""
    best = dict(min(recs, key=lambda r: r["seconds"]))
    lats = [r["latencies"] for r in recs if "latencies" in r]
    if lats and all(len(x) == len(lats[0]) for x in lats):
        best["latencies"] = [min(step) for step in zip(*lats)]
    return best


def _traced_pass(op, tracer, index: int, rec: dict):
    tracer.op = index
    tracer.install()
    try:
        t0 = perf_counter()
        result = tracer.span("op." + op.kind, op.run)
        rec["traced_seconds"] = perf_counter() - t0
    finally:
        tracer.uninstall()
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds positive")
    if not (SRC / "varanom" / "__init__.py").is_file():
        print(f"no library source at {SRC / 'varanom'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    wl = make_workload(args.workload)
    seconds, st = timed_setup(wl)
    setups = [seconds]
    machine = machine_facts(args.seed)

    # Fixed-seed reference: exact drift check, and the warm-up before timing.
    if args.write_reference:
        found, ctx = wl.reference(st)
        errs = wl.verify_reference(st, found, ctx)
        if errs:
            print("\n".join(errs), file=sys.stderr)
            return 1
        stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        stored[wl.name] = found
        REFERENCE.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
        print(f"wrote the {wl.name} reference to {REFERENCE}")
        return 0
    try:
        found, _ = wl.reference(st)
        failures = compare_reference(wl.name, found)
    except Exception:
        found, failures = None, ["reference: " + traceback.format_exc(limit=4)]
    attempted, failed = 1, int(bool(failures))

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    # A traced pass runs every operation twice, so it gets half the rounds.
    rounds = max(1, round(args.seconds / (wl.passes * wl.round_seconds * (2 if args.trace else 1))))
    ops = list(wl.ops(st, args.seed, rounds))
    runs = [[] for _ in ops]
    firsts = [None] * len(ops)
    passes = 0
    start = pass_start = perf_counter()
    while passes < wl.passes:
        now = perf_counter()
        if passes and (now - start) + (now - pass_start) > OVERRUN * args.seconds:
            break
        pass_start = now
        for index, op in enumerate(ops):
            if perf_counter() - start > OVERRUN * args.seconds:
                break
            if len(setups) < SETUP_SAMPLES * (passes * len(ops) + index) / (wl.passes * len(ops)):
                setups.append(timed_setup(wl)[0])
            rec, errs, result = run_op(op, tracer, index, (passes + index) % 2 == 1, firsts[index])
            attempted += 1
            if errs:
                failed += 1
                failures += [f"{op.kind} #{index} pass {passes}: {e}" for e in errs]
            else:
                runs[index].append(rec)
                if firsts[index] is None:
                    firsts[index] = result
        passes += 1

    while len(setups) < SETUP_SAMPLES:
        setups.append(timed_setup(wl)[0])
    records = [fastest(recs) for recs in runs if recs]
    kinds = {r["kind"] for r in records}
    if kinds >= wl.kinds:
        e2e, named = wl.summarise(records)
    else:
        e2e, named = {"throughput_per_s": 0.0, "op_p50_ms": 0.0}, []
        failures.append(f"no successful {sorted(wl.kinds - kinds)} operation")
        failed = max(failed, 1)
    e2e["setup_s"] = statistics.median(setups)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named += [
        ("setup_s", e2e["setup_s"], "s", f"median of {len(setups)} fresh imports and set-ups"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "maximum resident set of the process"),
        ("failed_ops_frac", failed / attempted, "fraction", f"{failed} of {attempted} operations"),
        ("passes", passes, "count", f"of {len(ops)} operations each; an operation's time is its fastest pass"),
    ]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()}
        unmeasured = []
    else:
        layers, unmeasured = tracer.layer_metrics()
        done = [r for recs in runs for r in recs]
        traced = sum(r["traced_seconds"] for r in done)
        untraced = sum(r["seconds"] for r in done)
        own = tracer.self_times()
        layers.update({
            "trace.traced_s": traced,
            "trace.untraced_s": untraced,
            "trace.overhead_frac": (traced - untraced) / untraced if untraced else 0.0,
            "trace.unattributed_s": sum(t for n, t in own.items() if n.startswith("op.")),
            "trace.spans": len(tracer.names),
        })
        # Totals are per pass, so they do not grow with the number of passes that fit.
        layers = {k: v if k in LAYER_INTENSIVE else v / passes for k, v in layers.items()}
        traced /= passes
        metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}
        tracer.write(WORK / f"spans-{tag}.jsonl")
        for k in LAYER_UNITS:
            if k.endswith("_s") and not k.startswith("trace."):
                named.append((f"share of traced time: {k}", layers[k] / max(traced, 1e-12), "fraction", ""))

    print(f"# {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# machine " + json.dumps(machine))
    for name, value, unit, note in named:
        print(f"#   {name:<32} {value:.6g} {unit}  {note}")
    for k, m in metrics.items():
        mark = "  (unmeasured)" if k in unmeasured else ""
        print(f"#   {k:<32} {m['value']:.6g} {m['unit']}{mark}")
    for f in failures[:20]:
        print("# FAILED " + f.replace("\n", "\n#   "))
    (WORK / f"result-{tag}.json").write_text(json.dumps({
        "workload": wl.name, "machine": machine, "metrics": metrics, "unmeasured": unmeasured,
        "named": [{"name": n, "value": v, "unit": u, "note": s} for n, v, u, s in named],
        "setup_samples_s": setups, "reference": found, "failures": failures,
        "passes": passes,
        "records": [[{k: v for k, v in r.items() if k != "latencies"} for r in recs] for recs in runs],
        "fastest_latencies": [r.get("latencies") for r in records],
    }, indent=1, default=float) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
