"""Fixed-seed digests of varanom's results, to show that a change is bitwise.

    python3 tools/digest.py

Prints one SHA-256 per item, then a total over the items. Every input is
drawn from fixed seeds, so two source trees that compute bitwise the same
results print the same lines. To check a change, run the script in a copy
of the parent commit (``git archive``) and in the change, and compare. The
library is imported from ``src/`` of the checkout the script lives in.

Items:

* ``scan/<method>-<lambda_scale>/<policy>/<sigma>/q<q>``: the columns
  (start, end, value, lambda, nonzero, reliable) of ``PanelScanner.scan``
  for OLS and for lasso at a penalty scale that screens no interval and at
  one that screens some, under the three penalty policies, unwhitened and
  whitened by a non-identity sigma, at q = 1 and q = 2;
* ``calibration/<case>``: ``calibrate_threshold`` maxima, threshold and the
  unreliable and pruned counts at p = 10, T = 500 over 1078 seeded
  intervals, for the three lasso policies, a whitened case, a 20-sweep
  budget and OLS, and at q = 2 for p = 3;
* ``online/max`` and ``online/alarms``: ``online_max_statistic`` of null
  streams and the ``detect_online`` alarms of streams with a change, under
  the three policies and a whitening sigma;
* ``pipeline/<case>/<file>``: the bytes of a small ``run_pipeline`` detect
  run's CSV files and of its ``manifest.json`` without the ``data_path``
  field, for lasso under global and (with an estimated sigma)
  interval_linear, and for OLS.

It takes about 10 s on a 2-vCPU machine.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from varanom import (  # noqa: E402
    RunConfig,
    SolverOptions,
    StatConfig,
    VarParams,
    calibrate_threshold,
    detect_online,
    generate_dense_stationary,
    run_pipeline,
    save_panel,
    seeded_intervals,
    simulate,
    simulate_episodes,
)
from varanom.detection import online_max_statistic  # noqa: E402
from varanom.interval_stats import LAMBDA_POLICIES, PanelScanner, default_lambda  # noqa: E402


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _covariance(p: int, seed: int) -> np.ndarray:
    a = np.random.default_rng(seed).standard_normal((p, p))
    return 0.2 * (a @ a.T) + 0.5 * np.eye(p)


def _law(p: int, q: int, seed: int, cov: np.ndarray | None = None) -> VarParams:
    a = generate_dense_stationary(p, seed=seed).coeffs[0]
    return VarParams((a / q,) * q, np.eye(p) if cov is None else cov)


def scans() -> dict[str, str]:
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
                    out[f"scan/{method}-{scale}/{policy}/{name}/q{q}"] = _sha(
                        starts, ends,
                        np.array([s.value for s in stats], dtype=float),
                        np.array([s.lam for s in stats], dtype=float),
                        np.array([s.nonzero for s in stats], dtype=np.int64),
                        np.array([s.reliable for s in stats], dtype=bool),
                    )
    return out


def calibrations() -> dict[str, str]:
    rng = np.random.default_rng(21)
    a = rng.uniform(-1.0, 1.0, size=(10, 10))
    a *= 0.7 / np.max(np.abs(np.linalg.eigvals(a)))
    law = VarParams((a,), np.eye(10))
    ivs = seeded_intervals(500, 11, 1 / 1.1, q=1)
    cases = {f"lasso/{policy}": StatConfig(lambda_policy=policy) for policy in LAMBDA_POLICIES}
    cases["lasso/interval_linear/sigma"] = StatConfig(
        lambda_policy="interval_linear", sigma=_covariance(10, 22)
    )
    cases["lasso/global/20-sweeps"] = StatConfig(solver=SolverOptions(max_iterations=20))
    cases["ols"] = StatConfig(method="ols")
    out = {}
    for name, config in cases.items():
        cal = calibrate_threshold(law, ivs, config, runs=10, seed=23)
        out[f"calibration/{name}"] = _sha(
            cal.max_statistics, np.array([cal.threshold, cal.unreliable, cal.pruned], dtype=float)
        )
    small = _law(3, 2, seed=24)
    cal = calibrate_threshold(
        small, seeded_intervals(160, 8, 1 / 1.1, q=2),
        StatConfig(lambda_policy="interval_linear", lambda_scale=0.1), runs=10, seed=25,
    )
    out["calibration/lasso/q2"] = _sha(
        cal.max_statistics, np.array([cal.threshold, cal.unreliable, cal.pruned], dtype=float)
    )
    return out


def online() -> dict[str, str]:
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
    return {
        "online/max": _sha(np.array(maxima, dtype=float)),
        "online/alarms": _sha(np.array(alarms, dtype=float)),
    }


def pipelines() -> dict[str, str]:
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
                out[f"pipeline/{name}/{path.name}"] = hashlib.sha256(body).hexdigest()
    return out


def main() -> None:
    items = {**scans(), **calibrations(), **online(), **pipelines()}
    total = hashlib.sha256()
    for name, digest in items.items():
        print(f"{digest}  {name}")
        total.update(f"{name} {digest}\n".encode())
    print(f"{total.hexdigest()}  total")


if __name__ == "__main__":
    main()
