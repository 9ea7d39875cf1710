"""Benchmark of the igatop optimize command.

    python3 perfbench/run.py --workload annulus|cloak \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The seed is recorded; every seed
runs the same config (see README.md).  One round runs the workload once in
a fresh process (workload.py); a run does the workload's rounds and more
until ``--seconds`` have passed.  The outputs of every round are checked
against closed forms computed here (references.py) and against properties
the method must have; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics untraced, per-layer metrics traced).
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from references import (  # noqa: E402
    Annulus,
    plate_linear_field,
    uncloaked_disturbance_scale,
)

WORK = ".perfbench_work"
THREADS = str(min(2, os.cpu_count() or 1))
RUN_BUDGET_S = 170  # every round of a run must end within it (runs may take 180 s)
SETUP_SECONDS = 3.0  # a run repeats set-up for about this long, split over its rounds
ANNULUS_R_STAR, ANNULUS_J_STAR = Annulus().optimum()
CLOAK_TARGET = 1e-6  # the paper's cloak criterion on J_main

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "fevals": "count",
    "eval_ms": "ms",
    "time_to_target_s": "s",
}

PER_LAYER_UNITS = {
    "assembly.assemble_ms": "ms", "assembly.factor_ms": "ms",
    "assembly.state_solve_ms": "ms", "assembly.adjoint_ms": "ms",
    "assembly.sensitivity_ms": "ms", "assembly.max_excursion_K": "K",
    "objectives.main_ms": "ms", "objectives.regularizers_ms": "ms",
    "levelset.interface_points_ms": "ms", "optimizer.accepted_per_trial": "ratio",
    "optimizer.qp_ms": "ms", "optimizer.bfgs_ms": "ms", "process.peak_rss_mb": "MB",
}


def _unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


# -- workloads ---------------------------------------------------------------


# Both run their shipped start layouts for every seed: their optimizer paths
# are chaotic in the start (README.md).  The cloak stops at the paper's
# criterion instead of the 600-evaluation cap.
WORKLOADS = {
    "annulus": dict(base="configs/annulus.yaml", overrides={}, target=None, rounds=3),
    "cloak": dict(base="configs/cloak.yaml", overrides={"sqp": {"objective_limit": CLOAK_TARGET}},
                  target=CLOAK_TARGET, rounds=1),
}


def _merge(base: dict, extra: dict) -> dict:
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(base.get(k), dict):
            _merge(base[k], v)
        else:
            base[k] = v
    return base


def make_config(name: str, rundir: str):
    """Write the config the program receives for this workload; returns its
    path and the sha256 of its inputs (all but the output dir)."""
    wl = WORKLOADS[name]
    with open(wl["base"]) as f:
        raw = yaml.safe_load(f)
    cfg = _merge(raw, copy.deepcopy(wl["overrides"]))
    cfg.setdefault("output", {})["dir"] = None
    config_sha = hashlib.sha256(yaml.safe_dump(cfg, sort_keys=True).encode()).hexdigest()
    cfg["output"]["dir"] = os.path.join(rundir, "out")
    path = os.path.join(rundir, "config.yaml")
    with open(path, "w") as f:
        yaml.safe_dump(cfg, f, sort_keys=True)
    return path, config_sha


# -- checks ------------------------------------------------------------------


def _cli_value(outdir: str, key: str) -> float:
    with open(os.path.join(outdir, "cli.log")) as f:
        for line in f:
            if line.startswith(f"{key} = "):
                return float(line.split("=", 1)[1])
    raise ValueError(f"{key} not in the CLI output")


def _grid_field(outdir: str):
    """(x, y, T) of the exported grid points inside the domain."""
    data = np.genfromtxt(os.path.join(outdir, "field.csv"), delimiter=",", names=True)
    keep = np.isfinite(data["T"])
    return data["x"][keep], data["y"][keep], data["T"][keep]


def check_annulus(outdir: str, result: dict) -> list:
    j_main = _cli_value(outdir, "J_main")
    pts = np.genfromtxt(os.path.join(outdir, "interface.csv"), delimiter=",", skip_header=1)
    r_med = float(np.median(np.hypot(pts[:, 0], pts[:, 1])))
    _, _, T = _grid_field(outdir)
    tol = 1e-6 * 100.0
    return [
        ("final J_main within 1% of J*", abs(j_main / ANNULUS_J_STAR - 1.0) <= 0.01,
         f"J_main={j_main:.6g} J*={ANNULUS_J_STAR:.6g}"),
        ("median interface radius within 0.02 of R*", abs(r_med - ANNULUS_R_STAR) <= 0.02,
         f"median r={r_med:.5f} R*={ANNULUS_R_STAR:.5f}"),
        ("exported T within [0, 100] K", T.min() >= -tol and T.max() <= 100.0 + tol,
         f"T in [{T.min():.6g}, {T.max():.6g}]"),
    ]


def check_cloak(outdir: str, result: dict) -> list:
    j_main = _cli_value(outdir, "J_main")
    x, y, T = _grid_field(outdir)
    outside = np.hypot(x, y) > 50.0
    dev = float(np.max(np.abs(T[outside] - plate_linear_field(x[outside]))))
    scale = uncloaked_disturbance_scale()
    return [
        ("final J_main <= 1e-6", j_main <= CLOAK_TARGET, f"J_main={j_main:.4g}"),
        ("exterior field within 1% of G*R_band of the linear field", dev <= 0.01 * scale,
         f"max |T - T_lin| = {dev:.4g} K over {int(outside.sum())} points, G*R_band = {scale:.4g} K"),
    ]


CHECKS = {"annulus": check_annulus, "cloak": check_cloak}


def digest(outdir: str) -> str:
    """sha256 over the result files (everything but the CLI log)."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        if name == "cli.log":
            continue
        h.update(name.encode())
        with open(os.path.join(outdir, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


SAME_AS_EARLIER = "result files identical to an earlier run of the same program and config"


def check_repeatable(key: str, files: str) -> tuple:
    """Result files must match those of any earlier run in this checkout,
    traced or not, of the same program and config; ``key`` names both."""
    store = os.path.join(WORK, "digests.json")
    known = {}
    if os.path.exists(store):
        with open(store) as f:
            known = json.load(f)
    seen = known.get(key)
    if seen is None:
        known[key] = files
        with open(store, "w") as f:
            json.dump(known, f, indent=1, sort_keys=True)
        return (SAME_AS_EARLIER, True,
                "first run of this program and config here; digest stored")
    return (SAME_AS_EARLIER, seen == files,
            f"digest {files[:12]} vs earlier {seen[:12]}")


# -- run record --------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _source_digest() -> str:
    """sha256 over src/, naming the program when the checkout has no git."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def run_record(args, source_sha: str, sizes: dict) -> dict:
    import scipy

    return {
        "commit": _commit(),
        "source_sha256": source_sha,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas_threads": THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **sizes,
    }


# -- rounds ------------------------------------------------------------------


def run_round(args, wl: dict, config_path: str, rundir: str, timeout: float):
    """One round in a fresh process; returns (result, None) or (None, error)."""
    result_path = os.path.join(rundir, "round.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    shutil.rmtree(os.path.join(rundir, "out"), ignore_errors=True)  # no stale results
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--config", config_path,
           "--result", result_path, "--setup-seconds", repr(SETUP_SECONDS / wl["rounds"])]
    if wl["target"] is not None:
        cmd += ["--target", repr(wl["target"])]
    if args.trace:
        cmd.append("--trace")
    env = dict(os.environ, OMP_NUM_THREADS=THREADS, OPENBLAS_NUM_THREADS=THREADS,
               MKL_NUM_THREADS=THREADS, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, env=env, timeout=timeout, capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return None, "round timed out"
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = proc.stderr.strip().splitlines()[-1:]
        return None, tail[0] if tail else f"workload exited with code {proc.returncode}"
    with open(result_path) as f:
        result = json.load(f)
    if result["rc"] != 0:
        return None, f"igatop exited with code {result['rc']}"
    return result, None


def end_to_end(result: dict) -> dict:
    info = result["info"]
    return {
        "setup_s": result["setup_s"],
        "wall_s": result["wall_s"],
        "fevals": info["fevals"],
        "eval_ms": result["eval_ms"],
        "time_to_target_s": info["time_to_target_s"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded; every seed runs the shipped start layouts (README.md)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    if not os.path.isdir(os.path.join("src", "igatop")) or not os.path.exists(wl["base"]):
        print("perfbench: run from the root of an igatop source checkout "
              "(src/igatop and configs/ not found)", file=sys.stderr)
        return 2

    rundir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(rundir, exist_ok=True)
    config_path, config_sha = make_config(args.workload, rundir)
    source_sha = _source_digest()
    outdir = os.path.join(rundir, "out")

    start = time.perf_counter()
    rounds, checks, failed, attempted, digests = [], [], 0, 0, []
    slowest = 0.0
    while True:
        attempted += 1
        t_round = time.perf_counter()
        left = RUN_BUDGET_S - (t_round - start)
        result, err = run_round(args, wl, config_path, rundir, max(left, 1.0))
        slowest = max(slowest, time.perf_counter() - t_round)
        if result is None:
            failed += 1
            checks.append(("round completed", False, str(err)))
        else:
            rounds.append(result)
            try:
                checks.extend(CHECKS[args.workload](outdir, result))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                checks.append(("result files readable", False, repr(exc)))
            digests.append(digest(outdir))
        elapsed = time.perf_counter() - start
        # past the required rounds, start another only if it can finish in the budget
        done = attempted >= wl["rounds"] and (
            elapsed >= args.seconds or RUN_BUDGET_S - elapsed < slowest)
        if done or result is None:
            break
    if digests:
        checks.append(("result files identical across rounds", len(set(digests)) == 1,
                       f"{len(digests)} rounds"))
        key = f"{args.workload}:{source_sha}:{config_sha}"
        checks.append(check_repeatable(key, digests[0]))

    if rounds:
        record = run_record(args, source_sha, rounds[0]["info"].get("sizes", {}))
        with open(os.path.join(rundir, "run.json"), "w") as f:
            json.dump(record, f, indent=1)
    for name, ok, detail in checks:
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")

    metrics = {}
    if rounds:
        per_round = [r["layers"] if args.trace else end_to_end(r) for r in rounds]
        for name in per_round[0]:
            value = statistics.median(r[name] for r in per_round)
            unit = _unit(name) if args.trace else END_TO_END[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} = {value:.6g} {unit}")
    print(f"rounds attempted = {attempted}, failed = {failed}")
    correct = bool(rounds) and all(ok for _, ok, _ in checks)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
