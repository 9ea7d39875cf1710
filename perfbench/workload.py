"""One benchmark round in one process: set-up, then the whole run.

    python3 perfbench/workload.py --config CFG --setup-seconds S \
        [--target J] --result OUT.json [--trace]

Run from the root of a source checkout (the package is imported from
``src``).  The round

1. loads the config and builds the pipeline again and again until
   ``--setup-seconds`` have passed, at least 3 times (``setup_s`` is the
   median);
2. runs ``igatop optimize --config CFG`` in this process, timed as
   ``wall_s``, with the CLI's output going to ``cli.log`` beside the
   results.  Light wrappers time each objective evaluation of the run
   (``eval_ms`` is their median) and its iterates.

With ``--trace`` the run in step 2 is also traced (see tracing.py) and the
per-layer metrics are written; step 1 runs untraced either way, so traced
and untraced runs do the same work before the measured run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracing import Tracer, install  # noqa: E402


def _health_observers(health: dict):
    """Observers for the numerical-health counts of a traced run."""

    def dirichlet_range(disc):
        vals = disc.dirichlet_val
        lo, hi = float(vals.min()), float(vals.max())
        return lo, hi, 1e-6 * max(hi - lo, 1.0)

    def on_state(args, kwargs, sol):
        disc = sol.disc
        lo, hi, tol = dirichlet_range(disc)
        Tq = sol.at_quadrature()
        excursion = max(lo - float(Tq.min()), float(Tq.max()) - hi, 0.0)
        health["excursions"].append(excursion if excursion > tol else 0.0)
        sizes = _sizes(sol)
        health["ndof"] = sizes["ndof"]
        health["k_nnz"].append(sizes["k_nnz"])
        health["lu_nnz"].append(sizes["lu_nnz"])

    def on_sample(args, kwargs, result):
        disc = args[0]
        lo, hi, tol = dirichlet_range(disc)
        T = result[2]["T"]
        T = T[np.isfinite(T)]
        health["out_of_range_points"] += int(np.count_nonzero((T < lo - tol) | (T > hi + tol)))

    return {"solve_state": on_state, "sample_fields": on_sample}


def _count_line_searches(health: dict):
    """Rebind igatop.optimizer.line_search to count trial evaluations."""
    from igatop import optimizer

    orig = optimizer.line_search

    def line_search(f, *args, **kwargs):
        def counted(x):
            health["trials"] += 1
            return f(x)

        result = orig(counted, *args, **kwargs)
        health["searches"] += 1
        health["failed_searches"] += result is None
        return result

    optimizer.line_search = line_search


def _layer_metrics(tracer: Tracer, health: dict, info: dict, wall_s: float) -> dict:
    st = tracer.self_times()

    def calls(name):
        return st.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return st.get(name, (0, 0.0, 0.0))[1]

    def per_call_ms(name):
        n = calls(name)
        return 1e3 * self_s(name) / n if n else 0.0

    evals = calls("objectives.eval_total")
    top = sum(e - s for s, e, p in zip(tracer.start, tracer.end, tracer.parent) if p < 0)
    exc = health["excursions"]
    trials = health["trials"]
    accepted = health["searches"] - health["failed_searches"]
    return {
        "model.build_s": self_s("model.build"),
        "splines.tabulate_s": self_s("splines.tabulate"),
        "assembly.discretize_s": self_s("assembly.discretize"),
        "assembly.assemble_ms": per_call_ms("assembly.assemble"),
        "assembly.factor_ms": per_call_ms("assembly.factor"),
        "assembly.state_solve_ms": per_call_ms("assembly.state_solve"),
        "assembly.adjoint_ms": per_call_ms("assembly.adjoint"),
        "assembly.sensitivity_ms": per_call_ms("assembly.sensitivity"),
        "assembly.state_solves": calls("assembly.state_solve"),
        "assembly.ndof": health["ndof"],
        "assembly.k_nnz": max(health["k_nnz"], default=0),
        "assembly.lu_nnz": int(statistics.median(health["lu_nnz"])) if health["lu_nnz"] else 0,
        "assembly.bound_violations": sum(1 for e in exc if e > 0.0),
        "assembly.max_excursion_K": max(exc, default=0.0),
        "objectives.reference_s": st.get("objectives.reference", (0, 0.0, 0.0))[2],
        "objectives.main_ms": per_call_ms("objectives.main"),
        "objectives.regularizers_ms": 1e3 * self_s("objectives.regularizers") / evals if evals else 0.0,
        "objectives.evaluations": evals,
        "levelset.project_s": self_s("levelset.project"),
        "levelset.reinit_count": calls("levelset.reinit"),
        "levelset.reinit_s": self_s("levelset.reinit"),
        "levelset.interface_points_ms": per_call_ms("levelset.interface_points"),
        "optimizer.iterations": info.get("iterations", 0),
        "optimizer.line_search_trials": trials,
        "optimizer.failed_line_searches": health["failed_searches"],
        "optimizer.accepted_per_trial": accepted / trials if trials else 0.0,
        "optimizer.qp_ms": per_call_ms("optimizer.qp"),
        "optimizer.bfgs_ms": per_call_ms("optimizer.bfgs"),
        "export.sample_s": self_s("export.sample"),
        "export.write_s": self_s("export.write"),
        "export.out_of_range_points": health["out_of_range_points"],
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - top,
        "trace.spans": len(tracer.names),
    }


def _sizes(sol) -> dict:
    # SuperLU's own count of stored factor entries; reading .L or .U instead
    # would build and cache CSC copies of the factors on every LU kept alive
    return {"ndof": int(sol.disc.ndof), "k_nnz": int(sol.K.nnz), "lu_nnz": int(sol.lu.nnz)}


def _watch_optimize(info: dict, target: float | None):
    """Rebind igatop.cli.optimize, to time iterates through its record_hook,
    and the optimizer's eval_total, to time every objective evaluation."""
    from igatop import cli, optimizer

    orig_optimize, orig_eval = cli.optimize, optimizer.eval_total

    def eval_total(*args, **kwargs):
        t0 = time.perf_counter()
        val = orig_eval(*args, **kwargs)
        info["eval_s"].append(time.perf_counter() - t0)
        if "sizes" not in info:
            info["sizes"] = _sizes(val.state)
        return val

    def optimize(*args, record_hook=None, **kwargs):
        t0 = time.perf_counter()

        def hook(rec, state):
            if target is not None and "time_to_target_s" not in info and rec.j_main <= target:
                info["time_to_target_s"] = time.perf_counter() - t0
            if record_hook is not None:
                record_hook(rec, state)

        best, state, reason = orig_optimize(*args, record_hook=hook, **kwargs)
        info.update(iterations=state.iteration, fevals=state.fevals, stop_reason=reason)
        # without a target, or if it was never reached, the run's end stands in
        info.setdefault("time_to_target_s", time.perf_counter() - t0)
        return best, state, reason

    cli.optimize, optimizer.eval_total = optimize, eval_total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--target", type=float, default=None,
                    help="J_main at or below which an iterate is on target "
                         "(default: the end of the optimization)")
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-seconds", type=float, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from igatop import cli
    from igatop.config import RunConfig

    # 1. set-up, repeated
    setup, t_setup = [], time.perf_counter()
    while len(setup) < 3 or time.perf_counter() - t_setup < args.setup_seconds:
        t0 = time.perf_counter()
        cfg = RunConfig.load(args.config)
        pipe = cli.build_pipeline(cfg)
        setup.append(time.perf_counter() - t0)

    del pipe

    # 2. the run, as the CLI does it
    tracer, info, health = Tracer(), {"eval_s": []}, None
    if args.trace:
        health = {"excursions": [], "k_nnz": [], "lu_nnz": [], "ndof": 0,
                  "out_of_range_points": 0, "trials": 0, "searches": 0, "failed_searches": 0}
        install(tracer, _health_observers(health))
        _count_line_searches(health)
    _watch_optimize(info, args.target)
    outdir = RunConfig.load(args.config).data["output"]["dir"]
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "cli.log"), "w") as log, contextlib.redirect_stdout(log):
        tracer.active = args.trace
        t0 = time.perf_counter()
        rc = cli.main(["optimize", "--config", args.config])
        wall_s = time.perf_counter() - t0
        tracer.active = False

    result = {
        "rc": rc,
        "setup_s": statistics.median(setup),
        "eval_ms": 1e3 * statistics.median(info["eval_s"]) if info["eval_s"] else 0.0,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "info": info,
    }
    if args.trace:
        result["layers"] = _layer_metrics(tracer, health, info, wall_s)
        result["layers"]["process.peak_rss_mb"] = result["peak_rss_mb"]
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
