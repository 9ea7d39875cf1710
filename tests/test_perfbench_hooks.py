"""The names the benchmark wraps, rebinds and reads must exist where it looks.

perfbench/tracing.py wraps every function in its TRACED table, and
perfbench/workload.py calls and rebinds a few names in cli and optimizer
and reads sizes and health off the solves.  A rename or move would
otherwise break only the benchmark run.
"""

import importlib
import importlib.util
import os
import sys

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from igatop import assembly, cli, optimizer
from igatop.assembly import solve_state
from igatop.config import RunConfig, build_pipeline
from igatop.export import sample_fields

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced():
    return _load("tracing").TRACED


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, *_ in _traced()])
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module,attr", [
    (cli, "build_pipeline"), (cli, "optimize"), (cli, "main"),
    (optimizer, "eval_total"), (optimizer, "line_search"),
])
def test_workload_name_resolves(module, attr):
    assert callable(getattr(module, attr))


def _names_read(fn) -> set:
    names, codes = set(), [fn.__code__]
    while codes:
        code = codes.pop()
        names |= set(code.co_names)
        codes += [c for c in code.co_consts if hasattr(c, "co_names")]
    return names


def test_rebound_names_are_read_at_call_time():
    # workload.py rebinds cli.optimize, optimizer.eval_total and
    # optimizer.line_search; tracing.py rebinds solve_qp_subproblem,
    # bfgs_update and reinitialize in every igatop module that binds them.
    # Their callers must read those module globals at call time, or the
    # benchmark's counts and its qp, bfgs and reinit spans silently drop out
    assert cli.optimize is optimizer.optimize
    assert "optimize" in _names_read(cli.cmd_optimize)
    assert {"eval_total", "reinitialize"} <= _names_read(optimizer.optimize)
    assert {"line_search", "solve_qp_subproblem", "bfgs_update"} <= _names_read(optimizer.minimize)


def test_workload_reads_a_real_evaluation(monkeypatch):
    # workload.py sizes the first evaluation of every round, and its traced
    # observer reads each state's Dirichlet values and quadrature values
    monkeypatch.setattr(sys, "path", sys.path[:])  # workload.py prepends its directory
    monkeypatch.setitem(sys.modules, "tracing", _load("tracing"))
    workload = _load("workload")
    pipe = build_pipeline(RunConfig.load(os.path.join(ROOT, "configs", "cloak.yaml")))
    sym = pipe.problem.sym
    val = optimizer.eval_total(pipe.problem, pipe.problem.field(sym.expand(sym.means(
        pipe.field0.coeffs))))
    sizes = workload._sizes(val.state)
    assert sizes == {"ndof": pipe.disc.ndof, "k_nnz": val.state.K.nnz, "lu_nnz": val.state.lu.nnz}
    assert min(sizes.values()) > 0
    health = {"excursions": [], "k_nnz": [], "lu_nnz": [], "ndof": 0}
    workload._health_observers(health)["solve_state"]((), {}, val.state)
    assert health == {"excursions": [0.0], "k_nnz": [sizes["k_nnz"]],
                      "lu_nnz": [sizes["lu_nnz"]], "ndof": sizes["ndof"]}


def test_workload_reads_a_real_export(monkeypatch):
    # the traced export observer reads sample_fields' first argument as the
    # Discretization and data["T"] of its result as the sampled (n, n) grid
    monkeypatch.setattr(sys, "path", sys.path[:])  # workload.py prepends its directory
    monkeypatch.setitem(sys.modules, "tracing", _load("tracing"))
    workload = _load("workload")
    pipe = build_pipeline(RunConfig.load(os.path.join(ROOT, "configs", "annulus.yaml")),
                          with_objective=False)
    T = solve_state(pipe.disc, pipe.field0, pipe.smoothing).values
    args = (pipe.disc, T, pipe.field0, pipe.smoothing, 9)  # as cli passes them
    xs, ys, data = sample_fields(*args)
    assert data["T"].shape == (9, 9)
    inside = int(np.count_nonzero(np.isfinite(data["T"])))
    assert 0 < inside < 81
    health = {"out_of_range_points": 0}
    observe = workload._health_observers(health)["sample_fields"]
    observe(args, {}, (xs, ys, data))
    assert health == {"out_of_range_points": 0}
    # the same grid raised above the Dirichlet range: every point inside counts
    hot = dict(data, T=data["T"] + np.ptp(pipe.disc.dirichlet_val) + 1.0)
    observe(args, {}, (xs, ys, hot))
    assert health == {"out_of_range_points": inside}


def test_eval_ms_times_every_counted_evaluation(monkeypatch, tmp_path, capsys):
    # workload.py's eval_ms is the median of the times its eval_total
    # wrapper records: one entry per evaluation the optimizer counts, so no
    # evaluation can run past the wrapper
    monkeypatch.setattr(sys, "path", sys.path[:])  # workload.py prepends its directory
    monkeypatch.setitem(sys.modules, "tracing", _load("tracing"))
    workload = _load("workload")
    monkeypatch.setattr(cli, "optimize", cli.optimize)  # both restored afterwards
    monkeypatch.setattr(optimizer, "eval_total", optimizer.eval_total)
    info = {"eval_s": []}
    workload._watch_optimize(info, None)
    rc = cli.main(["optimize", "--config", os.path.join(ROOT, "configs", "annulus.yaml"),
                   "--set", "sqp.max_function_evaluations=6", "--set", "output.grid=5",
                   "--set", f"output.dir={tmp_path}"])
    capsys.readouterr()
    assert rc == 0 and info["stop_reason"] == "max_function_evaluations"
    assert len(info["eval_s"]) == info["fevals"] == 6


def test_group_split_factors_through_the_traced_splu(monkeypatch):
    # tracing.py times assembly.factor as calls of igatop.assembly.splu:
    # building the cloak's split on its mirror orbits must call that name
    # exactly once (K_II on I's orbits), or assembly.factor_ms drops out
    assert ("igatop.assembly", "splu") in [(m, a) for m, a, *_ in _traced()]
    pipe = build_pipeline(RunConfig.load(os.path.join(ROOT, "configs", "cloak.yaml")))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(assembly, "splu", counted)
    sub = assembly._substructure(pipe.disc, assembly._mirror_group(pipe.disc))
    assert sub.group is pipe.disc.group and sub.I.size
    assert calls == [(sub.I_orbits.count, sub.I_orbits.count)]
