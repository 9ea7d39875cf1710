"""The names the benchmark wraps and rebinds must exist where it looks.

perfbench/tracing.py wraps every function in its TRACED table, and
perfbench/workload.py calls and rebinds a few names in cli and optimizer.
A rename or move would otherwise break only the traced benchmark run.
"""

import importlib
import importlib.util
import os

import pytest

from igatop import cli, optimizer

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _traced():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


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
