"""Spans and counters recorded around calls into the package's modules.

Each traced function is replaced, under every name any ``igatop`` module
binds it to, by a wrapper that records a span (name, start, end, parent)
in memory.  A span's self time is its duration minus the durations of its
direct children; because every call is made on one thread, children nest
strictly inside their parent.  Observers attached to a wrapper see the
call's arguments and result and keep counters; they run after the span
has closed, so their cost is tracing overhead, not layer time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Where splines.tabulate is called to sample or bisect a finished field, its
# time stays with that caller; its own span covers set-up tabulation.
SAMPLING = ("export.sample", "levelset.interface_points")

# (module, attribute, span name, patch only that module)
TRACED = [
    ("igatop.model", "build_annulus", "model.build", False),
    ("igatop.model", "build_cloak_model", "model.build", False),
    ("igatop.model", "build_camouflage_model", "model.build", False),
    ("igatop.model", "refine_model", "model.build", False),
    ("igatop.model", "design_basis_for", "model.build", False),
    ("igatop.splines", "tabulate", "splines.tabulate", False),
    ("igatop.assembly", "discretize", "assembly.discretize", False),
    ("igatop.assembly", "assemble_system", "assembly.assemble", False),
    ("igatop.assembly", "splu", "assembly.factor", True),
    ("igatop.assembly", "solve_state", "assembly.state_solve", False),
    ("igatop.assembly", "solve_adjoint", "assembly.adjoint", False),
    ("igatop.assembly", "sensitivity_contraction", "assembly.sensitivity", False),
    ("igatop.objectives", "compute_reference_fields", "objectives.reference", False),
    ("igatop.objectives", "eval_total", "objectives.eval_total", False),
    ("igatop.objectives", "eval_main", "objectives.main", False),
    ("igatop.objectives", "tikhonov", "objectives.regularizers", False),
    ("igatop.levelset", "volume_measure", "objectives.regularizers", False),
    ("igatop.levelset", "design_quadrature", "levelset.setup", False),
    ("igatop.levelset", "build_symmetry_map", "levelset.setup", False),
    ("igatop.levelset", "project_lsf", "levelset.project", False),
    ("igatop.levelset", "perimeter", "levelset.perimeter", False),
    ("igatop.levelset", "reinitialize", "levelset.reinit", False),
    ("igatop.levelset", "interface_points", "levelset.interface_points", False),
    ("igatop.optimizer", "optimize", "optimizer.optimize", False),
    ("igatop.optimizer", "solve_qp_subproblem", "optimizer.qp", False),
    ("igatop.optimizer", "line_search", "optimizer.line_search", False),
    ("igatop.optimizer", "bfgs_update", "optimizer.bfgs", False),
    ("igatop.export", "sample_fields", "export.sample", False),
    ("igatop.export", "write_vtk_structured", "export.write", False),
    ("igatop.export", "write_grid_csv", "export.write", False),
    ("igatop.export", "write_table_csv", "export.write", False),
    ("igatop.export", "write_coeffs_csv", "export.write", False),
    ("igatop.export", "write_convergence_csv", "export.write", False),
]


class Tracer:
    """In-memory span recorder; records only while ``active``."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []

    def inside(self, names) -> bool:
        return bool(self._stack) and self.names[self._stack[-1]] in names

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.start.append(time.perf_counter())
        self.end.append(float("nan"))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def self_times(self):
        """Per span name: (calls, total self time, total duration) in seconds."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for name, d, c in zip(self.names, dur, child):
            rec = out[name]
            rec[0] += 1
            rec[1] += d - c
            rec[2] += d
        return {k: tuple(v) for k, v in out.items()}


def _rebind(orig, wrapper, only_module: str | None):
    """Point every igatop module's name for ``orig`` at ``wrapper``."""
    mods = [only_module] if only_module else [m for m in sys.modules if m.startswith("igatop")]
    for modname in mods:
        mod = sys.modules.get(modname)
        if mod is None:
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def _wrap(tracer: Tracer, module: str, attr: str, span: str, observer, only_module: bool):
    """Wrap ``module.attr``; ``observer(args, kwargs, result)`` runs after the call."""
    orig = getattr(sys.modules[module], attr)
    skip_under = SAMPLING if span == "splines.tabulate" else ()

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        traced = tracer.active and not tracer.inside(skip_under)
        idx = tracer.open(span) if traced else -1
        try:
            result = orig(*args, **kwargs)
        finally:
            if traced:
                tracer.close(idx)
        if observer is not None and tracer.active:
            observer(args, kwargs, result)
        return result

    _rebind(orig, wrapper, module if only_module else None)
    return wrapper


def install(tracer: Tracer, observers: dict):
    """Wrap every function in TRACED; ``observers`` maps attribute -> observer."""
    for module, attr, span, only in TRACED:
        _wrap(tracer, module, attr, span, observers.get(attr), only)
