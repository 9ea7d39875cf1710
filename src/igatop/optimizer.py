"""Quasi-Newton SQP driver over the reduced design variables.

Each iteration solves a box-constrained quadratic subproblem built from a
damped-BFGS Hessian approximation H (as a bounded least-squares problem on
H's Cholesky factor, by BVLS), takes an Armijo-backtracking step, and
applies the stopping policy: objective limit, projected-gradient
optimality, global iteration/evaluation caps, and a step-tolerance rule
that triggers level-set reinitialization (when available) instead of
stopping until four consecutive failures.  A schedule also reinitializes
every fixed number of iterations or function evaluations.  The best-seen
iterate is returned, not the last.

The start and every reinitialization, scheduled or step-tolerance, run one
restart routine: evaluate, reset H to |g|_inf I, begin a new reinitialization
round, and accept the point.  Accepting an iterate (a restart or a line-search
step) is the one place that moves the current point, updates the best-seen
iterate (with fun's aux there) and writes a record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import lsq_linear

from igatop.errors import ConfigError
from igatop.levelset import DesignField, reinitialize
from igatop.objectives import HeatProblem, ObjectiveValue, eval_total

__all__ = [
    "SqpConfig",
    "SqpState",
    "IterationRecord",
    "solve_qp_subproblem",
    "line_search",
    "bfgs_update",
    "check_stop",
    "minimize",
    "optimize",
]


# Armijo sufficient-decrease constant and the shortest step tried
ARMIJO_C1 = 1.0e-4
ALPHA_MIN = 1.0e-10
# BVLS stopping tolerance on the first-order optimality of the QP subproblem
QP_TOL = 1.0e-14


@dataclass
class SqpConfig:
    """SQP settings; the keys, types and defaults of a run configuration's
    `sqp` section are this signature.  `bounds` is the half-width of the box
    |x_i| <= bounds; null means the model diameter in `optimize` (signed-
    distance magnitudes cannot exceed it) and no box in `minimize`."""

    objective_limit: float = 1.0e-9
    step_tolerance: float = 1.0e-8
    optimality_tolerance: float = 1.0e-6
    max_iterations: int = 300
    max_function_evaluations: int = 1500
    consecutive_steptol_stop: int = 4
    reinit_every_iters: int | None = 10
    reinit_every_fevals: int | None = 100
    bounds: float | None = None

    def __post_init__(self):
        for name in ("objective_limit", "step_tolerance", "optimality_tolerance"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(f"{name} must be positive, got {value!r}")
        if self.bounds is not None and not self.bounds > 0:
            raise ConfigError(f"bounds must be positive or null, got {self.bounds!r}")


@dataclass
class IterationRecord:
    iteration: int
    fevals: int
    j_main: float
    j_tknv: float
    j_vol: float
    j_total: float
    grad_inf: float
    step_norm: float
    alpha: float
    event: str = ""


@dataclass
class SqpState:
    x: np.ndarray
    g: np.ndarray
    H: np.ndarray
    j_total: float
    iteration: int = 0
    fevals: int = 0
    round_iters: int = 0
    round_fevals: int = 0
    steptol_streak: int = 0
    best_x: np.ndarray = None
    best_j: float = np.inf
    aux: object = None  # fun's third output at the current iterate
    best_aux: object = None  # and at the best iterate


def solve_qp_subproblem(g, H, lower, upper, x):
    """Minimize g.p + p.H.p/2 subject to lower <= x + p <= upper.

    H is symmetric positive definite, so with H = L L^T this is the bounded
    least-squares problem min |L^T p + L^-1 g|^2 / 2, which BVLS solves
    (Stark & Parker, Comput. Stat. 10, 1995).  BVLS's default cap of n
    iterations can stop short of the minimizer; 4n + 16 allows for bounds
    entering and leaving the active set.
    """
    L = np.linalg.cholesky(H)
    b = -solve_triangular(L, g, lower=True)
    return lsq_linear(L.T, b, bounds=(lower - x, upper - x), method="bvls",
                      tol=QP_TOL, max_iter=4 * g.size + 16).x


def line_search(f, x, p, f0, gtp, max_evals=None):
    """Armijo backtracking from alpha = 1, at most `max_evals` trials (no
    limit when None); returns (alpha, f_new, n_evals) or None."""
    if gtp >= 0:
        return None
    alpha = 1.0
    n_evals = 0
    while alpha >= ALPHA_MIN and (max_evals is None or n_evals < max_evals):
        f_new = f(x + alpha * p)
        n_evals += 1
        if f_new <= f0 + ARMIJO_C1 * alpha * gtp:
            return alpha, f_new, n_evals
        alpha *= 0.5
    return None


def bfgs_update(H, s, y):
    """Damped BFGS (Powell's rule): keeps the approximation positive definite."""
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.linalg.norm(s) == 0.0:
        return H
    Hs = H @ s
    sHs = float(s @ Hs)
    sy = float(s @ y)
    if sy < 0.2 * sHs:
        theta = 0.8 * sHs / (sHs - sy)
        y = theta * y + (1.0 - theta) * Hs
        sy = float(s @ y)
    return H - np.outer(Hs, Hs) / sHs + np.outer(y, y) / sy


def projected_grad_inf(x, g, lower, upper):
    tol = 1e-14 * np.maximum(1.0, np.abs(x))
    at_lo, at_hi = x <= lower + tol, x >= upper - tol
    pg = g.copy()
    pg[at_lo] = np.minimum(g[at_lo], 0.0)
    pg[at_hi] = np.maximum(g[at_hi], 0.0)
    return float(np.abs(pg).max()) if pg.size else 0.0


def check_stop(state: SqpState, cfg: SqpConfig, lower, upper, can_reinit: bool):
    """Stopping decision: 'continue', 'reinit', or ('stop', reason)."""
    if state.j_total <= cfg.objective_limit:
        return ("stop", "objective_limit")
    # every entry exactly zero: no design point in the smoothing band, so
    # dkappa/dphi = 0 everywhere; before the tolerance test, so the run
    # stops where "optimality" stopped it
    if not np.any(state.g):
        return ("stop", "zero_gradient")
    if projected_grad_inf(state.x, state.g, lower, upper) <= cfg.optimality_tolerance:
        return ("stop", "optimality")
    if state.iteration >= cfg.max_iterations:
        return ("stop", "max_iterations")
    if state.fevals >= cfg.max_function_evaluations:
        return ("stop", "max_function_evaluations")
    if state.steptol_streak >= cfg.consecutive_steptol_stop:
        return ("stop", "step_tolerance")
    if can_reinit and cfg.reinit_every_iters and state.round_iters >= cfg.reinit_every_iters:
        return "reinit"
    if can_reinit and cfg.reinit_every_fevals and state.round_fevals >= cfg.reinit_every_fevals:
        return "reinit"
    return "continue"


def minimize(fun, x0, cfg: SqpConfig, reinit_hook=None, record_hook=None, diameter=np.inf):
    """Core SQP loop over fun(x) -> (j_total, gradient, aux).

    The box is |x_i| <= cfg.bounds, or <= diameter when that is null.
    reinit_hook(x) -> x_new restores the level-set scaling; when absent, a
    step-tolerance failure stops immediately.  Returns
    (best_x, state, stop_reason).
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    bound = diameter if cfg.bounds is None else cfg.bounds
    lower, upper = np.full(n, -bound), np.full(n, bound)
    state = SqpState(x=None, g=None, H=None, j_total=np.nan)
    can_reinit = reinit_hook is not None

    def accept(x, j, g, aux, step_norm, alpha, event):
        state.x, state.g, state.j_total, state.aux = x, g, j, aux
        # the start point is the first best, whatever its J (NaN included)
        if state.best_x is None or j < state.best_j:
            state.best_j, state.best_x, state.best_aux = j, x.copy(), aux
        _record(state, step_norm, alpha, event, record_hook)

    def restart(x, event):
        j, g, aux = fun(x)
        state.fevals += 1
        state.H = np.clip(np.abs(g).max(), 1e-8, 1e8) * np.eye(g.size)
        state.round_iters = state.round_fevals = 0
        accept(x, j, g, aux, 0.0, 0.0, event)

    trial = None

    def f_only(xt):
        nonlocal trial
        trial = (xt, *fun(xt))
        state.fevals += 1
        state.round_fevals += 1
        return trial[1]

    restart(np.clip(x0, lower, upper), "start")
    while True:
        decision = check_stop(state, cfg, lower, upper, can_reinit)
        if decision == "reinit":
            restart(reinit_hook(state.x), "reinit")
            continue
        if decision != "continue":
            return state.best_x, state, decision[1]

        p = solve_qp_subproblem(state.g, state.H, lower, upper, state.x)
        ls = line_search(f_only, state.x, p, state.j_total, float(state.g @ p),
                         cfg.max_function_evaluations - state.fevals)
        state.iteration += 1
        state.round_iters += 1
        if ls is None:
            _record(state, 0.0, 0.0, "steptol", record_hook)
        else:
            # Armijo returns on the trial it accepts, so that is the last one
            alpha = ls[0]
            s = alpha * p
            x_new, j_new, g_new, aux = trial
            state.H = bfgs_update(state.H, s, g_new - state.g)
            step = float(np.abs(s).max())
            small = step <= cfg.step_tolerance
            accept(x_new, j_new, g_new, aux, step, alpha, "steptol" if small else "")
            if not small:
                state.steptol_streak = 0
                continue

        # step-tolerance failure: reinitialize and restart, or give up.  At
        # the evaluation cap (which may have cut the line search short) the
        # next stop check ends the run there, without a restart's evaluation
        state.steptol_streak += 1
        if state.fevals >= cfg.max_function_evaluations:
            continue
        if not can_reinit:
            return state.best_x, state, "step_tolerance"
        if state.steptol_streak < cfg.consecutive_steptol_stop:
            restart(reinit_hook(state.x), "reinit")


def _record(state, step_norm, alpha, event, hook):
    """Hand the hook one IterationRecord with the current iterate's terms;
    a fun whose aux is not an ObjectiveValue reports J_total as J_main."""
    if isinstance(state.aux, ObjectiveValue):
        jm, jt, jv = state.aux.j_main, state.aux.j_tknv, state.aux.j_vol
    else:
        jm, jt, jv = state.j_total, 0.0, 0.0
    rec = IterationRecord(
        iteration=state.iteration,
        fevals=state.fevals,
        j_main=jm,
        j_tknv=jt,
        j_vol=jv,
        j_total=state.j_total,
        grad_inf=float(np.abs(state.g).max()) if state.g.size else 0.0,
        step_norm=step_norm,
        alpha=alpha,
        event=event,
    )
    if hook is not None:
        hook(rec, state)


def optimize(
    problem: HeatProblem,
    field0: DesignField,
    cfg: SqpConfig,
    use_reinit: bool = True,
    lines_per_span: int = 20,
    record_hook=None,
):
    """Full level-set optimization; returns (best field, state, stop reason)."""
    sym = problem.sym

    def fun(x):
        val = eval_total(problem, problem.field(sym.expand(x)))
        return val.j_total, val.grad_reduced, val

    reinit_hook = None
    if use_reinit:
        def reinit_hook(x):
            fld = problem.field(sym.expand(x))
            fld2 = reinitialize(fld, problem.quad, lines_per_span)
            return sym.means(fld2.coeffs)

    x0 = sym.means(field0.coeffs)
    best_x, state, reason = minimize(fun, x0, cfg, reinit_hook, record_hook,
                                     problem.disc.model.diameter())
    best = problem.field(sym.expand(best_x))
    return best, state, reason
