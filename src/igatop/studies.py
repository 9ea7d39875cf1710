"""Annulus studies against the closed forms of oracle.py: the error of a
solve from a radial start, the interface-radius and mesh/bandwidth sweeps,
and the exact objective curves.  Each study writes its tables into the
output directory and prints one line per table.
"""

from __future__ import annotations

import copy
import os
from dataclasses import replace

import numpy as np

from igatop import oracle
from igatop.assembly import solve_state
from igatop.config import Pipeline, RunConfig, build_pipeline, field_params
from igatop.errors import ConfigError
from igatop.export import ensure_outdir, write_table_csv
from igatop.levelset import DesignField, SmoothingParams, perimeter, project_lsf
from igatop.objectives import eval_main, eval_total


def annulus_params(cfg: RunConfig, scale: float = 1.0) -> oracle.AnnulusParams:
    """The closed form's setup for the configured annulus.  The level set
    r - rl times `scale` puts `kappa_pos` outside the interface for a
    positive scale and inside it for a negative one."""
    if cfg.problem != "annulus":
        raise ConfigError(f"the annulus studies need the annulus problem, not {cfg.problem}")
    m = cfg.data["model"]
    kappas = (m["kappa_neg"], m["kappa_pos"])
    return oracle.AnnulusParams(m["r_inner"], m["r_outer"], m["t_inner"], m["t_outer"],
                                *(kappas if scale > 0 else kappas[::-1]))


def rel_l2(a, exact, w=1.0) -> float:
    """Relative L2 error of `a` against `exact`, with quadrature weights `w`."""
    return np.sqrt(float((w * (a - exact) ** 2).sum()) / float((w * exact**2).sum()))


def _r_values(cfg: RunConfig, params: oracle.AnnulusParams, step: float) -> np.ndarray:
    """The configured interface radii, or the annulus interior at spacing `step`."""
    default = np.arange(params.r_inner + step, params.r_outer - step / 2, step)
    return np.asarray(cfg.data["sweep"]["r_values"] or default, dtype=float)


def _radial_field(pipe: Pipeline, rl: float) -> DesignField:
    """Projected signed distance r - rl to the interface circle of radius rl."""
    return pipe.problem.field(project_lsf(pipe.quad, lambda p: np.hypot(p[:, 0], p[:, 1]) - rl))


def solve_error(pipe: Pipeline, sol) -> float | None:
    """Relative L2 error of an annulus state solved from a radial start, or
    None when there is no closed form (another problem or start, or a
    zero scale, which leaves no interface).  A circle outside the annulus
    leaves one material: its closed form has the interface on the boundary."""
    cfg = pipe.cfg
    init = cfg.data["initial_field"]
    if cfg.problem != "annulus" or init["kind"] != "radial":
        return None
    p = field_params(init)
    if p["scale"] == 0:
        return None
    params = annulus_params(cfg, p["scale"])
    rl = np.clip(p["radius"], params.r_inner, params.r_outer)
    disc = pipe.disc
    T_ex = oracle.annulus_state(np.hypot(disc.phys[:, 0], disc.phys[:, 1]), rl, params)
    return rel_l2(sol.at_quadrature(), T_ex, disc.w)


def radius_sweep(cfg: RunConfig):
    """J, sensitivity, perimeter, and field errors over the interface radius."""
    params = annulus_params(cfg)
    outdir = ensure_outdir(cfg.data["output"]["dir"])
    pipe = build_pipeline(cfg)
    disc, quad = pipe.disc, pipe.quad
    r_values = _r_values(cfg, params, 0.05)
    deltas = cfg.data["sweep"]["deltas"] or [0.5, 0.05, 0.005]
    r_q = np.hypot(disc.phys[:, 0], disc.phys[:, 1])
    # sensitivity of the projected coefficients to the interface radius
    dc_drl = quad.mass_solve(-np.asarray(quad.D.T @ quad.w).ravel())
    rows = []
    for delta in deltas:
        sp_ = SmoothingParams(delta, cfg.data["smoothing"]["alpha"])
        problem = replace(pipe.problem, smoothing=sp_)
        for rl in r_values:
            fld = _radial_field(pipe, rl)
            val = eval_total(problem, fld)
            errT = rel_l2(val.state.at_quadrature(), oracle.annulus_state(r_q, rl, params), disc.w)
            errP = rel_l2(disc.N @ val.adjoint, oracle.annulus_adjoint(r_q, rl, params), disc.w)
            rows.append(
                (delta, rl, val.j_main, oracle.annulus_objective(rl, params),
                 float(val.grad_main @ dc_drl),
                 oracle.annulus_objective_derivative(rl, params), perimeter(fld, sp_, quad),
                 2 * np.pi * rl, errT, errP)
            )
    write_table_csv(os.path.join(outdir, "radius_sweep.csv"),
                    ["delta", "r_interface", "J", "J_exact", "dJ_dr", "dJ_dr_exact",
                     "perimeter", "perimeter_exact", "err_T", "err_P"], rows)
    print(f"radius sweep: {len(rows)} rows -> radius_sweep.csv")


def refinement_sweep(cfg: RunConfig):
    """Objective-error law: err_J over (mesh, bandwidth) with a knee-locus fit.

    err_J(mesh, delta) is the relative L2 norm, over the interface-radius
    grid, of the deviation of the computed objective from the exact sharp
    objective.  For each bandwidth the knee is the coarsest mesh whose
    error is within `knee_factor` of that bandwidth's finest-mesh error
    (refinement beyond the knee no longer helps); the log-log line fitted
    through the knees is the refinement-improvement bound.
    """
    sweep = cfg.data["sweep"]
    params = annulus_params(cfg)
    outdir = ensure_outdir(cfg.data["output"]["dir"])
    subdivisions = sweep["subdivisions"] or [4, 8, 16, 32]
    deltas = sweep["deltas"] or [0.5, 0.1, 0.05, 0.01, 0.005]
    r_values = _r_values(cfg, params, 0.1)
    knee_factor = sweep["knee_factor"]
    j_exact = np.array([oracle.annulus_objective(rl, params) for rl in r_values])

    area = np.pi * (params.r_outer**2 - params.r_inner**2)
    rows = []
    for sub in subdivisions:
        sub_cfg = copy.deepcopy(cfg)
        sub_cfg.data["solution"].update(subdiv_circ=sub, subdiv_rad=sub)
        pipe = build_pipeline(sub_cfg)
        fields = [_radial_field(pipe, rl) for rl in r_values]
        h_avg = float(np.sqrt(area / (4 * sub * sub)))  # 4 * sub^2 elements
        for delta in deltas:
            sp_ = SmoothingParams(delta, cfg.data["smoothing"]["alpha"])
            J = np.array([
                eval_main(pipe.problem.spec, pipe.disc, solve_state(pipe.disc, f, sp_))[0]
                for f in fields
            ])
            rows.append((sub, pipe.disc.ndof, h_avg, delta, delta / h_avg, rel_l2(J, j_exact)))
    write_table_csv(os.path.join(outdir, "refinement_sweep.csv"),
                    ["subdiv", "ndof", "h_avg", "delta", "delta_over_h", "err_J"], rows)
    # knee locus: coarsest mesh already at the bandwidth-limited floor
    knees = []
    for delta in deltas:
        series = [r for r in rows if r[3] == delta]
        floor = min(r[5] for r in series)
        knee = next(r for r in sorted(series, key=lambda r: r[0]) if r[5] <= knee_factor * floor)
        knees.append((delta, knee[4], knee[5]))
    x = np.log10([k[1] for k in knees])
    y = np.log10([k[2] for k in knees])
    slope, intercept = np.polyfit(x, y, 1)
    write_table_csv(os.path.join(outdir, "refinement_law.csv"),
                    ["delta", "delta_over_h_knee", "err_J_knee"], knees)
    print(f"refinement sweep: {len(rows)} rows -> refinement_sweep.csv")
    print(f"knee-locus fit: slope = {slope:.4f}, intercept = {intercept:.4f}")
    return slope, intercept


SWEEPS = {"radius": radius_sweep, "refinement": refinement_sweep}


def oracle_curves(cfg: RunConfig):
    """The closed-form objective and its radius derivative, and the optimum."""
    params = annulus_params(cfg)
    outdir = ensure_outdir(cfg.data["output"]["dir"])
    rows = [
        (rl, oracle.annulus_objective(rl, params),
         oracle.annulus_objective_derivative(rl, params))
        for rl in _r_values(cfg, params, 0.01)
    ]
    write_table_csv(os.path.join(outdir, "oracle_curves.csv"), ["r_interface", "J", "dJ_dr"], rows)
    rstar, jstar = oracle.annulus_optimum(params)
    print(f"optimum: r_interface = {rstar:.6g}, J = {jstar:.7g}")
    print(f"oracle curves: {len(rows)} rows -> oracle_curves.csv")
