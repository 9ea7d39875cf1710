"""Batch front-end: solve, optimize, sweep, and oracle commands.

Every command reads one YAML run configuration (``--config``) with
optional ``--set key.path=value`` overrides and writes deterministic
result files (legacy VTK for fields, CSV for everything else) into the
output directory (``output.dir``, overridable via the IGATOP_OUTDIR
environment variable).  Exit codes: 0 success, 1 configuration error,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import os
import sys
from dataclasses import dataclass, replace

import numpy as np
import yaml

from igatop.assembly import Discretization, discretize, solve_adjoint, solve_state
from igatop.config import RunConfig, initial_field_fn
from igatop.errors import ConfigError, IgatopError, NormalizationError
from igatop.export import (
    ensure_outdir,
    read_coeffs_csv,
    sample_fields,
    write_coeffs_csv,
    write_convergence_csv,
    write_grid_csv,
    write_table_csv,
    write_vtk_structured,
)
from igatop.levelset import (
    DesignField,
    DesignQuad,
    SmoothingParams,
    build_symmetry_map,
    design_quadrature,
    interface_points,
    perimeter,
    project_lsf,
)
from igatop.model import MultiPatchModel, RefineSpec, design_basis_for, refine_model
from igatop.objectives import HeatProblem, ObjectiveSpec, eval_main, eval_total, make_objective
from igatop.optimizer import SqpConfig, optimize
from igatop import oracle


@dataclass
class Pipeline:
    """Everything assembled from one run configuration."""

    cfg: RunConfig
    refined: MultiPatchModel
    disc: Discretization
    quad: DesignQuad
    smoothing: SmoothingParams
    problem: HeatProblem
    field0: DesignField


def build_pipeline(cfg: RunConfig, with_objective: bool = True) -> Pipeline:
    d = cfg.data
    model = cfg.build_model()
    design = dict(d["design"])
    symmetry = design.pop("symmetry")
    basis = design_basis_for(model, RefineSpec(**design))
    refined = refine_model(model, RefineSpec(**d["solution"]))
    disc = discretize(refined, basis, n_per_span=d["quadrature"]["n_per_span"])
    quad = design_quadrature(basis, d["quadrature"]["measures_per_span"])
    sym = build_symmetry_map(basis, symmetry if model.symmetry_ok else "coincide")
    smoothing = SmoothingParams(**d["smoothing"])
    problem = None
    if with_objective:
        problem = HeatProblem(disc, objective_spec(cfg, disc), smoothing, quad, sym)
    init = d["initial_field"]
    if init["kind"] == "restart":
        coeffs = read_coeffs_csv(init["params"]["path"])
        if coeffs.size != basis.m:
            raise ConfigError(
                f"restart file has {coeffs.size} coefficients, basis needs {basis.m}"
            )
    else:
        coeffs = project_lsf(quad, initial_field_fn(init))
    field0 = DesignField(basis, coeffs)
    return Pipeline(cfg, refined, disc, quad, smoothing, problem, field0)


# each problem's own objective kind
OBJECTIVE_KINDS = {"annulus": "annular", "cloak": "cloak", "camouflage": "camouflage"}


def objective_spec(cfg: RunConfig, disc: Discretization) -> ObjectiveSpec:
    return make_objective(disc, OBJECTIVE_KINDS[cfg.problem], **cfg.data["objective"])


def sqp_config(cfg: RunConfig) -> SqpConfig:
    s = dict(cfg.data["sqp"])
    bounds = s.pop("bounds")
    if bounds is None:
        return SqpConfig(**s)
    return SqpConfig(**s, lower=-abs(bounds), upper=abs(bounds))


def _write_field_outputs(pipe: Pipeline, T, field, outdir, stem):
    n_grid = pipe.cfg.data["output"]["grid"]
    xs, ys, data = sample_fields(pipe.disc, T, field, pipe.smoothing, n_grid)
    write_vtk_structured(os.path.join(outdir, f"{stem}.vtk"), xs, ys, data)
    write_grid_csv(os.path.join(outdir, f"{stem}.csv"), xs, ys, data)


def cmd_solve(cfg: RunConfig) -> int:
    pipe = build_pipeline(cfg, with_objective=False)
    try:
        spec = objective_spec(cfg, pipe.disc)
    except NormalizationError as exc:
        # a solve remains useful without an objective (e.g. patch tests on a
        # homogeneous plate, where the disturbance normalization degenerates)
        print(f"note: objective disabled ({exc})")
        spec = None
    outdir = ensure_outdir(cfg.data["output"]["dir"])
    sol = solve_state(pipe.disc, pipe.field0, pipe.smoothing)
    if spec is not None:
        j_main, dj_dt = eval_main(spec, pipe.disc, sol)
        print(f"J_{spec.kind} = {j_main:.9g}")
        if cfg.data["output"]["adjoint"]:
            P = solve_adjoint(sol, -dj_dt)
            write_coeffs_csv(os.path.join(outdir, "adjoint.csv"), P)
    if cfg.problem == "annulus" and cfg.data["initial_field"]["kind"] == "radial":
        rl = cfg.data["initial_field"]["params"]["radius"]
        params = _annulus_params(cfg)
        r = np.hypot(pipe.disc.phys[:, 0], pipe.disc.phys[:, 1])
        T_ex = oracle.annulus_state(r, rl, params)
        Tq = sol.at_quadrature()
        err = np.sqrt(
            float((pipe.disc.w * (Tq - T_ex) ** 2).sum())
            / float((pipe.disc.w * T_ex**2).sum())
        )
        print(f"rel_L2_error_vs_oracle = {err:.6g}")
    _write_field_outputs(pipe, sol.values, pipe.field0, outdir, "field")
    write_coeffs_csv(os.path.join(outdir, "coefficients.csv"), pipe.field0.coeffs)
    with open(os.path.join(outdir, "model.yaml"), "w") as f:
        yaml.safe_dump(pipe.refined.describe() | {"config": cfg.describe()}, f)
    return 0


def cmd_optimize(cfg: RunConfig) -> int:
    pipe = build_pipeline(cfg)
    outdir = ensure_outdir(cfg.data["output"]["dir"])
    scfg = sqp_config(cfg)
    history = []
    checkpoint_every = cfg.data["output"]["checkpoint_every"]

    def record(rec, state):
        history.append(rec)
        if checkpoint_every and rec.iteration and rec.iteration % checkpoint_every == 0:
            coeffs = pipe.problem.sym.expand(state.x)
            write_coeffs_csv(os.path.join(outdir, "checkpoint.csv"), coeffs)

    best, state, reason = optimize(
        pipe.problem,
        pipe.field0,
        scfg,
        use_reinit=cfg.data["reinit"]["enabled"],
        lines_per_span=cfg.data["reinit"]["lines_per_span"],
        record_hook=record,
    )
    val = eval_total(pipe.problem, best)
    print(f"stop_reason = {reason}")
    print(f"iterations = {state.iteration}  function_evaluations = {state.fevals}")
    print(f"J_main = {val.j_main:.9g}")
    print(f"J_Tknv = {val.j_tknv:.9g}")
    print(f"J_vol = {val.j_vol:.9g}")
    print(f"J_total = {val.j_total:.9g}")
    write_convergence_csv(os.path.join(outdir, "convergence.csv"), history)
    write_coeffs_csv(os.path.join(outdir, "coefficients.csv"), best.coeffs)
    pts, _ = interface_points(best, cfg.data["reinit"]["lines_per_span"])
    write_table_csv(os.path.join(outdir, "interface.csv"), ["x", "y"], pts.tolist())
    _write_field_outputs(pipe, val.state.values, best, outdir, "field")
    return 0


def _annulus_params(cfg: RunConfig) -> oracle.AnnulusParams:
    m = cfg.data["model"]
    return oracle.AnnulusParams(
        r_inner=m["r_inner"],
        r_outer=m["r_outer"],
        t_inner=m["t_inner"],
        t_outer=m["t_outer"],
        kappa_inner=m["kappa_neg"],
        kappa_outer=m["kappa_pos"],
    )


def _radial_field(pipe: Pipeline, rl: float) -> DesignField:
    """Projected signed distance r - rl to the interface circle of radius rl."""
    return pipe.problem.field(project_lsf(pipe.quad, lambda p: np.hypot(p[:, 0], p[:, 1]) - rl))


def _radius_sweep(cfg: RunConfig, outdir: str):
    """J, sensitivity, perimeter, and field errors over the interface radius."""
    sweep = cfg.data["sweep"]
    params = _annulus_params(cfg)
    pipe = build_pipeline(cfg)
    disc, quad = pipe.disc, pipe.quad
    r_values = np.asarray(sweep["r_values"] or np.arange(1.05, 1.951, 0.05), dtype=float)
    deltas = sweep["deltas"] or [0.5, 0.05, 0.005]
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
            Tq = val.state.at_quadrature()
            per = perimeter(fld, sp_, quad)
            T_ex = oracle.annulus_state(r_q, rl, params)
            P_ex = oracle.annulus_adjoint(r_q, rl, params)
            Pq = disc.N @ val.adjoint
            errT = np.sqrt(float((disc.w * (Tq - T_ex) ** 2).sum()) / float((disc.w * T_ex**2).sum()))
            errP = np.sqrt(float((disc.w * (Pq - P_ex) ** 2).sum()) / float((disc.w * P_ex**2).sum()))
            rows.append(
                (delta, rl, val.j_main, oracle.annulus_objective(rl, params),
                 float(val.grad_main @ dc_drl),
                 oracle.annulus_objective_derivative(rl, params), per,
                 2 * np.pi * rl, errT, errP)
            )
    write_table_csv(
        os.path.join(outdir, "radius_sweep.csv"),
        ["delta", "r_interface", "J", "J_exact", "dJ_dr", "dJ_dr_exact",
         "perimeter", "perimeter_exact", "err_T", "err_P"],
        rows,
    )
    print(f"radius sweep: {len(rows)} rows -> radius_sweep.csv")


def _refinement_sweep(cfg: RunConfig, outdir: str):
    """Objective-error law: err_J over (mesh, bandwidth) with a knee-locus fit.

    err_J(mesh, delta) is the relative L2 norm, over the interface-radius
    grid, of the deviation of the computed objective from the exact sharp
    objective.  For each bandwidth the knee is the coarsest mesh whose
    error is within `knee_factor` of that bandwidth's finest-mesh error
    (refinement beyond the knee no longer helps); the log-log line fitted
    through the knees is the refinement-improvement bound.
    """
    sweep = cfg.data["sweep"]
    params = _annulus_params(cfg)
    subdivisions = sweep["subdivisions"] or [4, 8, 16, 32]
    deltas = sweep["deltas"] or [0.5, 0.1, 0.05, 0.01, 0.005]
    r_values = np.asarray(sweep["r_values"] or np.arange(1.1, 1.91, 0.1), dtype=float)
    knee_factor = sweep["knee_factor"]
    j_exact = np.array([oracle.annulus_objective(rl, params) for rl in r_values])

    area = np.pi * (params.r_outer**2 - params.r_inner**2)
    rows = []
    for sub in subdivisions:
        sub_cfg = copy.deepcopy(cfg)
        sub_cfg.data["solution"].update(subdiv_circ=sub, subdiv_rad=sub)
        pipe = build_pipeline(sub_cfg)
        fields = [_radial_field(pipe, rl) for rl in r_values]
        n_elems = 4 * sub * sub
        h_avg = float(np.sqrt(area / n_elems))
        for delta in deltas:
            sp_ = SmoothingParams(delta, cfg.data["smoothing"]["alpha"])
            J = np.array([
                eval_main(pipe.problem.spec, pipe.disc, solve_state(pipe.disc, f, sp_))[0]
                for f in fields
            ])
            err = float(np.sqrt(np.sum((J - j_exact) ** 2) / np.sum(j_exact**2)))
            rows.append((sub, pipe.disc.ndof, h_avg, delta, delta / h_avg, err))
    write_table_csv(
        os.path.join(outdir, "refinement_sweep.csv"),
        ["subdiv", "ndof", "h_avg", "delta", "delta_over_h", "err_J"],
        rows,
    )
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
    write_table_csv(
        os.path.join(outdir, "refinement_law.csv"),
        ["delta", "delta_over_h_knee", "err_J_knee"],
        knees,
    )
    print(f"refinement sweep: {len(rows)} rows -> refinement_sweep.csv")
    print(f"knee-locus fit: slope = {slope:.4f}, intercept = {intercept:.4f}")
    return slope, intercept


SWEEPS = {"radius": _radius_sweep, "refinement": _refinement_sweep}


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.problem != "annulus":
        raise ConfigError("sweep commands are defined for the annulus problem")
    outdir = ensure_outdir(cfg.data["output"]["dir"])
    SWEEPS[cfg.data["sweep"]["kind"]](cfg, outdir)
    return 0


def cmd_oracle(cfg: RunConfig) -> int:
    if cfg.problem != "annulus":
        raise ConfigError("the analytic oracle is defined for the annulus problem")
    params = _annulus_params(cfg)
    outdir = ensure_outdir(cfg.data["output"]["dir"])
    r_values = np.asarray(
        cfg.data["sweep"]["r_values"] or np.arange(1.01, 1.9901, 0.01), dtype=float
    )
    rows = [
        (rl, oracle.annulus_objective(rl, params),
         oracle.annulus_objective_derivative(rl, params))
        for rl in r_values
    ]
    write_table_csv(
        os.path.join(outdir, "oracle_curves.csv"),
        ["r_interface", "J", "dJ_dr"],
        rows,
    )
    rstar, jstar = oracle.annulus_optimum(params)
    print(f"optimum: r_interface = {rstar:.6g}, J = {jstar:.7g}")
    print(f"oracle curves: {len(rows)} rows -> oracle_curves.csv")
    return 0


COMMANDS = {
    "solve": cmd_solve,
    "optimize": cmd_optimize,
    "sweep": cmd_sweep,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="igatop",
        description="Isogeometric level-set topology optimization of heat manipulators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry, e.g. --set smoothing.delta=0.01",
        )
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.load(args.config, args.overrides)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except IgatopError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
