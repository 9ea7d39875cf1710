"""Batch front-end: argument parsing, command dispatch and result files.

Commands: `solve` (one state solve), `optimize` (the SQP run), `sweep`
and `oracle` (the annulus studies of studies.py).  Every command reads
one YAML run configuration (``--config``) with optional ``--set
key.path=value`` overrides, from which config.py builds the pipeline,
and writes deterministic result files (legacy VTK for fields, CSV for
everything else) into the output directory ``output.dir``.  Exit codes:
0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import yaml

from igatop import studies
from igatop.assembly import solve_adjoint, solve_state
from igatop.config import Pipeline, RunConfig, build_pipeline, objective_spec
from igatop.errors import ConfigError, IgatopError, NormalizationError
from igatop.export import (
    ensure_outdir,
    sample_fields,
    write_coeffs_csv,
    write_convergence_csv,
    write_grid_csv,
    write_table_csv,
    write_vtk_structured,
)
from igatop.levelset import interface_points
from igatop.objectives import eval_main
from igatop.optimizer import SqpConfig, optimize


def _write_field_outputs(pipe: Pipeline, T, field, outdir, stem):
    n_grid = pipe.cfg.data["output"]["grid"]
    xs, ys, data = sample_fields(pipe.disc, T, field, pipe.smoothing, n_grid)
    text = write_vtk_structured(os.path.join(outdir, f"{stem}.vtk"), xs, ys, data)
    write_grid_csv(os.path.join(outdir, f"{stem}.csv"), xs, ys, text)


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
            write_coeffs_csv(os.path.join(outdir, "adjoint.csv"), P.values)
    err = studies.solve_error(pipe, sol)
    if err is not None:
        print(f"rel_L2_error_vs_oracle = {err:.6g}")
    _write_field_outputs(pipe, sol.values, pipe.field0, outdir, "field")
    write_coeffs_csv(os.path.join(outdir, "coefficients.csv"), pipe.field0.coeffs)
    with open(os.path.join(outdir, "model.yaml"), "w") as f:
        yaml.safe_dump(pipe.disc.model.describe() | {"config": cfg.describe()}, f)
    return 0


def cmd_optimize(cfg: RunConfig) -> int:
    pipe = build_pipeline(cfg)
    outdir = ensure_outdir(cfg.data["output"]["dir"])
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
        SqpConfig(**cfg.data["sqp"]),
        use_reinit=cfg.data["reinit"]["enabled"],
        lines_per_span=cfg.data["reinit"]["lines_per_span"],
        record_hook=record,
    )
    # the best iterate's evaluation, kept by the optimizer
    val = state.best_aux
    print(f"stop_reason = {reason}")
    print(f"iterations = {state.iteration}  function_evaluations = {state.fevals}")
    print(f"J_main = {val.j_main:.9g}")
    print(f"J_Tknv = {val.j_tknv:.9g}")
    print(f"J_vol = {val.j_vol:.9g}")
    print(f"J_total = {val.j_total:.9g}")
    write_convergence_csv(os.path.join(outdir, "convergence.csv"), history)
    write_coeffs_csv(os.path.join(outdir, "coefficients.csv"), best.coeffs)
    pts = interface_points(best, cfg.data["reinit"]["lines_per_span"])[0]
    write_table_csv(os.path.join(outdir, "interface.csv"), ["x", "y"], pts.tolist())
    _write_field_outputs(pipe, val.state.values, best, outdir, "field")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    studies.SWEEPS[cfg.data["sweep"]["kind"]](cfg)
    return 0


def cmd_oracle(cfg: RunConfig) -> int:
    studies.oracle_curves(cfg)
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
