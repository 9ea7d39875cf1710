"""Objective functionals, their partials, and the full evaluation pipeline.

Three objective kinds: the annular integral of T^2, and the normalized
cloak/camouflage disturbance functionals |T - T_ref|^2 integrated over
their evaluation regions and divided by the disturbance of the
all-insulator reference.  A total objective adds Tikhonov (gradient
penalty) and volume terms with weights chi and rho.  One evaluation runs
state solve, adjoint solve, and the stiffness-derivative contraction to
produce the exact gradient with respect to the design coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from igatop.assembly import (
    Discretization,
    FieldSolution,
    sensitivity_contraction,
    solve_adjoint,
    solve_state,
)
from igatop.errors import ConfigError, NormalizationError
from igatop.levelset import (
    DesignField,
    DesignQuad,
    Orbits,
    SmoothingParams,
    volume_measure,
)

OBJECTIVE_REGIONS = {
    "annular": ("design",),
    "cloak": ("outside",),
    "camouflage": ("inside", "design", "outside"),
}


@dataclass
class ObjectiveSpec:
    """Objective kind plus the per-run constants make_objective computes:
    reference fields, normalization and the evaluation-region mask."""

    kind: str
    region: tuple[str, ...]
    chi: float = 0.0
    rho: float = 0.0
    t_ref: np.ndarray | None = None  # reference temperatures at solution dofs
    j_norm: float = 1.0
    mask: np.ndarray | None = dc_field(repr=False, default=None)  # quadrature points in region
    t_ref_q: np.ndarray | None = dc_field(repr=False, default=None)  # t_ref at quadrature points

    def __post_init__(self):
        if self.kind not in OBJECTIVE_REGIONS:
            raise ConfigError(f"unknown objective kind {self.kind!r}")
        if not (0 <= self.chi < np.inf and 0 <= self.rho < np.inf):
            raise ConfigError("regularization weights must be finite and non-negative")
        if self.j_norm <= 0:
            raise ConfigError("normalization must be positive")


def compute_reference_fields(disc: Discretization, kind: str):
    """Reference and all-insulator fields plus the normalization integral.

    The reference case fills the objective's free regions (obstacle/object
    and design band) with the base material; the disturbed case fills the
    design band with the insulator.  Not used for the annular objective.
    """
    model = disc.model
    base = model.kappa_regions["outside"]
    if kind == "cloak":
        insulator = model.kappa_regions["inside"]
    elif kind == "camouflage":
        insulator = model.kappa_regions["sector"]
    else:
        raise ConfigError(f"objective kind {kind!r} has no reference fields")
    t_ref = solve_state(disc, override={"inside": base, "design": base}).values
    t_ins = solve_state(disc, override={"design": insulator}).values

    mask = disc.region_mask(OBJECTIVE_REGIONS[kind])
    diff = disc.N @ (t_ins - t_ref)
    j_norm = float((disc.w * diff**2)[mask].sum())
    if j_norm <= 1e-12:
        raise NormalizationError("degenerate normalization: insulator does not disturb the field")
    return t_ref, t_ins, j_norm


def make_objective(disc: Discretization, kind: str, chi: float = 0.0, rho: float = 0.0):
    spec = ObjectiveSpec(kind=kind, region=OBJECTIVE_REGIONS[kind], chi=chi, rho=rho)
    if kind in ("cloak", "camouflage"):
        spec.t_ref, _, spec.j_norm = compute_reference_fields(disc, kind)
        spec.t_ref_q = disc.N @ spec.t_ref
    spec.mask = disc.region_mask(spec.region)
    return spec


def eval_main(spec: ObjectiveSpec, disc: Discretization, sol: FieldSolution):
    """Main objective value and dJ/dT at quadrature points (adjoint source).

    dJ/dT is averaged over each orbit of quadrature points of the group
    the state was solved on, so the adjoint solves on the state's split
    (on the trivial group the average is dJ/dT itself).  The reduced
    gradient stays exact for any mask and t_ref: each dT/dx_r of a
    symmetric design is mirror invariant and the weights within an orbit
    agree (to `assembly._ROW_TOL`), so the average drops only the full
    gradient's antisymmetric part, which no reduced variable reads.  On
    the shipped objectives that part is roundoff: each mirror keeps every
    point's region label, so the mask is invariant, and t_ref is to a few
    1e-14 of its largest value.
    """
    Tq = sol.at_quadrature()
    if spec.kind == "annular":
        integrand = Tq**2
        dj_dt = 2.0 * Tq
    else:
        diff = Tq - spec.t_ref_q
        integrand = diff**2 / spec.j_norm
        dj_dt = 2.0 * diff / spec.j_norm
    dj_dt = sol.lu.sub.group.quad.average(np.where(spec.mask, dj_dt, 0.0))
    j_main = float((disc.w * integrand)[spec.mask].sum())
    return j_main, dj_dt


def tikhonov(field: DesignField, quad: DesignQuad):
    """Gradient penalty over the design region and its coefficient gradient."""
    gx = quad.Dx @ field.coeffs
    gy = quad.Dy @ field.coeffs
    j = float(quad.w @ (gx**2 + gy**2))
    grad = 2.0 * (quad.Dx.T @ (quad.w * gx) + quad.Dy.T @ (quad.w * gy))
    return j, np.asarray(grad).ravel()


@dataclass
class ObjectiveValue:
    """All objective terms with full and reduced gradients."""

    j_main: float
    j_tknv: float
    j_vol: float
    j_total: float
    grad_main: np.ndarray
    grad_tknv: np.ndarray
    grad_vol: np.ndarray
    grad_total: np.ndarray  # full coefficient space
    grad_reduced: np.ndarray  # symmetry-reduced
    state: FieldSolution = dc_field(repr=False, default=None)
    adjoint: np.ndarray = dc_field(repr=False, default=None)


@dataclass
class HeatProblem:
    """Everything needed to evaluate the total objective for a design field."""

    disc: Discretization
    spec: ObjectiveSpec
    smoothing: SmoothingParams
    quad: DesignQuad  # design-level quadrature for the regularizer terms
    sym: Orbits  # the design coefficients' orbits, one per optimization variable

    def field(self, coeffs: np.ndarray) -> DesignField:
        return DesignField(self.disc.basis, coeffs)


def eval_total(problem: HeatProblem, field: DesignField) -> ObjectiveValue:
    """One full function evaluation: state, adjoint, and all gradients."""
    disc, spec, sp_ = problem.disc, problem.spec, problem.smoothing
    sol = solve_state(disc, field, sp_)
    j_main, dj_dt = eval_main(spec, disc, sol)
    adj = solve_adjoint(sol, -dj_dt)
    g_main = sensitivity_contraction(sol, adj)

    j_tknv, g_tknv = tikhonov(field, problem.quad)
    j_vol, g_vol = volume_measure(field, sp_, problem.quad)

    j_total = j_main + spec.chi * j_tknv + spec.rho * j_vol
    g_total = g_main + spec.chi * g_tknv + spec.rho * g_vol
    return ObjectiveValue(
        j_main=j_main,
        j_tknv=j_tknv,
        j_vol=j_vol,
        j_total=j_total,
        grad_main=g_main,
        grad_tknv=g_tknv,
        grad_vol=g_vol,
        grad_total=g_total,
        grad_reduced=problem.sym.reduce(g_total),
        state=sol,
        adjoint=adj.values,
    )
