"""Objective functionals, their partials, and the full evaluation pipeline.

Three objective kinds: the annular integral of T^2, and the normalized
cloak/camouflage disturbance functionals |T - T_ref|^2 integrated over
their evaluation regions and divided by the disturbance of the
all-insulator reference.  A total objective adds Tikhonov (gradient
penalty) and volume terms with weights chi and rho.  One evaluation runs
state solve, adjoint solve, and the stiffness-derivative contraction to
produce the exact gradient with respect to the design coefficients.

Each main objective is one quadratic form on the state's dof values:
J = d^T M d / j_norm, with d = T - t_ref on every dof, Dirichlet dofs
included (T itself for the annulus, whose j_norm is 1), and
M = N^T diag(w * mask) N the mass matrix of the objective's region, built
once per objective (`ObjectiveSpec.mass`).  Its derivative 2 M d / j_norm,
a vector on the dofs, is the adjoint load; `solve_adjoint` takes any load
on the dofs, so nothing here depends on the orbits the state was solved
on.  The regularizers' values are always computed, since the run records
print them; their gradients only at a nonzero weight.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp

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


def region_mass(disc: Discretization, mask: np.ndarray) -> sp.csr_matrix:
    """M = N^T diag(w * mask) N, the mass matrix of the quadrature points in
    `mask`: d^T M d is the integral of (N d)^2 over them."""
    N = disc.N[mask]
    return (N.T @ (N.multiply(disc.w[mask][:, None]))).tocsr()


@dataclass(frozen=True)
class ObjectiveSpec:
    """Objective kind plus the per-run constants make_objective computes:
    reference temperatures at the dofs, normalization and the
    evaluation-region mask at the quadrature points.  The region's mass
    matrix (`mass`) is given with them or built on first use, so a spec
    with another mask is another spec, with its own."""

    kind: str
    region: tuple[str, ...]
    chi: float = 0.0
    rho: float = 0.0
    t_ref: np.ndarray | None = None  # reference temperatures at solution dofs
    j_norm: float = 1.0
    mask: np.ndarray | None = dc_field(repr=False, default=None)  # quadrature points in region
    M: InitVar[sp.csr_matrix | None] = None  # region_mass(disc, mask), if built already

    def __post_init__(self, M):
        if self.kind not in OBJECTIVE_REGIONS:
            raise ConfigError(f"unknown objective kind {self.kind!r}")
        if not (0 <= self.chi < np.inf and 0 <= self.rho < np.inf):
            raise ConfigError("regularization weights must be finite and non-negative")
        if not 0 < self.j_norm < np.inf:
            raise ConfigError("normalization must be positive")
        object.__setattr__(self, "_mass", M)

    def mass(self, disc: Discretization) -> sp.csr_matrix:
        """The region's mass matrix M = N^T diag(w * mask) N, in which
        J = d^T M d / j_norm."""
        if self._mass is None:
            object.__setattr__(self, "_mass", region_mass(disc, self.mask))
        return self._mass


def compute_reference_fields(disc: Discretization, kind: str, M: sp.csr_matrix | None = None):
    """Reference and all-insulator fields plus the normalization integral.

    The reference case fills the objective's free regions (obstacle/object
    and design band) with the base material; the disturbed case fills the
    design band with the insulator.  Both fields are mirror symmetric, so
    they solve on the orbits of the mesh's mirror group (found here by the
    first, and kept on the mesh), through one band order of the folded
    E^T K_ff E that both share (`assembly.solve_state`).  The normalization
    is the objective's quadratic form d^T M d at d = t_ins - t_ref, M the
    region's mass matrix (built here unless given), so the all-insulator
    design reads J = 1.  Not used for the annular objective.
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

    if M is None:
        M = region_mass(disc, disc.region_mask(OBJECTIVE_REGIONS[kind]))
    d = t_ins - t_ref
    j_norm = float(d @ (M @ d))
    if j_norm <= 1e-12:
        raise NormalizationError("degenerate normalization: insulator does not disturb the field")
    return t_ref, t_ins, j_norm


def make_objective(disc: Discretization, kind: str, chi: float = 0.0, rho: float = 0.0):
    """The objective's spec with its per-run constants.  A cloak or
    camouflage builds its region's mass matrix here, which its
    normalization needs, and solves its reference fields, which finds the
    mesh's mirror group (`assembly._mirror_group` keeps it on the mesh), so
    the first evaluation does not search for it.  The annulus has neither:
    its first evaluation builds the mass matrix and finds the group."""
    region = OBJECTIVE_REGIONS[kind]
    mask = disc.region_mask(region)
    if kind == "annular":
        return ObjectiveSpec(kind, region, chi, rho, mask=mask)
    M = region_mass(disc, mask)
    t_ref, _, j_norm = compute_reference_fields(disc, kind, M)
    return ObjectiveSpec(kind, region, chi, rho, t_ref, j_norm, mask, M)


def eval_main(spec: ObjectiveSpec, disc: Discretization, sol: FieldSolution):
    """Main objective value J = d^T M d / j_norm and its derivative with
    respect to the state's dof values, 2 M d / j_norm (the load
    `solve_adjoint` takes, negated), with d = T - t_ref (T for the annulus)
    and M the region's mass matrix (`ObjectiveSpec.mass`): one sparse
    product per evaluation, whatever split the state was solved on."""
    d = sol.values if spec.t_ref is None else sol.values - spec.t_ref
    Md = spec.mass(disc) @ d
    return float(d @ Md) / spec.j_norm, (2.0 / spec.j_norm) * Md


def tikhonov(field: DesignField, quad: DesignQuad, grad: bool = True):
    """Gradient penalty over the design region and its coefficient
    gradient (zeros unless `grad`)."""
    gx = quad.Dx @ field.coeffs
    gy = quad.Dy @ field.coeffs
    j = float(quad.w @ (gx**2 + gy**2))
    if not grad:
        return j, np.zeros(field.coeffs.size)
    g = 2.0 * (quad.Dx.T @ (quad.w * gx) + quad.Dy.T @ (quad.w * gy))
    return j, np.asarray(g).ravel()


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

    # the regularizers' values always (the run records print them), their
    # gradients only at a nonzero weight
    j_tknv, g_tknv = tikhonov(field, problem.quad, grad=spec.chi > 0)
    j_vol, g_vol = volume_measure(field, sp_, problem.quad, grad=spec.rho > 0)

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
