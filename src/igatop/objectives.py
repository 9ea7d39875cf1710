"""Objective functionals, their partials, and the full evaluation pipeline.

Three objective kinds: the annular integral of T^2, and the normalized
cloak/camouflage disturbance functionals |T - T_ref|^2 integrated over
their evaluation regions and divided by the disturbance of the
all-insulator reference.  A total objective adds Tikhonov (gradient
penalty) and volume terms with weights chi and rho.  One evaluation runs
state solve, adjoint solve, and the stiffness-derivative contraction to
produce the exact gradient with respect to the design coefficients.

J and dJ/dT run at one quadrature point per orbit of the mirror group the
state was solved on (see the assembly module), on the orbits that meet
the objective's region alone, with the objective's weights summed over
each orbit once per partition (`ObjectiveSpec.on_orbits`); dJ/dT with its
weights in, zero on the other orbits, is the load `solve_adjoint` takes.  The regularizers' values are always computed,
since the run records print them; their gradients only at a nonzero
weight.
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
    # per partition of the quadrature points into orbits: the mask and
    # t_ref_q it was built from and the terms `on_orbits` returns
    _orbit_terms: dict = dc_field(repr=False, default_factory=dict, init=False, compare=False)

    def __post_init__(self):
        if self.kind not in OBJECTIVE_REGIONS:
            raise ConfigError(f"unknown objective kind {self.kind!r}")
        if not (0 <= self.chi < np.inf and 0 <= self.rho < np.inf):
            raise ConfigError("regularization weights must be finite and non-negative")
        if self.j_norm <= 0:
            raise ConfigError("normalization must be positive")

    def on_orbits(self, disc: Discretization, quad: Orbits):
        """The objective's terms at the orbits of `quad` that meet its
        region, in orbit order: those orbits, the rows of disc.N at their
        lowest points, the sum of w * mask over each one's points and t_ref
        as its mean over those points weighted by w (None without a
        reference).  Built once per partition and kept while `mask` and
        `t_ref_q` are the same arrays, which are made read-only, so that no
        edit in place can leave the terms stale.  On the identity partition
        the orbits are the points in the region, with w and t_ref
        themselves."""
        terms = self._orbit_terms.get(quad)
        if terms is None or terms[0] is not self.mask or terms[1] is not self.t_ref_q:
            for a in (self.mask, self.t_ref_q):
                if a is not None:
                    a.flags.writeable = False
            wm = np.where(self.mask, disc.w, 0.0)
            w = quad.reduce(wm)
            region = np.flatnonzero(w > 0.0)
            t_ref = self.t_ref_q
            if t_ref is not None:
                t_ref = (quad.reduce(wm * t_ref)[region] / w[region] if quad.count < t_ref.size
                         else t_ref[region])
            terms = self._orbit_terms[quad] = (self.mask, self.t_ref_q, region,
                                               disc.N[quad.lowest[region]], w[region], t_ref)
        return terms[2:]


def compute_reference_fields(disc: Discretization, kind: str):
    """Reference and all-insulator fields plus the normalization integral.

    The reference case fills the objective's free regions (obstacle/object
    and design band) with the base material; the disturbed case fills the
    design band with the insulator.  Both fields are mirror symmetric, so
    they solve on the orbits of the mesh's mirror group (found here by the
    first, and kept on the mesh), through one band order of the folded
    E^T K_ff E that both share (`assembly.solve_state`).  Not used for the
    annular objective.
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
    """The objective's spec with its per-run constants.  A cloak or
    camouflage solves its reference fields here, which finds the mesh's
    mirror group (`assembly._mirror_group` keeps it on the mesh), so the
    first evaluation does not search for it; the annulus has none, and its
    first evaluation finds the group."""
    spec = ObjectiveSpec(kind=kind, region=OBJECTIVE_REGIONS[kind], chi=chi, rho=rho)
    if kind in ("cloak", "camouflage"):
        spec.t_ref, _, spec.j_norm = compute_reference_fields(disc, kind)
        spec.t_ref_q = disc.N @ spec.t_ref
    spec.mask = disc.region_mask(spec.region)
    return spec


def eval_main(spec: ObjectiveSpec, disc: Discretization, sol: FieldSolution):
    """Main objective value and its derivative with respect to T at one
    point per orbit of the quadrature points under the group the state was
    solved on, weights in (the adjoint source `solve_adjoint` takes).

    The state is exactly invariant, so T is evaluated at each orbit's
    lowest point alone, on the orbits that meet the objective's region, and
    J sums the integrand there times the orbit's sum of w * mask
    (`ObjectiveSpec.on_orbits`): exact for any mask.  t_ref
    enters as its weighted orbit mean, which drops from J only the square
    of its spread within an orbit (on the shipped objectives t_ref is
    invariant to a few 1e-14 of its largest value).  The derivative
    carries the same weights, which puts on every orbit the load of the
    orbit's points summed; the adjoint solves with the invariant load of
    those sums.  The reduced gradient stays exact for any mask and t_ref:
    each dT/dx_r of a symmetric design is mirror invariant, so the solve
    drops only the full gradient's antisymmetric part, which no reduced
    variable reads.  On the shipped objectives that part is roundoff, as
    each mirror keeps every point's region label.  On the trivial group
    every point is its own orbit, with weight w * mask.
    """
    quad = sol.lu.sub.group.quad
    region, N, w, t_ref = spec.on_orbits(disc, quad)
    T = N @ sol.values
    if spec.kind == "annular":
        integrand = T**2
        dj_dt = 2.0 * T
    else:
        diff = T - t_ref
        integrand = diff**2 / spec.j_norm
        dj_dt = 2.0 * diff / spec.j_norm
    j_main = float((w * integrand).sum())
    load = np.zeros(quad.count)
    load[region] = w * dj_dt
    return j_main, load


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
