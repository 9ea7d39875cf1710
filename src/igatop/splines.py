"""NURBS basis evaluation, derivatives, and refinement.

Implements clamped B-spline/NURBS machinery for tensor-product surface
patches: span lookup, basis functions with first derivatives, rational
(weighted) surface evaluation with physical gradients via the geometry
Jacobian, knot insertion, and degree elevation.  Evaluation routines are
vectorized over batches of parametric points.

Refinement is one change of basis on the homogeneous control net along
one axis.  Knot insertion, degree elevation and span subdivision only
build the target knot vector.  The target space must contain the current
one: the same end knots, a degree raised by t >= 0, and every interior
knot kept with at least its multiplicity plus t but no more than the new
degree.  The curve then lies in the target space, and collocation at the
target's Greville abscissae recovers its control net exactly in exact
arithmetic (Schoenberg-Whitney makes that system nonsingular; de Boor,
A Practical Guide to Splines, ch. XIII).  A target that does not contain
the curve raises RefinementError instead of returning an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from igatop.errors import DomainError, GeometryError, RefinementError

_PARAM_TOL = 1e-12


@dataclass(frozen=True)
class KnotVector:
    """Open (clamped) knot vector with its polynomial degree."""

    values: np.ndarray
    degree: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        p = self.degree
        if p < 0:
            raise RefinementError("degree must be non-negative")
        if vals.ndim != 1 or vals.size < 2 * (p + 1):
            raise RefinementError("knot vector needs at least 2*(degree+1) entries")
        if np.any(np.diff(vals) < 0):
            raise RefinementError("knot vector must be non-decreasing")
        if not (np.all(vals[: p + 1] == vals[0]) and np.all(vals[-(p + 1):] == vals[-1])):
            raise RefinementError("knot vector must be clamped (open)")

    @property
    def n_funcs(self) -> int:
        return self.values.size - self.degree - 1

    @property
    def start(self) -> float:
        return float(self.values[0])

    @property
    def end(self) -> float:
        return float(self.values[-1])

    def span_breaks(self) -> np.ndarray:
        """Distinct knot values (nonempty span boundaries)."""
        return np.unique(self.values)


def find_span_array(kv: KnotVector, us: np.ndarray) -> np.ndarray:
    """Indices k with knots[k] <= u < knots[k+1]; u at the end maps to the last nonempty span."""
    us = np.asarray(us, dtype=float)
    lo, hi = kv.start, kv.end
    tol = _PARAM_TOL * max(1.0, abs(hi - lo))
    if np.any(us < lo - tol) or np.any(us > hi + tol):
        raise DomainError(f"parameter outside [{lo}, {hi}]")
    us = np.clip(us, lo, hi)
    spans = np.searchsorted(kv.values, us, side="right") - 1
    return np.clip(spans, kv.degree, kv.n_funcs - 1)


def basis_and_ders(kv: KnotVector, us: np.ndarray, spans: np.ndarray):
    """Nonzero basis functions and first derivatives at each parameter.

    Returns (vals, ders), each of shape (npts, degree+1); column r holds
    function index spans - degree + r.  Cox-de Boor triangular recurrence,
    vectorized over the point batch.
    """
    U = kv.values
    p = kv.degree
    us = np.asarray(us, dtype=float)
    npts = us.size
    ndu = np.empty((npts, p + 1, p + 1))
    ndu[:, 0, 0] = 1.0
    left = np.empty((npts, p + 1))
    right = np.empty((npts, p + 1))
    for j in range(1, p + 1):
        left[:, j] = us - U[spans + 1 - j]
        right[:, j] = U[spans + j] - us
        saved = np.zeros(npts)
        for r in range(j):
            ndu[:, j, r] = right[:, r + 1] + left[:, j - r]
            temp = ndu[:, r, j - 1] / ndu[:, j, r]
            ndu[:, r, j] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        ndu[:, j, j] = saved
    vals = ndu[:, :, p].copy()

    ders = np.empty((npts, p + 1))
    if p == 0:
        ders[:] = 0.0
        return vals, ders
    for r in range(p + 1):
        acc = np.zeros(npts)
        if r >= 1:
            d1 = U[spans + r] - U[spans - p + r]
            acc += ndu[:, r - 1, p - 1] / d1
        if r <= p - 1:
            d2 = U[spans + r + 1] - U[spans - p + r + 1]
            acc -= ndu[:, r, p - 1] / d2
        ders[:, r] = p * acc
    return vals, ders


@dataclass(frozen=True)
class NurbsPatch:
    """Tensor-product NURBS surface patch in 2D physical space.

    control_points has shape (nu, nv, 2) and weights (nu, nv) with
    nu = len(knots_u) - degree_u - 1 and likewise for nv.
    """

    knots_u: KnotVector
    knots_v: KnotVector
    control_points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        cps = np.asarray(self.control_points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "control_points", cps)
        object.__setattr__(self, "weights", w)
        nu, nv = self.knots_u.n_funcs, self.knots_v.n_funcs
        if cps.shape != (nu, nv, 2):
            raise GeometryError(
                f"control net shape {cps.shape} does not match knot vectors ({nu}, {nv}, 2)"
            )
        if w.shape != (nu, nv):
            raise GeometryError("weight grid shape does not match control net")
        if np.any(w <= 0):
            raise GeometryError("all weights must be positive")

    @property
    def shape(self) -> tuple[int, int]:
        return self.knots_u.n_funcs, self.knots_v.n_funcs

    @property
    def n_ctrl(self) -> int:
        nu, nv = self.shape
        return nu * nv


@dataclass
class PatchTab:
    """Vectorized basis tabulation at a batch of parametric points."""

    params: np.ndarray  # (n, 2)
    phys: np.ndarray  # (n, 2)
    indices: np.ndarray  # (n, nloc) flat local control indices
    values: np.ndarray  # (n, nloc)
    dx: np.ndarray  # (n, nloc) physical d/dx
    dy: np.ndarray  # (n, nloc)
    det_j: np.ndarray  # (n,)
    jac: np.ndarray = field(repr=False, default=None)  # (n, 2, 2)


def tabulate(patch: NurbsPatch, pts: np.ndarray, check_jacobian: bool = True) -> PatchTab:
    """Evaluate the rational basis, gradients, and geometry at parametric points."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = pts.shape[0]
    kvu, kvv = patch.knots_u, patch.knots_v
    p, q = kvu.degree, kvv.degree
    su = find_span_array(kvu, pts[:, 0])
    sv = find_span_array(kvv, pts[:, 1])
    Nu, dNu = basis_and_ders(kvu, pts[:, 0], su)
    Nv, dNv = basis_and_ders(kvv, pts[:, 1], sv)

    nu, nv = patch.shape
    iu = su[:, None] - p + np.arange(p + 1)[None, :]
    iv = sv[:, None] - q + np.arange(q + 1)[None, :]
    loc = (iu[:, :, None] * nv + iv[:, None, :]).reshape(n, -1)

    B = (Nu[:, :, None] * Nv[:, None, :]).reshape(n, -1)
    Bu = (dNu[:, :, None] * Nv[:, None, :]).reshape(n, -1)
    Bv = (Nu[:, :, None] * dNv[:, None, :]).reshape(n, -1)

    w_loc = patch.weights.reshape(-1)[loc]
    P_loc = patch.control_points.reshape(-1, 2)[loc]

    Bw = B * w_loc
    W = Bw.sum(axis=1)
    Wu = (Bu * w_loc).sum(axis=1)
    Wv = (Bv * w_loc).sum(axis=1)
    R = Bw / W[:, None]
    dRu = w_loc * (Bu - B * (Wu / W)[:, None]) / W[:, None]
    dRv = w_loc * (Bv - B * (Wv / W)[:, None]) / W[:, None]

    phys = np.einsum("nl,nld->nd", R, P_loc)
    jac = np.empty((n, 2, 2))
    jac[:, :, 0] = np.einsum("nl,nld->nd", dRu, P_loc)
    jac[:, :, 1] = np.einsum("nl,nld->nd", dRv, P_loc)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    if check_jacobian and np.any(det <= 0):
        raise GeometryError("non-positive Jacobian determinant in patch evaluation")

    dx = (jac[:, 1, 1, None] * dRu - jac[:, 1, 0, None] * dRv) / det[:, None]
    dy = (-jac[:, 0, 1, None] * dRu + jac[:, 0, 0, None] * dRv) / det[:, None]
    return PatchTab(params=pts, phys=phys, indices=loc, values=R, dx=dx, dy=dy, det_j=det, jac=jac)


# ---------------------------------------------------------------------------
# refinement: one change of basis on homogeneous nets
# ---------------------------------------------------------------------------


def _collocation(kv: KnotVector, us: np.ndarray) -> np.ndarray:
    """Dense matrix of every basis function of kv at the points us."""
    spans = find_span_array(kv, us)
    vals, _ = basis_and_ders(kv, us, spans)
    out = np.zeros((us.size, kv.n_funcs))
    cols = spans[:, None] - kv.degree + np.arange(kv.degree + 1)[None, :]
    np.put_along_axis(out, cols, vals, axis=1)
    return out


def _axis_knots(patch: NurbsPatch, direction: str) -> KnotVector:
    if direction not in ("u", "v"):
        raise RefinementError(f"direction must be 'u' or 'v', got {direction!r}")
    return patch.knots_u if direction == "u" else patch.knots_v


def _interior_knots(kv: KnotVector):
    v = kv.values
    return np.unique(v[(v > kv.start) & (v < kv.end)], return_counts=True)


def _change_basis(patch: NurbsPatch, direction: str, values: np.ndarray, degree: int) -> NurbsPatch:
    """The same patch on the knot vector (values, degree) in one direction.

    The new homogeneous net Q solves N_new(g) Q = N_old(g) P at the
    target's Greville abscissae g, once the target space is checked to
    contain the current one (module docstring).
    """
    kv = _axis_knots(patch, direction)
    new = KnotVector(values, degree)
    old_k, old_m = _interior_knots(kv)
    if np.any(_interior_knots(new)[1] > degree):
        raise RefinementError(f"an interior knot would exceed multiplicity {degree}")
    kept = (new.values == old_k[:, None]).sum(axis=1)
    t = degree - kv.degree
    if t < 0 or (new.start, new.end) != (kv.start, kv.end) or np.any(kept < old_m + t):
        raise RefinementError("the target spline space does not contain the patch")

    g = np.lib.stride_tricks.sliding_window_view(new.values[1:-1], degree).mean(axis=1)
    axis = "uv".index(direction)
    w = patch.weights[..., None]
    P = np.moveaxis(np.concatenate([patch.control_points * w, w], axis=-1), axis, 0)
    # solved with this right-hand side, not through N_new^-1 N_old: the
    # beta=1e12 case of test_maximum_principle flips with that roundoff
    rhs = _collocation(kv, g) @ P.reshape(kv.n_funcs, -1)
    Q = np.linalg.solve(_collocation(new, g), rhs).reshape((new.n_funcs,) + P.shape[1:])
    Qw = np.moveaxis(Q, 0, axis)
    knots = [patch.knots_u, patch.knots_v]
    knots[axis] = new
    return NurbsPatch(*knots, control_points=Qw[..., :2] / Qw[..., 2:], weights=Qw[..., 2])


def knot_insert(patch: NurbsPatch, new_knots, direction: str) -> NurbsPatch:
    """Insert knots in one parametric direction; the geometry map is unchanged."""
    new_knots = np.atleast_1d(np.asarray(new_knots, dtype=float))
    if new_knots.size == 0:
        return patch
    kv = _axis_knots(patch, direction)
    tol = _PARAM_TOL * max(1.0, abs(kv.end - kv.start))
    if np.any(new_knots <= kv.start + tol) or np.any(new_knots >= kv.end - tol):
        raise RefinementError("new knots must lie strictly inside the parametric range")
    U = np.sort(np.concatenate([kv.values, new_knots]))
    return _change_basis(patch, direction, U, kv.degree)


def degree_elevate(patch: NurbsPatch, t: int, direction: str) -> NurbsPatch:
    """Raise the polynomial degree by t in one direction; geometry unchanged.

    Every distinct knot's multiplicity rises by t, so continuity is kept.
    """
    if t < 0:
        raise RefinementError("degree increment must be non-negative")
    if t == 0:
        return patch
    kv = _axis_knots(patch, direction)
    knots, mult = np.unique(kv.values, return_counts=True)
    return _change_basis(patch, direction, np.repeat(knots, mult + t), kv.degree + t)


def subdivide_spans(patch: NurbsPatch, k_u: int, k_v: int) -> NurbsPatch:
    """Uniformly split every nonempty span into k pieces per direction."""
    out = patch
    for direction, k in (("u", k_u), ("v", k_v)):
        if k <= 1:
            continue
        breaks = _axis_knots(out, direction).span_breaks()
        new = [a + (b - a) * np.arange(1, k) / k for a, b in zip(breaks[:-1], breaks[1:])]
        out = knot_insert(out, np.concatenate(new), direction)
    return out


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def gauss_points_1d(kv: KnotVector, n_per_span: int | None = None):
    """Gauss-Legendre points/weights over the nonempty spans of a knot vector."""
    n_g = kv.degree + 1 if n_per_span is None else n_per_span
    gx, gw = np.polynomial.legendre.leggauss(n_g)
    breaks = kv.span_breaks()
    pts, wts = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b - a <= 1e-14 * max(1.0, abs(kv.end - kv.start)):
            continue
        half = 0.5 * (b - a)
        pts.append(0.5 * (a + b) + half * gx)
        wts.append(half * gw)
    return np.concatenate(pts), np.concatenate(wts)


def patch_quadrature(patch: NurbsPatch, n_per_span: int | None = None):
    """Tensor Gauss rule over all nonempty spans: (params (n,2), weights (n,))."""
    pu, wu = gauss_points_1d(patch.knots_u, n_per_span)
    pv, wv = gauss_points_1d(patch.knots_v, n_per_span)
    P = np.column_stack(
        [np.repeat(pu, pv.size), np.tile(pv, pu.size)]
    )
    W = (wu[:, None] * wv[None, :]).reshape(-1)
    return P, W
