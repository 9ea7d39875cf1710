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

Tabulation works point-last: the Cox-de Boor table is (p+1, p+1, n) and
every local table (nloc, n), so each numpy operation runs over contiguous
rows of points.  It keeps every float operation, and its order, of the
points-first formulation (the reference in tests/test_splines.py), so
every table equals that one bit for bit:

- a sum over the local functions that was `.sum(axis=1)` over a contiguous
  axis follows numpy's pairwise order there: in order below eight terms,
  else eight running sums over blocks of eight, combined as
  ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remainder (`_sum_local`,
  up to numpy's block of 128 terms);
  for the cloak's nine functions a plain row-by-row sum differs;
- one that was an einsum over the local functions ("nl,nld->nd") runs in
  order: a `.sum(axis=0)` over the leading axis, with at least two values
  behind it (over a single point numpy would sum pairwise);
- the per-point tables callers read are C-contiguous (n, nloc) copies, as
  before: their einsums over a row take another order on a transposed view.

`tabulate` computes the geometry (phys, jac, det_j) at once; `PatchTab`
builds `indices`, `values` and the physical gradients `dx`, `dy` the first
time they are read.  Newton steps that only invert the geometry map, and
callers that only read values, pay for no gradients.  In a traced run the
time to build them lands in the span of the caller that reads them, not in
`splines.tabulate`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    if us.size and (np.fmin.reduce(us) < lo - tol or np.fmax.reduce(us) > hi + tol):
        raise DomainError(f"parameter outside [{lo}, {hi}]")
    # a parameter within tol outside the range lands in the end span here
    spans = np.searchsorted(kv.values, us, side="right") - 1
    return np.minimum(np.maximum(spans, kv.degree, out=spans), kv.n_funcs - 1, out=spans)


def basis_and_ders(kv: KnotVector, us: np.ndarray, spans: np.ndarray):
    """Nonzero basis functions and first derivatives at each parameter.

    Returns (vals, ders), each of shape (degree+1, npts): row r holds
    function index spans - degree + r.  Cox-de Boor triangular recurrence,
    vectorized over the point batch, with the points on the last axis.
    """
    p = kv.degree
    us = np.asarray(us, dtype=float)
    npts = us.size
    out = np.empty((2, p + 1, npts))
    # row k holds knot spans + k + 1 - p, for k < 2p (none at degree 0)
    win = kv.values[spans + np.arange(1 - p, p + 1)[:, None]]
    left = np.empty((p + 1, npts))
    right = np.empty((p + 1, npts))
    np.subtract(us, win[p - 1::-1], out=left[1:])  # us - U[spans + 1 - j]
    np.subtract(win[p:], us, out=right[1:])  # U[spans + j] - us
    ndu = np.empty((p + 1, p + 1, npts))
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        saved = np.zeros(npts)
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved
    out[0] = ndu[:, p]

    # ders[r] = p (ndu[r-1, p-1] / h[r-1] - ndu[r, p-1] / h[r]), h the
    # knot differences U[spans + r + 1] - U[spans + r + 1 - p]; terms with
    # no function drop out
    quot = ndu[:p, p - 1] / (win[p:] - win[:p])
    ders = out[1]
    ders[:] = 0.0
    ders[1:] += quot
    ders[:p] -= quot
    ders *= p
    return out[0], ders


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


def _points_first(a: np.ndarray) -> np.ndarray:
    """A C-contiguous (n, nloc) copy of a point-last (nloc, n) table."""
    return np.ascontiguousarray(a.T)


class PatchTab:
    """Vectorized basis tabulation at a batch of parametric points.

    The geometry (params, phys, det_j and jac) is computed by `tabulate`.
    The per-point tables `indices`, `values`, `dx` and `dy`, each (n, nloc)
    and C-contiguous, are built from the point-last tables the first time
    they are read; the physical gradients dx, dy are computed only then.
    """

    def __init__(self, params, phys, jac, det_j, loc, R, dR):
        self.params = params  # (n, 2)
        self.phys = phys  # (n, 2)
        self.jac = jac  # (n, 2, 2)
        self.det_j = det_j  # (n,)
        self._loc = loc  # (nloc, n) flat local control indices
        self._R = R  # (nloc, n) rational basis values
        self._dR = dR  # (nloc, 2, n) their d/du and d/dv

    @cached_property
    def indices(self) -> np.ndarray:
        return _points_first(self._loc)

    @cached_property
    def values(self) -> np.ndarray:
        return _points_first(self._R)

    @cached_property
    def _grads(self) -> np.ndarray:
        """(2, n, nloc): physical d/dx and d/dy, through the inverse Jacobian."""
        J = self.jac
        along_u = np.stack([J[:, 1, 1], -J[:, 0, 1]])
        along_v = np.stack([-J[:, 1, 0], J[:, 0, 0]])
        g = (along_u * self._dR[:, :1] + along_v * self._dR[:, 1:]) / self.det_j
        return np.ascontiguousarray(g.transpose(1, 2, 0))

    @property
    def dx(self) -> np.ndarray:
        return self._grads[0]

    @property
    def dy(self) -> np.ndarray:
        return self._grads[1]


def _sum_local(a: np.ndarray) -> np.ndarray:
    """Sum of a point-last table over its local functions (axis 0), in the
    order `.sum(axis=1)` takes over a contiguous points-first table.

    That is numpy's pairwise sum (verified on numpy 2.4.6; TestPointLast
    compares the two on every run): from the identity 0.0, in order below
    eight terms, else eight running sums over blocks of eight, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remainder in order.  A
    contiguous copy with `.sum(axis=-1)` gives the same floats but costs
    2-3 ms more per 24,000 points.  Above numpy's block of 128 terms
    (degrees beyond (10, 10)) numpy splits the sum in halves; the blocks
    here run on, which rounds differently but sums the same terms.
    """
    m = a.shape[0]
    if m < 8:
        # a reduction over the leading axis runs in order
        return a.sum(axis=0)
    r = a[:8]
    tail = m - m % 8
    for i in range(8, tail, 8):
        r = r + a[i: i + 8]
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for i in range(tail, m):
        s += a[i]
    return 0.0 + s


def _local_basis(patch: NurbsPatch, pts: np.ndarray):
    """The univariate B-spline values and derivatives at parametric points
    (`basis_and_ders` along u and along v) and the flat control indices of
    each point's local functions, (nloc, n), u outer."""
    kvu, kvv = patch.knots_u, patch.knots_v
    p, q = kvu.degree, kvv.degree
    su = find_span_array(kvu, pts[:, 0])
    sv = find_span_array(kvv, pts[:, 1])
    iu = su - p + np.arange(p + 1)[:, None]
    iv = sv - q + np.arange(q + 1)[:, None]
    loc = (iu[:, None] * patch.shape[1] + iv[None]).reshape((p + 1) * (q + 1), pts.shape[0])
    return basis_and_ders(kvu, pts[:, 0], su), basis_and_ders(kvv, pts[:, 1], sv), loc


def rational_values(patch: NurbsPatch, pts: np.ndarray):
    """The rational basis alone at parametric points: the flat control
    indices and the values of each point's local functions, (n, nloc)
    each, equal to `tabulate`'s `indices` and `values`, without the
    geometry."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    (Nu, _), (Nv, _), loc = _local_basis(patch, pts)
    Bw = (Nu[:, None] * Nv[None]).reshape(loc.shape) * patch.weights.reshape(-1)[loc]
    return _points_first(loc), _points_first(Bw / _sum_local(Bw))


def tabulate(patch: NurbsPatch, pts: np.ndarray, check_jacobian: bool = True) -> PatchTab:
    """Evaluate the rational basis and the geometry at parametric points;
    the physical gradients are computed when first read (PatchTab)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = pts.shape[0]
    nloc = (patch.knots_u.degree + 1) * (patch.knots_v.degree + 1)
    (Nu, dNu), (Nv, dNv), loc = _local_basis(patch, pts)

    # B, dB/du and dB/dv of each local function, (nloc, 3, n)
    Bs = (np.stack([Nu, dNu, Nu], axis=1)[:, None]
          * np.stack([Nv, Nv, dNv], axis=1)[None]).reshape(nloc, 3, n)
    w_loc = patch.weights.reshape(-1)[loc]
    xy_loc = patch.control_points.reshape(-1)[2 * loc[:, None] + np.arange(2)[:, None]]

    Bw = Bs * w_loc[:, None]
    W = _sum_local(Bw)  # W, dW/du, dW/dv
    R = Bw[:, 0] / W[0]
    dR = w_loc[:, None] * (Bs[:, 1:] - Bs[:, :1] * (W[1:] / W[0])) / W[0]

    # each sum over the local functions runs in order, leading axis first
    phys = _points_first((R[:, None] * xy_loc).sum(axis=0))
    dP = (dR[:, :, None] * xy_loc[:, None]).sum(axis=0)  # [d/du, d/dv][x, y]
    jac = np.ascontiguousarray(dP.transpose(2, 1, 0))
    det = dP[0, 0] * dP[1, 1] - dP[1, 0] * dP[0, 1]
    if check_jacobian and np.any(det <= 0):
        raise GeometryError("non-positive Jacobian determinant in patch evaluation")
    return PatchTab(params=pts, phys=phys, jac=jac, det_j=det, loc=loc, R=R, dR=dR)


# ---------------------------------------------------------------------------
# refinement: one change of basis on homogeneous nets
# ---------------------------------------------------------------------------


def _collocation(kv: KnotVector, us: np.ndarray) -> np.ndarray:
    """Dense matrix of every basis function of kv at the points us."""
    spans = find_span_array(kv, us)
    vals, _ = basis_and_ders(kv, us, spans)
    out = np.zeros((us.size, kv.n_funcs))
    cols = spans[:, None] - kv.degree + np.arange(kv.degree + 1)[None, :]
    np.put_along_axis(out, cols, vals.T, axis=1)
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


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1], read-only."""
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.setflags(write=False)
    return rule


def gauss_points_1d(kv: KnotVector, n_per_span: int | None = None):
    """Gauss-Legendre points/weights over the nonempty spans of a knot vector."""
    n_g = kv.degree + 1 if n_per_span is None else n_per_span
    gx, gw = _gauss_legendre(n_g)
    breaks = kv.span_breaks()
    a, b = breaks[:-1], breaks[1:]
    keep = b - a > 1e-14 * max(1.0, abs(kv.end - kv.start))
    a, b = a[keep, None], b[keep, None]
    half = 0.5 * (b - a)
    return (0.5 * (a + b) + half * gx).ravel(), (half * gw).ravel()


def patch_quadrature(patch: NurbsPatch, n_per_span: int | None = None):
    """Tensor Gauss rule over all nonempty spans: (params (n,2), weights (n,))."""
    pu, wu = gauss_points_1d(patch.knots_u, n_per_span)
    pv, wv = gauss_points_1d(patch.knots_v, n_per_span)
    P = np.column_stack(
        [np.repeat(pu, pv.size), np.tile(pv, pu.size)]
    )
    W = (wu[:, None] * wv[None, :]).reshape(-1)
    return P, W
