"""NURBS basis evaluation, derivatives, and refinement.

Implements clamped B-spline/NURBS machinery for tensor-product surface
patches: span lookup, basis functions with first derivatives, rational
(weighted) surface evaluation with physical gradients via the geometry
Jacobian, knot insertion, and degree elevation.  Evaluation routines are
vectorized over batches of parametric points; refinement operates on
homogeneous control nets so the geometry map is preserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

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
# refinement: knot insertion and degree elevation on homogeneous nets
# ---------------------------------------------------------------------------


def _homogeneous(patch: NurbsPatch) -> np.ndarray:
    Pw = np.empty(patch.control_points.shape[:-1] + (3,))
    Pw[..., :2] = patch.control_points * patch.weights[..., None]
    Pw[..., 2] = patch.weights
    return Pw


def _from_homogeneous(kvu: KnotVector, kvv: KnotVector, Pw: np.ndarray) -> NurbsPatch:
    w = Pw[..., 2]
    cps = Pw[..., :2] / w[..., None]
    return NurbsPatch(knots_u=kvu, knots_v=kvv, control_points=cps, weights=w)


def _knot_multiplicity(values: np.ndarray, u: float) -> int:
    tol = _PARAM_TOL * max(1.0, abs(values[-1] - values[0]))
    return int(np.sum(np.abs(values - u) <= tol))


def _insert_one_1d(U: np.ndarray, p: int, Pw: np.ndarray, u: float):
    """Insert u once into (U, Pw) along axis 0 of Pw. Returns (U_new, Pw_new)."""
    n = Pw.shape[0]
    span = int(np.searchsorted(U, u, side="right") - 1)
    span = min(max(span, p), n - 1)
    s = _knot_multiplicity(U, u)
    if s >= p:
        raise RefinementError(f"inserting {u} would exceed multiplicity {p}")
    Q = np.empty((n + 1,) + Pw.shape[1:])
    Q[: span - p + 1] = Pw[: span - p + 1]
    for i in range(span - p + 1, span - s + 1):
        alpha = (u - U[i]) / (U[i + p] - U[i])
        Q[i] = alpha * Pw[i] + (1.0 - alpha) * Pw[i - 1]
    Q[span - s + 1:] = Pw[span - s:]
    U_new = np.insert(U, span + 1, u)
    return U_new, Q


def knot_insert(patch: NurbsPatch, new_knots, direction: str) -> NurbsPatch:
    """Insert knots in one parametric direction; the geometry map is unchanged."""
    new_knots = np.atleast_1d(np.asarray(new_knots, dtype=float))
    if new_knots.size == 0:
        return patch
    if direction not in ("u", "v"):
        raise RefinementError(f"direction must be 'u' or 'v', got {direction!r}")
    kv = patch.knots_u if direction == "u" else patch.knots_v
    tol = _PARAM_TOL * max(1.0, abs(kv.end - kv.start))
    if np.any(new_knots <= kv.start + tol) or np.any(new_knots >= kv.end - tol):
        raise RefinementError("new knots must lie strictly inside the parametric range")
    Pw = _homogeneous(patch)
    if direction == "v":
        Pw = np.swapaxes(Pw, 0, 1)
    U = kv.values.copy()
    for u in np.sort(new_knots):
        U, Pw = _insert_one_1d(U, kv.degree, Pw, float(u))
    if direction == "v":
        Pw = np.swapaxes(Pw, 0, 1)
        return _from_homogeneous(patch.knots_u, KnotVector(U, kv.degree), Pw)
    return _from_homogeneous(KnotVector(U, kv.degree), patch.knots_v, Pw)


def _elevate_1d(U: np.ndarray, p: int, Pw: np.ndarray, t: int):
    """Degree elevation of a clamped curve by t (Piegl-Tiller A5.9).

    Pw carries homogeneous points along axis 0; trailing axes are payload.
    Returns the elevated (U_new, Pw_new) with every knot multiplicity
    raised by t, so continuity is preserved.
    """
    n = Pw.shape[0] - 1
    m = n + p + 1
    ph = p + t
    ph2 = ph // 2
    payload = Pw.shape[1:]

    bezalfs = np.zeros((ph + 1, p + 1))
    bezalfs[0, 0] = 1.0
    bezalfs[ph, p] = 1.0
    for i in range(1, ph2 + 1):
        inv = 1.0 / comb(ph, i)
        for j in range(max(0, i - t), min(p, i) + 1):
            bezalfs[i, j] = inv * comb(p, j) * comb(t, i - j)
    for i in range(ph2 + 1, ph):
        for j in range(max(0, i - t), min(p, i) + 1):
            bezalfs[i, j] = bezalfs[ph - i, p - j]

    mh = ph
    kind = ph + 1
    r = -1
    a = p
    b = p + 1
    cind = 1
    ua = U[0]

    n_distinct = np.unique(U).size
    Qw = np.zeros((Pw.shape[0] + t * (n_distinct - 1) + 4,) + payload)
    Uh = np.zeros(Qw.shape[0] + ph + 1)
    bpts = Pw[: p + 1].copy()
    ebpts = np.zeros((ph + 1,) + payload)
    next_bpts = np.zeros((p - 1 if p > 1 else 1,) + payload)
    alfs = np.zeros(max(p - 1, 1))

    Qw[0] = Pw[0]
    Uh[: ph + 1] = ua

    while b < m:
        i = b
        while b < m and U[b] == U[b + 1]:
            b += 1
        mul = b - i + 1
        mh += mul + t
        ub = U[b]
        oldr = r
        r = p - mul
        lbz = (oldr + 2) // 2 if oldr > 0 else 1
        rbz = ph - (r + 1) // 2 if r > 0 else ph
        if r > 0:
            numer = ub - ua
            for k in range(p, mul, -1):
                alfs[k - mul - 1] = numer / (U[a + k] - ua)
            for j in range(1, r + 1):
                save = r - j
                s = mul + j
                for k in range(p, s - 1, -1):
                    bpts[k] = alfs[k - s] * bpts[k] + (1.0 - alfs[k - s]) * bpts[k - 1]
                next_bpts[save] = bpts[p]
        for i2 in range(lbz, ph + 1):
            ebpts[i2] = 0.0
            for j in range(max(0, i2 - t), min(p, i2) + 1):
                ebpts[i2] += bezalfs[i2, j] * bpts[j]
        if oldr > 1:
            first = kind - 2
            last = kind
            den = ub - ua
            bet = (ub - Uh[kind - 1]) / den
            for tr in range(1, oldr):
                i2 = first
                j = last
                kj = j - kind + 1
                while j - i2 > tr:
                    if i2 < cind:
                        alf = (ub - Uh[i2]) / (ua - Uh[i2])
                        Qw[i2] = alf * Qw[i2] + (1.0 - alf) * Qw[i2 - 1]
                    if j >= lbz:
                        if j - tr <= kind - ph + oldr:
                            gam = (ub - Uh[j - tr]) / den
                            ebpts[kj] = gam * ebpts[kj] + (1.0 - gam) * ebpts[kj + 1]
                        else:
                            ebpts[kj] = bet * ebpts[kj] + (1.0 - bet) * ebpts[kj + 1]
                    i2 += 1
                    j -= 1
                    kj -= 1
                first -= 1
                last += 1
        if a != p:
            for _ in range(ph - oldr):
                Uh[kind] = ua
                kind += 1
        for j in range(lbz, rbz + 1):
            Qw[cind] = ebpts[j]
            cind += 1
        if b < m:
            for j in range(r):
                bpts[j] = next_bpts[j]
            for j in range(r, p + 1):
                bpts[j] = Pw[b - p + j]
            a = b
            b += 1
            ua = ub
        else:
            for i2 in range(ph + 1):
                Uh[kind + i2] = ub
    nh = mh - ph - 1
    return Uh[: mh + 1].copy(), Qw[: nh + 1].copy()


def degree_elevate(patch: NurbsPatch, t: int, direction: str) -> NurbsPatch:
    """Raise the polynomial degree by t in one direction; geometry unchanged."""
    if t < 0:
        raise RefinementError("degree increment must be non-negative")
    if t == 0:
        return patch
    if direction not in ("u", "v"):
        raise RefinementError(f"direction must be 'u' or 'v', got {direction!r}")
    kv = patch.knots_u if direction == "u" else patch.knots_v
    Pw = _homogeneous(patch)
    if direction == "v":
        Pw = np.swapaxes(Pw, 0, 1)
    U_new, Qw = _elevate_1d(kv.values, kv.degree, Pw, t)
    kv_new = KnotVector(U_new, kv.degree + t)
    if direction == "v":
        Qw = np.swapaxes(Qw, 0, 1)
        return _from_homogeneous(patch.knots_u, kv_new, Qw)
    return _from_homogeneous(kv_new, patch.knots_v, Qw)


def subdivide_spans(patch: NurbsPatch, k_u: int, k_v: int) -> NurbsPatch:
    """Uniformly split every nonempty span into k pieces per direction."""
    out = patch
    for direction, k in (("u", k_u), ("v", k_v)):
        if k <= 1:
            continue
        kv = out.knots_u if direction == "u" else out.knots_v
        breaks = kv.span_breaks()
        new = []
        for a, b in zip(breaks[:-1], breaks[1:]):
            new.extend(a + (b - a) * np.arange(1, k) / k)
        out = knot_insert(out, np.asarray(new), direction)
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
