"""Level-set design field: evaluation, smoothing, projection, reinitialization.

The field is a linear combination of the design-basis functions produced
by the first refinement stage; its expansion coefficients are the
optimization variables.  Conductivity smoothing uses the polynomial
Heaviside/Dirac pair with support bandwidth delta.  Reinitialization is
geometry based: interface points are the exact real roots of the field's
numerator spline along isoparameter lines, new values are signed
distances to the nearest interface point, and the coarse coefficients are
recovered through the design mass system with the old interface pinned by
penalty rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from math import factorial

import numpy as np
import scipy.sparse as sp
from scipy.interpolate import BSpline, PPoly
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu
from scipy.spatial import cKDTree

from igatop.errors import AssemblyError, ConfigError
from igatop.model import DesignBasis
from igatop.splines import patch_quadrature, rational_values, tabulate


@dataclass(frozen=True)
class SmoothingParams:
    """Support bandwidth and floor value of the smoothed Heaviside."""

    delta: float
    alpha: float = 0.0

    def __post_init__(self):
        if not self.delta > 0:
            raise ConfigError("bandwidth delta must be positive")
        if not 0 <= self.alpha < 1:
            raise ConfigError("floor alpha must lie in [0, 1)")


def heaviside(phi, sp_: SmoothingParams):
    """Smoothed step: alpha below -delta, 1 above delta, cubic in between.

    The cubic is evaluated in the band alone (and at NaN, which it keeps):
    its u**3 is a per-element pow, the step's main cost where few points
    lie in the band."""
    phi = np.asarray(phi, dtype=float)
    d, a = sp_.delta, sp_.alpha
    above = phi >= d
    out = np.where(above, 1.0, a)
    band = ~(above | (phi < -d))
    u = phi[band] / d
    out[band] = 0.75 * (1.0 - a) * (u - u**3 / 3.0) + 0.5 * (1.0 + a)
    return out if out.ndim else float(out)


def dirac(phi, sp_: SmoothingParams):
    """Smoothed impulse: quadratic bump on [-delta, delta], dH/dphi elsewhere zero."""
    phi = np.asarray(phi, dtype=float)
    d, a = sp_.delta, sp_.alpha
    out = np.where(
        np.abs(phi) <= d,
        0.75 * (1.0 - a) / d * (1.0 - (phi / d) ** 2),
        0.0,
    )
    return out if out.ndim else float(out)


@dataclass
class DesignField:
    """Expansion coefficients over a design basis."""

    basis: DesignBasis
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.basis.m,):
            raise ConfigError(f"coefficient vector must have length {self.basis.m}")
        if not np.all(np.isfinite(c)):
            raise ConfigError("coefficients must be finite")
        self.coeffs = c

    def with_coeffs(self, coeffs: np.ndarray) -> "DesignField":
        return DesignField(self.basis, coeffs)


# ---------------------------------------------------------------------------
# design-level quadrature and the mass system
# ---------------------------------------------------------------------------


def _basis_rows(basis: DesignBasis, k: int, pts: np.ndarray):
    """The tabulation of patch k at points pts, and the sparse rows of the
    design-basis values there."""
    tab = tabulate(basis.patches[k], pts)
    return tab, _sparse_rows(basis, k, tab, tab.values)


def _sparse_rows(basis: DesignBasis, k: int, tab, values: np.ndarray) -> sp.csr_matrix:
    """One sparse row per point of a patch-k tabulation, its local values
    (n, nloc) placed in the design basis's columns."""
    n, nloc = tab.indices.shape
    rows = np.repeat(np.arange(n), nloc)
    cols = (tab.indices + int(basis.offsets[k])).ravel()
    return sp.csr_matrix((values.ravel(), (rows, cols)), shape=(n, basis.m))


@dataclass
class DesignQuad:
    """Quadrature bundle over the design region on the design-level mesh."""

    basis: DesignBasis
    phys: np.ndarray  # (nq, 2)
    w: np.ndarray  # weights x |J| (nq,)
    D: sp.csr_matrix  # basis values (nq, m)
    Dx: sp.csr_matrix
    Dy: sp.csr_matrix
    mass: sp.csr_matrix  # (m, m)
    _mass_lu: object = None

    def mass_solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._mass_lu is None:
            try:
                self._mass_lu = splu(self.mass.tocsc())
            except RuntimeError as exc:
                raise AssemblyError(f"singular design mass matrix: {exc}") from exc
        return self._mass_lu.solve(rhs)


def design_quadrature(basis: DesignBasis, n_per_span: int | None = None) -> DesignQuad:
    """Gauss bundle on the design mesh; raise n_per_span to resolve the
    smoothed Heaviside/Dirac band when it is narrower than a knot span."""
    phys, w, Ds, Dxs, Dys = [], [], [], [], []
    for k in range(len(basis.patches)):
        pts, wts = patch_quadrature(basis.patches[k], n_per_span)
        tab, D = _basis_rows(basis, k, pts)
        phys.append(tab.phys)
        w.append(wts * tab.det_j)
        Ds.append(D)
        Dxs.append(_sparse_rows(basis, k, tab, tab.dx))
        Dys.append(_sparse_rows(basis, k, tab, tab.dy))
    D = sp.vstack(Ds, format="csr")
    w = np.concatenate(w)
    mass = (D.T @ D.multiply(w[:, None])).tocsr()
    return DesignQuad(
        basis=basis,
        phys=np.concatenate(phys),
        w=w,
        D=D,
        Dx=sp.vstack(Dxs, format="csr"),
        Dy=sp.vstack(Dys, format="csr"),
        mass=mass,
    )


def project_lsf(quad: DesignQuad, target) -> np.ndarray:
    """L2 projection of a scalar function of physical position onto the basis."""
    vals = np.asarray(target(quad.phys), dtype=float)
    return project_values(quad, vals)


def project_values(quad: DesignQuad, values: np.ndarray) -> np.ndarray:
    rhs = quad.D.T @ (quad.w * values)
    return quad.mass_solve(rhs)


# ---------------------------------------------------------------------------
# interface points and reinitialization
# ---------------------------------------------------------------------------


def phi_on_patch(field: DesignField, k: int, pts: np.ndarray) -> np.ndarray:
    """phi at parameter points `pts` of the design basis's k-th patch, from
    its rational basis alone (no geometry)."""
    indices, values = rational_values(field.basis.patches[k], pts)
    return np.einsum("nl,nl->n", values, field.coeffs[field.basis.patch_slice(k)][indices])


def _span_lines(kv, per_span: int) -> np.ndarray:
    """per_span offset midpoints in every nonempty span of kv."""
    breaks = kv.span_breaks()
    t = (np.arange(per_span) + 0.5) / per_span
    return (breaks[:-1, None] + np.diff(breaks)[:, None] * t).ravel()


def interface_points(field: DesignField, lines_per_span: int = 20):
    """Zero-contour points: the exact roots of phi along isoparameter lines.

    Returns (points (n, 2) physical, their model patch ids (n,), (u, v) (n, 2)).
    Per design patch and per parametric direction, lines_per_span lines
    cross each knot span.  Along a line phi is a spline over a positive
    weight spline, so its zeros are the real roots of the numerator's
    polynomial pieces, found once per line from its pp-form.
    """
    if lines_per_span < 1:
        raise ConfigError("lines_per_span must be >= 1")
    basis = field.basis
    pts_out, pid_out, uv_out = [], [], []
    for k, patch in enumerate(basis.patches):
        net = field.coeffs[basis.patch_slice(k)].reshape(patch.shape) * patch.weights
        for fixed_axis in (0, 1):
            kv_fixed, kv_run, grid = patch.knots_u, patch.knots_v, net
            if fixed_axis == 1:
                kv_fixed, kv_run, grid = kv_run, kv_fixed, net.T
            lines = _span_lines(kv_fixed, lines_per_span)
            # numerator coefficients in the running direction, one column per line
            cw = BSpline(kv_fixed.values, grid, kv_fixed.degree)(lines).T
            numer = BSpline(kv_run.values, cw, kv_run.degree)
            x, p = kv_run.span_breaks(), kv_run.degree
            pp = np.stack([numer(x[:-1], nu=j) / factorial(j) for j in range(p, -1, -1)])
            line, run = _piece_roots(pp, x)
            uv = np.column_stack([lines[line], run])
            if fixed_axis == 1:
                uv = uv[:, ::-1]
            if uv.size:
                pts_out.append(tabulate(patch, uv, check_jacobian=False).phys)
                pid_out.append(np.full(len(uv), basis.patch_ids[k]))
                uv_out.append(uv)
    if not pts_out:
        return np.empty((0, 2)), np.empty(0, dtype=int), np.empty((0, 2))
    pts = np.concatenate(pts_out)
    # deduplicate crossings found from both line directions
    keep = orbits(len(pts), [_coincident_pairs(pts, 10 * _match_tolerance(pts))]).lowest
    return pts[keep], np.concatenate(pid_out)[keep], np.concatenate(uv_out)[keep]


def _piece_roots(pp: np.ndarray, x: np.ndarray):
    """Real roots of piecewise polynomials, as
    ``PPoly(pp[..., l], x).roots(extrapolate=False)`` lists them line by
    line; returns (line index, root) in that order.  Pieces of degree 2 or
    less are solved every line at once in closed form; higher degrees go
    line by line through `PPoly.roots` itself, whose eigenvalue solve the
    closed form cannot reproduce to the bit.

    pp is (degree + 1, pieces, lines), highest power first, in each piece's
    local coordinate.  The rules are scipy's (``real_roots`` and
    ``croots_poly1`` in scipy/interpolate/_ppoly.pyx), with its formulas:
    a sign change across a breakpoint is a root there, checked before the
    piece's own roots; a piece that is zero everywhere gives its start
    (scipy lists a NaN after it, left out here); a linear piece gives
    -c0 / c1; a quadratic gives no root for a negative discriminant, else
    both roots by the formulas that avoid cancellation, in scipy's order;
    each root takes one Newton step unless the step is as large as the
    root; a root counts inside its closed piece; and a root equal to the
    one listed just before it (on the same line) is dropped.
    """
    if pp.shape[0] > 3:
        return _ppoly_roots(pp, x)
    c2, c1, c0 = np.concatenate([np.zeros((3 - pp.shape[0],) + pp.shape[1:]), pp])
    pieces, lines = c0.shape
    start, end = x[:-1, None], x[1:, None]
    h = (x[1:] - x[:-1])[:-1, None]
    # the value at the end of the piece before, in scipy's order of terms
    before = ((0.0 + c0[:-1]) + c1[:-1] * h) + c2[:-1] * (h * h)
    cross = ((before < 0) & (c0[1:] > 0)) | ((before > 0) & (c0[1:] < 0))
    quad, lin = c2 != 0, (c2 == 0) & (c1 != 0)
    zero = (c2 == 0) & (c1 == 0) & (c0 == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = c1 * c1 - 4 * c2 * c0
        sq = np.sqrt(d)
        double = -c1 / (2 * c2)
        first = np.where(d == 0, double, np.where(c1 < 0, (2 * c0) / (-c1 + sq),
                                                  (-c1 - sq) / (2 * c2)))
        second = np.where(d == 0, double, np.where(c1 < 0, (-c1 + sq) / (2 * c2),
                                                   (2 * c0) / (-c1 - sq)))
        first = np.where(lin, -c0 / c1, first)
        # one Newton step on each root, kept when it moves the root by less
        # than the root's own size
        for r in (first, second):
            f = ((0.0 + c0) + c1 * r) + c2 * (r * r)
            df = (0.0 + c1) + c2 * r * 2.0
            step = f / df
            r -= np.where((df != 0) & (np.abs(step) < np.abs(r)), step, 0.0)
    first, second = first + start, second + start
    quad &= d >= 0
    # per piece: the crossing at its start, then its own roots
    value = np.stack([np.broadcast_to(start, c0.shape), np.where(zero, start, first), second])
    valid = np.stack([np.vstack([np.zeros((1, lines), dtype=bool), cross]),
                      zero | ((quad | lin) & (start <= first) & (first <= end)),
                      quad & (start <= second) & (second <= end)])
    # line by line, piece by piece, in that order
    value, valid = value.transpose(2, 1, 0).reshape(-1), valid.transpose(2, 1, 0).reshape(-1)
    line = np.repeat(np.arange(lines), 3 * pieces)[valid]
    value = value[valid]
    fresh = np.ones(value.size, dtype=bool)
    fresh[1:] = (line[1:] != line[:-1]) | (value[1:] != value[:-1])
    return line[fresh], value[fresh]


def _ppoly_roots(pp: np.ndarray, x: np.ndarray):
    """(line index, root) from one `PPoly.roots` call per line: with the
    lines stacked on a trailing axis, scipy drops roots equal to those of
    an earlier line.  The NaN that follows a zero segment is left out."""
    roots = [PPoly(pp[..., i], x).roots(extrapolate=False) for i in range(pp.shape[2])]
    line = np.repeat(np.arange(pp.shape[2]), [r.size for r in roots])
    run = np.concatenate(roots)
    real = ~np.isnan(run)
    return line[real], run[real]


def reinitialize(field: DesignField, quad: DesignQuad, lines_per_span: int = 20) -> DesignField:
    """Rebuild the field as a signed distance to its current zero contour.

    Signed distances to the nearest interface point are projected through
    the design mass system; penalty rows pin the located interface points
    to zero so the contour is preserved.  Without an interface the field
    is returned unchanged (with a warning).
    """
    pts, patch_ids, params = interface_points(field, lines_per_span)
    if len(pts) == 0:
        warnings.warn("reinitialize: field has no zero contour, returning unchanged")
        return field
    tree = cKDTree(pts)
    dist, _ = tree.query(quad.phys)
    phi_old = quad.D @ field.coeffs
    sign = np.where(phi_old >= 0, 1.0, -1.0)
    target = sign * dist

    basis = field.basis
    sel = [(k, patch_ids == pid) for k, pid in enumerate(basis.patch_ids)]
    P = sp.vstack([_basis_rows(basis, k, params[s])[1] for k, s in sel if s.any()], format="csr")
    penalty_weight = 1e6 * float(quad.mass.diagonal().mean())
    M = (quad.mass + penalty_weight * (P.T @ P)).tocsc()
    rhs = quad.D.T @ (quad.w * target)
    try:
        coeffs = splu(M).solve(rhs)
    except RuntimeError as exc:
        raise AssemblyError(f"singular reinitialization system: {exc}") from exc
    return field.with_coeffs(coeffs)


# ---------------------------------------------------------------------------
# geometric measures
# ---------------------------------------------------------------------------


def perimeter(field: DesignField, sp_: SmoothingParams, quad: DesignQuad) -> float:
    """Smoothed interface length: quadrature of dirac(phi) over the design region."""
    phi = quad.D @ field.coeffs
    return float(quad.w @ dirac(phi, sp_))


def volume_measure(field: DesignField, sp_: SmoothingParams, quad: DesignQuad, grad: bool = True):
    """Area covered by the positive-side material and its coefficient
    gradient (zeros unless `grad`)."""
    phi = quad.D @ field.coeffs
    j_vol = float(quad.w @ heaviside(phi, sp_))
    if not grad:
        return j_vol, np.zeros(field.coeffs.size)
    g = quad.D.T @ (quad.w * dirac(phi, sp_))
    return j_vol, np.asarray(g).ravel()


# ---------------------------------------------------------------------------
# orbit partitions: symmetry reduction of the design variables, the dofs and
# the quadrature points
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Orbits:
    """A partition of `index.size` members into `count` orbits: `index` is
    each member's orbit, numbered in the order of its lowest member.  E is
    its 0/1 matrix, E[i, index[i]] = 1; the identity partition is E = I."""

    index: np.ndarray
    count: int

    @staticmethod
    def identity(n: int) -> "Orbits":
        return Orbits(np.arange(n), n)

    def expand(self, x: np.ndarray) -> np.ndarray:
        """E x: one value per orbit, read out at every member."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.count,):
            raise ConfigError(f"expected {self.count} orbit values")
        return x[self.index]

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """E^T v: a value per member, summed over each orbit."""
        if np.shape(v) != self.index.shape:
            raise ConfigError(f"expected {self.index.size} member values")
        return np.bincount(self.index, v, self.count)

    def means(self, v: np.ndarray) -> np.ndarray:
        """Orbit means; exact where v is equal on every orbit."""
        return self.reduce(v) / self.sizes

    @cached_property
    def sizes(self) -> np.ndarray:
        """The number of members of each orbit."""
        return np.bincount(self.index, minlength=self.count)

    def invariant(self, v: np.ndarray) -> bool:
        """Whether v is exactly equal on every orbit."""
        return np.array_equal(v[self.first], v)

    def restrict(self, members: np.ndarray) -> "Orbits":
        """The orbits of `members`, a union of whole orbits, numbered anew."""
        ids, index = np.unique(self.index[members], return_inverse=True)
        return Orbits(index, ids.size)

    @cached_property
    def lowest(self) -> np.ndarray:
        """The lowest member of each orbit, in orbit order."""
        return np.unique(self.index, return_index=True)[1]

    @cached_property
    def first(self) -> np.ndarray:
        """The lowest member of each member's orbit."""
        return self.lowest[self.index]


#: the mirrors about the coordinate axes, as sign pairs: y -> -y and x -> -x
MIRRORS = (np.array([1.0, -1.0]), np.array([-1.0, 1.0]))


def _match_tolerance(pts: np.ndarray) -> float:
    """Distance within which two points coincide: 1e-8 of their bounding
    box's diagonal (at least 1e-8)."""
    xy = np.ascontiguousarray(pts.T)  # reduces along contiguous rows
    return 1e-8 * max(float(np.linalg.norm(xy.max(axis=1) - xy.min(axis=1))), 1.0)


#: the direction, at no simple angle, along which `mirror_images` and
#: `_coincident_pairs` sort the points: distinct points of a structured
#: mesh project apart
_SORT_AXIS = (np.cos(1.0), np.sin(1.0))


def _sorted_projections(pts: np.ndarray):
    """The points' x and y as contiguous arrays, the order that sorts their
    projections onto `_SORT_AXIS`, and the sorted projections."""
    x, y = np.ascontiguousarray(pts.T)
    proj = _SORT_AXIS[0] * x + _SORT_AXIS[1] * y
    order = np.argsort(proj)
    return x, y, order, proj[order]


def mirror_images(pts: np.ndarray) -> list:
    """Per mirror of MIRRORS (a reflection about the origin), the index of
    a point that coincides with each point's image (within
    `_match_tolerance`), or None where some image is no point.  Among
    coincident points the match is any one.

    One sort of the points' projections onto `_SORT_AXIS` serves every
    mirror.  Where the images are the points, the k-th image in the order
    of their projections is the k-th point, unless two points project
    within roundoff of each other or coincident points make the images
    another multiset (a seam whose control points repeat).  An image that
    does not coincide with its pair is matched within the window of the
    sorted projections that lies within the tolerance of its own, where
    every point that coincides with it lies.
    """
    x, y, order, key = _sorted_projections(pts)
    tol = _match_tolerance(pts)
    n, out = x.size, []
    for sx, sy in MIRRORS:
        ix, iy = sx * x, sy * y
        at = _SORT_AXIS[0] * ix + _SORT_AXIS[1] * iy
        images = np.empty(n, dtype=np.intp)
        images[np.argsort(at)] = order
        far = np.flatnonzero(np.hypot(x[images] - ix, y[images] - iy) > tol)
        lo = np.searchsorted(key, at[far] - tol, "left")
        count = np.searchsorted(key, at[far] + tol, "right") - lo
        found = np.zeros(far.size, dtype=bool)
        for k in range(count.max(initial=0)):  # each window's k-th point
            j = order[np.minimum(lo + k, n - 1)]
            hit = ~found & (count > k) & (np.hypot(x[j] - ix[far], y[j] - iy[far]) <= tol)
            images[far[hit]] = j[hit]
            found |= hit
        out.append(images if found.all() else None)
    return out


def orbits(n: int, pairs: list[np.ndarray]) -> Orbits:
    """The orbits of n points joined by the index pairs (rows of (k, 2)
    arrays)."""
    i, j = np.concatenate([np.zeros((0, 2), dtype=int)] + pairs).T
    count, index = connected_components(sp.coo_matrix((np.ones(i.size), (i, j)), shape=(n, n)),
                                        directed=False)
    return Orbits(index, int(count))


def _coincident_pairs(pts: np.ndarray, tol: float) -> np.ndarray:
    """Every pair of points within tol of each other, as rows (i, j): in
    the order of their projections onto `_SORT_AXIS`, each point with the
    later points of its window within tol."""
    x, y, order, key = _sorted_projections(pts)
    later = np.searchsorted(key, key + tol, "right") - np.arange(key.size) - 1
    a = np.repeat(np.arange(key.size), later)  # each window's point and its later ones
    b = a + 1 + np.arange(a.size) - np.repeat(np.cumsum(later) - later, later)
    i, j = order[a], order[b]
    return np.column_stack([i, j])[np.hypot(x[i] - x[j], y[i] - y[j]) <= tol]


def net_orbits(pts: np.ndarray, images: list[np.ndarray]) -> Orbits:
    """Orbits of a control net: coincident points (multi-patch seams) and
    each point with its `images` (index arrays from `mirror_images`)."""
    pairs = [_coincident_pairs(pts, _match_tolerance(pts))]
    pairs += [np.column_stack([np.arange(j.size), j]) for j in images]
    return orbits(len(pts), pairs)


def build_symmetry_map(basis: DesignBasis, mode: str = "xy") -> Orbits:
    """Group design coefficients into orbits, the free optimization
    variables.

    Modes: 'none' keeps every coefficient independent; 'coincide' merges
    geometrically coincident control points (multi-patch seams); 'xy' also
    merges the images under each mirror of MIRRORS that maps the net onto
    itself, so a net with no such mirror gets the 'coincide' orbits.
    """
    if mode == "none":
        return Orbits.identity(basis.m)
    if mode not in ("coincide", "xy"):
        raise ConfigError(f"unknown symmetry mode {mode!r}")
    pts = basis.control_points
    images = [j for j in mirror_images(pts) if j is not None] if mode == "xy" else []
    return net_orbits(pts, images)
