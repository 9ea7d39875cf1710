import os

import numpy as np
import pytest

from igatop import splines
from igatop.config import RunConfig
from igatop.errors import DomainError, GeometryError, RefinementError
from igatop.model import RefineSpec, design_basis_for, refine_model
from igatop.splines import (
    KnotVector,
    NurbsPatch,
    degree_elevate,
    find_span_array,
    gauss_points_1d,
    knot_insert,
    patch_quadrature,
    rational_values,
    subdivide_spans,
    tabulate,
)

RNG = np.random.default_rng(20240817)
CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def cox_de_boor(knots, degree, i, u):
    """Independent recursive B-spline evaluation used as an oracle."""
    if degree == 0:
        last = knots[-1]
        if u == last and knots[i] < u <= knots[i + 1]:
            return 1.0
        return 1.0 if knots[i] <= u < knots[i + 1] else 0.0
    left = 0.0
    den = knots[i + degree] - knots[i]
    if den > 0:
        left = (u - knots[i]) / den * cox_de_boor(knots, degree - 1, i, u)
    right = 0.0
    den = knots[i + degree + 1] - knots[i + 1]
    if den > 0:
        right = (knots[i + degree + 1] - u) / den * cox_de_boor(knots, degree - 1, i + 1, u)
    return left + right


def boehm_insert(U, p, Pw, u):
    """Boehm's single-knot insertion (Piegl & Tiller, The NURBS Book, A5.1)
    along axis 0 of the homogeneous net Pw; the reference for refinement."""
    n = Pw.shape[0]
    span = min(max(int(np.searchsorted(U, u, side="right") - 1), p), n - 1)
    s = int(np.sum(U == u))
    Q = np.empty((n + 1,) + Pw.shape[1:])
    Q[: span - p + 1] = Pw[: span - p + 1]
    for i in range(span - p + 1, span - s + 1):
        alpha = (u - U[i]) / (U[i + p] - U[i])
        Q[i] = alpha * Pw[i] + (1.0 - alpha) * Pw[i - 1]
    Q[span - s + 1:] = Pw[span - s:]
    return np.insert(U, span + 1, u), Q


def homogeneous(patch):
    w = patch.weights[..., None]
    return np.concatenate([patch.control_points * w, w], axis=-1)


def boehm_subdivide(patch, k_u, k_v):
    """subdivide_spans by one Boehm insertion per new knot: knots, control points and weights."""
    Pw = homogeneous(patch)
    knots = [patch.knots_u.values, patch.knots_v.values]
    for axis, (kv, k) in enumerate(((patch.knots_u, k_u), (patch.knots_v, k_v))):
        if k <= 1:
            continue
        breaks = kv.span_breaks()
        new = np.concatenate(
            [a + (b - a) * np.arange(1, k) / k for a, b in zip(breaks[:-1], breaks[1:])]
        )
        U, net = kv.values, np.moveaxis(Pw, axis, 0)
        for u in new:
            U, net = boehm_insert(U, kv.degree, net, float(u))
        knots[axis], Pw = U, np.moveaxis(net, 0, axis)
    return knots[0], knots[1], Pw[..., :2] / Pw[..., 2:], Pw[..., 2]


def quarter_circle_patch(radius=1.0, r_in=0.5):
    """Annular 90-degree sector: linear radial (u) x rational quadratic arc (v)."""
    kvu = KnotVector(np.array([0.0, 0, 1, 1]), 1)
    kvv = KnotVector(np.array([0.0, 0, 0, 1, 1, 1]), 2)
    w = np.sqrt(2.0) / 2.0
    arc = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cps = np.empty((2, 3, 2))
    cps[0] = arc * r_in
    cps[1] = arc * radius
    weights = np.array([[1.0, w, 1.0], [1.0, w, 1.0]])
    return NurbsPatch(kvu, kvv, cps, weights)


def points_first_basis(kv, us, spans):
    """Values and first derivatives, each (npts, degree+1): the Cox-de Boor
    recurrence with the points on the first axis, as first written."""
    U, p, npts = kv.values, kv.degree, us.size
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
    ders = np.zeros((npts, p + 1))
    for r in range(p + 1 if p else 0):
        acc = np.zeros(npts)
        if r >= 1:
            acc += ndu[:, r - 1, p - 1] / (U[spans + r] - U[spans - p + r])
        if r <= p - 1:
            acc -= ndu[:, r, p - 1] / (U[spans + r + 1] - U[spans - p + r + 1])
        ders[:, r] = p * acc
    return vals, ders


def points_first_tabulate(patch, pts):
    """Every table of `tabulate` with the points on the first axis and the
    local functions on the contiguous last one (sums over them by
    `.sum(axis=1)` and einsum), as first written: the reference the
    point-last tabulation must equal bit for bit."""
    n = pts.shape[0]
    kvu, kvv = patch.knots_u, patch.knots_v
    p, q = kvu.degree, kvv.degree
    su, sv = find_span_array(kvu, pts[:, 0]), find_span_array(kvv, pts[:, 1])
    Nu, dNu = points_first_basis(kvu, pts[:, 0], su)
    Nv, dNv = points_first_basis(kvv, pts[:, 1], sv)
    iu = su[:, None] - p + np.arange(p + 1)[None, :]
    iv = sv[:, None] - q + np.arange(q + 1)[None, :]
    loc = (iu[:, :, None] * patch.shape[1] + iv[:, None, :]).reshape(n, -1)
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
    jac = np.empty((n, 2, 2))
    jac[:, :, 0] = np.einsum("nl,nld->nd", dRu, P_loc)
    jac[:, :, 1] = np.einsum("nl,nld->nd", dRv, P_loc)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    return {
        "phys": np.einsum("nl,nld->nd", R, P_loc), "jac": jac, "det_j": det,
        "values": R, "indices": loc,
        "dx": (jac[:, 1, 1, None] * dRu - jac[:, 1, 0, None] * dRv) / det[:, None],
        "dy": (-jac[:, 0, 1, None] * dRu + jac[:, 0, 0, None] * dRv) / det[:, None],
    }


def shipped_patches(name):
    """Every patch of a shipped config's solution mesh and design basis."""
    cfg = RunConfig.load(os.path.join(CONFIGS, f"{name}.yaml"))
    model = cfg.build_model()
    design = {k: v for k, v in cfg.data["design"].items() if k != "symmetry"}
    return (refine_model(model, RefineSpec(**cfg.data["solution"])).patches
            + design_basis_for(model, RefineSpec(**design)).patches)


def sample_params(patch, rng):
    """Seeded random batches (1 to 500 points), every pair of knot
    breakpoints, breakpoints against random values, and the corners."""
    bu, bv = patch.knots_u.span_breaks(), patch.knots_v.span_breaks()
    batches = [rng.random((n, 2)) for n in (1, 2, 3, 8, 9, 500)]
    batches.append(np.stack(np.meshgrid(bu, bv, indexing="ij"), axis=-1).reshape(-1, 2))
    batches.append(np.column_stack([rng.choice(bu, 60), rng.random(60)]))
    batches.append(np.column_stack([rng.random(60), rng.choice(bv, 60)]))
    batches.append(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]))
    return batches


def unit_square_patch(p=1, q=1):
    patch = NurbsPatch(
        KnotVector(np.array([0.0, 0, 1, 1]), 1),
        KnotVector(np.array([0.0, 0, 1, 1]), 1),
        np.array([[[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]]),
        np.ones((2, 2)),
    )
    if p > 1:
        patch = degree_elevate(patch, p - 1, "u")
    if q > 1:
        patch = degree_elevate(patch, q - 1, "v")
    return patch


class TestFindSpan:
    def test_clamped_start(self):
        kv = KnotVector(np.array([0.0, 0, 0, 1, 1, 1]), 2)
        assert find_span_array(kv, [0.0])[0] == 2

    def test_knot_boundary_convention(self):
        kv = KnotVector(np.array([0.0, 0, 0, 0.5, 1, 1, 1]), 2)
        assert find_span_array(kv, [0.5])[0] == 3

    def test_end_maps_to_last_nonempty_span(self):
        kv = KnotVector(np.array([0.0, 0, 0, 1, 1, 1]), 2)
        assert find_span_array(kv, [1.0])[0] == 2

    def test_out_of_range_rejected(self):
        kv = KnotVector(np.array([0.0, 0, 0, 1, 1, 1]), 2)
        with pytest.raises(DomainError):
            find_span_array(kv, [1.5])


class TestBasisEval:
    def test_partition_of_unity_and_grad_sum(self):
        patch = subdivide_spans(quarter_circle_patch(), 3, 2)
        pts = RNG.random((1000, 2))
        tab = tabulate(patch, pts)
        assert np.allclose(tab.values.sum(axis=1), 1.0, atol=1e-12)
        # derivative of the constant-one function vanishes
        assert np.max(np.abs(tab.dx.sum(axis=1))) < 1e-10
        assert np.max(np.abs(tab.dy.sum(axis=1))) < 1e-10

    def test_quarter_circle_exact(self):
        patch = quarter_circle_patch(radius=2.0, r_in=1.0)
        xi = np.column_stack([np.ones(200), RNG.random(200)])
        pts = tabulate(patch, xi).phys
        r = np.hypot(pts[:, 0], pts[:, 1])
        assert np.max(np.abs(r - 2.0)) < 1e-12

    def test_uniform_weights_match_recursive_bspline(self):
        kvu = KnotVector(np.array([0.0, 0, 0, 0.3, 0.7, 1, 1, 1]), 2)
        kvv = KnotVector(np.array([0.0, 0, 0.5, 1, 1]), 1)
        nu, nv = kvu.n_funcs, kvv.n_funcs
        cps = RNG.random((nu, nv, 2)) + np.stack(
            np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij"), axis=-1
        )
        patch = NurbsPatch(kvu, kvv, cps, np.ones((nu, nv)))
        for u, v in RNG.random((25, 2)):
            tab = tabulate(patch, np.array([[u, v]]))
            dense = np.zeros(nu * nv)
            dense[tab.indices[0]] = tab.values[0]
            for i in range(nu):
                for j in range(nv):
                    expect = cox_de_boor(kvu.values, 2, i, u) * cox_de_boor(kvv.values, 1, j, v)
                    assert dense[i * nv + j] == pytest.approx(expect, abs=1e-12)

    def test_degenerate_jacobian_raises(self):
        kv = KnotVector(np.array([0.0, 0, 1, 1]), 1)
        cps = np.zeros((2, 2, 2))  # collapsed net
        patch = NurbsPatch(kv, kv, cps, np.ones((2, 2)))
        with pytest.raises(GeometryError):
            tabulate(patch, np.array([[0.5, 0.5]]))
        # unchecked, the geometry comes back; the gradients are not needed for it
        assert tabulate(patch, np.array([[0.5, 0.5]]), check_jacobian=False).det_j[0] == 0.0


class TestPointLast:
    """`tabulate` works with the points on the last axis; every table it
    returns equals the points-first formulation bit for bit."""

    @pytest.mark.parametrize("name", ["annulus", "cloak", "camouflage"])
    def test_equals_points_first_on_shipped_patches(self, name):
        rng = np.random.default_rng(20261019)
        for patch in shipped_patches(name):
            for pts in sample_params(patch, rng):
                ref = points_first_tabulate(patch, pts)
                tab = tabulate(patch, pts, check_jacobian=False)
                for key, want in ref.items():
                    got = getattr(tab, key)
                    assert got.shape == want.shape, key
                    assert np.array_equal(got, want), key
                    # callers' einsums over the rows depend on the layout
                    assert got.flags.c_contiguous, key

    def test_equals_points_first_at_higher_degrees(self):
        # 16 and more local functions: numpy's pairwise sum takes more
        # than one block of eight; degree 0 has a zero Jacobian, so NaN gradients
        rng = np.random.default_rng(7)
        for p, q in [(0, 1), (1, 1), (3, 3), (3, 4), (7, 8)]:
            kvs = [KnotVector(np.r_[np.zeros(d + 1), np.sort(rng.random(3)), np.ones(d + 1)], d)
                   for d in (p, q)]
            nu, nv = kvs[0].n_funcs, kvs[1].n_funcs
            grid = np.stack(np.meshgrid(np.linspace(0, 1, nu), np.linspace(0, 2, nv),
                                        indexing="ij"), axis=-1)
            patch = NurbsPatch(*kvs, grid + 0.01 * rng.random((nu, nv, 2)),
                               0.5 + rng.random((nu, nv)))
            for pts in sample_params(patch, rng):
                with np.errstate(divide="ignore", invalid="ignore"):
                    ref = points_first_tabulate(patch, pts)
                    tab = tabulate(patch, pts, check_jacobian=False)
                    for key, want in ref.items():
                        assert np.array_equal(getattr(tab, key), want, equal_nan=True), (p, q, key)

    @pytest.mark.parametrize("name", ["annulus", "cloak", "camouflage"])
    def test_rational_values_equal_tabulate(self, name):
        # the basis alone (levelset.phi_on_patch) gives tabulate's indices
        # and values bit for bit, with the same contiguous layout
        rng = np.random.default_rng(20261020)
        for patch in shipped_patches(name):
            for pts in sample_params(patch, rng):
                tab = tabulate(patch, pts, check_jacobian=False)
                for got, want in zip(rational_values(patch, pts), (tab.indices, tab.values)):
                    assert np.array_equal(got, want) and got.flags.c_contiguous

    def test_read_order_does_not_matter(self):
        patch = shipped_patches("cloak")[0]
        pts = np.random.default_rng(3).random((200, 2))
        first = tabulate(patch, pts)
        dx, dy, values = first.dx, first.dy, first.values
        second = tabulate(patch, pts)
        assert np.array_equal(second.values, values)
        assert np.array_equal(second.dy, dy)
        assert np.array_equal(second.dx, dx)


class TestKnotInsert:
    def test_identity_on_empty(self):
        patch = quarter_circle_patch()
        out = knot_insert(patch, [], "u")
        assert out is patch

    def test_circle_preserved(self):
        patch = quarter_circle_patch(radius=1.5, r_in=1.0)
        out = knot_insert(patch, [0.5], "v")
        xi = np.column_stack([np.ones(100), RNG.random(100)])
        r = np.hypot(*tabulate(out, xi).phys.T)
        assert np.max(np.abs(r - 1.5)) < 1e-12

    def test_geometry_map_unchanged(self):
        patch = quarter_circle_patch()
        out = knot_insert(knot_insert(patch, [0.25, 0.5, 0.5], "v"), [0.3, 0.9], "u")
        xi = RNG.random((100, 2))
        assert np.max(np.abs(tabulate(out, xi).phys - tabulate(patch, xi).phys)) < 1e-10

    def test_grid_dims_grow_by_knot_counts(self):
        patch = quarter_circle_patch()
        out = subdivide_spans(subdivide_spans(patch, 2, 2), 2, 2)
        # u: 1 span -> 4 spans adds 3 knots; v likewise
        assert out.shape == (patch.shape[0] + 3, patch.shape[1] + 3)

    def test_multiplicity_overflow_rejected(self):
        patch = quarter_circle_patch()
        with pytest.raises(RefinementError):
            knot_insert(patch, [0.5, 0.5, 0.5], "v")


class TestDegreeElevate:
    def test_identity_for_t0(self):
        patch = quarter_circle_patch()
        assert degree_elevate(patch, 0, "u") is patch

    def test_geometry_preserved(self):
        patch = quarter_circle_patch(radius=2.0, r_in=1.0)
        out = degree_elevate(degree_elevate(patch, 1, "v"), 1, "u")
        assert out.knots_v.degree == 3 and out.knots_u.degree == 2
        xi = RNG.random((100, 2))
        assert np.max(np.abs(tabulate(out, xi).phys - tabulate(patch, xi).phys)) < 1e-10
        xi_outer = np.column_stack([np.ones(50), RNG.random(50)])
        r = np.hypot(*tabulate(out, xi_outer).phys.T)
        assert np.max(np.abs(r - 2.0)) < 1e-10

    def test_elevate_insert_commute_on_geometry(self):
        patch = quarter_circle_patch()
        a = knot_insert(degree_elevate(patch, 1, "v"), [0.25, 0.75], "v")
        b = degree_elevate(knot_insert(patch, [0.25, 0.75], "v"), 1, "v")
        xi = RNG.random((100, 2))
        assert np.max(np.abs(tabulate(a, xi).phys - tabulate(b, xi).phys)) < 1e-10

    def test_interior_multiplicity_bookkeeping(self):
        patch = knot_insert(quarter_circle_patch(), [0.5], "v")
        out = degree_elevate(patch, 1, "v")
        # simple interior knot gains exactly +1 multiplicity
        assert np.sum(out.knots_v.values == 0.5) == 2
        assert out.shape[1] == patch.shape[1] + 2  # +t per Bezier segment


class TestChangeOfBasis:
    @pytest.mark.parametrize("name", ["annulus", "cloak", "camouflage"])
    def test_subdivision_matches_boehm_on_shipped_models(self, name):
        # every base patch, elevated to the solution degrees, at the shipped
        # solution subdivisions
        cfg = RunConfig.load(os.path.join(CONFIGS, f"{name}.yaml"))
        data, model = cfg.data["solution"], cfg.build_model()
        tol = 1e-13 * model.diameter()
        for patch, roles in zip(model.patches, model.roles):
            (du, su), (dv, sv) = [(data[f"degree_{r}"], data[f"subdiv_{r}"]) for r in roles]
            patch = degree_elevate(patch, du - patch.knots_u.degree, "u")
            patch = degree_elevate(patch, dv - patch.knots_v.degree, "v")
            out = subdivide_spans(patch, su, sv)
            ku, kv, cps, w = boehm_subdivide(patch, su, sv)
            assert np.array_equal(out.knots_u.values, ku)
            assert np.array_equal(out.knots_v.values, kv)
            assert np.max(np.abs(out.control_points - cps)) < tol
            assert np.max(np.abs(out.weights - w)) < 1e-13 * np.max(w)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("direction", ["u", "v"])
    def test_bezier_elevation_closed_form(self, p, direction):
        # Q_i = (i/(p+1)) P_{i-1} + (1 - i/(p+1)) P_i on homogeneous points
        bez = KnotVector(np.r_[np.zeros(p + 1), np.ones(p + 1)], p)
        lin = KnotVector(np.array([0.0, 0, 1, 1]), 1)
        cps = RNG.random((p + 1, 2, 2)) + np.arange(p + 1)[:, None, None] * [1.0, 0.0]
        w = 0.5 + RNG.random((p + 1, 2))
        patch = NurbsPatch(bez, lin, cps, w)
        if direction == "v":
            patch = NurbsPatch(lin, bez, np.swapaxes(cps, 0, 1), w.T)
        out = degree_elevate(patch, 1, direction)
        axis = "uv".index(direction)
        P = np.moveaxis(homogeneous(patch), axis, 0)
        a = (np.arange(p + 2) / (p + 1))[:, None, None]
        pad = np.zeros((1,) + P.shape[1:])
        Q = a * np.concatenate([pad, P]) + (1 - a) * np.concatenate([P, pad])
        got = np.moveaxis(homogeneous(out), axis, 0)
        assert np.max(np.abs(got - Q)) < 1e-14 * np.max(np.abs(Q))

    @pytest.mark.parametrize("values,degree", [
        ([0.0, 0, 0, 1, 1, 1], 2),  # the interior knot 0.5 dropped
        ([0.0, 0, 0, 0, 0.5, 1, 1, 1, 1], 3),  # degree raised, multiplicity not
        ([0.0, 0, 0.5, 1, 1], 1),  # degree lowered
        ([0.0, 0, 0, 0.25, 0.5, 0.5, 0.5, 1, 1, 1], 2),  # multiplicity above the degree
        ([0.0, 0, 0, 0.5, 2, 2, 2], 2),  # another parametric range
    ])
    def test_target_not_containing_the_patch_rejected(self, values, degree):
        patch = knot_insert(quarter_circle_patch(), [0.5], "v")
        with pytest.raises(RefinementError):
            splines._change_basis(patch, "v", np.array(values), degree)


class TestQuadrature:
    @pytest.mark.parametrize("name", ["annulus", "cloak", "camouflage"])
    def test_gauss_points_equal_the_per_span_loop(self, name):
        for patch in shipped_patches(name):
            for kv in (patch.knots_u, patch.knots_v):
                for n_g in (None, 2, 5):
                    gx, gw = np.polynomial.legendre.leggauss(kv.degree + 1 if n_g is None else n_g)
                    breaks = kv.span_breaks()
                    pts = np.concatenate(
                        [0.5 * (a + b) + 0.5 * (b - a) * gx for a, b in zip(breaks[:-1], breaks[1:])])
                    wts = np.concatenate([0.5 * (b - a) * gw for a, b in zip(breaks[:-1], breaks[1:])])
                    got = gauss_points_1d(kv, n_g)
                    assert np.array_equal(got[0], pts) and np.array_equal(got[1], wts)

    def test_unit_square_area(self):
        patch = unit_square_patch()
        pts, w = patch_quadrature(patch)
        tab = tabulate(patch, pts)
        assert (w * tab.det_j).sum() == pytest.approx(1.0, abs=1e-13)

    def test_annulus_sector_area(self):
        patch = subdivide_spans(quarter_circle_patch(radius=2.0, r_in=1.0), 4, 4)
        pts, w = patch_quadrature(patch)
        tab = tabulate(patch, pts)
        area = (w * tab.det_j).sum()
        assert area == pytest.approx(np.pi * (4 - 1) / 4, rel=1e-8)
