import os

import numpy as np
import pytest

from igatop import splines
from igatop.config import RunConfig
from igatop.errors import DomainError, GeometryError, RefinementError
from igatop.splines import (
    KnotVector,
    NurbsPatch,
    degree_elevate,
    find_span_array,
    knot_insert,
    patch_quadrature,
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
