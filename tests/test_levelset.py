import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import PPoly
from scipy.spatial import cKDTree

from igatop import levelset
from igatop.config import RunConfig, build_pipeline

from igatop.errors import ConfigError
from igatop.levelset import (
    DesignField,
    SmoothingParams,
    _piece_roots,
    _span_lines,
    build_symmetry_map,
    design_quadrature,
    dirac,
    heaviside,
    interface_points,
    mirror_images,
    orbits,
    perimeter,
    phi_on_patch,
    project_lsf,
    project_values,
    reinitialize,
    volume_measure,
)
from igatop.model import RefineSpec, build_annulus, design_basis_for
from igatop.splines import tabulate

RNG = np.random.default_rng(11)
CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
SP = SmoothingParams(0.05)


@pytest.fixture(scope="module")
def annulus_basis():
    return design_basis_for(build_annulus(), RefineSpec(2, 1, 6, 16))


@pytest.fixture(scope="module")
def annulus_quad(annulus_basis):
    return design_quadrature(annulus_basis, 4)


def radius(p):
    return np.hypot(p[:, 0], p[:, 1])


def phi_and_grad(fld, xi):
    """Field value and physical gradient at one point of the annulus design patch."""
    tab = tabulate(fld.basis.patches[0], np.atleast_2d(xi))
    c = fld.coeffs[fld.basis.patch_slice(0)][tab.indices[0]]
    return tab.values[0] @ c, np.array([tab.dx[0] @ c, tab.dy[0] @ c])


class TestSmoothing:
    def test_midpoint(self):
        assert heaviside(0.0, SP) == pytest.approx(0.5, abs=1e-15)

    def test_endpoints(self):
        sp = SmoothingParams(0.05, alpha=0.125)
        assert heaviside(0.05, sp) == pytest.approx(1.0, abs=1e-12)
        assert heaviside(-0.0500001, sp) == pytest.approx(0.125, abs=1e-12)
        # continuity across the band edges
        assert heaviside(-0.05, sp) == pytest.approx(0.125, abs=1e-12)

    def test_hand_evaluated_cubic(self):
        # 3/4 (u - u^3/3) + 1/2 at u = 0.5
        assert heaviside(0.025, SP) == pytest.approx(0.84375, abs=1e-14)

    def test_band_evaluation_equals_the_whole_formula(self):
        # heaviside evaluates its cubic in the band alone: the same floats
        # as the clipped cubic at every point, the band edges, +-0, +-inf
        # and NaN included, for arrays and scalars
        def whole(phi, sp):
            u = np.clip(phi / sp.delta, -1.0, 1.0)
            mid = 0.75 * (1.0 - sp.alpha) * (u - u**3 / 3.0) + 0.5 * (1.0 + sp.alpha)
            return np.where(phi >= sp.delta, 1.0, np.where(phi < -sp.delta, sp.alpha, mid))

        rng = np.random.default_rng(29)
        for sp in (SP, SmoothingParams(2.0, alpha=0.125)):
            d = sp.delta
            edges = [d, -d, np.nextafter(d, 0.0), np.nextafter(-d, 0.0), np.nextafter(d, 9.0),
                     np.nextafter(-d, -9.0), 0.0, -0.0, np.inf, -np.inf, np.nan]
            phi = np.concatenate([rng.uniform(-3.0 * d, 3.0 * d, 5000), edges])
            assert np.array_equal(heaviside(phi, sp), whole(phi, sp), equal_nan=True)
            assert np.array_equal(heaviside(phi.reshape(-1, 1), sp), whole(phi, sp)[:, None],
                                  equal_nan=True)
            for x in edges:
                h = heaviside(x, sp)
                assert isinstance(h, float) and np.array_equal(h, whole(x, sp), equal_nan=True)

    def test_dirac_peak(self):
        assert dirac(0.0, SP) == pytest.approx(15.0, abs=1e-12)

    def test_dirac_compact_support(self):
        assert dirac(0.0501, SP) == 0.0
        assert dirac(-1.0, SP) == 0.0

    def test_dirac_integrates_to_one_minus_alpha(self):
        for alpha in (0.0, 0.2):
            sp = SmoothingParams(0.05, alpha)
            x, w = np.polynomial.legendre.leggauss(8)
            phi = 0.05 * x
            total = 0.05 * (w * dirac(phi, sp)).sum()
            assert total == pytest.approx(1.0 - alpha, abs=1e-10)

    def test_dirac_is_heaviside_derivative(self):
        h = 1e-6
        for phi in np.linspace(-0.049, 0.049, 11):
            fd = (heaviside(phi + h, SP) - heaviside(phi - h, SP)) / (2 * h)
            assert dirac(phi, SP) == pytest.approx(fd, abs=1e-6)

    def test_c1_at_band_edges(self):
        assert abs(dirac(0.05, SP)) <= 1e-12
        assert abs(dirac(-0.05, SP)) <= 1e-12

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            SmoothingParams(0.0)
        with pytest.raises(ConfigError):
            SmoothingParams(0.05, alpha=1.0)


class TestEvalAndProjection:
    def test_constant_field(self, annulus_basis):
        fld = DesignField(annulus_basis, np.full(annulus_basis.m, 3.25))
        phi, grad = phi_and_grad(fld, (0.3, 0.6))
        assert phi == pytest.approx(3.25, abs=1e-12)
        assert np.abs(grad).max() < 1e-10

    def test_linearity(self, annulus_basis):
        c1 = RNG.standard_normal(annulus_basis.m)
        c2 = RNG.standard_normal(annulus_basis.m)
        a, b = 0.7, -1.3
        f1 = DesignField(annulus_basis, c1)
        f2 = DesignField(annulus_basis, c2)
        f3 = DesignField(annulus_basis, a * c1 + b * c2)
        xi = (0.42, 0.77)
        p1, g1 = phi_and_grad(f1, xi)
        p2, g2 = phi_and_grad(f2, xi)
        p3, g3 = phi_and_grad(f3, xi)
        assert p3 == pytest.approx(a * p1 + b * p2, abs=1e-12)
        assert np.allclose(g3, a * g1 + b * g2, atol=1e-11)

    def test_projected_distance_vanishes_on_circle(self, annulus_basis, annulus_quad):
        c = project_lsf(annulus_quad, lambda p: radius(p) - 1.5)
        fld = DesignField(annulus_basis, c)
        # radial coordinate is linear in u, so the target is in the span
        phi, _ = phi_and_grad(fld, (0.5, 0.123))
        assert abs(phi) < 1e-10

    def test_constants_reproduced(self, annulus_quad):
        c = project_lsf(annulus_quad, lambda p: np.full(len(p), 5.0))
        assert np.abs(c - 5.0).max() < 1e-10

    def test_round_trip(self, annulus_basis, annulus_quad):
        c0 = RNG.standard_normal(annulus_basis.m)
        vals = annulus_quad.D @ c0
        c1 = project_values(annulus_quad, vals)
        assert np.abs(c1 - c0).max() < 1e-9

    def test_projection_residual_decreases_with_refinement(self):
        # the centered circle r=1.5 is exactly in the span (radial coordinate
        # is linear in u); an off-center circle exercises real approximation
        target = lambda p: np.hypot(p[:, 0] - 0.2, p[:, 1]) - 1.3
        errs = []
        for sub in ((2, 4), (4, 8), (8, 16)):
            basis = design_basis_for(build_annulus(), RefineSpec(2, 1, *sub))
            quad = design_quadrature(basis, 4)
            c = project_lsf(quad, target)
            res = quad.D @ c - target(quad.phys)
            errs.append(np.sqrt(float(quad.w @ res**2)))
        assert errs[0] > errs[1] > errs[2]


class TestInterfaceAndReinit:
    def test_interface_on_circle(self, annulus_basis, annulus_quad):
        c = project_lsf(annulus_quad, lambda p: radius(p) - 1.5)
        pts, patch_ids, params = interface_points(DesignField(annulus_basis, c), 20)
        assert len(pts) > 50
        assert np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 1.5).max() < 1e-6
        assert params.shape == pts.shape and np.array_equal(patch_ids, np.zeros(len(pts)))

    @pytest.mark.parametrize("R", [1.25, 1.3, 1.5])
    def test_exact_circle_one_point_per_radial_line(self, annulus_basis, R):
        # |P_ij| / |P_0j| is linear in u, so phi = r - R exactly; r = 1.5 is
        # a knot line
        P = annulus_basis.patches[0].control_points
        r = np.hypot(P[..., 0], P[..., 1])
        c = (r / r[:1] - R).ravel()
        pts = interface_points(DesignField(annulus_basis, c), 20)[0]
        assert len(pts) == 24 * 20  # one per radial line: v-spans x lines
        assert np.abs(radius(pts) - R).max() <= 1e-13

    def test_two_crossings_inside_one_scan_cell(self, annulus_basis, annulus_quad):
        # phi depends on v only: its numerator has coefficient 1 except -0.34
        # on one uniform-span quadratic, whose peak 3/4 dips below zero on
        # the middle 0.12 of one span
        patch = annulus_basis.patches[0]
        numer = np.ones(patch.shape)
        numer[:, 4] = -0.34
        fld = DesignField(annulus_basis, (numer / patch.weights).ravel())
        pts, _, params = interface_points(fld, 20)
        assert len(pts) == 2 * 16 * 20  # two per circumferential line
        phi = phi_on_patch(fld, 0, params)
        assert np.abs(phi).max() <= 1e-12
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reinitialize(fld, annulus_quad)

    def test_crossing_found_from_both_directions_kept_once(self, annulus_basis):
        # by the linear precision of the Greville abscissae the numerator is
        # (u - u0) + (v - v0): its zero line crosses the scan lines u = u0
        # and v = v0 at the same point, which both directions find
        patch = annulus_basis.patches[0]

        def greville(kv):
            t, p = kv.values, kv.degree
            return np.array([t[i + 1:i + p + 1].mean() for i in range(t.size - p - 1)])

        u0, v0 = _span_lines(patch.knots_u, 20)[7], _span_lines(patch.knots_v, 20)[5]
        numer = (greville(patch.knots_u) - u0)[:, None] + (greville(patch.knots_v) - v0)
        fld = DesignField(annulus_basis, (numer / patch.weights).ravel())
        pts, _, uv = interface_points(fld, 20)
        assert np.abs(uv.sum(axis=1) - (u0 + v0)).max() <= 1e-12
        assert np.count_nonzero(np.abs(uv - [u0, v0]).max(axis=1) <= 1e-12) == 1
        diam = np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))
        assert not cKDTree(pts).query_pairs(1e-7 * diam)

    def test_positive_field_no_interface(self, annulus_basis):
        pts, patch_ids, params = interface_points(
            DesignField(annulus_basis, np.full(annulus_basis.m, 2.0)), 20
        )
        assert pts.shape == params.shape == (0, 2) and patch_ids.shape == (0,)

    def test_point_count_bound(self, annulus_basis, annulus_quad):
        c = project_lsf(annulus_quad, lambda p: radius(p) - 1.5)
        pts, _, params = interface_points(DesignField(annulus_basis, c), 20)
        patch = annulus_basis.patches[0]
        # lines of constant v run radially (24 v-spans), of constant u
        # circumferentially (16 u-spans)
        radial, circumferential = _span_lines(patch.knots_v, 20), _span_lines(patch.knots_u, 20)
        assert (radial.size, circumferential.size) == (480, 320)
        # the circle crosses each radial line once and no circumferential line
        assert len(pts) == radial.size
        assert np.array_equal(np.sort(params[:, 1]), radial)

    def test_signed_distance_fixed_point(self, annulus_basis, annulus_quad):
        c = project_lsf(annulus_quad, lambda p: radius(p) - 1.5)
        fld = DesignField(annulus_basis, c)
        re = reinitialize(fld, annulus_quad)
        assert np.abs(re.coeffs - c).max() < 5e-3  # projection-level change only

    def test_stretched_field_restored(self, annulus_basis, annulus_quad):
        c = project_lsf(annulus_quad, lambda p: radius(p) - 1.5)
        fld = DesignField(annulus_basis, 3.0 * c)
        re = reinitialize(fld, annulus_quad)
        gx = annulus_quad.Dx @ re.coeffs
        gy = annulus_quad.Dy @ re.coeffs
        phi = annulus_quad.D @ re.coeffs
        band = np.abs(phi) <= 2 * SP.delta
        norms = np.hypot(gx, gy)[band]
        assert norms.min() > 0.9 and norms.max() < 1.1

    def test_zero_contour_preserved(self, annulus_basis, annulus_quad):
        from igatop.splines import tabulate

        c = project_lsf(annulus_quad, lambda p: radius(p) - 1.5)
        fld = DesignField(annulus_basis, 3.0 * c)
        uv = interface_points(fld, 20)[2]
        re = reinitialize(fld, annulus_quad)
        tab = tabulate(annulus_basis.patches[0], uv, check_jacobian=False)
        phi_new = np.einsum("nl,nl->n", tab.values, re.coeffs[tab.indices])
        diam = 4.0
        assert np.abs(phi_new).max() <= 1e-3 * diam

    def test_no_interface_warns(self, annulus_basis, annulus_quad):
        fld = DesignField(annulus_basis, np.full(annulus_basis.m, 1.0))
        with pytest.warns(UserWarning):
            out = reinitialize(fld, annulus_quad)
        assert out is fld


class TestMeasures:
    def test_perimeter_of_circle(self, annulus_basis, annulus_quad):
        c = project_lsf(annulus_quad, lambda p: radius(p) - 1.5)
        per = perimeter(DesignField(annulus_basis, c), SP, annulus_quad)
        assert per == pytest.approx(2 * np.pi * 1.5, rel=0.02)

    def test_perimeter_empty(self, annulus_basis, annulus_quad):
        per = perimeter(DesignField(annulus_basis, np.full(annulus_basis.m, 1.0)),
                        SP, annulus_quad)
        assert per <= 1e-8

    def test_volume_saturated(self, annulus_basis, annulus_quad):
        j, _ = volume_measure(DesignField(annulus_basis, np.full(annulus_basis.m, 0.5)),
                              SP, annulus_quad)
        assert j == pytest.approx(np.pi * 3.0, rel=1e-6)
        j0, _ = volume_measure(DesignField(annulus_basis, np.full(annulus_basis.m, -0.5)),
                               SP, annulus_quad)
        assert j0 == pytest.approx(0.0, abs=1e-12)

    def test_volume_gradient_matches_fd(self, annulus_basis, annulus_quad):
        c = project_lsf(annulus_quad, lambda p: radius(p) - 1.5)
        c += 0.02 * RNG.standard_normal(annulus_basis.m)
        _, grad = volume_measure(DesignField(annulus_basis, c), SP, annulus_quad)
        h = 1e-6
        idx = RNG.choice(annulus_basis.m, 12, replace=False)
        for i in idx:
            e = np.zeros(annulus_basis.m)
            e[i] = h
            jp, _ = volume_measure(DesignField(annulus_basis, c + e), SP, annulus_quad)
            jm, _ = volume_measure(DesignField(annulus_basis, c - e), SP, annulus_quad)
            fd = (jp - jm) / (2 * h)
            if abs(fd) > 1e-12:
                assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-10)


class TestSymmetry:
    def test_identity_map(self, annulus_basis):
        sym = build_symmetry_map(annulus_basis, "none")
        assert sym.count == annulus_basis.m
        v = RNG.standard_normal(sym.count)
        for out in (sym.expand(v), sym.reduce(v), sym.means(v), sym.expand(sym.means(v))):
            assert np.array_equal(out, v)
        assert np.array_equal(sym.first, np.arange(sym.count)) and sym.invariant(v)

    def test_quarter_symmetry_counts(self):
        basis = design_basis_for(build_annulus(), RefineSpec(2, 1, 3, 4))
        sym = build_symmetry_map(basis, "xy")
        assert basis.m == 85 and sym.count == 25

    def test_one_mirror_net_reduced_by_that_mirror(self, annulus_basis):
        # shifted along x, the annulus net keeps y -> -y and loses x -> -x
        shifted = replace(annulus_basis, patches=[
            replace(p, control_points=p.control_points + [0.5, 0.0]) for p in annulus_basis.patches
        ])
        sym = build_symmetry_map(shifted, "xy")
        coincide = build_symmetry_map(shifted, "coincide").count
        assert build_symmetry_map(annulus_basis, "xy").count < sym.count < coincide
        y_mirror, x_mirror = mirror_images(shifted.control_points)
        assert x_mirror is None and np.array_equal(sym.index[y_mirror], sym.index)

    def test_expanded_field_reflection_invariant(self, annulus_basis, annulus_quad):
        sym = build_symmetry_map(annulus_basis, "xy")
        v = RNG.standard_normal(sym.count)
        fld = DesignField(annulus_basis, sym.expand(v))
        pts = annulus_quad.phys
        vals = annulus_quad.D @ fld.coeffs
        # mirror a sample of quadrature points and compare field values
        idx = RNG.choice(len(pts), 50, replace=False)
        for i in idx:
            x, y = pts[i]
            for mx, my in ((x, -y), (-x, y)):
                # nearest quadrature point to the mirrored location
                j = np.argmin((pts[:, 0] - mx) ** 2 + (pts[:, 1] - my) ** 2)
                assert vals[j] == pytest.approx(vals[i], abs=1e-9)

    def test_reduced_gradient_chain_rule(self, annulus_basis, annulus_quad):
        sym = build_symmetry_map(annulus_basis, "xy")
        v0 = RNG.standard_normal(sym.count)

        def j_of_vars(v):
            j, _ = volume_measure(
                DesignField(annulus_basis, 0.1 * sym.expand(v)), SP, annulus_quad
            )
            return j

        _, g_full = volume_measure(
            DesignField(annulus_basis, 0.1 * sym.expand(v0)), SP, annulus_quad
        )
        g_red = 0.1 * sym.reduce(g_full)
        h = 1e-6
        for k in RNG.choice(sym.count, 8, replace=False):
            e = np.zeros(sym.count)
            e[k] = h
            fd = (j_of_vars(v0 + e) - j_of_vars(v0 - e)) / (2 * h)
            if abs(fd) > 1e-12:
                assert g_red[k] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_out_of_range_rejected(self, annulus_basis):
        sym = build_symmetry_map(annulus_basis, "xy")
        with pytest.raises(ConfigError):
            sym.expand(np.zeros(sym.count + 1))

    def test_partition_against_its_matrix(self):
        # a seeded random partition of 40 members; integer values keep the
        # sums exact in any order
        rng = np.random.default_rng(23)
        n = 40
        orb = orbits(n, [rng.integers(0, n, size=(25, 2))])
        E = np.zeros((n, orb.count))
        E[np.arange(n), orb.index] = 1.0
        v = rng.integers(-100, 100, n).astype(float)
        x = rng.integers(-100, 100, orb.count).astype(float)
        assert 1 < orb.count < n
        assert np.array_equal(orb.reduce(v), E.T @ v)
        assert np.array_equal(orb.expand(x), E @ x)
        assert np.array_equal(orb.means(v), (E.T @ v) / E.sum(axis=0))
        lowest = [np.flatnonzero(orb.index == k).min() for k in orb.index]
        assert np.array_equal(orb.first, lowest)
        # orbits are numbered in the order of their lowest member
        assert np.array_equal(orb.index[np.unique(orb.first)], np.arange(orb.count))
        assert orb.invariant(orb.expand(orb.means(v))) and not orb.invariant(v)


def ppoly_roots(pp, x):
    """(line, root) as scipy's PPoly.roots(extrapolate=False) lists them,
    one line at a time, less the NaN after a zero piece's start."""
    line, root = [], []
    for i in range(pp.shape[2]):
        r = PPoly(pp[..., i], x).roots(extrapolate=False)
        line.append(np.full(np.count_nonzero(~np.isnan(r)), i))
        root.append(r[~np.isnan(r)])
    return np.concatenate(line), np.concatenate(root)


def assert_same_roots(pp, x):
    line, root = _piece_roots(pp, x)
    ref_line, ref_root = ppoly_roots(pp, x)
    np.testing.assert_array_equal(line, ref_line)
    assert root.tobytes() == ref_root.tobytes()


def assert_same_interface(field, monkeypatch):
    pts, pid, uv = interface_points(field, 20)
    with monkeypatch.context() as m:
        m.setattr(levelset, "_piece_roots", ppoly_roots)
        ref = interface_points(field, 20)
    for a, b in zip((pts, pid, uv), ref):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    return pts


class TestClosedFormRoots:
    """`_piece_roots` solves every line's linear and quadratic pieces at
    once; its roots must be PPoly.roots' to the bit."""

    @pytest.mark.parametrize("name", ["annulus", "cloak", "camouflage"])
    def test_shipped_start_designs(self, name, monkeypatch):
        cfg = RunConfig.load(os.path.join(CONFIGS, f"{name}.yaml"))
        field = build_pipeline(cfg, with_objective=False).field0
        assert len(assert_same_interface(field, monkeypatch)) > 100

    def test_roots_on_knot_lines_and_zero_segments(self, annulus_basis, monkeypatch):
        # phi = r - 1.5 exactly, on the knot line r = 1.5; then the same
        # numerator zero on whole rows and columns of the net
        patch = annulus_basis.patches[0]
        r = np.hypot(patch.control_points[..., 0], patch.control_points[..., 1])
        numer = r / r[:1] - 1.5
        assert len(assert_same_interface(
            DesignField(annulus_basis, numer.ravel()), monkeypatch)) == 24 * 20
        numer[:3] = 0.0
        numer[:, 5:9] = 0.0
        assert_same_interface(DesignField(annulus_basis, (numer / patch.weights).ravel()),
                              monkeypatch)

    def test_double_roots(self, annulus_basis, monkeypatch):
        # (v - v0)^2 in blossom form along v, at v0 inside a span and on a knot
        patch = annulus_basis.patches[0]
        t = patch.knots_v.values
        for v0 in (_span_lines(patch.knots_v, 20)[33], t[7]):
            numer = np.broadcast_to((t[1:-2] - v0) * (t[2:-1] - v0), patch.shape)
            assert_same_interface(DesignField(annulus_basis, (numer / patch.weights).ravel()),
                                  monkeypatch)

    def test_cubic_design(self, monkeypatch):
        # degree 3 around the ring and 2 across it: the lines around the
        # ring run cubic pieces, which go through PPoly itself, the lines
        # across it quadratic ones; phi = x - 0.3 crosses both
        basis = design_basis_for(build_annulus(), RefineSpec(3, 2, 6, 16))
        field = DesignField(basis, project_lsf(design_quadrature(basis, 4),
                                               lambda p: p[:, 0] - 0.3))
        pts = assert_same_interface(field, monkeypatch)
        assert len(pts) > 100
        assert np.abs(pts[:, 0] - 0.3).max() < 1e-9

    @pytest.mark.parametrize("degree", [1, 2])
    def test_constructed_pieces(self, degree):
        # small integer coefficients give zero pieces, double roots, roots on
        # breakpoints and sign changes across them
        rng = np.random.default_rng(3)
        x = np.array([0.0, 0.25, 0.5, 0.625, 1.0])
        for _ in range(200):
            pp = rng.integers(-2, 3, size=(degree + 1, 4, 6)).astype(float) * 0.5
            assert_same_roots(pp, x)
        assert_same_roots(rng.standard_normal((degree + 1, 4, 50)), x)
