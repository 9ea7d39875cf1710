import numpy as np
import pytest
import scipy.sparse as sp

from igatop.assembly import (
    NITSCHE_PENALTY_C,
    MaterialPair,
    assemble_bulk,
    assemble_flux,
    assemble_nitsche,
    assemble_system,
    discretize,
    dkappa_dphi,
    kappa_at,
    sensitivity_contraction,
    solve_adjoint,
    solve_state,
)
from igatop.assembly import _kappa_bulk
from igatop.levelset import (
    DesignField,
    SmoothingParams,
    build_symmetry_map,
    design_quadrature,
    project_lsf,
)
from igatop.model import (
    BoundaryTag,
    MultiPatchModel,
    RefineSpec,
    build_annulus,
    build_cloak_model,
    design_basis_for,
    match_edges,
    refine_model,
)
from igatop.objectives import HeatProblem, eval_total, make_objective
from igatop.oracle import annulus_adjoint, annulus_state
from igatop.splines import KnotVector, NurbsPatch

RNG = np.random.default_rng(23)
SP = SmoothingParams(0.05)
COPPER_PDMS = MaterialPair(398.0, 0.27)


def unit_square(x0=0.0, kappa_label="outside"):
    kv = KnotVector(np.array([0.0, 0, 1, 1]), 1)
    cps = np.array([[[x0, 0.0], [x0, 1.0]], [[x0 + 1, 0.0], [x0 + 1, 1.0]]])
    return NurbsPatch(kv, kv, cps, np.ones((2, 2)))


def two_square_model(beta=1e6, kappa=7.0):
    patches = [unit_square(0.0), unit_square(1.0)]
    interfaces = [match_edges(patches, 0, "u1", 1, "u0")]
    bcs = [
        BoundaryTag(0, "u0", "dirichlet", 300.0),
        BoundaryTag(1, "u1", "dirichlet", 200.0),
        BoundaryTag(0, "v0", "insulated"),
        BoundaryTag(0, "v1", "insulated"),
        BoundaryTag(1, "v0", "insulated"),
        BoundaryTag(1, "v1", "insulated"),
    ]
    return MultiPatchModel(
        "twosq", patches, ["outside", "outside"], [("rad", "circ")] * 2,
        interfaces, bcs, {"outside": kappa}, MaterialPair(1.0, 1.0), beta=beta,
    ).validate()


def one_square_model(kappa=7.0):
    patches = [unit_square(0.0)]
    bcs = [
        BoundaryTag(0, "u0", "dirichlet", 300.0),
        BoundaryTag(0, "u1", "dirichlet", 200.0),
        BoundaryTag(0, "v0", "insulated"),
        BoundaryTag(0, "v1", "insulated"),
    ]
    # stretch to [0,2] x [0,1] to match the two-patch domain
    kv = KnotVector(np.array([0.0, 0, 1, 1]), 1)
    cps = np.array([[[0.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [2.0, 1.0]]])
    patches = [NurbsPatch(kv, kv, cps, np.ones((2, 2)))]
    return MultiPatchModel(
        "onesq", patches, ["outside"], [("rad", "circ")], [], bcs,
        {"outside": kappa}, MaterialPair(1.0, 1.0),
    ).validate()


class TestKappa:
    def test_saturation(self):
        assert kappa_at(0.06, COPPER_PDMS, SP) == pytest.approx(398.0)
        assert kappa_at(-0.06, COPPER_PDMS, SP) == pytest.approx(0.27)

    def test_midpoint_average(self):
        assert kappa_at(0.0, COPPER_PDMS, SP) == pytest.approx(199.135, abs=1e-10)

    def test_derivative_values(self):
        assert dkappa_dphi(0.06, COPPER_PDMS, SP) == 0.0
        assert dkappa_dphi(0.0, COPPER_PDMS, SP) == pytest.approx(
            (398.0 - 0.27) * 15.0, rel=1e-12
        )

    def test_derivative_matches_fd(self):
        h = 1e-7
        for phi in np.linspace(-0.049, 0.049, 9):
            fd = (kappa_at(phi + h, COPPER_PDMS, SP) - kappa_at(phi - h, COPPER_PDMS, SP)) / (2 * h)
            assert dkappa_dphi(phi, COPPER_PDMS, SP) == pytest.approx(fd, rel=1e-6)


class TestBulk:
    def test_four_node_conduction_matrix(self):
        model = one_square_model(kappa=1.0)
        # undo the stretch: use the plain unit square
        model.patches[0] = unit_square(0.0)
        disc = discretize(model)
        K = assemble_bulk(disc, np.ones(disc.w.size))
        # classic bilinear-quad conduction matrix on the unit square
        expect = np.array(
            [
                [2 / 3, -1 / 6, -1 / 3, -1 / 6],
                [-1 / 6, 2 / 3, -1 / 6, -1 / 3],
                [-1 / 3, -1 / 6, 2 / 3, -1 / 6],
                [-1 / 6, -1 / 3, -1 / 6, 2 / 3],
            ]
        )
        # textbook corner order (counterclockwise) from our (iu, iv) order
        perm = [0, 2, 3, 1]
        Kd = K.toarray()
        # compare against an independent dense 2x2 Gauss integration
        gx = np.array([-1, 1]) / np.sqrt(3) * 0.5 + 0.5
        brute = np.zeros((4, 4))
        shapes = [
            lambda u, v: (1 - u) * (1 - v),
            lambda u, v: (1 - u) * v,
            lambda u, v: u * (1 - v),
            lambda u, v: u * v,
        ]
        grads = [
            lambda u, v: np.array([-(1 - v), -(1 - u)]),
            lambda u, v: np.array([-v, (1 - u)]),
            lambda u, v: np.array([(1 - v), -u]),
            lambda u, v: np.array([v, u]),
        ]
        for u in gx:
            for v in gx:
                for i in range(4):
                    for j in range(4):
                        brute[i, j] += 0.25 * grads[i](u, v) @ grads[j](u, v)
        assert np.abs(Kd - brute).max() < 1e-12
        assert np.abs(Kd[np.ix_(perm, perm)] - expect).max() < 1e-12

    def test_linearity_in_kappa(self):
        model = two_square_model()
        disc = discretize(model)
        k1 = assemble_bulk(disc, np.full(disc.w.size, 1.0))
        k2 = assemble_bulk(disc, np.full(disc.w.size, 2.0))
        assert abs(k2 - 2 * k1).max() < 1e-12

    def test_symmetry(self):
        model = refine_model(build_cloak_model("circular"), RefineSpec(2, 1, 2, 2))
        disc = discretize(model)
        K, _ = assemble_system(disc, override={"inside": 1.0, "design": 1.0, "outside": 1.0})
        assert abs(K - K.T).max() / abs(K).max() < 1e-12


class TestNitsche:
    def test_two_patch_matches_one_patch(self):
        spec = RefineSpec(2, 1, 4, 4)
        m2 = refine_model(two_square_model(beta=1e6), spec)
        m1 = refine_model(one_square_model(), spec)
        d2, d1 = discretize(m2), discretize(m1)
        T2 = solve_state(d2).at_quadrature()
        x2 = d2.phys[:, 0]
        T1q = 300.0 - 50.0 * x2  # exact linear field of the joined domain
        assert np.abs(T2 - T1q).max() < 1e-6
        T1 = solve_state(d1).at_quadrature()
        assert np.abs(T1 - (300.0 - 50.0 * d1.phys[:, 0])).max() < 1e-9

    def test_jump_small_at_production_beta(self):
        m2 = refine_model(two_square_model(beta=1e12), RefineSpec(2, 1, 4, 4))
        d2 = discretize(m2)
        sol = solve_state(d2)
        jump = max(np.abs(e.En @ sol.values).max() for e in d2.edges)
        assert jump <= 1e-6

    def test_penalty_matrix_sym_psd(self):
        model = refine_model(build_cloak_model("circular"), RefineSpec(2, 1, 2, 2))
        disc = discretize(model)
        _, Ks = assemble_nitsche(disc, override={"inside": 1.0, "design": 1.0, "outside": 1.0})
        Ksd = Ks.toarray()
        assert np.abs(Ksd - Ksd.T).max() <= 1e-6 * np.abs(Ksd).max()
        w = np.linalg.eigvalsh(Ksd)
        assert w.min() >= -1e-8 * w.max()

    def test_orientation_swap_invariance(self):
        base = two_square_model(beta=1e4)
        swapped = two_square_model(beta=1e4)
        swapped.interfaces = [match_edges(swapped.patches, 1, "u0", 0, "u1")]
        spec = RefineSpec(2, 1, 3, 3)
        Ka, _ = assemble_system(discretize(refine_model(base, spec)))
        Kb, _ = assemble_system(discretize(refine_model(swapped, spec)))
        scale = abs(Ka).max()
        assert abs(Ka - Kb).max() <= 1e-10 * scale


def ring_cloak(cloak, sub):
    """Mesh, ring-shaped design and smoothing on a (2, 1, sub, sub) solution mesh."""
    basis = design_basis_for(cloak, RefineSpec(2, 1, 2, 2))
    disc = discretize(refine_model(cloak, RefineSpec(2, 1, sub, sub)), basis)
    quad = design_quadrature(basis, 4)
    c = project_lsf(quad, lambda p: 10.0 - np.abs(np.hypot(p[:, 0], p[:, 1]) - 35.0))
    return disc, DesignField(basis, c), SmoothingParams(2.0)


def ring_cloak_state(cloak, sub):
    """State of the ring-shaped cloak design of ring_cloak."""
    return solve_state(*ring_cloak(cloak, sub))


def per_edge_stiffness(disc, field, sp_, override=None):
    """K from the quadrature rows Gx/Gy and the per-edge interface rows:
    every point scaled by its own conductivity, one consistency and one
    penalty product per edge (the scaled default penalty)."""
    model, override = disc.model, override or {}
    mats = model.design_pair

    def kappa(region, D):
        if region in override:
            return float(override[region])
        if region == "design":
            return kappa_at(D @ field.coeffs, mats, sp_)
        return model.kappa_regions[region]

    def kappa_hat(region):
        k = max(mats.kappa_pos, mats.kappa_neg) if region == "design" else model.kappa_regions[region]
        return max(k, override.get(region, 0.0))

    kq = np.empty(disc.w.size)
    for region in np.unique(disc.qlabel):
        mask = disc.qlabel == region
        kq[mask] = kappa(region, disc.D[mask])
    W = sp.diags(disc.w * kq)
    K = disc.Gx.T @ W @ disc.Gx + disc.Gy.T @ W @ disc.Gy
    gamma = model.gamma
    for e in disc.edges:
        flux = (sp.diags(gamma * kappa(e.region_a, e.D1) * np.ones(e.w.size)) @ e.G1n
                + sp.diags((1 - gamma) * kappa(e.region_b, e.D2) * np.ones(e.w.size)) @ e.G2n)
        Kn = -e.En.T @ sp.diags(e.w) @ flux
        beta = NITSCHE_PENALTY_C * max(kappa_hat(e.region_a), kappa_hat(e.region_b)) * e.p2_h
        K = K + Kn + Kn.T + e.En.T @ sp.diags(e.w * beta) @ e.En
    return K.tocsr()


class TestAssemblyReference:
    @pytest.mark.parametrize("override", [None, {"inside": 200.0, "design": 200.0},
                                          {"design": 1e-4}])
    def test_matches_per_edge_formula(self, override):
        # the cloak's own reference-field overrides (objectives.compute_reference_fields)
        disc, field, sp_ = ring_cloak(build_cloak_model("circular"), 4)
        K, _ = assemble_system(disc, field, sp_, override)
        K_ref = per_edge_stiffness(disc, field, sp_, override)
        assert abs(K - K_ref).max() <= 1e-13 * abs(K_ref).max()

    def test_state_backward_error_at_eps(self):
        # componentwise backward error of the refined state solve on the
        # shipped cloak solution mesh
        sol = ring_cloak_state(build_cloak_model("circular"), 16)
        disc, b = sol.disc, sol.blocks
        x = sol.values[disc.free]
        rhs = assemble_flux(disc)[disc.free] - b.Kfd @ disc.dirichlet_val
        r = rhs - b.Kff @ x
        berr = np.max(np.abs(r) / (b.abs_Kff @ np.abs(x) + np.abs(rhs)))
        assert berr <= 10 * np.finfo(float).eps


class TestFlux:
    def test_zero_without_neumann(self):
        disc = discretize(refine_model(two_square_model(), RefineSpec(2, 1, 3, 3)))
        assert np.abs(assemble_flux(disc)).max() == 0.0

    def test_constant_flux_sums_to_edge_integral(self):
        m = two_square_model()
        m.boundaries = [
            b if b.patch != 0 or b.edge != "v1" else BoundaryTag(0, "v1", "neumann", 3.5)
            for b in m.boundaries
        ]
        disc = discretize(refine_model(m, RefineSpec(2, 1, 3, 3)))
        F = assemble_flux(disc)
        assert F.sum() == pytest.approx(3.5 * 1.0, abs=1e-10)

    def test_linearity(self):
        m = two_square_model()
        m.boundaries = [
            b if b.patch != 0 or b.edge != "v1" else BoundaryTag(0, "v1", "neumann", 1.0)
            for b in m.boundaries
        ]
        d1 = discretize(refine_model(m, RefineSpec(2, 1, 2, 2)))
        F1 = assemble_flux(d1)
        m.boundaries = [
            b if b.patch != 0 or b.edge != "v1" else BoundaryTag(0, "v1", "neumann", 2.0)
            for b in m.boundaries
        ]
        d2 = discretize(refine_model(m, RefineSpec(2, 1, 2, 2)))
        assert np.allclose(assemble_flux(d2), 2 * F1, atol=1e-14)


@pytest.fixture(scope="module")
def annulus_setup():
    ann = build_annulus()
    basis = design_basis_for(ann, RefineSpec(2, 1, 7, 32))
    sol_model = refine_model(ann, RefineSpec(2, 1, 16, 16))
    disc = discretize(sol_model, basis)
    quad = design_quadrature(basis, 4)
    return basis, disc, quad


class TestSolves:
    def test_plate_patch_test(self):
        model = refine_model(build_cloak_model("circular", beta=1e6), RefineSpec(2, 1, 4, 4))
        disc = discretize(model, n_per_span=6)
        sol = solve_state(disc, override={"inside": 200.0, "design": 200.0, "outside": 200.0})
        T_exact = 300.0 - (disc.phys[:, 0] + 70.0) / 140.0 * 100.0
        assert np.abs(sol.at_quadrature() - T_exact).max() < 1e-6

    def test_constant_dirichlet_gives_constant(self):
        m = two_square_model()
        m.boundaries = [
            BoundaryTag(b.patch, b.edge, b.kind, 250.0 if b.kind == "dirichlet" else 0.0)
            for b in m.boundaries
        ]
        disc = discretize(refine_model(m, RefineSpec(2, 1, 3, 3)))
        sol = solve_state(disc)
        # tolerance absorbs the penalty-scale float roundoff
        assert np.abs(sol.at_quadrature() - 250.0).max() < 1e-7

    def test_annulus_state_vs_oracle(self, annulus_setup):
        basis, disc, quad = annulus_setup
        c = project_lsf(quad, lambda p: np.hypot(p[:, 0], p[:, 1]) - 1.5)
        sol = solve_state(disc, DesignField(basis, c), SP)
        r = np.hypot(disc.phys[:, 0], disc.phys[:, 1])
        T_ex = annulus_state(r, 1.5)
        Tq = sol.at_quadrature()
        err = np.sqrt(float((disc.w * (Tq - T_ex) ** 2).sum()) / float((disc.w * T_ex**2).sum()))
        assert err < 0.06  # delta-bandwidth-limited deviation

    def test_zero_load_adjoint_is_zero(self, annulus_setup):
        basis, disc, quad = annulus_setup
        c = project_lsf(quad, lambda p: np.hypot(p[:, 0], p[:, 1]) - 1.5)
        sol = solve_state(disc, DesignField(basis, c), SP)
        P = solve_adjoint(sol, np.zeros(disc.w.size))
        assert np.abs(P).max() == 0.0

    def test_annulus_adjoint_vs_oracle_converges(self):
        ann = build_annulus()
        basis = design_basis_for(ann, RefineSpec(2, 1, 7, 32))
        quad = design_quadrature(basis, 4)
        c = project_lsf(quad, lambda p: np.hypot(p[:, 0], p[:, 1]) - 1.5)
        errs = []
        for sub in (8, 16, 32):
            disc = discretize(refine_model(ann, RefineSpec(2, 1, sub, sub)), basis)
            sol = solve_state(disc, DesignField(basis, c), SmoothingParams(0.005))
            Tq = sol.at_quadrature()
            P = solve_adjoint(sol, -2.0 * Tq)
            r = np.hypot(disc.phys[:, 0], disc.phys[:, 1])
            P_ex = annulus_adjoint(r, 1.5)
            Pq = disc.N @ P
            errs.append(
                np.sqrt(float((disc.w * (Pq - P_ex) ** 2).sum()) / float((disc.w * P_ex**2).sum()))
            )
        assert errs[-1] < errs[0]
        assert errs[-1] < 0.05

    def test_adjoint_transpose_equals_plain_for_symmetric_K(self, annulus_setup):
        basis, disc, quad = annulus_setup
        c = project_lsf(quad, lambda p: np.hypot(p[:, 0], p[:, 1]) - 1.5)
        sol = solve_state(disc, DesignField(basis, c), SP)
        load = RNG.standard_normal(disc.w.size)
        P_t = solve_adjoint(sol, load)
        # symmetric K: direct solve with K agrees
        from igatop.assembly import _constrained_solve

        F_adj = disc.N.T @ (disc.w * load)
        P_n = _constrained_solve(
            disc, sol.blocks, sol.lu, F_adj, dirichlet_val=np.zeros_like(disc.dirichlet_val)
        )
        denom = np.abs(P_t).max()
        assert np.abs(P_t - P_n).max() <= 1e-10 * max(denom, 1.0)

    def test_maximum_principle(self):
        # full-domain bounds at a float64-friendly penalty; at the production
        # beta=1e12 the nearly decoupled insulator interior (kappa=1e-4) is
        # numerically indeterminate, so the bound is asserted on the coupled
        # regions there
        for beta, restrict in ((1e6, False), (1e12, True)):
            cloak = build_cloak_model("circular", beta=beta)
            basis = design_basis_for(cloak, RefineSpec(2, 1, 2, 2))
            disc = discretize(refine_model(cloak, RefineSpec(2, 1, 8, 8)), basis)
            quad = design_quadrature(basis, 4)
            c = project_lsf(quad, lambda p: 10.0 - np.abs(np.hypot(p[:, 0], p[:, 1]) - 35.0))
            sol = solve_state(disc, DesignField(basis, c), SmoothingParams(2.0))
            Tq = sol.at_quadrature()
            if restrict:
                Tq = Tq[~disc.region_mask("inside")]
            assert Tq.min() >= 200.0 - 1e-6 and Tq.max() <= 300.0 + 1e-6

    def test_maximum_principle_scaled_penalty_all_regions(self):
        # the default per-edge penalty keeps the insulator interior determinate
        Tq = ring_cloak_state(build_cloak_model("circular"), 8).at_quadrature()
        assert Tq.min() >= 200.0 - 1e-6 and Tq.max() <= 300.0 + 1e-6

    def test_scaled_penalty_conductivity_scale_invariance(self):
        # T depends only on conductivity ratios; a penalty scaled to the
        # conductivities keeps that, an absolute one would not
        T1, T2 = (
            ring_cloak_state(build_cloak_model(
                "circular", kappa_base=200.0 * s, kappa_obstacle=1e-4 * s,
                kappa_pos=398.0 * s, kappa_neg=0.27 * s), 4).values
            for s in (1.0, 1e3)
        )
        assert np.abs(T2 - T1).max() <= 1e-9 * 300.0

class TestSensitivity:
    def test_constant_temperature_zero_sensitivity(self, annulus_setup):
        basis, disc, quad = annulus_setup
        c = project_lsf(quad, lambda p: np.hypot(p[:, 0], p[:, 1]) - 1.5)
        fld = DesignField(basis, c)
        T = np.full(disc.ndof, 250.0)
        P = RNG.standard_normal(disc.ndof)
        g = sensitivity_contraction(disc, fld, SP, T, P)
        assert np.abs(g).max() < 1e-9

    def test_saturated_field_zero_sensitivity(self, annulus_setup):
        basis, disc, quad = annulus_setup
        fld = DesignField(basis, np.full(basis.m, 1.0))
        T = RNG.standard_normal(disc.ndof)
        P = RNG.standard_normal(disc.ndof)
        assert np.abs(sensitivity_contraction(disc, fld, SP, T, P)).max() == 0.0

    def test_total_gradient_matches_fd(self):
        # the project's core correctness gate at module scale
        ann = build_annulus(beta=1e4)
        basis = design_basis_for(ann, RefineSpec(2, 1, 2, 2))
        disc = discretize(refine_model(ann, RefineSpec(2, 1, 8, 8)), basis)
        quad = design_quadrature(basis, 4)
        sym = build_symmetry_map(basis, "none")
        spec = make_objective(disc, "annular")
        prob = HeatProblem(disc, spec, SP, quad, sym)
        c0 = project_lsf(quad, lambda p: np.hypot(p[:, 0], p[:, 1]) - 1.5)
        c0 = c0 + 0.05 * RNG.standard_normal(basis.m)
        val = eval_total(prob, DesignField(basis, c0))
        h = 1e-6 * np.abs(c0).max()
        for i in RNG.choice(basis.m, 20, replace=False):
            e = np.zeros(basis.m)
            e[i] = h
            jp = eval_total(prob, DesignField(basis, c0 + e)).j_total
            jm = eval_total(prob, DesignField(basis, c0 - e)).j_total
            fd = (jp - jm) / (2 * h)
            if abs(fd) > 1e-12:
                assert val.grad_total[i] == pytest.approx(fd, rel=1e-4)

    def test_kappa_override_requires_field_or_value(self, annulus_setup):
        basis, disc, quad = annulus_setup
        from igatop.errors import AssemblyError

        with pytest.raises(AssemblyError):
            _kappa_bulk(disc, None, None, None)
