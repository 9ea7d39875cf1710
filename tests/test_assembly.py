import os
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from scipy.spatial import cKDTree

from igatop import assembly
from igatop.assembly import (
    FieldSolution,
    MaterialPair,
    _mirror_group,
    _substructure,
    assemble_system,
    discretize,
    dkappa_dphi,
    kappa_at,
    sensitivity_contraction,
    solve_adjoint,
    solve_state,
)
from igatop.config import RunConfig, build_pipeline
from igatop.errors import AssemblyError
from igatop.levelset import (
    MIRRORS,
    DesignField,
    SmoothingParams,
    _match_tolerance,
    build_symmetry_map,
    design_quadrature,
    mirror_images,
    net_orbits,
    orbits,
    project_lsf,
)
from igatop.model import (
    BoundaryTag,
    DesignBasis,
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
from igatop.splines import KnotVector, NurbsPatch, patch_quadrature, tabulate

RNG = np.random.default_rng(23)
CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
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


def orbit_load(sol, load):
    """A per-point adjoint load as `solve_adjoint` takes it: w * load summed
    over each quadrature orbit of the state's split (w * load itself on the
    trivial group)."""
    return sol.lu.sub.group.quad.reduce(sol.disc.w * load)


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
        # without interfaces K is the bulk conduction matrix
        K = assemble_system(discretize(model))
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
        spec = RefineSpec(2, 1, 3, 3)
        k1 = assemble_system(discretize(refine_model(one_square_model(kappa=1.0), spec)))
        k2 = assemble_system(discretize(refine_model(one_square_model(kappa=2.0), spec)))
        assert abs(k2 - 2 * k1).max() < 1e-12

    def test_symmetry(self):
        model = refine_model(build_cloak_model("circular"), RefineSpec(2, 1, 2, 2))
        disc = discretize(model)
        K = assemble_system(disc, override={"inside": 1.0, "design": 1.0, "outside": 1.0})
        assert abs(K - K.T).max() / abs(K).max() < 1e-12


class TestNitsche:
    @pytest.mark.parametrize("beta", [None, 1e6])
    def test_two_patch_matches_one_patch(self, beta):
        spec = RefineSpec(2, 1, 4, 4)
        m2 = refine_model(two_square_model(beta=beta), spec)
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
        model = refine_model(build_cloak_model("circular", beta=1e4), RefineSpec(2, 1, 2, 2))
        disc = discretize(model)
        Ksd = disc.Ks.toarray()
        assert np.abs(Ksd - Ksd.T).max() <= 1e-6 * np.abs(Ksd).max()
        w = np.linalg.eigvalsh(Ksd)
        assert w.min() >= -1e-8 * w.max()

    def test_orientation_swap_invariance(self):
        base = two_square_model(beta=1e4)
        swapped = two_square_model(beta=1e4)
        swapped.interfaces = [match_edges(swapped.patches, 1, "u0", 0, "u1")]
        spec = RefineSpec(2, 1, 3, 3)
        Ka = assemble_system(discretize(refine_model(base, spec)))
        Kb = assemble_system(discretize(refine_model(swapped, spec)))
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
    """K from gradient rows tabulated patch by patch, as `discretize` does,
    and the per-edge interface rows: every point scaled by its own
    conductivity, one consistency and one penalty product per edge (the
    absolute penalty model.beta)."""
    model, basis, override = disc.model, disc.basis, override or {}
    mats = model.design_pair

    def kappa(region, D):
        if region in override:
            return float(override[region])
        if region == "design":
            return kappa_at(D @ field.coeffs, mats, sp_)
        return model.kappa_regions[region]

    def rows(values, cols, ncols):
        n, k = values.shape
        return sp.csr_matrix((values.ravel(), (np.repeat(np.arange(n), k), cols.ravel())),
                             shape=(n, ncols))

    K = sp.csr_matrix((disc.ndof, disc.ndof))
    for pid, patch in enumerate(model.patches):
        pts, wts = patch_quadrature(patch)
        tab = tabulate(patch, pts)
        region, D = model.labels[pid], None
        if region == "design":
            k = basis.patch_ids.index(pid)
            dtab = tabulate(basis.patches[k], pts)
            D = rows(dtab.values, dtab.indices + basis.offsets[k], basis.m)
        W = sp.diags(wts * tab.det_j * kappa(region, D))
        for deriv in (tab.dx, tab.dy):
            G = rows(deriv, disc.patch_dofs[pid][tab.indices], disc.ndof)
            K = K + G.T @ W @ G
    for e in disc.edges:
        flux = (sp.diags(0.5 * kappa(e.region_a, e.D1) * np.ones(e.w.size)) @ e.G1n
                + sp.diags(0.5 * kappa(e.region_b, e.D2) * np.ones(e.w.size)) @ e.G2n)
        Kn = -e.En.T @ sp.diags(e.w) @ flux
        K = K + Kn + Kn.T + e.En.T @ sp.diags(e.w * model.beta) @ e.En
    return K.tocsr()


class TestAssemblyReference:
    @pytest.mark.parametrize("override", [None, {"inside": 200.0, "design": 200.0},
                                          {"design": 1e-4}])
    def test_matches_per_edge_formula(self, override):
        # the cloak's own reference-field overrides (objectives.compute_reference_fields)
        disc, field, sp_ = ring_cloak(build_cloak_model("circular", beta=1e4), 4)
        K = assemble_system(disc, field, sp_, override)
        K_ref = per_edge_stiffness(disc, field, sp_, override)
        assert abs(K - K_ref).max() <= 1e-13 * abs(K_ref).max()

    def test_state_backward_error_at_eps(self):
        # componentwise backward error of the refined state solve on the
        # shipped cloak solution mesh
        disc, field, sp_ = ring_cloak(build_cloak_model("circular"), 16)
        sol = solve_state(disc, field, sp_)
        Kf = assemble_system(disc, field, sp_)[disc.free]
        Kff = Kf[:, disc.free]
        x = sol.values[disc.free]
        rhs = -(Kf[:, disc.dirichlet_idx] @ disc.dirichlet_val)
        r = rhs - Kff @ x
        berr = np.max(np.abs(r) / (abs(Kff) @ np.abs(x) + np.abs(rhs)))
        assert berr <= 10 * np.finfo(float).eps


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
        P = solve_adjoint(sol, orbit_load(sol, np.zeros(disc.w.size))).values
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
            P = solve_adjoint(sol, orbit_load(sol, -2.0 * Tq)).values
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
        field = DesignField(basis, c)
        sol = solve_state(disc, field, SP)
        load = RNG.standard_normal(disc.w.size)
        P = solve_adjoint(sol, orbit_load(sol, load)).values[disc.free]
        # K is symmetric, so the untransposed solve agrees with a transposed
        # solve on an independent factor of K_ff
        K_ff = assemble_system(disc, field, SP)[disc.free][:, disc.free]
        P_t = splu(K_ff.tocsc()).solve((disc.N.T @ (disc.w * load))[disc.free], trans="T")
        assert np.abs(P - P_t).max() <= 1e-10 * max(np.abs(P_t).max(), 1.0)

    @staticmethod
    def condensed_vs_full(cloak, sub, rtol, skip=()):
        """Condensed state and adjoint solves against one splu of K_ff, on
        the free dofs outside the regions `skip`."""
        disc, field, sp_ = ring_cloak(cloak, sub)
        # the first solve builds the mesh's substructure; the second
        # (phi = 0) moves the conductivity at every design point
        solve_state(disc, field, sp_)
        zero = DesignField(field.basis, np.zeros_like(field.coeffs))
        sol = solve_state(disc, zero, sp_)
        assert disc.splits[disc.trivial].I.size > 0
        free, Kf = disc.free, assemble_system(disc, zero, sp_)[disc.free]
        skipped = [disc.patch_dofs[p] for p, lab in enumerate(disc.model.labels) if lab in skip]
        keep = ~np.isin(free, np.concatenate([np.zeros(0, int)] + skipped))
        full = splu(Kf[:, free].tocsc())
        T_ref = full.solve(-(Kf[:, disc.dirichlet_idx] @ disc.dirichlet_val))
        # the state solves on the mesh's group, so the adjoint load is
        # averaged over its quadrature orbits
        load = disc.group.quad.average(RNG.standard_normal(disc.w.size))
        P_ref = full.solve((disc.N.T @ (disc.w * load))[free], trans="T")
        P = solve_adjoint(sol, orbit_load(sol, load)).values[free]
        for x, ref in ((sol.values[free], T_ref), (P, P_ref)):
            assert np.abs(x - ref)[keep].max() <= rtol * np.abs(ref).max()
        return disc, sol

    def test_condensed_solves_match_full_factor(self):
        # shipped cloak solution mesh
        self.condensed_vs_full(build_cloak_model("circular"), 16, 1e-12)

    def test_condensed_solves_match_full_factor_explicit_beta(self):
        # the interface rows at design-side points couple into the
        # neighbouring regions' dofs, which must stay with the design.  The
        # kappa=1e-4 obstacle interior is indeterminate under an absolute
        # beta (cond K_ff ~ 3e10: a dense solve and splu differ there by 6e-5 K)
        self.condensed_vs_full(build_cloak_model("circular", beta=1e4), 4, 1e-9, ("inside",))

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

    def test_maximum_principle_strong_coupling_all_regions(self):
        # shared interface dofs keep the insulator interior determinate
        Tq = ring_cloak_state(build_cloak_model("circular"), 8).at_quadrature()
        assert Tq.min() >= 200.0 - 1e-6 and Tq.max() <= 300.0 + 1e-6

    def test_strong_coupling_conductivity_scale_invariance(self):
        # T depends only on conductivity ratios; shared interface dofs keep
        # that, an absolute penalty would not
        T1, T2 = (
            ring_cloak_state(build_cloak_model(
                "circular", kappa_base=200.0 * s, kappa_obstacle=1e-4 * s,
                kappa_pos=398.0 * s, kappa_neg=0.27 * s), 4).values
            for s in (1.0, 1e3)
        )
        assert np.abs(T2 - T1).max() <= 1e-9 * 300.0

    def test_nitsche_approaches_strong_coupling(self):
        # the Nitsche state tends to the shared-dof one as beta grows, O(1/beta);
        # an absolute beta leaves the kappa=1e-4 obstacle interior indeterminate,
        # so the states are compared outside it
        strong = ring_cloak_state(build_cloak_model("circular"), 4)
        outside = ~strong.disc.region_mask("inside")
        T_strong = strong.at_quadrature()[outside]
        errs = [
            np.abs(ring_cloak_state(build_cloak_model("circular", beta=beta), 4)
                   .at_quadrature()[outside] - T_strong).max()
            for beta in (1e4, 1e5, 1e6, 1e7)
        ]
        assert all(b <= 0.2 * a for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 1e-5


@pytest.fixture(scope="module")
def plates():
    """Pipelines of the shipped cloak, camouflage and annulus configs."""
    return {name: build_pipeline(RunConfig.load(os.path.join(CONFIGS, f"{name}.yaml")))
            for name in ("cloak", "camouflage", "annulus")}


class TestCondensed:
    """Evaluations solve on T alone: the plates eliminate I, the all-design
    annulus nothing."""

    @pytest.mark.parametrize("name", ["cloak", "camouflage", "explicit-beta ring cloak",
                                      "annulus"])
    def test_map_assembled_schur_complement(self, plates, name):
        # S from the mesh's maps against K_ff[T][:, T] - W sliced from the
        # whole assembly, W from a K_II factor of its own (none where I is
        # empty: S is K_ff permuted); the start design, a perturbed one and
        # the perturbed one made mirror symmetric, whose S on the mirror
        # orbits of T is E^T (K_ff[T][:, T] - W) E (the explicit-beta ring
        # cloak has no mirrors: its S is the plain one)
        if name in plates:
            pipe = plates[name]
            disc, field, sp_ = pipe.disc, pipe.field0, pipe.smoothing
        else:
            disc, field, sp_ = ring_cloak(build_cloak_model("circular", beta=1e4), 4)
        rng = np.random.default_rng(7)
        perturbed = field.coeffs + 0.5 * rng.standard_normal(field.coeffs.size)
        sym = build_symmetry_map(field.basis, "xy")
        for c in (field.coeffs, perturbed, sym.expand(sym.means(perturbed))):
            fld = DesignField(field.basis, c)
            sol = solve_state(disc, fld, sp_)
            S, sub = sol.K, sol.lu.sub
            Kff = assemble_system(disc, fld, sp_)[disc.free][:, disc.free]
            ref = Kff[sub.T][:, sub.T]
            if sub.I.size:
                W = Kff[sub.T][:, sub.I] @ splu(Kff[sub.I][:, sub.I].tocsc()).solve(
                    Kff[sub.I][:, sub.T].toarray())
                S, ref = S.toarray(), ref.toarray() - W
            E = sp.csr_matrix((np.ones(sub.T.size), (np.arange(sub.T.size), sub.orbits.index)))
            ref = E.T @ ref @ E
            assert abs(S - ref).max() <= 1e-14 * abs(ref).max()
        assert (sub.group is not disc.trivial) == (name in plates)  # the symmetric design's split

    @pytest.mark.parametrize("beta", [None, 1e4])
    def test_design_on_a_dirichlet_edge(self, beta):
        # the design square's x = 0 edge is held at 300 K, so the design
        # points move the Dirichlet load on T too (no shipped plate does)
        model = two_square_model(beta=beta)
        model.labels = ["design", "outside"]
        model.design_pair = MaterialPair(10.0, 0.5)
        basis = design_basis_for(model, RefineSpec(2, 1, 2, 2))
        disc = discretize(refine_model(model, RefineSpec(2, 1, 4, 4)), basis)
        c = project_lsf(design_quadrature(basis, 4),
                        lambda p: np.hypot(p[:, 0] - 0.5, p[:, 1] - 0.5) - 0.3)
        field, sp_ = DesignField(basis, c), SmoothingParams(0.1)
        sol = solve_state(disc, field, sp_)
        assert disc.splits[disc.trivial].I.size and disc.splits[disc.trivial].maps[0][2].nnz
        Kf = assemble_system(disc, field, sp_)[disc.free]
        full = splu(Kf[:, disc.free].tocsc())
        T_ref = full.solve(-(Kf[:, disc.dirichlet_idx] @ disc.dirichlet_val))
        load = RNG.standard_normal(disc.w.size)
        P_ref = full.solve((disc.N.T @ (disc.w * load))[disc.free])
        for x, ref in ((sol.values, T_ref), (solve_adjoint(sol, orbit_load(sol, load)).values, P_ref)):
            assert np.abs(x[disc.free] - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("name", ["cloak", "cloak on its mirror orbits", "annulus"])
    def test_one_factorization_and_one_interior_solve_per_evaluation(self, plates, name,
                                                                     monkeypatch):
        # a projected start and a design near it solve on the trivial
        # group's split; on the cloak's mirror orbits, a sym-expanded design
        # and a symmetric one near it on the group's, whose K_II solve is on
        # I's orbits
        on_orbits = name.endswith("orbits")
        pipe = plates[name.split()[0]]
        sym = pipe.problem.sym
        start = sym.expand(sym.means(pipe.field0.coeffs)) if on_orbits else pipe.field0.coeffs
        # the first solve builds the substructure
        eval_total(pipe.problem, DesignField(pipe.field0.basis, start))
        sub = pipe.disc.splits[pipe.disc.group if on_orbits else pipe.disc.trivial]
        counts = {"dpbtrf": 0, "splu": 0, "assemble_system": 0, "K_II solve": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        class CountedLU:
            def __init__(self, lu):
                self.nnz, self.solve = lu.nnz, counted("K_II solve", lu.solve)

        monkeypatch.setattr(assembly, "dpbtrf", counted("dpbtrf", assembly.dpbtrf))
        monkeypatch.setattr(assembly, "splu", counted("splu", assembly.splu))
        monkeypatch.setattr(assembly, "assemble_system",
                            counted("assemble_system", assembly.assemble_system))
        if sub.I.size:
            monkeypatch.setattr(sub, "lu_II", CountedLU(sub.lu_II))
        # the other cases draw from a generator of their own: the module RNG's
        # sequence feeds later tests, among them finite-difference checks
        # whose step sits near their roundoff floor
        rng = RNG if name == "cloak" else np.random.default_rng(29)
        step = rng.standard_normal(start.size)
        c = start + (sym.expand(sym.means(step)) if on_orbits else step)
        val = eval_total(pipe.problem, DesignField(pipe.field0.basis, c))
        assert val.state.lu.sub is sub
        assert counts["dpbtrf"] == 1 and counts["assemble_system"] == 0
        assert counts["splu"] == 0  # K_II is factored once per split
        assert counts["K_II solve"] == (1 if sub.I.size else 0)

    @pytest.mark.parametrize("name", ["cloak", "camouflage", "annulus"])
    def test_band_storage_of_every_split(self, plates, name):
        # the trivial group's split, the mirror group's and a one-off
        # override split: T is a permutation of its free dofs sorted by S's
        # row, S lies inside its half-bandwidth, the band factor is S's
        # Cholesky factor, and nnz counts its band storage and K_II's factor
        pipe = plates[name]
        disc, prob, sym = pipe.disc, pipe.problem, pipe.problem.sym
        sols = [solve_state(disc, pipe.field0, pipe.smoothing),
                solve_state(disc, prob.field(sym.expand(sym.means(pipe.field0.coeffs))),
                            pipe.smoothing),
                solve_state(disc, override={"design": 1.0})]
        assert [sol.lu.sub.group for sol in sols] == [disc.trivial, disc.group, disc.trivial]
        for sol in sols:
            sub, S = sol.lu.sub, sol.K.tocoo()
            n, kd = S.shape[0], sub.kd
            assert np.array_equal(np.sort(np.concatenate([sub.T, sub.I])), np.arange(disc.free.size))
            assert np.array_equal(np.unique(sub.orbits.index), np.arange(n))
            assert np.all(np.diff(sub.orbits.index) >= 0)
            assert np.abs(S.row - S.col).max() == kd
            assert sol.lu.factor.shape == (kd + 1, n)
            assert sol.lu.nnz == (kd + 1) * n + (sub.lu_II.nnz if sub.I.size else 0)
            # lower band storage holds L[i, j] at [i - j, j]
            f = np.arange((kd + 1) * n)
            i, j = f % (kd + 1) + f // (kd + 1), f // (kd + 1)
            L = sp.csr_matrix((sol.lu.factor.ravel(order="F")[i < n], (i[i < n], j[i < n])),
                              shape=(n, n))
            assert abs(L @ L.T - sol.K).max() <= 1e-12 * abs(sol.K).max()
        assert sols[1].K.shape[0] < sols[0].K.shape[0]


def centred_square_model(design_basis=None):
    """The square [-1, 1]^2 as one design patch, held at 300 K on x = -1
    and 200 K on x = 1 (so x -> -x is no symmetry of it), with the design
    basis of a (2, 1, 2, 2) refinement or the one given."""
    kv = KnotVector(np.array([0.0, 0, 1, 1]), 1)
    cps = np.array([[[-1.0, -1.0], [-1.0, 1.0]], [[1.0, -1.0], [1.0, 1.0]]])
    model = MultiPatchModel(
        "centred", [NurbsPatch(kv, kv, cps, np.ones((2, 2)))], ["design"], [("rad", "circ")], [],
        [BoundaryTag(0, "u0", "dirichlet", 300.0), BoundaryTag(0, "u1", "dirichlet", 200.0),
         BoundaryTag(0, "v0", "insulated"), BoundaryTag(0, "v1", "insulated")],
        {}, MaterialPair(10.0, 0.5),
    ).validate()
    basis = design_basis or design_basis_for(model, RefineSpec(2, 1, 2, 2))
    return discretize(refine_model(model, RefineSpec(2, 1, 4, 4)), basis)


class TestMirrorGroup:
    """Mirror-symmetric designs solve on the orbits of the mesh's mirror
    group; everything else on the plain split."""

    Y_MIRROR = (1.0, -1.0)

    @staticmethod
    def mirrors(disc):
        return [tuple(m) for m in assembly._mirror_group(disc).mirrors]

    def test_groups_of_the_shipped_meshes(self, plates):
        # the x-mirror swaps the plates' two Dirichlet values
        assert self.mirrors(plates["annulus"].disc) == [(1.0, -1.0), (-1.0, 1.0)]
        for name in ("cloak", "camouflage"):
            assert self.mirrors(plates[name].disc) == [self.Y_MIRROR]

    def test_trivial_group_under_explicit_beta_and_on_an_asymmetric_plate(self):
        ring = ring_cloak(build_cloak_model("circular", beta=1e4), 4)[0]
        model = build_cloak_model("V")
        tilted = discretize(refine_model(model, RefineSpec(2, 1, 4, 4)),
                            design_basis_for(model, RefineSpec(2, 1, 2, 2)))
        assert self.mirrors(ring) == [] and self.mirrors(tilted) == []

    def test_mirror_dropped_where_the_design_basis_is_not_symmetric(self):
        # a design net mirror symmetric as points whose v knots are not:
        # its rows at the y-mirrored points are no permutation of its rows
        assert self.mirrors(centred_square_model()) == [self.Y_MIRROR]
        kv_v = KnotVector(np.array([0.0, 0, 0, 0.3, 1, 1, 1]), 2)
        ys = np.array([-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0])
        cps = np.stack([np.column_stack([np.full(4, x), ys]) for x in (-1.0, 1.0)])
        net = NurbsPatch(KnotVector(np.array([0.0, 0, 1, 1]), 1), kv_v, cps, np.ones((2, 4)))
        basis = DesignBasis(patch_ids=[0], patches=[net], offsets=np.array([0]), m=8)
        disc = centred_square_model(basis)
        assert all(j is not None for j in mirror_images(basis.control_points))
        assert self.mirrors(disc) == []
        field = DesignField(basis, np.tile([1.0, -1.0, -1.0, 1.0], 2))  # equal on the net's orbits
        assert solve_state(disc, field, SmoothingParams(0.5)).lu.sub is disc.splits[disc.trivial]

    def test_symmetric_evaluation_factors_one_quarter(self, monkeypatch):
        # a fresh annulus pipeline: the plain split is never built
        pipe = build_pipeline(RunConfig.load(os.path.join(CONFIGS, "annulus.yaml")))
        prob, sym = pipe.problem, pipe.problem.sym
        x0 = sym.means(pipe.field0.coeffs)
        eval_total(prob, prob.field(sym.expand(x0)))  # builds the group and the orbit split
        rows, counts = [], {"assemble_system": 0}
        dpbtrf_ = assembly.dpbtrf

        def counted_dpbtrf(ab, *args, **kwargs):
            rows.append(ab.shape[1])  # band storage: (kd + 1, rows)
            return dpbtrf_(ab, *args, **kwargs)

        def counted_assembly(*args, **kwargs):
            counts["assemble_system"] += 1
            return assemble_system(*args, **kwargs)

        monkeypatch.setattr(assembly, "dpbtrf", counted_dpbtrf)
        monkeypatch.setattr(assembly, "assemble_system", counted_assembly)
        x = x0 + np.random.default_rng(41).standard_normal(x0.size)
        val = eval_total(prob, prob.field(sym.expand(x)))
        assert rows == [1023] and counts["assemble_system"] == 0
        assert val.state.lu.sub is pipe.disc.splits[pipe.disc.group]
        assert pipe.disc.trivial not in pipe.disc.splits

    def test_nudged_design_and_random_load_use_the_plain_split(self, plates):
        pipe = plates["cloak"]
        disc, prob, sym = pipe.disc, pipe.problem, pipe.problem.sym
        c = sym.expand(sym.means(pipe.field0.coeffs))
        sol = solve_state(disc, prob.field(c), pipe.smoothing)
        assert sol.lu.sub.group is disc.group
        c[3] += 1e-3
        nudged = solve_state(disc, prob.field(c), pipe.smoothing)
        assert nudged.lu.sub is disc.splits[disc.trivial] and nudged.lu.sub.group is disc.trivial
        # a load the mirror does not leave invariant: the orbit state takes
        # one value per quadrature orbit and refuses a per-point load; the
        # plain split of the nudged state solves it as it is
        load = np.random.default_rng(43).standard_normal(disc.w.size)
        with pytest.raises(AssemblyError, match="one value per quadrature orbit"):
            solve_adjoint(sol, disc.w * load)
        P = solve_adjoint(nudged, orbit_load(nudged, load)).values[disc.free]
        Kff = assemble_system(disc, prob.field(c), pipe.smoothing)[disc.free][:, disc.free]
        P_ref = splu(Kff.tocsc()).solve((disc.N.T @ (disc.w * load))[disc.free])
        assert np.abs(P - P_ref).max() <= 1e-12 * np.abs(P_ref).max()

    @pytest.mark.parametrize("name", ["annulus", "cloak"])
    def test_point_work_once_per_quadrature_orbit(self, plates, name, monkeypatch):
        # the maps take one column per orbit of the design rows; an
        # evaluation on the group computes kappa and dkappa/dphi at one
        # point per orbit
        pipe = plates[name]
        disc, prob, sym = pipe.disc, pipe.problem, pipe.problem.sym
        field = prob.field(sym.expand(sym.means(pipe.field0.coeffs)))
        eval_total(prob, pipe.field0)  # a projected start: the trivial split
        eval_total(prob, field)
        nq = disc.bulk.w.size
        cols = disc.splits[disc.group].maps[0][1].shape[1]
        assert disc.splits[disc.trivial].maps[0][1].shape[1] == nq
        assert disc.splits[disc.group].maps[0][2].shape[1] == cols
        if name == "annulus":
            assert (nq, cols) == (24576, 6144)
        else:
            assert 2 * cols == nq
        sizes = {"kappa_at": [], "dkappa_dphi": []}

        def counted(key, fn):
            def wrapper(phi, *args):
                sizes[key].append(np.size(phi))
                return fn(phi, *args)
            return wrapper

        for fn in sizes:
            monkeypatch.setattr(assembly, fn, counted(fn, getattr(assembly, fn)))
        val = eval_total(prob, field)
        assert val.state.lu.sub is disc.splits[disc.group]
        assert sizes == {"kappa_at": [cols], "dkappa_dphi": [cols]}

    @pytest.mark.parametrize("name", ["annulus", "cloak"])
    def test_evaluation_at_the_orbit_representatives(self, plates, name, monkeypatch):
        # an evaluation on the group takes no sparse product with the mesh's
        # per-point operators (N, N^T, the design rows B and D): J, dJ/dT
        # and the adjoint load run at one point per orbit too.  It factors
        # S once and computes phi at the design representatives once
        pipe = plates[name]
        disc, prob, sym = pipe.disc, pipe.problem, pipe.problem.sym
        x0 = sym.means(pipe.field0.coeffs)
        eval_total(prob, prob.field(sym.expand(x0)))  # builds the group split
        sub = disc.splits[disc.group]
        whole = {"N": disc.N.data, "bulk.B": disc.bulk.B.data, "bulk.D": disc.bulk.D.data}
        taken, factors = [], []
        for cls in (sp.csr_matrix, sp.csc_matrix):
            def recorded(A, x, matmul=cls.__matmul__):
                taken.append(A.data)
                return matmul(A, x)
            monkeypatch.setattr(cls, "__matmul__", recorded)
        dpbtrf_ = assembly.dpbtrf

        def counted_dpbtrf(*args, **kwargs):
            factors.append(args[0].shape)
            return dpbtrf_(*args, **kwargs)

        monkeypatch.setattr(assembly, "dpbtrf", counted_dpbtrf)
        x = x0 + 0.3 * np.random.default_rng(47).standard_normal(x0.size)
        val = eval_total(prob, prob.field(sym.expand(x)))
        assert val.state.lu.sub is sub and len(taken) > 10
        assert [key for key, data in whole.items() for A in taken if np.shares_memory(A, data)] == []
        assert len(factors) == 1
        assert sum(np.shares_memory(A, sub.bulk.D.data) for A in taken) == 1

    @pytest.mark.parametrize("name", ["cloak", "camouflage"])
    def test_adjoint_load_sums_on_I(self, plates, name, monkeypatch):
        # the plates' K_II is eliminated on I's orbits under the mesh's
        # group: the adjoint solve takes the representative rows' load
        # summed over I's orbits, which are the sums of the whole invariant
        # load there.  An invariant per-point load, and (on the cloak) the
        # same load cut to y > 0, whose orbit sums stand for its orbit
        # average.  The reference N^T (w load) is itself invariant only to
        # the spread of w within an orbit (1.6e-14 of the largest weight on
        # the cloak), so the bound is 1e-14 or four times its antisymmetric
        # part, the larger
        pipe = plates[name]
        disc, prob, sym = pipe.disc, pipe.problem, pipe.problem.sym
        sol = solve_state(disc, prob.field(sym.expand(sym.means(pipe.field0.coeffs))),
                          pipe.smoothing)
        sub, quad = sol.lu.sub, disc.group.quad
        assert sub.group is disc.group and sub.I.size
        rhs = []

        class Recorded:
            def solve(self, b, lu=sub.lu_II):
                rhs.append(b.copy())
                return lu.solve(b)

        monkeypatch.setattr(sub, "lu_II", Recorded())
        load = quad.average(np.random.default_rng(53).standard_normal(disc.w.size))
        loads = [load] + ([np.where(disc.phys[:, 1] > 0, load, 0.0)] if name == "cloak" else [])
        on_I = disc.free[sub.I]
        for load in loads:
            solve_adjoint(sol, orbit_load(sol, load))
            ref = disc.N.T @ (disc.w * quad.average(load))
            floor = np.abs(disc.group.dofs.average(ref) - ref)[on_I].max()
            ref = sub.I_orbits.reduce(ref[on_I])
            assert np.abs(rhs[-1] - ref).max() <= max(1e-14 * np.abs(ref).max(), 4.0 * floor)
        assert len(rhs) == len(loads)

    @pytest.mark.parametrize("name,sizes", [("cloak", (1198, 68)), ("camouflage", (994, 52))])
    def test_interior_solved_on_its_orbits(self, plates, name, sizes):
        # the group split factors K_II and forms Z on I's orbits and on the
        # orbit-summed rim columns, half the trivial split's; for the same
        # invariant design and load, x_I of the state and of the adjoint is
        # the trivial split's to 1e-12, TestCondensedEvaluation's bound
        # without its floor (read: 2.6e-13 and 6.2e-15 at most)
        pipe = plates[name]
        disc, prob, sym = pipe.disc, pipe.problem, pipe.problem.sym
        rng = np.random.default_rng(59)
        field = prob.field(sym.expand(sym.means(pipe.field0.coeffs)
                                      + 0.5 * rng.standard_normal(sym.count)))
        load = _mirror_group(disc).quad.average(rng.standard_normal(disc.w.size))
        xs = []
        for group in (disc.trivial, disc.group):
            lu = assembly.CondensedSystem(disc, _substructure(disc, group), field, pipe.smoothing)
            sub = lu.sub
            assert sub.lu_II.shape[0] == sub.I_orbits.count == sub.Z.shape[0]
            assert sub.Z.shape[1] == sub.rim.size
            state = FieldSolution(disc, lu.solve(), lu.S, lu)
            adjoint = solve_adjoint(state, orbit_load(state, load))
            xs.append([x[disc.free[sub.I]] for x in (state.values, adjoint.values)])
        assert sub.group is disc.group and (sub.I_orbits.count, sub.rim.size) == sizes
        trivial = disc.splits[disc.trivial]
        assert (trivial.I.size, trivial.rim.size) == (2 * sizes[0], 2 * sizes[1])
        for got, ref in zip(xs[1], xs[0]):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @staticmethod
    def dof_points(disc):
        pts = np.empty((disc.ndof, 2))
        for patch, dofs in zip(disc.model.patches, disc.patch_dofs):
            pts[dofs] = patch.control_points.reshape(-1, 2)
        return pts

    @staticmethod
    def tree_images(pts):
        """Per mirror, each point's nearest neighbour to its image in a KD
        tree, or None where one lies beyond `_match_tolerance`; and the
        classes of coincident points."""
        tree, tol = cKDTree(pts), _match_tolerance(pts)
        images = []
        for refl in MIRRORS:
            dist, j = tree.query(pts * refl)
            images.append(j if np.all(dist <= tol) else None)
        return images, orbits(len(pts), [tree.query_pairs(tol, output_type="ndarray")])

    @classmethod
    def tree_group(cls, disc):
        """The mesh's mirror group from KD-tree images: every check of
        `_find_group` at the images `tree_images` finds."""
        model, basis, bulk = disc.model, disc.basis, disc.bulk
        dof_tag = np.zeros((disc.ndof, 3))
        dof_tag[disc.dirichlet_idx, 0] = 1.0
        dof_tag[disc.dirichlet_idx, 1] = disc.dirichlet_val
        dof_tag[disc.free[assembly._design_side(disc)], 2] = 1.0
        design = np.flatnonzero(disc.qlabel == "design")
        at_bulk = np.full(disc.w.size, -1)
        at_bulk[design] = np.arange(design.size)
        (dof_images, _), (quad_images, _), (net_images, coincident) = (
            cls.tree_images(x) for x in (cls.dof_points(disc), disc.phys, basis.control_points))
        mirrors, kept = [], []
        # sparse max() sorts a matrix's indices in place: the mesh's must keep their order
        tol, largest = assembly._ROW_TOL, assembly._largest
        for refl, p, s, d in zip(MIRRORS, dof_images, quad_images, net_images):
            if model.beta is not None or p is None or s is None or d is None:
                continue
            if np.unique(p).size < p.size or np.unique(s).size < s.size:
                continue
            if not (np.array_equal(dof_tag[p], dof_tag)
                    and np.array_equal(disc.qlabel[s], disc.qlabel)):
                continue
            if (np.abs(disc.w[s] - disc.w).max() > tol * np.abs(disc.w).max()
                    or largest(disc.N[s] - disc.N[:, p]) > tol * largest(disc.N)):
                continue
            net = orbits(basis.m, [np.column_stack([coincident.lowest[coincident.index],
                                                    np.arange(basis.m)]),
                                   np.column_stack([np.arange(basis.m), d])])
            C = sp.csr_matrix((np.ones(basis.m), (np.arange(basis.m), net.index)))
            if largest((bulk.D[at_bulk[s[design]]] - bulk.D) @ C) > tol * largest(bulk.D):
                continue
            mirrors.append(tuple(refl))
            kept.append((p, s, d))
        if not kept:  # the trivial group: identity partitions
            return [], orbits(disc.ndof, []), orbits(disc.w.size, []), orbits(basis.m, [])
        pairs = [[np.column_stack([np.arange(x.size), x]) for x in maps] for maps in zip(*kept)]
        net_pairs = [np.column_stack([coincident.lowest[coincident.index], np.arange(basis.m)])]
        return (mirrors, orbits(disc.ndof, pairs[0]), orbits(disc.w.size, pairs[1]),
                orbits(basis.m, net_pairs + pairs[2]))

    @pytest.mark.parametrize("name", ["annulus", "cloak", "camouflage", "cloak V",
                                      "explicit-beta ring cloak"])
    def test_group_search_matches_a_kd_tree_reference(self, plates, name):
        # the sorted-projection search finds the coincident points and the
        # images a KD tree finds (among coincident points any one, so
        # compared by class), and None where it does: so the mirrors and
        # the orbits of the dofs, the quadrature points and the net agree
        if name in plates:
            disc = plates[name].disc
        elif name == "cloak V":
            model = build_cloak_model("V")
            disc = discretize(refine_model(model, RefineSpec(2, 1, 4, 4)),
                              design_basis_for(model, RefineSpec(2, 1, 2, 2)))
        else:
            disc = ring_cloak(build_cloak_model("circular", beta=1e4), 4)[0]
        for pts in (self.dof_points(disc), disc.phys, disc.basis.control_points):
            refs, coincident = self.tree_images(pts)
            assert np.array_equal(net_orbits(pts, []).index, coincident.index)
            tol = _match_tolerance(pts)
            for j, ref, refl in zip(mirror_images(pts), refs, MIRRORS):
                assert (j is None) == (ref is None)
                if j is not None:
                    assert np.hypot(*(pts[j] - pts * refl).T).max() <= tol
                    assert np.array_equal(coincident.index[j], coincident.index[ref])
        group = assembly._find_group(disc)
        mirrors, dofs, quad, net = self.tree_group(disc)
        assert [tuple(m) for m in group.mirrors] == mirrors
        assert mirrors or group is disc.trivial
        for got, ref in ((group.dofs, dofs), (group.quad, quad), (group.net, net)):
            assert got.count == ref.count and np.array_equal(got.index, ref.index)
        if name in plates:
            assert mirrors == self.mirrors(disc)  # the shipped meshes keep a mirror

    @pytest.mark.parametrize("name", ["annulus", "cloak"])
    def test_group_split_is_the_plain_split_summed_on_orbits(self, plates, name):
        # for a mirror-symmetric design, the group split's S and state load
        # are E^T S E and E^T g of the plain split's, E the 0/1 matrix that
        # takes each free dof of T from its plain row to its orbit's row:
        # the maps' representative points, each scaled by its orbit's size,
        # stand for the whole orbit
        pipe = plates[name]
        disc, prob, sym = pipe.disc, pipe.problem, pipe.problem.sym
        rng = np.random.default_rng(47)
        field = prob.field(sym.expand(sym.means(pipe.field0.coeffs)
                                      + 0.5 * rng.standard_normal(sym.count)))
        plain, orbit = (assembly.CondensedSystem(disc, _substructure(disc, g), field, pipe.smoothing)
                        for g in (disc.trivial, _mirror_group(disc)))
        assert orbit.sub.group is disc.group and orbit.S.shape[0] < plain.S.shape[0]
        row = np.empty(disc.free.size, dtype=int)  # each free dof's row in the group split
        row[orbit.sub.T] = orbit.sub.orbits.index
        E = sp.csr_matrix((np.ones(plain.sub.T.size),
                           (plain.sub.orbits.index, row[plain.sub.T])))
        S_ref, g_ref = (E.T @ plain.S @ E).tocsr(), E.T @ plain.g
        assert abs(orbit.S - S_ref).max() <= 1e-13 * abs(S_ref).max()
        assert np.abs(orbit.g - g_ref).max() <= 1e-13 * np.abs(g_ref).max()

    @pytest.mark.parametrize("name", ["annulus", "cloak"])
    def test_plain_split_maps_are_the_per_point_entries(self, plates, name):
        # on the trivial group every orbit is one point: the maps are
        # bit-identical to one entry per product of every design point's
        # gradient rows, point after point, the Dirichlet columns' products
        # moved to the load (so symmetry: none runs do not move)
        disc = plates[name].disc
        sub = _substructure(disc, disc.trivial)
        bulk, M, Mb = sub.maps[0]
        n = sub.S.shape[0]
        row = np.full(disc.ndof, -1)  # each dof's row of S
        row[disc.free[sub.T]] = sub.orbits.index
        dval = np.zeros(disc.ndof)
        dval[disc.dirichlet_idx] = disc.dirichlet_val
        S = sub.S
        csc_keys = np.repeat(np.arange(n), np.diff(S.indptr)) * n + S.indices
        # every row of the shipped meshes' gradient operators has k entries
        B, nq = disc.bulk.B, disc.bulk.w.size
        k = B.indptr[1]
        assert np.array_equal(B.indptr, k * np.arange(2 * nq + 1))
        cols, (gx, gy) = B.indices.reshape(2, nq, k)[0], B.data.reshape(2, nq, k)
        v = gx[:, :, None] * gx[:, None, :]
        v += gy[:, :, None] * gy[:, None, :]
        # (point, i, j) in point order, i outer
        q, i, j = (np.broadcast_to(x, v.shape).ravel() for x in (
            np.arange(nq)[:, None, None], cols[:, :, None], cols[:, None, :]))
        v, ri, rj = v.ravel(), row[i], row[j]
        in_S, to_b = (ri >= 0) & (rj >= 0), (ri >= 0) & np.isin(j, disc.dirichlet_idx)
        refs = (sp.csr_matrix((v[in_S], (np.searchsorted(csc_keys, rj[in_S] * n + ri[in_S]),
                                         q[in_S])), shape=(S.nnz, nq)),
                sp.csr_matrix((-v[to_b] * dval[j[to_b]], (ri[to_b], q[to_b])), shape=(n, nq)))
        for got, ref in zip((M, Mb), refs):
            assert got.shape == ref.shape
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, attr), getattr(ref, attr))
        assert np.array_equal(bulk.w, disc.bulk.w)

    @pytest.mark.parametrize("name", ["annulus", "cloak"])
    def test_state_at_quadrature_invariant_on_the_group(self, plates, name):
        pipe = plates[name]
        disc, prob, sym = pipe.disc, pipe.problem, pipe.problem.sym
        plain = solve_state(disc, pipe.field0, pipe.smoothing)  # a projected start
        assert plain.lu.sub.group is disc.trivial
        assert np.array_equal(plain.at_quadrature(), disc.N @ plain.values)
        field = prob.field(sym.expand(sym.means(pipe.field0.coeffs)))
        sol = solve_state(disc, field, pipe.smoothing)
        Tq, ref = sol.at_quadrature(), disc.N @ sol.values
        assert sol.lu.sub.group is disc.group and disc.group.quad.invariant(Tq)
        assert np.abs(Tq - ref).max() <= 1e-12 * np.abs(ref).max()


class TestSensitivity:
    def test_constant_temperature_zero_sensitivity(self, annulus_setup):
        basis, disc, quad = annulus_setup
        c = project_lsf(quad, lambda p: np.hypot(p[:, 0], p[:, 1]) - 1.5)
        sol = solve_state(disc, DesignField(basis, c), SP)
        T = np.full(disc.ndof, 250.0)
        P = RNG.standard_normal(disc.ndof)
        g = sensitivity_contraction(replace(sol, values=T), replace(sol, values=P))
        assert np.abs(g).max() < 1e-9

    def test_saturated_field_zero_sensitivity(self, annulus_setup):
        basis, disc, quad = annulus_setup
        sol = solve_state(disc, DesignField(basis, np.full(basis.m, 1.0)), SP)
        T = RNG.standard_normal(disc.ndof)
        P = RNG.standard_normal(disc.ndof)
        assert np.abs(sensitivity_contraction(replace(sol, values=T),
                                              replace(sol, values=P))).max() == 0.0

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("beta", [None, 1e4])
    def test_total_gradient_matches_fd(self, beta, seed):
        # the project's core correctness gate at module scale.  Each case
        # draws from its own generator, and the central-difference step is
        # past the roundoff-dominated range: over these seeds the quotient
        # reads at most 1.3e-5 (beta None) at h = 1e-5 max|c0|, where
        # h = 1e-6 read up to 1.4e-4; the stiffer beta = 1e4 system reads up
        # to 1.0e-4 at 1e-5 and 6.2e-6 at 1e-4
        rng = np.random.default_rng(seed)
        ann = build_annulus(beta=beta)
        basis = design_basis_for(ann, RefineSpec(2, 1, 2, 2))
        disc = discretize(refine_model(ann, RefineSpec(2, 1, 8, 8)), basis)
        quad = design_quadrature(basis, 4)
        sym = build_symmetry_map(basis, "none")
        spec = make_objective(disc, "annular")
        prob = HeatProblem(disc, spec, SP, quad, sym)
        c0 = project_lsf(quad, lambda p: np.hypot(p[:, 0], p[:, 1]) - 1.5)
        c0 = c0 + 0.05 * rng.standard_normal(basis.m)
        val = eval_total(prob, DesignField(basis, c0))
        h = (1e-5 if beta is None else 1e-4) * np.abs(c0).max()
        for i in rng.choice(basis.m, 20, replace=False):
            e = np.zeros(basis.m)
            e[i] = h
            jp = eval_total(prob, DesignField(basis, c0 + e)).j_total
            jm = eval_total(prob, DesignField(basis, c0 - e)).j_total
            fd = (jp - jm) / (2 * h)
            if abs(fd) > 1e-12:
                assert val.grad_total[i] == pytest.approx(fd, rel=1e-4)

    def test_kappa_override_requires_field_or_value(self, annulus_setup):
        basis, disc, quad = annulus_setup
        with pytest.raises(AssemblyError):
            assemble_system(disc)
