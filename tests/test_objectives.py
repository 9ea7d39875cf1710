import os
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
import scipy.sparse as sp

from igatop.assembly import (
    CondensedSystem,
    FieldSolution,
    Substructure,
    _band_index,
    _band_order,
    _mirror_group,
    _substructure,
    _whole_split,
    assemble_system,
    discretize,
    kappa_at,
    sensitivity_contraction,
    solve_adjoint,
    solve_state,
)
from igatop.config import RunConfig, build_pipeline
from igatop.errors import ConfigError
from igatop.levelset import (
    DesignField,
    Orbits,
    SmoothingParams,
    build_symmetry_map,
    design_quadrature,
    project_lsf,
)
from igatop.model import (
    RefineSpec,
    build_annulus,
    build_camouflage_model,
    build_cloak_model,
    design_basis_for,
    refine_model,
)
from igatop.objectives import (
    HeatProblem,
    compute_reference_fields,
    eval_main,
    eval_total,
    make_objective,
    region_mass,
    tikhonov,
)

RNG = np.random.default_rng(31)
CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


@pytest.fixture(scope="module")
def cloak_setup():
    model = build_cloak_model("circular", beta=1e6)
    basis = design_basis_for(model, RefineSpec(2, 1, 2, 2))
    disc = discretize(refine_model(model, RefineSpec(2, 1, 6, 6)), basis)
    quad = design_quadrature(basis, 4)
    return model, basis, disc, quad


class TestReferenceFields:
    def test_cloak_reference_is_linear_plate(self, cloak_setup):
        _, _, disc, _ = cloak_setup
        t_ref, t_ins, j_norm = compute_reference_fields(disc, "cloak")
        Tq = disc.N @ t_ref
        T_lin = 300.0 - (disc.phys[:, 0] + 70.0) / 140.0 * 100.0
        assert np.abs(Tq - T_lin).max() < 1e-4
        assert j_norm > 0

    def test_camouflage_norm_positive(self):
        model = build_camouflage_model(beta=1e6)
        basis = design_basis_for(model, RefineSpec(2, 1, 2, 2))
        disc = discretize(refine_model(model, RefineSpec(2, 1, 4, 4)), basis)
        _, _, j_norm = compute_reference_fields(disc, "camouflage")
        assert j_norm > 0

    def test_no_disturbance_rejected(self):
        # obstacle material equal to the base: the all-"insulator" design
        # does not disturb the field and the normalization degenerates
        no_obstacle = build_cloak_model("circular", beta=1e6, kappa_obstacle=200.0)
        disc = discretize(refine_model(no_obstacle, RefineSpec(2, 1, 4, 4)),
                          design_basis_for(no_obstacle, RefineSpec(2, 1, 2, 2)))
        with pytest.raises(ConfigError):
            compute_reference_fields(disc, "cloak")

    def test_annular_has_no_reference_fields(self, cloak_setup):
        _, _, disc, _ = cloak_setup
        with pytest.raises(ConfigError):
            compute_reference_fields(disc, "annular")

    @pytest.mark.parametrize("name,sizes", [("cloak", (1776, 58, 3552, 118)),
                                            ("camouflage", (1332, 43, 2664, 86))])
    def test_fields_on_the_mirror_orbits(self, name, sizes):
        # both override fields are mirror symmetric, so they solve on the
        # orbits of the mesh's group, E^T K_ff E, half of K_ff's rows and
        # half its band; they match K_ff solved whole (the trivial group).
        # The bound is 1e-12 or four times the move of the whole solve
        # under a reversed design sum, the larger: the camouflage's object,
        # enclosed in the 1e-4 insulator, floats in t_ins, which moves by
        # 3.5e-7 K under that reordering alone
        cfg = RunConfig.load(os.path.join(CONFIGS, f"{name}.yaml"))
        disc, plain = (build_pipeline(cfg, with_objective=False).disc for _ in range(2))
        plain.group = plain.trivial
        t_ref, t_ins, j_norm = compute_reference_fields(disc, name)
        ref = compute_reference_fields(plain, name)
        assert disc.group is not disc.trivial
        kappa = disc.model.kappa_regions
        insulator = kappa["inside" if name == "cloak" else "sector"]
        overrides = ({"inside": kappa["outside"], "design": kappa["outside"]},
                     {"design": insulator})
        for x, want, override in zip((t_ref, t_ins), ref, overrides):
            rev = CondensedSystem(plain, _whole_split(
                plain, reversed_override_sum(plain, override), plain.trivial), None, None)
            floor = np.abs(rev.solve() - want).max()
            assert np.abs(x - want).max() <= max(1e-12 * np.abs(want).max(), 4.0 * floor)
        assert j_norm == pytest.approx(ref[2], rel=1e-12)
        subs = [solve_state(d, override={"design": 1.0}).lu.sub for d in (disc, plain)]
        assert [(sub.S.shape[0], sub.kd) for sub in subs] == [sizes[:2], sizes[2:]]
        assert subs[0].group is disc.group and subs[1].group is plain.trivial
        assert list(disc.folds) == [disc.group] and list(plain.folds) == [plain.trivial]

    def test_trivial_fold_is_the_whole_split(self):
        # under an explicit beta the group is trivial, and each field's
        # split is K_ff in the Cuthill-McKee order of its own pattern, as
        # sliced whole from the assembly: the fields are bit for bit those
        # of that split
        cfg = RunConfig.load(os.path.join(CONFIGS, "cloak.yaml"), ["model.beta=1.0e+6"])
        disc = build_pipeline(cfg, with_objective=False).disc
        t_ref, t_ins, j_norm = compute_reference_fields(disc, "cloak")
        assert disc.group is disc.trivial
        kappa = disc.model.kappa_regions
        for t, override in ((t_ref, {"inside": kappa["outside"], "design": kappa["outside"]}),
                            (t_ins, {"design": kappa["inside"]})):
            K = assemble_system(disc, override=override)
            Kf = K[disc.free]
            T = _band_order(Kf[:, disc.free])
            K_T = Kf[T]
            S = K_T[:, disc.free[T]].tocsc()
            kd, entries, band = _band_index(S)
            plain = Substructure(
                group=disc.trivial, T=T, orbits=Orbits.identity(T.size),
                I=np.zeros(0, dtype=int), S=S, kd=kd, entries=entries, band=band,
                g=-(K_T[:, disc.dirichlet_idx] @ disc.dirichlet_val), N=disc.N, bulk=disc.bulk,
                Dt=None)
            sub = _whole_split(disc, K, disc.trivial)
            assert np.array_equal(sub.T, T) and sub.kd == kd
            for a in ("indices", "indptr", "data"):
                assert np.array_equal(getattr(sub.S, a), getattr(S, a))
            assert np.array_equal(sub.g, plain.g)
            assert CondensedSystem(disc, plain, None, None).solve().tobytes() == t.tobytes()
        d = t_ins - t_ref
        assert j_norm == float(d @ (region_mass(disc, disc.region_mask("outside")) @ d))


class TestEvalMain:
    def test_cloak_zero_for_reference_match(self, cloak_setup):
        _, basis, disc, quad = cloak_setup
        spec = make_objective(disc, "cloak")
        sol = solve_state(disc, override={"inside": 200.0, "design": 200.0})
        j, _ = eval_main(spec, disc, sol)
        assert j <= 1e-8

    def test_cloak_one_for_insulator_fill(self, cloak_setup):
        _, basis, disc, quad = cloak_setup
        spec = make_objective(disc, "cloak")
        sol = solve_state(disc, override={"design": 1e-4})
        j, _ = eval_main(spec, disc, sol)
        assert j == pytest.approx(1.0, abs=1e-9)

    def test_annulus_objective_near_reported_optimum(self):
        ann = build_annulus()
        basis = design_basis_for(ann, RefineSpec(2, 1, 7, 32))
        disc = discretize(refine_model(ann, RefineSpec(2, 1, 32, 32)), basis)
        quad = design_quadrature(basis, 4)
        spec = make_objective(disc, "annular")
        # steepened distance field reproduces the published optimum closely
        c = 10.0 * project_lsf(quad, lambda p: np.hypot(p[:, 0], p[:, 1]) - 1.80612)
        sol = solve_state(disc, DesignField(basis, c), SmoothingParams(0.05))
        j, _ = eval_main(spec, disc, sol)
        assert j == pytest.approx(1.6094e4, rel=0.01)


class TestTikhonov:
    def test_constant_field_zero(self, cloak_setup):
        _, basis, _, quad = cloak_setup
        j, g = tikhonov(DesignField(basis, np.full(basis.m, 2.0)), quad)
        assert j < 1e-18
        assert np.abs(g).max() < 1e-12

    def test_signed_distance_gives_region_area(self, cloak_setup):
        model, basis, _, quad = cloak_setup
        c = project_lsf(quad, lambda p: np.hypot(p[:, 0], p[:, 1]) - 35.0)
        j, _ = tikhonov(DesignField(basis, c), quad)
        areas = discretize(model, n_per_span=8)
        area = areas.w[areas.qlabel == "design"].sum()
        assert j == pytest.approx(area, rel=1e-3)

    def test_gradient_matches_fd(self, cloak_setup):
        _, basis, _, quad = cloak_setup
        c = RNG.standard_normal(basis.m)
        _, g = tikhonov(DesignField(basis, c), quad)
        h = 1e-6
        for i in RNG.choice(basis.m, 10, replace=False):
            e = np.zeros(basis.m)
            e[i] = h
            jp, _ = tikhonov(DesignField(basis, c + e), quad)
            jm, _ = tikhonov(DesignField(basis, c - e), quad)
            fd = (jp - jm) / (2 * h)
            if abs(fd) > 1e-12:
                assert g[i] == pytest.approx(fd, rel=1e-5)


class TestEvalTotal:
    def test_composition_identity(self, cloak_setup):
        _, basis, disc, quad = cloak_setup
        sym = build_symmetry_map(basis, "none")
        sp_ = SmoothingParams(4.0)
        c = project_lsf(quad, lambda p: np.hypot(p[:, 0], p[:, 1]) - 35.0)
        chi, rho = 1e-3, 2e-3
        spec = make_objective(disc, "cloak", chi=chi, rho=rho)
        prob = HeatProblem(disc, spec, sp_, quad, sym)
        val = eval_total(prob, DesignField(basis, c))
        assert val.j_total == pytest.approx(
            val.j_main + chi * val.j_tknv + rho * val.j_vol, abs=1e-12
        )
        assert np.abs(
            val.grad_total - (val.grad_main + chi * val.grad_tknv + rho * val.grad_vol)
        ).max() < 1e-12

    def test_chi_rho_zero_reduces_to_main(self, cloak_setup):
        _, basis, disc, quad = cloak_setup
        sym = build_symmetry_map(basis, "none")
        spec = make_objective(disc, "cloak")
        prob = HeatProblem(disc, spec, SmoothingParams(4.0), quad, sym)
        c = project_lsf(quad, lambda p: np.hypot(p[:, 0], p[:, 1]) - 35.0)
        val = eval_total(prob, DesignField(basis, c))
        assert val.j_total == val.j_main

    def test_volume_term_pushes_negative(self, cloak_setup):
        # dominant volume weight: the descent direction lowers coefficients
        _, basis, disc, quad = cloak_setup
        sym = build_symmetry_map(basis, "none")
        spec = make_objective(disc, "cloak", rho=1e3)
        prob = HeatProblem(disc, spec, SmoothingParams(4.0), quad, sym)
        c = project_lsf(quad, lambda p: 2.0 + 0.0 * p[:, 0])  # all positive, in band
        val = eval_total(prob, DesignField(basis, c))
        d = -val.grad_total
        assert d.sum() < 0  # net push toward negative coefficients
        h = 1e-5
        j1 = eval_total(prob, DesignField(basis, c + h * d / np.abs(d).max())).j_total
        assert j1 < val.j_total

    def test_normalization_invariance_under_kappa_scaling(self):
        vals = []
        for scale in (1.0, 3.0):
            # the jump penalty carries conductivity units, so it scales too
            model = build_cloak_model(
                "circular", beta=1e6 * scale,
                kappa_base=200.0 * scale, kappa_obstacle=1e-4 * scale,
                kappa_pos=398.0 * scale, kappa_neg=0.27 * scale,
            )
            basis = design_basis_for(model, RefineSpec(2, 1, 2, 2))
            disc = discretize(refine_model(model, RefineSpec(2, 1, 4, 4)), basis)
            quad = design_quadrature(basis, 4)
            spec = make_objective(disc, "cloak")
            c = project_lsf(quad, lambda p: np.hypot(p[:, 0], p[:, 1]) - 35.0)
            sol = solve_state(disc, DesignField(basis, c), SmoothingParams(4.0))
            j, _ = eval_main(spec, disc, sol)
            vals.append(j)
        assert vals[0] == pytest.approx(vals[1], rel=1e-8)

    def test_cloak_objective_nonnegative(self, cloak_setup):
        _, basis, disc, quad = cloak_setup
        spec = make_objective(disc, "cloak")
        for seed in range(3):
            rng = np.random.default_rng(seed)
            c = project_lsf(quad, lambda p: np.hypot(p[:, 0], p[:, 1]) - 35.0)
            c += rng.standard_normal(basis.m)
            sol = solve_state(disc, DesignField(basis, c), SmoothingParams(4.0))
            j, _ = eval_main(spec, disc, sol)
            assert j >= 0.0

    def test_j_along_descent_ray_follows_gradient(self):
        # central differences of J along p = -g/|g|_inf match g.p from the
        # step where truncation dominates down to where roundoff would
        model = build_cloak_model("circular")
        basis = design_basis_for(model, RefineSpec(2, 1, 2, 2))
        disc = discretize(refine_model(model, RefineSpec(2, 1, 6, 6)), basis)
        quad = design_quadrature(basis, 4)
        prob = HeatProblem(disc, make_objective(disc, "cloak"), SmoothingParams(2.0),
                           quad, build_symmetry_map(basis, "xy"))
        c0 = project_lsf(quad, lambda p: 10.0 - np.abs(np.hypot(p[:, 0], p[:, 1]) - 35.0))
        g = eval_total(prob, DesignField(basis, c0)).grad_total
        p = -g / np.abs(g).max()
        slope = g @ p
        for t in (1e-3, 1e-4, 1e-5, 1e-6):
            jp, jm = (eval_total(prob, DesignField(basis, c0 + s * t * p)).j_total
                      for s in (1.0, -1.0))
            assert (jp - jm) / (2.0 * t) == pytest.approx(slope, rel=1e-6)


def split_main(prob: HeatProblem, field: DesignField, sub):
    """J_main, its gradient and the state solved on the split `sub`."""
    disc = prob.disc
    lu = CondensedSystem(disc, sub, field, prob.smoothing)
    sol = FieldSolution(disc=disc, values=lu.solve(), K=lu.S, lu=lu)
    j, dj_dt = eval_main(prob.spec, disc, sol)
    return j, sensitivity_contraction(sol, solve_adjoint(sol, -dj_dt)), sol.values


def whole_factor_main(prob: HeatProblem, field: DesignField, K):
    """J_main and its gradient with K's K_ff factored whole (on the
    trivial group: every free dof its own row)."""
    return split_main(prob, field, _whole_split(prob.disc, K, prob.disc.trivial))[:2]


def reversed_design_sum(prob: HeatProblem, field: DesignField):
    """The whole K with the design points of its assembly summed in reverse
    order: the same matrix up to roundoff."""
    disc, bulk = prob.disc, prob.disc.bulk
    kappa = kappa_at(bulk.D @ field.coeffs, disc.model.design_pair, prob.smoothing)
    B, s = bulk.B[::-1], np.tile(bulk.w * kappa, 2)[::-1]
    return (assemble_system(disc, override={"design": 0.0}) + B.T @ sp.diags(s) @ B).tocsr()


def reversed_override_sum(disc, override: dict):
    """The whole K under `override` with the design points of its assembly
    summed in reverse order: the same matrix up to roundoff."""
    B, s = disc.bulk.B[::-1], np.tile(disc.bulk.w * override["design"], 2)[::-1]
    return (assemble_system(disc, override={**override, "design": 0.0})
            + B.T @ sp.diags(s) @ B).tocsr()


class TestCondensedEvaluation:
    @pytest.mark.parametrize("name", ["cloak", "camouflage"])
    def test_matches_whole_factor(self, name):
        # eval_total condenses onto T on the shipped plates; the reference
        # factors the whole K_ff.  Roundoff alone sets a floor: the reference
        # itself moves when the design points of its assembly are summed in
        # reverse order (by 2e-9 of the camouflage start's gradient), so the
        # bound is 1e-12 or four times that move, the larger
        pipe = build_pipeline(RunConfig.load(os.path.join(CONFIGS, f"{name}.yaml")))
        prob, disc, bulk = pipe.problem, pipe.disc, pipe.disc.bulk
        rng = np.random.default_rng(5)
        for k in range(4):
            c = pipe.field0.coeffs + (0.5 * rng.standard_normal(bulk.D.shape[1]) if k else 0.0)
            field = prob.field(c)
            val = eval_total(prob, field)
            j, g = whole_factor_main(prob, field, assemble_system(disc, field, prob.smoothing))
            j_rev, g_rev = whole_factor_main(prob, field, reversed_design_sum(prob, field))
            for x, ref, alt in ((val.j_main, j, j_rev), (val.grad_main, g, g_rev)):
                floor = np.abs(alt - ref).max()
                assert np.abs(x - ref).max() <= max(1e-12 * np.abs(ref).max(), 4.0 * floor)


class TestSymmetricEvaluation:
    @pytest.mark.parametrize("name", ["annulus", "cloak", "camouflage"])
    def test_orbit_split_matches_plain_split(self, name):
        # the sym-expanded start and three symmetric perturbations solve on
        # the mesh's mirror orbits; the reference is the plain split.  The
        # optimizer reads the reduced gradient: the full one's antisymmetric
        # part is roundoff of the plain solve, which the orbit-summed
        # adjoint load drops (3e-12 of the cloak start's gradient).  On the
        # camouflage the bound is 1e-12 or four times the move of a
        # whole-K_ff solve under a reversed design sum, the larger
        # (TestCondensedEvaluation)
        pipe = build_pipeline(RunConfig.load(os.path.join(CONFIGS, f"{name}.yaml")))
        prob, disc, sym = pipe.problem, pipe.disc, pipe.problem.sym
        x0 = sym.means(pipe.field0.coeffs)
        rng = np.random.default_rng(11)
        for k in range(4):
            field = prob.field(sym.expand(x0 + (0.5 * rng.standard_normal(x0.size) if k else 0.0)))
            val = eval_total(prob, field)
            assert val.state.lu.sub is disc.splits[disc.group]
            j, g, T = split_main(prob, field, _substructure(disc, disc.trivial))
            got = (val.j_main, val.grad_reduced, val.state.values)
            refs = (j, sym.reduce(g), T)
            floors = (0.0, 0.0, 0.0)
            if name == "camouflage":
                whole = split_main(prob, field, _whole_split(
                    disc, assemble_system(disc, field, prob.smoothing), disc.trivial))
                rev = split_main(prob, field, _whole_split(
                    disc, reversed_design_sum(prob, field), disc.trivial))
                floors = [np.abs(a - b).max() for a, b in zip(
                    (rev[0], sym.reduce(rev[1]), rev[2]),
                    (whole[0], sym.reduce(whole[1]), whole[2]))]
            for x, ref, floor in zip(got, refs, floors):
                assert np.abs(x - ref).max() <= max(1e-12 * np.abs(ref).max(), 4.0 * floor)

    def test_objective_the_mirror_does_not_leave_invariant(self, monkeypatch):
        # the cloak's objective cut to y > 0: a sym-expanded design solves
        # its state and its adjoint on the mirror orbits.  The orbit-summed
        # adjoint load drops the full gradient's antisymmetric part, which
        # is no longer roundoff; J and the reduced gradient, which the
        # optimizer reads, still match the plain split
        pipe = build_pipeline(RunConfig.load(os.path.join(CONFIGS, "cloak.yaml")))
        prob, disc, sym = pipe.problem, pipe.disc, pipe.problem.sym
        prob.spec = replace(prob.spec, mask=prob.spec.mask & (disc.phys[:, 1] > 0))
        subs, solve = [], CondensedSystem.solve

        def recorded(self, F=None):
            subs.append(self.sub)
            return solve(self, F)

        monkeypatch.setattr(CondensedSystem, "solve", recorded)
        field = prob.field(sym.expand(sym.means(pipe.field0.coeffs)))
        val = eval_total(prob, field)
        assert len(subs) == 2
        assert subs[0] is disc.splits[disc.group] and subs[1] is disc.splits[disc.group]
        j, g, _ = split_main(prob, field, _substructure(disc, disc.trivial))
        assert np.abs(g - sym.expand(sym.means(g))).max() > 1e-3 * np.abs(g).max()
        g_red, ref = sym.reduce(val.grad_main), sym.reduce(g)
        assert abs(val.j_main - j) <= 1e-12 * abs(j)
        assert np.abs(g_red - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("name", ["annulus", "cloak", "camouflage"])
    def test_shipped_objectives_invariant_on_the_mesh_group(self, shipped, name):
        # why the orbit-summed adjoint load leaves the shipped runs' results
        # unchanged: the mirrors keep every point's region label, so the
        # mask, and with it M, is exactly invariant, and so is t_ref on the
        # dofs, solved on the mesh's orbits and read out through them
        pipe = shipped[name]
        spec, group = pipe.problem.spec, _mirror_group(pipe.disc)
        assert group.quad.count < spec.mask.size and group.quad.invariant(spec.mask)
        if spec.t_ref is not None:
            assert group.dofs.count < spec.t_ref.size and group.dofs.invariant(spec.t_ref)


@pytest.fixture(scope="module")
def shipped():
    return {name: build_pipeline(RunConfig.load(os.path.join(CONFIGS, f"{name}.yaml")))
            for name in ("annulus", "cloak", "camouflage")}


def per_point(spec, disc, values):
    """J and dJ/dT at every quadrature point, independently of M: the
    region's w * (N d)^2 / j_norm summed, and 2 N d / j_norm."""
    Nd = disc.N @ (values if spec.t_ref is None else values - spec.t_ref)
    wm = np.where(spec.mask, disc.w, 0.0)
    return float((wm * Nd**2).sum()) / spec.j_norm, 2.0 * Nd / spec.j_norm


def shipped_states(pipe):
    """The sym-expanded start, solved on the mesh's group, and the projected
    start, on the trivial group where it is not exactly symmetric."""
    prob, sym = pipe.problem, pipe.problem.sym
    for c in (sym.expand(sym.means(pipe.field0.coeffs)), pipe.field0.coeffs):
        yield solve_state(pipe.disc, prob.field(c), prob.smoothing)


class TestQuadraticForm:
    @pytest.mark.parametrize("name", ["annulus", "cloak", "camouflage"])
    def test_value_is_the_per_point_integral(self, shipped, name):
        # J = d^T M d / j_norm is the region's integral of (N d)^2 / j_norm
        pipe = shipped[name]
        spec, disc = pipe.problem.spec, pipe.disc
        groups = []
        for sol in shipped_states(pipe):
            groups.append(sol.lu.sub.group)
            ref = per_point(spec, disc, sol.values)[0]
            assert abs(eval_main(spec, disc, sol)[0] - ref) <= 1e-13 * ref
        assert groups == [disc.group, disc.trivial] and disc.group is not disc.trivial

    @pytest.mark.parametrize("name", ["annulus", "cloak", "camouflage"])
    def test_adjoint_load_is_N_transpose_of_the_pointwise_derivative(self, shipped, name):
        # the load 2 M d / j_norm is N^T (w * mask * dJ/dT), dJ/dT per point
        pipe = shipped[name]
        spec, disc = pipe.problem.spec, pipe.disc
        for sol in shipped_states(pipe):
            dj_dt = per_point(spec, disc, sol.values)[1]
            ref = disc.N.T @ (np.where(spec.mask, disc.w, 0.0) * dj_dt)
            load = eval_main(spec, disc, sol)[1]
            assert load.shape == (disc.ndof,)
            assert np.abs(load - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_a_cut_mask_is_a_new_form(self, shipped):
        # a spec cut to y > 0 builds its own M, and reads the per-point
        # integral over that half of the cloak's region
        pipe = shipped["cloak"]
        spec, disc = pipe.problem.spec, pipe.disc
        cut = replace(spec, mask=spec.mask & (disc.phys[:, 1] > 0))
        assert cut.mass(disc) is not spec.mass(disc)
        sol = next(shipped_states(pipe))
        j_all, j_cut = (eval_main(s, disc, sol)[0] for s in (spec, cut))
        ref = per_point(cut, disc, sol.values)[0]
        assert 0.0 < j_cut < j_all and abs(j_cut - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("name", ["cloak", "camouflage"])
    def test_all_insulator_reads_one(self, shipped, name):
        # j_norm is the same form at t_ins - t_ref
        pipe = shipped[name]
        disc = pipe.disc
        insulator = disc.model.kappa_regions["inside" if name == "cloak" else "sector"]
        sol = solve_state(disc, override={"design": insulator})
        assert abs(eval_main(pipe.problem.spec, disc, sol)[0] - 1.0) <= 1e-13

    def test_spec_is_frozen_and_checked(self, shipped):
        spec = shipped["cloak"].problem.spec
        with pytest.raises(FrozenInstanceError):
            spec.j_norm = 2.0
        with pytest.raises(ConfigError, match="normalization"):
            replace(spec, j_norm=-1.0)
        with pytest.raises(ConfigError, match="regularization"):
            replace(spec, chi=-1.0)
