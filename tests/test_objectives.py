import numpy as np
import pytest

from igatop.assembly import discretize, solve_state
from igatop.errors import ConfigError
from igatop.levelset import (
    DesignField,
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
    region_areas,
)
from igatop.objectives import (
    HeatProblem,
    compute_reference_fields,
    eval_main,
    eval_total,
    make_objective,
    tikhonov,
)

RNG = np.random.default_rng(31)


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
        area = region_areas(model, 8)["design"]
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
