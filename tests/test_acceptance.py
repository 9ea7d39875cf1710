"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see every line.  The
expensive shared pipelines (benchmark annulus, reduced cloak, camouflage)
are session fixtures.  Criterion 2's bandwidth-0.005 deviation bound is
asserted exactly as stated; see the assertion message and the decisions
log for the measured behavior if it fails.
"""

import time

import numpy as np
import pytest

from igatop.assembly import discretize, solve_state
from igatop.config import RunConfig, build_pipeline, initial_field_fn
from igatop.levelset import (
    DesignField,
    SmoothingParams,
    build_symmetry_map,
    design_quadrature,
    dirac,
    heaviside,
    interface_points,
    perimeter,
    project_lsf,
    reinitialize,
)
from igatop.model import (
    RefineSpec,
    build_annulus,
    build_cloak_model,
    design_basis_for,
    match_edges,
    refine_model,
)
from igatop.objectives import HeatProblem, eval_total, make_objective
from igatop.optimizer import SqpConfig, optimize
from igatop.oracle import annulus_objective
from igatop.studies import refinement_sweep

J_STAR = 1.6094e4
R_STAR = 1.80612


def report(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def radius(p):
    return np.hypot(p[:, 0], p[:, 1])


@pytest.fixture(scope="session")
def annulus_bench():
    """N_var=25 design basis on the 4389-control-point benchmark solution
    mesh, 4356 dofs once the seam control points are shared."""
    pipe = build_pipeline(RunConfig.from_dict({"problem": "annulus"}))
    assert pipe.problem.sym.count == 25
    assert sum(p.n_ctrl for p in pipe.disc.model.patches) == 4389 and pipe.disc.ndof == 4356
    return pipe


@pytest.fixture(scope="session")
def annulus_sweep_basis():
    """The 1089-coefficient design basis used by the curve studies."""
    model = build_annulus()
    basis = design_basis_for(model, RefineSpec(2, 1, 7, 32))
    assert basis.m == 1089
    quad = design_quadrature(basis, 4)
    return model, basis, quad


@pytest.fixture(scope="session")
def cloak_runs():
    """Reduced-refinement circular-cloak runs shared by criteria 5 and 8."""
    out = {}
    for name, chi, use_reinit in (
        ("plain", 0.0, True),
        ("tikhonov", 1e-2, True),
        ("no_reinit", 0.0, False),
    ):
        cfg = RunConfig.from_dict({
            "problem": "cloak",
            "objective": {"chi": chi},
            "reinit": {"enabled": use_reinit},
            "quadrature": {"measures_per_span": 6},
            "sqp": {"max_iterations": 200, "max_function_evaluations": 600},
        })
        pipe = build_pipeline(cfg)
        assert pipe.problem.sym.count == 25
        out["ndof"] = pipe.disc.ndof
        hist = []
        t0 = time.time()
        best, state, reason = optimize(pipe.problem, pipe.field0, SqpConfig(**cfg.data["sqp"]),
                                       use_reinit=use_reinit,
                                       record_hook=lambda r, s: hist.append(r))
        val = eval_total(pipe.problem, best)
        fe_to_1em4 = next((r.fevals for r in hist if r.j_main <= 1e-4), None)
        out[name] = dict(value=val, reason=reason, fevals=state.fevals,
                         seconds=time.time() - t0, fe_to_1em4=fe_to_1em4,
                         history=hist)
    return out


class TestCriterion1:
    def test_annulus_optimum_from_three_starts(self, annulus_bench):
        pipe = annulus_bench
        starts = [
            {"kind": "radial", "params": {"radius": 1.3}},
            {"kind": "ring", "params": {"radius": 1.5, "half_width": 0.25}},
            {"kind": "bands", "params": {"radii": [1.25, 1.75], "half_width": 0.12}},
        ]
        details = []
        ok = True
        for s in starts:
            c0 = project_lsf(pipe.quad, initial_field_fn(s))
            t0 = time.time()
            best, state, reason = optimize(pipe.problem, pipe.problem.field(c0),
                                           SqpConfig(**pipe.cfg.data["sqp"]), use_reinit=False)
            dt = time.time() - t0
            val = eval_total(pipe.problem, best)
            pts = interface_points(best, 20)[0]
            med = float(np.median(radius(pts)))
            dev_j = abs(val.j_main / J_STAR - 1.0)
            dev_r = abs(med - R_STAR)
            ok &= dev_j <= 0.01 and dev_r <= 0.02 and dt < 120.0
            details.append(
                f"{s['kind']}: J={val.j_main:.1f} ({dev_j:.2%}), r_med={med:.4f} "
                f"({dev_r:+.4f}), {dt:.0f}s"
            )
        report("criterion 1 (annulus optimum, 3 starts, N_var=25, 4389 control points)",
               ok, "; ".join(details))


@pytest.fixture(scope="session")
def sweep_errors(annulus_sweep_basis):
    model, basis, quad = annulus_sweep_basis
    disc = discretize(refine_model(model, RefineSpec(2, 1, 32, 32)), basis)
    r_values = np.arange(1.05, 1.951, 0.05)
    out = {}
    for delta in (0.5, 0.05, 0.005):
        sp_ = SmoothingParams(delta)
        devs, pers = [], []
        for rl in r_values:
            c = project_lsf(quad, lambda p, R=rl: radius(p) - R)
            fld = DesignField(basis, c)
            sol = solve_state(disc, fld, sp_)
            J = float((disc.w * sol.at_quadrature() ** 2).sum())
            devs.append(abs(J / annulus_objective(rl) - 1.0))
            pers.append(perimeter(fld, sp_, quad))
        out[delta] = (r_values, np.array(devs), np.array(pers))
    return out


class TestCriterion2:
    def test_2a_convergence_toward_analytic(self, sweep_errors):
        means = {d: float(np.mean(v[1])) for d, v in sweep_errors.items()}
        ok = means[0.5] > means[0.05] > means[0.005]
        report("criterion 2a (J curve approaches analytic as bandwidth shrinks)",
               ok, f"mean deviations: {means[0.5]:.2%} -> {means[0.05]:.2%} -> {means[0.005]:.2%}")

    def test_2b_deviation_bound_at_smallest_bandwidth(self, sweep_errors):
        r_values, devs, _ = sweep_errors[0.005]
        interior = (r_values >= 1.15) & (r_values <= 1.85)
        detail = (
            f"max {devs.max():.2%} (interior {devs[interior].max():.2%}); the state layer "
            "of width 2*0.005 lies inside single knot spans of the 4389-control-point mesh "
            "(h_avg=0.048), so most of the deviation is resolution-limited: an "
            "independent 1D solve of the smoothed radial problem puts the pure "
            "smoothing bias at about 0.4% up to R=1.85 but +1.11% at R=1.90 and "
            "+2.16% at R=1.95, so the 1% bound cannot hold there on any mesh; the "
            "rest is the under-resolved layer"
        )
        report("criterion 2b (max J deviation at bandwidth 0.005 <= 1%)",
               bool(devs.max() <= 0.01), detail)

    def test_2c_perimeter(self, sweep_errors):
        r_values, _, pers = sweep_errors[0.05]
        interior = (r_values >= 1.15) & (r_values <= 1.85)
        rel = np.abs(pers[interior] / (2 * np.pi * r_values[interior]) - 1.0)
        report("criterion 2c (perimeter within 3% of 2*pi*R at bandwidth 0.05)",
               bool(rel.max() <= 0.03), f"max deviation {rel.max():.2%}")


class TestCriterion3:
    def test_refinement_bandwidth_law(self, tmp_path):
        cfg = RunConfig.from_dict({
            "problem": "annulus",
            "design": {"subdiv_circ": 7, "subdiv_rad": 32},
            "output": {"dir": str(tmp_path)},
            "sweep": {"kind": "refinement", "subdivisions": [4, 8, 16, 32, 64],
                      "deltas": [0.5, 0.1, 0.05, 0.01, 0.005]},
        })
        slope, intercept = refinement_sweep(cfg)
        # errors at the production bandwidth decrease with refinement until
        # the bandwidth-limited floor
        import csv

        with open(tmp_path / "refinement_sweep.csv") as f:
            rows = [r for r in csv.DictReader(f) if float(r["delta"]) == 0.05]
        errs = [float(r["err_J"]) for r in sorted(rows, key=lambda r: int(r["ndof"]))]
        floor = min(errs)
        monotone = all(
            errs[k + 1] <= errs[k] * 1.05 or errs[k + 1] <= 1.3 * floor
            for k in range(len(errs) - 1)
        )
        ok = 1.2 <= slope <= 2.2 and monotone
        report("criterion 3 (refinement/bandwidth law, knee-locus slope in [1.2, 2.2])",
               ok, f"fitted slope {slope:.3f}, intercept {intercept:.3f}; "
                   f"err_J at bandwidth 0.05 over meshes: "
                   + " -> ".join(f"{e:.3g}" for e in errs))


class TestCriterion4:
    def test_adjoint_gradient_gate(self):
        model = build_cloak_model("circular", beta=1e4)
        basis = design_basis_for(model, RefineSpec(2, 1, 2, 2))
        disc = discretize(refine_model(model, RefineSpec(2, 1, 3, 3)), basis)
        quad = design_quadrature(basis, 6)
        sym = build_symmetry_map(basis, "none")
        assert disc.ndof <= 500
        smoothing = SmoothingParams(15.0)
        rng = np.random.default_rng(3)
        c0 = project_lsf(quad, lambda p: radius(p) - 35.0)
        c0 = c0 + 2.0 * rng.standard_normal(basis.m)
        # the gate runs on a reduced symmetric variable set (<= 30 variables)
        sym_red = build_symmetry_map(basis, "xy")
        assert sym_red.count <= 30
        details = []
        ok = True
        for chi, rho in ((0.0, 0.0), (1e-3, 1e-3)):
            spec = make_objective(disc, "cloak", chi=chi, rho=rho)
            prob = HeatProblem(disc, spec, smoothing, quad, sym_red)
            v0 = sym_red.means(c0)
            val = eval_total(prob, prob.field(sym_red.expand(v0)))
            g = val.grad_reduced
            h = 1e-4 * np.abs(v0).max()
            worst = 0.0
            for i in range(sym_red.count):
                e = np.zeros(sym_red.count)
                e[i] = h
                jp = eval_total(prob, prob.field(sym_red.expand(v0 + e))).j_total
                jm = eval_total(prob, prob.field(sym_red.expand(v0 - e))).j_total
                fd = (jp - jm) / (2 * h)
                if abs(fd) > 1e-12:
                    worst = max(worst, abs(g[i] - fd) / abs(fd))
            ok &= worst <= 1e-4
            details.append(f"chi=rho={chi}: max rel err {worst:.2e}")
        report("criterion 4 (adjoint gradient vs central differences, <=1e-4)",
               ok, f"{disc.ndof} dof, {sym_red.count} vars; " + "; ".join(details))


class TestCriterion5:
    def test_cloak_unregularized(self, cloak_runs):
        run = cloak_runs["plain"]
        j = run["value"].j_main
        ok = j <= 1e-6 and run["seconds"] < 1800
        report("criterion 5a (circular cloak, N_var=25, terminal J <= 1e-6)",
               ok, f"J_cloak={j:.3e} in {run['fevals']} evaluations, "
                   f"{run['seconds']:.0f}s at {cloak_runs['ndof']} dof ({run['reason']})")

    def test_cloak_tikhonov(self, cloak_runs):
        run = cloak_runs["tikhonov"]
        plain = cloak_runs["plain"]
        j = run["value"].j_main
        ok = j <= 1e-5 and run["value"].j_tknv < plain["value"].j_tknv
        report("criterion 5b (cloak with Tikhonov chi=1e-2)",
               ok, f"J_cloak={j:.3e}, J_Tknv={run['value'].j_tknv:.3e} vs "
                   f"unregularized {plain['value'].j_tknv:.3e}")


class TestCriterion6:
    def test_camouflage(self):
        cfg = RunConfig.from_dict({
            "problem": "camouflage",
            # start from a lattice of conductor islands in the band
            "initial_field": {"kind": "lattice",
                              "params": {"n": 2, "pitch": 24.0, "radius": 5.0}},
            "quadrature": {"measures_per_span": 6},
            "sqp": {"max_iterations": 200, "max_function_evaluations": 600},
        })
        pipe = build_pipeline(cfg)
        t0 = time.time()
        best, state, reason = optimize(pipe.problem, pipe.field0, SqpConfig(**cfg.data["sqp"]))
        val = eval_total(pipe.problem, best)
        ok = val.j_main <= 5e-3
        report("criterion 6 (camouflage terminal J <= 5e-3 at reduced scale)",
               ok, f"J_cmflg={val.j_main:.3e} at {pipe.disc.ndof} dof "
                   f"({state.fevals} evals, {time.time()-t0:.0f}s, {reason})")


class TestCriterion7:
    def test_patch_and_nitsche_suite(self):
        # homogeneous patch test at a float64-friendly penalty
        model = build_cloak_model("circular", beta=1e6)
        disc = discretize(refine_model(model, RefineSpec(2, 1, 8, 8)), n_per_span=6)
        sol = solve_state(disc, override={"inside": 200.0, "design": 200.0,
                                          "outside": 200.0})
        T_lin = 300.0 - (disc.phys[:, 0] + 70.0) / 140.0 * 100.0
        err_patch = float(np.abs(sol.at_quadrature() - T_lin).max())

        # two-patch vs one-patch equivalence on the joined rectangle
        from tests.test_assembly import two_square_model

        spec = RefineSpec(2, 1, 4, 4)
        d2 = discretize(refine_model(two_square_model(beta=1e6), spec))
        s2 = solve_state(d2)
        err_two = float(np.abs(s2.at_quadrature()
                               - (300.0 - 50.0 * d2.phys[:, 0])).max())

        # orientation invariance of the assembled operator
        from igatop.assembly import assemble_system

        base = two_square_model(beta=1e4)
        swapped = two_square_model(beta=1e4)
        swapped.interfaces = [match_edges(swapped.patches, 1, "u0", 0, "u1")]
        Ka = assemble_system(discretize(refine_model(base, spec)))
        Kb = assemble_system(discretize(refine_model(swapped, spec)))
        asym = float(abs(Ka - Kb).max() / abs(Ka).max())

        ok = err_patch <= 1e-8 and err_two <= 1e-6 and asym <= 1e-10
        report("criterion 7 (patch test 1e-8; two-vs-one-patch 1e-6; "
               "orientation invariance 1e-10)",
               ok, f"patch {err_patch:.2e} K, equivalence {err_two:.2e} K, "
                   f"orientation {asym:.2e}")


class TestCriterion8:
    def test_reinitialization_quality(self, annulus_sweep_basis):
        model, basis, quad = annulus_sweep_basis
        c = project_lsf(quad, lambda p: radius(p) - 1.5)
        fld = DesignField(basis, 3.0 * c)
        uv = interface_points(fld, 20)[2]
        re = reinitialize(fld, quad)
        gx = quad.Dx @ re.coeffs
        gy = quad.Dy @ re.coeffs
        phi = quad.D @ re.coeffs
        band = np.abs(phi) <= 0.1
        norms = np.hypot(gx, gy)[band]
        from igatop.splines import tabulate

        tab = tabulate(basis.patches[0], uv, check_jacobian=False)
        drift = float(np.abs(
            np.einsum("nl,nl->n", tab.values, re.coeffs[tab.indices])
        ).max())
        ok = norms.min() >= 0.9 and norms.max() <= 1.1 and drift <= 1e-3 * 4.0
        report("criterion 8a (reinit restores |grad| in [0.9,1.1]; contour drift)",
               ok, f"|grad| in [{norms.min():.3f},{norms.max():.3f}], "
                   f"drift {drift:.2e} (bound {4e-3:.0e})")

    def test_reinit_speeds_up_cloak(self, cloak_runs):
        with_r = cloak_runs["plain"]["fe_to_1em4"]
        without = cloak_runs["no_reinit"]["fe_to_1em4"]
        detail = (f"evaluations to reach J<=1e-4: {with_r} with reinit vs "
                  f"{without if without is not None else 'never'} without "
                  "(ring start, reduced circular cloak)")
        ok = with_r is not None and (without is None or with_r < without)
        report("criterion 8b (reinit reaches J<=1e-4 in fewer evaluations)", ok, detail)


class TestCriterion9:
    def test_smoothing_function_identities(self):
        details = []
        ok = True
        for delta, alpha in ((0.05, 0.0), (2.0, 0.0), (0.05, 0.1)):
            sp_ = SmoothingParams(delta, alpha)
            ok &= heaviside(0.0, sp_) == pytest.approx((1 + alpha) / 2, abs=1e-14)
            ok &= heaviside(delta, sp_) == pytest.approx(1.0, abs=1e-12)
            ok &= heaviside(-delta, sp_) == pytest.approx(alpha, abs=1e-12)
            x, w = np.polynomial.legendre.leggauss(8)
            integral = delta * float(w @ dirac(delta * x, sp_))
            ok &= abs(integral - (1.0 - alpha)) <= 1e-10
            h = 1e-6 * delta
            phis = np.linspace(-0.9 * delta, 0.9 * delta, 7)
            fd = (heaviside(phis + h, sp_) - heaviside(phis - h, sp_)) / (2 * h)
            err = np.abs(dirac(phis, sp_) - fd).max()
            ok &= err <= 1e-5 / delta
            details.append(f"delta={delta},alpha={alpha}: d-dH/dphi err {err:.1e}")
        report("criterion 9 (smoothed step/impulse identities)", ok, "; ".join(details))
