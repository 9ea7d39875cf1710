import itertools

import numpy as np
import pytest

from igatop.assembly import discretize
from igatop.levelset import (
    DesignField,
    SmoothingParams,
    build_symmetry_map,
    design_quadrature,
    project_lsf,
)
from igatop.model import RefineSpec, build_annulus, design_basis_for, refine_model
from igatop.objectives import HeatProblem, ObjectiveValue, make_objective
from igatop.optimizer import (
    SqpConfig,
    SqpState,
    bfgs_update,
    check_stop,
    line_search,
    minimize,
    optimize,
    solve_qp_subproblem,
)

RNG = np.random.default_rng(41)


def spd_matrix(n, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


class TestQpSubproblem:
    def test_identity_hessian_gives_negative_gradient(self):
        g = RNG.standard_normal(6)
        p = solve_qp_subproblem(g, np.eye(6), np.full(6, -np.inf), np.full(6, np.inf),
                                np.zeros(6))
        assert np.allclose(p, -g, atol=1e-12)

    def test_unconstrained_newton_step(self):
        H = spd_matrix(8, 1)
        g = RNG.standard_normal(8)
        p = solve_qp_subproblem(g, H, np.full(8, -np.inf), np.full(8, np.inf), np.zeros(8))
        assert np.abs(p - np.linalg.solve(H, -g)).max() < 1e-10

    def test_kkt_at_active_bounds(self):
        H = spd_matrix(5, 2)
        g = 5.0 * RNG.standard_normal(5)
        lo, hi = np.full(5, -0.05), np.full(5, 0.05)
        p = solve_qp_subproblem(g, H, lo, hi, np.zeros(5))
        lam = g + H @ p
        for i in range(5):
            if p[i] <= lo[i] + 1e-12:
                assert lam[i] >= -1e-8
            elif p[i] >= hi[i] - 1e-12:
                assert lam[i] <= 1e-8
            else:
                assert abs(lam[i]) < 1e-8

    def test_matches_enumerated_minimizer(self):
        # every free / at-lower / at-upper assignment of the step's
        # coordinates, with x inside an asymmetric box that is open on some
        # sides; the best feasible stationary point is the minimizer
        rng = np.random.default_rng(10)
        H = spd_matrix(6, 3)
        g = 20.0 * rng.standard_normal(6)
        x = np.array([0.1, -0.2, 0.3, -0.4, 0.5, -0.6])
        lower = np.array([-0.3, -np.inf, 0.0, -1.0, -np.inf, -0.9])
        upper = np.array([0.4, 0.5, np.inf, np.inf, np.inf, 0.2])
        lo, hi = lower - x, upper - x
        q = lambda p: g @ p + 0.5 * p @ H @ p
        best, best_q = None, np.inf
        for sides in itertools.product((0, -1, 1), repeat=6):
            sides = np.array(sides)
            p = np.where(sides < 0, lo, np.where(sides > 0, hi, 0.0))
            if not np.all(np.isfinite(p)):
                continue
            free = sides == 0
            fixed = ~free
            if free.any():
                p[free] = np.linalg.solve(H[np.ix_(free, free)],
                                          -g[free] - H[np.ix_(free, fixed)] @ p[fixed])
            if np.all(p >= lo) and np.all(p <= hi) and q(p) < best_q:
                best, best_q = p, q(p)
        # the reference minimizer has bounds active on both sides, and a free
        # coordinate
        at_lo, at_hi = np.isclose(best, lo), np.isclose(best, hi)
        assert at_lo.any() and at_hi.any() and not np.all(at_lo | at_hi)
        p = solve_qp_subproblem(g, H, lower, upper, x)
        assert np.all(lo <= p) and np.all(p <= hi)
        assert np.abs(p - best).max() <= 1e-10
        assert abs(q(p) - best_q) <= 1e-10 * abs(best_q)


class TestLineSearch:
    def test_quadratic_accepts_unit_step(self):
        f = lambda x: float((x - 1.0) @ (x - 1.0))
        x = np.zeros(3)
        p = np.ones(3)  # exact Newton step
        out = line_search(lambda xt: f(xt), x, p, f(x), -6.0)
        assert out is not None and out[0] == 1.0

    def test_ascent_direction_fails(self):
        f = lambda x: float(x @ x)
        out = line_search(lambda xt: f(xt), np.ones(2), np.ones(2), 2.0, 4.0)
        assert out is None

    def test_increasing_function_exhausts(self):
        out = line_search(lambda xt: 1.0 + float(xt @ xt), np.zeros(2),
                          np.array([1.0, 0.0]), 0.5, -1.0)
        assert out is None

    def test_trials_stop_at_max_evals(self):
        calls = []
        out = line_search(lambda xt: calls.append(xt) or 1.0 + float(xt @ xt), np.zeros(2),
                          np.array([1.0, 0.0]), 0.5, -1.0, max_evals=5)
        assert out is None and len(calls) == 5

    def test_armijo_bound_satisfied(self):
        f = lambda a: float((a[0] - 0.3) ** 2)
        x = np.zeros(1)
        p = np.array([1.0])
        f0, gtp = f(x), -0.6
        out = line_search(lambda xt: f(xt), x, p, f0, gtp)
        alpha, f_new, _ = out
        assert f_new <= f0 + 1e-4 * alpha * gtp


class TestBfgs:
    def test_secant_condition(self):
        H = np.eye(5)
        s = RNG.standard_normal(5)
        y = s + 0.2 * RNG.standard_normal(5)
        if s @ y > 0.2 * (s @ H @ s):
            H2 = bfgs_update(H, s, y)
            assert np.abs(H2 @ s - y).max() < 1e-10

    def test_damping_keeps_spd(self):
        H = spd_matrix(6, 3)
        s = RNG.standard_normal(6)
        y = -s  # negative curvature pair
        H2 = bfgs_update(H, s, y)
        np.linalg.cholesky(H2)  # raises if not SPD

    def test_zero_step_identity(self):
        H = spd_matrix(4, 4)
        assert bfgs_update(H, np.zeros(4), RNG.standard_normal(4)) is H


class TestCheckStop:
    def _state(self, j, g, it=0, fe=0, streak=0):
        st = SqpState(x=np.zeros(2), g=np.asarray(g, dtype=float), H=np.eye(2), j_total=j)
        st.iteration = it
        st.fevals = fe
        st.steptol_streak = streak
        st.round_iters = it
        st.round_fevals = fe
        return st

    def test_objective_limit(self):
        cfg = SqpConfig()
        dec = check_stop(self._state(1e-10, [1.0, 1.0]), cfg,
                         np.full(2, -np.inf), np.full(2, np.inf), False)
        assert dec == ("stop", "objective_limit")

    def test_steptol_streak_stops_at_four(self):
        cfg = SqpConfig()
        dec = check_stop(self._state(1.0, [1.0, 1.0], streak=4), cfg,
                         np.full(2, -np.inf), np.full(2, np.inf), True)
        assert dec == ("stop", "step_tolerance")

    def test_feval_schedule_triggers_reinit(self):
        cfg = SqpConfig(reinit_every_fevals=100, reinit_every_iters=None)
        dec = check_stop(self._state(1.0, [1.0, 1.0], fe=100), cfg,
                         np.full(2, -np.inf), np.full(2, np.inf), True)
        assert dec == "reinit"

    def test_optimality(self):
        cfg = SqpConfig()
        dec = check_stop(self._state(1.0, [1e-8, -1e-9]), cfg,
                         np.full(2, -np.inf), np.full(2, np.inf), False)
        assert dec == ("stop", "optimality")

    def test_zero_gradient_before_optimality(self):
        # an empty smoothing band makes the gradient exactly zero; -0.0 is zero
        cfg = SqpConfig()
        bounds = np.full(2, -np.inf), np.full(2, np.inf)
        assert check_stop(self._state(1.0, [0.0, -0.0]), cfg, *bounds, True) == (
            "stop", "zero_gradient")
        assert check_stop(self._state(1.0, [0.0, 1e-300]), cfg, *bounds, True) == (
            "stop", "optimality")
        # the objective limit still comes first
        assert check_stop(self._state(1e-10, [0.0, 0.0]), cfg, *bounds, True) == (
            "stop", "objective_limit")


class TestMinimize:
    def test_quadratic_converges_fast(self):
        n = 10
        H = spd_matrix(n, 7)
        b = RNG.standard_normal(n)
        xstar = np.linalg.solve(H, -b)
        fun = lambda x: (0.5 * x @ H @ x + b @ x, H @ x + b, None)
        cfg = SqpConfig(reinit_every_iters=None, reinit_every_fevals=None)
        cfg.objective_limit = -1e30
        best, st, reason = minimize(fun, np.zeros(n), cfg)
        assert np.abs(best - xstar).max() < 1e-8
        assert st.iteration <= 3 * n

    def test_box_constraint_active(self):
        fun = lambda x: (float((x[0] - 2.0) ** 2), np.array([2 * (x[0] - 2.0)]), None)
        cfg = SqpConfig(bounds=1.0, reinit_every_iters=None, reinit_every_fevals=None)
        cfg.objective_limit = -1e30
        best, _, _ = minimize(fun, np.array([0.0]), cfg)
        assert best[0] == pytest.approx(1.0, abs=1e-10)

    def test_best_seen_returned(self):
        # contrived oscillating reinit: minimize tracks the best iterate
        calls = {"n": 0}

        def fun(x):
            j = float(x @ x)
            return j, 2 * x, None

        cfg = SqpConfig(reinit_every_iters=None, reinit_every_fevals=None)
        cfg.objective_limit = -1e30
        best, st, _ = minimize(fun, np.array([3.0, -4.0]), cfg)
        assert st.best_j <= 1e-12


def uphill_from(x0):
    """fun with J_total = 3 + |x - x0|^2 but a reported gradient of ones, so
    that every line search from x0 climbs and fails."""
    def fun(x):
        return 3.0 + float((x - x0) @ (x - x0)), np.ones_like(x), None
    return fun


class TestRecords:
    def _rows(self, fun):
        hist = []
        cfg = SqpConfig(reinit_every_iters=None, reinit_every_fevals=None)
        _, _, reason = minimize(fun, np.zeros(1), cfg,
                                record_hook=lambda r, s: hist.append(r))
        assert reason == "step_tolerance"
        return [(r.event, r.j_main, r.j_tknv, r.j_vol, r.j_total) for r in hist]

    def test_failed_line_search_keeps_accepted_terms(self):
        # chi = 0.05, rho = 0.1: 1 + 0.05 * 20 + 0.1 * 10 = 3
        plain = uphill_from(np.zeros(1))

        def fun(x):
            j, g, _ = plain(x)
            z = np.zeros_like(x)
            return j, g, ObjectiveValue(j - 2.0, 20.0, 10.0, j, z, z, z, g, g)

        assert self._rows(fun) == [("start", 1.0, 20.0, 10.0, 3.0),
                                   ("steptol", 1.0, 20.0, 10.0, 3.0)]

    def test_plain_fun_reports_total_as_main(self):
        assert self._rows(uphill_from(np.zeros(1))) == [("start", 3.0, 0.0, 0.0, 3.0),
                                                        ("steptol", 3.0, 0.0, 0.0, 3.0)]


class TestStepToleranceReinit:
    """Runs whose line searches fail from chosen points.  J = u^2 in the
    first coordinate; the second tags the point: t = 1 reports the gradient
    with the wrong sign, so the line search climbs and fails, t = 0 reports
    it truly.  The reinitialization hook hands out the next scripted point."""

    @staticmethod
    def _run(points, cfg):
        calls, hist = [0], []

        def fun(x):
            calls[0] += 1
            u, t = x
            return u * u, np.array([(1.0 - 2.0 * t) * 2.0 * u, 0.0]), None

        script = iter(points[1:])
        best, state, reason = minimize(
            fun, points[0], cfg, reinit_hook=lambda x: np.array(next(script)),
            record_hook=lambda r, s: hist.append((r.event, s.steptol_streak)))
        return best, state, reason, hist, calls[0]

    def test_failures_reinitialize_until_the_streak_stops(self):
        cfg = SqpConfig(reinit_every_iters=None, reinit_every_fevals=None)
        points = [(4.0, 1.0), (3.0, 1.0), (2.0, 1.0), (5.0, 1.0)]
        best, state, reason, hist, calls = self._run(points, cfg)
        events = [e for e, _ in hist]
        assert events == ["start"] + ["steptol", "reinit"] * 3 + ["steptol"]
        assert cfg.consecutive_steptol_stop == 4
        assert reason == "step_tolerance" and state.steptol_streak == 4
        # start, three reinitializations, and each failed search's trials
        assert state.fevals == calls == 4 + 4 * 34
        assert np.array_equal(best, [2.0, 1.0]) and state.best_j == 4.0

    def test_scheduled_reinit_starts_the_streak_over(self):
        # two failures, one accepted step, then the iteration schedule fires;
        # only the four consecutive failures after it stop the run
        cfg = SqpConfig(reinit_every_iters=1, reinit_every_fevals=None)
        points = [(4.0, 1.0), (4.0, 1.0), (3.0, 0.0)] + [(4.0, 1.0)] * 4
        best, state, reason, hist, calls = self._run(points, cfg)
        assert hist == [("start", 0), ("steptol", 0), ("reinit", 1), ("steptol", 1),
                        ("reinit", 2), ("", 2), ("reinit", 0), ("steptol", 0),
                        ("reinit", 1), ("steptol", 1), ("reinit", 2), ("steptol", 2),
                        ("reinit", 3), ("steptol", 3)]
        assert reason == "step_tolerance" and state.steptol_streak == 4
        assert state.fevals == calls
        # the accepted step, u = 3 -> 2 (BVLS to roundoff)
        assert best == pytest.approx([2.0, 0.0], abs=1e-12)
        assert state.best_j == pytest.approx(4.0, abs=1e-12)


class TestEvaluationCap:
    """A run never evaluates more often than `max_function_evaluations`: a
    line search stops its trials at the evaluations left, and no restart is
    made at the cap."""

    @pytest.mark.parametrize("cap", [1, 2, 10, 35, 36, 40, 100])
    def test_failing_searches_with_reinit(self, cap):
        # every line search climbs and fails (34 trials uncapped), and every
        # reinitialization hands out another such point
        calls = [0]

        def fun(x):
            calls[0] += 1
            return 3.0 + float(x @ x), np.ones_like(x), None

        cfg = SqpConfig(max_function_evaluations=cap, reinit_every_iters=None,
                        reinit_every_fevals=None)
        _, state, reason = minimize(fun, np.zeros(1), cfg, reinit_hook=lambda x: np.zeros(1))
        assert state.fevals == calls[0] == cap
        assert reason == "max_function_evaluations"

    @pytest.mark.parametrize("cap", [1, 5, 20])
    def test_without_reinit_and_on_a_descent_run(self, cap):
        calls = [0]

        def uphill(x):
            calls[0] += 1
            return 3.0 + float(x @ x), np.ones_like(x), None

        cfg = SqpConfig(max_function_evaluations=cap, reinit_every_iters=None,
                        reinit_every_fevals=None)
        _, state, reason = minimize(uphill, np.zeros(1), cfg)
        assert state.fevals == calls[0] == cap and reason == "max_function_evaluations"

        # the Rosenbrock valley takes more evaluations than any cap here
        calls[0] = 0

        def rosenbrock(x):
            calls[0] += 1
            a, b = x
            return ((1 - a) ** 2 + 100 * (b - a * a) ** 2,
                    np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)]), None)

        cfg.objective_limit = -1.0
        _, state, reason = minimize(rosenbrock, np.array([-1.2, 1.0]), cfg,
                                    reinit_hook=lambda x: x)
        assert state.fevals == calls[0] <= cap and reason == "max_function_evaluations"


class TestOptimizeDeterminism:
    def test_identical_histories(self):
        ann = build_annulus(beta=1e6)
        basis = design_basis_for(ann, RefineSpec(2, 1, 2, 2))
        disc = discretize(refine_model(ann, RefineSpec(2, 1, 6, 6)), basis)
        quad = design_quadrature(basis, 4)
        sym = build_symmetry_map(basis, "xy")
        spec = make_objective(disc, "annular")
        prob = HeatProblem(disc, spec, SmoothingParams(0.05), quad, sym)
        c0 = project_lsf(quad, lambda p: np.hypot(p[:, 0], p[:, 1]) - 1.4)

        def run():
            cfg = SqpConfig(max_iterations=8, max_function_evaluations=60,
                            reinit_every_iters=None, reinit_every_fevals=None)
            hist = []
            best, st, reason = optimize(prob, DesignField(basis, c0), cfg,
                                        use_reinit=False,
                                        record_hook=lambda r, s: hist.append(r))
            return best.coeffs, [(r.iteration, r.j_total, r.grad_inf, r.alpha) for r in hist]

        c1, h1 = run()
        c2, h2 = run()
        assert np.array_equal(c1, c2)
        assert h1 == h2
