import numpy as np
import pytest
from scipy.integrate import quad

from igatop.errors import DomainError
from igatop.oracle import (
    AnnulusParams,
    _adjoint_coeffs,
    _state_coeffs,
    annulus_adjoint,
    annulus_objective,
    annulus_objective_derivative,
    annulus_optimum,
    annulus_state,
)

P = AnnulusParams()


def annulus_state_derivs(r, r_interface, params: AnnulusParams = AnnulusParams()):
    """dT/dr and d2T/dr2 (piecewise, for ODE residual checks)."""
    r = np.asarray(r, dtype=float)
    ca, da, cb, db = _state_coeffs(r_interface, params)
    d = np.where(r <= r_interface, da, db)
    return d / r, -d / r**2


def annulus_adjoint_derivs(r, r_interface, params: AnnulusParams = AnnulusParams()):
    """dP/dr and d2P/dr2 (piecewise)."""
    r = np.asarray(r, dtype=float)
    (C1, D1, C2, D2), (ca, da, cb, db) = _adjoint_coeffs(r_interface, params)
    ka, kb = params.kappa_inner, params.kappa_outer

    def derivs(C, c, d, k):
        dP = C / r + (c - d) * r / k + d * (2 * r * np.log(r) + r) / (2 * k)
        d2P = -C / r**2 + (c - d) / k + d * (2 * np.log(r) + 3) / (2 * k)
        return dP, d2P

    d_in = derivs(C1, ca, da, ka)
    d_out = derivs(C2, cb, db, kb)
    mask = r <= r_interface
    return (
        np.where(mask, d_in[0], d_out[0]),
        np.where(mask, d_in[1], d_out[1]),
    )


class TestState:
    def test_boundary_values(self):
        assert annulus_state(1.0, 1.5, P) == pytest.approx(0.0, abs=1e-10)
        assert annulus_state(2.0, 1.5, P) == pytest.approx(100.0, rel=1e-12)

    def test_flux_continuity(self):
        rl = 1.5
        eps = 1e-9
        dm, _ = annulus_state_derivs(rl - eps, rl, P)
        dp, _ = annulus_state_derivs(rl + eps, rl, P)
        assert P.kappa_inner * dm == pytest.approx(P.kappa_outer * dp, rel=1e-6)

    def test_equal_kappas_give_single_log_profile(self):
        p = AnnulusParams(kappa_inner=42.0, kappa_outer=42.0)
        r = np.linspace(1.0, 2.0, 11)
        ref = p.t_outer * np.log(r) / np.log(2.0)
        for rl in (1.2, 1.5, 1.8):
            assert np.allclose(annulus_state(r, rl, p), ref, atol=1e-10)

    def test_ode_residual(self):
        r = np.linspace(1.01, 1.99, 23)
        for rl in (1.3, 1.7):
            d1, d2 = annulus_state_derivs(r, rl, P)
            res = d2 + d1 / r
            assert np.max(np.abs(res)) < 1e-8

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            annulus_state(2.5, 1.5, P)


class TestAdjoint:
    def test_zero_dirichlet(self):
        for rl in (1.2, 1.5, 1.9):
            assert abs(annulus_adjoint(1.0, rl, P)) < 1e-10
            assert abs(annulus_adjoint(2.0, rl, P)) < 1e-10

    def test_flux_continuity(self):
        rl = 1.5
        eps = 1e-9
        dm, _ = annulus_adjoint_derivs(rl - eps, rl, P)
        dp, _ = annulus_adjoint_derivs(rl + eps, rl, P)
        assert P.kappa_inner * dm == pytest.approx(P.kappa_outer * dp, rel=1e-6, abs=1e-10)

    def test_ode_residual_matches_source(self):
        # adjoint convention: div(kappa grad P) = 2 T
        r = np.linspace(1.01, 1.99, 23)
        for rl in (1.25, 1.75):
            d1, d2 = annulus_adjoint_derivs(r, rl, P)
            kappa = np.where(r <= rl, P.kappa_inner, P.kappa_outer)
            res = kappa * (d2 + d1 / r) - 2.0 * annulus_state(r, rl, P)
            scale = np.max(np.abs(annulus_state(r, rl, P)))
            assert np.max(np.abs(res)) < 1e-8 * scale


class TestObjective:
    def test_matches_adaptive_quadrature(self):
        for rl in (1.2, 1.5, 1.85):
            f = lambda r: annulus_state(r, rl, P) ** 2 * 2 * np.pi * r
            num = quad(f, 1.0, rl, epsabs=1e-12, epsrel=1e-13)[0]
            num += quad(f, rl, 2.0, epsabs=1e-12, epsrel=1e-13)[0]
            assert annulus_objective(rl, P) == pytest.approx(num, rel=1e-10)

    def test_reported_optimal_value(self):
        assert annulus_objective(1.80612, P) == pytest.approx(1.6094e4, rel=5e-4)

    def test_grid_argmin(self):
        rstar, _ = annulus_optimum(P, resolution=1e-5)
        assert rstar == pytest.approx(1.80612, abs=1e-3)

    def test_stationarity_at_argmin(self):
        rstar, _ = annulus_optimum(P, resolution=1e-5)
        d0 = annulus_objective_derivative(rstar, P)
        # compare against the derivative scale across the design interval
        dref = abs(annulus_objective_derivative(1.2, P))
        assert abs(d0) < 1e-4 * dref

