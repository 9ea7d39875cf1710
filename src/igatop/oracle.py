"""Closed-form reference solutions for the two-material annular ring.

State: piecewise c + d*log(r) with coefficients from a 4x4 system built
from the Dirichlet values at the inner/outer radii and temperature/flux
continuity at the material interface r = r_interface.  Adjoint: the
linear problem driven by the source 2*T of the integral-of-T^2 objective
(sign convention matches the assembled adjoint system: same stiffness,
right-hand side -integral(N^T * 2T)), again with a 4x4 system for the
homogeneous-solution coefficients.  Also provides the exact objective
integral, its derivative in the interface radius, and its minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from igatop.errors import DomainError


@dataclass(frozen=True)
class AnnulusParams:
    """Two-material annulus setup: radii, Dirichlet values, conductivities."""

    r_inner: float = 1.0
    r_outer: float = 2.0
    t_inner: float = 0.0
    t_outer: float = 100.0
    kappa_inner: float = 100.0
    kappa_outer: float = 10.0

    def __post_init__(self):
        if not self.r_inner < self.r_outer:
            raise DomainError("annulus radii must satisfy r_inner < r_outer")
        if self.kappa_inner <= 0 or self.kappa_outer <= 0:
            raise DomainError("conductivities must be positive")


def _state_coeffs(r_interface, params: AnnulusParams):
    """Coefficients (c_a, d_a, c_b, d_b) of T = c + d log r on both sides."""
    ra, rb = params.r_inner, params.r_outer
    ka, kb = params.kappa_inner, params.kappa_outer
    rl = r_interface
    dtype = np.result_type(float, np.asarray(rl).dtype)
    A = np.array(
        [
            [1.0, np.log(ra), 0.0, 0.0],
            [0.0, 0.0, 1.0, np.log(rb)],
            [1.0, np.log(rl), -1.0, -np.log(rl)],
            [0.0, ka, 0.0, -kb],
        ],
        dtype=dtype,
    )
    rhs = np.array([params.t_inner, params.t_outer, 0.0, 0.0], dtype=dtype)
    return np.linalg.solve(A, rhs)


def annulus_state(r, r_interface, params: AnnulusParams = AnnulusParams()):
    """Exact temperature T(r) for the interface at r_interface."""
    r = np.asarray(r)
    _check_radius(r, params)
    ca, da, cb, db = _state_coeffs(r_interface, params)
    inner = ca + da * np.log(r)
    outer = cb + db * np.log(r)
    return np.where(r <= np.real(r_interface), inner, outer)


def _adjoint_coeffs(r_interface, params: AnnulusParams):
    """Homogeneous coefficients (C1, D1, C2, D2) of the adjoint solution.

    The adjoint solves div(kappa grad P) = 2T with P = 0 at both radii;
    a particular solution on each side is
        P_p(r) = (c - d) r^2 / (2 kappa) + d r^2 log(r) / (2 kappa),
    and P = C log r + D + P_p.
    """
    ra, rb = params.r_inner, params.r_outer
    ka, kb = params.kappa_inner, params.kappa_outer
    rl = r_interface
    ca, da, cb, db = _state_coeffs(rl, params)

    def part(r, c, d, k):
        return (c - d) * r**2 / (2 * k) + d * r**2 * np.log(r) / (2 * k)

    def part_flux(r, c, d):
        # kappa * dP_p/dr
        return (c - d) * r + d * r * np.log(r) + d * r / 2.0

    dtype = np.result_type(float, np.asarray(rl).dtype)
    A = np.array(
        [
            [np.log(ra), 1.0, 0.0, 0.0],
            [0.0, 0.0, np.log(rb), 1.0],
            [np.log(rl), 1.0, -np.log(rl), -1.0],
            [ka, 0.0, -kb, 0.0],
        ],
        dtype=dtype,
    )
    rhs = np.array(
        [
            -part(ra, ca, da, ka),
            -part(rb, cb, db, kb),
            part(rl, cb, db, kb) - part(rl, ca, da, ka),
            rl * (part_flux(rl, cb, db) - part_flux(rl, ca, da)),
        ],
        dtype=dtype,
    )
    # flux row was scaled by r: kappa C / r terms become kappa C
    return np.linalg.solve(A, rhs), (ca, da, cb, db)


def annulus_adjoint(r, r_interface, params: AnnulusParams = AnnulusParams()):
    """Exact adjoint field P(r) for the integral-of-T^2 objective."""
    r = np.asarray(r)
    _check_radius(r, params)
    (C1, D1, C2, D2), (ca, da, cb, db) = _adjoint_coeffs(r_interface, params)
    ka, kb = params.kappa_inner, params.kappa_outer
    inner = C1 * np.log(r) + D1 + (ca - da) * r**2 / (2 * ka) + da * r**2 * np.log(r) / (2 * ka)
    outer = C2 * np.log(r) + D2 + (cb - db) * r**2 / (2 * kb) + db * r**2 * np.log(r) / (2 * kb)
    return np.where(r <= np.real(r_interface), inner, outer)


def annulus_objective(r_interface, params: AnnulusParams = AnnulusParams()):
    """Exact J = integral of T^2 over the annulus (closed-form radial integral).

    Uses the antiderivative of r (c + d log r)^2:
        F(r) = r^2 [ (c + d log r)^2 / 2 - d (c + d log r) / 2 + d^2 / 4 ].
    """
    rl = r_interface
    ra, rb = params.r_inner, params.r_outer
    if not (np.real(rl) > ra and np.real(rl) < rb):
        raise DomainError("interface radius must lie strictly inside the annulus")
    ca, da, cb, db = _state_coeffs(rl, params)

    def F(r, c, d):
        g = c + d * np.log(r)
        return r**2 * (g**2 / 2.0 - d * g / 2.0 + d**2 / 4.0)

    return 2.0 * np.pi * ((F(rl, ca, da) - F(ra, ca, da)) + (F(rb, cb, db) - F(rl, cb, db)))


def annulus_objective_derivative(r_interface, params: AnnulusParams = AnnulusParams()):
    """dJ/d(r_interface) by complex-step differentiation (machine accurate)."""
    h = 1e-30
    return float(np.imag(annulus_objective(r_interface + 1j * h, params)) / h)


def annulus_optimum(params: AnnulusParams = AnnulusParams(), resolution: float = 1e-5):
    """Grid-search minimizer of the exact objective over the open annulus."""
    lo, hi = params.r_inner + 1e-3, params.r_outer - 1e-3
    for step in (1e-3, resolution):
        grid = np.arange(lo, hi + step / 2, step)
        vals = np.array([annulus_objective(r, params) for r in grid])
        k = int(np.argmin(vals))
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, grid.size - 1)]
    return float(grid[k]), float(vals[k])


def _check_radius(r, params: AnnulusParams):
    tol = 1e-9 * params.r_outer
    if np.any(np.real(r) < params.r_inner - tol) or np.any(np.real(r) > params.r_outer + tol):
        raise DomainError("radius outside the annulus")
