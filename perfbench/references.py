"""Closed-form references the benchmark checks the program against.

Derived here from the governing equations, not taken from the package, so
that a fault in the package's own oracle shows up as a failed check
instead of being copied into the expected values.

Annulus (a <= r <= b, T(a) = t_a, T(b) = t_b): steady radial conduction
with conductivity k_in for r < R and k_out for r > R.  The radial heat
flow q = k r dT/dr is the same on both sides, so on each side
T = alpha + beta ln r with beta = q / k.  The adjoint of J = int T^2 dA
solves -div(k grad P) = -2 T with P(a) = P(b) = 0, which is the sign the
program's adjoint system uses (same stiffness, load -2 T).

Plate (cloak exterior): with the obstacle and band cloaked perfectly, the
exterior temperature is the linear field between the two Dirichlet edges.
An uncloaked insulated disc of radius R in a uniform gradient G perturbs
the field by G R at its rim, which sets the scale of the disturbance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar


@dataclass(frozen=True)
class Annulus:
    a: float = 1.0
    b: float = 2.0
    t_a: float = 0.0
    t_b: float = 100.0
    k_in: float = 100.0
    k_out: float = 10.0

    # -- state ------------------------------------------------------------

    def _resistance(self, R):
        return math.log(R / self.a) / self.k_in + math.log(self.b / R) / self.k_out

    def heat_flow(self, R) -> float:
        """q = k r dT/dr, constant across the annulus."""
        return (self.t_b - self.t_a) / self._resistance(R)

    def pieces(self, R):
        """(alpha, beta, k) of T = alpha + beta ln r on the inner and outer side."""
        q = self.heat_flow(R)
        b_in, b_out = q / self.k_in, q / self.k_out
        inner = (self.t_a - b_in * math.log(self.a), b_in, self.k_in)
        outer = (self.t_b - b_out * math.log(self.b), b_out, self.k_out)
        return inner, outer

    def temperature(self, r, R):
        r = np.asarray(r, dtype=float)
        (ai, bi, _), (ao, bo, _) = self.pieces(R)
        return np.where(r < R, ai + bi * np.log(r), ao + bo * np.log(r))

    # -- objective --------------------------------------------------------

    def objective(self, R) -> float:
        """J(R) = int T^2 dA = 2 pi int T^2 r dr."""

        def F(r, alpha, beta):  # antiderivative of r (alpha + beta ln r)^2
            g = alpha + beta * math.log(r)
            return 0.5 * r * r * (g * g - beta * g + 0.5 * beta * beta)

        (ai, bi, _), (ao, bo, _) = self.pieces(R)
        inner = F(R, ai, bi) - F(self.a, ai, bi)
        outer = F(self.b, ao, bo) - F(R, ao, bo)
        return 2.0 * math.pi * (inner + outer)

    def objective_derivative(self, R) -> float:
        """dJ/dR.  T is continuous at R, so only the change of q(R) counts:
        dJ/dR = 2 pi dq/dR int 2 T dT/dq r dr, with dT/dq = ln(r/a)/k_in
        inside and -ln(b/r)/k_out outside."""
        s = self._resistance(R)
        dq_dR = -(self.t_b - self.t_a) / s**2 * (1.0 / self.k_in - 1.0 / self.k_out) / R
        x, w = np.polynomial.legendre.leggauss(48)

        def integral(lo, hi, dT_dq):
            r = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
            vals = 2.0 * self.temperature(r, R) * dT_dq(r) * r
            return 0.5 * (hi - lo) * float(w @ vals)

        inner = integral(self.a, R, lambda r: np.log(r / self.a) / self.k_in)
        outer = integral(R, self.b, lambda r: -np.log(self.b / r) / self.k_out)
        return 2.0 * math.pi * dq_dR * (inner + outer)

    def optimum(self):
        """(R*, J*) by bounded scalar minimization of the closed-form J."""
        res = minimize_scalar(
            self.objective, bounds=(self.a + 1e-6, self.b - 1e-6),
            method="bounded", options={"xatol": 1e-10},
        )
        return float(res.x), float(res.fun)

    # -- adjoint ----------------------------------------------------------

    def adjoint(self, r, R):
        """P(r) solving (k r P')' = 2 r T, P(a) = P(b) = 0.

        With G(s) = s^2 g - beta s^2 / 2 (antiderivative of 2 s T) and
        H(s) = s^2 g / 2 - beta s^2 / 2 (antiderivative of G(s) / s), the
        flux k r P' = Phi(r) + C integrates piecewise in closed form.
        """
        r = np.asarray(r, dtype=float)
        (ai, bi, ki), (ao, bo, ko) = self.pieces(R)

        def G(s, alpha, beta):
            return s * s * (alpha + beta * np.log(s)) - 0.5 * beta * s * s

        def H(s, alpha, beta):
            return 0.5 * s * s * (alpha + beta * np.log(s)) - 0.5 * beta * s * s

        a, b = self.a, self.b
        g1a = G(a, ai, bi)
        D = G(R, ai, bi) - g1a - G(R, ao, bo)  # Phi(s) = G_out(s) + D outside
        lhs = math.log(R / a) / ki + math.log(b / R) / ko
        rhs = (H(R, ai, bi) - H(a, ai, bi) - g1a * math.log(R / a)) / ki + (
            H(b, ao, bo) - H(R, ao, bo) + D * math.log(b / R)
        ) / ko
        C = -rhs / lhs

        def p_in(s):
            return (H(s, ai, bi) - H(a, ai, bi) + (C - g1a) * np.log(s / a)) / ki

        p_R = p_in(R)

        def p_out(s):
            return p_R + (H(s, ao, bo) - H(R, ao, bo) + (C + D) * np.log(s / R)) / ko

        rs = np.maximum(r, a)
        return np.where(r < R, p_in(rs), p_out(rs))


# -- plate -----------------------------------------------------------------

PLATE_HALF = 70.0  # mm, shipped cloak plate
T_LEFT, T_RIGHT = 300.0, 200.0  # K, Dirichlet edges x = -70 and x = +70
R_BAND = 50.0  # mm, outer radius of the circular cloak band
GRADIENT = (T_LEFT - T_RIGHT) / (2.0 * PLATE_HALF)  # K/mm


def plate_linear_field(x):
    """T = 250 - 50 x / 70 K: the undisturbed plate."""
    return 0.5 * (T_LEFT + T_RIGHT) - GRADIENT * np.asarray(x, dtype=float)


def uncloaked_disturbance_scale() -> float:
    """G R_band: rim disturbance of an insulated disc of the band's radius."""
    return GRADIENT * R_BAND


def self_test():
    """Reproduce the annulus optimum and cross-check each formula numerically."""
    ann = Annulus()
    r_star, j_star = ann.optimum()
    assert abs(r_star - 1.80612) < 5e-6, r_star
    assert abs(j_star / 1.6094e4 - 1.0) < 5e-5, j_star
    # J by brute-force quadrature of the state
    x, w = np.polynomial.legendre.leggauss(64)
    for R in (1.2, 1.5, r_star):
        num = 0.0
        for lo, hi in ((ann.a, R), (R, ann.b)):
            r = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
            num += 0.5 * (hi - lo) * float(w @ (ann.temperature(r, R) ** 2 * r))
        assert abs(2 * math.pi * num - ann.objective(R)) < 1e-9 * ann.objective(R)
        h = 1e-5
        fd = (ann.objective(R + h) - ann.objective(R - h)) / (2 * h)
        # central-difference truncation error scales with J, not with dJ/dR
        assert abs(fd - ann.objective_derivative(R)) < 1e-6 * ann.objective(R), (R, fd)
        # adjoint: boundary values and the ODE (k r P')' = 2 r T on each side
        assert abs(ann.adjoint(ann.a, R)) < 1e-9 and abs(ann.adjoint(ann.b, R)) < 1e-9
        for r0, k in ((0.5 * (ann.a + R), ann.k_in), (0.5 * (R + ann.b), ann.k_out)):
            e = 1e-4

            def flux(s):
                return k * s * (ann.adjoint(s + e, R) - ann.adjoint(s - e, R)) / (2 * e)

            lhs = (flux(r0 + e) - flux(r0 - e)) / (2 * e)
            assert abs(lhs - 2 * r0 * ann.temperature(r0, R)) < 1e-3 * abs(lhs), (lhs, r0)
    assert abs(plate_linear_field(-PLATE_HALF) - T_LEFT) < 1e-12
    assert abs(uncloaked_disturbance_scale() - 250.0 / 7.0) < 1e-12
    return r_star, j_star


if __name__ == "__main__":
    r, j = self_test()
    print(f"self-test passed: R* = {r:.6f}, J* = {j:.6e}")
