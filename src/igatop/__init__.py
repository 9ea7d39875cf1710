"""Isogeometric level-set topology optimization for 2D heat manipulators.

The package solves steady heat conduction on multi-patch NURBS geometries
with conforming patches coupled by shared control points (or by Nitsche's
method with an absolute penalty on request), computes adjoint sensitivities of
cloak/camouflage-style objectives with respect to level-set expansion
coefficients, and drives a damped-BFGS SQP optimizer with Tikhonov and
volume regularization plus level-set reinitialization.
"""

from igatop.errors import (
    AssemblyError,
    ConfigError,
    DomainError,
    GeometryError,
    IgatopError,
    ModelError,
    NormalizationError,
    RefinementError,
    SolverError,
)

__all__ = [
    "IgatopError",
    "ConfigError",
    "DomainError",
    "GeometryError",
    "RefinementError",
    "ModelError",
    "NormalizationError",
    "AssemblyError",
    "SolverError",
]

__version__ = "0.1.0"
