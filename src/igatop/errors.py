"""Exception hierarchy shared by all modules."""


class IgatopError(Exception):
    """Base class for all package errors."""


class ConfigError(IgatopError):
    """Invalid run configuration or model construction arguments."""


class NormalizationError(ConfigError):
    """An objective's normalization degenerates: the insulator does not disturb the field."""


class DomainError(IgatopError):
    """Parameter or physical point outside the valid domain."""


class GeometryError(IgatopError):
    """Degenerate geometry, e.g. non-positive Jacobian determinant."""


class RefinementError(IgatopError):
    """Invalid knot insertion or degree elevation request."""


class ModelError(IgatopError):
    """Inconsistent multi-patch model, e.g. mismatched interface nets."""


class AssemblyError(IgatopError):
    """Failure while assembling a linear system (e.g. singular mass matrix)."""


class SolverError(IgatopError):
    """Linear solver failure, typically a singular stiffness matrix."""
