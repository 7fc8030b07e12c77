"""Exception hierarchy for the constraint solver."""


class SolverError(Exception):
    """Base class for all solver errors."""


class ValidationError(SolverError):
    """A run setting violates a validation rule (a config error, exit 1)."""


class DeltaOutOfRange(ValidationError):
    """Weight exponent delta outside the admissible interval (-1, 0)."""


class InvalidResolution(ValidationError):
    """Grid resolution too low to represent the required angular/radial content."""


class UnresolvedSpec(ValidationError):
    """An analytic bump is too narrow for the radial grid near its center."""


class GridMismatch(SolverError):
    """Operands live on different grids."""


class UnsupportedOrder(SolverError):
    """Weighted Sobolev norm requested beyond the supported derivative order."""


class SingularSystem(SolverError):
    """A radial boundary-value factorization failed."""


class NonDecayingRHS(SolverError):
    """Right-hand side mode-0 tail decays too slowly for the planar inversion."""


class NearSingularSelection(SolverError):
    """The 2x2 system fixing (rho, eta) is numerically singular (data too large)."""


class DivergenceDetected(SolverError):
    """Fixed-point iterate left the admissible ball."""


class NoConvergence(SolverError):
    """Fixed-point iteration exhausted max_iter without meeting tolerance."""


class EpsilonTooLarge(SolverError):
    """Seed smallness measure exceeds the configured threshold."""


class DegenerateCone(SolverError):
    """Deficit parameter alpha >= 1: the asymptotic cone degenerates."""


class ParseError(SolverError):
    """Configuration text could not be parsed; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
