"""Exception types shared across the package."""


class LoccForgeError(Exception):
    """Base class for all package errors."""


class InvalidOperatorError(LoccForgeError):
    """Input fails a structural requirement (a matrix not square or not
    Hermitian, empty input, repeated labels or party names)."""


class ZeroOperatorError(LoccForgeError):
    """An operation received a (numerically) zero operator it cannot handle."""


class DimMismatchError(LoccForgeError):
    """Operands live on different-dimensional spaces."""


class InfeasibleError(LoccForgeError):
    """A required linear system has no solution (e.g. no strictly positive weights)."""


class SimplexGuardError(LoccForgeError):
    """The LP kernel made more pivots than its iteration guard allows."""


class InvalidMeasurementError(LoccForgeError):
    """A measurement fails `validate`, and `diagnostics` holds them, the first
    as the message; or it is not complete, and `diagnostics` is empty."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])


class UnboundVariableError(LoccForgeError):
    """A tree label references a variable the assignment does not bind."""


class TreeStructureError(LoccForgeError):
    """A protocol tree violates a structural invariant."""


class SubsetTooSmallError(LoccForgeError):
    """A merge was requested on fewer than two trees."""


class LiftError(LoccForgeError):
    """Kraus lifting failed (missing Kraus data, inconsistent group, bad factorization)."""


class NoKrausDataError(LiftError):
    """The measurement carries no Kraus-level description to lift against."""


class FactorizationFailureError(LiftError):
    """The polar-type unitary factor could not be recovered within tolerance."""


class ParseError(LoccForgeError):
    """A malformed document; the message names the field. kind is "syntax"
    (bad JSON, a bad format tag, nesting too deep) or "shape" (anything else,
    a part not Hermitian or a name repeated included). A measurement that
    `validate` flags raises InvalidMeasurementError instead."""

    def __init__(self, message, kind="syntax"):
        super().__init__(message)
        self.kind = kind


class ConfigError(LoccForgeError):
    """Bad configuration file or option value."""
