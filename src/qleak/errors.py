"""Exception types shared across the package."""


class QleakError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(QleakError, ValueError):
    """Operands have incompatible shapes or subsystem dimensions."""


class ValidationError(QleakError, ValueError):
    """An input violates a type invariant (Hermiticity, positivity, normalization)."""


class EigenSolverError(QleakError, RuntimeError):
    """The eigensolver failed, or its output failed the reconstruction check."""


class LpSolverError(QleakError, RuntimeError):
    """The linear-programming core returned an unusable status."""


class ChainViolationError(QleakError, RuntimeError):
    """A certified inequality between leakage quantities failed beyond tolerance."""


class UnsupportedModeError(QleakError, ValueError):
    """A requested analysis mode is recognised but not implemented."""
