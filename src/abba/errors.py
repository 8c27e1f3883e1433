"""Exception and warning types shared across the package."""


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


class BackendError(ValueError):
    """Operation not available for, or mixed across, scalar backends."""


class HypothesisViolation(ValueError):
    """An input does not satisfy the structural hypothesis an operation requires."""


class IntertwinerNotFound(RuntimeError):
    """Random intertwiner search exhausted its retry budget."""


class MatrixFormatError(ValueError):
    """A matrix file or JSON document does not conform to the interchange format."""


class ToleranceWarning(UserWarning):
    """A float-backend tolerance warning.  Nothing in abba raises it any more; it
    stays public, and the benchmark tracer (bench/tracing.py) reads it."""
