"""Exception types raised by the model and computation layers.

DelrankError and its subclasses mean the input is invalid.  InternalError
means an invariant of the computation failed: a bug, never bad input.
"""


class DelrankError(Exception):
    """Base class for all domain errors."""


class InputError(DelrankError):
    """Malformed or inconsistent input data (files, shapes, field values)."""


class TooFewVertices(DelrankError):
    """Fewer than dim + 1 vertices supplied."""


class DuplicateVertex(DelrankError):
    """Two vertices share the same coordinate vector."""


class DimensionDeficient(DelrankError):
    """Vertices do not affinely span the stated dimension."""


class NotPositiveDefinite(DelrankError):
    """A quadratic form fails the positive definiteness check."""


class NotCospherical(DelrankError):
    """Vertices do not lie on a common sphere for the given form."""


class SumNotZero(DelrankError):
    """Coefficient vector of a dependency must sum to zero."""


class SumNotOne(DelrankError):
    """Coefficient vector of a representation must sum to one."""


class WrongSize(DelrankError):
    """Subset or vector has the wrong cardinality or length."""


class AffinelyDependent(DelrankError):
    """Subset expected to be affinely independent is not."""


class InternalError(Exception):
    """An internal invariant failed; deliberately not a DelrankError."""
