"""Exception and warning types shared across the package.

A library caller can act on two kinds of error: malformed input
(ShapeMismatchError) and a numerically degenerate matrix
(SingularMatrixError). The other classes exist because psdk itself
catches them by name.
"""


class PsdkError(Exception):
    """Base class for all errors raised by psdk.

    The CLI catches it to exit with status 2 (numerical failure); the
    experiment runner catches it to prefix the failing job's grid point.
    """


class ShapeMismatchError(PsdkError):
    """Malformed array input.

    Covers incompatible or invalid shapes, empty collections, non-finite
    entries, matrices that are not symmetric within tolerance, index sets
    that do not fit their operands, and a factor and eigenpair that do not
    describe one matrix. Raised for library callers; psdk does not catch it.
    """


class SingularMatrixError(PsdkError):
    """A numerically degenerate matrix.

    Covers rank-deficient matrices, a numerically zero eigengap, and
    eigenvalues that are not positive (or not nonnegative) where the
    operation requires it. Raised for library callers; psdk does not catch
    it.
    """


class NotInManifoldError(PsdkError):
    """A matrix or factor is not a chart point.

    Covers a failed rank-K / anchored-block membership test, a nonpositive
    entry on a factor's anchored diagonal, and a frame for which no row
    choice yields a nonsingular anchor block. The experiments' Karcher
    retry/skip policy catches it.
    """


class InsufficientPointsError(PsdkError):
    """Too few points for the requested fit; the experiment summaries catch
    it and report the slope as unavailable."""


class ConfigError(PsdkError):
    """Invalid experiment configuration (bad key, value, or combination);
    the CLI catches it to exit with status 1."""


class ZeroGapWarning(UserWarning):
    """Aggregation proceeded although the relevant eigengap is ~ 0."""
