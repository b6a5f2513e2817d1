"""Exception types shared across the library.

Each class corresponds to one failure mode of the numerical contracts;
callers that probe feasibility (weight solvers, hypothesis checks) catch
these instead of parsing message strings.
"""


class IsozonoidError(Exception):
    """Base class for all library errors."""


class NotIsotropicError(IsozonoidError):
    """A measure violates the isotropy precondition at the given tolerance."""


class DegenerateMeasureError(IsozonoidError):
    """Support of the measure lies in a proper linear subspace."""


class InfeasibleWeightsError(IsozonoidError):
    """No nonnegative weights make the direction set isotropic."""


class MassMismatchError(IsozonoidError):
    """Transport endpoints carry different total mass."""


class EmptySetError(IsozonoidError):
    """A point-set argument is empty."""


class HypothesisFailedError(IsozonoidError):
    """A stated hypothesis of a checked inequality fails for the data."""


class BoundViolationError(IsozonoidError):
    """A verified bound fails; carries a witness point."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PreconditionViolatedError(IsozonoidError):
    """An operation precondition fails."""


class UnboundedBodyError(IsozonoidError):
    """A halfspace representation describes an unbounded set."""


class DimensionUnsupportedError(IsozonoidError):
    """The exact path does not support this dimension."""


class CombinatorialBudgetError(IsozonoidError):
    """Subset enumeration would exceed the desk-scale budget."""


class KTooSmallError(IsozonoidError):
    """Stability functional needs at least n+1 vectors."""


class NoContactsError(IsozonoidError):
    """No touching directions found after John normalization."""
