"""Exception hierarchy shared by all tjdiv modules."""


class TjdivError(Exception):
    """Base class for every error raised by this package."""


class DomainError(TjdivError):
    """A point lies outside a generator's domain, or on a boundary
    where the requested quantity (gradient, second derivative) diverges.

    `row` is the index of the offending point when a stack of points
    was checked, else None."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class ValidationError(TjdivError):
    """Malformed arguments: bad shapes, bad parameter ranges, bad files."""


class CapabilityError(TjdivError):
    """The generator lacks an ingredient the operation needs
    (e.g. no inverse gradient, so fixed-point iteration is unavailable)."""


class SearchError(TjdivError):
    """A numerical search failed: no bracket, no sign change, no root."""


class InvariantError(TjdivError):
    """A computation broke a guarantee its theory gives, such as a
    re-assignment step raising the clustering potential."""
