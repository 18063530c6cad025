"""Exception hierarchy shared by all modules."""


class ComplicialError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidInput(ComplicialError):
    """A precondition on an operation's arguments was violated."""


class IdentityViolation(ComplicialError):
    """A simplicial identity fails somewhere in the given tables."""


class DanglingReference(ComplicialError):
    """A face or degeneracy table entry points at a nonexistent simplex."""


class IndexOutOfRange(ComplicialError):
    """A face/degeneracy operator index is outside 0..dim."""


class CapExceeded(ComplicialError):
    """The requested simplex would live above the dimension cap."""


class CapTooSmall(ComplicialError):
    """The dimension cap is too small for the requested construction."""


class NotWellDefined(ComplicialError):
    """Generator assignments do not extend to a simplicial map."""


class ThinVertex(ComplicialError):
    """A 0-simplex was marked thin, violating the stratification axiom."""


class ThinnessViolation(ComplicialError):
    """A map sends some thin simplex to a non-thin simplex."""


class KOutOfRange(ComplicialError):
    """The complicial index k lies outside [n]."""


class BoundExceedsCap(ComplicialError):
    """A verification bound exceeds the complex's dimension cap."""


class BoundaryMismatch(ComplicialError):
    """Face assignments for a horn have incompatible boundaries."""


class NoFiller(ComplicialError):
    """A required horn filler does not exist in the target complex."""


class NotQuasiCategory(ComplicialError):
    """An inner horn of the input has no filler; carries the witness."""


class NotKan(ComplicialError):
    """A simplicial horn of the input has no filler; carries the witness."""
