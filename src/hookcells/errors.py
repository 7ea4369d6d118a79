"""Domain exceptions.

Every error raised on bad input derives from :class:`HookcellsError`, so the
CLI can map any domain failure to exit code 1 and print the class name.
"""


class HookcellsError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidT(HookcellsError):
    """Sequence is not an admissible Hilbert function."""


class NotFound(HookcellsError):
    """A hook code does not fit the boxes of its Hilbert function: bad input."""


class DegenerateBasis(HookcellsError):
    """Rows passed as a basis are linearly dependent."""


class InconsistentParams(HookcellsError):
    """Cell parameters do not match the pair set, or the solver failed."""


class NotAnIdeal(HookcellsError):
    """Degreewise pieces are not closed under multiplication by linear forms."""


class NotInBigCell(HookcellsError):
    """Operation requires an ideal whose initial ideal is the dense cell."""


class BoxMismatch(HookcellsError):
    """Schubert classes live in different ambient boxes."""


class DimensionMismatch(HookcellsError):
    """Ramification conditions have inconsistent dimensions."""


class MalformedE(HookcellsError):
    """A monomial vector space description is malformed."""


class ShapeMismatch(HookcellsError):
    """Ring elements belong to different (mu, j) rings."""


class OutOfRange(HookcellsError):
    """An index is outside its allowed range."""


class ZeroForm(HookcellsError):
    """The zero form was passed where a nonzero form is required."""


class InputFileError(HookcellsError):
    """An input file is missing, unreadable or not valid JSON."""


class InternalError(HookcellsError):
    """An internal invariant failed: two exact computations that must agree
    did not.  This is a bug in the package, never a property of the input."""
