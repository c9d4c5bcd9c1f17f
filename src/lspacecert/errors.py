"""Exception types shared across the package, and the one gate on a genus."""
from functools import lru_cache, wraps


class WorkbenchError(Exception):
    """Base class for all domain errors raised by this package."""


class GenusTooSmall(WorkbenchError):
    """The construction needs genus at least two."""


class SurfaceMismatch(WorkbenchError):
    """Two curves live on different surfaces."""


class NotSimple(WorkbenchError):
    """A crossing word admits no embedded realization."""


class Inessential(WorkbenchError):
    """A crossing word reduces to a point or to the boundary."""


class NegativePower(WorkbenchError):
    """A twisting power that must be nonnegative was negative."""


class MalformedInput(WorkbenchError):
    """An argument or a document has the wrong type or shape."""


def _check_int(name, value):
    # type, not isinstance: a bool is an int, and True must not pass as 1
    if type(value) is not int:
        raise MalformedInput(f"{name} must be an int, got {value!r}")


def _check_genus(g):
    """The one gate on a genus, run before any cache sees it: MalformedInput
    if it is not an int, GenusTooSmall if it is below 2."""
    _check_int("genus", g)
    if g < 2:
        raise GenusTooSmall(f"genus {g} < 2")


def _per_genus(build):
    """``build(g)``, kept per genus for the life of the process behind
    ``_check_genus``, which every genus passes first; a raise keeps nothing."""
    cached = lru_cache(maxsize=None)(build)

    @wraps(build)
    def kept(g):
        _check_genus(g)
        return cached(g)

    kept.cache_clear, kept.cache_info = cached.cache_clear, cached.cache_info
    return kept


class NotLSpaceForm(WorkbenchError):
    """A polynomial is not of the shape a staircase can produce."""


class AnchorViolation(WorkbenchError):
    """A recomputed fact disagrees with its pinned value.

    This is the self-consistency tripwire: any derivation that consumes a
    curve-level fact recomputes it, and aborts here on mismatch.
    """

    def __init__(self, fact, expected, got):
        self.fact = fact
        self.expected = expected
        self.got = got
        super().__init__(f"{fact}: expected {expected}, got {got}")


class WalkBoundExceeded(WorkbenchError):
    """A ray followed a periodic geodesic past the periodicity bound."""


class BudgetExceeded(WorkbenchError):
    """A direct computation was larger than the configured budget."""


class CoefficientBoundTooLarge(WorkbenchError):
    """A characteristic polynomial's coefficient bound is past every tabled prime."""


class ExprSyntaxError(WorkbenchError):
    """A curve expression failed to parse.

    Carries the byte offset of the failure and the set of tokens that
    would have been accepted there.
    """

    def __init__(self, offset, expected, found=None):
        self.offset = offset
        self.expected = tuple(expected)
        self.found = found
        what = repr(found) if found is not None else "end of input"
        exp = ", ".join(self.expected)
        super().__init__(f"at byte {offset}: found {what}, expected one of: {exp}")


class IndexOutOfRange(WorkbenchError):
    """A curve index in an expression exceeds the genus."""
