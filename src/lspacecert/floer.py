"""Rank-level Floer calculus.

Nothing here touches a chain complex.  The module knows three things:
the rank of HF of a pair of curves (two for isotopic pairs, the
geometric intersection number otherwise), how ranks propagate through an
exact triangle of vector spaces over a field, and the staircase shape
forced on the knot Floer homology of a knot with a positive L-space
surgery.  Ranks of unknown groups are tracked as integer intervals since
exactness only ever yields inequalities.
"""
import enum

from .curves import intersection_number, is_isotopic
from .errors import MalformedInput, NotLSpaceForm
from .poly import LaurentPoly
from .record import record


class RankInterval(record("RankInterval", "lo hi")):
    """Integer interval [lo, hi]; hi = None means unbounded above.

    A negative lo or an empty interval raises MalformedInput.
    """

    __slots__ = ()

    def __new__(cls, lo, hi=None):
        if lo < 0:
            raise MalformedInput("ranks are nonnegative")
        if hi is not None and hi < lo:
            raise MalformedInput(f"empty interval [{lo}, {hi}]")
        return tuple.__new__(cls, (lo, hi))

    @staticmethod
    def exactly(v):
        return RankInterval(v, v)

    def contains(self, v):
        return self.lo <= v and (self.hi is None or v <= self.hi)

    def __str__(self):
        top = "inf" if self.hi is None else str(self.hi)
        return f"[{self.lo}, {top}]"


def hf_rank(a, b):
    """Rank of the Floer group of a pair of essential curves.

    Isotopic pairs contribute rank two; otherwise the rank equals the
    geometric intersection number.  The two cases are deliberately kept
    apart from intersection_number, which takes the value zero on
    isotopic pairs.
    """
    if is_isotopic(a, b):
        return 2
    return intersection_number(a, b)


def triangle_propagate(a, c):
    """Bound one corner of an exact triangle from the other two.

    For vector spaces over a field in an exact triangle A -> B -> C -> A,
    rank B lies between |rank A - rank C| and rank A + rank C, and these
    are the sharpest bounds exactness alone can give.  Interval inputs
    propagate monotonically and symmetrically.
    """
    lo = max(0, _sub(a.lo, c.hi), _sub(c.lo, a.hi))
    hi = None if a.hi is None or c.hi is None else a.hi + c.hi
    return RankInterval(lo, hi)


def tensor_rank(a, c):
    """Rank interval of a tensor product of two spaces with known bounds."""
    lo = a.lo * c.lo
    if a.hi == 0 or c.hi == 0:
        return RankInterval(0, 0)
    hi = None if a.hi is None or c.hi is None else a.hi * c.hi
    return RankInterval(lo, hi)


def _sub(lo, hi):
    """lo - hi where hi may be unbounded."""
    if hi is None:
        return 0
    return lo - hi


# ---------------------------------------------------------------------------
# staircases

class Staircase(record("Staircase", "ns deltas")):
    """Support of the knot Floer homology of an L-space knot.

    ns are the nonnegative Alexander gradings carrying rank, starting at
    zero; deltas are the Maslov levels, fixed by the step widths through
    a descending recursion that ends at zero on the top step.  Any other
    pair raises MalformedInput.
    """

    __slots__ = ()

    def __new__(cls, ns, deltas):
        if len(ns) != len(deltas):
            raise MalformedInput("ns and deltas must have equal length")
        if not ns or ns[0] != 0:
            raise MalformedInput("staircase must start at grading 0")
        if any(ns[i] >= ns[i + 1] for i in range(len(ns) - 1)):
            raise MalformedInput("staircase gradings must increase strictly")
        if deltas != _delta_recursion(ns):
            raise MalformedInput("Maslov levels do not satisfy the step recursion")
        return tuple.__new__(cls, (ns, deltas))

    @property
    def genus(self):
        return self.ns[-1]


def _delta_recursion(ns):
    """Maslov levels from the gradings: 0 on top, then working down,
    subtract 2(n_{i+1} - n_i) - 1 at odd distance from the top and 1 at
    even positive distance."""
    k = len(ns) - 1
    deltas = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        if (k - i) % 2 == 1:
            deltas[i] = deltas[i + 1] - 2 * (ns[i + 1] - ns[i]) + 1
        else:
            deltas[i] = deltas[i + 1] - 1
    return tuple(deltas)


def staircase_from_alexander(poly):
    """Read the staircase off an Alexander polynomial in L-space form.

    The polynomial must be palindromic with all coefficients in
    {-1, 0, +1}, alternating signs along its nonzero coefficients, a
    nonzero central coefficient, and a positive top coefficient.  Any
    violation raises NotLSpaceForm naming the failed condition, and an
    argument that is not a LaurentPoly raises MalformedInput.
    """
    if not isinstance(poly, LaurentPoly):
        raise MalformedInput(f"expected a LaurentPoly, got {type(poly).__name__}")
    if poly.is_zero():
        raise NotLSpaceForm("polynomial is zero")
    if not poly.is_palindromic():
        raise NotLSpaceForm("polynomial is not palindromic")
    centered = poly.centered()
    if centered is None:
        raise NotLSpaceForm("exponent span is odd, cannot center")
    if any(c not in (-1, 1) for _, c in centered.coeffs):
        raise NotLSpaceForm("coefficients must be -1, 0 or +1")
    if centered.coefficient(0) == 0:
        raise NotLSpaceForm("central coefficient vanishes")
    desc = sorted(centered.coeffs, reverse=True)
    for (_, c1), (_, c2) in zip(desc, desc[1:]):
        if c1 * c2 != -1:
            raise NotLSpaceForm("nonzero coefficients do not alternate in sign")
    if desc[0][1] != 1:
        raise NotLSpaceForm("top coefficient must be +1")
    ns = tuple(e for e, _ in centered.coeffs if e >= 0)
    return Staircase(ns, _delta_recursion(ns))


class HfkProfile(record("HfkProfile", "support")):
    """The rank-one support of a staircase, with its Maslov levels.

    support maps each grading +-n_i to delta_i, the Maslov level of that
    generator; every other grading has rank zero.  The profile holds one
    entry per generator, however large the gradings are.  Its field is a
    dict, so a profile has no hash.
    """

    __slots__ = ()

    def rank_at(self, j):
        return 1 if j in self.support else 0

    @property
    def total_rank(self):
        return len(self.support)


def lspace_profile(stair):
    """The knot Floer ranks of the staircase model: one at each +-n_i.

    Total rank is 2k + 1: one for each of +-n_1, ..., +-n_k and one for
    the central grading.
    """
    return HfkProfile({j: d for n, d in zip(stair.ns, stair.deltas) for j in (n, -n)})


# ---------------------------------------------------------------------------
# the obstruction

class Verdict(enum.Enum):
    OBSTRUCTION_FOUND = "obstruction_found"
    INCONCLUSIVE = "inconclusive"


def lspace_obstruction(rank_lower_bound):
    """Compare a proved rank bound against the staircase cap.

    A staircase never carries rank above one in any grading, so a lower
    bound exceeding one at any grading rules out a positive L-space
    surgery.  A bound of one or less (including vacuous negative bounds)
    decides nothing.
    """
    if rank_lower_bound > 1:
        return Verdict.OBSTRUCTION_FOUND
    return Verdict.INCONCLUSIVE
