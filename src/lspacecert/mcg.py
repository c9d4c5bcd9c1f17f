"""The standard curve system, twisted monodromies, and homological actions.

The chain curves a_1, b_1, ..., a_g, b_g cross their cut arcs once each,
so they are the single-letter words in the arc-dual basis.  The extra
curve c bounds a neighborhood of a_g and b_{g-1}, which makes its word
the commutator of those two letters.  Every pinned property of the
system (the chain intersection pattern and the signs of its adjacent
crossings, the four crossings of c, its null homology) is recomputed at
construction time and any mismatch aborts with AnchorViolation.  The
chain signs fix the intersection pairing of the chain basis, so the
homology layer reads that form off the checked system.
"""
from dataclasses import dataclass
from functools import lru_cache

from .curves import (
    Curve,
    algebraic_intersection_number,
    crossing_count,
    dehn_twist,
    homology_class,
    intersection_number,
    oriented_class,
)
from .errors import AnchorViolation, GenusTooSmall, NegativePower
from .poly import _mat_mul, charpoly
from .surface import standard_surface


def _c_word(g):
    """Crossing word of the boundary of a neighborhood of a_g and b_{g-1}."""
    ag, bg1 = 2 * g - 1, 2 * g - 2
    return (ag, bg1, -ag, -bg1)


@dataclass(frozen=True)
class StandardCurveSystem:
    """The chain curves and the nullhomologous curve c on genus g."""

    surface: object
    alphas: tuple
    betas: tuple
    c: Curve

    def chain(self):
        """The 2g chain curves in order a_1, b_1, a_2, ..., b_g."""
        out = []
        for a, b in zip(self.alphas, self.betas):
            out.extend((a, b))
        return tuple(out)

    def named(self):
        pairs = [(f"a{i + 1}", a) for i, a in enumerate(self.alphas)]
        pairs += [(f"b{i + 1}", b) for i, b in enumerate(self.betas)]
        pairs.append(("c", self.c))
        return pairs


def _require(fact, expected, got):
    if expected != got:
        raise AnchorViolation(fact, expected, got)


@lru_cache(maxsize=None)
def standard_curve_system(g):
    """Build and validate the standard system on the genus-g surface."""
    if g < 2:
        raise GenusTooSmall(f"genus {g} < 2; the curve c needs a_g and b_{{g-1}}")
    surface = standard_surface(g)
    alphas = tuple(Curve(surface, (2 * i - 1,)) for i in range(1, g + 1))
    betas = tuple(Curve(surface, (2 * i,)) for i in range(1, g + 1))
    c = Curve(surface, _c_word(g))
    system = StandardCurveSystem(surface, alphas, betas, c)

    chain = system.chain()
    for i, x in enumerate(chain):
        for j in range(i + 1, 2 * g):
            iota, pairing = crossing_count(x, chain[j])
            _require(f"iota(chain_{i + 1}, chain_{j + 1})", int(j == i + 1), iota)
            if j == i + 1:
                # consecutive chain curves cross once positively, in this order
                _require(f"pairing(chain_{i + 1}, chain_{j + 1})", 1, pairing)
                _require(f"pairing(chain_{j + 1}, chain_{i + 1})", -1,
                         algebraic_intersection_number(chain[j], x))
    for name, x in system.named()[:-1]:
        want = 2 if name in (f"b{g}", f"a{g - 1}") else 0
        _require(f"iota(c, {name})", want, intersection_number(c, x))
    _require("homology(c)", tuple([0] * (2 * g)), homology_class(c))
    return system


@dataclass(frozen=True)
class TwistWord:
    """An ordered product of twist powers, outermost factor first."""

    factors: tuple

    def __post_init__(self):
        cleaned = tuple((c, p) for c, p in self.factors if p != 0)
        surfaces = {c.surface for c, _ in cleaned}
        if len(surfaces) > 1:
            raise ValueError("twist word mixes curves from different surfaces")
        object.__setattr__(self, "factors", cleaned)

    def __mul__(self, other):
        return TwistWord(self.factors + other.factors)

    def __len__(self):
        return len(self.factors)


def beta_gn(g, n):
    """The twisted curve obtained from b_g by n positive twists about c."""
    if n < 0:
        raise NegativePower(f"twist count n = {n} must be nonnegative")
    system = standard_curve_system(g)
    return dehn_twist(system.betas[-1], system.c, n)


def monodromy_phi(g, n):
    """The 2g-factor monodromy of the n-twisted fibred knot: T(B[g,n]) psi."""
    return TwistWord(((beta_gn(g, n), 1),)) * monodromy_psi(g)


def monodromy_psi(g):
    """The base monodromy: phi with the outermost twisted factor removed."""
    system = standard_curve_system(g)
    factors = [(b, 1) for b in reversed(system.betas[:-1])]
    factors += [(a, 1) for a in reversed(system.alphas)]
    return TwistWord(tuple(factors))


def apply_word(word, curve):
    """Image of a curve under a twist word, innermost factor first.

    Factors disjoint from the running curve act trivially and are skipped
    inside dehn_twist, so the common case of a word touching only part of
    the surface stays cheap.
    """
    out = curve
    for about, power in reversed(word.factors):
        out = dehn_twist(out, about, power)
    return out


# ---------------------------------------------------------------------------
# homology

def symplectic_form(g):
    """Intersection pairing of the chain basis classes.

    Consecutive chain curves cross once positively with the stored
    orientations, so J[k][k+1] = 1 and J[k+1][k] = -1.  No walk runs here:
    ``standard_curve_system`` has checked every nonzero entry against the
    kernel's signed counts in both orders, and each zero above the
    diagonal comes from the walk that shows the two curves disjoint.  The
    zeros below it rest on the kernel's symmetry, which the tests pin.
    """
    standard_curve_system(g)
    n = 2 * g
    return tuple(
        tuple(1 if s == r + 1 else -1 if s == r - 1 else 0 for s in range(n))
        for r in range(n)
    )


def homology_action(word):
    """Integer matrix of the word's action on first homology, as row tuples.

    Factors multiply in word order.  Each is the transvection
    x -> x + p <x, gamma> gamma, applied to the running product as the
    rank-one update M <- M + p (M gamma)(J gamma)^T.  gamma and J gamma
    are kept as their nonzero (index, value) pairs, so a factor costs
    O(n (|gamma| + |J gamma|)).  The pairing M^T J M = J is checked once,
    on the result.
    """
    if not word.factors:
        raise ValueError("empty twist word has no surface attached")
    g = word.factors[0][0].surface.genus
    n = 2 * g
    j = symplectic_form(g)
    m = [[1 if r == s else 0 for s in range(n)] for r in range(n)]
    for curve, power in word.factors:
        gamma = [(k, x) for k, x in enumerate(oriented_class(curve.word, n)) if x]
        jg = [sum(jrow[k] * x for k, x in gamma) for jrow in j]
        jg = [(s, v) for s, v in enumerate(jg) if v]
        for row in m:
            mg = power * sum(row[k] * x for k, x in gamma)
            if mg:
                for s, v in jg:
                    row[s] += mg * v
    action = tuple(map(tuple, m))
    mtjm = tuple(map(tuple, _mat_mul(tuple(zip(*action)), _mat_mul(j, action))))
    if mtjm != j:
        raise AnchorViolation("pairing(M^T J M)", j, mtjm)
    return action


def alexander_polynomial(word):
    """det(t I - M) of the homological action, top coefficient +1.

    For the monodromy of a fibred knot this is its Alexander polynomial,
    normalized to lowest exponent zero.  Its top coefficient is +1 with
    no sign fix: det(t I - M) is monic, since the Faddeev-LeVerrier
    scheme in ``charpoly`` starts from c_n = 1.
    """
    poly = charpoly(homology_action(word))
    return poly.shifted(-poly.min_exp)

