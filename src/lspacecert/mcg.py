"""The standard curve system, twisted monodromies, and homological actions.

The chain curves a_1, b_1, ..., a_g, b_g cross their cut arcs once each,
so they are the single-letter words in the arc-dual basis.  The extra
curve c bounds a neighborhood of a_g and b_{g-1}, which makes its word
the commutator of those two letters.  Every pinned property of the
system (the chain intersection pattern and the signs of its adjacent
crossings, the four crossings of c, its null homology) is recomputed at
construction time and any mismatch aborts with AnchorViolation.  The
disjoint chain pairs are checked by one merged walk per chain curve, so
construction takes 10g - 3 kernel walks.  The chain signs fix the
intersection pairing of the chain basis, so the homology layer reads
that form off the checked system.  Every matrix of the homology layer,
J, the action and what ``charpoly`` takes, is a list of 2g sparse rows,
each a dict column -> nonzero int.
"""
from .curves import (
    Curve,
    _merged_crossing_count,
    _word_class,
    algebraic_intersection_number,
    crossing_count,
    dehn_twist,
    homology_class,
    intersection_number,
)
from .errors import (
    AnchorViolation,
    MalformedInput,
    NegativePower,
    SurfaceMismatch,
    _check_int,
    _per_genus,
)
from .poly import _mat_mul, charpoly
from .record import record
from .surface import standard_surface


def _c_word(g):
    """Crossing word of the boundary of a neighborhood of a_g and b_{g-1}."""
    ag, bg1 = 2 * g - 1, 2 * g - 2
    return (ag, bg1, -ag, -bg1)


class StandardCurveSystem(record("StandardCurveSystem", "surface alphas betas c")):
    """The chain curves and the nullhomologous curve c on genus g."""

    __slots__ = ()

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


@_per_genus
def standard_curve_system(g):
    """The standard system on the genus-g surface, built and validated.

    Each pair of consecutive chain curves must cross once, positively in
    chain order, which three walks check.  Every other pair must be
    disjoint: chain curve i is counted once against the merged corner
    classes of chain curves i + 2, ..., 2g, which the walk from the top
    down collects.  The chain curves are one-letter words with distinct
    letters, so their corner classes are disjoint, no ray coasts, and the
    merged count is the sum of the pairwise ones.  The counts of c against
    the chain curves and its null homology are checked one by one.  That
    is 10g - 3 kernel walks in all, with the self-counts of validation.
    """
    surface = standard_surface(g)
    alphas = tuple(Curve(surface, (2 * i - 1,)) for i in range(1, g + 1))
    betas = tuple(Curve(surface, (2 * i,)) for i in range(1, g + 1))
    c = Curve(surface, _c_word(g))
    system = StandardCurveSystem(surface, alphas, betas, c)

    chain = system.chain()
    for i, (x, y) in enumerate(zip(chain, chain[1:]), 1):
        # consecutive chain curves cross once positively, in this order
        iota, pairing = crossing_count(x, y)
        _require(f"iota(chain_{i}, chain_{i + 1})", 1, iota)
        _require(f"pairing(chain_{i}, chain_{i + 1})", 1, pairing)
        _require(f"pairing(chain_{i + 1}, chain_{i})", -1,
                 algebraic_intersection_number(y, x))
    later = {}  # corner classes of chain curves i + 3, ..., 2g (1-based)
    for i in range(2 * g - 3, -1, -1):
        for corner, ts in chain[i + 2]._kept_corners.items():
            later.setdefault(corner, []).extend(ts)
        span = f"chain_{i + 3}" + (f"..chain_{2 * g}" if i + 3 < 2 * g else "")
        _require(f"iota(chain_{i + 1}, {span})", 0,
                 _merged_crossing_count(chain[i], later))
    for name, x in system.named()[:-1]:
        want = 2 if name in (f"b{g}", f"a{g - 1}") else 0
        _require(f"iota(c, {name})", want, intersection_number(c, x))
    _require("homology(c)", tuple([0] * (2 * g)), homology_class(c))
    return system


class TwistWord(record("TwistWord", "factors")):
    """An ordered product of twist powers, outermost factor first.

    Factors of power zero are dropped; ``len`` is the number of factors
    left and ``*`` concatenates.
    """

    __slots__ = ()

    def __new__(cls, factors):
        cleaned = tuple((c, p) for c, p in factors if p != 0)
        surfaces = {c.surface for c, _ in cleaned}
        if len(surfaces) > 1:
            raise SurfaceMismatch("twist word mixes curves from different surfaces")
        return tuple.__new__(cls, (cleaned,))

    def __mul__(self, other):
        return TwistWord(self.factors + other.factors)

    def __len__(self):
        return len(self.factors)


def beta_gn(g, n):
    """The twisted curve obtained from b_g by n positive twists about c."""
    _check_int("n", n)
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
    """Intersection pairing of the chain basis classes, as sparse rows.

    Consecutive chain curves cross once positively with the stored
    orientations, so J[k][k+1] = 1 and J[k+1][k] = -1, and row k is the
    dict {k - 1: -1, k + 1: 1} cut to the 2g columns.  No walk runs here:
    ``standard_curve_system`` has checked every nonzero entry against the
    kernel's signed counts in both orders, and each zero above the
    diagonal comes from the merged walk that shows chain curve k disjoint
    from every chain curve past k + 1.  The zeros below it rest on the
    kernel's symmetry, which the tests pin.
    """
    standard_curve_system(g)
    n = 2 * g
    return [{s: x for s, x in ((r - 1, -1), (r + 1, 1)) if 0 <= s < n} for r in range(n)]


def homology_action(word):
    """Integer matrix of the word's action on first homology, as n sparse
    rows: row r is a dict column -> nonzero entry.

    Factors multiply in word order.  Each is the transvection
    x -> x + p <x, gamma> gamma, applied to the running product as the
    rank-one update M <- M + p (M gamma)(J gamma)^T.  M is kept as its
    columns, each a dict row -> nonzero entry, and gamma is the curve's
    ``_word_class``.  M gamma = sum gamma_k col_k and
    J gamma = sum gamma_k (column k of J), and only the columns s with
    (J gamma)_s != 0 change, each by p (J gamma)_s (M gamma), so a factor
    costs O(|gamma| nnz(col) + |J gamma| nnz(M gamma)), not O(n).  Entries
    that cancel are dropped.  The pairing M^T J M = J is checked once, on
    the result, as a product of sparse rows, which are what it returns.

    Raises MalformedInput for a word with no factors, which names no
    surface.
    """
    if not word.factors:
        raise MalformedInput("homology_action: an empty twist word has no surface")
    g = word.factors[0][0].surface.genus
    n = 2 * g
    j = symplectic_form(g)
    j_cols = _transpose(j, n)
    cols = [{k: 1} for k in range(n)]
    for curve, power in word.factors:
        m_gamma, j_gamma = {}, {}
        for k, x in _word_class(curve.word).items():
            for r, v in cols[k].items():
                m_gamma[r] = m_gamma.get(r, 0) + x * v
            for s, v in j_cols[k].items():
                j_gamma[s] = j_gamma.get(s, 0) + x * v
        m_gamma = [(r, v) for r, v in m_gamma.items() if v]
        for s, y in j_gamma.items():
            if y:
                col, c = cols[s], power * y
                for r, v in m_gamma:
                    z = col.get(r, 0) + c * v
                    if z:
                        col[r] = z
                    else:
                        del col[r]
    rows = _transpose(cols, n)
    mtjm = _mat_mul(cols, _mat_mul(j, rows))
    if mtjm != j:
        raise AnchorViolation("pairing(M^T J M)", j, mtjm)
    return rows


def _transpose(rows, n):
    """The n sparse columns of a matrix given as sparse rows."""
    cols = [{} for _ in range(n)]
    for r, row in enumerate(rows):
        for s, x in row.items():
            cols[s][r] = x
    return cols


def alexander_polynomial(word):
    """det(t I - M) of the homological action, top coefficient +1.

    For the monodromy of a fibred knot this is its Alexander polynomial,
    normalized to lowest exponent zero.  Its top coefficient is +1 with
    no sign fix: det(t I - M) is monic, since the Hessenberg recurrence
    in ``charpoly`` starts from p_0 = 1 and each step multiplies the last
    polynomial by t - h_mm.
    """
    poly = charpoly(homology_action(word))
    return poly.shifted(-poly.min_exp)

