"""Exact simple closed curves on the cut-open surface.

A curve is stored as a reduced cyclic word of signed arc crossings.  Since
the complement of the cut system is a disk, the crossing word determines
the free homotopy class, and for embedded curves free homotopy classes
and isotopy classes agree.  Cyclic reduction therefore is normalization:
a cancelling adjacent pair x x^-1 is exactly an innermost return bigon
against a cut arc, and the reduced word is the shortest representative.

Intersection numbers, crossing signs and twist surgery are computed on
the dual tree of the cut system in the universal cover.  Vertices of the
tree are lifts of the disk, the 4g edge germs at each vertex appear in
the cyclic order given by the surface's ``boundary_order``, and a curve
lifts to a family of bi-infinite geodesics (axes).  Two lifts cross if
and only if they leave a common vertex on opposite sides, which turns
minimal-position intersection counts into finite walks along periodic
words.  No reduction order ever has to be chosen; the counts returned
are minimal by construction, which is the bigon criterion in this model.

A ray is a position in a cyclic word, and running backward along a word
is running forward along its inverse.  One walk, ``_crossing_blocks``,
decides the lifts of one curve through the axis of another a pair of
corner classes at a time.  A ray that branches off the axis at once is
placed by where its first letter sits between the axis's two germs.  A
ray that runs along the axis is left to turn codes: the code of position
i of a word w is ``(pos[w[i]] - pos[-w[i-1]]) % 4g``, and a ray leaves
on the positive side exactly when its codes are lexicographically
greater than the axis's, which is the cyclic order of ends in the dual
tree.  One decider, ``_coasting_blocks``, compares the turn codes of
coasting rays a bucket at a time.  The walk yields blocks of lifts that
all cross alike.

Every form of the crossing kernel reads those blocks.  The count form
``_crossing_count`` counts each block by one product; the list form
``_crossings``, which only twist surgery needs, expands them.  Where no
ray coasts, the walk can read the union of several curves' corner
classes: ``_merged_crossing_count`` gives their summed number at once.

A ``Curve`` is built from its reduced word alone; its normal form, its
corner classes, the turn codes of its word and of its inverse, and its
memo ``_kept`` are cached properties, computed on first read and kept.
One builder, ``_word_tables``, makes the corner classes and turn codes
together, and fills the stretches of a word that repeat one period (a
twist's copies of the curve it twists about) a period at a time.  Every
count of one curve and every twist about it reads the same kept fields,
and validation runs its self-count on the curve it returns.
Reduced words of isotopic curves have equal length, so isotopy tests and
equality run Booth's algorithm only on curves of equal length.

A twist T^k(t) about u keeps (t, u, k).  From a power p0 that depends on
the lengths of t, u and a partner alone, its counts against that partner
are affine in |k|, since each further power adds one period deep inside
every inserted run (a window bound, Fine and Wilf 1965).  So from |k| =
p0 on ``crossing_count`` reads them off the twists at p0 and p0 + 1;
T^k(t) keeps the last such pair, and the partner its counts against them.

Twist surgery is a plan and its assembly.  The plan of a pair (t, u) is
one (slot, eps, phase) per crossing, read off their crossing order: where
t's word is cut, the sign of the crossing and the letter of u's word the
inserted copies start at.  It does not depend on the power, so t keeps
it, and every twist of t about u assembles its word from the kept plan;
the twists B[g,n] of b_g about c for every n list the crossings of that
pair once.  The slot check runs when a plan is built, and a plan that
fails it is not kept.  t keeps its plans and a partner its counts in
one memo (see ``Curve``), and no key holds the walk margin.

The homology class of a word is one dict from arc index to nonzero
signed count, ``_word_class``; ``homology_class`` and the homology layer
in ``mcg`` both read it.
"""
import operator
from collections import namedtuple
from functools import cached_property

from .errors import (
    AnchorViolation,
    BudgetExceeded,
    Inessential,
    MalformedInput,
    NotSimple,
    SurfaceMismatch,
    WalkBoundExceeded,
    _check_int,
)

# distinct periodic rays part within p + q steps, and crossing ends within q + 1 codes
_DEFAULT_WALK_MARGIN = 8
_WALK_MARGIN = _DEFAULT_WALK_MARGIN
# no twist builds a word of more letters: about 1.6 GB at 33 bytes a letter
_MAX_LETTERS = 5 * 10**7


# ---------------------------------------------------------------------------
# words

def _reduced_product(pieces):
    """The freely and cyclically reduced product of freely reduced pieces.

    Nothing cancels inside a piece, so each piece is joined by one walk at
    its seam: its head cancels the end of the product letter by letter,
    and the rest of the piece goes on at once.
    """
    out = []
    for piece in pieces:
        k = 0
        while k < len(piece) and out and out[-1] == -piece[k]:
            out.pop()
            k += 1
        out += piece[k:]
    # the ends cancel in pairs; count the pairs, then cut them off at once
    n = len(out)
    k = 0
    while 2 * k + 1 < n and out[k] == -out[n - 1 - k]:
        k += 1
    return tuple(out[k:n - k])


def reduce_cyclic(word):
    """Freely and cyclically reduce a crossing word, each letter a piece."""
    return _reduced_product(zip(word))


def inverse_word(word):
    return tuple(-x for x in reversed(word))


def _least_rotation(word):
    """Lexicographically least rotation of a word, by Booth's algorithm.

    K. S. Booth, "Lexicographically least circular substrings" (1980):
    one failure-function pass over the doubled word, O(L) comparisons.
    """
    s = word + word
    fail = [-1] * len(s)
    k = 0  # start of the least rotation found so far
    for j in range(1, len(s)):
        x = s[j]
        i = fail[j - k - 1]
        while i != -1 and x != s[k + i + 1]:
            if x < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if x != s[k + i + 1]:  # here i == -1
            if x < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return s[k:k + len(word)]


def canonical_form(word):
    """Least rotation of the word or of its inverse, as unoriented curves."""
    if not word:
        return ()
    return min(_least_rotation(word), _least_rotation(inverse_word(word)))


def is_primitive(word):
    """True unless the cyclic word is a proper power.

    The smallest period of the word is L minus its longest proper border,
    read off the KMP failure function; the word is u^k with k >= 2
    exactly when that period is less than L and divides L.
    """
    n = len(word)
    border = [0] * n
    i = 0
    for j in range(1, n):
        while i and word[j] != word[i]:
            i = border[i - 1]
        if word[j] == word[i]:
            i += 1
        border[j] = i
    period = n - (border[-1] if n else 0)
    return period == n or n % period != 0


# ---------------------------------------------------------------------------
# walks in the dual tree

def _word_tables(surface, word, period):
    """The corner classes and the turn codes of a cyclic word, together.

    Position t, counted from 1, sits just past the corner (w[t-1], w[t-2]):
    a letter and the one before it, whose inverse is the germ the word
    arrives along.  The corner classes map each corner to its positions,
    ascending, keys in order of first occurrence.  The turn code of index
    i is the number of boundary steps counterclockwise between the same
    two germs, (pos[w[i]] - pos[-w[i-1]]) % 4g.

    Where letters i and i - 1 repeat the letters ``period`` places back,
    index i has the corner and the code of index i - period.  Such
    stretches are found in the word itself, so the period only guides the
    pass and never changes the tables.  A stretch is filled a period at a
    time: each corner of its first period gets one range of positions,
    and the codes of the period before it are repeated by slicing.  Every
    other index is read letter by letter, and so is a stretch of at most
    one period, which would copy nothing twice, and a stretch whose first
    period holds a corner twice, so that each position list stays
    ascending.
    """
    pos = surface._pos
    n = len(surface.boundary_order)
    corners, codes = {}, []
    before = word[-1:] + word[:-1]

    def read(lo, hi):
        for t, corner in enumerate(zip(word[lo:hi], before[lo:hi]), lo + 1):
            corners.setdefault(corner, []).append(t)
            codes.append((pos[corner[0]] - pos[-corner[1]]) % n)

    done = 0
    # byte j is 1 where letter j + period repeats letter j; each run of
    # ones between zeros, bytes [lo - 1 - period, hi - period), lets the
    # indices [lo, hi) copy
    same = bytes(map(operator.eq, word[period:], word)) if period else b""
    lo = period + 1
    for ones in same.split(b"\0"):
        hi = lo + len(ones) - 1
        # a stretch of at most one period would copy no position twice
        first = hi - lo > period and list(zip(word[lo:lo + period], before[lo:lo + period]))
        if first and len(set(first)) == period:
            read(done, lo)
            for t, corner in enumerate(first, lo + 1):
                corners[corner].extend(range(t, hi + 1, period))
            count = hi - lo
            codes += (codes[lo - period:lo] * (count // period + 1))[:count]
            done = hi
        lo = hi + 2
    read(done, len(word))
    return corners, codes


class _Crossing(namedtuple("_Crossing", "m j k aligned eps")):
    """One lift of curve b crossing the axis of curve a (see ``_crossings``).

    m is the first axis vertex the lift passes through, j the phase of b
    at that vertex, k the number of forward axis edges shared, aligned
    whether the lift traverses them in the axis direction, and eps the
    crossing sign (+1 when the lift's forward end departs on the positive
    side of the axis).  Lifts sort by (m, j) as tuples.
    """

    __slots__ = ()


def _coasting_blocks(codes_a, codes_w, xs, ups, downs, cap):
    """Decide the coasting rays of one corner class by their turn codes.

    ``xs`` are axis positions and ``ups`` and ``downs`` positions of rays
    in the word with codes ``codes_w``, each just past a letter shared
    with the axis.  A ray leaves on the + side exactly when its codes are
    lexicographically greater than the axis ray's.  A ray of ``ups``
    crosses when it leaves on the + side (its lift's other ray lies
    below), one of ``downs`` when it leaves on the - side.

    Yields an (xs, ys, depth, above) per block of crossing pairs: every
    axis ray in xs crosses every ray in ys, their codes first differ after
    ``depth`` shared letters, above says whether the ray leaves on the +
    side, and each position is advanced by depth.  Codes are compared a
    depth at a time for whole buckets, and only pairs with equal codes go
    one letter deeper; sharing more than ``cap`` letters raises.
    """
    p, q = len(codes_a), len(codes_w)
    groups = [(xs, ups, downs)]
    depth = 1  # letters shared so far
    while groups:
        if depth > cap:
            raise WalkBoundExceeded(f"ray follows line beyond {cap} steps")
        ties = []
        for xs, ups, downs in groups:
            bx, bu, bd = {}, {}, {}
            for rays, codes, n, buckets in ((xs, codes_a, p, bx), (ups, codes_w, q, bu),
                                            (downs, codes_w, q, bd)):
                for r in rays:
                    buckets.setdefault(codes[r % n], []).append(r + 1)
            for c, xc in bx.items():
                for cu, yu in bu.items():
                    if cu > c:
                        yield xc, yu, depth, True
                for cd, yd in bd.items():
                    if cd < c:
                        yield xc, yd, depth, False
                if c in bu or c in bd:
                    ties.append((xc, bu.get(c, ()), bd.get(c, ())))
        groups = ties
        depth += 1


def _crossing_blocks(a, corners, b=None):
    """Every block of lifts of b crossing the axis of a, as (xs, ys, k,
    sign, eps): the lift at each axis position in xs and each position of
    b in ys crosses, both advanced k letters along the axis, with sign eps.

    The lift at axis vertex m and phase j sits at two corners, (a[m],
    -a[m-1]) of the axis and (b[j], -b[j-1]) of b, whose corner classes
    (b's are ``corners``) hold the positions m + 1 and j + 1.  Its rays
    leave the vertex along b[j] and -b[j-1].  A lift with a ray along
    -a[m-1] also passes the previous axis vertex and is skipped, so each
    crossing is anchored once.  A ray that starts along f = a[m] coasts;
    any other ray branches off at once, on the + side exactly when its
    first letter sits between f and -a[m-1] counterclockwise.

    First come the pairs of classes whose rays branch off on opposite
    sides, with k = 0 and sign 0.  Then ``_coasting_blocks`` decides the
    coasting rays of each axis class by the kept turn codes of b (sign 1)
    or of its inverse (sign -1, where a backward ray from j + 1 is a
    forward ray from q + 2 - (j + 1)), with a cap of |a| + |b| +
    ``_WALK_MARGIN`` shared letters, and eps = sign where they leave on
    the + side.  With b None, ``corners`` may be a union of several
    curves' classes, which keeps no turn codes: a coasting ray raises
    MalformedInput.
    """
    pos = a.surface._pos
    n = len(a.surface.boundary_order)
    coast = {}
    for (f, prev), xs in a._kept_corners.items():
        back = -prev
        pf = pos[f]
        db = (pos[back] - pf) % n
        for (x, before), ts in corners.items():
            y = -before  # the backward ray's first letter
            if x == back or y == back:
                continue  # the lift also passes the previous axis vertex
            up_x, up_y = (pos[x] - pf) % n < db, (pos[y] - pf) % n < db
            # a coasting ray crosses when it leaves opposite the other ray:
            # into ups (index 2) when that ray is below, else downs (3)
            if x == f:
                coast.setdefault((f, prev, 1), (xs, 1, [], []))[2 + up_y].extend(ts)
            elif y == f:
                coast.setdefault((f, prev, -1), (xs, -1, [], []))[2 + up_x].extend(ts)
            elif up_x != up_y:
                yield xs, ts, 0, 0, 1 if up_x else -1
    if not coast:
        return
    if b is None:
        raise MalformedInput("a merged count cannot decide rays that run along the axis")
    q = len(b.word)
    cap = len(a.word) + q + _WALK_MARGIN
    for xs, sign, ups, downs in coast.values():
        if sign > 0:
            codes_b = b._kept_codes
        else:
            codes_b = b._kept_inverse_codes
            ups, downs = ([q + 2 - t for t in ts] for ts in (ups, downs))
        for xk, yk, k, above in _coasting_blocks(a._kept_codes, codes_b, xs, ups, downs, cap):
            yield xk, yk, k, sign, sign if above else -sign


def _crossings(surface, a, b):
    """All lifts of curve b crossing the axis of curve a, one per period
    of a.

    Both curves must be either non-conjugate as unoriented curves or the
    same primitive curve: with a == b the list is empty exactly when the
    curve embeds.  Each lift is anchored at the first axis vertex it
    meets, so each geometric crossing is listed exactly once, and the
    axis itself (j == m when a == b) is skipped because it passes the
    previous vertex.

    Each block of ``_crossing_blocks`` is expanded: a lift at axis
    position x and position y of b, advanced by the block's depth k, is
    listed at m = x - k - 1 and phase j = y - k - 1, or q + 1 + k - y on
    b's inverse.  The list is sorted by (m, j).
    """
    q = len(b)
    out = []
    for xs, ys, k, sign, eps in _crossing_blocks(a, b._kept_corners, b):
        js = [q + 1 + k - y for y in ys] if sign < 0 else [y - k - 1 for y in ys]
        out += (_Crossing(x - k - 1, j, k, sign > 0, eps) for x in xs for j in js)
    out.sort()
    return out


def _crossing_count(a, b):
    """Number and signed sum of the lifts of curve b crossing the axis of a.

    Equal to len and the sum of eps of ``_crossings(a.surface, a, b)``,
    and raises WalkBoundExceeded wherever that list does, without listing
    a crossing: each block of ``_crossing_blocks`` counts by one product
    of its sizes.
    """
    count = signed = 0
    for xs, ys, _, _, eps in _crossing_blocks(a, b._kept_corners, b):
        c = len(xs) * len(ys)
        count += c
        signed += eps * c
    return count, signed


def _merged_crossing_count(a, corners):
    """Number of lifts of several curves crossing the axis of curve a.

    ``corners`` is the union of the curves' kept corner classes, each class
    the concatenation of theirs.  A product of class sizes over a union is
    the sum of the products, so the result is the sum of the curves'
    ``_crossing_count`` numbers, and a 0 shows every one disjoint from a.
    A coasting ray raises MalformedInput (``_crossing_blocks``).
    """
    return sum(len(xs) * len(ys) for xs, ys, *_ in _crossing_blocks(a, corners))


def _phase_at(x, t, q):
    """Phase of a crossing lift at axis vertex t inside its interval."""
    steps = t - x.m
    return (x.j + steps) % q if x.aligned else (x.j - steps) % q


def _crossing_order(target, about):
    """Crossing lifts of curve ``about`` along the axis of ``target``, in
    traversal order.

    Lifts of a simple curve are disjoint and each crosses the axis once,
    so they meet it in the order of their ends on its + side.  An end
    that leaves the axis at an earlier vertex comes first.  Ends that
    leave at the same vertex come in the cyclic order of ends in the dual
    tree: by their first germ counted clockwise from the axis's backward
    germ, then by their turn codes, greatest first.  After its first
    letter an end reads b or b's inverse, both of period q, so two ends
    that agree on q more codes are equal, which ends of distinct lifts
    never are; equal keys raise WalkBoundExceeded.  The codes are the
    kept ones of ``about``, so twisting about one curve again builds none,
    and the keys share the at most 2q windows of them that ends read, one
    per direction and start.
    """
    surface, a, b = target.surface, target.word, about.word
    xs = _crossings(surface, target, about)
    if len(xs) <= 1:
        return xs
    p, q = len(a), len(b)
    pos = surface._pos
    n = len(surface.boundary_order)
    depth = max(q + _WALK_MARGIN - 1, 0)  # codes read after the first letter
    inv = inverse_word(b)
    # codes of b and of its inverse, repeated so no slice wraps
    reps = depth // q + 2
    fwd = about._kept_codes * reps
    bwd = about._kept_inverse_codes * reps
    windows, keys = {}, []
    for x in xs:
        plus = x.eps > 0  # the + end is the forward ray
        v = x.m + x.k if plus == x.aligned else x.m  # the vertex it leaves at
        j = _phase_at(x, v, q)
        if plus:
            first, codes, at = b[j], fwd, j + 1
        else:  # the backward ray reads b's inverse from q - j
            i = (q - j) % q
            first, codes, at = inv[i], bwd, i + 1
        # each end reads one of 2q windows, and each window is sliced once
        window = windows.get((plus, at))
        if window is None:
            window = windows[plus, at] = codes[at:at + depth]
        # sorted greatest first, so the vertex and the germ are negated
        germ = (pos[-a[(v - 1) % p]] - pos[first]) % n
        keys.append((-v, -germ, window))
    order = sorted(range(len(xs)), key=keys.__getitem__, reverse=True)
    for prev, i in zip(order, order[1:]):
        if keys[prev] == keys[i]:
            raise WalkBoundExceeded(f"two crossing ends agree on {depth + 1} codes")
    return [xs[i] for i in order]


# ---------------------------------------------------------------------------
# simplicity

def _has_self_crossing(curve):
    """Whether two lifts of a primitive curve cross: its count against itself."""
    return _crossing_count(curve, curve)[0] > 0


def _validate_word(surface, word):
    """The curve of an embedded essential word, else a typed error.

    The curve is built from the reduced word, unchecked, and then
    checked: a primitive word embeds exactly when no two of its lifts
    cross, which is the crossing count of the curve against itself.  The
    corner classes and codes that count builds stay with the curve.
    """
    for x in word:
        if type(x) is not int or x == 0 or abs(x) > surface.arc_count:
            raise ValueError(f"letter {x!r} does not name an arc of the surface")
    curve = _reduced_curve(surface, reduce_cyclic(word))
    reduced = curve.word
    if not reduced:
        raise Inessential("word reduces to a contractible loop")
    if not is_primitive(reduced):
        raise NotSimple("word is a proper power")
    if _has_self_crossing(curve):
        raise NotSimple("chord diagram admits no disjoint realization")
    if len(reduced) == len(surface.boundary_order) and (
        canonical_form(reduced) == canonical_form(surface.boundary_word())
    ):
        raise Inessential("word is parallel to the boundary")
    return curve


# ---------------------------------------------------------------------------
# curves

class Curve:
    """An essential simple closed curve in normalized position.

    Instances are immutable and compared as unoriented curves, that is
    up to rotation and reversal of the crossing word.  ``Curve(surface,
    word)`` builds one from a raw word through ``_validate_word``, which
    refuses a word that is not an embedded essential curve with a typed
    error.

    The reduced word is all a curve is built from; what is derived from
    it is a cached property, computed on first read and kept: its normal
    form ``_canonical``, its corner classes ``_kept_corners`` and the turn
    codes ``_kept_codes`` and ``_kept_inverse_codes``.  Whichever of
    the first two is read first builds both (``_word_tables``), with the
    length of the curve a twist is about as the period of its word, and
    the inverse codes are read off the forward ones.  Assigning or
    deleting any attribute raises.  A curve built from a raw word keeps
    what its validation's self-count built.
    Equality is ``is_isotopic`` on one surface, which reads the normal
    forms only of words of equal length.  A twist keeps its (target,
    about, power) in ``_twist``.  What a curve keeps is one memo, the
    cached property ``_kept``: as a target, its surgery plan about u
    under ``(u.word,)`` (``_surgery_plan``); as a partner, its counts
    against the twists of t about u under ``(t.word, u.word, signed
    p0)``, one entry per twist family it is counted against, for its
    life (``certify`` counts one family per genus); as a long twist
    T^k(t), under ``()``, (p0, T^p0(t), T^(p0+1)(t)) for the last p0 it
    was counted at (``_run_extrapolated_count``), the only curves kept.
    A build that raises keeps nothing.  The walk margin is a constant of
    the walk, so no key holds it; tests lower it only on curves that keep
    nothing.
    """

    def __new__(cls, surface, word):
        return _validate_word(surface, tuple(word))

    def __setattr__(self, name, value):
        raise AttributeError("Curve is immutable")

    def __delattr__(self, name):
        raise AttributeError("Curve is immutable")

    @cached_property
    def _canonical(self):
        """The normal form of the word, ``canonical_form(self.word)``."""
        return canonical_form(self.word)

    @cached_property
    def _kept_corners(self):
        """The corner classes of the word, kept with its turn codes."""
        return _keep_tables(self)[0]

    @cached_property
    def _kept_codes(self):
        """The turn codes of the word, kept with its corner classes."""
        return _keep_tables(self)[1]

    @cached_property
    def _kept_inverse_codes(self):
        """The turn codes of the inverse word, read off the forward codes.

        Position i of the inverse joins the two germs that position
        (L - i) mod L of the word joins, counted the other way round, so
        its code is (-code[(L - i) % L]) % 4g.
        """
        n = len(self.surface.boundary_order)
        codes = self._kept_codes
        return [-c % n for c in codes[:1] + codes[:0:-1]]

    @cached_property
    def _kept(self):
        """The memo of what the curve keeps about its partners (``_keep``)."""
        return {}

    def __eq__(self, other):
        if not isinstance(other, Curve):
            return NotImplemented
        return self.surface == other.surface and is_isotopic(self, other)

    def __hash__(self):
        return hash((self.surface.genus, self._canonical))

    def __len__(self):
        return len(self.word)

    def __repr__(self):
        return f"Curve({self.tokens()!r}, genus={self.surface.genus})"

    def tokens(self):
        """Plain text form, e.g. ``'e3+ e2+ e3- e2-'``."""
        names = self.surface.cut_arcs
        return " ".join(
            f"{names[abs(x) - 1]}{'+' if x > 0 else '-'}" for x in self.word
        )


def _reduced_curve(surface, reduced, twist=None):
    """The curve of a reduced word, unchecked, with its twist record.

    Twist surgery outputs are homeomorphic images of embedded curves, so
    they skip the simplicity check.
    """
    curve = object.__new__(Curve)
    vars(curve).update(surface=surface, word=reduced, _twist=twist)
    return curve


def _keep_tables(curve):
    """Both tables of a curve's word (``_word_tables``), kept on the curve.

    The period is the length of the curve a twist is about, whose copies
    repeat in the twist's word, or 0 for a curve with no twist record.
    """
    twist = curve._twist
    tables = _word_tables(curve.surface, curve.word, len(twist[1].word) if twist else 0)
    vars(curve).update(_kept_corners=tables[0], _kept_codes=tables[1])
    return tables


def _keep(curve, key, build):
    """``build()``, kept in the curve's memo under key; a build that raises
    keeps nothing."""
    kept = curve._kept
    if key not in kept:
        kept[key] = build()
    return kept[key]


def _check_same_surface(a, b):
    # system curves share the one lru_cached surface, so identity decides most
    if a.surface is not b.surface and a.surface != b.surface:
        raise SurfaceMismatch("curves live on different surfaces")


def is_isotopic(a, b):
    """Whether two normalized curves are isotopic (as unoriented curves).

    Reduced words of isotopic curves have equal length, so normal forms
    are compared only for words of equal length.
    """
    _check_same_surface(a, b)
    return a is b or (len(a.word) == len(b.word) and a._canonical == b._canonical)


def crossing_count(a, b):
    """Geometric and algebraic intersection numbers of two normalized curves.

    Counts the crossings of b through a in minimal position, each signed
    +1 when b's forward end departs on the positive side of a's axis for
    the stored orientations.  Both are zero on isotopic pairs since a
    curve can be isotoped off itself.  Against a curve twisted many times
    both are read off two short twists (``_run_extrapolated_count``); when
    only a is twisted, the count of b against a is read, since the number
    is symmetric and the signed sum antisymmetric.
    """
    if is_isotopic(a, b):
        return 0, 0
    if b._twist is not None:
        count = _run_extrapolated_count(a, b)
        if count is not None:
            return count
    if a._twist is not None:
        count = _run_extrapolated_count(b, a)
        if count is not None:
            return count[0], -count[1]
    return _crossing_count(a, b)


def _run_extrapolated_count(partner, curve):
    """``_crossing_count`` of a partner against a curve twisted many times,
    read off two short twists, or None where that does not apply.

    ``curve`` is T^k(t) for the twist T about u, as ``dehn_twist`` keeps
    it: (t, u, k).  Let q = |partner| and p0 = ceil((q + |t| + |u| +
    margin) / |u|) + 2.  Seams cancel at most |t| letters of the inserted
    runs, so from p0 on every run holds more than q + |u| + margin letters
    besides two periods of u.  A lift decision at an axis vertex reads at
    most q + |u| + margin letters: a partner ray that shared more with a
    run would share a period with u (Fine and Wilf, 1965) and coast to the
    run's end.  So a decision inside a run depends only on the vertex's
    phase mod |u|, and one more power adds one period of such vertices to
    each run, with the same lifts and the same signs, and moves the rest
    along unchanged.  The number and the signed sum are thus affine in |k|
    from p0 on: they are counted against T^p0(t) and T^(p0+1)(t) and
    extended to |k|.  The partner keeps the length of T^p0(t), the growth
    per power and both counts, or None if it is isotopic to either twist,
    under t's word (whose orientation the signed count follows), u's
    word and the signed p0.

    It applies from |k| = p0 on, and only if len(curve) grows from the
    kept length by the kept step per power.  The first count of a
    partner against twists of t about u walks both short twists, which
    the long twist keeps for the last p0 it was counted at, so partners
    of one length share one build; near p0 that is one walk more than
    the expanded word would take.  Every later one, at any |k| >= p0,
    reads the kept entry.  No key holds the margin, and p0 never reads a
    margin below the default, so a lowered cap cannot move it.
    """
    target, about, power = curve._twist
    step = len(about.word)
    margin = max(_WALK_MARGIN, _DEFAULT_WALK_MARGIN)
    p0 = -(-(len(partner.word) + len(target.word) + step + margin) // step) + 2
    k = abs(power)
    if k < p0:
        return None
    sign = 1 if power > 0 else -1

    def build():
        shorts = curve._kept.get(())
        if shorts is None or shorts[0] != p0:
            twists = (dehn_twist(target, about, sign * p) for p in (p0, p0 + 1))
            shorts = curve._kept[()] = (p0, *twists)
        _, near, far = shorts
        if is_isotopic(partner, near) or is_isotopic(partner, far):
            return None  # the walk never runs on an isotopic pair
        grow = len(far.word) - len(near.word)
        return len(near.word), grow, _crossing_count(partner, near), _crossing_count(partner, far)

    kept = _keep(partner, (target.word, about.word, sign * p0), build)
    if kept is None or len(curve.word) != kept[0] + (k - p0) * kept[1]:
        return None
    (n0, s0), (n1, s1) = kept[2:]
    return n0 + (k - p0) * (n1 - n0), s0 + (k - p0) * (s1 - s0)


def intersection_number(a, b):
    """Geometric intersection number of two normalized curves; symmetric."""
    return crossing_count(a, b)[0]


def algebraic_intersection_number(a, b):
    """Signed count of crossings of b through a, for the stored orientations."""
    return crossing_count(a, b)[1]


def _surgery_plan(target, about):
    """Where ``dehn_twist`` cuts the target and how it fills each cut.

    One (slot, eps, phase) per crossing of the pair, in the order of
    ``_crossing_order`` along the target: the copies of about go in just
    before letter ``target.word[slot]``, start at letter ``phase`` of
    about's word, and run forward exactly when eps * power > 0.  The plan
    depends on the pair alone, not on the power, so the target keeps it,
    by about's word.  A slot must lie within the interval its lift shares
    with the axis; that is checked when the plan is built, and a plan
    that fails it raises AnchorViolation and is not kept.
    """
    def build():
        q = len(about.word)
        xs = _crossing_order(target, about)
        plan, slot = [], xs[0].m if xs else 0
        for x in xs:
            slot = max(slot, x.m)
            if slot > x.m + x.k:
                raise AnchorViolation(
                    f"crossing slot of the lift at axis vertex {x.m}", f"<= {x.m + x.k}", slot
                )
            plan.append((slot, x.eps, _phase_at(x, slot, q)))
        return tuple(plan)

    return _keep(target, (about.word,), build)


def dehn_twist(target, about, power=1):
    """The twist of ``target`` about ``about``, normalized.

    The image is computed by one surgery pass: the crossings of the pair
    are enumerated in their order along the target, and at each one the
    target is rerouted along |power| parallel copies of the twisting
    curve, in the direction given by the crossing sign and the sign of
    ``power``.  A single pass inserts all copies, so the word grows
    linearly in |power|.  Where the cuts go and how each is filled is the
    pair's ``_surgery_plan``, which the target keeps, so every call, the
    first included, assembles the image from the plan and twisting the
    same pair again walks no crossing.  The target's word and each
    inserted run of copies are reduced, so only the seams between them
    can cancel.  The image keeps (target, about, power) for the counts of
    ``crossing_count``, unless the target keeps one itself, and the
    length of ``about`` in it is the period its tables are read with.

    The pieces hold |t| + |k| i(t, u) |u| letters, and a bound past
    ``_MAX_LETTERS`` raises BudgetExceeded before the plan or a piece is
    built.  Each crossing has its own (axis vertex, phase) anchor, so
    i(t, u) <= |t| |u|; the count form reads i(t, u), without listing a
    crossing, only where that walk-free bound passes the limit.
    """
    _check_int("power", power)
    _check_same_surface(target, about)
    if power == 0 or is_isotopic(target, about):
        return target
    p, q, k = len(target.word), len(about.word), abs(power)
    if p + k * p * q * q > _MAX_LETTERS:
        bound = p + k * _crossing_count(target, about)[0] * q
        if bound > _MAX_LETTERS:
            raise BudgetExceeded(
                f"a twist of up to {bound} letters is past the letter limit {_MAX_LETTERS}"
            )
    plan = _surgery_plan(target, about)
    if not plan:
        return target
    d, c = target.word, about.word
    pieces, done = [], 0
    for slot, eps, phase in plan:
        loop = c[phase:] + c[:phase]  # the plan's phase lies in [0, |c|)
        e = eps * power
        # the copies go in just before letter d[slot]
        pieces.append(d[done:slot])
        pieces.append(loop * e if e > 0 else inverse_word(loop) * (-e))
        done = slot
    pieces.append(d[done:])
    # only the first twist of a chain keeps a record, so no chain of words is kept
    twist = (target, about, power) if target._twist is None else None
    return _reduced_curve(target.surface, _reduced_product(pieces), twist)


def homology_class(a):
    """Class of a curve in the arc-dual basis, with a canonical sign.

    Coordinate k is the signed number of crossings of arc k+1, read off
    ``_word_class``.  Curves are unoriented, so the vector is only
    defined up to a global sign; the first nonzero coordinate is reported
    positive.
    """
    counts = _word_class(a.word)
    sign = -1 if counts and counts[min(counts)] < 0 else 1
    return tuple(sign * counts.get(k, 0) for k in range(a.surface.arc_count))


def _word_class(word):
    """The class of a word for its stored orientation, as a dict: arc
    index k -> the nonzero signed number of its crossings of arc k + 1."""
    counts = {}
    for x in word:
        k = abs(x) - 1
        counts[k] = counts.get(k, 0) + (1 if x > 0 else -1)
    return {k: v for k, v in counts.items() if v}
