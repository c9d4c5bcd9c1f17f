"""Independent reference implementations used only by the tests.

Each oracle recomputes something the package also computes, by a method
that shares no code with it: least rotations and primitivity by
comparing every rotation, cyclic reduction by rotating and cancelling
one end pair at a time, intersection numbers by exhaustive search
over chord diagram placements, ray sides in the dual tree by one
coasting loop per direction over a letter closure, crossing lists and
signs by asking that loop about both rays of every lift, the chain
pattern of the standard system by those signs pair by pair, Alexander
polynomials from a Seifert matrix by permutation expansion, homology
classes as dense vectors, corner classes and turn codes one letter at a
time, homological actions as dense products of
transvection matrices, matrix products as
triple sums, characteristic polynomials by permutation expansion and by
the Faddeev-LeVerrier loop over lists of rows, Mersenne primes by the
Lucas-Lehmer test, exact triangles as
explicit matrices over GF(2), certificate JSON through json.dumps of a
dict.  Keep these slow and obvious.
"""
import itertools
import json
import random

from lspacecert import curves
from lspacecert.certify import SCHEMA_VERSION
from lspacecert.errors import WalkBoundExceeded
from lspacecert.floer import RankInterval, Verdict


# ---------------------------------------------------------------------------
# cyclic words, one rotation at a time

def rotate_word(word, k):
    k %= len(word)
    return word[k:] + word[:k]


def _rotations(word):
    return [rotate_word(word, k) for k in range(len(word))]


def oracle_canonical_form(word):
    """Least rotation of the word or of its inverse, over all rotations."""
    if not word:
        return ()
    inverse = tuple(-x for x in reversed(word))
    return min(_rotations(word) + _rotations(inverse))


def oracle_is_primitive(word):
    """True unless some proper divisor d of L has word == its d-rotation."""
    n = len(word)
    return not any(
        n % d == 0 and word == word[d:] + word[:d] for d in range(1, n)
    )


# ---------------------------------------------------------------------------
# chord diagram placements
#
# A placement realizes one or two crossing words as actual disjointly
# embedded chords in the cut-open disk: for every arc, choose the order
# in which the strands cross it.  Each crossing then has one endpoint on
# each side of the arc, with the two sides carrying opposite orders, and
# every consecutive pair of crossings along a curve spans a chord.  Any
# placement is a genuine transverse picture of the curves, and some
# placement realizes the minimal position, so minimizing crossings over
# all placements computes the geometric intersection number.

def _chords_of_placement(words, surface, arc_orders):
    side_points = {s: [] for s in surface.boundary_order}
    point_of = {}
    for arc, events in arc_orders.items():
        plus, minus = arc, -arc
        for rank, ev in enumerate(events):
            side_points[plus].append((rank, ev))
            side_points[minus].append((len(events) - 1 - rank, ev))
    circle = []
    for side in surface.boundary_order:
        for _, ev in sorted(side_points[side]):
            circle.append((side, ev))
    for pos, (side, ev) in enumerate(circle):
        point_of[(side, ev)] = pos
    chords = []
    for ci, word in enumerate(words):
        length = len(word)
        for i in range(length):
            this, nxt = word[i], word[(i + 1) % length]
            entry = point_of[(-this if this > 0 else abs(this), (ci, i))]
            exit_ = point_of[(nxt if nxt > 0 else -abs(nxt), (ci, (i + 1) % length))]
            chords.append((ci, entry, exit_))
    return chords, len(circle)


def _chords_cross(c1, c2, size):
    _, a1, b1 = c1
    _, a2, b2 = c2
    between = lambda x, lo, hi: (x - lo) % size < (hi - lo) % size and x != lo
    return between(a2, a1, b1) != between(b2, a1, b1)


def _placements(words, surface):
    events_on_arc = {}
    for ci, word in enumerate(words):
        for i, letter in enumerate(word):
            events_on_arc.setdefault(abs(letter), []).append((ci, i))
    arcs = sorted(events_on_arc)
    for orders in itertools.product(
        *(itertools.permutations(events_on_arc[a]) for a in arcs)
    ):
        yield dict(zip(arcs, orders))


def oracle_min_crossings(word_a, word_b, surface):
    """Geometric intersection number by exhaustive placement search.

    Both words must be reduced and realizable as embedded curves.  Only
    placements where each individual curve is embedded count.
    """
    best = None
    for arc_orders in _placements([word_a, word_b], surface):
        chords, size = _chords_of_placement([word_a, word_b], surface, arc_orders)
        own = [c for c in chords if c[0] == 0], [c for c in chords if c[0] == 1]
        if any(
            _chords_cross(c1, c2, size)
            for part in own
            for c1, c2 in itertools.combinations(part, 2)
        ):
            continue
        count = sum(
            _chords_cross(c1, c2, size) for c1 in own[0] for c2 in own[1]
        )
        best = count if best is None else min(best, count)
    assert best is not None, "no embedded placement; words are not simple"
    return best


def oracle_is_simple(word, surface):
    """Whether some placement embeds the word, by exhaustive search."""
    if not word:
        return False
    for arc_orders in _placements([word], surface):
        chords, size = _chords_of_placement([word], surface, arc_orders)
        if not any(
            _chords_cross(c1, c2, size)
            for c1, c2 in itertools.combinations(chords, 2)
        ):
            return True
    return False


def oracle_simple_words(surface, max_len):
    """One word per simple curve of length <= max_len, up to isotopy: the
    reduced, primitive, embedded words that are their own normal form."""
    letters = [x for k in range(1, surface.arc_count + 1) for x in (k, -k)]
    return [
        w for length in range(1, max_len + 1) for w in itertools.product(letters, repeat=length)
        if oracle_reduce_cyclic(w) == w == oracle_canonical_form(w)
        and oracle_is_primitive(w) and oracle_is_simple(w, surface)
    ]


def oracle_reduce(word):
    """Cyclic free reduction by repeated scanning, the slow way."""
    w = list(word)
    changed = True
    while changed and w:
        changed = False
        for i in range(len(w)):
            j = (i + 1) % len(w)
            if i != j and w[i] == -w[j]:
                for k in sorted((i, j), reverse=True):
                    del w[k]
                changed = True
                break
    return tuple(w)


def oracle_reduce_cyclic(word):
    """Free reduction by repeated scanning, then rotate and cancel: while
    the two ends cancel, move the last letter to the front and delete it
    with the letter it now meets."""
    w = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i] == -w[i + 1]:
                del w[i:i + 2]
                changed = True
                break
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[-1:] + w[:-1]
        del w[:2]
    return tuple(w)


# ---------------------------------------------------------------------------
# corner classes and turn codes, one letter at a time

def oracle_corner_classes(word):
    """Each corner of a cyclic word, a letter and the one before it, mapped
    to the positions just past it, counted from 1."""
    corners = {}
    for t in range(1, len(word) + 1):
        corners.setdefault((word[t - 1], word[t - 2]), []).append(t)
    return corners


def oracle_turn_codes(surface, word):
    """The boundary steps counterclockwise from the germ each letter arrives
    along, the inverse of the letter before it, to the germ it leaves along."""
    pos = {x: i for i, x in enumerate(surface.boundary_order)}
    n = len(pos)
    return [(pos[word[i]] - pos[-word[i - 1]]) % n for i in range(len(word))]


# ---------------------------------------------------------------------------
# ray sides in the dual tree, one coasting loop per direction

def oracle_ray_side(surface, line, phase, ray, cap):
    """Side on which a ray leaves a bi-infinite geodesic.

    ``line`` is the cyclic word of the geodesic, ``phase`` the position of
    the shared start vertex (between letters phase-1 and phase), and
    ``ray(r)`` the r-th letter of the departing ray.  The ray may coast
    along the line in either direction before branching off.  Returns
    (side, followed) where side is +1 when the departing germ lies in the
    counterclockwise arc from the line's forward germ to its backward
    germ, and followed counts forward steps shared with the line.
    """
    pos = surface._pos
    n = len(surface.boundary_order)
    p = len(line)
    first = ray(0)
    if first == line[phase % p]:
        r = 1
        while ray(r) == line[(phase + r) % p]:
            r += 1
            if r > cap:
                raise WalkBoundExceeded(f"ray follows line beyond {cap} steps")
        i = phase + r
        f, b, t = line[i % p], -line[(i - 1) % p], ray(r)
        followed = r
    elif first == -line[(phase - 1) % p]:
        r = 1
        while ray(r) == -line[(phase - 1 - r) % p]:
            r += 1
            if r > cap:
                raise WalkBoundExceeded(f"ray follows line beyond {cap} steps")
        i = phase - r
        f, b, t = line[i % p], -line[(i - 1) % p], ray(r)
        followed = 0
    else:
        f, b, t = line[phase % p], -line[(phase - 1) % p], first
        followed = 0
    df = (pos[t] - pos[f]) % n
    db = (pos[b] - pos[f]) % n
    side = 1 if 0 < df < db else -1
    return side, followed


# ---------------------------------------------------------------------------
# crossings, both rays of one lift at a time

def oracle_crossings(surface, a, b):
    """(m, j, k, aligned, eps) of every lift of b crossing the axis of a.

    The list ``curves._crossings`` must return, in the same order: the lift
    at axis vertex m and phase j is skipped when it also passes the
    previous vertex, and otherwise crosses when ``oracle_ray_side`` puts
    its forward and backward rays on opposite sides.  k is how far the
    ray that starts along a[m] follows the axis, and the cap is read
    from ``curves._WALK_MARGIN`` at call time.
    """
    p, q = len(a), len(b)
    cap = p + q + curves._WALK_MARGIN
    out = []
    for m in range(p):
        for j in range(q):
            if -a[m - 1] in (b[j], -b[j - 1]):
                continue
            fwd = oracle_ray_side(surface, a, m, lambda r: b[(j + r) % q], cap)
            back = oracle_ray_side(surface, a, m, lambda r: -b[(j - 1 - r) % q], cap)
            if fwd[0] != back[0]:
                aligned = b[j] == a[m]
                out.append((m, j, (fwd if aligned else back)[1], aligned, fwd[0]))
    return out


def crossing_signs(a, b):
    """Signs of the crossings of b through a in minimal position.

    One entry per crossing lift of ``oracle_crossings``, +1 when b's
    forward end departs on the positive side of a's axis.  Empty on
    isotopic pairs since a curve can be isotoped off itself.  The count
    form ``curves.crossing_count`` must equal its length and sum.
    """
    if oracle_canonical_form(a.word) == oracle_canonical_form(b.word):
        return ()
    return tuple(x[4] for x in oracle_crossings(a.surface, a.word, b.word))


# ---------------------------------------------------------------------------
# the chain pattern, one pair at a time

def oracle_chain_pattern(chain):
    """Count and signed count of chain curve j through chain curve i, for
    every pair i < j.

    The pairwise loop the standard system ran before it merged the counts
    of non-neighbours, with ``crossing_signs`` in place of the kernel: the
    chain pattern is (1, 1) on neighbours and (0, 0) on every other pair.
    """
    out = {}
    for i, x in enumerate(chain):
        for j in range(i + 1, len(chain)):
            signs = crossing_signs(x, chain[j])
            out[i, j] = (len(signs), sum(signs))
    return out


# ---------------------------------------------------------------------------
# Alexander polynomial of the (2, 2g+1) torus knot from a Seifert matrix

def seifert_torus_alexander(g):
    """det(V - t V^T) for the bidiagonal genus-g Seifert matrix, expanded
    over all permutations, then normalized to lowest exponent 0 and top
    coefficient +1.  Returns a dict exponent -> coefficient."""
    n = 2 * g
    v = [[0] * n for _ in range(n)]
    for i in range(n):
        v[i][i] = -1
        if i + 1 < n:
            v[i + 1][i] = 1
    # entries of V - t V^T as exponent -> coefficient dicts
    m = [
        [{0: v[i][j], 1: -v[j][i]} for j in range(n)]
        for i in range(n)
    ]
    det = {}
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        term = {0: sign}
        for i in range(n):
            term = _poly_mul(term, m[i][perm[i]])
            if not term:
                break
        for e, c in term.items():
            det[e] = det.get(e, 0) + c
    det = {e: c for e, c in det.items() if c}
    low = min(det)
    det = {e - low: c for e, c in det.items()}
    if det[max(det)] < 0:
        det = {e: -c for e, c in det.items()}
    return det


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        if not c1:
            continue
        for e2, c2 in q.items():
            if not c2:
                continue
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# homology classes as dense vectors

def oriented_class(word, arc_count):
    """Signed crossing vector for the stored orientation of a word."""
    coords = [0] * arc_count
    for x in word:
        coords[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(coords)


def canonical_sign(vector):
    """Flip the sign, if needed, so the first nonzero entry is positive."""
    for v in vector:
        if v > 0:
            return tuple(vector)
        if v < 0:
            return tuple(-x for x in vector)
    return tuple(vector)


# ---------------------------------------------------------------------------
# dense and sparse rows: the package's matrices are lists of sparse rows,
# the oracles' are dense

def _sparse_rows(m):
    """A dense square matrix as a list of sparse rows, zeros dropped."""
    return [{s: x for s, x in enumerate(row) if x} for row in m]


def _dense_rows(rows):
    """A square matrix given as sparse rows as a list of dense row lists."""
    n = len(rows)
    return [[row.get(s, 0) for s in range(n)] for row in rows]


# ---------------------------------------------------------------------------
# homological action as a dense product of transvection matrices

def oracle_homology_action(word):
    """Product, in word order, of the explicit transvection matrices
    I + p gamma (J gamma)^T of the factors (curve, p).  gamma counts a
    curve's letters per arc with sign, and J is the chain form: +1 just
    above the diagonal, -1 just below.  Returns a tuple of row tuples."""
    n = 2 * word.factors[0][0].surface.genus
    j = [[(s == r + 1) - (r == s + 1) for s in range(n)] for r in range(n)]
    out = [[int(r == s) for s in range(n)] for r in range(n)]
    for curve, power in word.factors:
        gamma = [0] * n
        for letter in curve.word:
            gamma[abs(letter) - 1] += 1 if letter > 0 else -1
        jg = [sum(j[r][s] * gamma[s] for s in range(n)) for r in range(n)]
        t = [
            [int(r == s) + power * gamma[r] * jg[s] for s in range(n)]
            for r in range(n)
        ]
        out = [
            [sum(out[r][k] * t[k][s] for k in range(n)) for s in range(n)]
            for r in range(n)
        ]
    return tuple(map(tuple, out))


# ---------------------------------------------------------------------------
# matrix products and characteristic polynomials

def oracle_mat_mul(a, b):
    """Dense triple-sum product of two square matrices, as row lists."""
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


def oracle_charpoly(m):
    """det(t I - M) expanded over all permutations; only for n <= 6.
    Returns a dict exponent -> nonzero coefficient."""
    n = len(m)
    assert n <= 6, "permutation expansion is for small matrices only"
    det = {}
    for perm in itertools.permutations(range(n)):
        term = {0: _perm_sign(perm)}
        for i in range(n):
            term = _poly_mul(term, {0: -m[i][perm[i]], 1: int(i == perm[i])})
            if not term:
                break
        for e, c in term.items():
            det[e] = det.get(e, 0) + c
    return {e: c for e, c in det.items() if c}


def oracle_charpoly_fl(m):
    """det(t I - M) by the Faddeev-LeVerrier recurrence on lists of rows:
    M_k = M (M_{k-1} + c I), c = -tr(M_k) / k.  Any n; exact on integer
    matrices.  Returns a dict exponent -> nonzero coefficient."""
    n = len(m)
    coeffs = {n: 1}
    mk = [[0] * n for _ in range(n)]
    c = 1
    for k in range(1, n + 1):
        for i in range(n):
            mk[i][i] += c
        prod = []
        for arow in m:
            row = [0] * n
            for x, brow in zip(arow, mk):
                if x:
                    row = [r + x * y for r, y in zip(row, brow)]
            prod.append(row)
        mk = prod
        trace = sum(mk[i][i] for i in range(n))
        assert trace % k == 0, "integer matrices have exact Faddeev-LeVerrier steps"
        c = -trace // k
        coeffs[n - k] = c
    return {e: x for e, x in coeffs.items() if x}


def oracle_is_mersenne_prime(e):
    """Whether 2^e - 1 is prime, for a prime e > 2, by the Lucas-Lehmer test:
    s_0 = 4, s_{k+1} = s_k^2 - 2 mod 2^e - 1, and 2^e - 1 is prime iff
    s_{e-2} = 0."""
    m = (1 << e) - 1
    s = 4
    for _ in range(e - 2):
        s = (s * s - 2) % m
    return s == 0


def oracle_staircase_polynomial(stair):
    """The centered Alexander polynomial a staircase comes from: +-n_i
    carry alternating signs, +1 at the top.  Returns a dict exponent ->
    coefficient."""
    k = len(stair.ns) - 1
    coeffs = {}
    for i, n in enumerate(stair.ns):
        coeffs[n] = coeffs[-n] = (-1) ** (k - i)
    return coeffs


# ---------------------------------------------------------------------------
# certificate JSON, through json.dumps

def _oracle_output_dict(out):
    if isinstance(out, Verdict):
        return {"verdict": out.value}
    if isinstance(out, RankInterval):
        return {"lo": out.lo, "hi": out.hi}
    return {"lo": out, "hi": out}


def oracle_certificate_json(cert):
    """The JSON emission of a certificate: its fields as a dict, in the
    published key order, through json.dumps(indent=2)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "genus": cert.genus,
        "n": cert.n,
        "steps": [
            {
                "index": s.index,
                "kind": s.kind,
                "label": s.label,
                "inputs": list(s.inputs),
                "output": _oracle_output_dict(s.output),
                "citation": {"anchor": s.citation.anchor, "quote": s.citation.quote},
            }
            for s in cert.steps
        ],
        "final_bound": cert.final_bound,
        "verdict": cert.verdict.value,
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# exact triangles over GF(2)

def triangle_dims_realizable(a, b, c):
    """Whether dims (a, b, c) occur in some exact triangle of spaces."""
    return (a + b + c) % 2 == 0 and abs(a - c) <= b <= a + c


def build_exact_triangle(a, b, c, seed=0):
    """Explicit GF(2) matrices x: A->B, y: B->C, z: C->A, exact at every
    corner, with dim A, B, C = a, b, c.  Random bases make the maps
    non-canonical."""
    assert triangle_dims_realizable(a, b, c)
    rx = (a + b - c) // 2
    ry = (b + c - a) // 2
    rz = (c + a - b) // 2
    x = _block_map(a, b, {i: i for i in range(rx)})
    y = _block_map(b, c, {rx + i: i for i in range(ry)})
    z = _block_map(c, a, {ry + i: rx + i for i in range(rz)})
    rng = random.Random(seed)
    pa, pai = _random_invertible(a, rng)
    pb, pbi = _random_invertible(b, rng)
    pc, pci = _random_invertible(c, rng)
    # conjugate: new_x = pb . x . pa^{-1}, etc.
    x = _gf2_mul(pb, _gf2_mul(x, pai))
    y = _gf2_mul(pc, _gf2_mul(y, pbi))
    z = _gf2_mul(pa, _gf2_mul(z, pci))
    return x, y, z


def check_exact(x, y, z, a, b, c):
    """rank conditions equivalent to exactness at all three corners."""
    return (
        _is_zero(_gf2_mul(y, x))
        and _is_zero(_gf2_mul(z, y))
        and _is_zero(_gf2_mul(x, z))
        and gf2_rank(x) + gf2_rank(y) == b
        and gf2_rank(y) + gf2_rank(z) == c
        and gf2_rank(z) + gf2_rank(x) == a
    )


def _block_map(src, dst, mapping):
    m = [[0] * src for _ in range(dst)]
    for s, d in mapping.items():
        m[d][s] = 1
    return m


def _gf2_mul(m1, m2):
    rows, mid, cols = len(m1), len(m2), len(m2[0]) if m2 else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(mid):
            if m1[i][k]:
                for j in range(cols):
                    out[i][j] ^= m2[k][j]
    return out


def _is_zero(m):
    return all(all(v == 0 for v in row) for row in m)


def gf2_rank(m):
    rows = [int("".join(str(v) for v in row), 2) if row else 0 for row in m]
    rank = 0
    for bit in range(max((len(r) for r in m), default=0) - 1, -1, -1):
        pivot = None
        for i, r in enumerate(rows):
            if (r >> bit) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        rank += 1
        pr = rows.pop(pivot)
        rows = [r ^ pr if (r >> bit) & 1 else r for r in rows]
    return rank


def _random_invertible(n, rng):
    if n == 0:
        return [], []
    while True:
        m = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        if gf2_rank(m) == n:
            break
    inv = _gf2_inverse(m)
    return m, inv


def _gf2_inverse(m):
    n = len(m)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    col = 0
    for col in range(n):
        pivot = next(i for i in range(col, n) if aug[i][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for i in range(n):
            if i != col and aug[i][col]:
                aug[i] = [a ^ b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]
