"""Integer Laurent polynomials in one variable t.

Just enough arithmetic for characteristic polynomials of homological
monodromies, given as sparse rows, and for the staircase reader: exact
integer coefficients, palindrome tests, parsing and printing in the
usual knot-table style.
"""
from .errors import CoefficientBoundTooLarge, MalformedInput
from .record import record


class LaurentPoly(record("LaurentPoly", "coeffs")):
    """Sorted tuple of (exponent, coefficient) pairs, coefficients nonzero."""

    __slots__ = ()

    @staticmethod
    def from_dict(d):
        items = tuple(sorted((e, c) for e, c in d.items() if c != 0))
        return LaurentPoly(items)

    def as_dict(self):
        return dict(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    @property
    def min_exp(self):
        return self.coeffs[0][0]

    @property
    def max_exp(self):
        return self.coeffs[-1][0]

    def coefficient(self, e):
        return self.as_dict().get(e, 0)

    def shifted(self, k):
        """Multiply by t^k."""
        return LaurentPoly(tuple((e + k, c) for e, c in self.coeffs))

    def reciprocal(self):
        """Substitute t -> 1/t."""
        return LaurentPoly(tuple(sorted((-e, c) for e, c in self.coeffs)))

    def is_palindromic(self):
        """Whether the coefficient sequence is symmetric about its center."""
        if self.is_zero():
            return True
        center = self.min_exp + self.max_exp
        return self == self.reciprocal().shifted(center)

    def centered(self):
        """Shift so the exponents are symmetric about zero.

        Requires an even exponent span; returns None otherwise.
        """
        if self.is_zero():
            return self
        span = self.max_exp + self.min_exp
        if span % 2 != 0:
            return None
        return self.shifted(-span // 2)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e, c in sorted(self.coeffs, reverse=True):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                head = "t" if e == 1 else f"t^{e}"
                body = head if mag == 1 else f"{mag}*{head}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def parse_poly(text):
    """Parse a signed sum of monomials in t, e.g. ``t^4 - t^3 + t^2 - t + 1``.

    A monomial is a coefficient, ``t`` or ``t^e``, or a coefficient times
    either, as ``2*t^3`` or ``2t^3``; a ``+`` or ``-`` stands between two
    monomials.  Exponents may be negative (``t^-2``).  Digits are ASCII
    only, and spaces are ignored everywhere.  Raises ValueError on
    malformed input, with the offset into ``text`` as given.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    # s[i] is text[at[i]], so errors report offsets into the text as given
    at = [k for k, ch in enumerate(text) if ch != " "] + [len(text)]
    coeffs = {}
    i = 0
    n = len(s)
    while i < n:
        sign = 1
        while i < n and s[i] in "+-":
            if s[i] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ValueError(f"dangling sign at byte {at[i]}")
        mag = None
        start = i
        # ASCII only: str.isdigit also accepts "²" and "٢"
        while i < n and "0" <= s[i] <= "9":
            i += 1
        if i > start:
            mag = int(s[start:i])
            if i < n and s[i] == "*":
                i += 1
                if i == n or s[i] != "t":
                    raise ValueError(f"expected t at byte {at[i]}")
        exp = 0
        if i < n and s[i] == "t":
            i += 1
            exp = 1
            if i < n and s[i] == "^":
                i += 1
                estart = i
                if i < n and s[i] == "-":
                    i += 1
                while i < n and "0" <= s[i] <= "9":
                    i += 1
                if i == estart or s[estart:i] == "-":
                    raise ValueError(f"bad exponent at byte {at[estart]}")
                exp = int(s[estart:i])
        elif mag is None:
            raise ValueError(f"expected coefficient or t at byte {at[start]}")
        if i < n and s[i] not in "+-":
            raise ValueError(f"expected '+' or '-' at byte {at[i]}")
        coeff = sign * (1 if mag is None else mag)
        coeffs[exp] = coeffs.get(exp, 0) + coeff
    return LaurentPoly.from_dict(coeffs)


# Exponents e of the Mersenne primes 2^e - 1 from 2^61 - 1 to 2^86243 - 1
# (OEIS A000043); the tests check those up to 4423 by Lucas-Lehmer.
_MERSENNE_EXPONENTS = (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423,
    9689, 9941, 11213, 19937, 21701, 23209, 44497, 86243,
)


def charpoly(matrix):
    """det(t I - M) of a square int matrix given as n sparse rows, by
    Hessenberg reduction modulo one prime.

    Row i of M is a dict column -> entry; absent entries are zero.  The
    coefficients of det(t I - M) sum in absolute value to at most
    B = prod_i (1 + sum_j |m_ij|) (``_coefficient_bound``).  The scheme
    works modulo the smallest tabled Mersenne prime P > 2B (``_modulus``):
    it reduces M to upper Hessenberg form by similarity (``_hessenberg``),
    runs the Hessenberg recurrence (``_hessenberg_charpoly``) and reads
    each residue in the balanced range (-P/2, P/2], which holds the true
    coefficient.  Validation, the bound and the reduction mod P visit the
    stored entries only; the one dense matrix is the residue matrix the
    reduction fills.  On the banded monodromy actions a step touches O(1)
    entries, so the cost is O(n^2) residue operations, most of them scans.

    Raises MalformedInput, before any arithmetic, for a matrix that is not
    a list, a row that is not a dict, a column that is not an int in
    [0, n), and an entry whose type is not int.  Raises
    CoefficientBoundTooLarge, before any elimination, when no tabled
    prime exceeds 2B.  Returns the monic LaurentPoly of degree n.
    """
    if not isinstance(matrix, list):
        raise MalformedInput("charpoly: the matrix must be a list of sparse rows")
    n = len(matrix)
    for i, row in enumerate(matrix):
        if not isinstance(row, dict):
            raise MalformedInput(f"charpoly: row {i} is not a dict column -> entry")
        for j, x in row.items():
            if type(j) is not int or not 0 <= j < n:
                raise MalformedInput(
                    f"charpoly: row {i} names column {j!r}, not an int in [0, {n})"
                )
            if type(x) is not int:
                raise MalformedInput(
                    f"charpoly: entry ({i}, {j}) is a {type(x).__name__}, not an int"
                )
    p = _modulus(_coefficient_bound(matrix))
    h = [[0] * n for _ in range(n)]
    for line, row in zip(h, matrix):
        for j, x in row.items():
            line[j] = x % p
    _hessenberg(h, p)
    half = p >> 1
    return LaurentPoly.from_dict(
        {e: c - p if c > half else c for e, c in enumerate(_hessenberg_charpoly(h, p))}
    )


def _coefficient_bound(matrix):
    """B = prod_i (1 + r_i), r_i the absolute row sums of M, read off its
    sparse rows.

    The coefficient of t^(n-k) in det(t I - M) is (-1)^k times the sum of
    the k x k principal minors.  By Hadamard's inequality the minor on the
    rows S is at most prod_{i in S} r_i in size, so the coefficients sum in
    absolute value to at most sum_S prod_{i in S} r_i = B.
    """
    bound = 1
    for row in matrix:
        bound *= 1 + sum(map(abs, row.values()))
    return bound


def _modulus(bound):
    """The smallest tabled Mersenne prime P > 2 bound, so that every
    integer of size at most ``bound`` has its own balanced residue mod P."""
    for e in _MERSENNE_EXPONENTS:
        p = (1 << e) - 1
        if p > 2 * bound:
            return p
    raise CoefficientBoundTooLarge(
        f"charpoly: the coefficient bound has {bound.bit_length()} bits; twice "
        f"it exceeds the largest tabled prime 2^{_MERSENNE_EXPONENTS[-1]} - 1"
    )


def _hessenberg(h, p):
    """Reduce h, a square list of rows of residues mod the prime p, in place
    to upper Hessenberg form by similarity.

    For each column k, the first row i > k with h_ik != 0 is swapped with
    row k + 1, and column i with column k + 1.  Each lower nonzero h_ik is
    then cleared by row_i -= u row_{k+1}, paired with the inverse column
    operation column_{k+1} += u column_i.  The row operations all go first:
    none of them changes row k + 1 or the factors u, and the pairs commute.
    A column already zero below its subdiagonal costs one scan.
    """
    n = len(h)
    for k in range(n - 2):
        top = k + 1
        below = [i for i in range(top, n) if h[i][k]]
        if not below:
            continue
        if below[0] != top:
            i = below[0]
            h[i], h[top] = h[top], h[i]
            for row in h:
                row[i], row[top] = row[top], row[i]
        if len(below) == 1:
            continue
        pivot = h[top]
        inv = pow(pivot[k], -1, p)
        factors = [(i, h[i][k] * inv % p) for i in below[1:]]
        for i, u in factors:
            h[i] = [(a - u * x) % p if x else a for a, x in zip(h[i], pivot)]
        for i, u in factors:
            for row in h:
                y = row[i]
                if y:
                    row[top] = (row[top] + u * y) % p


def _hessenberg_charpoly(h, p):
    """Coefficients, lowest degree first, of det(t I - H) mod p for an upper
    Hessenberg h.

    With 1-based indices, p_0 = 1 and p_m = (t - h_mm) p_{m-1}
    - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) p_{i-1} is det(t I - H) on
    the leading m x m block (H. Cohen, A Course in Computational Algebraic
    Number Theory, 1993, Alg. 2.2.9).  Zero h_im are skipped, and the
    subdiagonal product stops at its first zero, past which every term is 0.
    """
    polys = [[1]]
    for m, row in enumerate(h):
        prev = polys[-1]
        step = [0] + prev
        d = row[m]
        if d:
            for j, c in enumerate(prev):
                step[j] -= d * c
        sub = 1
        for i in range(m - 1, -1, -1):
            sub = sub * h[i + 1][i] % p
            if not sub:
                break
            x = h[i][m]
            if x:
                f = x * sub
                for j, c in enumerate(polys[i]):
                    step[j] -= f * c
        polys.append([c % p for c in step])
    return polys[-1]


def _mat_mul(a, b):
    """Product of two matrices given as sparse rows: a list of dicts
    column -> nonzero entry.

    Row i of a.b is the sum of x . b[k] over the entries k -> x of a[i],
    so the cost is O(sum over those entries of nnz(b[k])): zeros of
    either factor cost nothing.  Entries that cancel to zero are dropped,
    so the result is again a list of sparse rows.
    """
    out = []
    for arow in a:
        row = {}
        for k, x in arow.items():
            for s, y in b[k].items():
                row[s] = row.get(s, 0) + x * y
        out.append({s: v for s, v in row.items() if v})
    return out
