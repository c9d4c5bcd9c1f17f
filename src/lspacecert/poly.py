"""Integer Laurent polynomials in one variable t.

Just enough arithmetic for characteristic polynomials of homological
monodromies and for the staircase reader: exact integer coefficients,
palindrome tests, parsing and printing in the usual knot-table style.
"""
from dataclasses import dataclass

from .errors import MalformedInput, WorkbenchError


@dataclass(frozen=True)
class LaurentPoly:
    """Sorted tuple of (exponent, coefficient) pairs, coefficients nonzero."""

    coeffs: tuple

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

    Exponents may be negative (``t^-2``).  Digits are ASCII only, and
    spaces are ignored everywhere.  Raises ValueError on malformed input,
    with the offset into ``text`` as given.
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
        coeff = sign * (1 if mag is None else mag)
        coeffs[exp] = coeffs.get(exp, 0) + coeff
    return LaurentPoly.from_dict(coeffs)


def charpoly(matrix):
    """det(t I - M) of a square int matrix, by the Faddeev-LeVerrier scheme.

    M_1 = M and M_k = M (M_{k-1} + c_{n-k+1} I), with c_n = 1 and
    c_{n-k} = -tr(M_k) / k; on an integer matrix every division is exact,
    and each one is checked.  Each row of the running matrix is held as one
    Python int, sum_j a_j 2^(j w) with w-bit signed slots, so row i of
    M X is one big-int sum over the nonzeros of row i of M; a step costs
    O(nnz(M)) big-int operations of n w bits.  The slot width is proved,
    not guessed: see ``_packed_fl``.  If an entry outgrows the bound the
    width was chosen for, the scheme restarts with the bound doubled.

    Raises MalformedInput, before any arithmetic, for a ragged or
    non-square matrix, for rows that are not lists or tuples, and for an
    entry whose type is not int.  Returns the monic LaurentPoly of
    degree n.
    """
    if not isinstance(matrix, (list, tuple)):
        raise MalformedInput("charpoly: the matrix must be a list or tuple of rows")
    n = len(matrix)
    rows = []
    for i, row in enumerate(matrix):
        if not isinstance(row, (list, tuple)) or len(row) != n:
            raise MalformedInput(
                f"charpoly: row {i} is not a list or tuple of {n} entries; "
                "the matrix must be square"
            )
        for j, x in enumerate(row):
            if type(x) is not int:
                raise MalformedInput(
                    f"charpoly: entry ({i}, {j}) is a {type(x).__name__}, not an int"
                )
        rows.append([(x, j) for j, x in enumerate(row) if x])
    h = max(16, max((abs(x) for row in rows for x, _ in row), default=0).bit_length())
    while True:
        coeffs = _packed_fl(rows, n, h)
        if coeffs is not None:
            return LaurentPoly.from_dict(coeffs)
        h *= 2


def _slot_width(h, r, n):
    """Bits per slot that hold every value a step can make from entries
    in [-2^h, 2^h), for an n x n matrix of largest absolute row sum r.

    M X then has entries of size at most r 2^h, c at most n r 2^h, and
    M X + c I at most (n + 1) r 2^h, which is below 2^(w - 1).
    """
    return h + (r * (n + 1)).bit_length() + 1


def _packed_fl(rows, n, h):
    """The Faddeev-LeVerrier coefficients as a dict exponent -> coefficient,
    or None once some X = M_{k-1} + c I has an entry outside [-2^h, 2^h).

    ``rows`` lists the nonzeros of each row of M as (value, column) pairs.
    Packing is linear, so each packed row is exactly the packing of the
    true row.  By induction every X is checked in [-2^h, 2^h), so M X and
    the next X lie in the balanced slot range (``_slot_width``) and
    decode uniquely: the trace reads slot i of row i of M X, and the
    bound check on X is exact.
    """
    w = _slot_width(h, max((sum(abs(x) for x, _ in row) for row in rows), default=0), n)
    ones = sum(1 << (j * w) for j in range(n))  # 1 in every slot
    lo = ones << h  # 2^h in every slot
    hi = ones * ((1 << w) - (1 << (h + 1)))  # bits h+1 .. w-1 of every slot
    bias = ones << (w - 1)  # 2^(w-1) in every slot, for balanced decoding
    mask = (1 << w) - 1
    coeffs = {n: 1}
    x = [0] * n
    c = 1
    for k in range(1, n + 1):
        x = [xi + (c << (i * w)) for i, xi in enumerate(x)]
        for xi in x:
            # slots in [-2^h, 2^h) iff the slots of xi + lo are in [0, 2^(h+1))
            z = xi + lo
            if z < 0 or z & hi:
                return None
        x = [sum(v * x[j] for v, j in row) for row in rows]
        trace = sum(((xi + bias) >> (i * w)) & mask for i, xi in enumerate(x))
        trace -= n << (w - 1)
        if trace % k != 0:
            raise WorkbenchError(
                f"charpoly: trace {trace} at step {k} is not divisible by {k}"
            )
        c = -trace // k
        coeffs[n - k] = c
    return coeffs


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
