"""Integer Laurent polynomials in one variable t.

Just enough arithmetic for characteristic polynomials of homological
monodromies and for the staircase reader: exact integer coefficients,
palindrome tests, parsing and printing in the usual knot-table style.
"""
from dataclasses import dataclass

from .errors import WorkbenchError


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

    def negated(self):
        return LaurentPoly(tuple((e, -c) for e, c in self.coeffs))

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
    """det(t I - M) of an integer matrix, by the Faddeev-LeVerrier scheme.

    All arithmetic is exact; the divisions in the recurrence are exact on
    integer matrices.  Each of the n steps is one product M . M_k with M
    on the left, so it costs O(nnz(M) n).  Returns the monic LaurentPoly
    of degree n.
    """
    n = len(matrix)
    coeffs = {n: 1}
    mk = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    c = 1
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                mk[i][i] += c
        mk = _mat_mul(matrix, mk)
        trace = sum(mk[i][i] for i in range(n))
        if trace % k != 0:
            raise WorkbenchError(
                f"charpoly: trace {trace} at step {k} is not divisible by {k}; "
                "the matrix is not an integer matrix"
            )
        c = -trace // k
        coeffs[n - k] = c
    return LaurentPoly.from_dict(coeffs)


def _mat_mul(a, b):
    """Product of two square matrices given as sequences of rows.

    Row i of a.b is the sum of x . b[k] over the nonzero entries
    x = a[i][k], so the cost is O(nnz(a) n): zero entries of the left
    factor cost nothing.  Returns a list of row lists.
    """
    n = len(b)
    out = []
    for arow in a:
        row = [0] * n
        for x, brow in zip(arow, b):
            if x:
                row = [r + x * y for r, y in zip(row, brow)]
        out.append(row)
    return out
