"""A small expression language for curves and twist applications.

Grammar (LL(1), whitespace between tokens is ignored):

    expr  := atom
           | "T(" expr ")" power? "(" expr ")"
           | "psi(" expr ")"
           | "phi[" int "](" expr ")"
    atom  := ("a" | "b") int | "c" | "B[" int "," int "]"
    power := "^" int

``T(x)^k(y)`` is the k-th twist of y about x, ``psi`` and ``phi[n]`` apply
the named monodromies.  Every failure carries the UTF-8 byte offset
where the parse stopped and the tokens that would have been accepted
there.
"""
import re

from .errors import ExprSyntaxError, IndexOutOfRange
from .mcg import apply_word, beta_gn, monodromy_phi, monodromy_psi, standard_curve_system
from .curves import dehn_twist
from .record import record

# ASCII digits only: str.isdigit also accepts "²", which int() rejects
_UNSIGNED = re.compile("[0-9]+")
_SIGNED = re.compile("-?[0-9]+")


class AtomCurve(record("AtomCurve", "family index", defaults=(0,))):
    """A system curve: family "a", "b" or "c", and its index (0 for c)."""

    __slots__ = ()


class TwistedBeta(record("TwistedBeta", "genus n")):
    __slots__ = ()


class Twist(record("Twist", "about power target")):
    __slots__ = ()


class ApplyPsi(record("ApplyPsi", "target")):
    __slots__ = ()


class ApplyPhi(record("ApplyPhi", "n target")):
    __slots__ = ()


class _Parser:
    """One token rule: ``take`` skips whitespace and consumes a token if it
    comes next, and every production is read by it."""

    # Subexpressions nest at most this deep, so parsing and evaluation
    # stay far below the interpreter's recursion limit.
    MAX_DEPTH = 100

    def __init__(self, text, g):
        self.text = text
        self.g = g
        self.i = 0
        self.depth = 0

    def byte(self, i):
        """UTF-8 byte offset of character i; surrogateescape gives back the
        bytes of a command-line argument that was not valid UTF-8."""
        return len(self.text[:i].encode("utf-8", "surrogateescape"))

    def error(self, expected):
        found = self.text[self.i] if self.i < len(self.text) else None
        raise ExprSyntaxError(self.byte(self.i), expected, found)

    def take(self, token):
        """Skip whitespace, then consume ``token`` if it comes next."""
        text, i = self.text, self.i
        while i < len(text) and text[i].isspace():
            i += 1
        self.i = i
        if text.startswith(token, i):
            self.i = i + len(token)
            return True
        return False

    def expect(self, token):
        if not self.take(token):
            self.error([repr(token)])

    def integer(self, signed=False):
        self.take("")
        m = (_SIGNED if signed else _UNSIGNED).match(self.text, self.i)
        if m is None:
            self.error(["integer"])
        self.i = m.end()
        return int(m[0])

    def index(self, lo, hi, message):
        """An integer in lo..hi, else IndexOutOfRange at its offset, with
        ``message`` formatted by the integer read and the genus."""
        offset = self.i
        value = self.integer()
        if not lo <= value <= hi:
            raise IndexOutOfRange(f"at byte {self.byte(offset)}: {message.format(value, self.g)}")
        return value

    def group(self):
        """``"(" expr ")"``, with the expression one level deeper."""
        self.expect("(")
        if self.depth == self.MAX_DEPTH:
            self.take("")
            self.error([f"an expression nested at most {self.MAX_DEPTH} deep"])
        self.depth += 1
        node = self.expr()
        self.depth -= 1
        self.expect(")")
        return node

    def expr(self):
        """The production that the next character starts."""
        self.take("")
        ch = self.text[self.i:self.i + 1]
        if ch in ("a", "b", "c", "B", "T"):
            self.take(ch)
        if ch in ("a", "b"):
            return AtomCurve(ch, self.index(1, self.g, ch + "{} needs 1 <= index <= genus {}"))
        if ch == "c":
            return AtomCurve(ch)
        if ch == "B":
            self.expect("[")
            g = self.index(self.g, self.g, "B[{},_] does not match genus {}")
            self.expect(",")
            n = self.integer(signed=True)
            self.expect("]")
            return TwistedBeta(g, n)
        if ch == "T":
            about = self.group()
            power = self.integer(signed=True) if self.take("^") else 1
            return Twist(about, power, self.group())
        if self.take("psi"):
            return ApplyPsi(self.group())
        if self.take("phi"):
            self.expect("[")
            n = self.integer(signed=True)
            self.expect("]")
            return ApplyPhi(n, self.group())
        self.error(["'a'", "'b'", "'c'", "'B['", "'T('", "'psi('", "'phi['"])


def parse_expression(text, g):
    """Parse a curve expression against a fixed genus.

    Returns the syntax tree, or raises ExprSyntaxError with a byte offset
    and expected-token set, or IndexOutOfRange for indices outside 1..g.
    """
    p = _Parser(text, g)
    node = p.expr()
    p.take("")
    if p.i < len(text):
        p.error(["end of input"])
    return node


def eval_expression(node, g):
    """Evaluate a parsed expression to a normalized Curve."""
    system = standard_curve_system(g)
    if isinstance(node, AtomCurve):
        if node.family == "c":
            return system.c
        if node.family == "a":
            return system.alphas[node.index - 1]
        return system.betas[node.index - 1]
    if isinstance(node, TwistedBeta):
        return beta_gn(g, node.n)
    if isinstance(node, Twist):
        about = eval_expression(node.about, g)
        target = eval_expression(node.target, g)
        return dehn_twist(target, about, node.power)
    if isinstance(node, ApplyPsi):
        return apply_word(monodromy_psi(g), eval_expression(node.target, g))
    if isinstance(node, ApplyPhi):
        return apply_word(monodromy_phi(g, node.n), eval_expression(node.target, g))
    raise TypeError(f"not an expression node: {node!r}")


def curve_from_text(text, g):
    return eval_expression(parse_expression(text, g), g)
