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
from .errors import ExprSyntaxError, IndexOutOfRange
from .mcg import apply_word, beta_gn, monodromy_phi, monodromy_psi, standard_curve_system
from .curves import dehn_twist
from .record import record


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

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else None

    def expect(self, ch):
        self.skip_ws()
        if self.i < len(self.text) and self.text[self.i] == ch:
            self.i += 1
            return
        self.error([repr(ch)])

    def integer(self, allow_negative=False):
        self.skip_ws()
        start = self.i
        if allow_negative and self.i < len(self.text) and self.text[self.i] == "-":
            self.i += 1
        digits = self.i
        # ASCII only: str.isdigit also accepts "²", which int() rejects
        while self.i < len(self.text) and "0" <= self.text[self.i] <= "9":
            self.i += 1
        if self.i == digits:
            self.i = start
            self.error(["integer"])
        return int(self.text[start:self.i])

    def match_word(self, word):
        self.skip_ws()
        if self.text.startswith(word, self.i):
            self.i += len(word)
            return True
        return False

    def curve_index(self, family):
        offset = self.i
        idx = self.integer()
        if not 1 <= idx <= self.g:
            raise IndexOutOfRange(
                f"at byte {self.byte(offset)}: "
                f"{family}{idx} needs 1 <= index <= genus {self.g}"
            )
        return idx

    def nested(self):
        """Parse a subexpression one level deeper than the current one."""
        if self.depth == self.MAX_DEPTH:
            self.skip_ws()
            self.error([f"an expression nested at most {self.MAX_DEPTH} deep"])
        self.depth += 1
        node = self.expr()
        self.depth -= 1
        return node

    def expr(self):
        self.skip_ws()
        if self.match_word("psi"):
            self.expect("(")
            target = self.nested()
            self.expect(")")
            return ApplyPsi(target)
        if self.match_word("phi"):
            self.expect("[")
            n = self.integer(allow_negative=True)
            self.expect("]")
            self.expect("(")
            target = self.nested()
            self.expect(")")
            return ApplyPhi(n, target)
        ch = self.peek()
        if ch == "T":
            self.i += 1
            self.expect("(")
            about = self.nested()
            self.expect(")")
            power = 1
            if self.peek() == "^":
                self.i += 1
                power = self.integer(allow_negative=True)
            self.expect("(")
            target = self.nested()
            self.expect(")")
            return Twist(about, power, target)
        if ch == "B":
            self.i += 1
            self.expect("[")
            offset = self.i
            gg = self.integer()
            if gg != self.g:
                raise IndexOutOfRange(
                    f"at byte {self.byte(offset)}: B[{gg},_] does not match genus {self.g}"
                )
            self.expect(",")
            n = self.integer(allow_negative=True)
            self.expect("]")
            return TwistedBeta(gg, n)
        if ch in ("a", "b"):
            self.i += 1
            return AtomCurve(ch, self.curve_index(ch))
        if ch == "c":
            self.i += 1
            return AtomCurve("c")
        self.error(["'a'", "'b'", "'c'", "'B['", "'T('", "'psi('", "'phi['"])


def parse_expression(text, g):
    """Parse a curve expression against a fixed genus.

    Returns the syntax tree, or raises ExprSyntaxError with a byte offset
    and expected-token set, or IndexOutOfRange for indices outside 1..g.
    """
    p = _Parser(text, g)
    node = p.expr()
    p.skip_ws()
    if p.i != len(text):
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
