"""Byte pins of the command line: one sha256 per grid of commands.

Each grid runs ``cli.main`` in process on a list of argument lists and
hashes, per command, the arguments, stdout, stderr and exit code into one
sha256, which must equal the grid's entry in ``digests.json``.  Help text
wraps at the terminal width, so COLUMNS is fixed at 80.  argparse lays out
help and usage differently across Python versions, so the help grid is
recorded per Python minor version, and a version with no entry fails with
a request to record one.  A change that moves bytes on purpose, or a new
Python version whose help text has been read, re-records them with

    PYTHONPATH=src python tests/test_digests.py

which keeps the help digests of other versions; name every grid that moved.
"""
import hashlib
import io
import json
import os
import pathlib
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from lspacecert import cli

DIGESTS = pathlib.Path(__file__).with_name("digests.json")
PER_VERSION = {"help"}  # grids recorded per Python version, as "3.11"
VERSION = "%d.%d" % sys.version_info[:2]

COMMANDS = ("curves", "intersect", "twist", "alexander", "staircase", "certify",
            "validate", "sweep")

# twists that order lifts passing through a common axis vertex
TWIST_PINS = (
    ("2", "T(B[2,1])^-2(a1)"),
    ("3", "phi[1](c)"),
    ("2", "psi(B[2,5])"),
    ("2", "T(c)^3(psi(B[2,2]))"),
    ("3", "T(psi(b3))^2(B[3,2])"),
    ("2", "T(B[2,2])(psi(B[2,2]))"),
)


def _certify(*extra):
    pairs = [(g, n) for g in range(2, 9) for n in range(31)]
    pairs += [(2, 400), (3, 400), (40, 10)]
    return [["certify", "-g", str(g), "-n", str(n), *extra] for g, n in pairs]


def _intersect():
    """Each system curve against B[g,n], in both orders."""
    out = []
    for g in range(2, 6):
        names = [f"{x}{i}" for x in "ab" for i in range(1, g + 1)] + ["c"]
        for n in range(5, 31):
            for name in names:
                for pair in ((name, f"B[{g},{n}]"), (f"B[{g},{n}]", name)):
                    out.append(["intersect", "-g", str(g), *pair])
    return out


# Curve expressions: every production, with whitespace variants, and every
# error the parser raises, including nesting at and one past MAX_DEPTH.
# T(a1)^0(y) is y, so the deep forms cost no surgery.
_DEEP = 100  # dsl._Parser.MAX_DEPTH, written out so the grid pins it
EXPRESSIONS = (
    # atoms
    "a1", "a2", "a3", "b1", "b2", "b3", "c", " a1", "a1 ", "\ta1\n", "a 1", "a01",
    "b002", "a1\u00a0", "\u2003b2", "B[2,0]", "B[2,1]", "B[3,2]", "B[ 2 , 5 ]",
    " B [2,3] ", "B[2,-0]", "B[3,-0]",
    # twists
    "T(a1)(b1)", "T(a1)^2(b1)", "T(a1)^-2(b1)", "T ( a1 ) ^ 3 ( b1 )", "T(c)^0(b2)",
    "T(b1)^5(a1)", "T(B[2,1])^-2(a1)", "T(c)^3(psi(B[2,2]))", "T(a2)^-1(T(b2)(c))",
    "T(T(a1)(b1))^2(c)", "T(a1)^ -2(b1)", "T(a1)^00(b1)",
    # monodromies
    "psi(a1)", "psi (b1)", "psi( c )", "psi(B[2,1])", "psi(B[3,1])", "phi[1](c)",
    "phi[0](a1)", "phi[-1](b1)", "phi [ 2 ] ( b1 )", "phi[-2](c)", "phi[1](psi(b2))",
    # errors: empty, index, genus, sign
    "", " ", " \t ", "a0", "b9", "a", "b", "a99999999999999999999",
    "B[3,1]", "B[2,-1]", "B[3,-1]", "B[99999999999999999999,1]", "B[2,- 1]",
    "B[3,- 1]",
    # errors: truncated productions
    "ps", "p", "psi", "psi(", "psi(a1", "phi", "phi[", "phi[1", "phi[1]", "phi[1](",
    "phi[1](c", "phi[-](c)", "T", "T(", "T(a1", "T(a1)", "T(a1)^", "T(a1)^2",
    "T(a1)^2(", "T(a1)^2(b1", "B", "B[", "B[2", "B[2,", "B[2,1", "B[2;1]", "B(2,1)",
    # errors: wrong tokens
    "T(c^3(b2)", "T(c)^(b2)", "T(c)^-(b2)", "T(a1)^+2(b1)", "T(a1)^--2(b1)",
    "psi[a1]", "Psi(a1)", "t(a1)(b1)", "x", "(a1)", "c1", "cc", "a1 b2", "a1)",
    "B[2,1]]", "B[3,1]]", "B[3;1]", "phi(c)", "phi[1]c",
    # errors: characters outside ASCII, and bytes that were not UTF-8
    "a\u00b2", "\u00e9", "\udcff", "\u00e9a1", "a1\u00e9", "T(a1)^\u00b2(b1)",
    "phi[\u00b2](c)", "b\u0661", "T(\u00e9)(b1)", "psi(\udcff)",
    # nesting at MAX_DEPTH, and one level past it in the target, the axis and
    # after whitespace
    "T(a1)^0(" * _DEEP + "b1" + ")" * _DEEP,
    "T(a1)^0(" * (_DEEP + 1) + "b1" + ")" * (_DEEP + 1),
    "T(" * _DEEP + "a1" + ")^0(b1)" * _DEEP,
    "T(" * (_DEEP + 1) + "a1" + ")^0(b1)" * (_DEEP + 1),
    "T(a1)^0( " * (_DEEP + 1) + "b1" + ")" * (_DEEP + 1),
)

GRIDS = {
    "certify-text": _certify(),
    "certify-json": _certify("--json"),
    "validate": [["validate", "-g", str(g), "-n", str(n), "--budget", "200000"]
                 for g in (2, 3) for n in range(1, 41)],
    # and three grids that fail certify's checks, each with the error of
    # its first (g, n)
    "sweep": [["sweep", "-g", "2..8", "-n", "0..14", "--jobs", "1"],
              ["sweep", "-g", "1..3", "-n=-1..0", "--jobs", "1"],
              ["sweep", "-g", "2..3", "-n=-1..1"],
              ["sweep", "-g", "1..40", "-n", "0..3"]],
    "intersect": _intersect(),
    "twist": [["twist", "-g", g, expr] for g, expr in TWIST_PINS],
    "expressions": [["twist", "-g", g, expr] for g in ("2", "3") for expr in EXPRESSIONS],
    # every help text, and the usage message of each command given no arguments
    "help": [["-h"]] + [[c, "-h"] for c in COMMANDS] + [[c] for c in COMMANDS]
    + [["certify", "-g", "x", "-n", "1"], ["validate", "-g", "2", "-n", "1", "-q"]],
}


def grid_digest(commands):
    h = hashlib.sha256()
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        h.update(json.dumps([argv, out.getvalue(), err.getvalue(), code]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_command_output_matches_its_recorded_digest(grid, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    recorded = json.loads(DIGESTS.read_text())[grid]
    if grid in PER_VERSION:
        if VERSION not in recorded:
            pytest.fail(f"no {grid} digest recorded under Python {VERSION}: read its "
                        "output, then record it with PYTHONPATH=src python "
                        "tests/test_digests.py")
        recorded = recorded[VERSION]
    assert grid_digest(GRIDS[grid]) == recorded


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    digests = json.loads(DIGESTS.read_text())
    for name, commands in GRIDS.items():
        digest = grid_digest(commands)
        if name in PER_VERSION:
            digest = {**digests.get(name, {}), VERSION: digest}
        digests[name] = digest
    DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=2) + "\n")
