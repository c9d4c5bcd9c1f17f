import argparse
import concurrent.futures
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from unittest import mock

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lspacecert
import lspacecert.cli as cli
import lspacecert.curves as curves
from lspacecert.certify import Citation, certify
from lspacecert.cli import emit_certificate, main, replay_json
from lspacecert.dsl import _Parser
from lspacecert.errors import AnchorViolation, MalformedInput
from lspacecert.floer import RankInterval, Verdict

from conftest import raises_under_python_O
from oracles import oracle_certificate_json


def run(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


def test_intersect_command():
    code, out = run("intersect", "-g", "2", "a1", "B[2,3]")
    assert code == 0 and out == "12\n"


def test_intersect_symmetric():
    _, one = run("intersect", "-g", "2", "a1", "B[2,3]")
    _, two = run("intersect", "-g", "2", "B[2,3]", "a1")
    assert one == two


def test_alexander_command():
    code, out = run("alexander", "-g", "2", "-n", "7")
    assert code == 0 and out == "t^4 - t^3 + t^2 - t + 1\n"


def test_twist_command_prints_normalized_word():
    code, out = run("twist", "-g", "2", "T(a1)^1(b2)")
    assert code == 0 and out == "e4+\n"


@pytest.mark.parametrize("genus, expr, size, digest", [
    ("2", "T(B[2,1])^-2(a1)", 292,
     "aea6f538a2cf7cd02c4b2ed561c6e02df716dc94daa93a30a0c8278aac42a224"),
    ("3", "phi[1](c)", 368,
     "ca3a377eeb7875d5b8b00b06f5955b5a6ff18e57e90e7699e6104002788f626a"),
    ("2", "psi(B[2,5])", 252,
     "beceb5012635f9c541180e34f6ccee59416c95301788c49f14b387353ef17fe6"),
    ("2", "T(c)^3(psi(B[2,2]))", 708,
     "6349bab463f031b73e3514d327a851a3c5e143793c3c3fc42708b60a2c71b66e"),
    ("3", "T(psi(b3))^2(B[3,2])", 132,
     "b26a56f92776b591db393225a6c9fc7084113a3f17057d907ff8d983eff86ee5"),
    ("2", "T(B[2,2])(psi(B[2,2]))", 4416,
     "a5bc132d79f9b172036c0625576a3b6ea9b29737072abddd5b1e000668f6f4b2"),
])
def test_twist_output_is_pinned_where_crossing_intervals_overlap(genus, expr, size, digest):
    # each twist orders lifts that pass through a common axis vertex; the
    # sizes and SHA-256 digests of stdout were recorded with the pairwise
    # comparator that ordered crossings before the sort key
    code, out = run("twist", "-g", genus, expr)
    data = out.encode()
    assert code == 0
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_curves_command_shows_table():
    code, out = run("curves", "-g", "3")
    assert code == 0
    assert "a1" in out and "c" in out and "intersection table" in out


def test_staircase_command():
    code, out = run("staircase", "t^4 - t^3 + t^2 - t + 1")
    assert code == 0
    assert "deltas: -2 -1 0" in out
    assert "total 5" in out


def test_staircase_of_a_wide_polynomial_prints_its_three_lines():
    # the output size follows the three generators, not the exponent
    code, out = run("staircase", "t^2000000 - t^1000000 + 1")
    assert code == 0
    assert out == (
        "ns:     0 1000000\n"
        "deltas: -1999999 0\n"
        "ranks:  -1000000:1 0:1 1000000:1 (total 3)\n"
    )


@pytest.mark.parametrize("poly", ["t^\u00b2", "t^\u0662 - t + \u0661"])
def test_staircase_of_non_ascii_digits_exits_one(poly, capsys):
    code, out = run("staircase", poly)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: bad exponent at byte 2\n"


@pytest.mark.parametrize("poly, message", [
    ("t^4 - t^3 + t^2 - t + x", "expected coefficient or t at byte 22"),
    ("t ^ x", "bad exponent at byte 4"),
    ("t -  ", "dangling sign at byte 5"),
    # the parse stops at the first non-ASCII character, so the offsets
    # before it count bytes and characters alike
    ("t^4 - t\u00e9", "expected '+' or '-' at byte 7"),
    ("t\u00a0- 1", "expected '+' or '-' at byte 1"),
    ("t - \u00b2\u00b2", "expected coefficient or t at byte 4"),
    # monomials side by side are not a sum, and "*" stands only before t
    ("t^2-t1", "expected '+' or '-' at byte 5"),
    ("tt", "expected '+' or '-' at byte 1"),
    ("t*t", "expected '+' or '-' at byte 1"),
    ("2*3", "expected t at byte 2"),
    ("2 *", "expected t at byte 3"),
    ("*t", "expected coefficient or t at byte 0"),
])
def test_staircase_error_offsets_index_the_text_as_given(poly, message, capsys):
    code, out = run("staircase", poly)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def certificate_schema():
    """The published JSON schema, read from the installed package data."""
    path = resources.files("lspacecert").joinpath("certificate.schema.json")
    return json.loads(path.read_text())


def test_certify_text_final_line():
    code, out = run("certify", "-g", "2", "-n", "1")
    assert code == 0
    assert "16n^2-5 = 11 > 1" in out.splitlines()[-1]
    code, out = run("certify", "-g", "2", "-n", "0")
    assert code == 0
    assert "inconclusive" in out.splitlines()[-1]


def test_certify_json_matches_schema_and_values():
    code, out = run("certify", "-g", "3", "-n", "2", "--json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, certificate_schema())
    assert data["final_bound"] == 59
    assert data["verdict"] == "obstruction_found"


def test_json_schema_over_sweep_range():
    schema = certificate_schema()
    for g in (2, 3, 4):
        for n in range(11):
            data = json.loads(emit_certificate(certify(g, n), "json"))
            jsonschema.validate(data, schema)


def test_emission_is_deterministic_and_replays():
    cert = certify(2, 2)
    blob = emit_certificate(cert, "json")
    assert blob == emit_certificate(certify(2, 2), "json")
    replayed = replay_json(blob)
    assert emit_certificate(replayed, "json") == blob
    assert replayed.verdict is cert.verdict


@pytest.mark.parametrize(
    "g, n",
    [(g, n) for g in range(2, 9) for n in range(15)] + [(20, 2), (40, 10), (2, 400), (3, 400)],
)
def test_json_emission_matches_the_dumps_oracle(g, n):
    cert = certify(g, n)
    assert emit_certificate(cert, "json") == oracle_certificate_json(cert)


def _with_step(cert, k, **fields):
    steps = list(cert.steps)
    steps[k] = steps[k]._replace(**fields)
    return cert._replace(steps=tuple(steps))


@pytest.mark.parametrize(
    "k, fields",
    [
        (0, {"output": RankInterval(0, None)}),
        (13, {"output": -7}),
        (0, {"inputs": ()}),
        (-1, {"inputs": ()}),
        (0, {"inputs": ("curve:b\u00b2",)}),
        (0, {"label": 'rk HF(a\u2081, b) \u2265 4 \u2014 "\u00e9" \\ \n\t\x01 \U0001d53d'}),
        (5, {"citation": Citation("axiom.twist-triangle", "\u00e9\"\\/")}),
    ],
    ids=["hi-null", "negative-output", "no-inputs", "conclusion-no-inputs", "non-ascii-input",
         "non-ascii-label", "escaped-quote"],
)
def test_json_emission_of_synthetic_steps_matches_the_dumps_oracle(k, fields):
    cert = _with_step(certify(2, 1), k, **fields)
    blob = emit_certificate(cert, "json")
    assert blob == oracle_certificate_json(cert)
    assert blob.isascii()


def test_main_builds_its_parser_once_and_matches_a_fresh_process(monkeypatch, capsys):
    builds = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counting(self, **kwargs):
        builds.append(self.prog)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    # help text wraps at the terminal width: fix it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    cli._build_parser.cache_clear()
    src = os.path.dirname(os.path.dirname(lspacecert.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    calls = [
        ("certify", "-g", "2", "-n", "1"),
        ("certify", "-g", "2"),
        ("--help",),
        ("certify", "-g", "3", "-n", "2", "--json"),
    ]
    for argv, expected_code in zip(calls, (0, 1, 0, 0)):
        code, out = run(*argv)
        captured = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "lspacecert.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert code == proc.returncode == expected_code
        assert out + captured.out == proc.stdout
        assert captured.err == proc.stderr
    assert builds == ["lspacecert"]


@pytest.mark.parametrize(
    "text",
    ['{"n": 1}', '{"genus": 2}', '{"genus": 2, "n": "1"}', '{"genus": 2.0, "n": 1}', "[1]",
     "not json", "", '{"genus": 2, "n": 1'],
)
def test_replay_of_a_malformed_document_is_a_typed_error(text):
    with pytest.raises(MalformedInput):
        replay_json(text)


def test_replay_of_a_malformed_document_is_a_typed_error_even_under_python_O():
    assert raises_under_python_O(
        """
        from lspacecert.cli import replay_json
        for text in ('{"n": 1}', '{"genus": 2, "n": "1"}'):
            try:
                replay_json(text)
            except MalformedInput:
                continue
            raise SystemExit(1)
        replay_json("[1]")
        """,
        "MalformedInput",
    )


def test_validate_command():
    code, out = run("validate", "-g", "2", "-n", "1")
    assert code == 0
    assert "bound=13" in out and "non_isotopic=True" in out
    assert int(out.split("direct=")[1].split()[0]) >= 13


def test_validate_budget_error(capsys):
    code, _ = run("validate", "-g", "2", "-n", "3", "--budget", "5")
    assert code == 1
    # the product of the two word lengths, 160001 x 240003, is refused at the
    # default budget before any count runs
    code, out = run("validate", "-g", "2", "-n", "20000")
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert "BudgetExceeded" in err and "word-length product 38400720003 " in err


def test_sweep_command_verifies_verdicts():
    code, out = run("sweep", "-g", "2..3", "-n", "0..2")
    assert code == 0
    assert "6 certificates, 0 mismatches" in out


def test_sweep_parallel_jobs():
    code, out = run("sweep", "-g", "2..3", "-n", "0..2", "--jobs", "2")
    assert code == 0
    assert "6 certificates, 0 mismatches" in out


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swaps sweep's process pool for an in-process map and returns the
    max_workers of every pool sweep asks for, so no test forks workers."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return sizes


def test_importing_the_cli_loads_no_process_pool():
    src = os.path.dirname(os.path.dirname(lspacecert.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, lspacecert.cli; print('concurrent.futures' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout == "False\n"


def test_sweep_pool_is_no_larger_than_its_tasks(pool_sizes):
    # one task per genus, the largest first, and the rows in (g, n) order
    code, out = run("sweep", "-g", "2..4", "-n", "0..1", "--jobs", "5000")
    assert code == 0 and "6 certificates, 0 mismatches" in out
    assert [line.split()[:2] for line in out.splitlines()[:-1]] == [
        [f"g={g}", f"n={n}"] for g in (2, 3, 4) for n in (0, 1)
    ]
    assert pool_sizes == [3]
    # one genus is one task, which needs no pool at all
    code, out = run("sweep", "-g", "2", "-n", "0..2", "--jobs", "5000")
    assert code == 0 and "3 certificates, 0 mismatches" in out
    assert pool_sizes == [3]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_fewer_than_one_job(jobs, pool_sizes, capsys):
    code, out = run("sweep", "-g", "2", "-n", "0..1", "--jobs", jobs)
    assert code == 1 and out == "" and pool_sizes == []
    assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["-g", "-n"])
def test_sweep_empty_range_exits_one(flag, capsys):
    ranges = {"-g": "2", "-n": "0..1", flag: "5..2"}
    code, out = run("sweep", "-g", ranges["-g"], "-n", ranges["-n"])
    assert code == 1 and out == ""
    assert "empty range '5..2'" in capsys.readouterr().err


@pytest.mark.parametrize("ranges, error", [
    (("1..40", "0..3"), "GenusTooSmall: genus 1 < 2"),
    (("1..3", "-1..0"), "GenusTooSmall: genus 1 < 2"),
    (("2..3", "-1..1"), "NegativePower: twist count n = -1 must"),
])
def test_a_failing_sweep_raises_its_first_error_before_any_genus_runs(
    ranges, error, pool_sizes, monkeypatch, capsys
):
    # the error of the smallest (g, n), as a sweep in (g, n) order would
    # raise it, and no certificate is built, in process or in a pool
    monkeypatch.setattr(cli, "certify", lambda g, n: pytest.fail(f"certified ({g}, {n})"))
    code, out = run("sweep", "-g", ranges[0], f"-n={ranges[1]}", "--jobs", "4")
    assert code == 1 and out == "" and pool_sizes == []
    assert f"error: {error}" in capsys.readouterr().err


def test_sweep_mismatch_exits_two(monkeypatch):
    real = certify

    class Fake:
        final_bound = 11
        verdict = Verdict.INCONCLUSIVE

    monkeypatch.setattr(cli, "certify", lambda g, n: Fake() if n == 1 else real(g, n))
    code, out = run("sweep", "-g", "2", "-n", "0..1")
    assert code == 2
    assert "MISMATCH" in out


def test_domain_errors_exit_one(capsys):
    code, _ = run("certify", "-g", "1", "-n", "1")
    assert code == 1
    assert "GenusTooSmall" in capsys.readouterr().err


def test_expression_errors_exit_one(capsys):
    code, _ = run("intersect", "-g", "2", "T(c^3(b2)", "a1")
    assert code == 1
    err = capsys.readouterr().err
    assert "byte 3" in err


@pytest.mark.parametrize("expr, message", [
    # a no-break space is two UTF-8 bytes and an ideographic space three
    ("\u00a0\u00a0T(c)(q9)", "ExprSyntaxError: at byte 9: found 'q'"),
    ("\u00a0a9", "IndexOutOfRange: at byte 3: a9 needs"),
    ("\u3000B[3,1]", "IndexOutOfRange: at byte 5: B[3,_] does not match"),
])
def test_expression_error_offsets_count_utf8_bytes(expr, message, capsys):
    code, out = run("twist", "-g", "2", expr)
    assert code == 1 and out == ""
    assert message in capsys.readouterr().err


def test_usage_error_exit_code():
    code, _ = run("no-such-command")
    assert code == 1


def test_deeply_nested_expression_is_a_syntax_error(capsys):
    depth = 3000
    expr = "psi(" * depth + "b2" + ")" * depth
    code, out = run("twist", "-g", "2", expr)
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert "ExprSyntaxError" in err
    # psi( is four bytes; the target of psi( number MAX_DEPTH + 1 is one level too deep
    assert f"at byte {4 * (_Parser.MAX_DEPTH + 1)}:" in err


def test_emitting_a_certificate_without_conclusion_is_a_typed_error_even_under_python_O():
    cert = certify(2, 1)
    for steps in (cert.steps[:-1], ()):
        for fmt in ("text", "json"):
            with pytest.raises(AnchorViolation):
                emit_certificate(cert._replace(steps=steps), fmt)
    assert raises_under_python_O(
        """
        from lspacecert.certify import certify
        from lspacecert.cli import emit_certificate
        cert = certify(2, 1)
        truncated = cert._replace(steps=cert.steps[:-1])
        try:
            emit_certificate(truncated, "text")
        except AnchorViolation:
            emit_certificate(truncated, "json")
        """,
        "AnchorViolation",
    )


def test_walk_bound_exits_one_with_a_message(monkeypatch, capsys):
    # a negative margin puts the cap below the first step a ray shares with c
    monkeypatch.setattr(curves, "_WALK_MARGIN", -10**6)
    code, out = run("intersect", "-g", "2", "c", "T(a1)(c)")
    assert code == 1 and out == ""
    assert "WalkBoundExceeded" in capsys.readouterr().err


def test_oversized_twist_power_exits_one_with_a_message(capsys):
    # the twist's letter bound is past the limit, so it fails before allocating
    code, out = run("twist", "-g", "2", "T(c)^99999999999999999999(b2)")
    assert code == 1 and out == ""
    assert capsys.readouterr().err == (
        "error: BudgetExceeded: a twist of up to 799999999999999999993 letters "
        "is past the letter limit 50000000\n"
    )


@pytest.mark.parametrize("limit", [MemoryError, RecursionError])
def test_interpreter_limits_exit_one_with_a_message(monkeypatch, capsys, limit):
    # a limit raised with no message gets a fixed one
    bare = {MemoryError: "out of memory", RecursionError: "interpreter limit reached"}[limit]
    for raised, message in ((limit("limit reached"), "limit reached"), (limit(), bare)):
        def exhausted(args, out):
            raise raised

        monkeypatch.setattr(cli, "_cmd_twist", exhausted)
        code, out = run("twist", "-g", "2", "b2")
        assert code == 1 and out == ""
        assert capsys.readouterr().err == f"error: {limit.__name__}: {message}\n"


def test_oversized_power_reaches_no_traceback_from_the_command_line():
    src = os.path.dirname(os.path.dirname(lspacecert.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "lspacecert.cli", "certify", "-g", "2", "-n",
         "99999999999999999999"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: BudgetExceeded: ")
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# the contract of the command line: every argument list ends in a result or
# one typed error, never a traceback

COMMANDS = ("curves", "intersect", "twist", "alexander", "staircase", "certify",
            "validate", "sweep")
NOT_INT = st.sampled_from(["x", "2.5", "", "0x2", "1e1", "\u00b2"])
GENUS = st.one_of(st.integers(-1, 41).map(str), NOT_INT)
# 1249 is the largest n whose B[g,n] of 8n + 1 letters fits the test's limit
COUNT = st.one_of(
    st.integers(-1, 3), st.sampled_from([40, 400, 1249, 1250, 10**8, 10**20])
).map(str) | NOT_INT
POWER = st.integers(-30, 30) | st.sampled_from([10**8, -10**20])


def _expressions(g):
    """Expressions at genus g, mostly well formed, and some character soup."""
    good = st.one_of(
        st.builds("{}{}".format, st.sampled_from("ab"), st.integers(1, max(g, 1))),
        st.just("c"),
        st.builds("B[{},{}]".format, st.just(g), st.integers(0, 40)),
    )
    bad = st.one_of(
        st.builds("{}{}".format, st.sampled_from("ab"), st.sampled_from([0, g + 1])),
        st.builds("B[{},{}]".format, st.just(g) | st.just(g + 1), COUNT),
    )
    expr = st.recursive(st.one_of(*[good] * 5, bad), lambda x: st.one_of(
        st.builds("psi({})".format, x),
        st.builds("phi[{}]({})".format, st.integers(-1, 40) | st.just(10**20), x),
        st.builds("T({})^{}({})".format, x, POWER, x),
        st.builds("T({})({})".format, x, x),
    ), max_leaves=5)
    return st.one_of(expr, expr, expr, st.text("abcBT()[]^,-0123psih\u00e9 ", max_size=12))


POLYNOMIAL = st.sampled_from([
    "t^4 - t^3 + t^2 - t + 1", "t^2 - t + 1", "t^2000000 - t^1000000 + 1",
    "t^2 + t + 1", "1", "",
]) | st.lists(st.sampled_from(
    ["t", "t^", "2", "-", "+", "*", " ", "^-", "1", "x", "\u00b2", "10", "t^4"]
), max_size=8).map("".join)


def _span(lo):
    """A value lo, or a range from lo over up to three values."""
    return st.integers(-1, 2).map(lambda d: f"{lo}..{lo + d}" if d >= 0 else str(lo))


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(COMMANDS))
    g = draw(st.integers(-1, 41))
    genus = ["-g", draw(st.one_of(*[st.just(str(g))] * 3, GENUS))]
    n = ["-n", draw(COUNT)]
    if command == "curves":
        return [command, *genus]
    if command in ("twist", "intersect"):
        exprs = [draw(_expressions(g)) for _ in range(1 + (command == "intersect"))]
        return [command, *genus, *exprs]
    if command == "alexander":
        return [command, *genus, *n]
    if command == "staircase":
        return [command, draw(POLYNOMIAL)]
    if command == "certify":
        return [command, *genus, *n] + draw(st.sampled_from([[], ["--json"]]))
    if command == "validate":
        budget = draw(st.sampled_from([[], ["--budget", "0"], ["--budget", "-1"],
                                       ["--budget", "10000000"], ["--budget", "x"]]))
        return [command, *genus, *n, *budget]
    jobs = ["--jobs", draw(st.sampled_from(["1", "0", "-1"]))]  # never a pool
    return [command, "-g", draw(_span(g)), "-n", draw(_span(draw(st.integers(-1, 3)))), *jobs]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(command_lines())
def test_every_command_line_ends_in_a_result_or_one_error(argv):
    out, err = io.StringIO(), io.StringIO()
    # a lowered letter limit keeps every drawn twist small
    with mock.patch.object(curves, "_MAX_LETTERS", 10**4):
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    if code == 1:
        assert out == "", argv
        lines = err.splitlines()
        usage = err.startswith("usage: ") and ": error: " in lines[-1]
        error = len(lines) == 1 and err.startswith("error: ") and err.strip() != "error:"
        assert usage or error, (argv, err)
