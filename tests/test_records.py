"""The immutable records of the package: class-strict equality, tuple
hashing, read-only fields, constructor checks and start-up cost."""
import hashlib
import os
import subprocess
import sys

import pytest

import lspacecert
from lspacecert.certify import certify, cross_validate, verify_certificate
from lspacecert.dsl import ApplyPhi, ApplyPsi, AtomCurve, TwistedBeta, parse_expression
from lspacecert.errors import (
    AnchorViolation,
    GenusTooSmall,
    MalformedInput,
    SurfaceMismatch,
)
from lspacecert.floer import RankInterval, Staircase, lspace_profile
from lspacecert.mcg import TwistWord, monodromy_psi, standard_curve_system
from lspacecert.poly import parse_poly
from lspacecert.surface import SurfaceSpec, chain_boundary_order, standard_surface


def _one_of_each():
    """One instance of every record class, by class name."""
    cert = certify(2, 1)
    stair = Staircase((0, 1, 2), (-2, -1, 0))
    return {
        "LaurentPoly": parse_poly("t^4 - t^3 + t^2 - t + 1"),
        "SurfaceSpec": standard_surface(2),
        "StandardCurveSystem": standard_curve_system(2),
        "TwistWord": monodromy_psi(2),
        "RankInterval": RankInterval(0, 2),
        "Staircase": stair,
        "HfkProfile": lspace_profile(stair),
        "AtomCurve": AtomCurve("c"),
        "TwistedBeta": TwistedBeta(2, 3),
        "Twist": parse_expression("T(a1)^2(b2)", 2),
        "ApplyPsi": ApplyPsi(AtomCurve("a", 1)),
        "ApplyPhi": ApplyPhi(3, AtomCurve("b", 2)),
        "Citation": cert.steps[0].citation,
        "DerivationStep": cert.steps[0],
        "Certificate": cert,
        "CrossValidationReport": cross_validate(2, 1),
    }


def test_every_record_is_unequal_to_its_plain_tuple():
    records = _one_of_each()
    assert len(records) == 16
    for name, rec in records.items():
        assert type(rec).__name__ == name
        plain = tuple(rec)
        assert rec != plain and plain != rec, name
        assert not rec == plain and not plain == rec, name
        assert rec == type(rec)(*rec) and not rec != type(rec)(*rec), name


def test_records_of_two_classes_with_equal_fields_differ():
    assert TwistedBeta(2, 3) != ApplyPhi(2, 3)
    assert not TwistedBeta(2, 3) == ApplyPhi(2, 3)
    assert TwistedBeta(2, 3) == TwistedBeta(2, 3)


def test_verify_certificate_refuses_a_step_output_turned_into_a_plain_tuple():
    cert = certify(2, 1)
    step = cert.steps[0]
    plain = step._replace(output=tuple(step.output))
    with pytest.raises(AnchorViolation):
        verify_certificate(cert._replace(steps=(plain,) + cert.steps[1:]))


def test_records_hash_as_the_tuple_of_their_fields():
    for name, rec in _one_of_each().items():
        if name == "HfkProfile":
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(rec)
        else:
            assert hash(rec) == hash(tuple(rec)), name


def test_fields_are_read_only():
    for rec in _one_of_each().values():
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], None)
    with pytest.raises(AttributeError):
        RankInterval(1).lo = 0


def test_positional_and_keyword_construction_with_defaults():
    assert RankInterval(3) == RankInterval(lo=3) == RankInterval(3, None)
    assert RankInterval(lo=1, hi=2) == RankInterval(1, 2)
    assert AtomCurve("c") == AtomCurve(family="c") == AtomCurve("c", 0)
    assert AtomCurve(family="a", index=2).index == 2
    assert Staircase(ns=(0, 1), deltas=(-1, 0)) == Staircase((0, 1), (-1, 0))


def test_reprs_name_the_fields_as_before():
    # recorded from the records as frozen dataclasses
    records = _one_of_each()
    assert repr(records["RankInterval"]) == "RankInterval(lo=0, hi=2)"
    assert repr(RankInterval(3)) == "RankInterval(lo=3, hi=None)"
    assert repr(records["AtomCurve"]) == "AtomCurve(family='c', index=0)"
    assert repr(records["Staircase"]) == "Staircase(ns=(0, 1, 2), deltas=(-2, -1, 0))"
    assert repr(records["HfkProfile"]) == (
        "HfkProfile(support={0: -2, 1: -1, -1: -1, 2: 0, -2: 0})"
    )
    assert repr(records["SurfaceSpec"]) == (
        "SurfaceSpec(genus=2, cut_arcs=('e1', 'e2', 'e3', 'e4'), "
        "boundary_order=(1, 2, -1, 3, -2, 4, -3, -4))"
    )
    assert repr(records["CrossValidationReport"]) == (
        "CrossValidationReport(genus=2, n=1, direct_value=17, engine_bound=13, "
        "slack=4, non_isotopic=True)"
    )
    digest = hashlib.sha256(repr(records["Certificate"]).encode()).hexdigest()
    assert digest.startswith("0eb348806c39380e")


def test_tampered_replay_reports_both_certificates_as_before():
    cert = certify(2, 1)
    bad = cert.steps[0]._replace(output=RankInterval.exactly(5))
    with pytest.raises(AnchorViolation) as info:
        verify_certificate(cert._replace(steps=(bad,) + cert.steps[1:]))
    text = str(info.value)
    # recorded from the records as frozen dataclasses
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "95ebf8757b1a170008bd536a47c0d9e7dff38fe21499f06952115b6c86b4f5bc"
    )


def test_surface_spec_shows_compares_and_hashes_its_three_fields():
    s = standard_surface(3)
    twin = SurfaceSpec(3, s.cut_arcs, list(s.boundary_order))
    assert twin is not s and twin == s and hash(twin) == hash(s)
    assert twin.boundary_order == s.boundary_order  # kept as a tuple
    assert twin._pos == s._pos and twin.boundary_word() == s.boundary_word()
    assert s._fields == ("genus", "cut_arcs", "boundary_order")
    assert len(s) == 3


def test_twist_word_counts_concatenates_and_drops_zero_powers():
    system = standard_curve_system(2)
    a1, a2 = system.alphas
    word = TwistWord(((a1, 1), (a2, 0), (system.c, -2)))
    assert word.factors == ((a1, 1), (system.c, -2))
    assert len(word) == 2 and len(TwistWord(())) == 0 and not TwistWord(((a1, 0),))
    both = word * TwistWord(((a2, 3),))
    assert type(both) is TwistWord
    assert both.factors == ((a1, 1), (system.c, -2), (a2, 3))
    assert len(both) == 3


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: RankInterval(-1, 2), MalformedInput, "ranks are nonnegative"),
        (lambda: RankInterval(3, 2), MalformedInput, "empty interval [3, 2]"),
        (lambda: Staircase((0, 1), (0,)), MalformedInput,
         "ns and deltas must have equal length"),
        (lambda: Staircase((1,), (0,)), MalformedInput, "staircase must start at grading 0"),
        (lambda: Staircase((0, 2, 1), (0, 0, 0)), MalformedInput,
         "staircase gradings must increase strictly"),
        (lambda: Staircase((0, 1), (0, 0)), MalformedInput,
         "Maslov levels do not satisfy the step recursion"),
        (lambda: SurfaceSpec(1, ("e1", "e2"), (1, 2, -1, -2)), GenusTooSmall, "genus 1 < 2"),
        (lambda: SurfaceSpec(2, ("e1",), chain_boundary_order(2)), MalformedInput,
         "need 4 cut arcs, got 1"),
        (lambda: SurfaceSpec(2, ("e1", "e2", "e3", "e4"), (1, 2, -1, 3, -2, 4, -3, 3)),
         MalformedInput, "boundary_order must contain each signed arc symbol once"),
        (lambda: SurfaceSpec(2, ("e1", "e2", "e3", "e4"), (1, -1, 2, -2, 3, -3, 4, -4)),
         MalformedInput, "cut system regluing has 5 boundary circles, need 1"),
        (lambda: TwistWord(((standard_curve_system(2).c, 1), (standard_curve_system(3).c, 1))),
         SurfaceMismatch, "twist word mixes curves from different surfaces"),
    ],
)
def test_constructor_checks_raise_their_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_replace_runs_the_constructor_checks():
    with pytest.raises(MalformedInput, match="empty interval"):
        RankInterval(1, 2)._replace(hi=0)
    assert RankInterval(1, 2)._replace(hi=5) == RankInterval(1, 5)
    s = standard_surface(2)._replace(cut_arcs=("w", "x", "y", "z"))
    assert s._pos == standard_surface(2)._pos


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh process imports the package for every certificate, so its
    # records are built without the class generator of dataclasses
    src = os.path.dirname(os.path.dirname(lspacecert.__file__))
    code = (
        "import sys, lspacecert.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
