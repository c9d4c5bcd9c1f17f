import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lspacecert.curves import intersection_number, is_isotopic
from lspacecert.dsl import (
    ApplyPsi,
    AtomCurve,
    Twist,
    TwistedBeta,
    curve_from_text,
    eval_expression,
    parse_expression,
)
from lspacecert.errors import ExprSyntaxError, IndexOutOfRange, WorkbenchError
from lspacecert.mcg import apply_word, beta_gn, monodromy_psi, standard_curve_system


def test_parse_twist_expression():
    node = parse_expression("T(c)^3(b2)", 2)
    assert node == Twist(AtomCurve("c"), 3, AtomCurve("b", 2))
    assert is_isotopic(eval_expression(node, 2), beta_gn(2, 3))


def test_parse_psi_application():
    node = parse_expression("psi(B[2,4])", 2)
    assert node == ApplyPsi(TwistedBeta(2, 4))
    expect = apply_word(monodromy_psi(2), beta_gn(2, 4))
    assert is_isotopic(eval_expression(node, 2), expect)


def test_parse_is_whitespace_insensitive():
    a = parse_expression("T( c )^ 3 ( b2 )", 2)
    b = parse_expression("T(c)^3(b2)", 2)
    assert a == b


def test_nested_twists():
    curve = curve_from_text("T(T(c)^1(b2))^2(a1)", 2)
    sys2 = standard_curve_system(2)
    inner = curve_from_text("T(c)^1(b2)", 2)
    from lspacecert.curves import dehn_twist

    assert is_isotopic(curve, dehn_twist(sys2.alphas[0], inner, 2))


def test_phi_application_matches_definition():
    lhs = curve_from_text("phi[2](a1)", 2)
    rhs = curve_from_text("T(B[2,2])^1(psi(a1))", 2)
    assert is_isotopic(lhs, rhs)


def test_unmatched_parenthesis_is_positioned():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expression("T(c^3(b2)", 2)
    assert exc.value.offset == 3
    assert "')'" in exc.value.expected


def test_trailing_garbage_rejected():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expression("a1 b2", 2)
    assert exc.value.expected == ("end of input",)


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        parse_expression("a5", 3)
    with pytest.raises(IndexOutOfRange):
        parse_expression("B[3,1]", 2)


def test_default_power_is_one():
    assert parse_expression("T(c)(b2)", 2) == Twist(AtomCurve("c"), 1, AtomCurve("b", 2))


def test_negative_twist_power_parses():
    node = parse_expression("T(a2)^-2(b2)", 2)
    assert node.power == -2


def test_intersect_symmetry_through_expressions():
    a = curve_from_text("a1", 2)
    b = curve_from_text("B[2,3]", 2)
    assert intersection_number(a, b) == intersection_number(b, a) == 12


@settings(max_examples=400, deadline=None)
@given(st.text(max_size=24))
def test_parser_totality_fuzz(text):
    # every input either parses or raises a positioned domain error, whose
    # offset is the UTF-8 byte offset of a character boundary
    try:
        parse_expression(text, 2)
    except ExprSyntaxError as e:
        assert e.offset in {len(text[:k].encode("utf-8")) for k in range(len(text) + 1)}
    except WorkbenchError:
        pass


@pytest.mark.parametrize("text", ["a\u00b2", "a\u0663", "B[2,\u00b9]"])
def test_non_ascii_digits_are_a_syntax_error(text):
    with pytest.raises(ExprSyntaxError):
        parse_expression(text, 2)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="abcBTpsi()[]^,0123456789- ", max_size=16))
def test_parser_totality_fuzz_token_soup(text):
    try:
        parse_expression(text, 3)
    except WorkbenchError:
        pass
