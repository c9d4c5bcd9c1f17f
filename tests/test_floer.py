import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lspacecert.errors import MalformedInput, NotLSpaceForm, SurfaceMismatch
from lspacecert.floer import (
    RankInterval,
    Staircase,
    Verdict,
    hf_rank,
    lspace_obstruction,
    lspace_profile,
    staircase_from_alexander,
    tensor_rank,
    triangle_propagate,
)
from lspacecert.mcg import alexander_polynomial, beta_gn, monodromy_phi, standard_curve_system
from lspacecert.curves import intersection_number, is_isotopic
from lspacecert.poly import LaurentPoly, parse_poly

from conftest import random_curve
from oracles import (
    build_exact_triangle,
    check_exact,
    oracle_staircase_polynomial,
    triangle_dims_realizable,
)


# ---------------------------------------------------------------------------
# hf_rank

def test_hf_rank_examples(sys2):
    b2 = sys2.betas[-1]
    a1, a2 = sys2.alphas
    assert hf_rank(b2, b2) == 2
    assert hf_rank(a1, beta_gn(2, 2)) == 8
    assert hf_rank(beta_gn(2, 2), a2) == 1


def test_hf_rank_two_vs_intersection_zero(sys2):
    # the isotopic case is rank 2 even though iota vanishes
    b2 = sys2.betas[-1]
    assert intersection_number(b2, b2) == 0
    assert hf_rank(b2, b2) == 2


def test_hf_rank_symmetric_and_equal_to_iota_randomized(rng):
    for g in (2, 3):
        for _ in range(20):
            a = random_curve(rng, g, max_len=3)
            b = random_curve(rng, g, max_len=3)
            assert hf_rank(a, b) == hf_rank(b, a)
            if not is_isotopic(a, b):
                assert hf_rank(a, b) == intersection_number(a, b)


def test_hf_rank_surface_mismatch(sys2):
    with pytest.raises(SurfaceMismatch):
        hf_rank(sys2.betas[0], standard_curve_system(3).betas[0])


# ---------------------------------------------------------------------------
# triangle propagation

def test_triangle_examples():
    one = RankInterval.exactly(1)
    zero = RankInterval.exactly(0)
    assert triangle_propagate(one, zero) == one
    big = RankInterval.exactly(16)
    assert triangle_propagate(big, one) == RankInterval(15, 17)
    assert triangle_propagate(zero, zero) == zero


def test_triangle_symmetric_and_unbounded():
    a = RankInterval(2, 5)
    c = RankInterval(1, None)
    assert triangle_propagate(a, c) == triangle_propagate(c, a)
    assert triangle_propagate(a, c) == RankInterval(0, None)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_triangle_contains_every_realizable_rank(a, b, c):
    if not triangle_dims_realizable(a, b, c):
        return
    out = triangle_propagate(RankInterval.exactly(a), RankInterval.exactly(c))
    assert out.contains(b)


def test_triangle_bounds_attained_on_explicit_spaces():
    # matrices over GF(2) realizing each dimension triple; the endpoints
    # of the propagated interval are attained at the right parity
    for a in range(5):
        for c in range(5):
            attained = set()
            for b in range(a + c + 1):
                if triangle_dims_realizable(a, b, c):
                    x, y, z = build_exact_triangle(a, b, c, seed=31 * a + 7 * b + c)
                    assert check_exact(x, y, z, a, b, c)
                    attained.add(b)
            out = triangle_propagate(RankInterval.exactly(a), RankInterval.exactly(c))
            assert min(attained) == out.lo
            assert max(attained) == out.hi


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)
)
def test_triangle_monotone(lo1, w1, lo2, w2):
    a = RankInterval(lo1, lo1 + w1)
    c = RankInterval(lo2, lo2 + w2)
    wider_a = RankInterval(max(0, lo1 - 1), lo1 + w1 + 1)
    out = triangle_propagate(a, c)
    wider = triangle_propagate(wider_a, c)
    assert wider.lo <= out.lo and out.hi <= wider.hi


def test_tensor_rank_zero_absorbs_unbounded():
    assert tensor_rank(RankInterval(0, None), RankInterval.exactly(0)) == (
        RankInterval.exactly(0)
    )
    assert tensor_rank(RankInterval.exactly(3), RankInterval.exactly(4)) == (
        RankInterval.exactly(12)
    )


def test_rank_interval_validation():
    with pytest.raises(MalformedInput):
        RankInterval(-1, 2)
    with pytest.raises(MalformedInput):
        RankInterval(3, 2)


# ---------------------------------------------------------------------------
# staircases

def test_trefoil_staircase():
    stair = staircase_from_alexander(parse_poly("t^2 - t + 1"))
    assert stair.ns == (0, 1)
    assert stair.deltas == (-1, 0)


def test_cinquefoil_staircase():
    stair = staircase_from_alexander(parse_poly("t^4 - t^3 + t^2 - t + 1"))
    assert stair.ns == (0, 1, 2)
    assert stair.deltas == (-2, -1, 0)


def test_staircase_accepts_centered_input():
    stair = staircase_from_alexander(parse_poly("t^2 - t + 1 - t^-1 + t^-2"))
    assert stair.ns == (0, 1, 2)


def test_staircase_with_gaps():
    stair = staircase_from_alexander(parse_poly("t^4 - t^2 + 1"))
    assert stair.ns == (0, 2)
    assert stair.deltas == (-3, 0)


def test_staircase_rejections():
    cases = [
        ("t^2 + t + 1", "alternate"),
        ("t^2 - 2*t + 1", "coefficients"),
        ("t^3 - t^2 + 1", "palindromic"),
        ("t^4 - t^3 + t - 1", "palindromic"),
        ("t^3 - t^2 - t + 1", "span is odd"),
    ]
    for text, fragment in cases:
        with pytest.raises(NotLSpaceForm, match=fragment):
            staircase_from_alexander(parse_poly(text))
    with pytest.raises(NotLSpaceForm, match="central"):
        staircase_from_alexander(LaurentPoly.from_dict({1: 1, -1: 1}))
    with pytest.raises(NotLSpaceForm, match="top"):
        staircase_from_alexander(LaurentPoly.from_dict({0: -1}))


def test_staircase_validates_its_own_recursion():
    with pytest.raises(MalformedInput):
        Staircase((0, 1), (-2, 0))
    with pytest.raises(MalformedInput):
        Staircase((1, 2), (-1, 0))


def test_staircase_roundtrip_through_polynomial():
    for poly in ("t^2 - t + 1", "t^4 - t^3 + t^2 - t + 1", "t^4 - t^2 + 1"):
        stair = staircase_from_alexander(parse_poly(poly))
        again = staircase_from_alexander(
            LaurentPoly.from_dict(oracle_staircase_polynomial(stair))
        )
        assert again == stair


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=0, max_size=5, unique=True))
def test_staircase_roundtrip_randomized(tail):
    ns = tuple([0] + sorted(tail))
    stair = staircase_from_alexander(
        LaurentPoly.from_dict(oracle_staircase_polynomial(Staircase(ns, _deltas(ns))))
    )
    assert stair.ns == ns


def _deltas(ns):
    from lspacecert.floer import _delta_recursion

    return _delta_recursion(ns)


# ---------------------------------------------------------------------------
# profiles

def test_trefoil_profile():
    profile = lspace_profile(staircase_from_alexander(parse_poly("t^2 - t + 1")))
    assert [profile.rank_at(j) for j in (-1, 0, 1)] == [1, 1, 1]
    assert profile.total_rank == 3


def test_cinquefoil_profile_total_rank():
    profile = lspace_profile(
        staircase_from_alexander(parse_poly("t^4 - t^3 + t^2 - t + 1"))
    )
    assert profile.total_rank == 5
    assert profile.support[2] == 0 and profile.support[0] == -2


def test_profile_ranks_capped_at_one_and_count_coefficients():
    for g in (2, 3, 4):
        poly = alexander_polynomial(monodromy_phi(g, 1))
        profile = lspace_profile(staircase_from_alexander(poly))
        ranks = [profile.rank_at(j) for j in range(-g, g + 1)]
        assert set(ranks) <= {0, 1}
        assert sum(ranks) == profile.total_rank == len(poly.coeffs)
        assert profile.rank_at(g) == 1 and profile.rank_at(g - 1) == 1


def test_profile_memory_does_not_grow_with_the_exponent():
    # three generators spread over two million gradings: the profile's
    # size follows the generators, not the width of the grading range
    stair = staircase_from_alexander(parse_poly("t^2000000 - t^1000000 + 1"))
    tracemalloc.start()
    try:
        profile = lspace_profile(stair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert profile.support == {-1000000: 0, 0: -1999999, 1000000: 0}


# ---------------------------------------------------------------------------
# the obstruction

def test_obstruction_verdicts():
    assert lspace_obstruction(11) is Verdict.OBSTRUCTION_FOUND
    assert lspace_obstruction(1) is Verdict.INCONCLUSIVE
    assert lspace_obstruction(-5) is Verdict.INCONCLUSIVE
