"""Twist surgery properties: the square identity, naturality, group laws."""
import itertools
from collections import Counter

import pytest

from lspacecert import curves
from lspacecert.certify import _psi_images
from lspacecert.curves import (
    algebraic_intersection_number,
    dehn_twist,
    homology_class,
    intersection_number,
    is_isotopic,
)
from lspacecert.errors import BudgetExceeded
from lspacecert.mcg import apply_word, beta_gn, monodromy_psi, standard_curve_system
from lspacecert.surface import standard_surface

from conftest import fast_curve, random_curve, random_twist_word
from oracles import (
    canonical_sign,
    oracle_corner_classes,
    oracle_reduce_cyclic,
    oracle_simple_words,
    oracle_turn_codes,
    oriented_class,
)

S2 = standard_surface(2)

# every curve of the genus-2 system, by name
SYSTEM_CURVES = pytest.mark.parametrize(
    "name", ["a1", "a2", "b1", "b2", "c"], ids=["x0", "x1", "x2", "x3", "x4"]
)


def test_twists_conjugate_on_every_short_genus_2_pair():
    # small scope: for each factor T_d of psi at genus 2, every c and x
    # among the 13 simple curves of length <= 2 and each n, the conjugation
    # relation T_{T_d(c)}^n(T_d(x)) = T_d(T_c^n(x)) that validate's image
    # of B[g,n] rests on
    words = oracle_simple_words(S2, 2)
    assert len(words) == 13
    checked = 0
    for d, p in monodromy_psi(2).factors:
        for cw, xw in itertools.product(words, repeat=2):
            c, x = fast_curve(S2, cw), fast_curve(S2, xw)
            for n in (1, 2, 5, -3):
                lhs = dehn_twist(dehn_twist(x, d, p), dehn_twist(c, d, p), n)
                rhs = dehn_twist(dehn_twist(x, c, n), d, p)
                assert is_isotopic(lhs, rhs), (d, c, x, n)
                checked += 1
    assert checked == 2028


def test_power_zero_is_identity(sys2):
    _, b2 = sys2.betas
    c = sys2.c
    assert dehn_twist(b2, c, 0) is b2


def test_twist_of_own_core_is_identity(sys2):
    c = sys2.c
    assert is_isotopic(dehn_twist(c, c, 3), c)


def test_square_identity_pinned_cases(sys2):
    a1, a2 = sys2.alphas
    _, b2 = sys2.betas
    c = sys2.c
    # iota(t_c(b2), b2) = iota(c, b2)^2 = 4
    assert intersection_number(dehn_twist(b2, c, 1), b2) == 4
    assert intersection_number(dehn_twist(b2, a2, 1), b2) == 1
    assert intersection_number(dehn_twist(a1, c, 1), a1) == 4


def test_square_identity_randomized(rng):
    for g in (2, 3):
        for _ in range(30):
            a = random_curve(rng, g, max_len=3)
            b = random_curve(rng, g, max_len=3)
            i = intersection_number(a, b)
            assert intersection_number(dehn_twist(b, a, 1), b) == i * i


def test_naturality_randomized(rng):
    for g in (2, 3):
        for _ in range(20):
            a = random_curve(rng, g, max_len=3)
            b = random_curve(rng, g, max_len=3)
            f = random_twist_word(rng, g, max_len=3)
            assert intersection_number(apply_word(f, a), apply_word(f, b)) == (
                intersection_number(a, b)
            )


def test_power_additivity(rng):
    for _ in range(20):
        a = random_curve(rng, 2, max_len=2)
        b = random_curve(rng, 2, max_len=2)
        m, k = rng.choice([-2, -1, 1, 2]), rng.choice([-2, -1, 1, 2])
        two_step = dehn_twist(dehn_twist(b, a, m), a, k)
        assert is_isotopic(two_step, dehn_twist(b, a, m + k))


def test_inverse_twist_undoes(sys2):
    _, b2 = sys2.betas
    c = sys2.c
    t = dehn_twist(b2, c, 3)
    assert is_isotopic(dehn_twist(t, c, -3), b2)


@SYSTEM_CURVES
def test_disjoint_twists_commute(sys2, name):
    a1, a2 = sys2.alphas
    x = dict(sys2.named())[name]
    # iota(a1, a2) = 0
    lhs = dehn_twist(dehn_twist(x, a2, 1), a1, 1)
    rhs = dehn_twist(dehn_twist(x, a1, 1), a2, 1)
    assert is_isotopic(lhs, rhs)


@SYSTEM_CURVES
def test_braid_relation_on_once_crossing_pair(sys2, name):
    _, a2 = sys2.alphas
    _, b2 = sys2.betas
    x = dict(sys2.named())[name]
    # iota(a2, b2) = 1: t_a t_b t_a = t_b t_a t_b as actions
    lhs = dehn_twist(dehn_twist(dehn_twist(x, a2, 1), b2, 1), a2, 1)
    rhs = dehn_twist(dehn_twist(dehn_twist(x, b2, 1), a2, 1), b2, 1)
    assert is_isotopic(lhs, rhs)


def test_twisted_words_grow_linearly():
    # one surgery pass inserts n parallel copies
    for n in (1, 4, 9):
        assert len(beta_gn(2, n)) == 1 + 2 * 4 * n


def test_the_letter_limit_raises_before_any_plan_or_piece(sys2, monkeypatch):
    # T_c^30(b2): |b2| = 1, |c| = 4 and i(b2, c) = 2 give at most 241 letters,
    # and the walk-free bound 1 + 30 * 1 * 4^2 = 481 has the count read first
    walks = []
    inner = curves._crossing_count
    monkeypatch.setattr(curves, "_crossing_count", lambda a, b: walks.append(a) or inner(a, b))
    cold = fast_curve(S2, sys2.betas[1].word)  # it keeps no plan
    monkeypatch.setattr(curves, "_MAX_LETTERS", 240)
    with pytest.raises(BudgetExceeded, match="up to 241 letters .* letter limit 240$"):
        dehn_twist(cold, sys2.c, 30)
    assert walks == [cold] and cold._kept == {}
    monkeypatch.setattr(curves, "_MAX_LETTERS", 241)
    assert len(dehn_twist(cold, sys2.c, -30)) == 241
    # where the walk-free bound passes, the limit reads no count
    walks.clear()
    monkeypatch.setattr(curves, "_MAX_LETTERS", 481)
    assert dehn_twist(fast_curve(S2, cold.word), sys2.c, 30) == beta_gn(2, 30)
    assert walks == []


def test_transvection_formula(rng):
    # class of t_a(b) is [b] + <b, a>[a], up to the canonical sign
    for g in (2, 3):
        for _ in range(20):
            a = random_curve(rng, g, max_len=2)
            b = random_curve(rng, g, max_len=2)
            pairing = algebraic_intersection_number(b, a)
            va = oriented_class(a.word, 2 * g)
            vb = oriented_class(b.word, 2 * g)
            expect = canonical_sign(
                tuple(x + pairing * y for x, y in zip(vb, va))
            )
            assert homology_class(dehn_twist(b, a, 1)) == expect


def test_algebraic_intersection_antisymmetric(rng):
    for _ in range(20):
        a = random_curve(rng, 2, max_len=3)
        b = random_curve(rng, 2, max_len=3)
        assert algebraic_intersection_number(a, b) == -algebraic_intersection_number(
            b, a
        )


def _freely_reduced(word):
    return all(x != -y for x, y in zip(word, word[1:]))


def test_twist_words_join_their_pieces_like_the_naive_reduction(rng, monkeypatch):
    # surgery joins the target's segments and the inserted runs at their
    # seams only; the naive word is their concatenation, reduced whole
    pairs = [(random_curve(rng, g, max_len=3), random_curve(rng, g, max_len=3),
              rng.choice([-3, -2, -1, 1, 2, 3]))
             for g in (2, 3, 4) for _ in range(100)]
    pairs += [(beta_gn(g, 7), random_curve(rng, g, max_len=2), 2) for g in (2, 3, 4)]
    joins = []
    inner = curves._reduced_product

    def spy(pieces):
        pieces = [tuple(p) for p in pieces]
        joins.append(pieces)
        return inner(pieces)

    monkeypatch.setattr(curves, "_reduced_product", spy)
    joined = shortened = 0
    for target, about, power in pairs:
        del joins[:]
        word = dehn_twist(target, about, power).word
        if not joins:  # disjoint or isotopic: the target comes back
            continue
        (pieces,) = joins
        assert all(map(_freely_reduced, pieces))
        naive = sum(pieces, ())
        assert word == oracle_reduce_cyclic(naive)
        joined += 1
        shortened += len(word) < len(naive)
    assert joined >= 150 and shortened >= 50  # many seams cancel letters


def _stretches(word, period):
    """The stretches [lo, hi) of indices i > period whose corner, the
    letter and the one before it, is that of index i - period, each as
    long as it goes."""
    out = []
    for i in range(period + 1, len(word)) if period else ():
        if (word[i], word[i - 1]) == (word[i - period], word[i - period - 1]):
            if out and out[-1][1] == i:
                out[-1][1] += 1
            else:
                out.append([i, i + 1])
    return out


def _assert_word_tables(surface, word, period, cases):
    """``_word_tables`` at this period equals the letter-by-letter oracle,
    keys in the same order.  cases counts the word's stretches of more
    than one period: those whose first period holds a corner twice, and of
    the rest those that a seam cuts short and those that end at the
    word's last letter."""
    corners, codes = curves._word_tables(surface, word, period)
    assert list(corners.items()) == list(oracle_corner_classes(word).items()), (word, period)
    assert codes == oracle_turn_codes(surface, word), (word, period)
    for lo, hi in _stretches(word, period):
        if hi - lo <= period:
            continue
        if len(set(zip(word[lo:lo + period], word[lo - 1:lo + period - 1]))) < period:
            cases["twice"] += 1
        else:
            cases["end" if hi == len(word) else "seam"] += 1


def _assert_kept_tables(curve, codes_first):
    """The tables a curve keeps, read corners first or codes first, equal
    the letter-by-letter oracle's, keys in the same order."""
    word, surface = curve.word, curve.surface
    corners = list(oracle_corner_classes(word).items())
    codes = oracle_turn_codes(surface, word)
    if codes_first:
        assert curve._kept_codes == codes, word
    assert list(curve._kept_corners.items()) == corners, word
    assert curve._kept_codes == codes, word
    assert curve._kept_inverse_codes == oracle_turn_codes(surface, curves.inverse_word(word))


def _twists(pairs):
    """The twists of each (target, about, powers) that are not the target."""
    return [t for target, about, ps in pairs for t in (dehn_twist(target, about, p) for p in ps)
            if t is not target]


def test_twist_tables_from_runs_equal_the_letter_by_letter_tables(sys2, rng):
    # small scope: every twist of one of the 13 simple genus-2 curves of
    # length <= 2 about another, at powers +-1..12 and +-40, then random
    # twists of genus 2 and 3, B[g,n] and T_{psi(c)}^(+-n)(psi(b_g)) for
    # g = 2..4 and n <= 60, each at the period of its record; the random
    # twists also at every period 0..8
    words = oracle_simple_words(S2, 2)
    assert len(words) == 13
    powers = [p for k in (*range(1, 13), 40) for p in (k, -k)]
    twists = _twists((fast_curve(S2, t), fast_curve(S2, u), powers)
                     for t, u in itertools.product(words, repeat=2))
    random_twists = []
    for g in (2, 3):
        for _ in range(150):
            target = random_curve(rng, g, max_len=3)
            random_twists += _twists([(fast_curve(target.surface, target.word),
                                       random_curve(rng, g, max_len=2), (2, -5))])
    twists += random_twists
    for g in (2, 3, 4):
        psi_b, psi_c = _psi_images(g)
        for n in range(1, 61):
            twists += [beta_gn(g, n), dehn_twist(psi_b, psi_c, n), dehn_twist(psi_b, psi_c, -n)]
    cases = Counter()
    for i, twist in enumerate(twists):
        _assert_word_tables(twist.surface, twist.word, len(twist._twist[1].word), cases)
        _assert_kept_tables(twist, i % 2)
    hinted = Counter()
    for twist in random_twists:
        for period in range(9):
            _assert_word_tables(twist.surface, twist.word, period, hinted)
    assert len(twists) > 3500 and len(random_twists) > 350, (len(twists), len(random_twists))
    # stretches that a seam cuts short, that end at the last letter, and
    # whose period holds a corner twice, so they are read letter by letter
    assert cases["seam"] > 3000 and cases["end"] > 700 and cases["twice"] > 400, cases
    assert hinted["seam"] > 600 and hinted["end"] > 50 and hinted["twice"] > 300, hinted
    # a record that does not give the word only slows the pass: B[2,21]
    # claiming to be B[2,20] keeps the tables of its own word
    b2, c = sys2.betas[-1], sys2.c
    forged = curves._reduced_curve(S2, beta_gn(2, 21).word, (b2, c, 20))
    _assert_kept_tables(forged, False)


def _twist_of_a_copy(target, about, power):
    """The twist of a copy of target, which keeps no surgery plan."""
    return dehn_twist(fast_curve(target.surface, target.word), about, power)


def test_twists_read_from_a_kept_plan_equal_twists_of_a_fresh_copy():
    # b_g keeps its plan about c from its first twist on, and B[g,n] keeps
    # one for each psi factor it is twisted about; each later twist of the
    # pair reads the kept plan, and a copy builds its plan afresh
    powers = [*range(1, 31), *range(-30, 0)]
    for g in range(2, 9):
        system, psi = standard_curve_system(g), monodromy_psi(g)
        pairs = [(system.betas[-1], system.c)]
        for n in (1, 7):
            bn = beta_gn(g, n)
            pairs += [(bn, about) for about, _ in psi.factors]
            # psi applied factor by factor, every factor to a copy
            copied = bn
            for about, power in reversed(psi.factors):
                copied = _twist_of_a_copy(copied, about, power)
            assert apply_word(psi, bn).word == copied.word, (g, n)
        for target, about in pairs:
            dehn_twist(target, about, 1)
            assert (about.word,) in target._kept, (g, target, about)
            for k in powers:
                assert dehn_twist(target, about, k).word == (
                    _twist_of_a_copy(target, about, k).word
                ), (g, target, about, k)
