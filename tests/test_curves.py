import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lspacecert.curves as curves
from lspacecert.certify import _psi_images
from lspacecert.curves import (
    canonical_form,
    dehn_twist,
    homology_class,
    intersection_number,
    is_isotopic,
    is_primitive,
    reduce_cyclic,
)
from lspacecert.errors import (
    AnchorViolation,
    Inessential,
    NotSimple,
    SurfaceMismatch,
    WalkBoundExceeded,
)
from lspacecert.mcg import apply_word, beta_gn, monodromy_psi, standard_curve_system
from lspacecert.surface import standard_surface

from conftest import (
    count_corner_classes,
    count_normal_forms,
    fast_curve,
    random_curve,
    raises_under_python_O,
)
from oracles import (
    canonical_sign,
    crossing_signs,
    oracle_canonical_form,
    oracle_crossings,
    oracle_is_primitive,
    oracle_is_simple,
    oracle_min_crossings,
    oracle_ray_side,
    oracle_reduce,
    oracle_reduce_cyclic,
    oracle_simple_words,
    oracle_turn_codes,
    oriented_class,
    rotate_word,
)

S2 = standard_surface(2)


# ---------------------------------------------------------------------------
# normalization

def test_cancelling_bigon_removed():
    # e1+ e1- W reduces to W
    w = (1, -1, 4, 3)
    assert curves.Curve(S2, w).word == reduce_cyclic(w) == (4, 3)


def test_wraparound_bigon_removed():
    assert reduce_cyclic((1, 4, 3, -1)) == (4, 3)


def test_normalize_idempotent_on_system_curves(sys2):
    for _, curve in sys2.named():
        again = curves.Curve(S2, curve.word)
        assert again.word == curve.word


def _parse_tokens(text, surface):
    """The crossing word of ``Curve.tokens`` text, e.g. ``'e3+ e2+ e3- e2-'``."""
    index = {name: k + 1 for k, name in enumerate(surface.cut_arcs)}
    return tuple((1 if tok[-1] == "+" else -1) * index[tok[:-1]] for tok in text.split())


def test_normalize_accepts_token_text(sys2):
    c = sys2.c
    curve = curves.Curve(S2, _parse_tokens("e3+ e2+ e3- e2-", S2))
    assert curve == c
    assert _parse_tokens(c.tokens(), S2) == c.word


def test_normalized_word_has_no_bigon(sys2):
    # no cancelling adjacent pair, including around the wrap
    for _, curve in sys2.named():
        w = curve.word
        for i in range(len(w)):
            assert w[i] != -w[(i + 1) % len(w)]


def test_normalize_empty_is_inessential():
    with pytest.raises(Inessential):
        curves.Curve(S2, ())
    with pytest.raises(Inessential):
        curves.Curve(S2, (1, -1))


def test_normalize_boundary_is_inessential():
    with pytest.raises(Inessential):
        curves.Curve(S2, S2.boundary_word())


def test_normalize_rejects_non_simple():
    with pytest.raises(NotSimple):
        curves.Curve(S2, (1, 2, 1, 2))
    with pytest.raises(NotSimple):
        curves.Curve(S2, (1, 1))


def test_normalize_rejects_unknown_arcs():
    with pytest.raises(ValueError):
        curves.Curve(S2, (9,))
    # a bool is an int subclass, not an arc name: True would equal a1
    for word in ((True,), (True, 2, -1, -2)):
        with pytest.raises(ValueError):
            curves.Curve(S2, word)


def _normal_form_words(rng):
    """Words that exercise the least-rotation and period searches."""
    letters = [1, -1, 2, -2, 3, -3]
    for size in (1, 2, 3):
        for length in range(1, 21):
            for _ in range(4):
                alphabet = rng.sample(letters, size)
                yield tuple(rng.choice(alphabet) for _ in range(length))
    for _ in range(200):  # proper powers w^k and near-powers w^k x
        root = tuple(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        power = root * rng.randint(2, 5)
        yield power
        yield power + (rng.choice(letters),)
    for x in letters:  # single-letter and all-equal words
        for length in (1, 2, 3, 7, 12):
            yield (x,) * length
    for k in range(1, 12):  # repeated near-minimal runs
        yield (1, 1, 2) * k + (1, 1, 1)
        yield (1, 1, 1) + (1, 1, 2) * k
        yield (-1, -1, 2) * k + (-1, -1, -1, 2)
        yield (1, 2) * k + (1, 1)
    for g in range(2, 6):
        for _, curve in standard_curve_system(g).named():
            yield curve.word
    psi = monodromy_psi(2)
    for n in range(11):
        bn = beta_gn(2, n)
        yield bn.word
        yield apply_word(psi, bn).word


def test_normal_forms_match_rotation_oracles():
    rng = random.Random(8080)
    powers = 0
    for w in _normal_form_words(rng):
        assert canonical_form(w) == oracle_canonical_form(w), w
        assert is_primitive(w) == oracle_is_primitive(w), w
        powers += not oracle_is_primitive(w)
    assert powers > 300  # over two fifths of the words are proper powers


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4]), max_size=12))
def test_reduction_matches_slow_reducer_up_to_rotation(letters):
    fast = reduce_cyclic(tuple(letters))
    slow = oracle_reduce(tuple(letters))
    assert canonical_form(fast) == canonical_form(slow)
    assert reduce_cyclic(fast) == fast


def _words_with_cancelling_ends(rng):
    """Words u w u^-1 whose ends cancel for up to 60 letters, with the
    cancellation sometimes stopped early or hidden behind free pairs."""
    letters = [1, -1, 2, -2, 3, -3, 4, -4]
    for _ in range(150):
        u = [rng.choice(letters) for _ in range(rng.randint(0, 60))]
        w = [rng.choice(letters) for _ in range(rng.randint(0, 6))]
        inv = [-x for x in reversed(u)]
        if u and rng.random() < 0.3:  # one end pair does not cancel
            inv[rng.randrange(len(inv))] = rng.choice(letters)
        word = u + w + inv
        for _ in range(rng.randint(0, 3)):  # free pairs anywhere
            i = rng.randint(0, len(word))
            x = rng.choice(letters)
            word[i:i] = [x, -x]
        yield tuple(word)


def test_cyclic_reduction_matches_rotate_and_cancel():
    rng = random.Random(1515)
    short = 0
    for word in _words_with_cancelling_ends(rng):
        got = reduce_cyclic(word)
        assert got == oracle_reduce_cyclic(word), word
        short += len(word) - len(got) >= 40
    assert short >= 30  # many words lose at least 20 end pairs


def _reduced_pieces(rng):
    """Freely reduced pieces, some of them undoing the end of the ones
    before, so a seam can cancel whole pieces."""
    letters = [1, -1, 2, -2, 3, -3, 4, -4]
    pieces = []
    for _ in range(rng.randint(0, 8)):
        if pieces and rng.random() < 0.4:
            tail = sum(pieces, ())[-rng.randint(1, 8):]
            piece = tuple(-x for x in reversed(tail))
        else:
            piece = []
            for _ in range(rng.randint(0, 6)):
                piece.append(rng.choice([x for x in letters if not piece or x != -piece[-1]]))
            piece = tuple(piece)
        if all(x != -y for x, y in zip(piece, piece[1:])):
            pieces.append(piece)
    return pieces


def test_seam_join_of_reduced_pieces_matches_rotate_and_cancel():
    rng = random.Random(2323)
    deep = 0
    for _ in range(400):
        pieces = _reduced_pieces(rng)
        naive = sum(pieces, ())
        assert curves._reduced_product(pieces) == oracle_reduce_cyclic(naive), pieces
        deep += len(naive) - len(curves._reduced_product(pieces)) >= 8
    assert deep >= 50  # many joins cancel across more than one letter pair


def test_cyclic_reduction_is_linear_in_cancelling_end_pairs():
    # 200,000 end pairs: one pass and one slice, where popping the front
    # once per pair would shift the whole word each time
    k = 200_000
    assert reduce_cyclic((1,) * k + (2,) + (-1,) * k) == (2,)
    assert reduce_cyclic((1,) * k + (2, -3) + (-1,) * k) == (2, -3)
    assert reduce_cyclic((1,) * k + (-1,) * k) == ()


def test_surgery_output_normalizes_to_the_pinned_example(sys2):
    a1, _ = sys2.alphas
    _, b2 = sys2.betas
    c = sys2.c
    # one twist of b2 about c, before reduction, normalizes to a word
    # meeting a1 in 4 points; expected count frozen from the placement
    # oracle (and equal to iota(c, b2) squared)
    raw = dehn_twist(b2, c, 1).word
    curve = curves.Curve(S2, raw)
    assert intersection_number(curve, a1) == 4
    assert oracle_min_crossings(curve.word, a1.word, S2) == 4


# ---------------------------------------------------------------------------
# simplicity

def _built(build, word):
    """The reduced word of what ``build`` returns, else the type it raises."""
    try:
        out = build(word)
    except (ValueError, Inessential, NotSimple) as exc:
        return type(exc)
    return out.word if isinstance(out, curves.Curve) else out


def test_curve_validation_examples(sys2):
    # Curve runs one validation: the reduced word or a typed error
    _, b2 = sys2.betas
    c = sys2.c
    cases = [
        (b2.word, b2.word),
        (c.word, c.word),
        ((1,) + c.word + (-1,), c.word),  # not cyclically reduced
        ((4, 1, -1), b2.word),  # not freely reduced
        ((1, 1), NotSimple),  # proper power
        ((1, 2, 1, 2), NotSimple),  # interleaved returns
        (S2.boundary_word(), Inessential),  # boundary parallel
        ((), Inessential),
        ((1, -1), Inessential),  # contractible
        ((0,), ValueError),
        ((9,), ValueError),
        ((-5, 1), ValueError),
        ((True,), ValueError),
        ((1, "1"), ValueError),
    ]
    for word, want in cases:
        assert _built(lambda w: curves.Curve(S2, w), word) == want, word


def test_curve_validation_agrees_with_placement_oracle():
    # a word the oracle cannot place without crossings is refused as
    # Inessential or NotSimple; one it can place builds a Curve
    rng = random.Random(507)
    letters = [1, -1, 2, -2, 3, -3, 4, -4]
    checked = 0
    while checked < 60:
        w = tuple(rng.choice(letters) for _ in range(rng.randint(1, 5)))
        if reduce_cyclic(w) != w:
            continue
        built = _built(lambda w: curves.Curve(S2, w), w)
        if oracle_is_simple(w, S2):
            assert isinstance(built, tuple), w
        else:
            assert built in (Inessential, NotSimple), w
        checked += 1


# ---------------------------------------------------------------------------
# isotopy

def test_isotopy_basics(sys2):
    _, a2 = sys2.alphas
    _, b2 = sys2.betas
    c = sys2.c
    assert is_isotopic(b2, b2)
    assert not is_isotopic(a2, b2)
    # rotation and reversal are the same unoriented curve
    rotated = curves.Curve(S2, (2, -3, -2, 3))
    assert is_isotopic(rotated, c)


def test_rotated_and_reversed_words_give_equal_curves():
    bn = beta_gn(2, 3)
    w = bn.word
    for k in (0, 1, 7, len(w) - 1):
        rotated = rotate_word(w, k)
        for word in (rotated, curves.inverse_word(rotated)):
            again = curves.Curve(S2, word)
            assert again is not bn and again.word == word
            assert again == bn and bn == again
            assert hash(again) == hash(bn)
            assert is_isotopic(again, bn)
            assert curves.crossing_count(again, bn) == (0, 0)
    assert len({bn, curves.Curve(S2, curves.inverse_word(w))}) == 1


def test_curves_of_different_lengths_differ_without_a_normal_form(sys2, monkeypatch):
    a1, _ = sys2.alphas
    c = sys2.c
    bn = beta_gn(2, 3)
    calls = count_normal_forms(monkeypatch)
    assert a1 != c and c != bn and bn != a1
    assert not is_isotopic(bn, c)
    assert curves.crossing_count(bn, c) == curves.crossing_count(bn, c)
    assert bn == bn and is_isotopic(bn, bn)  # the same object
    assert calls == []
    x, y = curves.Curve(S2, (2, -3, -2, 3)), curves.Curve(S2, c.word)
    assert x == y and y == x and hash(x) == hash(y)
    assert calls == [4, 4]  # equal lengths: each side's normal form, once


def test_a_curve_built_from_a_raw_word_builds_one_table(sys2, monkeypatch):
    # validation counts the curve against itself; the curve keeps the
    # corner classes that count built
    a1 = sys2.alphas[0]
    word = beta_gn(2, 400).word
    built = count_corner_classes(monkeypatch)
    curve = curves.Curve(S2, word)
    assert intersection_number(curve, a1) == 4 * 400
    assert built.count(word) == 1


def test_is_isotopic_matches_the_rotation_oracle():
    rng = random.Random(1516)
    for g in (2, 3):
        by_length = {}
        for _ in range(120):
            curve = random_curve(rng, g)
            by_length.setdefault(len(curve), []).append(curve)
            word = rotate_word(curve.word, rng.randrange(len(curve)))
            if rng.random() < 0.5:
                word = curves.inverse_word(word)
            by_length[len(curve)].append(curves.Curve(curve.surface, word))
        same = differ = 0
        for group in by_length.values():
            for a in group:
                form = oracle_canonical_form(a.word)
                for b in rng.sample(group, min(len(group), 6)):
                    want = form == oracle_canonical_form(b.word)
                    assert is_isotopic(a, b) == (a == b) == want, (a, b)
                    if want:
                        assert hash(a) == hash(b)
                    same += want and a is not b
                    differ += not want
        assert same >= 100 and differ >= 100  # non-isotopic pairs of equal length


def test_twisting_about_one_curve_again_builds_none_of_its_codes(sys2, monkeypatch):
    # B[2,n] twists b2 about c, and ordering the two crossings reads c's
    # kept turn codes, so n = 1..5 build its tables at most once
    c = sys2.c
    built = count_corner_classes(monkeypatch)
    for n in range(1, 6):
        beta_gn(2, n)
    assert built.count(c.word) <= 1
    assert "_kept_codes" in vars(c)


@pytest.mark.parametrize("twisted", [False, True], ids=["system", "twist"])
def test_a_curve_refuses_assignment_and_deletion(twisted):
    # a deleted word or kept field would break the curve, or drop what it
    # keeps, for the rest of the process; the curve is unchanged afterwards
    system = standard_curve_system(2)
    curve = beta_gn(2, 3) if twisted else system.betas[-1]
    assert curve._kept_codes
    before = dict(vars(curve))
    for name in ("word", "_twist", "_kept_codes", "_kept_inverse_codes"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(curve, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(curve, name)
    assert vars(curve).keys() == before.keys()
    assert all(vars(curve)[name] is value for name, value in before.items())
    assert curve._twist == ((system.betas[-1], system.c, 3) if twisted else None)
    assert curve == curves.Curve(S2, curve.word)


def test_twist_about_disjoint_curve_is_identity(sys2):
    a1, _ = sys2.alphas
    _, b2 = sys2.betas
    assert is_isotopic(dehn_twist(b2, a1, 1), b2)


def test_inconsistent_crossing_order_is_a_typed_error_even_under_python_O(sys2, monkeypatch):
    # copies keep no surgery plan, so the twist reads the patched order
    a1, b1 = (fast_curve(S2, x.word) for x in (sys2.alphas[0], sys2.betas[0]))
    # the second crossing's interval [0, 0] ends before the first one's slot 5
    def bad_order(target, about):
        return [curves._Crossing(5, 0, 0, True, 1), curves._Crossing(0, 0, 0, True, 1)]

    monkeypatch.setattr(curves, "_crossing_order", bad_order)
    with pytest.raises(AnchorViolation):
        dehn_twist(b1, a1)
    assert raises_under_python_O(
        """
        import lspacecert.curves as curves
        from lspacecert.mcg import standard_curve_system
        curves._crossing_order = lambda target, about: [
            curves._Crossing(5, 0, 0, True, 1), curves._Crossing(0, 0, 0, True, 1)
        ]
        system = standard_curve_system(2)
        curves.dehn_twist(system.betas[0], system.alphas[0])
        """,
        "AnchorViolation",
    )


def test_a_plan_that_fails_its_slot_check_is_not_kept(sys2, monkeypatch):
    # the second crossing's interval [0, 0] ends before the first one's
    # slot 5: the plan raises as it is built and the copy keeps nothing, so
    # its next twist orders the crossings again
    a1, b1 = sys2.alphas[0], fast_curve(S2, sys2.betas[0].word)
    monkeypatch.setattr(curves, "_crossing_order", lambda target, about: [
        curves._Crossing(5, 0, 0, True, 1), curves._Crossing(0, 0, 0, True, 1)
    ])
    with pytest.raises(AnchorViolation):
        dehn_twist(b1, a1)
    assert b1._kept == {}
    monkeypatch.undo()
    assert dehn_twist(b1, a1).word == dehn_twist(fast_curve(S2, b1.word), a1).word


def _tuples(xs):
    return [(x.m, x.j, x.k, x.aligned, x.eps) for x in xs]


def test_ray_following_the_line_past_the_cap_is_a_typed_error(monkeypatch):
    # turn codes that agree on exactly cap letters are a result, one more raises
    blocks = curves._coasting_blocks([0, 1, 2], [3, 1, 3], [1], [1], [], 2)
    assert list(blocks) == [([3], [3], 2, True)]
    with pytest.raises(WalkBoundExceeded):
        list(curves._coasting_blocks([0, 1, 2], [3, 1, 3], [1], [1], [], 1))
    # c's lifts coast along the twisted runs of B[2,5]; the deepest tie is a
    # crossing that follows the axis for 21 letters
    bn, c = beta_gn(2, 5), standard_curve_system(2).c
    listed = _tuples(curves._crossings(S2, bn, c))
    assert max(k for _, _, k, _, _ in listed) == 21
    monkeypatch.setattr(curves, "_WALK_MARGIN", 21 - len(bn) - len(c))
    assert _tuples(curves._crossings(S2, bn, c)) == listed
    monkeypatch.setattr(curves, "_WALK_MARGIN", 20 - len(bn) - len(c))
    with pytest.raises(WalkBoundExceeded):
        curves._crossings(S2, bn, c)
    # no lift of B[2,1] coasts along a1, so the + ends of its 4 crossings
    # all leave vertex 0, and the first two share their first two codes:
    # keys of 3 codes order them, keys of 2 tie and raise
    monkeypatch.undo()
    a1, b = fast_curve(S2, (1,)), beta_gn(2, 1)
    order = [(0, 1, 0, False, 1), (0, 6, 0, False, -1), (0, 4, 0, False, -1),
             (0, 7, 0, False, 1)]
    assert _tuples(curves._crossing_order(a1, b)) == order
    monkeypatch.setattr(curves, "_WALK_MARGIN", 3 - len(b))
    assert _tuples(curves._crossing_order(a1, b)) == order
    monkeypatch.setattr(curves, "_WALK_MARGIN", 2 - len(b))
    assert _tuples(curves._crossings(S2, a1, b)) == sorted(order)
    with pytest.raises(WalkBoundExceeded):
        curves._crossing_order(a1, b)


def test_a_lowered_margin_raises_on_a_cold_target_and_a_warm_one_reads_its_plan(
    monkeypatch,
):
    # keys of 2 codes tie on B[2,1]'s lifts through a1, so under that margin
    # a copy of a1, which keeps no plan, orders the crossings and raises.
    # No key holds the margin: a1 kept its plan about B[2,1] from its first
    # twist and assembles the same word from it
    a1, b = fast_curve(S2, (1,)), beta_gn(2, 1)
    twisted = dehn_twist(a1, b, 1).word
    monkeypatch.setattr(curves, "_WALK_MARGIN", 2 - len(b))
    with pytest.raises(WalkBoundExceeded):
        dehn_twist(fast_curve(S2, a1.word), b, 1)
    assert dehn_twist(a1, b, 1).word == twisted


def test_tied_crossing_ends_are_a_typed_error_even_under_python_O():
    # keys of 2 codes tie on two ends of B[2,1]'s lifts through a1
    assert raises_under_python_O(
        """
        from lspacecert import curves
        from lspacecert.mcg import beta_gn
        b = beta_gn(2, 1)
        curves._WALK_MARGIN = 2 - len(b.word)
        curves._crossing_order(curves._reduced_curve(b.surface, (1,)), b)
        """,
        "WalkBoundExceeded",
    )


def test_crossing_order_keys_share_their_code_windows(monkeypatch):
    # every end reads b or b's inverse from a phase in [1, q], so the keys
    # of a plan hold at most 2q distinct windows of codes, not one a crossing
    bn, a1 = beta_gn(2, 400), standard_curve_system(2).alphas[0]
    keys = []

    def spy(order, key, reverse):
        keys.extend(key.__self__)
        return sorted(order, key=key, reverse=reverse)

    monkeypatch.setattr(curves, "sorted", spy, raising=False)
    order = curves._crossing_order(bn, a1)
    assert len(order) == len(keys) == 1600
    assert len({id(key[2]) for key in keys}) <= 2 * len(a1)


def _listed_or_bound(surface, a, b):
    """The list form's and the oracle's crossing tuples, or "bound"."""
    out = []
    for listed in (lambda: _tuples(_crossing_list(surface, a, b)),
                   lambda: oracle_crossings(surface, a, b)):
        try:
            out.append(listed())
        except WalkBoundExceeded:
            out.append("bound")
    return out


def _crossing_list(surface, a, b):
    """The list form on two reduced words, through a fresh unchecked curve
    for each, since a self-walk or a capped walk may be on a word that is
    not simple."""
    return curves._crossings(
        surface, fast_curve(surface, a), fast_curve(surface, b)
    )


def _ray_kind(line, phase, letter):
    """Whether a ray with first letter ``letter`` starts along the line's
    forward letter, along its backward letter, or branches off at once."""
    if letter == line[phase % len(line)]:
        return "forward"
    return "backward" if letter == -line[phase - 1] else "branch"


def test_ray_side_matches_closure_oracle_randomized(monkeypatch):
    rng = random.Random(61)
    seen = set()
    for g in (2, 3):
        surface = standard_surface(g)
        for trial in range(15):
            a = random_curve(rng, g).word
            b = a if trial % 3 == 0 else random_curve(rng, g).word
            p, q = len(a), len(b)
            # every lift, with how far it coasts, at the default cap and at
            # a cap of two letters, which deep ties exceed
            for margin in (curves._WALK_MARGIN, 2 - p - q):
                monkeypatch.setattr(curves, "_WALK_MARGIN", margin)
                got, expected = _listed_or_bound(surface, a, b)
                assert got == expected, (g, a, b, margin)
                if got == "bound":
                    seen.add("bound")
            monkeypatch.undo()
            for m, j, _, aligned, _ in oracle_crossings(surface, a, b):
                seen.add(_ray_kind(a, m, b[j] if aligned else -b[j - 1]))
            _order_matches_sides(surface, a, b, seen)
    # the shapes twist surgery meets: c's lifts along B[2,5], one of which
    # coasts 21 letters; psi's factors applied to B[2,8] one at a time; and
    # the pair of T(B[2,2])(psi(B[2,2])), with 224 pairs of lifts through a
    # common vertex
    bn, c = beta_gn(2, 5).word, standard_curve_system(2).c.word
    pairs = [(bn, c), (c, bn)]
    image = beta_gn(2, 8)
    for about, power in reversed(monodromy_psi(2).factors):
        pairs.append((image.word, about.word))
        image = dehn_twist(image, about, power)
    b22 = beta_gn(2, 2)
    pairs.append((apply_word(monodromy_psi(2), b22).word, b22.word))
    shared = [_order_matches_sides(S2, a, b, seen) for a, b in pairs]
    assert shared[:2] == [1, 1] and shared[-1] == 224
    assert seen == {"bound", "forward", "backward", "branch", "shared"}


def _order_matches_sides(surface, a, b, seen):
    """Hold ``_crossing_order`` to the closure oracle, pair by pair.

    Lifts on disjoint vertex intervals must come in the order of their
    intervals.  For lifts x1 before x2 through a common vertex t, x2's
    lift and the axis's backward ray must leave x1's lift on opposite
    sides, as ``oracle_ray_side`` walks them.  Returns the number of
    pairs through a common vertex.
    """
    p, q = len(a), len(b)
    order = curves._crossing_order(fast_curve(surface, a), fast_curve(surface, b))
    assert sorted(_tuples(order)) == oracle_crossings(surface, a, b)
    cap = 3 * q + p + curves._WALK_MARGIN  # the oracle's own bound
    shared = 0
    for i, x1 in enumerate(order):
        for x2 in order[i + 1:]:
            t = max(x1.m, x2.m)
            if t > min(x1.m + x1.k, x2.m + x2.k):
                assert x1.m + x1.k < x2.m
                continue
            p1, p2 = curves._phase_at(x1, t, q), curves._phase_at(x2, t, q)
            sides = []
            for letter in (lambda r: b[(p2 + r) % q], lambda r: -a[(t - 1 - r) % p]):
                sides.append(oracle_ray_side(surface, b, p1, letter, cap)[0])
                seen.add(_ray_kind(b, p1, letter(0)))
            # x1 comes first, so the axis does not meet x2 earlier
            assert sides[0] != sides[1]
            seen.add("shared")
            shared += 1
    return shared


def test_surface_mismatch_raised(sys2):
    _, b2 = sys2.betas
    other = standard_curve_system(3)
    with pytest.raises(SurfaceMismatch):
        is_isotopic(b2, other.betas[0])
    with pytest.raises(SurfaceMismatch):
        intersection_number(b2, other.betas[0])


# ---------------------------------------------------------------------------
# intersection numbers

def test_anchor_intersections(sys2):
    a1, a2 = sys2.alphas
    b1, b2 = sys2.betas
    c = sys2.c
    assert intersection_number(a2, b2) == 1
    assert intersection_number(c, b2) == 2
    assert intersection_number(c, a1) == 2
    assert intersection_number(c, a2) == 0
    assert intersection_number(c, b1) == 0
    sys3 = standard_curve_system(3)
    assert intersection_number(sys3.c, sys3.betas[0]) == 0
    assert intersection_number(sys3.c, sys3.alphas[0]) == 0


def test_self_intersection_is_zero(sys2):
    for _, curve in sys2.named():
        assert intersection_number(curve, curve) == 0


def test_intersection_symmetric_randomized(rng):
    for g in (2, 3):
        for _ in range(15):
            a = random_curve(rng, g)
            b = random_curve(rng, g)
            assert intersection_number(a, b) == intersection_number(b, a)


def test_intersection_matches_placement_oracle_randomized():
    rng = random.Random(92)
    checked = 0
    while checked < 20:
        a = random_curve(rng, 2, max_len=2)
        b = random_curve(rng, 2, max_len=2)
        if len(a) > 6 or len(b) > 6 or len(a) + len(b) > 9:
            continue
        assert intersection_number(a, b) == oracle_min_crossings(a.word, b.word, S2)
        checked += 1


def test_intersection_number_is_minimal_on_every_short_genus_2_pair():
    # small scope: the 39 simple genus-2 curves of length <= 3 and all
    # 1,482 ordered pairs of distinct ones, against the placement search
    words = oracle_simple_words(S2, 3)
    assert len(words) == 39
    checked = 0
    for a, b in itertools.permutations(words, 2):
        got = intersection_number(fast_curve(S2, a), fast_curve(S2, b))
        assert got == oracle_min_crossings(a, b, S2), (a, b)
        checked += 1
    assert checked == 1482


def test_twisted_family_against_oracle(sys2):
    _, a2 = sys2.alphas
    bn = beta_gn(2, 1)
    assert intersection_number(bn, a2) == 1
    assert oracle_min_crossings(bn.word, a2.word, S2) == 1


# ---------------------------------------------------------------------------
# the count form of the crossing kernel

def _listed(surface, a, b):
    """len and signed sum of the crossings the oracle lists, or "bound"."""
    try:
        xs = oracle_crossings(surface, a, b)
    except WalkBoundExceeded:
        return "bound"
    return len(xs), sum(eps for *_, eps in xs)


def _count(surface, a, b):
    """The count kernel on two reduced words, through a fresh curve for each."""
    x, y = fast_curve(surface, a), fast_curve(surface, b)
    assert x.word == a and y.word == b  # already reduced
    return curves._crossing_count(x, y)


def _counted(surface, a, b):
    try:
        return _count(surface, a, b)
    except WalkBoundExceeded:
        return "bound"


def _random_primitive_word(rng, g, length):
    while True:
        word = reduce_cyclic(
            tuple(rng.choice((1, -1)) * rng.randint(1, 2 * g) for _ in range(length))
        )
        if word and is_primitive(word):
            return word


def _random_pairs():
    """Random word pairs of genus 2 to 4, each fourth a word with itself."""
    rng = random.Random(1187)
    for g in (2, 3, 4):
        for trial in range(40):
            a = random_curve(rng, g).word
            b = a if trial % 4 == 0 else random_curve(rng, g).word
            yield standard_surface(g), a, b


def test_crossing_count_equals_the_walk_on_random_pairs():
    for surface, a, b in _random_pairs():
        for x, y in ((a, b), (b, a)):
            assert _counted(surface, x, y) == _listed(surface, x, y), (x, y)


def test_crossings_are_at_most_the_product_of_the_word_lengths():
    # each crossing has its own (axis vertex, phase) anchor, which the
    # letter limit of dehn_twist reads as i(a, b) <= |a| |b|
    for surface, a, b in _random_pairs():
        assert _count(surface, a, b)[0] <= len(a) * len(b), (a, b)


def test_curve_crossing_count_matches_the_listed_signs():
    rng = random.Random(1188)
    for g in (2, 3):
        for _ in range(15):
            a, b = random_curve(rng, g), random_curve(rng, g)
            signs = crossing_signs(a, b)
            assert curves.crossing_count(a, b) == (len(signs), sum(signs))
    system = standard_curve_system(2)
    assert curves.crossing_count(system.c, system.c) == (0, 0)


def test_crossing_count_equals_the_walk_on_primitive_self_walks():
    rng = random.Random(1189)
    simple = crossing = 0
    for _ in range(300):
        word = _random_primitive_word(rng, 2, rng.randint(2, 14))
        got = _counted(S2, word, word)
        assert got == _listed(S2, word, word), word
        simple += got == (0, 0)
        crossing += got != (0, 0)
    assert simple >= 20 and crossing >= 100
    # a long non-simple word: twisted runs with a crossing tail
    word = reduce_cyclic(beta_gn(2, 100).word + (1, 2, 1, 2))
    assert _counted(S2, word, word) == _listed(S2, word, word) == (1602, 0)
    with pytest.raises(NotSimple):
        curves.Curve(S2, word)


def test_crossing_count_equals_the_walk_on_the_validate_long_pairs():
    # psi(B[2,n]) both as psi applied to B[2,n] and as cross_validate
    # builds it, T_{psi(c)}^n(psi(b_2)): the same curve, not the same word
    psi_b, psi_c = _psi_images(2)
    for n in range(4, 41, 4):
        bn = beta_gn(2, n)
        for image in (apply_word(monodromy_psi(2), bn), dehn_twist(psi_b, psi_c, n)):
            got = _counted(S2, bn.word, image.word)
            assert got == _listed(S2, bn.word, image.word), n
            assert got[0] >= 16 * n * n - 3


@pytest.mark.parametrize("g", [2, 3])
def test_crossing_count_equals_the_walk_on_long_words_against_the_system(g):
    surface = standard_surface(g)
    bn = beta_gn(g, 400).word
    for name, curve in standard_curve_system(g).named():
        for a, b in ((bn, curve.word), (curve.word, bn)):
            want = _listed(surface, a, b)
            assert _counted(surface, a, b) == want, name
            assert _len_and_sum(_crossing_list(surface, a, b)) == want, name


def _len_and_sum(xs):
    return len(xs), sum(x.eps for x in xs)


def test_both_forms_read_one_lift_classifier(monkeypatch):
    # flipping the sign of every block of branching lifts moves the list form
    # and the count form alike: neither decides a lift by a rule of its own.
    # B[2,3] crosses b2 in branching and coasting lifts, whose signs cancel
    bn, b2 = beta_gn(2, 3), standard_curve_system(2).betas[1]
    before = _len_and_sum(curves._crossings(S2, bn, b2))
    assert curves._crossing_count(bn, b2) == before == (12, 0)
    walk = curves._crossing_blocks

    def flipped(*args):
        for xs, ys, k, sign, eps in walk(*args):
            yield xs, ys, k, sign, -eps if sign == 0 else eps

    monkeypatch.setattr(curves, "_crossing_blocks", flipped)
    after = _len_and_sum(curves._crossings(S2, bn, b2))
    assert after == (12, -2)
    assert curves._crossing_count(bn, b2) == after


def test_crossing_count_raises_on_a_tie_at_the_cap(monkeypatch):
    # c's lifts coast along the twisted runs of B[2,5]; find the least
    # margin the oracle survives and hold both forms to it on both sides
    bn, c = beta_gn(2, 5).word, standard_curve_system(2).c.word
    cap0 = len(bn) + len(c)
    for a, b in ((bn, c), (c, bn)):
        margin = -cap0
        monkeypatch.setattr(curves, "_WALK_MARGIN", margin)
        while _listed(S2, a, b) == "bound":
            margin += 1
            monkeypatch.setattr(curves, "_WALK_MARGIN", margin)
        assert margin > -cap0 + 1  # some ray coasts for more than a step
        assert _counted(S2, a, b) == _listed(S2, a, b) != "bound"
        assert _tuples(_crossing_list(S2, a, b)) == oracle_crossings(S2, a, b)
        monkeypatch.setattr(curves, "_WALK_MARGIN", margin - 1)
        with pytest.raises(WalkBoundExceeded):
            _count(S2, a, b)
        with pytest.raises(WalkBoundExceeded):
            _crossing_list(S2, a, b)


def test_both_forms_equal_the_oracle_on_every_pair_of_short_genus_2_curves():
    # small scope: the 99 simple genus-2 curves of length <= 4, listed by the
    # oracles, and all 9,702 ordered pairs of distinct ones.  Coasting rays
    # tie up to 5 letters deep there, so tie groups nest several levels
    words = oracle_simple_words(S2, 4)
    assert len(words) == 99
    depths = Counter()
    for a, b in itertools.permutations(words, 2):
        listed = _tuples(_crossing_list(S2, a, b))
        assert listed == oracle_crossings(S2, a, b), (a, b)
        assert _count(S2, a, b) == (len(listed), sum(x[4] for x in listed)), (a, b)
        depths.update(k for _, _, k, _, _ in listed)
    assert max(depths) == 5 and depths[2] == 2240
    assert sum(n for k, n in depths.items() if k >= 3) == 440


def _kept(curve):
    """The derived fields a curve keeps for its crossing counts, None where
    not built; read off the instance dict, since reading a property builds it."""
    names = ("_kept_corners", "_kept_codes", "_kept_inverse_codes")
    return tuple(vars(curve).get(name) for name in names)


def _same_objects(xs, ys):
    return all(x is y for x, y in zip(xs, ys, strict=True))


def test_memoized_tables_count_like_the_listing_oracle(sys2):
    rng = random.Random(1517)
    pool = [beta_gn(2, 5), apply_word(monodromy_psi(2), beta_gn(2, 2))]
    pool += [random_curve(rng, 2) for _ in range(6)] + [c for _, c in sys2.named()]
    for sweep in range(3):
        for a in pool:
            for b in pool:
                want = _listed(S2, a.word, b.word)
                assert curves.crossing_count(a, b) == want, (a, b)
                assert curves.crossing_count(b, a) == _listed(S2, b.word, a.word)
            assert curves._crossing_count(a, a) == _listed(S2, a.word, a.word)
        if sweep == 0:
            kept = [_kept(curve) for curve in pool]
    # one set of fields per curve, kept across every count
    assert all(_same_objects(_kept(curve), k) for curve, k in zip(pool, kept))
    assert all("_kept_corners" in vars(curve) for curve in pool)
    assert all("_kept_codes" in vars(curve) for curve in pool[:2])


def test_inverse_codes_read_off_the_forward_codes_match_the_inverse_word():
    # the kept inverse codes negate the forward codes in reverse order; the
    # oracle computes them afresh on the inverse word
    rng = random.Random(3011)
    for g in range(2, 6):
        system = standard_curve_system(g)
        psi = monodromy_psi(g)
        psi_b, psi_c = _psi_images(g)
        pool = [c for _, c in system.named()]
        pool += [random_curve(rng, g) for _ in range(8)]
        for n in (0, 1, 2, 5, 6, 13, 40):
            bn = beta_gn(g, n)
            pool += [bn, apply_word(psi, bn)]
            if n:
                pool.append(dehn_twist(psi_b, psi_c, n))
        for curve in pool:
            fresh = fast_curve(curve.surface, curve.word)
            want = oracle_turn_codes(curve.surface, curves.inverse_word(curve.word))
            assert fresh._kept_inverse_codes == want, curve


def test_memoized_table_still_checks_the_walk_cap(monkeypatch):
    # the cap depends on both words and the margin, so no curve keeps it:
    # lowering the margin after the fields are built still raises
    bn, c = beta_gn(2, 5), standard_curve_system(2).c
    for a, b in ((bn, c), (c, bn)):
        want = curves.crossing_count(a, b)
        kept = _kept(a), _kept(b)
        assert "_kept_codes" in vars(a) or "_kept_codes" in vars(b)  # a ray coasted
        margin = -len(bn) - len(c)
        monkeypatch.setattr(curves, "_WALK_MARGIN", margin)
        while _listed(S2, a.word, b.word) == "bound":
            margin += 1
            monkeypatch.setattr(curves, "_WALK_MARGIN", margin)
        assert curves.crossing_count(a, b) == want
        monkeypatch.setattr(curves, "_WALK_MARGIN", margin - 1)
        with pytest.raises(WalkBoundExceeded):
            curves.crossing_count(a, b)
        assert _same_objects(_kept(a), kept[0]) and _same_objects(_kept(b), kept[1])
        monkeypatch.undo()
        assert curves.crossing_count(a, b) == want


def test_crossing_count_cap_is_a_typed_error_even_under_python_O():
    # with the margin far below zero, the first coasting ray is past the cap
    assert raises_under_python_O(
        """
        from lspacecert import curves
        from lspacecert.mcg import beta_gn, standard_curve_system
        bn, c = beta_gn(2, 5), standard_curve_system(2).c
        curves._WALK_MARGIN = -10**6
        curves.crossing_count(bn, c)
        """,
        "WalkBoundExceeded",
    )


def test_twist_surgery_cap_is_a_typed_error_even_under_python_O():
    # B[2,5] is built by twisting at the default margin; twisting it once
    # more about c lists crossings whose rays coast past any negative cap
    assert raises_under_python_O(
        """
        from lspacecert import curves
        from lspacecert.mcg import beta_gn, standard_curve_system
        bn, c = beta_gn(2, 5), standard_curve_system(2).c
        curves._WALK_MARGIN = -10**6
        curves.dehn_twist(bn, c)
        """,
        "WalkBoundExceeded",
    )


# ---------------------------------------------------------------------------
# counts against a curve twisted many times

def _p0(partner, target, about):
    """The power from which counts of partner against T_about^k(target)
    are affine in |k|, at the default margin."""
    margin = curves._DEFAULT_WALK_MARGIN
    return -(-(len(partner) + len(target) + len(about) + margin) // len(about)) + 2


def _expanded(curve):
    """A curve of the same word that keeps no twist, so counts read the
    word, and nothing else: a copy of a partner keeps no counts."""
    return fast_curve(curve.surface, curve.word)


def _record_extrapolations(monkeypatch):
    """Record every count read off two short twists."""
    counts = []
    inner = curves._run_extrapolated_count

    def spy(*args):
        count = inner(*args)
        if count is not None:
            counts.append(count)
        return count

    monkeypatch.setattr(curves, "_run_extrapolated_count", spy)
    return counts


def _both_orders(partner, twisted):
    """crossing_count in both orders, each with the walk on the expanded word."""
    plain = _expanded(twisted)
    return [
        (curves.crossing_count(partner, twisted), curves._crossing_count(partner, plain)),
        (curves.crossing_count(twisted, partner), curves._crossing_count(plain, partner)),
    ]


def test_counts_against_long_twists_equal_the_walk_on_the_expanded_word(monkeypatch):
    # the window bound (Fine and Wilf): from p0 on, every count against
    # T^k(t) is affine in |k| and reads two short twists, so the bound is
    # held to every power from p0 on
    fast = _record_extrapolations(monkeypatch)
    rng = random.Random(2401)
    checked = 0
    for trial in range(300):
        g = 2 + trial % 3
        partner, about = random_curve(rng, g, max_len=3), random_curve(rng, g, max_len=3)
        target = _expanded(random_curve(rng, g, max_len=3))  # it keeps no twist
        if is_isotopic(target, about):
            continue
        p0 = _p0(partner, target, about)
        power = rng.choice([*range(1, 3 * p0 + 1), 50, 200]) * rng.choice((1, -1))
        twisted = dehn_twist(target, about, power)
        if is_isotopic(partner, twisted):
            continue
        for got, want in _both_orders(partner, twisted):
            assert got == want, (g, partner.word, target.word, about.word, power)
            checked += 1
    for g in range(2, 6):
        for n in (30, 100, 400):
            bn = beta_gn(g, n)
            for name, curve in standard_curve_system(g).named():
                for got, want in _both_orders(curve, bn):
                    assert got == want, (g, n, name)
                    checked += 1
    assert checked >= 700 and len(fast) >= 400


def test_a_reversed_target_twisted_many_times_flips_every_signed_count(monkeypatch):
    # the counts are kept under the target's word: a reversed copy is
    # isotopic to the target, and a key by isotopy would hand it the
    # target's counts, whose signed sums have the other sign
    fast = _record_extrapolations(monkeypatch)
    rng = random.Random(2402)
    flipped = 0
    for g in (2, 3):
        partners = [curve for _, curve in standard_curve_system(g).named()]
        for _ in range(12):
            target, about = _expanded(random_curve(rng, g)), random_curve(rng, g)
            if is_isotopic(target, about):
                continue
            # the least power at which every partner takes the short twists
            power = max(_p0(x, target, about) for x in partners)
            reverse = curves.Curve(target.surface, curves.inverse_word(target.word))
            twisted = dehn_twist(target, about, power)
            twisted_reverse = dehn_twist(reverse, about, power)
            for partner in partners:
                if is_isotopic(partner, twisted):
                    continue
                for order in ((partner, twisted), (twisted, partner)):
                    number, signed = curves.crossing_count(*order)
                    swap = [twisted_reverse if x is twisted else x for x in order]
                    assert curves.crossing_count(*swap) == (number, -signed)
                    plain = [_expanded(x) if x is twisted else x for x in order]
                    assert curves._crossing_count(*plain) == (number, signed)
                    flipped += signed != 0
    assert flipped >= 100 and len(fast) >= 2 * flipped


def test_extension_equals_the_walk_on_every_short_genus_2_triple(monkeypatch):
    # small scope: the 13 simple genus-2 curves of length <= 2.  For every
    # crossing target and twisting curve and every partner in both
    # orientations, the counts at +-(p0 + 2) and +-(p0 + 3), which extend
    # the short twists' line by 2 and 3 periods, equal the expanded walk
    fast = _record_extrapolations(monkeypatch)
    words = oracle_simple_words(S2, 2)
    assert len(words) == 13
    partners = [fast_curve(S2, w) for w in words]
    partners += [fast_curve(S2, curves.inverse_word(w)) for w in words]
    checked = 0
    for t, u in itertools.permutations(words, 2):
        target, about = fast_curve(S2, t), fast_curve(S2, u)
        if not intersection_number(target, about):
            continue
        for partner in partners:
            p0 = _p0(partner.word, t, u)
            for power in (p0 + 2, p0 + 3, -p0 - 2, -p0 - 3):
                twisted = dehn_twist(target, about, power)
                plain = _expanded(twisted), fast_curve(S2, partner.word)
                for order, walked in (((partner, twisted), plain[::-1]), ((twisted, partner), plain)):
                    assert curves.crossing_count(*order) == curves._crossing_count(*walked), (
                        t, u, partner.word, power
                    )
                    checked += 1
    assert checked == len(fast) == 20800


def test_a_twist_record_that_does_not_fit_the_word_is_not_extrapolated():
    # the word of B[2,101] with the record of B[2,100]: its length is one
    # step off the short twists' line, so the count walks the word
    system = standard_curve_system(2)
    forged = _expanded(beta_gn(2, 101))
    object.__setattr__(forged, "_twist", (system.betas[-1], system.c, 100))
    assert intersection_number(system.alphas[0], forged) == 4 * 101


def test_a_twist_keeps_its_target_only_where_the_target_keeps_none():
    # psi(B) twists B, which keeps b_g, and then twists each image again:
    # every image keeps at most one earlier word, never a chain of them
    system = standard_curve_system(2)
    bn = beta_gn(2, 30)
    assert bn._twist == (system.betas[-1], system.c, 30)
    out = bn
    for about, power in reversed(monodromy_psi(2).factors):
        image = dehn_twist(out, about, power)
        if image is not out:
            kept = image._twist
            if out._twist is None:
                assert kept[0] is out and kept[1] is about and kept[2] == power
                assert kept[0]._twist is None
            else:
                assert kept is None
        out = image
    assert out == apply_word(monodromy_psi(2), bn)


def _cold_twist(g, n):
    """T(c)^n(b_g) and its target, a copy of b_g that no other test warms."""
    system = standard_curve_system(g)
    target = fast_curve(system.c.surface, system.betas[-1].word)
    return target, dehn_twist(target, system.c, n)


def test_a_lowered_margin_gives_the_expanded_count_or_the_walk_bound(monkeypatch):
    # p0 reads the margin at no less than its default, so a lowered cap
    # cannot send it below 1 and read twists of the other direction.  The
    # target and the partners keep nothing when each margin is lowered,
    # so each count is the walk on the expanded word or raises
    # WalkBoundExceeded
    target, bn = _cold_twist(2, 100)
    named = standard_curve_system(2).named()
    want = {name: [w for _, w in _both_orders(curve, bn)] for name, curve in named}
    fast = _record_extrapolations(monkeypatch)
    raised, powers = 0, set()
    for margin in (-10**6, -801, -100, -20, -9, -5, -1, 0):
        vars(target).pop("_kept", None)
        partners = [(name, _expanded(curve)) for name, curve in named]
        monkeypatch.setattr(curves, "_WALK_MARGIN", margin)
        for name, curve in partners:
            for (a, b), expected in zip(((curve, bn), (bn, curve)), want[name]):
                try:
                    assert curves.crossing_count(a, b) == expected, (margin, name)
                except WalkBoundExceeded:
                    raised += 1
        # each partner key ends in the signed p0 of the twists it counted
        powers |= {key[2] for _, curve in partners for key in vars(curve).get("_kept", ())}
    # every count that does not raise is read off the short twists
    assert raised and fast and raised + len(fast) == 8 * 2 * len(named)
    assert powers and min(powers) >= 1


def test_kept_short_counts_equal_the_walk_on_the_expanded_word(monkeypatch):
    # the counts against T^p0(t) and T^(p0+1)(t) are kept on the partner:
    # counted a second time, B[g,n] (and b_g twisted -n times) against
    # each system curve in each order walks nothing where it extrapolates,
    # and still equals the expanded walk
    fast = _record_extrapolations(monkeypatch)
    walks = []
    inner = curves._crossing_count
    monkeypatch.setattr(curves, "_crossing_count", lambda a, b: walks.append((a, b)) or inner(a, b))
    rng = random.Random(2502)
    for g in (2, 3):
        system = standard_curve_system(g)
        partners = [curve for _, curve in system.named()]
        partners += [random_curve(rng, g, max_len=2) for _ in range(4)]
        for power in (30, -30, 400, -400):
            twisted = dehn_twist(system.betas[-1], system.c, power)
            pairs = [
                order
                for curve in partners if not is_isotopic(curve, twisted)
                for order in ((curve, twisted), (twisted, curve))
            ]
            want = [curves._crossing_count(*[_expanded(x) for x in order]) for order in pairs]
            for order in pairs:
                curves.crossing_count(*order)
            fast.clear()
            walks.clear()
            for order, expected in zip(pairs, want):
                assert curves.crossing_count(*order) == expected, (g, power, order)
            assert fast and len(walks) == len(pairs) - len(fast), (g, power)


def test_a_reversed_partner_gets_its_own_kept_signed_count(monkeypatch):
    # the kept counts live on the partner, whose word carries its
    # orientation: a reversed partner is isotopic to the partner, and reads
    # the signed sum of the other sign, not the partner's kept one
    fast = _record_extrapolations(monkeypatch)
    rng = random.Random(2501)
    flipped = 0
    for g in (2, 3):
        bn = beta_gn(g, 100)
        partners = [curve for _, curve in standard_curve_system(g).named()]
        partners += [random_curve(rng, g, max_len=2) for _ in range(8)]
        for curve in partners:
            if is_isotopic(curve, bn):
                continue
            reverse = curves.Curve(curve.surface, curves.inverse_word(curve.word))
            for order in ((curve, bn), (bn, curve)):
                number, signed = curves.crossing_count(*order)
                swap = [reverse if x is curve else x for x in order]
                assert curves.crossing_count(*swap) == (number, -signed), (g, curve.word)
                plain = [_expanded(x) if x is bn else x for x in swap]
                assert curves._crossing_count(*plain) == (number, -signed), (g, curve.word)
                flipped += signed != 0
    assert flipped >= 12 and len(fast) >= 4 * flipped


def test_a_warm_partner_answers_a_lowered_margin_from_its_kept_counts(monkeypatch):
    # no key holds the margin.  Under a lowered cap a partner that keeps
    # nothing, against a target that keeps nothing, walks, and raises
    # WalkBoundExceeded or gives the walk on the expanded word; once the
    # partner keeps the counts, made under the default cap, it answers
    # from them and walks nothing
    target, bn = _cold_twist(2, 100)
    named = standard_curve_system(2).named()
    want = {name: [w for _, w in _both_orders(curve, bn)] for name, curve in named}
    walks = []
    inner = curves._crossing_count
    monkeypatch.setattr(curves, "_crossing_count", lambda a, b: walks.append((a, b)) or inner(a, b))

    def outcome(a, b):
        try:
            return curves.crossing_count(a, b)
        except WalkBoundExceeded:
            return "raised"

    raised = 0
    for margin in (-10**6, -100, -20, -5, 0):
        for name, partner in named:
            for flip, expected in enumerate(want[name]):
                vars(target).pop("_kept", None)
                curve = _expanded(partner)
                a, b = (bn, curve) if flip else (curve, bn)
                monkeypatch.setattr(curves, "_WALK_MARGIN", margin)
                cold = outcome(a, b)
                assert cold in (expected, "raised"), (margin, name)
                raised += cold == "raised"
                monkeypatch.setattr(curves, "_WALK_MARGIN", curves._DEFAULT_WALK_MARGIN)
                curves.crossing_count(a, b)  # kept under the default cap
                monkeypatch.setattr(curves, "_WALK_MARGIN", margin)
                walks.clear()
                assert outcome(a, b) == expected and walks == [], (margin, name)
    assert raised


def test_both_argument_orders_read_one_kept_count(monkeypatch):
    # the counts against the short twists are kept on the partner alone:
    # once x is counted against B[g,n] with n >= p0, the count of B[g,n]
    # against x reads the same entry of x, with the signed sum negated,
    # and walks nothing
    walks = []
    inner = curves._crossing_count
    monkeypatch.setattr(curves, "_crossing_count", lambda a, b: walks.append((a, b)) or inner(a, b))
    rng = random.Random(2901)
    checked = 0
    for g in (2, 3):
        system = standard_curve_system(g)
        partners = [curve for _, curve in system.named()]
        partners += [random_curve(rng, g, max_len=2) for _ in range(4)]
        for n in (30, 400):
            target, bn = _cold_twist(g, n)
            for x in partners:
                if is_isotopic(x, bn) or n < _p0(x, target, system.c):
                    continue
                number, signed = curves.crossing_count(x, bn)
                key = (target.word, system.c.word, _p0(x, target, system.c))
                kept = dict(x._kept)
                walks.clear()
                assert curves.crossing_count(bn, x) == (number, -signed), (g, n, x.word)
                assert walks == [] and key in kept and x._kept == kept, (g, n, x.word)
                checked += 1
    assert checked >= 30


def test_a_forged_twist_record_on_a_warm_target_is_not_extrapolated(monkeypatch):
    # a1 keeps its counts against T(c)^p0(b_2); a curve of B[2,101]'s word
    # that claims to be T(c)^100(b_2) fails the length check before they
    # are read, in either argument order
    system = standard_curve_system(2)
    a1, b2, c = system.alphas[0], system.betas[-1], system.c
    assert intersection_number(a1, beta_gn(2, 100)) == 4 * 100
    assert a1._kept[b2.word, c.word, _p0(a1, b2, c)] is not None  # counts are kept
    fast = _record_extrapolations(monkeypatch)
    forged = _expanded(beta_gn(2, 101))
    object.__setattr__(forged, "_twist", (system.betas[-1], system.c, 100))
    assert intersection_number(a1, forged) == intersection_number(forged, a1) == 4 * 101
    assert fast == []


def _ints_or_none(value):
    """Whether a kept value is built of ints and None alone, in tuples."""
    if type(value) is tuple:
        return all(map(_ints_or_none, value))
    return value is None or type(value) is int


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_what_a_curve_keeps_does_not_grow_with_its_partners(seed):
    # a target keeps one plan per twisting curve, a partner one entry per
    # twist family it is counted against, and a long twist one pair of
    # short twists: 300 random partners of B[2,100] of assorted lengths,
    # counted in both orders, leave b_2 its plan about c, each partner
    # that extrapolated one entry, and the long twist the partners' entries
    # were built on the pair of the last p0 it was counted at.  The partners are copies that keep
    # nothing.  The cached b_2, which the random twists also twist, and
    # other tests count as a partner, keeps what it kept before the counts
    rng = random.Random(seed)
    system = standard_curve_system(2)
    b2, c = system.betas[-1], system.c
    target, bn = _cold_twist(2, 100)
    partners = [_expanded(random_curve(rng, 2)) for _ in range(300)]
    cached = beta_gn(2, 100)
    before = b2._kept.copy()
    extrapolated, counted_at = 0, []
    for partner in partners:
        for twisted in (bn, cached):
            if is_isotopic(partner, twisted):
                continue
            number, signed = curves.crossing_count(partner, twisted)
            assert curves.crossing_count(twisted, partner) == (number, -signed)
        kept = vars(partner).get("_kept", {})
        p0 = _p0(partner, b2, c)
        if is_isotopic(partner, bn) or p0 > 100:
            assert kept == {}, partner
            continue
        assert list(kept) == [(b2.word, c.word, p0)], partner
        assert _ints_or_none(kept[b2.word, c.word, p0]), partner
        extrapolated += kept[b2.word, c.word, p0] is not None
        counted_at.append(p0)
    assert list(target._kept) == [(c.word,)] and _ints_or_none(target._kept[c.word,])
    assert b2._kept == before and (c.word,) in before
    assert extrapolated >= 250 and len(set(counted_at)) > 1
    # each partner's entry was built on bn, which keeps the pair of the
    # last p0; the other long twist of the family read the entries
    assert list(bn._kept) == [()] and cached._kept == {}
    p0, near, far = bn._kept[()]
    assert p0 == counted_at[-1]
    assert near.word == dehn_twist(target, c, p0).word
    assert far.word == dehn_twist(target, c, p0 + 1).word


# ---------------------------------------------------------------------------
# homology

def test_homology_classes(sys2):
    a1, a2 = sys2.alphas
    b1, b2 = sys2.betas
    c = sys2.c
    assert homology_class(c) == (0, 0, 0, 0)
    assert homology_class(a1) == (1, 0, 0, 0)
    assert homology_class(b1) == (0, 1, 0, 0)
    assert homology_class(a2) == (0, 0, 1, 0)
    assert homology_class(b2) == (0, 0, 0, 1)


def test_homology_canonical_sign(sys2):
    _, b2 = sys2.betas
    # reversal flips every crossing sign but not the reported class
    rev = curves.Curve(S2, tuple(-x for x in reversed(b2.word)))
    assert homology_class(rev) == homology_class(b2)


def test_homology_class_matches_the_dense_vector_oracle(rng):
    # the class of a word is its sparse signed count per arc; the class of
    # a curve is that vector with the first nonzero entry positive
    for g in (2, 3, 4):
        for _ in range(30):
            curve = random_curve(rng, g)
            rev = curves.Curve(curve.surface, curves.inverse_word(curve.word))
            for x in (curve, rev):
                vector = oriented_class(x.word, 2 * g)
                assert curves._word_class(x.word) == {k: v for k, v in enumerate(vector) if v}
                assert homology_class(x) == canonical_sign(vector)
    assert curves._word_class((1, 2, -1, -2)) == {}


def test_twisting_about_nullhomologous_curve_fixes_class(sys2):
    _, b2 = sys2.betas
    for n in range(6):
        assert homology_class(beta_gn(2, n)) == homology_class(b2)
