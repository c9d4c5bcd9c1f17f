import random
from fractions import Fraction

import pytest

from lspacecert import curves, mcg
from lspacecert.curves import (
    _crossing_count,
    _merged_crossing_count,
    algebraic_intersection_number,
    homology_class,
    intersection_number,
    is_isotopic,
)
from lspacecert import poly as poly_module
from lspacecert.dsl import curve_from_text
from lspacecert.errors import (
    AnchorViolation,
    CoefficientBoundTooLarge,
    GenusTooSmall,
    MalformedInput,
    NegativePower,
    SurfaceMismatch,
    WorkbenchError,
)
from lspacecert.mcg import (
    TwistWord,
    alexander_polynomial,
    apply_word,
    beta_gn,
    homology_action,
    monodromy_phi,
    monodromy_psi,
    standard_curve_system,
    symplectic_form,
)
from lspacecert.poly import LaurentPoly, _mat_mul, charpoly
from lspacecert.surface import SurfaceSpec, chain_boundary_order, standard_surface

from conftest import random_curve, random_twist_word, raises_under_python_O
from oracles import (
    _dense_rows,
    _sparse_rows,
    canonical_sign,
    oracle_chain_pattern,
    oracle_charpoly,
    oracle_charpoly_fl,
    oracle_homology_action,
    oracle_is_mersenne_prime,
    oracle_mat_mul,
    oriented_class,
    seifert_torus_alexander,
)


# ---------------------------------------------------------------------------
# the standard system

@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_system_chain_pattern(g):
    system = standard_curve_system(g)
    chain = system.chain()
    assert len(chain) == 2 * g
    for i, x in enumerate(chain):
        for j, y in enumerate(chain):
            want = 1 if abs(i - j) == 1 else 0
            assert intersection_number(x, y) == want


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_system_c_pattern(g):
    system = standard_curve_system(g)
    c = system.c
    assert intersection_number(c, system.betas[-1]) == 2
    assert intersection_number(c, system.alphas[-2]) == 2
    assert intersection_number(c, system.alphas[-1]) == 0
    for x in system.alphas[:-2] + system.betas[:-1]:
        assert intersection_number(c, x) == 0
    assert homology_class(c) == tuple([0] * (2 * g))


def _merged_corners(curves_):
    """The union of the kept corner classes of the curves, as the standard
    system collects it."""
    corners = {}
    for y in curves_:
        for corner, ts in y._kept_corners.items():
            corners.setdefault(corner, []).extend(ts)
    return corners


@pytest.mark.parametrize("g", [*range(2, 13), 40])
def test_system_matches_the_pairwise_chain_oracle(g):
    chain = standard_curve_system(g).chain()
    pattern = oracle_chain_pattern(chain)
    assert len(pattern) == g * (2 * g - 1)
    assert pattern == {
        (i, j): (1, 1) if j == i + 1 else (0, 0) for i, j in pattern
    }
    for i, x in enumerate(chain[:-2]):
        later = chain[i + 2:]
        assert _merged_crossing_count(x, _merged_corners(later)) == sum(
            pattern[i, j][0] for j in range(i + 2, 2 * g)
        )


@pytest.mark.parametrize("g", range(2, 7))
def test_merged_count_is_the_sum_of_the_pairwise_counts(rng, g):
    chain = standard_curve_system(g).chain()
    totals = []
    for _ in range(30):
        i = rng.randrange(2 * g)
        others = [y for k, y in enumerate(chain) if k != i and rng.random() < 0.5]
        total = sum(_crossing_count(chain[i], y)[0] for y in others)
        assert _merged_crossing_count(chain[i], _merged_corners(others)) == total
        totals.append(total)
    # subsets with a neighbour of chain[i] cross it, the others do not
    assert 0 in totals and max(totals) == 2


def test_merged_count_refuses_rays_that_run_along_the_axis(sys2):
    # c = a2 b1 a2^-1 b1^-1 runs along the axes of a2 and b1
    a1, b1, a2, _ = sys2.chain()
    for axis in (b1, a2):
        with pytest.raises(MalformedInput):
            _merged_crossing_count(axis, _merged_corners([sys2.c]))
    assert _merged_crossing_count(a1, _merged_corners([b1, a2])) == 1


def test_merged_count_refuses_rays_that_run_along_the_axis_even_under_python_O():
    assert raises_under_python_O(
        """
        from lspacecert.curves import _merged_crossing_count
        from lspacecert.mcg import standard_curve_system
        system = standard_curve_system(2)
        _merged_crossing_count(system.alphas[1], dict(system.c._kept_corners))
        """,
        "MalformedInput",
    )


def _interleaved_surface(g, k):
    """The chain-adapted surface with boundary entries k and k + 1 swapped,
    which makes two chain curves that are not neighbours cross."""
    order = list(chain_boundary_order(g))
    order[k], order[k + 1] = order[k + 1], order[k]
    arcs = tuple(f"e{i}" for i in range(1, 2 * g + 1))
    return SurfaceSpec(genus=g, cut_arcs=arcs, boundary_order=tuple(order))


@pytest.mark.parametrize("g, k, fact", [
    (3, 2, "iota(chain_1, chain_3..chain_6)"),  # arcs 1 and 3 interleave
    (4, 6, "iota(chain_3, chain_5..chain_8)"),  # arcs 3 and 5 interleave
    (3, 8, "iota(chain_4, chain_6)"),  # arcs 4 and 6 interleave
])
def test_chain_disjointness_check_is_live(monkeypatch, fresh_system_caches, g, k, fact):
    monkeypatch.setattr(mcg, "standard_surface", lambda g: _interleaved_surface(g, k))
    with pytest.raises(AnchorViolation) as exc:
        standard_curve_system(g)
    assert (exc.value.fact, exc.value.expected, exc.value.got) == (fact, 0, 1)


def test_chain_disjointness_check_is_live_even_under_python_O():
    assert raises_under_python_O(
        """
        from lspacecert import mcg
        from lspacecert.surface import SurfaceSpec, chain_boundary_order
        order = list(chain_boundary_order(3))
        order[2], order[3] = order[3], order[2]
        arcs = tuple(f"e{i}" for i in range(1, 7))
        mcg.standard_surface = lambda g: SurfaceSpec(3, arcs, tuple(order))
        try:
            mcg.standard_curve_system(3)
        except AnchorViolation as exc:
            if exc.fact == "iota(chain_1, chain_3..chain_6)":
                raise
        """,
        "AnchorViolation",
    )


def test_genus_too_small():
    with pytest.raises(GenusTooSmall):
        standard_curve_system(1)


# ---------------------------------------------------------------------------
# monodromies

def test_phi_word_order():
    word = monodromy_phi(2, 0)
    system = standard_curve_system(2)
    expect = [system.betas[1], system.betas[0], system.alphas[1], system.alphas[0]]
    assert [c for c, _ in word.factors] == expect
    assert all(p == 1 for _, p in word.factors)


def test_phi_outermost_factor_is_twisted():
    word = monodromy_phi(2, 3)
    outer, _ = word.factors[0]
    assert is_isotopic(outer, beta_gn(2, 3))


@pytest.mark.parametrize("g", [2, 3, 4])
def test_phi_has_2g_factors_and_splits_as_twist_then_psi(g):
    n = 2
    phi = monodromy_phi(g, n)
    psi = monodromy_psi(g)
    assert len(phi) == 2 * g
    assert len(psi) == 2 * g - 1
    recombined = TwistWord(((beta_gn(g, n), 1),)) * psi
    assert recombined == phi


def test_beta_gn_examples():
    assert is_isotopic(beta_gn(2, 0), standard_curve_system(2).betas[-1])
    assert intersection_number(beta_gn(2, 1), standard_curve_system(2).alphas[0]) == 4
    assert intersection_number(beta_gn(2, 5), standard_curve_system(2).alphas[1]) == 1
    with pytest.raises(NegativePower):
        beta_gn(2, -1)
    with pytest.raises(GenusTooSmall):
        beta_gn(1, 1)


NON_INT_POWERS = {
    "twist-1.5": lambda s: curves.dehn_twist(s.betas[-1], s.c, 1.5),
    "twist-2.0": lambda s: curves.dehn_twist(s.betas[-1], s.c, 2.0),
    "twist-True": lambda s: curves.dehn_twist(s.betas[-1], s.c, True),
    "beta-2.0": lambda s: beta_gn(2, 2.0),
    "beta-str": lambda s: beta_gn(2, "3"),
    "phi-1.0": lambda s: monodromy_phi(2, 1.0),
}


@pytest.mark.parametrize("name", NON_INT_POWERS)
def test_a_twist_power_that_is_not_an_int_is_malformed_input(name):
    # the type is checked before the power is used, so no bare TypeError
    # escapes, and a bool does not pass as 1
    with pytest.raises(MalformedInput):
        NON_INT_POWERS[name](standard_curve_system(2))


def test_a_twist_power_that_is_not_an_int_is_a_typed_error_even_under_python_O():
    assert raises_under_python_O(
        """
        from lspacecert.curves import dehn_twist
        from lspacecert.mcg import beta_gn, standard_curve_system
        s = standard_curve_system(2)
        try:
            dehn_twist(s.betas[-1], s.c, 1.5)
        except MalformedInput:
            beta_gn(2, "3")
        """,
        "MalformedInput",
    )


NON_INT_GENERA = {
    "system-3.0": lambda: standard_curve_system(3.0),
    "system-str": lambda: standard_curve_system("3"),
    "system-True": lambda: standard_curve_system(True),
    "system-list": lambda: standard_curve_system([3]),
    "surface-2.0": lambda: standard_surface(2.0),
    "surface-True": lambda: standard_surface(True),
    "spec-3.0": lambda: SurfaceSpec(3.0, standard_surface(3).cut_arcs, chain_boundary_order(3)),
    "spec-True": lambda: SurfaceSpec(True, ("e1", "e2"), (1, 2, -1, -2)),
    "order-3.0": lambda: chain_boundary_order(3.0),
    "order-True": lambda: chain_boundary_order(True),
    "beta-4.0": lambda: beta_gn(4.0, 2),
    "psi-5.0": lambda: monodromy_psi(5.0),
    "dsl-6.0": lambda: curve_from_text("a1", 6.0),
}


@pytest.mark.parametrize("name", NON_INT_GENERA)
def test_a_genus_that_is_not_an_int_is_malformed_input(name):
    # the genus is checked before a cache sees it: a warm cache of the
    # equal int answers no float, and a bool does not pass as 1
    for g in (2, 3, 4, 5, 6):
        standard_curve_system(g)
    with pytest.raises(MalformedInput):
        NON_INT_GENERA[name]()


def test_a_genus_that_is_not_an_int_is_a_typed_error_even_under_python_O():
    assert raises_under_python_O(
        """
        from lspacecert.mcg import standard_curve_system
        standard_curve_system(3)
        standard_curve_system(3.0)
        """,
        "MalformedInput",
    )


def test_a_surface_genus_that_is_not_an_int_is_a_typed_error_even_under_python_O():
    assert raises_under_python_O(
        """
        from lspacecert.surface import SurfaceSpec, chain_boundary_order
        try:
            SurfaceSpec(True, ("e1", "e2"), (1, 2, -1, -2))
        except MalformedInput:
            chain_boundary_order(3.0)
        """,
        "MalformedInput",
    )


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_psi_image_meets_beta_g_once(g):
    system = standard_curve_system(g)
    bg = system.betas[-1]
    assert intersection_number(bg, apply_word(monodromy_psi(g), bg)) == 1


def test_apply_empty_word_is_identity():
    b2 = standard_curve_system(2).betas[-1]
    assert apply_word(TwistWord(()), b2) is b2


def test_psi_image_of_beta_g_reduces_to_two_factors():
    # all other factors act trivially here, at the level of curves
    for g in (2, 3, 4):
        system = standard_curve_system(g)
        bg = system.betas[-1]
        two = TwistWord(((system.betas[-2], 1), (system.alphas[-1], 1)))
        assert is_isotopic(
            apply_word(monodromy_psi(g), bg), apply_word(two, bg)
        )


@pytest.mark.parametrize("g,n", [(3, 1), (3, 2), (4, 1)])
def test_psi_on_twisted_curve_reduces_up_to_a_translation_fixing_it(g, n):
    # The low-index beta twists do move the three-factor image for g >= 3
    # (their cores meet the inserted strands parallel to a_{g-1}), but the
    # full image is exactly that image translated by those twists, and the
    # translation fixes B[g,n].  Every rank against B[g,n] therefore agrees
    # with the three-factor computation.
    system = standard_curve_system(g)
    bn = beta_gn(g, n)
    short = apply_word(
        TwistWord(
            (
                (system.betas[g - 2], 1),
                (system.alphas[g - 1], 1),
                (system.alphas[g - 2], 1),
            )
        ),
        bn,
    )
    w = TwistWord(tuple((b, 1) for b in reversed(system.betas[: g - 2])))
    full = apply_word(monodromy_psi(g), bn)
    assert is_isotopic(apply_word(w, bn), bn)
    assert is_isotopic(full, apply_word(w, short))
    assert intersection_number(full, bn) == intersection_number(short, bn)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_twisted_pair_rank_meets_engine_bound(n):
    bn = beta_gn(2, n)
    image = apply_word(monodromy_psi(2), bn)
    assert intersection_number(image, bn) >= 16 * n * n - 3


# ---------------------------------------------------------------------------
# homology action

def test_twist_about_c_acts_trivially_on_homology():
    system = standard_curve_system(2)
    act = homology_action(TwistWord(((system.c, 1),)))
    assert act == [{r: 1} for r in range(4)]


def test_homological_monodromy_independent_of_n():
    base = homology_action(monodromy_phi(2, 0))
    for n in (1, 2, 5):
        assert homology_action(monodromy_phi(2, n)) == base


def test_action_is_symplectic_randomized(rng):
    # homology_action checks M^T J M = J on its result; just build random words
    for g in (2, 3):
        for _ in range(15):
            homology_action(random_twist_word(rng, g))


def test_action_matches_kernel_on_curves(rng):
    for g in (2, 3):
        for _ in range(15):
            w = random_twist_word(rng, g, max_len=3)
            x = random_curve(rng, g, max_len=2)
            lhs = homology_class(apply_word(w, x))
            v = oriented_class(x.word, 2 * g)
            rhs = canonical_sign(
                [sum(a * b for a, b in zip(row, v)) for row in _dense_rows(homology_action(w))]
            )
            assert lhs == rhs


@pytest.mark.parametrize("g", [2, 3, 4])
def test_action_matches_dense_transvection_oracle(rng, g):
    for _ in range(15):
        w = random_twist_word(rng, g)
        assert homology_action(w) == _sparse_rows(oracle_homology_action(w))


def _identity_form(g):
    return [{r: 1} for r in range(2 * g)]


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_action_on_classes_with_several_coordinates_matches_the_oracle(rng, g):
    # system curves have a single basis vector (or zero) as their class;
    # dragged curves mostly have several nonzero coordinates
    powers = [p for p in range(-3, 4) if p]
    several = 0
    for _ in range(40):
        w = TwistWord(tuple(
            (random_curve(rng, g), rng.choice(powers))
            for _ in range(rng.randint(1, 4))
        ))
        several += any(
            sum(map(bool, oriented_class(c.word, 2 * g))) > 1 for c, _ in w.factors
        )
        assert homology_action(w) == _sparse_rows(oracle_homology_action(w))
        inverse = TwistWord(tuple((c, -p) for c, p in reversed(w.factors)))
        assert homology_action(w * inverse) == _identity_form(g)
    assert several >= 10


def test_pairing_check_is_live(monkeypatch):
    monkeypatch.setattr(mcg, "symplectic_form", _identity_form)
    with pytest.raises(AnchorViolation):
        homology_action(monodromy_phi(2, 1))


def test_pairing_check_is_live_even_under_python_O():
    assert raises_under_python_O(
        """
        from lspacecert import mcg
        mcg.symplectic_form = lambda g: [{r: 1} for r in range(2 * g)]
        mcg.homology_action(mcg.monodromy_phi(2, 1))
        """,
        "AnchorViolation",
    )


def test_homology_action_of_the_empty_word_is_malformed_input():
    with pytest.raises(MalformedInput):
        homology_action(TwistWord(()))


def test_twist_word_over_two_surfaces_is_a_surface_mismatch():
    c2, c3 = standard_curve_system(2).c, standard_curve_system(3).c
    with pytest.raises(SurfaceMismatch):
        TwistWord(((c2, 1), (c3, 1)))
    with pytest.raises(SurfaceMismatch):
        TwistWord(((c2, 1),)) * TwistWord(((c3, -1),))


def test_symplectic_form_is_the_chain_form():
    j = symplectic_form(2)
    assert j == [{1: 1}, {0: -1, 2: 1}, {1: -1, 3: 1}, {2: -1}]


@pytest.mark.parametrize("g", [*range(2, 9), 40])
def test_symplectic_form_matches_the_kernel_on_every_ordered_pair(g):
    j = _dense_rows(symplectic_form(g))
    chain = standard_curve_system(g).chain()
    for r, x in enumerate(chain):
        for s, y in enumerate(chain):
            assert algebraic_intersection_number(x, y) == j[r][s], (r, s)


@pytest.mark.parametrize("name, flip, fact", [
    ("algebraic_intersection_number", lambda n: -n, "pairing(chain_2, chain_1)"),
    ("crossing_count", lambda r: (r[0], -r[1]), "pairing(chain_1, chain_2)"),
])
def test_chain_pairing_check_is_live(
    monkeypatch, fresh_system_caches, name, flip, fact
):
    kernel = getattr(mcg, name)
    monkeypatch.setattr(mcg, name, lambda a, b: flip(kernel(a, b)))
    with pytest.raises(AnchorViolation) as exc:
        standard_curve_system(3)
    assert exc.value.fact == fact


@pytest.mark.parametrize("g", [40, 160])
def test_the_homology_layer_stores_only_nonzero_entries(g):
    # J has 4g - 2 nonzeros and the monodromy actions 8g - 5, out of 4g^2
    j = symplectic_form(g)
    assert len(j) == 2 * g and sum(map(len, j)) == 4 * g - 2
    for n in (0, 3):
        m = homology_action(monodromy_phi(g, n))
        assert type(m) is list and len(m) == 2 * g
        assert all(type(row) is dict and 0 not in row.values() for row in m)
        assert sum(map(len, m)) == 8 * g - 5


def _count_walks(monkeypatch):
    """Record the arguments past the first of every call to a crossing
    kernel: the list form, the count form and the merged count, which the
    standard system calls through its own module."""
    walks = []
    for module, name in (
        (curves, "_crossings"), (curves, "_crossing_count"), (mcg, "_merged_crossing_count"),
    ):
        inner = getattr(module, name)
        monkeypatch.setattr(
            module, name,
            lambda *args, inner=inner: walks.append(args[1:]) or inner(*args),
        )
    return walks


@pytest.mark.parametrize("g", [2, 5])
def test_symplectic_form_walks_nothing_once_the_system_is_built(
    monkeypatch, fresh_system_caches, g
):
    standard_curve_system(g)
    walks = _count_walks(monkeypatch)
    symplectic_form(g)
    assert walks == []


@pytest.mark.parametrize("g", [10, 40, 160])
def test_system_and_pairing_take_ten_g_minus_three_walks(
    monkeypatch, fresh_system_caches, g
):
    # 2g - 1 neighbour counts with their forward signs, 2g - 1 reverse
    # neighbour signs, 2g - 2 merged counts of the other chain pairs, 2g
    # chain curves against c, and one self-crossing walk for each of the
    # 2g + 1 curves of the system
    walks = _count_walks(monkeypatch)
    standard_curve_system(g)
    symplectic_form(g)
    assert len(walks) == 10 * g - 3


# ---------------------------------------------------------------------------
# Alexander polynomials

def test_alexander_genus_two_verbatim():
    poly = alexander_polynomial(monodromy_phi(2, 0))
    assert str(poly) == "t^4 - t^3 + t^2 - t + 1"


@pytest.mark.parametrize("g", [2, 3, 4])
def test_alexander_independent_of_n_and_matches_seifert_oracle(g):
    polys = {alexander_polynomial(monodromy_phi(g, n)) for n in range(6)}
    assert len(polys) == 1
    poly = polys.pop()
    assert poly == LaurentPoly.from_dict(seifert_torus_alexander(g))
    assert abs(sum(c for _, c in poly.coeffs)) == 1
    assert poly.is_palindromic()
    assert len(poly.coeffs) == 2 * g + 1


def test_alexander_coefficients_alternate():
    poly = alexander_polynomial(monodromy_phi(3, 2))
    coeffs = [c for _, c in sorted(poly.coeffs)]
    assert coeffs == [(-1) ** e for e in range(7)]


def test_alexander_at_genus_forty_is_the_torus_knot_polynomial():
    # T(2, 81): all 81 coefficients of t^0 .. t^80 alternate, +1 at both ends
    poly = alexander_polynomial(monodromy_phi(40, 0))
    assert poly == LaurentPoly.from_dict({e: (-1) ** e for e in range(81)})


def test_alexander_at_genus_eighty_is_the_torus_knot_polynomial():
    # T(2, 161): a 160 x 160 action, reduced modulo 2^1279 - 1 (a 542-bit bound)
    poly = alexander_polynomial(monodromy_phi(80, 0))
    assert poly == LaurentPoly.from_dict({e: (-1) ** e for e in range(161)})


def test_alexander_at_genus_one_sixty_is_the_torus_knot_polynomial():
    # T(2, 321): all 321 coefficients of t^0 .. t^320 alternate
    poly = alexander_polynomial(monodromy_phi(160, 0))
    assert poly == LaurentPoly.from_dict({e: (-1) ** e for e in range(321)})


def test_charpoly_rejects_a_non_int_entry_even_under_python_O():
    with pytest.raises(WorkbenchError):
        charpoly([{0: Fraction(1, 2)}])
    assert raises_under_python_O(
        """
        from fractions import Fraction
        from lspacecert.poly import charpoly
        charpoly([{0: Fraction(1, 2)}])
        """,
        "WorkbenchError",
    )


# a matrix is a list of n sparse rows, each a dict int column in [0, n) -> int
MALFORMED_MATRICES = [
    {0: {0: 1}},  # not a list
    [[1, 0], {}],  # a row that is not a dict
    ["ab", {}],
    [{2: 1}, {}],  # a column out of range
    [{-1: 1}, {}],
    [{"0": 1}],  # a column that is not an int
    [{True: 1}],
    [{0: 2.0}],  # an entry that is not an int
    [{0: Fraction(2)}],
    [{0: True}],
    5,
    None,
]


@pytest.mark.parametrize("matrix", MALFORMED_MATRICES)
def test_charpoly_rejects_a_malformed_matrix_before_any_arithmetic(matrix, monkeypatch):
    def no_arithmetic(*args):
        raise AssertionError("charpoly ran arithmetic on a malformed matrix")

    monkeypatch.setattr(poly_module, "_coefficient_bound", no_arithmetic)
    monkeypatch.setattr(poly_module, "_hessenberg", no_arithmetic)
    with pytest.raises(MalformedInput):
        charpoly(matrix)


def test_charpoly_rejects_a_malformed_matrix_even_under_python_O():
    for matrix in (MALFORMED_MATRICES[i] for i in (1, 3, 7)):
        assert raises_under_python_O(
            f"""
            from lspacecert.poly import charpoly
            charpoly({matrix!r})
            """,
            "MalformedInput",
        )


# ---------------------------------------------------------------------------
# the matrix kernel against dense oracles

def _random_matrices(seed):
    """Seeded integer matrices, n = 1..6: sparse ones with entries in
    {-1, 0, 1}, fully dense ones with larger entries, and ones with zero rows."""
    rng = random.Random(seed)
    for n in range(1, 7):
        for _ in range(4):
            yield [[rng.choice((-1, 0, 0, 0, 1)) for _ in range(n)] for _ in range(n)]
            yield [[rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(n)]
                   for _ in range(n)]
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            m[rng.randrange(n)] = [0] * n
            yield m


def test_mat_mul_matches_triple_sum_oracle():
    mats = list(_random_matrices(7))
    for a, b in zip(mats, mats[1:]):
        if len(a) == len(b):
            got = _mat_mul(_sparse_rows(a), _sparse_rows(b))
            assert _dense_rows(got) == oracle_mat_mul(a, b)
            assert all(0 not in row.values() for row in got)
            got = _mat_mul(tuple(_sparse_rows(a)), _sparse_rows(b))
            assert _dense_rows(got) == oracle_mat_mul(a, b)
    assert _mat_mul(_sparse_rows([[0, 0], [0, 0]]), _sparse_rows([[1, 2], [3, 4]])) == [
        {},
        {},
    ]


def test_mat_mul_drops_the_entries_that_cancel():
    a, b = [[1, 1], [2, 2]], [[1, -1], [-1, 1]]
    assert oracle_mat_mul(a, b) == [[0, 0], [0, 0]]
    assert _mat_mul(_sparse_rows(a), _sparse_rows(b)) == [{}, {}]
    a, b = [[1, 1], [1, 0]], [[1, -1], [-1, 2]]
    assert oracle_mat_mul(a, b) == [[0, 1], [1, -1]]
    assert _mat_mul(_sparse_rows(a), _sparse_rows(b)) == [{1: 1}, {0: 1, 1: -1}]


def test_charpoly_matches_permutation_expansion_oracle():
    for m in _random_matrices(11):
        poly = charpoly(_sparse_rows(m))
        assert poly.as_dict() == oracle_charpoly(m)
        assert poly.max_exp == len(m) and poly.coefficient(len(m)) == 1
    assert charpoly([{}]) == LaurentPoly.from_dict({1: 1})
    assert charpoly([{0: -3}]) == LaurentPoly.from_dict({1: 1, 0: 3})
    assert charpoly([]) == LaurentPoly.from_dict({0: 1})


@pytest.mark.parametrize("g", [2, 3, 5, 8, 13, 20, 40])
def test_charpoly_of_the_monodromy_action_matches_the_list_loop_oracle(g):
    for n in (0, 3):
        m = homology_action(monodromy_phi(g, n))
        assert charpoly(m).as_dict() == oracle_charpoly_fl(_dense_rows(m))


def _large_random_matrices(seed):
    """Seeded integer matrices up to 24 x 24 with entries up to 10^6 in
    size, dense and sparse, including one all-zero and one diagonal."""
    rng = random.Random(seed)
    for n in (1, 2, 3, 5, 8, 13, 17, 24):
        for big in (1, 10**3, 10**6):
            yield [[rng.randint(-big, big) for _ in range(n)] for _ in range(n)]
            yield [[rng.randint(-big, big) if rng.random() < 0.2 else 0
                    for _ in range(n)] for _ in range(n)]
    yield [[0] * 24 for _ in range(24)]
    yield [[10**6 * (i == j) for j in range(24)] for i in range(24)]


def test_charpoly_matches_the_list_loop_oracle_on_large_random_matrices():
    for m in _large_random_matrices(12):
        assert charpoly(_sparse_rows(m)).as_dict() == oracle_charpoly_fl(m)


def _bound_and_modulus(rows):
    bound = poly_module._coefficient_bound(rows)
    return bound, poly_module._modulus(bound)


def test_coefficient_bound_holds_on_large_random_matrices():
    for m in _large_random_matrices(12):
        bound, p = _bound_and_modulus(_sparse_rows(m))
        assert sum(abs(c) for c in oracle_charpoly_fl(m).values()) <= bound
        assert p > 2 * bound


@pytest.mark.parametrize("g", range(2, 41))
def test_coefficient_bound_holds_on_the_monodromy_actions(g):
    for n in (0, 3):
        m = homology_action(monodromy_phi(g, n))
        bound, p = _bound_and_modulus(m)
        assert sum(abs(c) for _, c in charpoly(m).coeffs) <= bound
        assert p > 2 * bound


def test_modulus_is_the_smallest_tabled_prime_above_twice_the_bound():
    assert poly_module._modulus(0) == 2**61 - 1
    assert poly_module._modulus(2**60 - 1) == 2**61 - 1
    assert poly_module._modulus(2**60) == 2**89 - 1
    assert poly_module._modulus(2**1278 - 1) == 2**1279 - 1
    # the residue of -(2^60 + 5) mod 2^61 - 1 reads as positive, so only a
    # prime above twice the bound 2^60 + 6 decodes it
    assert charpoly([{0: 2**60 + 5}]) == LaurentPoly.from_dict({1: 1, 0: -(2**60 + 5)})
    assert charpoly([{0: -(2**60 + 5)}]) == LaurentPoly.from_dict({1: 1, 0: 2**60 + 5})


def test_tabled_mersenne_exponents_give_primes():
    exponents = poly_module._MERSENNE_EXPONENTS
    assert list(exponents) == sorted(set(exponents))
    assert all(oracle_is_mersenne_prime(e) for e in exponents if e <= 4423)
    # below 2^521 - 1 the table misses no Mersenne prime, so the modulus
    # is never needlessly wide at the genera the benchmark runs
    missing = [e for e in range(62, 521) if e not in exponents
               and all(e % d for d in range(2, e)) and oracle_is_mersenne_prime(e)]
    assert missing == []


def test_charpoly_refuses_a_bound_past_the_table_before_any_elimination(monkeypatch):
    def no_elimination(*args):
        raise AssertionError("charpoly eliminated with no prime to work modulo")

    monkeypatch.setattr(poly_module, "_hessenberg", no_elimination)
    with pytest.raises(CoefficientBoundTooLarge):
        charpoly([{0: 2**90000}])


def test_charpoly_refuses_a_bound_past_the_table_even_under_python_O():
    assert raises_under_python_O(
        """
        from lspacecert.poly import charpoly
        charpoly([{0: 2**90000}])
        """,
        "CoefficientBoundTooLarge",
    )


def test_charpoly_matches_the_list_loop_oracle_on_random_twist_words():
    rng = random.Random(2020)
    for k in range(54):
        g = 2 + k % 9
        m = homology_action(random_twist_word(rng, g, max_len=7 + k))
        assert charpoly(m).as_dict() == oracle_charpoly_fl(_dense_rows(m))
