import pytest

from lspacecert.curves import reduce_cyclic
from lspacecert.errors import GenusTooSmall, MalformedInput
from lspacecert.surface import SurfaceSpec, chain_boundary_order, standard_surface


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_standard_surface_is_valid(g):
    s = standard_surface(g)
    assert s.genus == g
    assert len(s.cut_arcs) == 2 * g
    assert len(s.boundary_order) == 4 * g
    symbols = sorted(s.boundary_order)
    assert symbols == sorted(
        x for k in range(1, 2 * g + 1) for x in (k, -k)
    )


def test_genus_below_two_rejected():
    with pytest.raises(GenusTooSmall):
        standard_surface(1)
    with pytest.raises(GenusTooSmall):
        SurfaceSpec(1, ("e1", "e2"), (1, 2, -1, -2))


def test_disconnected_boundary_rejected():
    # nesting all chords makes every pair unlinked; regluing then has
    # several boundary circles
    order = (1, 2, 3, 4, -4, -3, -2, -1)
    with pytest.raises(MalformedInput, match="boundary circles"):
        SurfaceSpec(2, ("e1", "e2", "e3", "e4"), order)


def test_bad_symbol_multiset_rejected():
    order = (1, 2, -1, 3, -2, 4, -3, 4)  # -4 missing, 4 doubled
    with pytest.raises(MalformedInput, match="signed arc symbol"):
        SurfaceSpec(2, ("e1", "e2", "e3", "e4"), order)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_boundary_word_shape(g):
    s = standard_surface(g)
    word = s.boundary_word()
    assert len(word) == 4 * g
    assert reduce_cyclic(word) == word
    # nullhomologous: every arc crossed once in each direction
    for k in range(1, 2 * g + 1):
        assert word.count(k) == 1 and word.count(-k) == 1


def test_chain_boundary_order_pattern():
    assert chain_boundary_order(2) == (1, 2, -1, 3, -2, 4, -3, -4)
    assert chain_boundary_order(3) == (1, 2, -1, 3, -2, 4, -3, 5, -4, 6, -5, -6)
