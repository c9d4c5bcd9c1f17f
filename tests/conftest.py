import os
import random
import subprocess
import sys
import textwrap

import pytest

import lspacecert
from lspacecert import cli, curves, mcg, surface
from lspacecert.certify import _genus_block, _psi_images
from lspacecert.mcg import TwistWord, apply_word, standard_curve_system


def system_pool(g):
    system = standard_curve_system(g)
    return list(system.alphas) + list(system.betas) + [system.c]


def random_twist_word(rng, g, max_len=5, max_power=2):
    pool = system_pool(g)
    powers = [p for p in range(-max_power, max_power + 1) if p != 0]
    length = rng.randint(1, max_len)
    return TwistWord(
        tuple((rng.choice(pool), rng.choice(powers)) for _ in range(length))
    )


def fast_curve(surface, word):
    """The curve of a raw word, reduced but unchecked.  It keeps nothing,
    so a twist of it, or a count of it against a long twist, walks afresh.
    A cold target alone does not make a cold count: a warm partner
    answers from the counts it keeps by the target's word."""
    return curves._reduced_curve(surface, curves.reduce_cyclic(word))


def random_curve(rng, g, max_len=4):
    """A random simple curve: a system curve dragged by a short twist word."""
    base = rng.choice(system_pool(g))
    return apply_word(random_twist_word(rng, g, max_len=max_len), base)


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture
def sys2():
    """The genus-2 standard system, built by the test that asks for it, so
    an anchor failure in the build fails those tests one by one instead of
    their module's collection."""
    return standard_curve_system(2)


# every cache of the package; tests/test_source.py holds this to the
# cached functions it finds in the package's modules
PACKAGE_CACHES = (
    surface.standard_surface,
    mcg.standard_curve_system,
    _genus_block,
    _psi_images,
    cli._build_parser,
)


def clear_genus_caches():
    """Empty every cache of the package: surface, curve system, the genus
    block (the system curves, step 3 and the base block that every
    certificate of a genus cites), the psi images of b_g and c, and the
    argument parser."""
    for cached in PACKAGE_CACHES:
        cached.cache_clear()


@pytest.fixture
def fresh_system_caches():
    """Empty the per-genus caches around the test, so it builds (or fails
    to build) the standard system and the base block itself."""
    clear_genus_caches()
    yield
    clear_genus_caches()


def count_normal_forms(monkeypatch):
    """Record the length of every word ``curves.canonical_form`` is called on."""
    calls = []
    inner = curves.canonical_form
    monkeypatch.setattr(
        curves, "canonical_form", lambda word: calls.append(len(word)) or inner(word)
    )
    return calls


def count_corner_classes(monkeypatch):
    """Record the word of every table build (``_word_tables``), which a
    curve does once, for its corner classes and turn codes together, when
    a count first reads either."""
    built = []
    inner = curves._word_tables
    monkeypatch.setattr(
        curves,
        "_word_tables",
        lambda surface, word, period: built.append(word) or inner(surface, word, period),
    )
    return built


def raises_under_python_O(body, error):
    """Whether ``body`` raises lspacecert.errors.<error> in a fresh ``python -O``,
    where assert statements are stripped."""
    code = (
        f"from lspacecert.errors import {error}\n"
        "try:\n"
        + textwrap.indent(textwrap.dedent(body), "    ")
        + f"\nexcept {error}:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = os.path.dirname(os.path.dirname(lspacecert.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    return proc.returncode == 0
