"""The acceptance suite.

Each test covers one acceptance criterion, asserts it exactly, and prints
a single summary line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import random
import time

import pytest

import lspacecert.mcg as mcg
from lspacecert.certify import certify, cross_validate
from lspacecert.curves import dehn_twist, intersection_number
from lspacecert.errors import AnchorViolation
from lspacecert.floer import (
    Verdict,
    lspace_profile,
    staircase_from_alexander,
)
from lspacecert.mcg import (
    TwistWord,
    alexander_polynomial,
    apply_word,
    beta_gn,
    monodromy_phi,
    monodromy_psi,
    standard_curve_system,
)
from lspacecert.poly import LaurentPoly, parse_poly

from oracles import seifert_torus_alexander

GENERA = (2, 3, 4, 5)
TWISTS = range(0, 11)


def test_criterion_1_intersection_anchors():
    slowest = 0.0
    for g in GENERA:
        system = standard_curve_system(g)
        ag1, ag = system.alphas[-2], system.alphas[-1]
        bg, c = system.betas[-1], system.c
        t0 = time.monotonic()
        assert intersection_number(c, bg) == 2
        assert intersection_number(c, ag1) == 2
        for name, x in system.named()[:-1]:
            if name not in (f"b{g}", f"a{g - 1}"):
                assert intersection_number(c, x) == 0
        assert intersection_number(bg, apply_word(monodromy_psi(g), bg)) == 1
        slowest = max(slowest, time.monotonic() - t0)
        for n in TWISTS:
            t0 = time.monotonic()
            bn = beta_gn(g, n)
            assert intersection_number(ag1, bn) == 4 * n
            assert intersection_number(ag, bn) == 1
            elapsed = time.monotonic() - t0
            assert elapsed < 1.0, f"anchor set (g={g}, n={n}) took {elapsed:.2f}s"
            slowest = max(slowest, elapsed)
    print(
        f"\ncriterion 1 PASS: 4n / singleton / c-pattern / psi anchors exact for "
        f"g in {GENERA}, n in 0..10 (slowest item {slowest * 1000:.0f} ms)"
    )


def test_criterion_2_square_identity_suite():
    rng = random.Random(16)
    pairs = 0
    natural = 0
    per_genus = {2: 0, 3: 0}
    while pairs < 220:
        g = 2 if pairs % 2 == 0 else 3
        system = standard_curve_system(g)
        pool = list(system.alphas) + list(system.betas) + [system.c]

        def rand_curve():
            word = TwistWord(
                tuple(
                    (rng.choice(pool), rng.choice([-1, 1]))
                    for _ in range(rng.randint(1, 5))
                )
            )
            return apply_word(word, rng.choice(pool))

        a, b = rand_curve(), rand_curve()
        i = intersection_number(a, b)
        if len(a) + len(b) > 120 or i > 12:
            continue
        assert intersection_number(dehn_twist(b, a, 1), b) == i * i
        pairs += 1
        per_genus[g] += 1
        if pairs % 5 == 0:
            f = TwistWord(
                tuple(
                    (rng.choice(pool), rng.choice([-1, 1]))
                    for _ in range(rng.randint(1, 3))
                )
            )
            assert intersection_number(apply_word(f, a), apply_word(f, b)) == i
            natural += 1
    assert pairs >= 200
    print(
        f"\ncriterion 2 PASS: square identity exact on {pairs} random pairs "
        f"(g=2: {per_genus[2]}, g=3: {per_genus[3]}), naturality on {natural}"
    )


def test_criterion_3_alexander_invariance():
    for g in (2, 3, 4):
        oracle = LaurentPoly.from_dict(seifert_torus_alexander(g))
        values = {alexander_polynomial(monodromy_phi(g, n)) for n in range(6)}
        assert len(values) == 1
        assert values.pop() == oracle
    assert (
        str(alexander_polynomial(monodromy_phi(2, 0))) == "t^4 - t^3 + t^2 - t + 1"
    )
    print(
        "\ncriterion 3 PASS: alexander(phi_n) constant in n and equal to the "
        "Seifert-matrix oracle for g in (2, 3, 4); g=2 value verbatim"
    )


def test_criterion_4_staircase_recursion():
    trefoil = staircase_from_alexander(parse_poly("t^2 - t + 1"))
    assert trefoil.deltas == (-1, 0)
    cinquefoil = staircase_from_alexander(parse_poly("t^4 - t^3 + t^2 - t + 1"))
    assert cinquefoil.deltas == (-2, -1, 0)
    for g in (2, 3, 4):
        poly = alexander_polynomial(monodromy_phi(g, 0))
        profile = lspace_profile(staircase_from_alexander(poly))
        ranks = [profile.rank_at(j) for j in range(-g, g + 1)]
        assert set(ranks) <= {0, 1}
        assert sum(ranks) == profile.total_rank == len(poly.coeffs)
    print(
        "\ncriterion 4 PASS: trefoil deltas (-1, 0), cinquefoil (-2, -1, 0), "
        "profile ranks in {0, 1} on [-g, g] with total = nonzero coefficient count"
    )


def test_criterion_5_certificate_bounds():
    t0 = time.monotonic()
    count = 0
    for g in (2, 3, 4):
        for n in TWISTS:
            cert = certify(g, n)
            assert cert.final_bound == 16 * n * n - 5
            assert (cert.verdict is Verdict.OBSTRUCTION_FOUND) == (n >= 1)
            base = [s for s in cert.steps if s.label.startswith("rk HFK(Y, K;")]
            assert base[0].output.hi == 2
            chain = [s for s in cert.steps if "16n^2-3" in s.label]
            assert chain[0].output == 16 * n * n - 3
            count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(
        f"\ncriterion 5 PASS: {count} certificates, final bound 16n^2-5, "
        f"base bound 2, chain bound 16n^2-3, verdicts at n >= 1 "
        f"({elapsed:.1f}s for the sweep)"
    )


def test_criterion_6_cross_validation():
    measured = []
    for n in (1, 2, 3):
        report = cross_validate(2, n)
        assert report.non_isotopic
        assert report.direct_value >= 16 * n * n - 3
        measured.append((n, report.direct_value, report.engine_bound))
    print(
        "\ncriterion 6 PASS: direct iota(B[2,n], psi(B[2,n])) vs bound 16n^2-3: "
        + ", ".join(f"n={n}: {d} >= {b}" for n, d, b in measured)
    )


def test_criterion_7_performance():
    system = standard_curve_system(2)
    a1 = system.alphas[0]
    t0 = time.monotonic()
    b50 = beta_gn(2, 50)
    value = intersection_number(a1, b50)
    t_inter = time.monotonic() - t0
    assert value == 200
    assert t_inter < 5.0
    t0 = time.monotonic()
    cert = certify(2, 100)
    t_cert = time.monotonic() - t0
    assert cert.final_bound == 16 * 100 * 100 - 5
    assert t_cert < 10.0
    print(
        f"\ncriterion 7 PASS: iota(a1, B[2,50]) = 200 in {t_inter:.2f}s, "
        f"certify(2, 100) in {t_cert:.2f}s"
    )


def test_criterion_8_anchor_tripwire(monkeypatch, fresh_system_caches):
    monkeypatch.setattr(mcg, "_c_word", lambda g: (1, 2, -1, -2))
    with pytest.raises(AnchorViolation) as exc:
        certify(2, 1)
    monkeypatch.undo()
    assert certify(2, 1).verdict is Verdict.OBSTRUCTION_FOUND
    print(
        f"\ncriterion 8 PASS: corrupted curve table aborts certify with "
        f"AnchorViolation ({exc.value})"
    )
