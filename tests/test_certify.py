import collections
import importlib
import io

import pytest

import lspacecert.cli as cli
import lspacecert.curves as curves
import lspacecert.dsl as dsl
import lspacecert.mcg as mcg
from lspacecert.certify import (
    KIND_ARITHMETIC,
    KIND_CONCLUSION,
    KIND_RANK_FACT,
    KIND_TRIANGLE,
    certify,
    cross_validate,
    derive_base_bound,
    verify_certificate,
)
from lspacecert.errors import (
    AnchorViolation,
    BudgetExceeded,
    GenusTooSmall,
    MalformedInput,
    NegativePower,
)
from lspacecert.floer import RankInterval, Verdict, hf_rank, triangle_propagate
from lspacecert.poly import parse_poly

from conftest import (
    clear_genus_caches,
    count_corner_classes,
    count_normal_forms,
    raises_under_python_O,
)

# the package re-exports the function certify, which shadows the module
certify_module = importlib.import_module("lspacecert.certify")


# ---------------------------------------------------------------------------
# the base bound

@pytest.mark.parametrize("g", [2, 3, 5])
def test_base_bound_is_zero_two_for_every_genus(g):
    steps = derive_base_bound(g)
    assert len(steps) == 3
    iota_fact, torus_fact, triangle = steps
    assert iota_fact.kind == KIND_RANK_FACT
    assert iota_fact.output == RankInterval.exactly(1)
    assert torus_fact.output == RankInterval.exactly(1)
    assert triangle.kind == KIND_TRIANGLE
    assert triangle.output == RankInterval(0, 2)


def test_base_block_is_spliced_at_steps_14_to_16():
    for g in range(2, 6):
        block = derive_base_bound(g)
        assert [s.index for s in block] == [14, 15, 16]
        assert [s.inputs for s in block] == [
            (f"curve:b{g}", f"curve:psi(b{g})"),
            (f"curve:phi[0](b{g})",),
            ("step:15", "step:14"),
        ]
        for n in range(4):
            assert certify(g, n).steps[14:17] == block


def test_the_letter_limit_adds_no_walk_to_cold_certificates(monkeypatch, fresh_system_caches):
    # every twist a certificate builds passes the walk-free letter bound,
    # so the count of the letter limit never runs: the number is the one
    # these certificates made before the limit was added
    walks = []
    inner = curves._crossing_count
    monkeypatch.setattr(curves, "_crossing_count", lambda a, b: walks.append(a) or inner(a, b))
    for g in range(4, 21):
        certify(g, 2)
    assert len(walks) == 1700


def test_genus_work_runs_once_per_genus_and_matches_a_cold_build(
    monkeypatch, fresh_system_caches
):
    calls = collections.Counter()
    real = certify_module.alexander_polynomial

    def counting(phi):
        calls[phi.factors[0][0].surface.genus] += 1
        return real(phi)

    monkeypatch.setattr(certify_module, "alexander_polynomial", counting)
    emitted = {}
    for g in range(2, 9):
        for n in range(15):
            out = io.StringIO()
            assert cli.main(["certify", "-g", str(g), "-n", str(n), "--json"], out) == 0
            blob = out.getvalue()
            replayed = cli.replay_json(blob)
            assert cli.emit_certificate(replayed, "json") == blob
            assert verify_certificate(replayed)
            emitted[g, n] = blob, cli.emit_certificate(certify(g, n), "text")
    assert calls == {g: 1 for g in range(2, 9)}
    # the oracle: each certificate built again with every cache empty
    for (g, n), blobs in emitted.items():
        clear_genus_caches()
        cert = certify(g, n)
        assert (cli.emit_certificate(cert, "json"), cli.emit_certificate(cert, "text")) == blobs


def test_genus_only_facts_are_derived_once_per_genus(monkeypatch, fresh_system_caches):
    # derive_base_bound and certify read one block per genus, in either order
    calls = collections.Counter()
    real = certify_module.alexander_polynomial

    def counting(phi):
        calls[phi.factors[0][0].surface.genus] += 1
        return real(phi)

    monkeypatch.setattr(certify_module, "alexander_polynomial", counting)
    block = derive_base_bound(2)
    assert [certify(2, n).steps[14:17] for n in range(7)] == [block] * 7
    spliced = [certify(3, n).steps[14:17] for n in range(7)]
    assert spliced == [derive_base_bound(3)] * 7
    assert calls == {2: 1, 3: 1}


@pytest.mark.parametrize("g", [2.0, True, "2", None, [2]])
def test_base_bound_rejects_a_genus_that_is_not_an_int(g):
    derive_base_bound(2)  # a cached genus 2 must not answer for 2.0
    with pytest.raises(MalformedInput):
        derive_base_bound(g)


# ---------------------------------------------------------------------------
# certificates

def test_certify_2_1():
    cert = certify(2, 1)
    assert cert.final_bound == 11
    assert cert.verdict is Verdict.OBSTRUCTION_FOUND
    assert cert.steps[-1].kind == KIND_CONCLUSION


def test_certify_3_0_vacuous():
    cert = certify(3, 0)
    assert cert.final_bound == -5
    assert cert.verdict is Verdict.INCONCLUSIVE


def test_certify_2_4():
    cert = certify(2, 4)
    assert cert.final_bound == 251
    assert cert.verdict is Verdict.OBSTRUCTION_FOUND


def test_certify_rejects_bad_arguments():
    with pytest.raises(GenusTooSmall):
        certify(1, 1)
    with pytest.raises(NegativePower):
        certify(2, -1)


@pytest.mark.parametrize("g, n", [(2.0, 1), (True, 1), (2, 1.0), (2, True), (2, "1")])
def test_certify_rejects_arguments_that_are_not_ints(g, n):
    certify(2, 1)
    with pytest.raises(MalformedInput):
        certify(g, n)


def test_non_int_arguments_are_a_typed_error_even_under_python_O():
    assert raises_under_python_O(
        """
        from lspacecert.certify import certify, derive_base_bound
        derive_base_bound(2)
        for bad in ((lambda: derive_base_bound(2.0)), (lambda: certify(True, 1))):
            try:
                bad()
            except MalformedInput:
                continue
            raise SystemExit(1)
        certify(2, 1.0)
        """,
        "MalformedInput",
    )


def test_certificate_step_structure():
    g, n = 2, 3
    cert = certify(g, n)
    kinds = [s.kind for s in cert.steps]
    assert kinds.count(KIND_RANK_FACT) == 7
    assert kinds.count(KIND_TRIANGLE) == 6
    assert kinds.count(KIND_CONCLUSION) == 1
    assert [s.index for s in cert.steps] == list(range(len(cert.steps)))
    # indices referenced by steps always point backwards
    for s in cert.steps:
        for ref in s.inputs:
            if ref.startswith("step:"):
                assert int(ref.split(":")[1]) < s.index
    # every step carries a citation with a quote
    assert all(s.citation.anchor and s.citation.quote for s in cert.steps)


def test_embedded_bounds_match_the_formulas():
    for g in (2, 3):
        for n in (0, 1, 2, 5):
            cert = certify(g, n)
            base = [
                s
                for s in cert.steps
                if s.kind == KIND_TRIANGLE and s.label.startswith("rk HFK(Y, K;")
            ]
            assert len(base) == 1 and base[0].output == RankInterval(0, 2)
            chain = [
                s
                for s in cert.steps
                if s.kind == KIND_ARITHMETIC and "16n^2-3" in s.label
            ]
            assert len(chain) == 1 and chain[0].output == 16 * n * n - 3
            target = [
                s
                for s in cert.steps
                if s.kind == KIND_TRIANGLE and s.label.startswith("rk HFK(S3, K")
            ]
            assert target[-1].output == RankInterval(
                max(0, 16 * n * n - 5), 16 * n * n + 5
            )


def test_bounds_are_read_off_the_steps_they_cite():
    for g in (2, 3):
        for n in range(6):
            cert = certify(g, n)
            cited = lambda step: [cert.steps[int(r.split(":")[1])] for r in step.inputs]
            final = cited(cert.steps[-1])[0]
            chain, base = cited(final)
            s_4n, s_self, s_eq4 = cited(chain)
            assert chain.output == s_4n.output.lo ** 2 - s_self.output.hi - s_eq4.output.hi
            assert final.output == chain.output - base.output.hi == cert.final_bound


def test_chain_bound_that_disagrees_with_its_label_is_a_typed_error(monkeypatch):
    widened = lambda a, c: RankInterval(
        triangle_propagate(a, c).lo, triangle_propagate(a, c).hi + 1
    )
    monkeypatch.setattr(certify_module, "triangle_propagate", widened)
    with pytest.raises(AnchorViolation, match="chain lower bound"):
        certify(2, 1)


def test_verdict_boundary_and_monotonicity():
    previous = None
    for n in range(0, 8):
        cert = certify(2, n)
        assert cert.final_bound == 16 * n * n - 5
        assert (cert.verdict is Verdict.OBSTRUCTION_FOUND) == (n >= 1)
        if previous is not None:
            assert cert.final_bound > previous
        previous = cert.final_bound
    # no genus dependence
    assert certify(2, 3).final_bound == certify(4, 3).final_bound


def test_certificates_are_deterministic():
    assert certify(2, 2) == certify(2, 2)


def test_triangle_steps_recompute_from_their_inputs():
    cert = certify(3, 2)
    by_index = {s.index: s for s in cert.steps}
    checked = 0
    for s in cert.steps:
        if s.kind != KIND_TRIANGLE:
            continue
        refs = [by_index[int(r.split(":")[1])] for r in s.inputs]
        assert s.output == triangle_propagate(refs[0].output, refs[1].output)
        checked += 1
    assert checked == 6


def test_verify_certificate_passes_and_detects_tampering():
    cert = certify(2, 1)
    assert verify_certificate(cert)
    bad_step = cert.steps[0]._replace(
        output=RankInterval.exactly(5), label="rk HF(a1, B[2,1]) = 5"
    )
    tampered = cert._replace(steps=(bad_step,) + cert.steps[1:])
    with pytest.raises(AnchorViolation):
        verify_certificate(tampered)


def test_rank_facts_recompute_from_their_curve_expressions():
    checked = 0
    for g in (2, 3):
        for n in range(6):
            for step in certify(g, n).steps:
                exprs = [r.split(":", 1)[1] for r in step.inputs if r.startswith("curve:")]
                if step.kind != KIND_RANK_FACT or len(exprs) != 2:
                    continue
                a, b = (dsl.curve_from_text(e, g) for e in exprs)
                assert step.output == RankInterval.exactly(hf_rank(a, b)), step.label
                checked += 1
    assert checked == 2 * 6 * 6


def test_rank_facts_are_evaluated_from_their_labels(monkeypatch):
    # B[g,n] that means B[g,n+1] must trip the first fact citing it
    monkeypatch.setattr(dsl, "beta_gn", lambda g, n: mcg.beta_gn(g, n + 1))
    with pytest.raises(AnchorViolation) as exc:
        certify(2, 1)
    assert exc.value.fact == "rk HF(a1, B[2,1])"


def test_anchor_tripwire_on_corrupted_curve_table(monkeypatch, fresh_system_caches):
    # swap the hard-coded word of c for a different (valid, simple,
    # nullhomologous) curve; a pinned crossing count then fails and the
    # derivation must abort rather than certify from a wrong system
    monkeypatch.setattr(mcg, "_c_word", lambda g: (1, 2, -1, -2))
    with pytest.raises(AnchorViolation) as exc:
        certify(2, 1)
    assert "iota(c," in str(exc.value)
    monkeypatch.undo()
    # a failed build is not cached, so the real table is rebuilt
    assert certify(2, 1).final_bound == 11


def test_base_block_tripwire_bites_through_the_cache(monkeypatch, fresh_system_caches):
    # the unknot has rank zero in grading -1, so only the genus-only block is
    # wrong; a genus-2 block cached by an earlier test would hide it unless
    # the fixture empties the cache
    monkeypatch.setattr(certify_module, "alexander_polynomial", lambda phi: parse_poly("1"))
    with pytest.raises(AnchorViolation) as exc:
        certify(2, 1)
    assert exc.value.fact == "rk HFK(S3, K0; -1)"
    monkeypatch.undo()
    # the failed build was not cached
    assert certify(2, 1).final_bound == 11


# ---------------------------------------------------------------------------
# cross validation

@pytest.mark.parametrize("n", [1, 2, 3])
def test_cross_validate_measures_at_least_the_bound(n):
    report = cross_validate(2, n)
    assert report.engine_bound == 16 * n * n - 3
    assert report.direct_value >= report.engine_bound
    assert report.slack >= 0
    assert report.non_isotopic


def test_cross_validate_rejects_n_zero():
    with pytest.raises(NegativePower):
        cross_validate(2, 0)


def test_cross_validate_budget():
    with pytest.raises(BudgetExceeded):
        cross_validate(2, 3, budget=10)


def _validated_pair(monkeypatch, g, n):
    """The report and the pair (B[g,n], image) that cross_validate measures."""
    seen = []
    monkeypatch.setattr(
        certify_module, "hf_rank", lambda a, b: seen.append((a, b)) or hf_rank(a, b)
    )
    report = cross_validate(g, n, 10**9)
    [(bn, image)] = seen
    return report, bn, image


@pytest.mark.parametrize("g", range(2, 7))
def test_cross_validate_counts_against_psi_of_b_gn(monkeypatch, g):
    # the image is built as T_{psi(c)}^n(psi(b_g)); applying psi factor by
    # factor to B[g,n] stays the reference
    psi = mcg.monodromy_psi(g)
    for n in [*range(1, 13), 40, 400]:
        _, bn, image = _validated_pair(monkeypatch, g, n)
        want = mcg.apply_word(psi, mcg.beta_gn(g, n))
        assert bn == mcg.beta_gn(g, n), n
        assert len(image.word) == len(want.word), n
        assert curves.is_isotopic(image, want), n


@pytest.mark.parametrize("g", [2, 3])
def test_cross_validate_count_is_a_direct_walk(monkeypatch, g):
    # the image keeps its twist record (psi(b_g), psi(c), n), but
    # |psi(c)| <= 8 < 8n + 1 = |B[g,n]| puts p0 past n, so no count is
    # read off short twists and the kernel walks the two expanded words
    psi_b, psi_c = certify_module._psi_images(g)
    assert len(psi_c.word) <= 8
    runs, walks = [], []
    run, walk = curves._run_extrapolated_count, curves._crossing_count
    monkeypatch.setattr(
        curves, "_run_extrapolated_count", lambda *a: runs.append(run(*a)) or runs[-1]
    )
    monkeypatch.setattr(
        curves, "_crossing_count", lambda a, b: walks.append((a.word, b.word)) or walk(a, b)
    )
    for n in (1, 6, 18, 40, 400):
        runs.clear()
        walks.clear()
        report, bn, image = _validated_pair(monkeypatch, g, n)
        assert image._twist == (psi_b, psi_c, n)
        assert runs and runs == [None] * len(runs), n
        assert walks == [(bn.word, image.word)], n
        assert report.direct_value == 16 * n * n + 1


@pytest.mark.parametrize(
    "g, n, budget",
    [(2.0, 1, 50_000), (True, 1, 50_000), (2, True, 50_000), (2, 1.0, 50_000), (2, 1, "5")],
)
def test_cross_validate_rejects_arguments_that_are_not_ints(g, n, budget):
    with pytest.raises(MalformedInput):
        cross_validate(g, n, budget=budget)


def test_cross_validate_argument_types_are_a_typed_error_even_under_python_O():
    assert raises_under_python_O(
        """
        from lspacecert.certify import cross_validate
        try:
            cross_validate(2.0, 1)
        except MalformedInput:
            cross_validate(2, True)
        """,
        "MalformedInput",
    )


def test_final_bound_outside_target_interval_is_a_typed_error_even_under_python_O(
    monkeypatch,
):
    monkeypatch.setattr(RankInterval, "contains", lambda self, v: False)
    with pytest.raises(AnchorViolation):
        certify(2, 1)
    assert raises_under_python_O(
        """
        from lspacecert.certify import certify
        from lspacecert.floer import RankInterval
        RankInterval.contains = lambda self, v: False
        certify(2, 1)
        """,
        "AnchorViolation",
    )


# ---------------------------------------------------------------------------
# derived forms of curves, computed on demand


def test_certify_validate_and_replay_compute_no_normal_form(monkeypatch):
    # certificates cite curves by expression and compare curves only with
    # curves of another length or with themselves, so Booth never runs
    for g in (2, 3):
        mcg.standard_curve_system(g)
    calls = count_normal_forms(monkeypatch)
    certify(3, 400)
    cross_validate(2, 40, 200_000)
    out = io.StringIO()
    assert cli.main(["certify", "-g", "2", "-n", "7", "--json"], out) == 0
    assert verify_certificate(cli.replay_json(out.getvalue()))
    assert calls == []


def test_certify_builds_tables_only_of_short_twists(monkeypatch, fresh_system_caches):
    # B[g,n] is counted against a_{g-1}, a_g and b_{g-1}; from n = p0 = 6
    # each count reads the partner's counts against T(c)^6(b_g) and
    # T(c)^7(b_g), which B[g,n] builds once for all three partners, and
    # below that the count walks B's own word, whose classes it builds once
    built = count_corner_classes(monkeypatch)
    certify(3, 400)
    assert len(mcg.beta_gn(3, 400)) == 3201 and max(map(len, built)) < 100
    for n in (400, 25):
        built.clear()
        certify(3, n)
        assert built == [], n
    built.clear()
    certify(2, 5)
    assert built.count(mcg.beta_gn(2, 5).word) == 1
    built.clear()
    certify(2, 6)  # the genus's first short-twist certificate
    short = [mcg.beta_gn(2, 6).word, mcg.beta_gn(2, 7).word]
    # one for the three cited partners; B[2,6], of T(c)^6(b_2)'s word,
    # builds none
    assert [built.count(word) for word in short] == [1, 1]
    for n in (6, 9):
        built.clear()
        certify(2, n)
        assert built == [], n


def test_certify_count_work_does_not_grow_with_n(monkeypatch, fresh_system_caches):
    # from n = p0 = 6 the counts of B[g,n] read T(c)^6(b_g) and
    # T(c)^7(b_g), and the counts against those are kept on the partners
    # a_{g-1}, a_g and b_{g-1}, which the genus keeps, and step
    # 3, rk HF(a_{g-1}, a_g) = 0, is kept per genus: the first such
    # certificate of a genus walks, and every further one makes no walk
    built = count_corner_classes(monkeypatch)
    walks = []
    inner = curves._coasting_blocks
    monkeypatch.setattr(curves, "_coasting_blocks", lambda *args: walks.append(args) or inner(*args))
    pairs = []
    inner_count = curves._crossing_count
    monkeypatch.setattr(
        curves, "_crossing_count", lambda a, b: pairs.append((a, b)) or inner_count(a, b)
    )
    for g in (2, 3):
        system = mcg.standard_curve_system(g)
        aa, a_g = system.alphas[-2], system.alphas[-1]
        built.clear()
        walks.clear()
        pairs.clear()
        certify(g, 1000)
        assert walks and max(map(len, built)) < 100, g
        assert (aa.word, a_g.word) in [(a.word, b.word) for a, b in pairs], g
        for n in (6, 18, 100_000, 1000, 25):
            built.clear()
            walks.clear()
            pairs.clear()
            certify(g, n)
            assert built == [] and walks == [] and pairs == [], (g, n)


def test_certificate_after_the_first_of_its_genus_parses_only_b_gn(
    monkeypatch, fresh_system_caches
):
    # a_{g-1}, a_g and b_{g-1} are evaluated once per genus, with step 3,
    # and b_g and psi(b_g) with the base block
    parsed = []
    inner = dsl.parse_expression
    monkeypatch.setattr(
        dsl, "parse_expression", lambda text, g: parsed.append(text) or inner(text, g)
    )
    for g in (2, 3, 7):
        certify(g, 1)
        assert {f"a{g - 1}", f"a{g}", f"b{g - 1}"} <= set(parsed), g
        for n in (0, 2, 5, 6, 14, 400):
            parsed.clear()
            certify(g, n)
            assert parsed == [f"B[{g},{n}]"], (g, n)


def test_system_block_fault_raises_and_is_not_cached(monkeypatch, fresh_system_caches):
    # a count of a_{g-1} against a_g off by one trips step 3 on the first
    # certificate of the genus, and the failed build leaves nothing behind
    system = mcg.standard_curve_system(2)
    pair = (system.alphas[0].word, system.alphas[1].word)
    inner = curves._crossing_count

    def faulty(a, b):
        count, signed = inner(a, b)
        return (count + 1, signed) if (a.word, b.word) == pair else (count, signed)

    monkeypatch.setattr(curves, "_crossing_count", faulty)
    with pytest.raises(AnchorViolation) as exc:
        certify(2, 1)
    assert exc.value.fact == "rk HF(a1, a2)"
    monkeypatch.undo()
    assert certify(2, 1).final_bound == 11
    assert certify_module._genus_block(2)[1].output == RankInterval.exactly(0)
    assert raises_under_python_O(
        """
        from lspacecert import curves
        from lspacecert.certify import certify
        from lspacecert.mcg import standard_curve_system
        system = standard_curve_system(2)
        pair = (system.alphas[0].word, system.alphas[1].word)
        inner = curves._crossing_count
        curves._crossing_count = lambda a, b: (
            (inner(a, b)[0] + 1, 0) if (a.word, b.word) == pair else inner(a, b)
        )
        try:
            certify(2, 1)
        except AnchorViolation as exc:
            curves._crossing_count = inner
            if exc.fact == "rk HF(a1, a2)" and certify(2, 1).final_bound == 11:
                raise
        """,
        "AnchorViolation",
    )


def test_certify_lists_crossings_only_in_the_first_certificate_of_a_genus(
    monkeypatch, fresh_system_caches
):
    # B[g,n], its short twists and psi(b_g) twist targets of the genus's
    # system, which keep their surgery plans: after the first certificate
    # of a genus, a certificate at a new n orders no crossing
    calls = []
    inner = curves._crossing_order
    monkeypatch.setattr(
        curves, "_crossing_order", lambda t, a: calls.append((t, a)) or inner(t, a)
    )
    for g in (2, 3):
        certify(g, 1)
        assert calls, g
        for n in (2, 5, 6, 14, 400):
            calls.clear()
            certify(g, n)
            assert calls == [], (g, n)


def test_outputs_across_p0_match_the_walk_on_the_expanded_word(monkeypatch):
    # n = 5..18 straddles p0 = 6 of the one-letter partners: certificate
    # bytes and intersect output read off the short twists are those of
    # the walk on B[g,n]'s own word
    def outputs(g, n):
        out = io.StringIO()
        code = cli.main(["intersect", "-g", str(g), f"a{g - 1}", f"B[{g},{n}]"], out)
        return cli.emit_certificate(certify(g, n), "json"), code, out.getvalue()

    keys = [(g, n) for g in range(2, 9) for n in range(5, 19)]
    extrapolated = []
    inner = curves._run_extrapolated_count

    def recorded(*args):
        count = inner(*args)
        extrapolated.append(count)
        return count

    monkeypatch.setattr(curves, "_run_extrapolated_count", recorded)
    fast = {key: outputs(*key) for key in keys}
    assert sum(count is not None for count in extrapolated) >= 3 * 7 * 13
    monkeypatch.setattr(curves, "_run_extrapolated_count", lambda *args: None)
    for key in keys:
        assert outputs(*key) == fast[key], key
