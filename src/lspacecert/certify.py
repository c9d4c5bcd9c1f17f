"""Replayable derivation certificates for the twisted monodromy family.

A certificate is an ordered list of typed steps.  Every n-dependent rank
fact is recomputed each time a certificate is built, except that from
n = p0 on (6 for the one-letter partners) the counts of B[g,n] are read
off the counts each cited partner keeps against two short twists of
b_g, which B[g,n] builds once for the three partners.  Each fact is
checked against its pinned value, so a kernel regression or a corrupted
curve table aborts the derivation with AnchorViolation instead of
producing a wrong proof.  The length check and the extension run for
every certificate, isotopy once per genus.
Genus-only facts are kept for the life of the process, in one block
per genus: the system curves a_{g-1}, a_g and b_{g-1}, the partners of
B[g,n] that keep its counts, evaluated once; step 3, rk HF(a_{g-1},
a_g) = 0; and the base bound, steps 14-16, which every certificate of
the genus cites and ``derive_base_bound`` returns.  Each is derived and
checked once.  The images psi(b_g) and psi(c) that ``cross_validate``
twists are kept per genus apart from it.  A build that fails its checks
is not cached.
Triangle steps apply the exact-triangle bound to earlier steps, and
arithmetic steps track the inequality chain whose end is the final
bound 16n^2 - 5 on the rank in Alexander grading 1 - g.  The verdict
compares that bound against the staircase cap of one.

Curves appearing in rank facts are named only by expressions of the
command language (``a1``, ``B[2,3]``, ``psi(b2)``, ...), and every cited
expression is evaluated through the DSL: B[g,n] once per certificate,
the others once per genus.  Verifying a certificate is rerunning
``certify`` and comparing the result: the rerun re-evaluates every
n-dependent fact and reuses the checked genus-only steps.
"""
from .curves import dehn_twist, is_isotopic
from .dsl import curve_from_text
from .errors import (
    AnchorViolation,
    BudgetExceeded,
    NegativePower,
    _check_genus,
    _check_int,
    _per_genus,
)
from .floer import (
    RankInterval,
    hf_rank,
    lspace_obstruction,
    lspace_profile,
    staircase_from_alexander,
    tensor_rank,
    triangle_propagate,
)
from .mcg import (
    alexander_polynomial,
    apply_word,
    beta_gn,
    monodromy_phi,
    monodromy_psi,
    standard_curve_system,
)
from .record import record

SCHEMA_VERSION = 1

# the default bound on the word-length product that cross_validate walks
VALIDATE_BUDGET = 50_000

KIND_RANK_FACT = "rank_fact"
KIND_TRIANGLE = "triangle_propagation"
KIND_ARITHMETIC = "arithmetic_bound"
KIND_CONCLUSION = "conclusion"

CITATIONS = {
    "axiom.hf-rank-isotopic": "isotopic essential curves have Floer rank two",
    "axiom.hf-rank-intersection": (
        "non-isotopic essential curves have Floer rank equal to their "
        "geometric intersection number"
    ),
    "axiom.twist-triangle": (
        "HF(T(c)(a), b), HF(a, b) and HF(c, a) (x) HF(b, c) sit in an exact "
        "triangle, so each rank is bounded by the sum and the difference of "
        "the other two"
    ),
    "axiom.surgery-triangle": (
        "the knot Floer groups before and after adding one negative twist to "
        "the monodromy sit in an exact triangle with HF of the twisting pair"
    ),
    "fact.psi-reduction": (
        "the mixed corner vanishes because the twisted curve misses b_{g-1}; "
        "the remaining monodromy factors twist about curves disjoint from the "
        "twisted curve, so they translate the pair without changing any rank "
        "and the bound applies to the full monodromy image"
    ),
    "axiom.staircase": (
        "a knot with a positive integral L-space surgery has staircase knot "
        "Floer homology: rank at most one in every Alexander grading"
    ),
    "fact.base-knot": (
        "with no extra twisting the monodromy closes up to the (2, 2g+1) "
        "torus knot, whose staircase has rank one in grading 1-g"
    ),
    "arith.tensor": "the rank of a tensor product is the product of the ranks",
    "arith.chain": "combining the preceding bounds",
    "conclusion.staircase-cap": (
        "a proved rank above one in an interior grading is incompatible with "
        "the staircase shape, so no positive L-space surgery exists"
    ),
}


class Citation(record("Citation", "anchor quote")):
    __slots__ = ()


_CITED = {anchor: Citation(anchor, quote) for anchor, quote in CITATIONS.items()}


class DerivationStep(record("DerivationStep", "index kind label inputs output citation")):
    """One derivation line.

    ``inputs`` reference earlier steps (``"step:4"``) or curves by
    expression (``"curve:B[2,3]"``).  ``output`` is a RankInterval for
    rank facts and propagations, a plain integer for arithmetic bound
    values (which may be negative, meaning the bound is vacuous), and a
    Verdict for the conclusion.
    """

    __slots__ = ()


class Certificate(record("Certificate", "genus n steps final_bound verdict")):
    __slots__ = ()


class _Builder:
    def __init__(self, g, first=0, curves=()):
        self.g = g
        self.first = first  # the index of the first step
        self.steps = []
        self.curves = dict(curves)  # expression -> Curve, each evaluated once

    def curve(self, expr):
        if expr not in self.curves:
            self.curves[expr] = curve_from_text(expr, self.g)
        return self.curves[expr]

    def add(self, kind, label, inputs, output, anchor):
        index = self.first + len(self.steps)
        step = DerivationStep(index, kind, label, tuple(inputs), output, _CITED[anchor])
        self.steps.append(step)
        return step

    def rank_fact(self, expr_a, expr_b, expected):
        """Evaluate both expressions, recompute their pinned Floer rank and
        freeze it as a step."""
        curve_a, curve_b = self.curve(expr_a), self.curve(expr_b)
        value = hf_rank(curve_a, curve_b)
        if value != expected:
            raise AnchorViolation(f"rk HF({expr_a}, {expr_b})", expected, value)
        anchor = (
            "axiom.hf-rank-isotopic"
            if is_isotopic(curve_a, curve_b)
            else "axiom.hf-rank-intersection"
        )
        return self.add(
            KIND_RANK_FACT,
            f"rk HF({expr_a}, {expr_b}) = {value}",
            (f"curve:{expr_a}", f"curve:{expr_b}"),
            RankInterval.exactly(value),
            anchor,
        )

    def tensor(self, label, left, right):
        out = tensor_rank(left.output, right.output)
        return self.add(
            KIND_ARITHMETIC,
            label,
            (f"step:{left.index}", f"step:{right.index}"),
            out,
            "arith.tensor",
        )

    def triangle(self, label, a, c, anchor):
        out = triangle_propagate(a.output, c.output)
        return self.add(
            KIND_TRIANGLE, label, (f"step:{a.index}", f"step:{c.index}"), out, anchor
        )


def derive_base_bound(g):
    """The genus-only block: rk HFK(Y, K; 1-g) in [0, 2], as three steps.

    The image of b_g under the base monodromy meets b_g in one point
    (recomputed), the untwisted surgered knot is the torus knot whose
    staircase carries rank one in grading 1-g (recomputed from the
    monodromy's own Alexander polynomial), and the surgery triangle then
    bounds the reference rank by their sum.  The steps are those every
    certificate of the genus cites, numbered 14-16, read off the genus
    block, whose gate and cache are ``_per_genus``'s.
    """
    return _genus_block(g)[2]


@_per_genus
def _genus_block(g):
    """The genus-only facts of every certificate of genus g: the system
    curves a_{g-1}, a_g and b_{g-1}, each evaluated through the DSL, as
    (expression, curve) pairs; step 3, rk HF(a_{g-1}, a_g) = 0, checked
    against its pinned value; and the base block, steps 14-16."""
    system = _Builder(g, 3)
    s_aa = system.rank_fact(f"a{g - 1}", f"a{g}", 0)
    system.curve(f"b{g - 1}")

    base = _Builder(g, 14)
    s_iota = base.rank_fact(f"b{g}", f"psi(b{g})", 1)
    stair = staircase_from_alexander(alexander_polynomial(monodromy_phi(g, 0)))
    base_rank = lspace_profile(stair).rank_at(1 - g)
    if base_rank != 1:
        raise AnchorViolation(f"rk HFK(S3, K0; {1 - g})", 1, base_rank)
    s_k0 = base.add(
        KIND_RANK_FACT,
        f"rk HFK(S3, K0; {1 - g}) = 1",
        (f"curve:phi[0](b{g})",),
        RankInterval.exactly(1),
        "fact.base-knot",
    )
    base.triangle(
        f"rk HFK(Y, K; {1 - g}) bounded via the surgery triangle over b{g}",
        s_k0,
        s_iota,
        "axiom.surgery-triangle",
    )
    return tuple(system.curves.items()), s_aa, tuple(base.steps)


def _check_certify_args(g, n):
    """``certify``'s checks, in the order their errors show."""
    _check_int("n", n)
    _check_genus(g)
    if n < 0:
        raise NegativePower(f"twist count n = {n} must be nonnegative")


def certify(g, n):
    """Build the full certificate for the n-twisted genus-g knot.

    Every n-dependent curve-level number is recomputed by the kernel, and
    the checked genus-only steps of genus g (step 3 and the base block)
    are spliced in; the returned steps deterministically replay to the
    same certificate.
    """
    _check_certify_args(g, n)
    b_expr = f"B[{g},{n}]"
    tw_expr = f"T(a{g - 1})^1({b_expr})"
    system_curves, s_aa, base_steps = _genus_block(g)
    builder = _Builder(g, curves=system_curves)

    # pinned crossing-word facts; step 3 is the genus's kept one
    s_4n = builder.rank_fact(f"a{g - 1}", b_expr, 4 * n)
    s_one = builder.rank_fact(b_expr, f"a{g}", 1)
    s_self = builder.rank_fact(b_expr, b_expr, 2)
    builder.steps.append(s_aa)

    # rk HF(T(a_{g-1})(B), a_g) = 1: twist triangle with vanishing corner
    s_t0 = builder.tensor(
        f"rk HF(a{g - 1}, {b_expr}) (x) HF(a{g}, a{g - 1})", s_4n, s_aa
    )
    s_eq4 = builder.triangle(
        f"rk HF({tw_expr}, a{g})", s_one, s_t0, "axiom.twist-triangle"
    )

    # step 1 corner: B is disjoint from b_{g-1}
    s_bb = builder.rank_fact(b_expr, f"b{g - 1}", 0)
    s_t1 = builder.add(
        KIND_ARITHMETIC,
        f"rk HF(b{g - 1}, T(a{g})^1({tw_expr})) (x) HF({b_expr}, b{g - 1})",
        (f"step:{s_bb.index}",),
        tensor_rank(RankInterval(0, None), s_bb.output),
        "arith.tensor",
    )

    # step 3 corner and propagation
    s_t3 = builder.tensor(
        f"rk HF(a{g - 1}, {b_expr}) (x) HF({b_expr}, a{g - 1})", s_4n, s_4n
    )
    s_x3 = builder.triangle(
        f"rk HF({tw_expr}, {b_expr})", s_self, s_t3, "axiom.twist-triangle"
    )

    # step 2 corner and propagation
    s_t2 = builder.tensor(
        f"rk HF(a{g}, {tw_expr}) (x) HF({b_expr}, a{g})", s_eq4, s_one
    )
    s_x2 = builder.triangle(
        f"rk HF(T(a{g})^1({tw_expr}), {b_expr})", s_x3, s_t2, "axiom.twist-triangle"
    )

    # step 1 propagation: the twisted pair rank
    s_x1 = builder.triangle(
        f"rk HF(psi({b_expr}), {b_expr})", s_x2, s_t1, "fact.psi-reduction"
    )

    # each bound is read off the steps it cites, then held to its label
    hf_lower = s_4n.output.lo ** 2 - s_self.output.hi - s_eq4.output.hi
    if hf_lower != 16 * n * n - 3:
        raise AnchorViolation("chain lower bound 16n^2-3", 16 * n * n - 3, hf_lower)
    s_chain = builder.add(
        KIND_ARITHMETIC,
        f"chain lower bound: rk HF(psi({b_expr}), {b_expr}) >= 16n^2-3 = {hf_lower}",
        (f"step:{s_4n.index}", f"step:{s_self.index}", f"step:{s_eq4.index}"),
        hf_lower,
        "arith.chain",
    )

    builder.steps.extend(base_steps)
    s_base = builder.steps[-1]

    s_target = builder.triangle(
        f"rk HFK(S3, K{n}; {1 - g})", s_x1, s_base, "axiom.surgery-triangle"
    )

    final_bound = s_chain.output - s_base.output.hi
    if final_bound != 16 * n * n - 5:
        raise AnchorViolation("final bound 16n^2-5", 16 * n * n - 5, final_bound)
    s_final = builder.add(
        KIND_ARITHMETIC,
        f"final bound: rk HFK(S3, K{n}; {1 - g}) >= 16n^2-5 = {final_bound}",
        (f"step:{s_chain.index}", f"step:{s_base.index}"),
        final_bound,
        "arith.chain",
    )

    verdict = lspace_obstruction(final_bound)
    builder.add(
        KIND_CONCLUSION,
        f"16n^2-5 = {final_bound} "
        + (f"> 1 -> {verdict.value}" if final_bound > 1 else f"<= 1 -> {verdict.value}"),
        (f"step:{s_final.index}",),
        verdict,
        "conclusion.staircase-cap",
    )

    # internal coherence of the two bookkeeping tracks
    if not s_target.output.contains(max(0, final_bound)):
        raise AnchorViolation(
            f"step {s_target.index} contains max(0, final bound)",
            max(0, final_bound),
            s_target.output,
        )
    return Certificate(g, n, tuple(builder.steps), final_bound, verdict)


def verify_certificate(cert):
    """Re-derive a certificate and compare it with the given one.

    The rerun evaluates B[g,n] and checks each n-dependent rank against
    its pinned value, so it is the whole verification.  It reuses what the
    process keeps per genus: the system curves with step 3 and their
    counts against the short twists of b_g, the base block and the
    surgery plan of (b_g, c).  Returns True when the fresh certificate is
    equal, and raises AnchorViolation otherwise.
    """
    fresh = certify(cert.genus, cert.n)
    if fresh != cert:
        raise AnchorViolation("certificate replay", cert, fresh)
    return True


class CrossValidationReport(record(
    "CrossValidationReport", "genus n direct_value engine_bound slack non_isotopic"
)):
    __slots__ = ()


@_per_genus
def _psi_images(g):
    """(psi(b_g), psi(c)), kept per genus; psi(b_g) keeps the surgery plan
    of the pair, so each later twist about psi(c) only assembles a word."""
    system = standard_curve_system(g)
    psi = monodromy_psi(g)
    return apply_word(psi, system.betas[-1]), apply_word(psi, system.c)


def cross_validate(g, n, budget=VALIDATE_BUDGET):
    """Directly measure the twisted pair rank the derivation only bounds.

    Computes iota(B[g,n], psi(B[g,n])) on crossing words, checks the two
    curves are not isotopic, and compares against the derived lower bound
    16n^2 - 3.  psi(B[g,n]) is built as T_{psi(c)}^n(psi(b_g)), by the
    conjugation relation f T_c f^-1 = T_{f(c)} for a mapping class f
    (Farb and Margalit, A Primer on Mapping Class Groups, ch. 3), which
    joins the trusted base here: one twist of the 3-letter psi(b_g) about
    the curve psi(c) of at most 8 letters, both kept per genus.  The
    count is still a direct walk on both expanded words.  The product of
    the two word lengths must stay within ``budget``; a reduced cyclic
    word is the unique shortest word of its class, so the lengths do not
    depend on how the image is built.  A genus, n or budget that is not
    an int raises MalformedInput.
    """
    _check_int("n", n)
    _check_int("budget", budget)
    _check_genus(g)
    if n < 1:
        raise NegativePower(f"cross validation needs n >= 1, got {n}")
    bn = beta_gn(g, n)
    psi_b, psi_c = _psi_images(g)
    image = dehn_twist(psi_b, psi_c, n)
    work = len(bn) * len(image)
    if work > budget:
        raise BudgetExceeded(
            f"word-length product {work} exceeds budget {budget}; raise --budget"
        )
    non_isotopic = not is_isotopic(bn, image)
    direct = hf_rank(bn, image)
    engine_bound = 16 * n * n - 3
    slack = direct - engine_bound
    if not non_isotopic:
        raise AnchorViolation(f"non-isotopy of B[{g},{n}] and psi(B[{g},{n}])",
                              True, False)
    if slack < 0:
        raise AnchorViolation(
            f"iota(B[{g},{n}], psi(B[{g},{n}])) >= {engine_bound}",
            engine_bound,
            direct,
        )
    return CrossValidationReport(g, n, direct, engine_bound, slack, non_isotopic)
