"""Command line front end and certificate emission."""
import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _q

from .certify import (
    _CITED,
    KIND_CONCLUSION,
    SCHEMA_VERSION,
    VALIDATE_BUDGET,
    _check_certify_args,
    certify,
    cross_validate,
)
from .curves import intersection_number
from .dsl import curve_from_text
from .errors import AnchorViolation, MalformedInput, WorkbenchError
from .floer import (
    RankInterval,
    Verdict,
    lspace_profile,
    staircase_from_alexander,
)
from .mcg import alexander_polynomial, monodromy_phi, standard_curve_system
from .poly import parse_poly


def emit_certificate(cert, fmt="text"):
    """Render a certificate as text or JSON.

    Emission is byte deterministic for a given certificate: fixed key
    order, no timestamps.  In JSON, step outputs are {lo, hi} intervals
    (hi null when unbounded; arithmetic bound values appear as degenerate
    intervals and may be negative) except for the conclusion, which is
    {verdict}.  The JSON is written from a fixed template, byte for byte
    what ``json.dumps(..., indent=2)`` gives for the same fields; the
    tests hold it to that oracle.  A certificate whose last step is not
    the conclusion raises AnchorViolation in either format, and a format
    other than "text" or "json" raises MalformedInput.
    """
    last = cert.steps[-1].kind if cert.steps else None
    if last != KIND_CONCLUSION:
        raise AnchorViolation("kind of the last step", KIND_CONCLUSION, last)
    if fmt == "json":
        return _json_certificate(cert)
    if fmt != "text":
        raise MalformedInput(f"unknown format {fmt!r}")
    lines = [f"certificate genus={cert.genus} n={cert.n}"]
    for s in cert.steps:
        out = s.output
        shown = out.value if isinstance(out, Verdict) else str(out)
        lines.append(f"[{s.index:02d}] {s.kind:<21} {s.label} -> {shown}")
    lines.append(f"final bound: {cert.steps[-1].label}")
    return "\n".join(lines) + "\n"


# The JSON template: json.dumps(indent=2) takes its pure-Python encoder,
# so the certificate's fixed shape is written directly.  Every string goes
# through the C escaper json.dumps itself uses under ensure_ascii.

def _json_int(v):
    return "null" if v is None else str(v)


def _json_output(out):
    if isinstance(out, Verdict):
        return f'{{\n        "verdict": {_q(out.value)}\n      }}'
    lo, hi = (out.lo, out.hi) if isinstance(out, RankInterval) else (out, out)
    return (
        f'{{\n        "lo": {_json_int(lo)},\n'
        f'        "hi": {_json_int(hi)}\n      }}'
    )


def _json_citation(c):
    return (
        f'{{\n'
        f'        "anchor": {_q(c.anchor)},\n'
        f'        "quote": {_q(c.quote)}\n'
        f'      }}'
    )


# every step cites one of the package's citations: each is written once
_CITATION_JSON = {c: _json_citation(c) for c in _CITED.values()}


def _json_step(s):
    inputs = (
        "[\n        " + ",\n        ".join(map(_q, s.inputs)) + "\n      ]"
        if s.inputs
        else "[]"
    )
    return (
        f'    {{\n'
        f'      "index": {s.index},\n'
        f'      "kind": {_q(s.kind)},\n'
        f'      "label": {_q(s.label)},\n'
        f'      "inputs": {inputs},\n'
        f'      "output": {_json_output(s.output)},\n'
        f'      "citation": {_CITATION_JSON.get(s.citation) or _json_citation(s.citation)}\n'
        f'    }}'
    )


def _json_certificate(cert):
    # emit_certificate has checked the conclusion, so there is a step
    steps = ",\n".join(map(_json_step, cert.steps))
    return (
        f'{{\n'
        f'  "schema_version": {SCHEMA_VERSION},\n'
        f'  "genus": {cert.genus},\n'
        f'  "n": {cert.n},\n'
        f'  "steps": [\n{steps}\n  ],\n'
        f'  "final_bound": {cert.final_bound},\n'
        f'  "verdict": {_q(cert.verdict.value)}\n'
        f'}}\n'
    )


def replay_json(text):
    """Re-derive the certificate a JSON document describes.

    Only the (genus, n) pair is trusted; everything else is recomputed,
    so comparing the emission of the result against the input is a full
    integrity check.  Text that is not JSON, a document that is not an
    object, or one whose genus or n is missing or not an int, raises
    MalformedInput.
    """
    try:
        data = json.loads(text)
    except ValueError as e:  # json.JSONDecodeError is a ValueError
        raise MalformedInput(f"not a JSON document: {e}") from None
    if not isinstance(data, dict):
        raise MalformedInput(f"a certificate is a JSON object, got {type(data).__name__}")
    # a missing key reaches certify as None and fails its int check
    return certify(data.get("genus"), data.get("n"))


# ---------------------------------------------------------------------------
# commands

def _parse_range(text):
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}: {hi} < {lo}")
        return range(lo, hi + 1)
    v = int(text)
    return range(v, v + 1)


def _cmd_curves(args, out):
    system = standard_curve_system(args.genus)
    named = system.named()
    width = max(len(name) for name, _ in named)
    out.write(f"standard system on genus {args.genus}\n")
    for name, curve in named:
        out.write(f"  {name:<{width}}  {curve.tokens()}\n")
    out.write("intersection table\n")
    header = " ".join(f"{name:>3}" for name, _ in named)
    out.write(f"  {'':{width}}  {header}\n")
    for name, x in named:
        row = " ".join(f"{intersection_number(x, y):>3}" for _, y in named)
        out.write(f"  {name:<{width}}  {row}\n")
    return 0


def _cmd_intersect(args, out):
    a = curve_from_text(args.expr[0], args.genus)
    b = curve_from_text(args.expr[1], args.genus)
    out.write(f"{intersection_number(a, b)}\n")
    return 0


def _cmd_twist(args, out):
    curve = curve_from_text(args.expr, args.genus)
    out.write(f"{curve.tokens()}\n")
    return 0


def _cmd_alexander(args, out):
    poly = alexander_polynomial(monodromy_phi(args.genus, args.n))
    out.write(f"{poly}\n")
    return 0


def _cmd_staircase(args, out):
    stair = staircase_from_alexander(parse_poly(args.polynomial))
    profile = lspace_profile(stair)
    out.write("ns:     " + " ".join(str(v) for v in stair.ns) + "\n")
    out.write("deltas: " + " ".join(str(v) for v in stair.deltas) + "\n")
    ranks = " ".join(f"{j}:1" for j in sorted(profile.support))
    out.write(f"ranks:  {ranks} (total {profile.total_rank})\n")
    return 0


def _cmd_certify(args, out):
    cert = certify(args.genus, args.n)
    out.write(emit_certificate(cert, "json" if args.json else "text"))
    return 0


def _cmd_validate(args, out):
    report = cross_validate(args.genus, args.n, budget=args.budget)
    out.write(
        f"g={report.genus} n={report.n} direct={report.direct_value} "
        f"bound={report.engine_bound} slack={report.slack} "
        f"non_isotopic={report.non_isotopic}\n"
    )
    return 0


def _sweep_genus(task):
    """The rows of one genus, in order of n, built in one process."""
    g, ns = task
    certs = ((n, certify(g, n)) for n in ns)
    return [(g, n, cert.final_bound, cert.verdict.value) for n, cert in certs]


def _cmd_sweep(args, out):
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    genera, ns = _parse_range(args.genus), _parse_range(args.n)
    # certify's checks fail first, if anywhere, at the smallest (g, n)
    _check_certify_args(genera[0], ns[0])
    tasks = [(g, ns) for g in reversed(genera)]  # the largest genus first
    # a fork-started pool forks all its workers at once: no more than tasks
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        # imported here: the pool pulls in multiprocessing, logging and
        # traceback, which no other command needs at start-up
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            per_genus = list(pool.map(_sweep_genus, tasks))
    else:
        per_genus = list(map(_sweep_genus, tasks))
    results = [row for rows in reversed(per_genus) for row in rows]
    mismatches = 0
    for g, n, bound, verdict in results:
        expected = (
            Verdict.OBSTRUCTION_FOUND if n >= 1 else Verdict.INCONCLUSIVE
        ).value
        flag = ""
        if verdict != expected:
            mismatches += 1
            flag = f"  MISMATCH (expected {expected})"
        out.write(f"g={g} n={n} final_bound={bound} verdict={verdict}{flag}\n")
    out.write(f"{len(results)} certificates, {mismatches} mismatches\n")
    return 2 if mismatches else 0


@functools.cache
def _build_parser():
    """The argparse tree, built on the first call and reused: the command
    function is looked up by name when it runs, not bound here."""
    parser = argparse.ArgumentParser(
        prog="lspacecert",
        description=(
            "Exact intersection calculus on a one-holed genus-g surface and "
            "L-space obstruction certificates for its twisted monodromies."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the one declaration of a genus, and of a genus with a twist count n
    genus = argparse.ArgumentParser(add_help=False)
    genus.add_argument("-g", "--genus", type=int, required=True)
    twisted = argparse.ArgumentParser(add_help=False, parents=[genus])
    twisted.add_argument("-n", type=int, required=True)

    sub.add_parser("curves", parents=[genus], help="print the standard curve system")

    p = sub.add_parser("intersect", parents=[genus], help="geometric intersection number")
    p.add_argument("expr", nargs=2, help="two curve expressions")

    p = sub.add_parser("twist", parents=[genus], help="normalized word of a curve expression")
    p.add_argument("expr")

    sub.add_parser("alexander", parents=[twisted], help="Alexander polynomial of phi_n")

    p = sub.add_parser("staircase", help="staircase of an L-space form polynomial")
    p.add_argument("polynomial")

    p = sub.add_parser("certify", parents=[twisted], help="derive the obstruction certificate")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("validate", parents=[twisted], help="directly measure the twisted pair rank")
    p.add_argument("--budget", type=int, default=VALIDATE_BUDGET)

    p = sub.add_parser("sweep", help="certify a grid of (g, n) and verify verdicts")
    p.add_argument("-g", "--genus", required=True, help="genus or range G1..G2")
    p.add_argument("-n", required=True, help="twist count or range N1..N2")
    p.add_argument("--jobs", type=int, default=1)

    return parser


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return globals()[f"_cmd_{args.command}"](args, out)
    # an interpreter limit (a power past the index range, memory, recursion)
    # ends like a domain error, with its type and no traceback; one raised
    # with no message (as MemoryError often is) still gets one
    except (WorkbenchError, OverflowError, MemoryError, RecursionError) as e:
        bare = "out of memory" if isinstance(e, MemoryError) else "interpreter limit reached"
        print(f"error: {type(e).__name__}: {str(e) or bare}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
