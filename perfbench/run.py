"""Benchmark for lspacecert: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload certify-genus --seed 1 --seconds 25 --trace 0

The load is one closed loop in one thread: each operation starts when
the previous one returns and is timed on its own with perf_counter.  A
run is a series of passes, each a fresh worker process that sets up
(imports the package and builds the curve systems the workload needs)
and then runs every operation of the workload once, in an order drawn
from the seed.  Passes start until the run has measured for ``--seconds``.
Every output is checked against ``goldens.json`` outside the timed region.

With ``--trace 0`` the run prints the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes, and prints the
per-layer metrics of the traced passes together with the tracing
overhead.  The last line of output is one JSON object.
``--tiny`` runs a small subset of each workload, for the smoke test.
"""
import argparse
import compileall
import glob
import json
import os
import random
import statistics
import subprocess
import sys
from time import perf_counter

import speed
from tracer import TARGETS, loglog_slope
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170  # a run must end within 180 s, passes included
SETUP_PASSES = 6  # extra passes that only set up, so setup_s is a median of more

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("success_ratio", "1"),
    ("peak_rss_mb", "MB"),
)

# name, unit, better.  <module>.<function>.<stat> reads a wrapped target;
# <module>.self_s sums its targets' self times; size and extra are the
# per-call quantities tracer.WORK derives from arguments and results.
PER_LAYER = (
    ("curves.self_s", "s", "lower"),
    ("curves.canonical_form.calls", "count", "lower"),
    ("curves.canonical_form.self_s", "s", "lower"),
    ("curves.canonical_form.letters", "count", "lower"),
    ("curves.canonical_form.slope", "1", "lower"),
    ("curves._crossings.calls", "count", "lower"),
    ("curves._crossings.self_s", "s", "lower"),
    ("curves._crossings.lift_pairs", "count", "lower"),
    ("curves._crossings.found", "count", "higher"),
    ("curves._crossings.hit_ratio", "1", "higher"),
    ("curves._crossings.slope", "1", "lower"),
    ("curves._crossing_order.calls", "count", "lower"),
    ("curves._crossing_order.self_s", "s", "lower"),
    ("curves.dehn_twist.calls", "count", "lower"),
    ("curves.dehn_twist.self_s", "s", "lower"),
    ("curves.dehn_twist.letters_out", "count", "lower"),
    ("curves._validate_word.calls", "count", "lower"),
    ("curves._validate_word.self_s", "s", "lower"),
    ("curves._has_self_crossing.calls", "count", "lower"),
    ("curves._has_self_crossing.self_s", "s", "lower"),
    ("mcg.self_s", "s", "lower"),
    ("mcg.homology_action.calls", "count", "lower"),
    ("mcg.homology_action.self_s", "s", "lower"),
    ("mcg.homology_action.factors", "count", "lower"),
    ("mcg.homology_action.slope", "1", "lower"),
    ("mcg._mat_mul.calls", "count", "lower"),
    ("mcg.alexander_polynomial.calls", "count", "lower"),
    ("mcg.alexander_polynomial.total_s", "s", "lower"),
    ("mcg.beta_gn.total_s", "s", "lower"),
    ("mcg.apply_word.total_s", "s", "lower"),
    ("mcg.standard_curve_system.calls", "count", "lower"),
    ("mcg.standard_curve_system.total_s", "s", "lower"),
    ("poly.self_s", "s", "lower"),
    ("poly.charpoly.calls", "count", "lower"),
    ("poly.charpoly.self_s", "s", "lower"),
    ("poly.charpoly.dim", "count", "lower"),
    ("poly.charpoly.slope", "1", "lower"),
    ("floer.self_s", "s", "lower"),
    ("floer.hf_rank.calls", "count", "lower"),
    ("floer.hf_rank.self_s", "s", "lower"),
    ("floer.staircase_from_alexander.self_s", "s", "lower"),
    ("floer.lspace_profile.self_s", "s", "lower"),
    ("certify.self_s", "s", "lower"),
    ("certify.certify.calls", "count", "lower"),
    ("certify.certify.self_s", "s", "lower"),
    ("certify.verify_certificate.calls", "count", "lower"),
    ("certify.verify_certificate.self_s", "s", "lower"),
    ("certify.cross_validate.self_s", "s", "lower"),
    ("dsl.self_s", "s", "lower"),
    ("dsl.parse_expression.calls", "count", "lower"),
    ("dsl.parse_expression.self_s", "s", "lower"),
    ("dsl.eval_expression.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.emit_certificate.calls", "count", "lower"),
    ("cli.emit_certificate.self_s", "s", "lower"),
    ("cli.replay_json.self_s", "s", "lower"),
    ("surface.standard_surface.total_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.remainder_s", "s", "lower"),
    ("trace.overhead_ratio", "1", "higher"),
)
STAT_FIELD = {
    "letters": "size", "lift_pairs": "size",
    "found": "extra", "letters_out": "extra", "factors": "extra", "dim": "extra",
}
MODULES = sorted({module for module, _, _ in TARGETS})


class BenchError(Exception):
    pass


def run_pass(workload, tiny, order, trace, spans_path, deadline):
    spec = {
        "root": ROOT, "workload": workload, "tiny": tiny, "order": order,
        "trace": trace, "spans_path": spans_path,
    }
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s before a pass could start")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass did not finish within {RUN_LIMIT_S} s of the run") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(args, rng, n_ops, modes, deadline):
    """Start passes until ``--seconds`` have elapsed and each mode has run.

    ``modes`` are the trace flags to cycle through; alternating traced
    and untraced passes keeps drift in machine speed out of the overhead.
    Before each of the first SETUP_PASSES timed passes runs a pass that
    only sets up, so that setup_s is a median of set-ups spread over the
    run.  Returns (trace flag, pass result) pairs.
    """
    passes = []
    timed = 0
    start = perf_counter()
    while timed < len(modes) or perf_counter() - start < args.seconds:
        if timed < SETUP_PASSES:
            passes.append((False, run_pass(args.workload, args.tiny, [], False, None, deadline)))
        trace = modes[timed % len(modes)]
        order = rng.sample(range(n_ops), n_ops)
        spans_path = os.path.join(HERE, "out", f"{args.workload}-pass{timed}.spans.jsonl")
        result = run_pass(args.workload, args.tiny, order, trace, spans_path, deadline)
        passes.append((trace, result))
        timed += 1
    return passes


def speed_scale(passes):
    """NOMINAL_S over the passes' mean reference-loop time (see speed.py)."""
    return speed.NOMINAL_S / statistics.fmean(s for p in passes for s in p["ref_s"])


def ops_per_s(passes):
    """Measured throughput, scaled to the nominal machine speed."""
    ops = sum(len(p["latencies"]) for p in passes)
    return ops / sum(p["loop_s"] for p in passes) / speed_scale(passes)


def end_to_end(passes):
    scale = speed_scale(passes)
    by_op = {}
    for p in passes:
        for i, latency, _ in p["latencies"]:
            by_op.setdefault(i, []).append(latency)
    per_op_ms = [1000 * scale * statistics.fmean(v) for v in by_op.values()]
    if len(per_op_ms) > 1:
        p50, p90 = (statistics.quantiles(per_op_ms, n=10, method="inclusive")[k] for k in (4, 8))
    else:
        p50 = p90 = per_op_ms[0]
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(1 for p in passes for *_, ok in p["latencies"] if not ok)
    return {
        "setup_s": statistics.median(
            p["setup_s"] * speed.NOMINAL_S / p["setup_ref_s"] for p in passes
        ),
        "ops_per_s": ops_per_s(passes),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "success_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": max(p["rss_kb"] for p in passes) / 1024,
    }


def per_layer(traced, untraced):
    """Per-pass means of the traced passes' target statistics."""
    n = len(traced)
    absent = set(traced[0]["trace"]["absent"])
    merged = {}
    for p in traced:
        for name, s in p["trace"]["targets"].items():
            m = merged.setdefault(name, {"samples": {}})
            for field, v in s.items():
                if field == "samples":
                    for size, times in v.items():
                        m["samples"].setdefault(size, []).extend(times)
                else:
                    m[field] = m.get(field, 0) + v

    def target(name, stat):
        if name in absent:
            return None
        s = merged.get(name, {"samples": {}})
        if stat == "slope":
            return loglog_slope(s["samples"])
        if stat == "hit_ratio":
            return s["extra"] / s["size"] if s.get("size") else 0.0
        return s.get(STAT_FIELD.get(stat, stat), 0) / n

    def module_self(module):
        names = [f"{module}.{f}" for mod, f, kind in TARGETS if mod == module and kind == "span"]
        present = [t for t in names if t not in absent]
        return sum(target(t, "self_s") for t in present) if present else None

    wall = statistics.fmean(p["trace"]["wall_s"] for p in traced)
    traced_self = sum(module_self(mod) or 0.0 for mod in MODULES)
    values = {
        "trace.wall_s": wall,
        "trace.remainder_s": wall - traced_self,
        "trace.overhead_ratio": ops_per_s(traced) / ops_per_s(untraced),
    }
    for name, _, _ in PER_LAYER:
        if name in values:
            continue
        head, stat = name.rsplit(".", 1)
        values[name] = module_self(head) if head in MODULES else target(head, stat)
    return values


def dominant(values):
    """The target with the largest self time, and its share of the traced wall."""
    selfs = {
        name[: -len(".self_s")]: v for name, v in values.items()
        if name.endswith(".self_s") and name.count(".") == 2 and v
    }
    top = max(selfs, key=selfs.get)
    return top, selfs[top] / values["trace.wall_s"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    args = parser.parse_args(argv)

    deadline = perf_counter() + RUN_LIMIT_S
    src = os.path.join(ROOT, "src", "lspacecert")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        raise BenchError(f"no package source at {src}")
    if not compileall.compile_dir(src, quiet=1):
        raise BenchError("package source does not compile")

    rng = random.Random(args.seed)
    n_ops = len(WORKLOADS[args.workload].keys_for(args.tiny))
    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        for stale in glob.glob(os.path.join(HERE, "out", f"{args.workload}-pass*.spans.jsonl")):
            os.remove(stale)
    passes = run_passes(args, rng, n_ops, (False, True) if args.trace else (False,), deadline)
    untraced = [p for trace, p in passes if not trace]
    if args.trace:
        traced = [p for trace, p in passes if trace]
        values = per_layer(traced, untraced)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = end_to_end(untraced)
        units = dict(END_TO_END)
    passes = [p for _, p in passes]

    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for f in failures[:5]:
        print(f"FAILED {f}", file=sys.stderr)
    setup_only = sum(1 for p in passes if not p["latencies"])
    print(f"workload {args.workload} seed {args.seed}: {len(passes) - setup_only} passes "
          f"(+{setup_only} set-up only), "
          f"{attempted} operations ({n_ops} distinct), {len(failures)} failed")
    print(f"fail_ratio {len(failures) / attempted} 1")
    ref = [s for p in untraced for s in p["ref_s"]]
    print(f"reference loop: mean {1000 * statistics.fmean(ref):.4f} ms over {len(ref)} samples, "
          f"times scaled by {speed_scale(untraced):.4f} (nominal {1000 * speed.NOMINAL_S} ms)")
    for name, value in values.items():
        print(f"{name} {'absent' if value is None else value} {units[name]}")
    if args.trace:
        name, share = dominant(values)
        print(f"dominant self time: {name} ({100 * share:.1f}% of traced wall)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)
