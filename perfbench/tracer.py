"""Spans around the package's coarse functions, installed from outside.

The package imports functions by name across modules (``from .curves
import dehn_twist`` in ``mcg`` and ``dsl``, ``from .mcg import ...`` in
``certify`` and ``cli``), so wrapping a function means rebinding every
``lspacecert`` module attribute that holds that same function object.
``Tracer.installed`` does that and restores the originals on exit.

Each wrapped call records a span (target, start, end, parent span,
operation id) in memory.  A target's self time is its span duration minus
the time its child spans cover; recursive calls nest like any other.  A
target missing from the package (a later refactor may delete it) is
reported as absent, never as zero.

Only coarse functions are wrapped.  The ray walk helpers run hundreds of
thousands of times per run and are deliberately left alone.
"""
import contextlib
import math
import statistics
import sys
from time import perf_counter

# (module, function, kind): "span" records a timed span, "count" only
# counts calls, so its time stays inside the caller's self time.
TARGETS = (
    ("surface", "standard_surface", "span"),
    ("curves", "canonical_form", "span"),
    ("curves", "_crossings", "span"),
    ("curves", "_crossing_order", "span"),
    ("curves", "dehn_twist", "span"),
    ("curves", "_validate_word", "span"),
    ("curves", "_has_self_crossing", "span"),
    ("mcg", "standard_curve_system", "span"),
    ("mcg", "beta_gn", "span"),
    ("mcg", "apply_word", "span"),
    ("mcg", "homology_action", "span"),
    ("mcg", "_mat_mul", "count"),
    ("mcg", "alexander_polynomial", "span"),
    ("poly", "charpoly", "span"),
    ("floer", "hf_rank", "span"),
    ("floer", "staircase_from_alexander", "span"),
    ("floer", "lspace_profile", "span"),
    ("certify", "certify", "span"),
    ("certify", "verify_certificate", "span"),
    ("certify", "cross_validate", "span"),
    ("dsl", "parse_expression", "span"),
    ("dsl", "eval_expression", "span"),
    ("cli", "main", "span"),
    ("cli", "emit_certificate", "span"),
    ("cli", "replay_json", "span"),
)

# What a call's arguments and result say about its input size and its
# output: (size, extra).  size is the x axis of the scaling slope.
WORK = {
    "curves.canonical_form": lambda args, out: (len(args[0]), 0),
    "curves._crossings": lambda args, out: (len(args[1]) * len(args[2]), len(out)),
    "curves.dehn_twist": lambda args, out: (len(args[0]), len(out)),
    "mcg.homology_action": lambda args, out: (
        args[0].factors[0][0].surface.genus, len(args[0].factors)
    ),
    "poly.charpoly": lambda args, out: (len(args[0]) // 2, len(args[0])),
}


class Tracer:
    """In-memory span recorder; ``op`` is the id of the running operation."""

    def __init__(self):
        self.op = -1
        self.spans = []  # (target, start, end, parent, op, child_s, size, extra)
        self.counts = {}
        self.absent = []
        self._stack = []  # [span index, time covered by children]

    def _span_wrapper(self, name, fn):
        work = WORK.get(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            out = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                size = extra = None
                if work is not None and out is not None:
                    try:
                        size, extra = work(args, out)
                    except (AttributeError, IndexError, TypeError):
                        pass  # the target's signature changed: no size
                spans[index] = (name, start, end, parent, self.op, frame[1], size, extra)

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every lspacecert module attribute that holds a target."""
        wrappers = {}
        for module, func, kind in TARGETS:
            name = f"{module}.{func}"
            fn = getattr(sys.modules.get(f"lspacecert.{module}"), func, None)
            if fn is None:
                self.absent.append(name)
                continue
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            wrappers[id(fn)] = (fn, make(name, fn))
        rebound = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "lspacecert" or modname.startswith("lspacecert.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    rebound.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in rebound:
                setattr(mod, attr, value)

    def summary(self):
        """Per-target totals of this tracer's spans, as plain JSON data."""
        stats = {}
        for name, start, end, _, _, child_s, size, extra in self.spans:
            s = stats.setdefault(name, {
                "calls": 0, "total_s": 0.0, "self_s": 0.0,
                "size": 0, "extra": 0, "samples": {},
            })
            dur = end - start
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - child_s
            if size is not None:
                s["size"] += size
                s["extra"] += extra
                s["samples"].setdefault(str(size), []).append(dur - child_s)
        for name, calls in self.counts.items():
            stats[name] = {"calls": calls}
        return {"targets": stats, "absent": self.absent}

    def span_records(self):
        """The recorded spans, one list per span, for writing out."""
        return [list(s[:5]) + [s[2] - s[1] - s[5]] for s in self.spans]


def loglog_slope(samples):
    """Least-squares slope of log(median self time) against log(size).

    ``samples`` maps size to the self times of calls of that size.  Only
    sizes within two decades of the largest enter the fit, where the cost
    of the work outweighs the cost of the call.  With fewer than two such
    sizes no scaling is observable and the slope is reported as 0.0.
    """
    points = {int(k): statistics.median(v) for k, v in samples.items() if int(k) > 0}
    if not points:
        return 0.0
    top = max(points)
    xs, ys = [], []
    for size, t in points.items():
        if size * 100 >= top and t > 0:
            xs.append(math.log(size))
            ys.append(math.log(t))
    if len(xs) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
