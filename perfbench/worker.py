"""One benchmark pass in a fresh process: set up, run every operation once.

Usage: ``python3 worker.py '<json spec>'``, where the spec names the
repository root, the workload, whether to use the tiny input set, the
order of operations, and for a traced pass the file to write spans to.
Prints one JSON object on its last line of output.

A pass starts from a fresh interpreter so that no package cache carries
over from an earlier pass, as for a user running the command line once.
"""
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import speed
from tracer import Tracer
from workloads import WORKLOADS, package_modules


def main():
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    workload = WORKLOADS[spec["workload"]]
    keys = workload.keys_for(spec["tiny"])
    with open(os.path.join(os.path.dirname(__file__), "goldens.json")) as f:
        goldens = json.load(f)
    sys.path.insert(0, src)
    gc.collect()

    # Set-up is short enough that loops right before and after it give
    # the machine speed during it; run.py scales setup_s by their mean.
    ref_s = []
    speed.sample(0.0, ref_s)
    t0 = perf_counter()
    import lspacecert
    import lspacecert.cli
    t_import = perf_counter()
    if os.path.dirname(os.path.abspath(lspacecert.__file__)) != os.path.join(src, "lspacecert"):
        raise SystemExit(f"lspacecert imported from {lspacecert.__file__}, not {src}")
    m = package_modules()
    tracer = Tracer() if spec["trace"] else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        t_setup = perf_counter()
        for g in sorted({k[0] for k in keys}):
            m.mcg.standard_curve_system(g)
        setup_end = perf_counter()

        speed.sample(setup_end - t0, ref_s)
        setup_ref_s = statistics.fmean(ref_s)
        latencies, failures = [], []
        sampling_s = 0.0
        loop_start = perf_counter()
        for i in spec["order"]:
            key = tuple(keys[i])
            if tracer:
                tracer.op = i
            start = perf_counter()
            try:
                out, error = workload.run(m, key), None
            except Exception as e:  # every failure counts; the pass goes on
                out, error = None, f"{type(e).__name__}: {e}"
            latency = perf_counter() - start
            if tracer:
                tracer.op = -1
            ok = error is None and workload.check(goldens, key, out)
            latencies.append([i, latency, ok])
            if not ok:
                failures.append(f"{key}: {error or 'output differs from golden'}")
            sampling_s += speed.sample(latency, ref_s)
        loop_s = perf_counter() - loop_start - sampling_s

    result = {
        "setup_s": t_import - t0 + setup_end - t_setup,
        "setup_ref_s": setup_ref_s,
        "loop_s": loop_s,
        "latencies": latencies,
        "ref_s": ref_s,
        "failures": failures,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["trace"] = tracer.summary()
        result["trace"]["wall_s"] = setup_end - t_setup + loop_s
        with open(spec["spans_path"], "w") as f:
            for record in tracer.span_records():
                f.write(json.dumps(record) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
