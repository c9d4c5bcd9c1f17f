"""A reference loop that measures how fast the machine runs Python now.

On a shared machine the speed one thread gets drifts by up to a factor of
two, over seconds to minutes, as other tenants load the host.  That drift
is larger than the changes the benchmark must resolve.  So between
operations, outside the timed region, the worker runs a fixed pure-Python
loop (word-like and matrix-like, like the package's own code) for
about ``SHARE`` of the time the operation took, and records each loop's
time.  ``run.py`` scales operation times by ``NOMINAL_S`` divided by the
run's mean loop time, so a time reads as it would on a machine that runs
the loop in ``NOMINAL_S``; each set-up is scaled by the loops run right
before and after it.  The package never runs this loop, so a
change to the package moves the scaled times exactly as it moves the
measured ones.
"""
import gc
from time import perf_counter

# Median loop time on a 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest
# under CPython 3.11.
NOMINAL_S = 0.003
SHARE = 0.05


def reference_loop():
    """Word-like work (closures over tuples, list stacks, dict lookups,
    least rotation) and matrix-like work (generator sums of products)."""
    table = {i: -i for i in range(64)}
    total = 0
    for r in range(60):
        word = tuple(range(r % 17, r % 17 + 40))
        pick = lambda k, w=word: w[(k + r) % len(w)]  # noqa: E731
        out = []
        for k in range(40):
            x = pick(k)
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(table.get(x % 64, x))
        total += len(out) + min(word[k:] + word[:k] for k in range(0, 40, 4))[0]
    m = tuple(tuple((3 * i + j) % 5 - 2 for j in range(12)) for i in range(12))
    for _ in range(4):
        m = tuple(
            tuple(sum(m[i][k] * m[k][j] for k in range(12)) % 7 - 3 for j in range(12))
            for i in range(12)
        )
    return total + m[0][0]


def sample(measured_s, samples):
    """Run the loop about SHARE * measured_s long (at least once).

    Appends each loop's time to ``samples`` and returns the time spent.
    The loop creates no cycles, so the collector is paused while it runs:
    a collection triggered by the package's garbage must not land here.
    """
    reps = max(1, round(SHARE * measured_s / NOMINAL_S))
    start = perf_counter()
    gc.disable()
    try:
        for _ in range(reps):
            t = perf_counter()
            reference_loop()
            samples.append(perf_counter() - t)
    finally:
        gc.enable()
    return perf_counter() - start
