"""The compact oriented genus-g surface with one boundary circle.

The surface is presented by a cut system: 2g disjoint properly embedded
arcs that cut it into a single disk.  Everything downstream only ever sees
the combinatorics of that disk, namely the cyclic order in which the two
sides of each arc appear along its boundary.

Arcs are numbered 1..2g and a signed integer +k / -k denotes a crossing
of arc k in the positive / negative direction.  The cyclic sequence
``boundary_order`` lists the 4g arc sides counterclockwise around the
cut-open disk; side +k is the one a positive crossing exits through.
"""
from .errors import MalformedInput, _check_genus, _check_int, _per_genus
from .record import record


def _trace_boundary_cycles(order):
    """Cycles of boundary segments of the reglued surface.

    Segment p of the disk boundary sits between arc side p and arc side
    p + 1.  Regluing side s onto its partner (the other side of the same
    arc, with reversed orientation) sends the segment in front of side
    p + 1 to the segment behind its partner, so the successor map is
    p -> partner(p + 1).
    """
    n = len(order)
    partner = {}
    where = {sym: i for i, sym in enumerate(order)}
    for i, sym in enumerate(order):
        partner[i] = where[-sym]
    seen = set()
    cycles = []
    for start in range(n):
        if start in seen:
            continue
        cycle = []
        p = start
        while p not in seen:
            seen.add(p)
            cycle.append(p)
            p = partner[(p + 1) % n]
        cycles.append(cycle)
    return cycles


class SurfaceSpec(record("SurfaceSpec", "genus cut_arcs boundary_order")):
    """A genus-g one-boundary surface cut into a disk along 2g arcs.

    ``boundary_order`` must list each of the 4g signed arc symbols exactly
    once, and regluing must produce a connected boundary (equivalently the
    reglued surface has Euler characteristic 1 - 2g and genus g).  A
    spec that breaks either rule raises MalformedInput; the genus passes
    ``_check_genus``.  The position of each side on the disk boundary
    (``_pos``) and the boundary word are kept outside the fields, so they
    are not shown, compared or hashed.
    """

    def __new__(cls, genus, cut_arcs, boundary_order):
        g = genus
        _check_genus(g)
        if len(cut_arcs) != 2 * g:
            raise MalformedInput(f"need {2 * g} cut arcs, got {len(cut_arcs)}")
        order = tuple(boundary_order)
        expected = {s for k in range(1, 2 * g + 1) for s in (k, -k)}
        if set(order) != expected or len(order) != 4 * g:
            raise MalformedInput("boundary_order must contain each signed arc symbol once")
        cycles = _trace_boundary_cycles(order)
        if len(cycles) != 1:
            raise MalformedInput(
                f"cut system regluing has {len(cycles)} boundary circles, need 1"
            )
        n = len(order)
        self = tuple.__new__(cls, (genus, cut_arcs, order))
        self._pos = {s: i for i, s in enumerate(order)}
        self._boundary = tuple(order[(p + 1) % n] for p in cycles[0])
        return self

    @property
    def arc_count(self):
        return 2 * self.genus

    def boundary_word(self):
        """Crossing word of a curve just inside the boundary.

        Pushing the boundary into the interior crosses every arc twice,
        once near each endpoint; following the single boundary cycle and
        recording the arc side crossed after each segment spells it out.
        """
        return self._boundary


def chain_boundary_order(g):
    """Boundary order of the cut system adapted to the standard chain.

    The 2g chain curves each cross exactly one arc once, so arc k is dual
    to chain curve k.  Consecutive chords must link and all others must
    not, which the staircase pattern 1, 2, -1, 3, -2, 4, -3, ... realizes.
    """
    _check_int("genus", g)
    n = 2 * g
    order = [1, 2, -1]
    for k in range(3, n + 1):
        order.extend((k, -(k - 1)))
    order.append(-n)
    return tuple(order)


@_per_genus
def standard_surface(g):
    """The surface of genus g with the chain-adapted cut system."""
    arcs = tuple(f"e{k}" for k in range(1, 2 * g + 1))
    return SurfaceSpec(genus=g, cut_arcs=arcs, boundary_order=chain_boundary_order(g))
