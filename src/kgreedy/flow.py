"""Exact maximum flow / minimum s-t cut over rational capacities.

Capacities are exact Fractions or the distinct ``UNBOUNDED`` sentinel; no
"large finite number" stand-in is ever used, so unbounded cuts can never be
confused with expensive finite ones.  The solver is Edmonds-Karp (shortest
augmenting paths) over one residual array that stores arcs in pairs: residual
arc 2i runs along arc i and holds its unused capacity, and 2i+1 runs against
it and holds its flow, so ``j ^ 1`` is the partner of residual arc ``j``.
Rooms are exact integers in units of 1/scale, where scale is the least common
multiple of the finite capacities' denominators, so the flow stays exact while
its inner loop adds and compares plain ints; the value is scaled back to a
Fraction on return.

Unbounded flows need no separate check.  Reverse rooms are finite, so an
augmenting path without a finite room consists of unbounded arcs only and no
finite cut exists.  Every other augmentation saturates a finite room, so
Edmonds-Karp still ends, with such a path or with the sink cut off.  A source
that is also the sink is the empty such path: it has no finite cut either.

The reported cut is the set of nodes reachable from the source in the final
residual graph.  After any maximum flow that set is the smallest source side
of a minimum cut (it lies inside every other one), a property of the graph
alone, so the cut, its sides and its cost do not depend on the order in which
paths were augmented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union


class _Unbounded:
    """Singleton sentinel for arcs that no finite budget can saturate."""

    def __repr__(self):
        return "UNBOUNDED"

    def __reduce__(self):
        # copy and pickle resolve the module-level name, so they keep the one instance
        return "UNBOUNDED"


UNBOUNDED = _Unbounded()

Capacity = Union[Fraction, _Unbounded]


@dataclass(frozen=True)
class Arc:
    id: str
    src: str
    dst: str
    capacity: Capacity


@dataclass(frozen=True)
class FlowGraph:
    nodes: tuple[str, ...]
    source: str
    sink: str
    arcs: tuple[Arc, ...]


@dataclass(frozen=True)
class CutResult:
    """A minimum s-t cut: the crossing arcs and the source side that witnesses them."""

    cut_arcs: frozenset[str]
    source_side: frozenset[str]
    cost: Capacity


def min_cut(g: FlowGraph) -> CutResult:
    """A minimum s-t cut with a deterministic, source-nearest witness.

    Edmonds-Karp; the cost is the maximum flow value, by duality.  The source
    side is the residual-reachable set, also when no flow is possible: then
    the cut costs 0 and lists the zero-capacity arcs, if any, that leave the
    nodes reachable over positive capacity.  If every s-t cut crosses an
    unbounded arc, or the source is the sink, no finite cut exists: the cost
    is UNBOUNDED and the cut arcs and source side are empty.
    """
    # Rooms are never negative, so a truthy room is a usable residual arc;
    # UNBOUNDED is truthy and never changes.
    scale = math.lcm(*(a.capacity.denominator for a in g.arcs if a.capacity is not UNBOUNDED))
    head: list[str] = []
    room: list[int | _Unbounded] = []
    out: dict[str, list[int]] = {v: [] for v in g.nodes}
    for i, arc in enumerate(g.arcs):
        c = arc.capacity
        head += (arc.dst, arc.src)
        room += (c if c is UNBOUNDED else c.numerator * (scale // c.denominator), 0)
        out[arc.src].append(2 * i)
        out[arc.dst].append(2 * i + 1)

    total = 0
    while True:
        # BFS for the shortest residual path; parent[v] is the residual arc into v.
        parent: dict[str, int | None] = {g.source: None}
        frontier = [g.source]
        while frontier and g.sink not in parent:
            next_frontier = []
            for u in frontier:
                for j in out[u]:
                    v = head[j]
                    if v not in parent and room[j]:
                        parent[v] = j
                        next_frontier.append(v)
            frontier = next_frontier
        if g.sink not in parent:
            crossing = frozenset(a.id for a in g.arcs if a.src in parent and a.dst not in parent)
            return CutResult(crossing, frozenset(parent), Fraction(total, scale))
        path = []
        v = g.sink
        while v != g.source:
            j = parent[v]
            path.append(j)
            v = head[j ^ 1]
        bottleneck = min((room[j] for j in path if room[j] is not UNBOUNDED), default=UNBOUNDED)
        if bottleneck is UNBOUNDED:
            return CutResult(frozenset(), frozenset(), UNBOUNDED)
        for j in path:
            if room[j] is not UNBOUNDED:
                room[j] -= bottleneck
            if room[j ^ 1] is not UNBOUNDED:
                room[j ^ 1] += bottleneck
        total += bottleneck
