"""Exact maximum flow / minimum s-t cut over rational capacities.

Capacities are exact Fractions or the distinct ``UNBOUNDED`` sentinel; no
"large finite number" stand-in is ever used, so unbounded cuts can never be
confused with expensive finite ones.  The solver is a deterministic
Edmonds-Karp: augmenting paths are shortest first, scanned in arc-list
order, and the reported cut is the source side of the final residual graph
(the source-nearest minimum cut).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .network import _reachable


class _Unbounded:
    """Singleton sentinel for arcs that no finite budget can saturate."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNBOUNDED"


UNBOUNDED = _Unbounded()

Capacity = Union[Fraction, _Unbounded]


def is_unbounded(value) -> bool:
    return value is UNBOUNDED


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

    def __post_init__(self):
        if self.source == self.sink:
            raise ValueError("source and sink must differ")


@dataclass(frozen=True)
class CutResult:
    """A minimum s-t cut: the crossing arcs and the witnessing partition."""

    cut_arcs: frozenset[str]
    source_side: frozenset[str]
    sink_side: frozenset[str]
    cost: Capacity


def _max_flow(g: FlowGraph) -> tuple[Capacity, set[str] | None]:
    """Edmonds-Karp.  Returns (flow value, residual source side).

    The source side is None when the flow is unbounded, i.e. some
    source-to-sink path consists solely of unbounded arcs.
    """
    arcs = g.arcs
    reach = _reachable(g.nodes, [(a.src, a.dst) for a in arcs], g.source)
    if g.sink not in reach:
        return Fraction(0), reach
    unbounded = [(a.src, a.dst) for a in arcs if is_unbounded(a.capacity)]
    if g.sink in _reachable(g.nodes, unbounded, g.source):
        return UNBOUNDED, None

    flow = [Fraction(0)] * len(arcs)
    # forward[u] / backward[v]: arc indices usable out of a node in the residual.
    forward: dict[str, list[int]] = {v: [] for v in g.nodes}
    backward: dict[str, list[int]] = {v: [] for v in g.nodes}
    for i, arc in enumerate(arcs):
        forward[arc.src].append(i)
        backward[arc.dst].append(i)

    total = Fraction(0)
    while True:
        # BFS for the shortest residual path; parent[v] = (arc index, is_forward).
        parent: dict[str, tuple[int, bool]] = {}
        visited = {g.source}
        frontier = [g.source]
        while frontier and g.sink not in visited:
            next_frontier = []
            for u in frontier:
                for i in forward[u]:
                    arc = arcs[i]
                    if arc.dst in visited:
                        continue
                    if not is_unbounded(arc.capacity) and flow[i] >= arc.capacity:
                        continue
                    visited.add(arc.dst)
                    parent[arc.dst] = (i, True)
                    next_frontier.append(arc.dst)
                for i in backward[u]:
                    arc = arcs[i]
                    if arc.src in visited or flow[i] <= 0:
                        continue
                    visited.add(arc.src)
                    parent[arc.src] = (i, False)
                    next_frontier.append(arc.src)
            frontier = next_frontier
        if g.sink not in visited:
            return total, visited
        # Bottleneck along the path; unbounded arcs impose no limit.
        path: list[tuple[int, bool]] = []
        v = g.sink
        while v != g.source:
            i, fwd = parent[v]
            path.append((i, fwd))
            v = arcs[i].src if fwd else arcs[i].dst
        bottleneck = None
        for i, fwd in path:
            room = (
                None if is_unbounded(arcs[i].capacity) else arcs[i].capacity - flow[i]
            ) if fwd else flow[i]
            if room is not None and (bottleneck is None or room < bottleneck):
                bottleneck = room
        assert bottleneck is not None and bottleneck > 0
        for i, fwd in path:
            flow[i] += bottleneck if fwd else -bottleneck
        total += bottleneck


def min_cut(g: FlowGraph) -> CutResult:
    """A minimum s-t cut with a deterministic, source-nearest witness.

    If the sink is unreachable the empty cut of cost 0 is returned with the
    reachable set as the source side.  If every s-t cut crosses an unbounded
    arc, the cost is UNBOUNDED.
    """
    _, residual_side = _max_flow(g)
    if residual_side is None:
        # Every cut contains an unbounded arc; any partition witnesses that.
        src_side = frozenset(v for v in g.nodes if v != g.sink)
        cut = frozenset(a.id for a in g.arcs if a.src != g.sink and a.dst == g.sink)
        return CutResult(cut, src_side, frozenset({g.sink}), UNBOUNDED)

    src_side = frozenset(residual_side)
    sink_side = frozenset(v for v in g.nodes if v not in residual_side)
    cut_arcs = frozenset(
        a.id for a in g.arcs if a.src in src_side and a.dst in sink_side
    )
    cost = Fraction(0)
    for a in g.arcs:
        if a.id in cut_arcs:
            assert not is_unbounded(a.capacity)
            cost += a.capacity
    return CutResult(cut_arcs, src_side, sink_side, cost)


def max_flow_value(g: FlowGraph) -> Capacity:
    """Maximum s-t flow value; equals the minimum cut cost by duality."""
    return _max_flow(g)[0]
