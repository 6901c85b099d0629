"""Exact maximum flow / minimum s-t cut over rational capacities.

Capacities are exact Fractions, or ``None`` for an arc without a capacity
limit; no "large finite number" stand-in is ever used, and arithmetic or
ordering on ``None`` raises, so unbounded cuts can never be confused with
expensive finite ones.  The solver is Dinic's algorithm (Dinic 1970) over one
residual array that stores arcs in pairs: residual arc 2i runs along arc i
and holds its unused capacity, and 2i+1 runs against it and holds its flow,
so ``j ^ 1`` is the partner of residual arc ``j``.  The one entry point,
``min_cut_indexed``, takes nodes as indices 0..n-1 and arcs as parallel
lists of tails, heads and capacities; its callers keep their own names, so
the module has no graph type of its own.  Rooms are exact integers in units
of 1/scale, where scale is the least common multiple of the finite
capacities' denominators, so the flow stays exact while its inner loop adds
and compares plain ints; the value is scaled back to a Fraction on
return.  An arc without a limit has room ``math.inf``, which stays
``math.inf`` under every addition and subtraction of a finite amount.

Each phase labels nodes with their residual distance from the source by BFS,
then augments a blocking flow along arcs that climb one level.  A depth-first
walk keeps a current arc per node and drops a node from the phase once it is
a dead end.  After a phase no shortest path is left, so the source-to-sink
distance grows with every phase and, being at most n - 1, bounds the number
of phases.

Unbounded flows need no separate check.  Reverse rooms are finite, so an
augmenting path without a finite room consists of unbounded arcs only and no
finite cut exists.  Every other augmentation saturates a finite room on the
level graph, whose reverse runs down a level and so is not used again in the
phase; each phase therefore ends, with such a path or with the sink cut off.
A source that is also the sink is the empty such path: it has no finite cut
either.

The reported cut is the set of nodes reachable from the source in the final
residual graph, which are the nodes the last BFS labelled.  After any maximum
flow that set is the smallest source side of a minimum cut (it lies inside
every other one), a property of the graph alone, so the cut, its sides and
its cost do not depend on the order in which paths were augmented.
"""

from __future__ import annotations

import math
from fractions import Fraction


def min_cut_indexed(
    n: int, source: int, sink: int, tails: list[int], heads: list[int],
    caps: list[Fraction | None],
) -> tuple[list[int], list[bool], Fraction | None]:
    """A minimum s-t cut on nodes 0..n-1, with arc i running from
    ``tails[i]`` to ``heads[i]`` at capacity ``caps[i]``.

    Returns the positions of the crossing arcs in arc order, a reached flag
    per node (the source side), and the cost, which is the maximum flow
    value by duality.  The source side is the residual-reachable set, also
    when no flow is possible: then the cut costs 0 and lists the
    zero-capacity arcs, if any, that leave the nodes reachable over positive
    capacity.  If every s-t cut crosses an unbounded arc, or the source is
    the sink, no finite cut exists: the cost is None and both lists are
    empty.
    """
    # Rooms are never negative, so a truthy room is a usable residual arc.
    scale = math.lcm(*(c.denominator for c in caps if c is not None))
    head: list[int] = []
    room: list[int | float] = []
    out: list[list[int]] = [[] for _ in range(n)]
    for i, (u, v, c) in enumerate(zip(tails, heads, caps)):
        head += (v, u)
        room += (math.inf if c is None else c.numerator * (scale // c.denominator), 0)
        out[u].append(2 * i)
        out[v].append(2 * i + 1)
    s, t = source, sink

    total = 0
    while True:
        # BFS levels: level[v] is v's residual distance from s, None if unseen.
        level: list[int | None] = [None] * n
        level[s] = 0
        frontier = [s]
        while frontier and level[t] is None:
            next_frontier = []
            for u in frontier:
                d = level[u] + 1
                for j in out[u]:
                    v = head[j]
                    if level[v] is None and room[j]:
                        level[v] = d
                        next_frontier.append(v)
            frontier = next_frontier
        if level[t] is None:
            crossing = [
                i for i, (u, v) in enumerate(zip(tails, heads))
                if level[u] is not None and level[v] is None
            ]
            return crossing, [d is not None for d in level], Fraction(total, scale)

        # Blocking flow: a DFS over arcs that climb one level and have room.
        # ptr[u] is u's current arc; path holds the residual arcs from s to u.
        ptr = [0] * n
        path: list[int] = []
        u = s
        while True:
            if u == t:
                bottleneck = min((room[j] for j in path), default=math.inf)
                if bottleneck == math.inf:
                    return [], [], None
                for j in path:
                    room[j] -= bottleneck
                    room[j ^ 1] += bottleneck
                total += bottleneck
                # resume from the tail of the first arc the path saturated
                k = next(k for k, j in enumerate(path) if not room[j])
                u = head[path[k] ^ 1]
                del path[k:]
                continue
            arcs, i, d = out[u], ptr[u], level[u] + 1
            while i < len(arcs) and not (room[arcs[i]] and level[head[arcs[i]]] == d):
                i += 1
            ptr[u] = i
            if i < len(arcs):
                path.append(arcs[i])
                u = head[arcs[i]]
            elif u == s:
                break
            else:
                # a dead end: no arc into u is taken again in this phase
                level[u] = None
                u = head[path.pop() ^ 1]
