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

The same argument lets a call begin from any feasible flow instead of zero,
which is how a caller solving a run of similar graphs (the greedy's days)
reuses its last answer while the module keeps no state between calls.  The
call returns its maximum flow as ``(ints, scale)``, arc i carrying
``ints[i] / scale``, and takes a start in the same form.  The scale of a
warm call is the least common multiple of the start's scale and the
capacities' denominators, so a start at an older scale is multiplied up,
never rounded; the flow begins at the start's value, its net flow out of the
source, and the phases only augment from there.  A start that puts more on
an arc than the arc's new capacity would leave a negative room, which the
truthy-room test cannot tell from a usable one, so such a start is dropped
and the call runs from zero flow, exactly as a call without it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def min_cut_indexed(
    n: int, source: int, sink: int, tails: list[int], heads: list[int],
    caps: list[Fraction | None], start: tuple[list[int], int] | None = None,
) -> tuple[list[int], list[bool], Fraction | None, tuple[list[int], int] | None]:
    """A minimum s-t cut on nodes 0..n-1, with arc i running from
    ``tails[i]`` to ``heads[i]`` at capacity ``caps[i]``.

    Returns the positions of the crossing arcs in arc order, a reached flag
    per node (the source side), the cost, which is the maximum flow value by
    duality, and that maximum flow as ``(ints, scale)``: arc i carries
    ``ints[i] / scale``.  The source side is the residual-reachable set, also
    when no flow is possible: then the cut costs 0 and lists the
    zero-capacity arcs, if any, that leave the nodes reachable over positive
    capacity.  If every s-t cut crosses an unbounded arc, or the source is
    the sink, no finite cut exists: the cost and the flow are None and both
    lists are empty.

    ``start``, in the same form, is a flow to begin from instead of zero;
    it must be conserved at every node but the source and the sink.  A
    start that puts more on an arc than the arc's capacity is dropped, and
    the call is then the call without it.
    """
    # Rooms are never negative, so a truthy room is a usable residual arc.
    scale = math.lcm(*(c.denominator for c in caps if c is not None))
    if start is not None:
        ints, start_scale = start
        scale = math.lcm(scale, start_scale)
        up = scale // start_scale
        carried = ints if up == 1 else [f * up for f in ints]
    else:
        carried = itertools.repeat(0)
    head: list[int] = []
    room: list[int | float] = []
    out: list[list[int]] = [[] for _ in range(n)]
    for i, (u, v, c, f) in enumerate(zip(tails, heads, caps, carried)):
        head += (v, u)
        room += ((math.inf if c is None else c.numerator * (scale // c.denominator)) - f, f)
        out[u].append(2 * i)
        out[v].append(2 * i + 1)
    s, t = source, sink

    total = 0
    if start is not None:
        if min(room, default=0) < 0:
            return min_cut_indexed(n, source, sink, tails, heads, caps)
        # the start's value: its net flow out of the source, read off the
        # reverse rooms, which hold each arc's flow
        total = sum(-room[j] if j & 1 else room[j + 1] for j in out[s])
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
            reached = [d is not None for d in level]
            return crossing, reached, Fraction(total, scale), (room[1::2], scale)

        # Blocking flow: a DFS over arcs that climb one level and have room.
        # ptr[u] is u's current arc; path holds the residual arcs from s to u.
        ptr = [0] * n
        path: list[int] = []
        u = s
        while True:
            if u == t:
                bottleneck = min((room[j] for j in path), default=math.inf)
                if bottleneck == math.inf:
                    return [], [], None, None
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
