"""Exact maximum flow / minimum s-t cut over rational capacities.

Capacities are exact Fractions or ints, or ``None`` for an arc without a
capacity limit; no "large finite number" stand-in is ever used, and
arithmetic or ordering on ``None`` raises, so unbounded cuts can never be
confused with expensive finite ones.  The solver is Dinic's algorithm (Dinic 1970) over one
residual array that stores arcs in pairs: residual arc 2i runs along arc i
and holds its unused capacity, and 2i+1 runs against it and holds its flow,
so ``j ^ 1`` is the partner of residual arc ``j``.  Nodes are indices
0..n-1 and arcs parallel lists of tails and heads; callers keep their own
names, so the module has no graph type of its own.

One ``Residual`` serves a run of related cuts (the greedy's days, the
decomposition's levels).  It builds its arrays once, over a fixed list of
arcs that start closed, with no room either way, so the search skips them.
Between cuts the caller sets arcs' capacities, which keeps their flow: a
closed arc opens empty, a capacity rises, and an arc closes at capacity 0.
No capacity may fall below its arc's flow (``set_caps`` raises
``RuntimeError`` otherwise), so every room stays non-negative and the flow
stays a conserved flow within the capacities: each cut begins from the flow
the last one left.  The caller lists the open arcs for each cut, since an
open arc of capacity 0 looks closed.

Rooms are exact integers in units of 1/scale, so the inner loop adds and
compares plain ints.  The scale only grows: a capacity update whose
denominators do not all divide it rescales at most once, to the least common
multiple of the scale and all of the update's denominators, and every room
is multiplied up, never rounded.  An arc without a limit has room ``math.inf``.
It stays ``math.inf`` when an int within float range is added to it,
subtracted from it or multiplies it, but arithmetic with a larger int raises
OverflowError, and exact costs reach such scales once their denominators
multiply past about 1e308.  So a rescale leaves an unbounded room as it is,
and an augmenting path by a bottleneck past float range updates only the
finite rooms.

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
its cost depend neither on the augmentation order nor on the starting flow.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

# No int above the largest float converts to one, so ``math.inf`` plus or
# minus such an int raises OverflowError.
_FLOAT_MAX = sys.float_info.max


class Residual:
    """A residual graph on nodes 0..n-1 over arcs i running from
    ``tails[i]`` to ``heads[i]``, all closed at first.

    ``room`` holds the residual rooms in units of 1/``scale``, so arc i
    carries ``room[2 * i + 1] / scale``, and ``total`` is the flow's value in
    the same units.
    """

    def __init__(self, n: int, source: int, sink: int, tails, heads):
        self.n, self.source, self.sink = n, source, sink
        self.tails, self.heads = tails, heads
        self.head = head = [0] * (2 * len(tails))
        head[0::2], head[1::2] = heads, tails
        self.out = out = [[] for _ in range(n)]
        j = 0
        for u, v in zip(tails, heads):
            out[u].append(j)
            out[v].append(j + 1)
            j += 2
        self.room: list[int | float] = [0] * len(head)
        self.scale = 1
        self.total = 0

    def set_caps(self, arcs, caps) -> None:
        """Give the arcs at positions ``arcs`` capacities ``caps`` (None for
        no limit), keeping their flow; a capacity below its arc's flow
        raises ``RuntimeError``.  ``caps`` is a sequence: the first
        denominator that does not divide the scale rescales once, to the lcm
        of the scale and every denominator in ``caps``."""
        room, scale = self.room, self.scale
        for i, cap in zip(arcs, caps):
            if cap is None:
                room[2 * i] = math.inf
                continue
            d = cap.denominator
            if scale % d:
                new = math.lcm(scale, *[c.denominator for c in caps if c is not None])
                up = new // scale
                self.scale = scale = new
                self.room = room = [r if r == math.inf else r * up for r in room]
                self.total *= up
            units = cap.numerator * (scale // d)
            if units < room[2 * i + 1]:
                raise RuntimeError(f"arc {i} carries flow above its new capacity")
            room[2 * i] = units - room[2 * i + 1]

    def cut(self, open_arcs) -> tuple[list[int], list[bool], Fraction | None]:
        """A minimum s-t cut of the open arcs, listed in arc order in ``open_arcs``.

        Returns the positions of the crossing open arcs in arc order, a
        reached flag per node (the source side), and the cost, which is the
        maximum flow value by duality.  The source side is the
        residual-reachable set, also when no flow is possible: then the cut
        costs 0 and lists the zero-capacity arcs, if any, that leave the
        nodes reachable over positive capacity.  If every s-t cut crosses an
        unbounded arc, or the source is the sink, no finite cut exists: the
        cost is None and both lists are empty.
        """
        # Rooms are never negative, so a truthy room is a usable residual arc.
        n, s, t = self.n, self.source, self.sink
        head, room, out = self.head, self.room, self.out
        total = self.total
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
                self.total = total
                tails, heads = self.tails, self.heads
                crossing = [
                    i for i in open_arcs
                    if level[tails[i]] is not None and level[heads[i]] is None
                ]
                return crossing, [d is not None for d in level], Fraction(total, self.scale)

            # Blocking flow: a DFS over arcs that climb one level and have room.
            # ptr[u] is u's current arc; path holds the residual arcs from s to u.
            ptr = [0] * n
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    rooms = list(map(room.__getitem__, path))
                    bottleneck = min(rooms, default=math.inf)
                    if bottleneck == math.inf:
                        self.total = total
                        return [], [], None
                    if bottleneck <= _FLOAT_MAX:
                        for j in path:
                            room[j] -= bottleneck
                            room[j ^ 1] += bottleneck
                    else:
                        # math.inf less an int past float range overflows
                        for j in path:
                            if room[j] != math.inf:
                                room[j] -= bottleneck
                            if room[j ^ 1] != math.inf:
                                room[j ^ 1] += bottleneck
                    total += bottleneck
                    # resume from the tail of the first arc the path saturated,
                    # the first whose room was the bottleneck
                    k = rooms.index(bottleneck)
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
