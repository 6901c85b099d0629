"""Exact solvers used as ground truth for ratio checks.

They share no algorithm with the greedy paths: both optima are max-gain
flows on one residual graph with its own Dijkstra.  Each crash plan is
checked by the oracle's own duration evaluator and prefix sums, and each
klis witness total against k rows of RSK (Greene's theorem).
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect
from fractions import Fraction
from typing import Sequence

from .errors import NotCrashableError
from .klis import SubseqSelection
from .network import Plan, ProjectNetwork


class _DurationEvaluator:
    """Longest-path evaluation against a mutable edge-length vector."""

    def __init__(self, net: ProjectNetwork):
        self.index = index = {v: i for i, v in enumerate(net.nodes)}
        indeg = [0] * len(net.nodes)
        out: list[list[int]] = [[] for _ in net.nodes]
        self.incoming: list[list[tuple[int, int]]] = [[] for _ in net.nodes]
        for j, e in enumerate(net.edges):
            u, v = index[e.src], index[e.dst]
            indeg[v] += 1
            out[u].append(v)
            self.incoming[v].append((u, j))
        order = [i for i in range(len(net.nodes)) if indeg[i] == 0]
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for v in out[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    order.append(v)
        self.order = order
        self.sink_index = index[net.sink]

    def duration(self, lengths: list[int]) -> int:
        dist = [0] * len(self.order)
        for v in self.order:
            best = 0
            for u, j in self.incoming[v]:
                cand = dist[u] + lengths[j]
                if cand > best:
                    best = cand
            dist[v] = best
        return dist[self.sink_index]


class _Residual:
    """Residual arcs of integer gain: arc a runs to ``heads[a]``, and
    ``a ^ 1`` is its reverse, with the negated gain and no capacity until
    flow is pushed.  The forward arcs form a DAG."""

    def __init__(self, n: int):
        self.out = [[] for _ in range(n)]
        self.heads, self.gains, self.caps = [], [], []

    def add_arc(self, u: int, v: int, gain: int, cap) -> None:
        a = len(self.heads)
        self.out[u].append(a)
        self.out[v].append(a + 1)
        self.heads.extend((v, u))
        self.gains.extend((gain, -gain))
        self.caps.extend((cap, 0))

    def potentials(self, order) -> list[int]:
        """Longest gains before any flow, relaxing nodes in ``order``, a
        topological order of the forward arcs."""
        potential = [0] * len(self.out)
        for u in order:
            for a in self.out[u]:
                v, gain = self.heads[a], potential[u] + self.gains[a]
                if self.caps[a] and gain > potential[v]:
                    potential[v] = gain
        return potential

    def augment(self, potential: list[int], s: int, t: int, target: int) -> int:
        """Push flow along longest residual s-t paths while one gains G > T =
        ``target``; return the sum of amount * (G - T).

        Forward paths whose arcs have no capacity limit must gain at most T;
        then the flow value never passes C, the sum of the other forward
        arcs' capacities, so a capacity above C serves as no limit.  Split
        the flow into s-t paths of forward arcs: those with a limited arc
        carry at most C.  Each flow reached is one of largest gain for its
        value, and the last path pushed gained G > T, so every flow of x
        units less gains at least x * G less; withdrawing x units along a
        path of unlimited arcs loses at most x * T, so no such path carries
        flow.
        """
        caps = self.caps
        total = 0
        while True:
            parent = self.longest(potential, {s: 0})
            gain = potential[t]
            if gain <= target:
                return total
            path = []
            v = t
            while v != s:
                path.append(parent[v])
                v = self.heads[parent[v] ^ 1]
            amount = min(caps[a] for a in path)
            for a in path:
                caps[a] -= amount
                caps[a ^ 1] += amount
            total += amount * (gain - target)

    def longest(self, potential: list[int], starts: dict[int, int]) -> list[int]:
        """Longest gains from the start nodes over the residual arcs, by
        Dijkstra on reduced costs ``potential[v] - potential[u] - gain >= 0``;
        ``starts`` maps each start node to its reduced label.  Updates
        ``potential`` in place and returns each node's last arc (-1 for none).
        """
        out, heads, gains, caps = self.out, self.heads, self.gains, self.caps
        reduced = [math.inf] * len(potential)
        parent = [-1] * len(potential)
        heap = []
        for v, label in starts.items():
            reduced[v] = label
            heap.append((label, v))
        heapq.heapify(heap)
        while heap:
            du, u = heapq.heappop(heap)
            if du > reduced[u]:
                continue
            base = du - potential[u]
            for a in out[u]:
                if caps[a]:
                    v = heads[a]
                    dv = base + potential[v] - gains[a]
                    if dv < reduced[v]:
                        reduced[v] = dv
                        parent[v] = a
                        heapq.heappush(heap, (dv, v))
        for v, dv in enumerate(reduced):
            potential[v] -= dv
        return parent


def exact_crash_cost(net: ProjectNetwork, k: int) -> tuple[Plan, Fraction]:
    """Cheapest plan shortening the project by at least k days, by max-gain flow.

    The dual of the crash LP (Fulkerson 1961) sends flow from source to sink;
    each job is a bundle of parallel arcs, one per crashable day with gain
    ``normal_len - i`` and capacity ``c_i - c_(i-1)``, and a last arc with
    gain ``min_len`` and no capacity limit.  Successive longest augmenting
    paths run while a path gains more than ``T = duration - k``, and each
    unit of flow on a path of gain G adds ``G - T`` to the optimum.  Gains
    are integers and capacities are the cost differences times the least
    common multiple of their denominators, so all flow arithmetic is on
    ints.  The plan is read off the longest residual distances, and among
    equal-cost optima those potentials decide.  Convex schedules are costed
    by prefix sums.  ``net`` must pass ``network.network_from_json``'s checks.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return Plan(), Fraction(0)

    evaluator = _DurationEvaluator(net)
    base = evaluator.duration([e.normal_len for e in net.edges])
    floor = evaluator.duration([e.min_len for e in net.edges])
    if base - floor < k:
        raise NotCrashableError(f"k_max is {base - floor}, no {k}-day plan exists")
    target = base - k

    scale = math.lcm(*(c.denominator for e in net.edges for c in e.cost_schedule))
    index = evaluator.index
    graph = _Residual(len(net.nodes))
    unbounded = []
    for e in net.edges:
        u, v = index[e.src], index[e.dst]
        previous = 0
        for i, c in enumerate(e.cost_schedule):
            scaled = c.numerator * (scale // c.denominator)
            if scaled > previous:
                graph.add_arc(u, v, e.normal_len - i, scaled - previous)
            previous = scaled
        # A path of these arcs only gains at most ``floor <= target``.
        unbounded.append(len(graph.heads))
        graph.add_arc(u, v, e.min_len, 0)
    # No flow reaches the sum of the finite capacities (see ``_Residual.augment``),
    # so one more is no limit, and stays an int past float range.
    no_limit = sum(graph.caps) + 1
    for a in unbounded:
        graph.caps[a] = no_limit

    potential = graph.potentials(evaluator.order)
    s, t = index[net.source], index[net.sink]
    opt = graph.augment(potential, s, t, target)

    # With flow, the return arc t -> s of gain -T is matched by s -> t of
    # gain T, so the sink's potential is exactly T; without, at most T.
    if opt:
        graph.longest(potential, {s: 0, t: potential[t] - target})
    amounts = [
        min(max(e.normal_len - (potential[index[e.dst]] - potential[index[e.src]]), 0),
            e.crashable_days)
        for e in net.edges
    ]
    cost = Fraction(opt, scale)
    _check_plan(net, evaluator, target, amounts, cost)
    return Plan({e.id: x for e, x in zip(net.edges, amounts) if x > 0}), cost


def _check_plan(
    net: ProjectNetwork, evaluator: _DurationEvaluator, target: int,
    amounts: list[int], cost: Fraction,
) -> None:
    """Raise unless the per-edge crash amounts meet the target duration and
    cost exactly ``cost`` by schedule prefix sums: a failure is a bug here,
    not bad input."""
    lengths = [e.normal_len - x for e, x in zip(net.edges, amounts)]
    if evaluator.duration(lengths) > target:
        raise RuntimeError(f"oracle plan misses the target duration {target}")
    spent = sum((c for e, x in zip(net.edges, amounts) for c in e.cost_schedule[:x]), Fraction(0))
    if spent != cost:
        raise RuntimeError(f"oracle plan costs {spent}, not the optimum {cost}")


def exact_klis_total(values: Sequence[int], k: int) -> int:
    """Largest total length of k disjoint increasing subsequences.

    By Greene's theorem (Adv. Math. 1974) it is the size of the first k
    rows of the RSK tableau, and row insertion never reads a lower row, so
    only k rows are kept.  Equal values are first made distinct, decreasing
    from left to right, so no increasing subsequence can take two of them.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    ranks = [0] * len(values)
    for r, i in enumerate(sorted(range(len(values)), key=lambda i: (values[i], -i))):
        ranks[i] = r
    rows: list[list[int]] = [[] for _ in range(k)]
    for x in ranks:
        for row in rows:
            j = bisect(row, x)
            if j == len(row):
                row.append(x)
                break
            row[j], x = x, row[j]
    return sum(len(row) for row in rows)


def exact_klis(values: Sequence[int], k: int) -> SubseqSelection:
    """Maximum-total k disjoint increasing subsequences, with witnesses.

    A max-gain flow of at most k units.  Position i is an arc of gain 1 and
    capacity 1 beside a bypass of gain 0, and i leads to j > i only where j
    covers i: no value between them lies strictly between theirs (equal
    values are never comparable), at most n²/4 pairs.  So each unit, walked
    from the source, is one increasing subsequence.  A total other than
    ``exact_klis_total`` raises RuntimeError.  Parts are returned longest
    first.
    """
    if k < 1:
        raise ValueError("k must be at least 1")

    # Node 0 is the source, 1 the hub, 2i + 2 and 2i + 3 the two ends of
    # position i, and 2n + 2 the sink.
    sink = 2 * len(values) + 2
    graph = _Residual(sink + 1)
    graph.add_arc(0, 1, 0, k)
    for i, v in enumerate(values):
        head = 2 * i + 3
        graph.add_arc(1, head - 1, 0, k)
        graph.add_arc(head - 1, head, 1, 1)
        graph.add_arc(head - 1, head, 0, k)
        graph.add_arc(head, sink, 0, k)
        bound = math.inf
        for j, w in enumerate(values[i + 1:], i + 1):
            if v < w <= bound:
                bound = w
                graph.add_arc(head, 2 * j + 2, 0, k)
    graph.augment(graph.potentials(range(sink + 1)), 0, sink, 0)

    # The flow on forward arc 2m is its reverse's capacity.
    flow = graph.caps[1::2]
    parts = [[] for _ in range(k)]
    for part in parts[:flow[0]]:
        u = 1
        while u != sink:
            a = next(a for a in graph.out[u] if not a & 1 and flow[a >> 1])
            flow[a >> 1] -= 1
            if graph.gains[a]:
                part.append(u // 2 - 1)
            u = graph.heads[a]
    total, greene = sum(len(part) for part in parts), exact_klis_total(values, k)
    if total != greene:
        raise RuntimeError(f"oracle witnesses total {total}, not Greene's {greene}")

    parts.sort(key=lambda part: (-len(part), part))
    return SubseqSelection(tuple(tuple(part) for part in parts), total)
