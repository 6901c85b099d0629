"""Exact solvers used as ground truth for ratio checks.

These deliberately share no algorithmic machinery with the greedy paths.
The crash optimum is a max-gain flow on the dual of the crash LP, with its
own residual graph, Dijkstra and duration evaluator (no cuts, no critical
graphs), and every plan it returns is checked against that evaluator and
the schedules' prefix sums.  The k-subsequence total keeps k rows of RSK
(Greene's theorem) instead of patience piles, and the witnesses of ``klis
--exact`` come from a tail-state dynamic program, whose states are capped
at ``MAX_KLIS_STATES``: an oracle that silently truncates would be worse
than no oracle at all.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect
from fractions import Fraction
from typing import Sequence

from .errors import BudgetExceededError, NotCrashableError
from .klis import SubseqSelection
from .network import Plan, ProjectNetwork

_INF = float("inf")
_NEG_INF = float("-inf")

MAX_KLIS_STATES = 100_000


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
    by prefix sums.  ``net`` must be valid (see ``network.validate``).
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

    # Residual arcs: arc a runs to heads[a], and a ^ 1 is its reverse, with
    # the negated gain and no capacity until flow is pushed.
    scale = math.lcm(*(c.denominator for e in net.edges for c in e.cost_schedule))
    index = evaluator.index
    heads: list[int] = []
    gains: list[int] = []
    caps: list = []
    out: list[list[int]] = [[] for _ in net.nodes]

    def add_arc(u: int, v: int, gain: int, cap) -> None:
        out[u].append(len(heads))
        out[v].append(len(heads) + 1)
        heads.extend((v, u))
        gains.extend((gain, -gain))
        caps.extend((cap, 0))

    for e in net.edges:
        u, v = index[e.src], index[e.dst]
        previous = 0
        for i, c in enumerate(e.cost_schedule):
            scaled = c.numerator * (scale // c.denominator)
            if scaled > previous:
                add_arc(u, v, e.normal_len - i, scaled - previous)
            previous = scaled
        add_arc(u, v, e.min_len, _INF)

    # Longest distances before any flow: the forward arcs form a DAG.
    potential = [0] * len(net.nodes)
    for u in evaluator.order:
        for a in out[u]:
            if caps[a] and potential[u] + gains[a] > potential[heads[a]]:
                potential[heads[a]] = potential[u] + gains[a]

    s, t = index[net.source], index[net.sink]
    opt = 0
    while True:
        parent = _longest_residual(out, heads, gains, caps, potential, {s: 0})
        gain = potential[t]
        if gain <= target:
            break
        path = []
        v = t
        while v != s:
            path.append(parent[v])
            v = heads[parent[v] ^ 1]
        # A path of unlimited arcs only gains at most ``floor <= target``.
        amount = min(caps[a] for a in path)
        for a in path:
            caps[a] -= amount
            caps[a ^ 1] += amount
        opt += amount * (gain - target)

    # With flow, the return arc t -> s of gain -T is matched by s -> t of
    # gain T, so the sink's potential is exactly T; without, at most T.
    if opt:
        _longest_residual(out, heads, gains, caps, potential, {s: 0, t: potential[t] - target})
    amounts = [
        min(max(e.normal_len - (potential[index[e.dst]] - potential[index[e.src]]), 0),
            e.crashable_days)
        for e in net.edges
    ]
    cost = Fraction(opt, scale)
    _check_plan(net, evaluator, target, amounts, cost)
    return Plan({e.id: x for e, x in zip(net.edges, amounts) if x > 0}), cost


def _longest_residual(out, heads, gains, caps, potential, starts) -> list[int]:
    """Longest gains from the start nodes over the residual arcs, by Dijkstra
    on reduced costs ``potential[v] - potential[u] - gain >= 0``; ``starts``
    maps each start node to its reduced label.  Updates ``potential`` in
    place and returns each node's last arc (-1 for none).
    """
    reduced = [_INF] * len(potential)
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

    Every assignment of positions to {unused, class 1..k} maps onto a path
    through (position, sorted class-tails) states, so the search over that
    state space is exact.  Every position's states are kept for the walk
    back, and their number is checked as it grows: more than
    ``MAX_KLIS_STATES`` raises BudgetExceededError.  Parts are returned
    longest first.
    """
    if k < 1:
        raise ValueError("k must be at least 1")

    start = (_NEG_INF,) * k
    states: dict[tuple, int] = {start: 0}
    parents: list[dict[tuple, tuple[tuple, object]]] = []
    held = 1

    for v in values:
        nxt: dict[tuple, int] = {}
        back: dict[tuple, tuple[tuple, object]] = {}
        for tails, count in states.items():
            if tails not in nxt or count > nxt[tails]:
                nxt[tails] = count
                back[tails] = (tails, None)
            seen = set()
            for tail in tails:
                if tail in seen or tail >= v:
                    continue
                seen.add(tail)
                grown = list(tails)
                grown.remove(tail)
                grown.append(v)
                grown_key = tuple(sorted(grown))
                if grown_key not in nxt or count + 1 > nxt[grown_key]:
                    nxt[grown_key] = count + 1
                    back[grown_key] = (tails, tail)
            if held + len(nxt) > MAX_KLIS_STATES:
                raise BudgetExceededError(
                    f"the exact DP would hold more than its budget of {MAX_KLIS_STATES} states"
                )
        held += len(nxt)
        states = nxt
        parents.append(back)

    best_count = max(states.values())
    best_tails = min(t for t, c in states.items() if c == best_count)

    actions: list[object] = []
    cur = best_tails
    for back in reversed(parents):
        prev, action = back[cur]
        actions.append(action)
        cur = prev
    actions.reverse()

    classes: list[list[int]] = [[] for _ in range(k)]
    live = [_NEG_INF] * k
    for i, action in enumerate(actions):
        if action is None:
            continue
        slot = live.index(action)
        classes[slot].append(i)
        live[slot] = values[i]

    classes.sort(key=lambda part: (-len(part), part))
    rounds = tuple(tuple(part) for part in classes)
    return SubseqSelection(rounds, sum(len(r) for r in rounds))

