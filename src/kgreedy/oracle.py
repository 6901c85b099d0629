"""Exhaustive exact solvers used as ground truth for ratio checks.

These deliberately share no algorithmic machinery with the greedy paths:
plan search uses only duration recomputation (no cuts, no flows), and the
subsequence solver is a tail-state dynamic program with no patience piles.
Two caps are hard preconditions: at most ``MAX_CRASH_PLANS`` crash plans and
``MAX_KLIS_ASSIGNMENTS`` subsequence assignments; an oracle that silently
truncates would be worse than no oracle at all.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import BudgetExceededError, NotCrashableError
from .klis import SubseqSelection
from .network import Plan, ProjectNetwork

_NEG_INF = float("-inf")

MAX_CRASH_PLANS = 2_000_000
MAX_KLIS_ASSIGNMENTS = 200_000_000


class _DurationEvaluator:
    """Longest-path evaluation against a mutable edge-length vector."""

    def __init__(self, net: ProjectNetwork):
        index = {v: i for i, v in enumerate(net.nodes)}
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
    """Cheapest plan shortening the project by at least k days, by enumeration.

    Visits every in-bounds integer plan (cost-bound pruning only), so the
    plan space product over all edges of (crashable days + 1) must be at
    most ``MAX_CRASH_PLANS``.  Convex schedules are costed by prefix sums.  Among equal-cost
    optima the first plan in per-edge lexicographic order wins.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return Plan(), Fraction(0)

    caps = [e.crashable_days for e in net.edges]
    space = 1
    for c in caps:
        space *= c + 1
    if space > MAX_CRASH_PLANS:
        raise BudgetExceededError(f"{space} plans exceed the budget of {MAX_CRASH_PLANS}")

    evaluator = _DurationEvaluator(net)
    lengths = [e.normal_len for e in net.edges]
    base = evaluator.duration(lengths)
    floor = evaluator.duration([e.min_len for e in net.edges])
    if base - floor < k:
        raise NotCrashableError(f"k_max is {base - floor}, no {k}-day plan exists")
    target = base - k

    prefix: list[list[Fraction]] = []
    for e in net.edges:
        acc = [Fraction(0)]
        for c in e.cost_schedule:
            acc.append(acc[-1] + c)
        prefix.append(acc)

    # Only crashable edges are branched on: any other edge has the single
    # choice x = 0, so the recursion depth is at most log2 of the plan space.
    crashable = [j for j, c in enumerate(caps) if c > 0]
    xs = [0] * len(net.edges)
    best_cost: Fraction | None = None
    best_xs: list[int] | None = None

    def search(depth: int, cost: Fraction) -> None:
        nonlocal best_cost, best_xs
        if best_cost is not None and cost >= best_cost:
            return
        if depth == len(crashable):
            if evaluator.duration(lengths) <= target:
                best_cost = cost
                best_xs = xs.copy()
            return
        j = crashable[depth]
        normal = lengths[j]
        for x in range(caps[j] + 1):
            xs[j] = x
            lengths[j] = normal - x
            search(depth + 1, cost + prefix[j][x])
        xs[j] = 0
        lengths[j] = normal

    search(0, Fraction(0))
    assert best_cost is not None and best_xs is not None
    plan = Plan({e.id: x for e, x in zip(net.edges, best_xs) if x > 0})
    return plan, best_cost


def exact_klis(values: Sequence[int], k: int) -> SubseqSelection:
    """Maximum-total k disjoint increasing subsequences, exactly.

    Every assignment of positions to {unused, class 1..k} maps onto a path
    through (position, sorted class-tails) states, so the exhaustive search
    over that state space is exact; (k+1)^n must be at most
    ``MAX_KLIS_ASSIGNMENTS``.  Parts are returned longest first.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = len(values)
    if (k + 1) ** n > MAX_KLIS_ASSIGNMENTS:
        raise BudgetExceededError(
            f"(k+1)^n = {(k + 1) ** n} assignments exceed the budget of {MAX_KLIS_ASSIGNMENTS}"
        )

    start = (_NEG_INF,) * k
    states: dict[tuple, int] = {start: 0}
    parents: list[dict[tuple, tuple[tuple, object]]] = []

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

