"""Greedy project crashing and its minimum-cut decomposition.

The greedy algorithm shortens the project one day at a time: each step
computes the critical graph, prices every still-crashable critical edge at
its next marginal cost (an exhausted edge gets capacity ``None``, no limit,
so no cut crosses it), and takes a minimum s-t cut as the cheapest one-day
plan.  Convex schedules work transparently because the next marginal cost is
always the head of the remaining schedule.  The days run over the
network's topological index, which ``validate`` already left on it, and on
plain lists by edge position (current lengths, schedule entries used)
through ``flow.min_cut_indexed``, so no day builds a network, edge or
flow-graph object.

``decompose`` rebuilds, from any k-day plan, the chain of residual plans and
restricted minimum cuts whose costs are provably monotone.  It runs on the
same position lists and flow core as the greedy's days, keeps the input
network once in the trace, and stores each level as lists by edge and node
position: lengths, remaining plan units, critical edges, cut edges and the
cut's reached nodes.  ``verify_trace`` derives the cut-overlap partitions
that witness the monotonicity from those levels and checks them, so a
changed level is checked as it stands.  Together they are the
machine-checkable counterpart of the greedy cost bound.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import flow
from .errors import ConvexNotSupportedError, NotCrashableError, NotKCrashingError
from .network import (
    EdgeId,
    Plan,
    ProjectNetwork,
    _critical_positions,
    _longest_dists,
    is_k_crashing,
)


def cost_ratio_bound(k: int) -> Fraction:
    """Guaranteed worst-case factor between the greedy and the optimal cost.

    The greedy k-day plan costs at most (1/1 + 1/2 + ... + 1/k) times the
    cheapest k-day plan, for linear and convex schedules alike.
    """
    return sum((Fraction(1, i) for i in range(1, k + 1)), Fraction(0))


@dataclass(frozen=True)
class CrashStep:
    """One greedy iteration: the chosen cut and the day's cost."""

    edges: frozenset[EdgeId]
    cost: Fraction


@dataclass(frozen=True)
class GreedyCrashResult:
    steps: tuple[CrashStep, ...]
    plan: Plan
    total_cost: Fraction
    durations: tuple[int, ...]


def greedy_crash(net: ProjectNetwork, k: int) -> GreedyCrashResult:
    """Run the one-day greedy k times, accumulating the plan as a multiset.

    With k = 1 the plan is a cheapest plan shortening the project by one day.
    The days run over the network's topological index, computed once per
    network, and on lists by edge position: each edge's current length and
    how many of its schedule entries are used.  One longest-path pass per day gives
    both the duration the previous day reached and the critical edges the
    next day cuts.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    tails, heads, order = net._index
    n = len(net.nodes)
    source, sink = net.nodes.index(net.source), net.nodes.index(net.sink)
    length = [e.normal_len for e in net.edges]
    schedule = [e.cost_schedule for e in net.edges]
    used = [0] * len(length)
    critical, _ = _critical_positions(order, tails, heads, length, n, sink)
    steps: list[CrashStep] = []
    durations: list[int] = []
    for i in range(1, k + 1):
        caps = [
            schedule[j][used[j]] if used[j] < len(schedule[j]) else None
            for j in critical
        ]
        crossing, _, cost = flow.min_cut_indexed(
            n, source, sink, [tails[j] for j in critical], [heads[j] for j in critical], caps
        )
        if cost is None:
            raise NotCrashableError(f"no {k}-day plan exists: day {i} cannot be saved")
        cut = [critical[p] for p in crossing]
        for j in cut:
            length[j] -= 1
            used[j] += 1
        critical, reached = _critical_positions(order, tails, heads, length, n, sink)
        steps.append(CrashStep(edges=frozenset(net.edges[j].id for j in cut), cost=cost))
        durations.append(reached)
    return GreedyCrashResult(
        steps=tuple(steps),
        plan=Plan(Counter(edge_id for step in steps for edge_id in step.edges)),
        total_cost=sum((step.cost for step in steps), Fraction(0)),
        durations=tuple(durations),
    )


# -- decomposition trace ------------------------------------------------------

@dataclass(frozen=True)
class TraceLevel:
    """One level of the decomposition, by edge and node position in the
    trace's network.

    ``lengths`` are the edge lengths the level starts from and ``remaining``
    the plan units each edge still carries.  ``critical`` lists, in edge
    order, the edges on a longest source-to-sink path through the previous
    level's critical edges (through all edges at level 1), so an edge that
    left the critical graph never returns, even when it ties again.
    ``cut`` is the minimum cut of the critical edges restricted to those
    with remaining units, ``cut_cost`` its cost, and ``reached`` flags the
    nodes on its source side.
    """

    lengths: tuple[int, ...]
    remaining: tuple[int, ...]
    critical: tuple[int, ...]
    cut: frozenset[int]
    cut_cost: Fraction
    reached: tuple[bool, ...]


@dataclass(frozen=True)
class DecompositionTrace:
    network: ProjectNetwork
    levels: tuple[TraceLevel, ...]


def decompose(net: ProjectNetwork, plan: Plan, k: int) -> DecompositionTrace:
    """Build the k-level cut decomposition of a k-day plan.

    Linear schedules only: the cost of a cut must not depend on the order in
    which plan units are consumed, so each edge keeps one price throughout.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    for e in net.edges:
        if not e.is_linear():
            raise ConvexNotSupportedError(f"edge {e.id!r} has a non-constant schedule")
    if not is_k_crashing(net, plan, k):
        raise NotKCrashingError(f"plan shortens the project by fewer than {k} days")

    tails, heads, order = net._index
    n = len(net.nodes)
    source, sink = net.nodes.index(net.source), net.nodes.index(net.sink)
    length = [e.normal_len for e in net.edges]
    remaining = [plan.amounts.get(e.id, 0) for e in net.edges]
    price = [e.cost_schedule[0] if e.cost_schedule else None for e in net.edges]
    live = range(len(length))  # the previous level's critical edges
    levels: list[TraceLevel] = []
    for i in range(1, k + 1):
        # ``order`` holds the live edges only, but the kept list spans all.
        kept, _ = _critical_positions(order, tails, heads, length, n, sink)
        critical = [j for j in kept if j in live]
        crossing, reached, cost = flow.min_cut_indexed(
            n, source, sink, [tails[j] for j in critical], [heads[j] for j in critical],
            [price[j] if remaining[j] else None for j in critical],
        )
        if cost is None:
            raise NotKCrashingError(
                f"level {i}: the remaining plan contains no cut of the critical graph"
            )
        cut = frozenset(critical[p] for p in crossing)
        levels.append(
            TraceLevel(tuple(length), tuple(remaining), tuple(critical), cut, cost, tuple(reached))
        )
        for j in cut:
            length[j] -= 1
            remaining[j] -= 1
        live = set(critical)
        order = [j for j in order if j in live]
    return DecompositionTrace(net, tuple(levels))


# -- trace verification -------------------------------------------------------

@dataclass(frozen=True)
class TraceCheck:
    name: str
    level: int
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class TraceReport:
    checks: tuple[TraceCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _disconnects(n, source, sink, tails, heads, edges, removed: frozenset[int]) -> bool:
    """True iff the listed edges, less the removed ones, leave no path from
    node ``source`` to node ``sink``."""
    out: list[list[int]] = [[] for _ in range(n)]
    for j in edges:
        if j not in removed:
            out[tails[j]].append(heads[j])
    seen = [False] * n
    seen[source] = True
    stack = [source]
    while stack:
        for v in out[stack.pop()]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return not seen[sink]


def _edge_classes(level: TraceLevel, tails, heads):
    """The level's critical edges within the source side, within the sink
    side, and crossing from the sink side back to the source side."""
    reached = level.reached
    within_src, within_snk, reverse = set(), set(), set()
    for j in level.critical:
        src_in, dst_in = reached[tails[j]], reached[heads[j]]
        if src_in and dst_in:
            within_src.add(j)
        elif not src_in and not dst_in:
            within_snk.add(j)
        elif dst_in:
            reverse.add(j)
    return within_src, within_snk, reverse


def verify_trace(trace: DecompositionTrace) -> TraceReport:
    """Check every structural claim the decomposition is supposed to satisfy.

    Failures are reported rather than raised: a genuine failure would mean
    the monotone-cut argument itself is broken, which is exactly what the
    report is for.  Edge lists in the details name edges by id.
    """
    net = trace.network
    ids = [e.id for e in net.edges]
    tails, heads, order = net._index
    n = len(net.nodes)
    source, sink = net.nodes.index(net.source), net.nodes.index(net.sink)
    base = _longest_dists(order, tails, heads, [e.normal_len for e in net.edges], n)[sink]

    def disconnects(edges, removed):
        return _disconnects(n, source, sink, tails, heads, edges, removed)

    def crosses(level: TraceLevel, j: int) -> bool:
        return level.reached[tails[j]] and not level.reached[heads[j]]

    checks: list[TraceCheck] = []
    for i, level in enumerate(trace.levels, start=1):
        # A level's longest paths run through its critical edges only.
        critical = set(level.critical)
        live = [j for j in order if j in critical]
        got = _longest_dists(live, tails, heads, level.lengths, n)[sink]
        want = base - (i - 1)
        not_in_plan = sorted(ids[j] for j in level.cut if not level.remaining[j])
        checks += [
            TraceCheck("duration-decrement", i, got == want, f"duration {got}, expected {want}"),
            TraceCheck(
                "cut-within-plan", i, not not_in_plan,
                f"cut edges outside the remaining plan: {not_in_plan}",
            ),
            TraceCheck(
                "cut-disconnects", i, disconnects(level.critical, level.cut),
                "removing the cut must disconnect the critical graph",
            ),
        ]

    classes = [_edge_classes(level, tails, heads) for level in trace.levels]
    for i, (cur, nxt) in enumerate(zip(trace.levels, trace.levels[1:]), start=1):
        cur_src, cur_snk, cur_rev = classes[i - 1]
        nxt_src, nxt_snk, nxt_rev = classes[i]
        next_critical = frozenset(nxt.critical)
        # The next cut split by the current level's edge classes, and the
        # current cut by the next level's: ahead, shared and behind parts,
        # and for the current cut also the part crossing backwards.
        shared = cur.cut & nxt.cut
        next_ahead = nxt.cut & cur_snk
        next_behind = nxt.cut & cur_src
        cur_ahead = cur.cut & nxt_snk
        cur_behind = cur.cut & nxt_src
        cur_reverse = cur.cut & nxt_rev
        checks += [
            TraceCheck(
                "reverse-cut-disjoint", i, not (nxt.cut & cur_rev),
                "next cut must avoid arcs crossing the current partition backwards",
            ),
            TraceCheck(
                "cut-stays-critical", i, cur.cut <= next_critical,
                f"cut edges dropped from the next critical graph: "
                f"{sorted(ids[j] for j in cur.cut - next_critical)}",
            ),
            TraceCheck(
                "cut-cost-monotone", i, cur.cut_cost <= nxt.cut_cost,
                f"cost {cur.cut_cost} then {nxt.cut_cost}",
            ),
            TraceCheck(
                "next-cut-partitioned", i,
                _is_partition((next_ahead, shared, next_behind), nxt.cut),
                "ahead/shared/behind must partition the next cut",
            ),
            TraceCheck(
                "cur-cut-partitioned", i,
                _is_partition((cur_ahead, shared, cur_behind, cur_reverse), cur.cut),
                "ahead/shared/behind/reverse must partition the current cut",
            ),
            TraceCheck(
                "shared-classes-equal", i,
                all(crosses(cur, j) and crosses(nxt, j) for j in shared),
                "both cuts must agree on their shared part",
            ),
            TraceCheck(
                "forward-mix-contains-cut", i,
                disconnects(cur.critical, next_ahead | shared | cur_ahead),
                "next-ahead + shared + cur-ahead must contain a cut of the current critical graph",
            ),
            TraceCheck(
                "backward-mix-contains-cut", i,
                disconnects(cur.critical, next_behind | shared | cur_behind),
                "next-behind + shared + cur-behind must contain a cut of the current critical graph",
            ),
        ]

    return TraceReport(tuple(checks))


def _is_partition(parts, whole: frozenset) -> bool:
    union: set = set()
    total = 0
    for p in parts:
        union |= p
        total += len(p)
    return union == set(whole) and total == len(whole)
