"""Greedy project crashing and its minimum-cut decomposition.

The greedy algorithm shortens the project one day at a time: each step
computes the critical graph, prices every still-crashable critical edge at
its next marginal cost (an exhausted edge gets capacity ``None``, no limit,
so no cut crosses it), and takes a minimum s-t cut as the cheapest one-day
plan.  Convex schedules work transparently because the next marginal cost is
always the head of the remaining schedule.  The days run over the network's
topological index, on plain lists by edge position (current lengths,
schedule entries used) and on one ``flow.Residual`` per run.

Each day lowers the duration by exactly one, in a network where every node
lies on a source-to-sink path (as loading requires).  Let D be the
duration before the day, S the cut's source side (the nodes residual-
reachable from the source after a maximum flow) and T the rest.  Critical
source-to-sink paths are D days long and all others at most D - 1.  The
day shortens the cut edges, critical edges from S to T, so a critical path
loses one day per crossing from S to T and no path grows: the duration
becomes D - 1 once some critical path crosses only once, never going from T
back to S.  If the flow is positive, take a source-to-sink path of positive
flow (the critical graph is acyclic): an edge from T to S carries no flow,
or its reverse residual arc would reach its tail from S.  If the flow is
zero, S is what edges of positive capacity reach, so every cut edge's tail
is reached within S; take the cut edge (u, v) with the head last in
topological order, and a critical path from v to the sink cannot enter S,
since it would leave again by a cut edge with a later head.
``greedy_crash`` checks each new duration on days 1..k-1, raising
``RuntimeError`` if it is not one less, and takes D - k for the last day.

So a slack (D less the longest source-to-sink path through the edge) falls
by at most one per day.  The critical edges of day i, and the longest paths
checked after day i < k, have slack 0 after at most k - 1 days, so
``greedy_crash`` keeps only the edges that start with slack less than k.
The longest paths lie within them and no path of kept edges is longer,
being part of a source-to-sink path, so every duration and critical graph
comes out the same.

The maximum flow carries over from day to day.  A positive-flow path
crosses the cut once, as above, so it stays a longest path: the edges that
leave the critical graph carry no flow and close at capacity 0.  Newly
critical edges open empty, and a cut edge rises to its next schedule entry
(no smaller, for the non-decreasing schedules loading requires, so both
runs take only networks that pass ``network_from_json``'s checks) or to no
limit, so its flow still fits and a later day usually costs one BFS.  The
critical list, the day's slack-0 edges, records which edges are open.

``decompose`` rebuilds, from any k-day plan, the chain of residual plans and
restricted minimum cuts whose costs are provably monotone.  Each level's
critical edges are a subset of the previous level's, so only the edges of
slack 0 in the input can be cut, and its slack passes and one residual per
run hold those alone, by position among them: as on greedy days, an edge is
priced at its next planned unit, so capacities only rise, and edges only
leave the critical list.  It keeps the input network once in the trace and
stores each level as lists by edge and node position: lengths, remaining
plan units, critical edges, cut edges and the cut's reached nodes.
``verify_trace`` derives the cut-overlap partitions that witness the
monotonicity from those levels and checks them, so a changed level is
checked as it stands.
Together they are the machine-checkable counterpart of the greedy cost
bound.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import flow
from .errors import NotCrashableError, NotKCrashingError
from .network import (
    EdgeId,
    Plan,
    ProjectNetwork,
    _longest_dists,
    _slacks,
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


def _restriction(net: ProjectNetwork, below: int):
    """The network's slacks and duration, and its edges of slack less than
    ``below``: their positions, and their tails, heads and ``_kahn`` order by
    position among them."""
    tails, heads, order, _, sink = net._index
    slack, total = _slacks(
        order, tails, heads, [e.normal_len for e in net.edges], len(net.nodes), sink
    )
    near = [j for j, x in enumerate(slack) if x < below]
    if len(near) == len(slack):
        return slack, total, near, tails, heads, order
    position = [0] * len(slack)
    for p, j in enumerate(near):
        position[j] = p
    return (
        slack,
        total,
        near,
        [tails[j] for j in near],
        [heads[j] for j in near],
        [position[j] for j in order if slack[j] < below],
    )


def greedy_crash(net: ProjectNetwork, k: int) -> GreedyCrashResult:
    """Run the one-day greedy k times, accumulating the plan as a multiset.

    With k = 1 the plan is a cheapest plan shortening the project by one day.
    ``net`` must pass ``network_from_json``'s checks.  The days run on lists
    by position among the edges of slack less than k: each edge's current
    length and how many of its schedule entries are used.  One longest-path
    pass per day checks the duration the day reached and gives the critical
    edges the next day cuts.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    _, _, _, source, sink = net._index
    n = len(net.nodes)
    # Only edges of slack less than k are ever critical (see the module docstring).
    slack, total, near, tails, heads, order = _restriction(net, k)
    edges = [net.edges[j] for j in near]
    length = [e.normal_len for e in edges]
    schedule = [e.cost_schedule for e in edges]
    used = [0] * len(edges)

    def capacities(positions):
        return [schedule[p][used[p]] if used[p] < len(schedule[p]) else None for p in positions]

    residual = flow.Residual(n, source, sink, tails, heads)
    critical = [p for p, j in enumerate(near) if not slack[j]]
    residual.set_caps(critical, capacities(critical))
    steps: list[CrashStep] = []
    durations: list[int] = []
    for i in range(1, k + 1):
        cut, _, cost = residual.cut(critical)
        if cost is None:
            raise NotCrashableError(f"no {k}-day plan exists: day {i} cannot be saved")
        for p in cut:
            length[p] -= 1
            used[p] += 1
        steps.append(CrashStep(edges=frozenset(edges[p].id for p in cut), cost=cost))
        total -= 1
        durations.append(total)
        if i == k:
            break
        slack, reached = _slacks(order, tails, heads, length, n, sink)
        if reached != total:
            raise RuntimeError(f"day {i} left a duration of {reached}, expected {total}")
        residual.set_caps(cut, capacities(cut))
        following = [p for p, x in enumerate(slack) if not x]
        if following != critical:
            departed = [p for p in critical if slack[p]]
            residual.set_caps(departed, [0] * len(departed))
            kept = set(critical)
            opened = [p for p in following if p not in kept]
            residual.set_caps(opened, capacities(opened))
            critical = following
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

    An edge is priced at its next planned schedule entry (no limit once the
    plan's units run out): its cheapest unspent unit, which a minimum cut of
    the edge as a chain of one-day edges would take.  ``net`` must pass
    ``network_from_json``'s checks.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not is_k_crashing(net, plan, k):
        raise NotKCrashingError(f"plan shortens the project by fewer than {k} days")

    _, _, _, source, sink = net._index
    n = len(net.nodes)
    edges = net.edges
    # Only the input's critical edges are ever cut (see the module docstring).
    _, _, near, tails, heads, order = _restriction(net, 1)
    length = [e.normal_len for e in edges]
    remaining = [plan.amounts.get(e.id, 0) for e in edges]
    short = [length[j] for j in near]

    def prices(positions):
        return [
            edges[j].cost_schedule[edges[j].normal_len - length[j]] if remaining[j] else None
            for j in map(near.__getitem__, positions)
        ]

    residual = flow.Residual(n, source, sink, tails, heads)
    critical = list(range(len(near)))  # the previous level's critical edges
    residual.set_caps(critical, prices(critical))
    levels: list[TraceLevel] = []
    for i in range(1, k + 1):
        # ``order`` holds the previous critical edges only, so only their
        # slacks are those of the previous critical graph.
        slack, _ = _slacks(order, tails, heads, short, n, sink)
        departed = [p for p in critical if slack[p]]
        residual.set_caps(departed, [0] * len(departed))
        critical = [p for p in critical if not slack[p]]
        order = [p for p in order if not slack[p]]
        crossing, reached, cost = residual.cut(critical)
        if cost is None:
            raise NotKCrashingError(
                f"level {i}: the remaining plan contains no cut of the critical graph"
            )
        cut = [near[p] for p in crossing]
        levels.append(TraceLevel(
            tuple(length), tuple(remaining), tuple([near[p] for p in critical]),
            frozenset(cut), cost, tuple(reached),
        ))
        if i == k:
            break
        for p, j in zip(crossing, cut):
            short[p] -= 1
            length[j] -= 1
            remaining[j] -= 1
        residual.set_caps(crossing, prices(crossing))
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
    tails, heads, order, source, sink = net._index
    n = len(net.nodes)
    base = _longest_dists(order, tails, heads, [e.normal_len for e in net.edges], n)[sink]

    def disconnects(live, removed):
        # ``_kahn`` lists a node's out-edges only after all its in-edges, so
        # one sweep in that order settles every tail before its out-edges.
        seen = [False] * n
        seen[source] = True
        for j in live:
            if seen[tails[j]] and j not in removed:
                seen[heads[j]] = True
        return not seen[sink]

    def crosses(level: TraceLevel, j: int) -> bool:
        return level.reached[tails[j]] and not level.reached[heads[j]]

    checks: list[TraceCheck] = []
    lives = []  # each level's critical edges, in topological order
    for i, level in enumerate(trace.levels, start=1):
        # A level's longest paths run through its critical edges only.
        critical = set(level.critical)
        live = [j for j in order if j in critical]
        lives.append(live)
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
                "cut-disconnects", i, disconnects(live, level.cut),
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
                disconnects(lives[i - 1], next_ahead | shared | cur_ahead),
                "next-ahead + shared + cur-ahead must contain a cut of the current critical graph",
            ),
            TraceCheck(
                "backward-mix-contains-cut", i,
                disconnects(lives[i - 1], next_behind | shared | cur_behind),
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
