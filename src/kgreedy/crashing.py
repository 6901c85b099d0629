"""Greedy project crashing and its minimum-cut decomposition.

The greedy algorithm shortens the project one day at a time: each step
computes the critical graph, prices every still-crashable critical edge at
its next marginal cost (exhausted edges get unbounded capacity), and takes a
minimum s-t cut as the cheapest one-day plan.  Convex schedules work
transparently because the next marginal cost is always the head of the
remaining schedule.  The network is indexed once per call, over one
topological order, and the days run on plain lists by edge position (current
lengths, schedule entries used) through ``flow.min_cut_indexed``, so no day
builds a network, edge or flow-graph object.

``decompose`` rebuilds, from any k-day plan, the chain of residual plans and
restricted minimum cuts whose costs are provably monotone, and stores each
level once.  ``verify_trace`` derives the cut-overlap partitions that witness
the monotonicity from those levels and checks them, so a changed level is
checked as it stands.  Together they are the machine-checkable counterpart
of the greedy cost bound.
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
    _topological_order,
    apply_plan,
    critical_graph,
    duration,
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


def _cut_graph(critical: ProjectNetwork, remaining: Plan) -> flow.FlowGraph:
    """The critical graph as a flow graph for a minimum cut.

    Edges in the remaining plan are priced at their next marginal cost.  All
    others get unbounded capacity, so a finite minimum cut lies in the plan.
    """
    amounts = remaining.amounts
    arcs = tuple(
        flow.Arc(e.id, e.src, e.dst, e.cost_schedule[0] if e.id in amounts else flow.UNBOUNDED)
        for e in critical.edges
    )
    return flow.FlowGraph(critical.nodes, critical.source, critical.sink, arcs)


def greedy_crash(net: ProjectNetwork, k: int) -> GreedyCrashResult:
    """Run the one-day greedy k times, accumulating the plan as a multiset.

    With k = 1 the plan is a cheapest plan shortening the project by one day.
    The network is indexed once, over one topological order, and the days
    run on lists by edge position: each edge's current length and how many
    of its schedule entries are used.  One longest-path pass per day gives
    both the duration the previous day reached and the critical edges the
    next day cuts.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    tails, heads, order = _topological_order(net)
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
            schedule[j][used[j]] if used[j] < len(schedule[j]) else flow.UNBOUNDED
            for j in critical
        ]
        crossing, _, cost = flow.min_cut_indexed(
            n, source, sink, [tails[j] for j in critical], [heads[j] for j in critical], caps
        )
        if cost is flow.UNBOUNDED:
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
    """One level of the decomposition.

    ``network`` is the level's project, ``critical`` its critical graph, and
    ``cut`` the minimum cut of ``critical`` restricted to the edges still
    carried by ``remaining_plan``.  ``source_side`` is the cut's partition
    side that holds the source.
    """

    network: ProjectNetwork
    critical: ProjectNetwork
    remaining_plan: Plan
    cut: frozenset[EdgeId]
    cut_cost: Fraction
    source_side: frozenset[str]


@dataclass(frozen=True)
class DecompositionTrace:
    levels: tuple[TraceLevel, ...]


def decompose(net: ProjectNetwork, plan: Plan, k: int) -> DecompositionTrace:
    """Build the k-level cut decomposition of a k-day plan.

    Linear schedules only: the cost of a cut must not depend on the order in
    which plan units are consumed.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    for e in net.edges:
        if not e.is_linear():
            raise ConvexNotSupportedError(f"edge {e.id!r} has a non-constant schedule")
    if not is_k_crashing(net, plan, k):
        raise NotKCrashingError(f"plan shortens the project by fewer than {k} days")

    levels: list[TraceLevel] = []
    current = net
    remaining = plan
    for i in range(1, k + 1):
        critical = critical_graph(current)
        cut = flow.min_cut(_cut_graph(critical, remaining))
        if cut.cost is flow.UNBOUNDED:
            raise NotKCrashingError(
                f"level {i}: the remaining plan contains no cut of the critical graph"
            )
        levels.append(
            TraceLevel(
                network=current,
                critical=critical,
                remaining_plan=remaining,
                cut=cut.cut_arcs,
                cut_cost=cut.cost,
                source_side=cut.source_side,
            )
        )
        current = apply_plan(critical, Plan({edge_id: 1 for edge_id in cut.cut_arcs}))
        remaining = remaining.subtract_units(cut.cut_arcs)
    return DecompositionTrace(tuple(levels))


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


def _disconnects(g: ProjectNetwork, removed: frozenset[EdgeId]) -> bool:
    out: dict[str, list[str]] = {v: [] for v in g.nodes}
    for e in g.edges:
        if e.id not in removed:
            out[e.src].append(e.dst)
    seen = {g.source}
    stack = [g.source]
    while stack:
        for v in out[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return g.sink not in seen


def _edge_classes(level: TraceLevel):
    """The level's critical edges within the source side, within the sink
    side, and crossing from the sink side back to the source side."""
    within_src, within_snk, reverse = set(), set(), set()
    for e in level.critical.edges:
        src_in = e.src in level.source_side
        dst_in = e.dst in level.source_side
        if src_in and dst_in:
            within_src.add(e.id)
        elif not src_in and not dst_in:
            within_snk.add(e.id)
        elif not src_in and dst_in:
            reverse.add(e.id)
    return within_src, within_snk, reverse


def verify_trace(trace: DecompositionTrace) -> TraceReport:
    """Check every structural claim the decomposition is supposed to satisfy.

    Failures are reported rather than raised: a genuine failure would mean
    the monotone-cut argument itself is broken, which is exactly what the
    report is for.
    """
    checks: list[TraceCheck] = []
    base = duration(trace.levels[0].network)

    for i, level in enumerate(trace.levels, start=1):
        got = duration(level.network)
        want = base - (i - 1)
        not_in_plan = level.cut - level.remaining_plan.amounts.keys()
        checks += [
            TraceCheck("duration-decrement", i, got == want, f"duration {got}, expected {want}"),
            TraceCheck(
                "cut-within-plan", i, not not_in_plan,
                f"cut edges outside the remaining plan: {sorted(not_in_plan)}",
            ),
            TraceCheck(
                "cut-disconnects", i, _disconnects(level.critical, level.cut),
                "removing the cut must disconnect the critical graph",
            ),
        ]

    classes = [_edge_classes(level) for level in trace.levels]
    for i, (cur, nxt) in enumerate(zip(trace.levels, trace.levels[1:]), start=1):
        cur_src, cur_snk, cur_rev = classes[i - 1]
        nxt_src, nxt_snk, nxt_rev = classes[i]
        next_critical_ids = frozenset(e.id for e in nxt.critical.edges)
        # The next cut split by the current level's edge classes, and the
        # current cut by the next level's: ahead, shared and behind parts,
        # and for the current cut also the part crossing backwards.
        next_ahead = nxt.cut & cur_snk
        next_shared = nxt.cut & cur.cut
        next_behind = nxt.cut & cur_src
        cur_ahead = cur.cut & nxt_snk
        cur_shared = cur.cut & nxt.cut
        cur_behind = cur.cut & nxt_src
        cur_reverse = cur.cut & nxt_rev
        checks += [
            TraceCheck(
                "reverse-cut-disjoint", i, not (nxt.cut & cur_rev),
                "next cut must avoid arcs crossing the current partition backwards",
            ),
            TraceCheck(
                "cut-stays-critical", i, cur.cut <= next_critical_ids,
                f"cut edges dropped from the next critical graph: "
                f"{sorted(cur.cut - next_critical_ids)}",
            ),
            TraceCheck(
                "cut-cost-monotone", i, cur.cut_cost <= nxt.cut_cost,
                f"cost {cur.cut_cost} then {nxt.cut_cost}",
            ),
            TraceCheck(
                "next-cut-partitioned", i,
                _is_partition((next_ahead, next_shared, next_behind), nxt.cut),
                "ahead/shared/behind must partition the next cut",
            ),
            TraceCheck(
                "cur-cut-partitioned", i,
                _is_partition((cur_ahead, cur_shared, cur_behind, cur_reverse), cur.cut),
                "ahead/shared/behind/reverse must partition the current cut",
            ),
            TraceCheck(
                "shared-classes-equal", i, next_shared == cur_shared,
                "both cuts must agree on their shared part",
            ),
            TraceCheck(
                "forward-mix-contains-cut", i,
                _disconnects(cur.critical, next_ahead | cur_shared | cur_ahead),
                "next-ahead + shared + cur-ahead must contain a cut of the current critical graph",
            ),
            TraceCheck(
                "backward-mix-contains-cut", i,
                _disconnects(cur.critical, next_behind | cur_shared | cur_behind),
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
