"""Activity-on-edge project networks and crash plans.

A project is a DAG with a single source and a single sink whose edges are
jobs.  Each job has a normal length, a technological minimum length, and a
per-day marginal cost schedule.  Shortening jobs ("crashing") reduces the
project duration, which is the length of the longest source-to-sink path.

All types are immutable after construction and all operations are pure, so
values can be shared freely between workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import NetworkValidationError, PlanOutOfBoundsError

NodeId = str
EdgeId = str

# Most crashable days (b - a) one JSON edge may declare; a scalar cost is
# expanded into one schedule entry per day, so this bounds memory.
MAX_CRASHABLE_DAYS = 1_000_000


def as_cost(value) -> Fraction:
    """Coerce a cost literal to an exact Fraction.

    Accepts ints, Fractions, and strings ("3", "0.1", "7/2").  Floats are
    converted through their decimal repr so that 0.1 means one tenth.  A
    literal that is not a number raises ValueError, and so does a string
    with an underscore, which ``Fraction`` reads as a digit separator only
    from Python 3.11 on; one with a zero denominator raises
    NetworkValidationError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str) and "_" in value:
        raise ValueError(f"cost {value!r} has an underscore")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise NetworkValidationError(f"cost {value!r} has a zero denominator") from None


def linear_schedule(cost, days: int) -> tuple[Fraction, ...]:
    """Constant marginal-cost schedule: every shortened day costs the same."""
    return (as_cost(cost),) * days


@dataclass(frozen=True)
class Edge:
    """One job: a directed edge with crashing bounds and a cost schedule.

    ``normal_len`` is the uncrashed length in days, ``min_len`` the
    technological lower bound.  ``cost_schedule[d]`` is the marginal cost of
    the (d+1)-th day of shortening; its length must equal
    ``normal_len - min_len``.
    """

    id: EdgeId
    src: NodeId
    dst: NodeId
    min_len: int
    normal_len: int
    cost_schedule: tuple[Fraction, ...]

    @property
    def crashable_days(self) -> int:
        return self.normal_len - self.min_len

    def is_linear(self) -> bool:
        # count() tests identity before equality, and a scalar "c" repeats
        # one object, so a constant schedule costs no Fraction compare.
        s = self.cost_schedule
        return not s or s.count(s[0]) == len(s)


@dataclass(frozen=True)
class ProjectNetwork:
    """An AOE project network.  Parallel edges between two nodes are allowed."""

    nodes: tuple[NodeId, ...]
    source: NodeId
    sink: NodeId
    edges: tuple[Edge, ...]


@dataclass(frozen=True)
class Plan:
    """Integer crash amounts per edge; edges absent from the map are uncrashed.

    ``amounts`` is a read-only mapping, so plans are immutable and hashable.
    """

    amounts: Mapping[EdgeId, int] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for edge_id, x in self.amounts.items():
            if type(x) is not int:
                raise PlanOutOfBoundsError(
                    f"crash amount {x!r} for edge {edge_id!r} is not an integer"
                )
            if x < 0:
                raise PlanOutOfBoundsError(f"negative crash amount {x} for edge {edge_id!r}")
            if x > 0:
                cleaned[edge_id] = x
        object.__setattr__(self, "amounts", MappingProxyType(cleaned))

    def __hash__(self):
        return hash(frozenset(self.amounts.items()))

    def __reduce__(self):
        # A mapping proxy cannot be pickled or copied; rebuild from a plain dict.
        return Plan, (dict(self.amounts),)

    def subtract_units(self, edge_ids: Iterable[EdgeId]) -> "Plan":
        """Multiset difference: remove one unit per listed edge."""
        reduced = dict(self.amounts)
        for edge_id in edge_ids:
            left = reduced.get(edge_id, 0) - 1
            if left < 0:
                raise PlanOutOfBoundsError(f"edge {edge_id!r} has no unit left to remove")
            if left == 0:
                reduced.pop(edge_id, None)
            else:
                reduced[edge_id] = left
        return Plan(reduced)


def full_plan(net: ProjectNetwork) -> Plan:
    """The maximal plan: every edge crashed to its minimum length."""
    return Plan({e.id: e.crashable_days for e in net.edges if e.crashable_days > 0})


# -- validation ---------------------------------------------------------------

def validate(net: ProjectNetwork) -> None:
    """Check every structural invariant; raise a NetworkValidationError otherwise."""
    node_set = set(net.nodes)
    if len(node_set) != len(net.nodes):
        raise NetworkValidationError("duplicate node ids")
    for endpoint in (net.source, net.sink):
        if endpoint not in node_set:
            raise NetworkValidationError(f"declared endpoint {endpoint!r} is not a node")
    seen_ids = set()
    for e in net.edges:
        if e.id in seen_ids:
            raise NetworkValidationError(f"edge id {e.id!r} appears twice")
        seen_ids.add(e.id)
        if e.src not in node_set or e.dst not in node_set:
            raise NetworkValidationError(f"edge {e.id!r} references an unknown node")
        if e.min_len < 0 or e.min_len > e.normal_len:
            raise NetworkValidationError(
                f"edge {e.id!r}: need 0 <= min_len <= normal_len, got ({e.min_len}, {e.normal_len})"
            )
        if len(e.cost_schedule) != e.crashable_days:
            raise NetworkValidationError(
                f"edge {e.id!r}: schedule has {len(e.cost_schedule)} entries, "
                f"expected {e.crashable_days}"
            )
        # A non-decreasing schedule is non-negative once its first day is,
        # and a constant one needs no day-by-day compare.
        schedule = e.cost_schedule
        if schedule and schedule[0] < 0:
            raise NetworkValidationError(f"edge {e.id!r}: negative cost at day 0")
        if not e.is_linear():
            for d in range(1, len(schedule)):
                if schedule[d] < schedule[d - 1]:
                    raise NetworkValidationError(
                        f"edge {e.id!r}: schedule must be non-decreasing (convex), "
                        f"day {d} is cheaper than day {d - 1}"
                    )

    outgoing = _longest_dists(net)[2]  # raises on a cycle

    # In a DAG whose only node without in-edges is the source and only node
    # without out-edges is the sink, walking back from any node ends at the
    # source and walking forward ends at the sink: every node lies on an
    # s-t path, so no reachability pass is needed.
    has_in = {e.dst for e in net.edges}
    sources = [v for v in net.nodes if v not in has_in]
    sinks = [v for v in net.nodes if not outgoing[v]]
    if len(sources) != 1 or sources[0] != net.source:
        raise NetworkValidationError(
            f"nodes without incoming edges: {sorted(sources)}, declared source: {net.source!r}"
        )
    if len(sinks) != 1 or sinks[0] != net.sink:
        raise NetworkValidationError(
            f"nodes without outgoing edges: {sorted(sinks)}, declared sink: {net.sink!r}"
        )


# -- duration and criticality -------------------------------------------------

def _longest_dists(
    net: ProjectNetwork,
) -> tuple[dict[NodeId, int], list[NodeId], dict[NodeId, list[Edge]]]:
    """Longest-path distances from the source, a topological order, and
    each node's out-edges.

    Kahn's algorithm frees a node once all its in-edges are relaxed.  The
    nodes never freed, a cycle and all downstream of it, raise
    NetworkValidationError.
    """
    indeg = {v: 0 for v in net.nodes}
    outgoing: dict[NodeId, list[Edge]] = {v: [] for v in net.nodes}
    for e in net.edges:
        indeg[e.dst] += 1
        outgoing[e.src].append(e)
    from_src = {v: 0 for v in net.nodes}
    free = [v for v in net.nodes if indeg[v] == 0]
    order: list[NodeId] = []
    while free:
        u = free.pop()
        order.append(u)
        dist = from_src[u]
        for e in outgoing[u]:
            v = e.dst
            cand = dist + e.normal_len
            if cand > from_src[v]:
                from_src[v] = cand
            indeg[v] -= 1
            if indeg[v] == 0:
                free.append(v)
    if len(order) != len(net.nodes):
        stuck = sorted(v for v, d in indeg.items() if d > 0)
        raise NetworkValidationError(f"cycle through nodes {stuck}")
    return from_src, order, outgoing


def duration(net: ProjectNetwork) -> int:
    """Project duration: length of the longest source-to-sink path, in days."""
    return _longest_dists(net)[0][net.sink]


def _critical_pass(net: ProjectNetwork) -> tuple[ProjectNetwork, int]:
    """The critical graph and the duration, from one longest-path pass.

    Distances to the sink are relaxed over the pass's topological order,
    backwards; only the critical graph needs them.
    """
    from_src, order, outgoing = _longest_dists(net)
    to_sink = {v: 0 for v in net.nodes}
    for u in reversed(order):
        for e in outgoing[u]:
            cand = to_sink[e.dst] + e.normal_len
            if cand > to_sink[u]:
                to_sink[u] = cand
    total = from_src[net.sink]
    kept = tuple(
        e for e in net.edges
        if from_src[e.src] + e.normal_len + to_sink[e.dst] == total
    )
    # A node lies on a longest path exactly when its two distances add up to
    # the duration, and then it is the source, the sink or an end of a kept edge.
    nodes = tuple(v for v in net.nodes if from_src[v] + to_sink[v] == total)
    return ProjectNetwork(nodes, net.source, net.sink, kept), total


def critical_graph(net: ProjectNetwork) -> ProjectNetwork:
    """The subnetwork of edges lying on some longest source-to-sink path."""
    return _critical_pass(net)[0]


# -- plan application ---------------------------------------------------------

def apply_plan(net: ProjectNetwork, plan: Plan) -> ProjectNetwork:
    """The network with each edge shortened by its plan amount.

    Consumed schedule entries are dropped, so the next marginal cost of a
    partially crashed edge is always ``cost_schedule[0]``.
    """
    amounts = plan.amounts
    applied = set()
    new_edges = []
    for e in net.edges:
        if e.id in amounts:
            x = amounts[e.id]
            if x > e.crashable_days:
                raise PlanOutOfBoundsError(
                    f"edge {e.id!r}: amount {x} exceeds crashable days {e.crashable_days}"
                )
            applied.add(e.id)
            e = Edge(e.id, e.src, e.dst, e.min_len, e.normal_len - x, e.cost_schedule[x:])
        new_edges.append(e)
    if len(applied) < len(amounts):
        unknown = next(edge_id for edge_id in amounts if edge_id not in applied)
        raise PlanOutOfBoundsError(f"plan names unknown edge {unknown!r}")
    return ProjectNetwork(net.nodes, net.source, net.sink, tuple(new_edges))


def k_max(net: ProjectNetwork) -> int:
    """Largest achievable duration reduction."""
    return duration(net) - duration(apply_plan(net, full_plan(net)))


def is_k_crashing(net: ProjectNetwork, plan: Plan, k: int) -> bool:
    """True iff applying the plan shortens the project by at least k days."""
    return duration(apply_plan(net, plan)) <= duration(net) - k


# -- JSON interchange ---------------------------------------------------------

def _cost_to_json(c: Fraction):
    return int(c) if c.denominator == 1 else str(c)


def network_to_json(net: ProjectNetwork) -> dict:
    edges = []
    for e in net.edges:
        if e.crashable_days == 0:
            c = 0
        elif e.is_linear():
            c = _cost_to_json(e.cost_schedule[0])
        else:
            c = [_cost_to_json(x) for x in e.cost_schedule]
        edges.append(
            {"id": e.id, "from": e.src, "to": e.dst, "a": e.min_len, "b": e.normal_len, "c": c}
        )
    return {
        "nodes": list(net.nodes),
        "source": net.source,
        "sink": net.sink,
        "edges": edges,
    }


def _json_value(value, types, rule: str):
    """``value`` if it has one of ``types``, which JSON booleans never match."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise NetworkValidationError(f"{rule}, got {value!r:.80}")
    return value


def _json_parsed(parse, value, types, rule: str):
    """``parse(value)`` for a ``value`` that ``_json_value`` accepts; a literal
    that ``parse`` cannot read breaks ``rule`` too."""
    try:
        return parse(_json_value(value, types, rule))
    except ValueError:
        raise NetworkValidationError(f"{rule}, got {value!r:.80}") from None


_NAME_RULE = "node and edge names must be strings or integers"
_COST_RULE = '"c" must be a cost or a list of costs'
_COST_TYPES = (int, float, str, Fraction)
_PROJECT_KEYS = itemgetter("edges", "nodes", "source", "sink")
_EDGE_KEYS = itemgetter("id", "from", "to", "a", "b", "c")


def network_from_json(data: dict) -> ProjectNetwork:
    """Build a network from the project JSON format (not yet validated).

    A scalar "c" is a constant per-day cost; a list gives the convex schedule
    explicitly and must have b - a entries.  Costs given as strings are
    parsed exactly, and each distinct cost literal is parsed once per call.
    Missing keys, values of the wrong JSON type (names must be strings or
    integers), day counts and costs that do not parse, and edges with more
    than MAX_CRASHABLE_DAYS crashable days raise NetworkValidationError.
    """
    _json_value(data, dict, "a project must be a JSON object")
    try:
        records, nodes, source, sink = _PROJECT_KEYS(data)
    except KeyError as missing:
        raise NetworkValidationError(f'the project has no "{missing.args[0]}"') from None

    # Keyed by type too: 2**70 and float(2**70) are equal but parse apart.
    # A bool's type is not a cost type, so True never meets a cached 1.
    costs: dict = {}

    def cost(x) -> Fraction:
        if type(x) not in _COST_TYPES:
            return _json_parsed(as_cost, x, _COST_TYPES, _COST_RULE)
        key = (type(x), x)
        parsed = costs.get(key)
        if parsed is None:
            parsed = costs[key] = _json_parsed(as_cost, x, _COST_TYPES, _COST_RULE)
        return parsed

    def name(v) -> str:
        return v if type(v) is str else str(_json_value(v, (int, str), _NAME_RULE))

    def days(v, rule: str) -> int:
        return v if type(v) is int else _json_parsed(int, v, (int, str), rule)

    edges = []
    for pos, rec in enumerate(_json_value(records, list, '"edges" must be a list')):
        _json_value(rec, dict, "each edge must be a JSON object")
        try:
            edge_id, src, dst, a, b, c = _EDGE_KEYS(rec)
        except KeyError as missing:
            raise NetworkValidationError(f'edge {pos} has no "{missing.args[0]}"') from None
        edge_id, src, dst = name(edge_id), name(src), name(dst)
        a = days(a, '"a" must be a whole number of days')
        b = days(b, '"b" must be a whole number of days')
        if b - a > MAX_CRASHABLE_DAYS:
            raise NetworkValidationError(
                f"edge {edge_id!r}: b - a = {b - a} exceeds {MAX_CRASHABLE_DAYS} crashable days"
            )
        if isinstance(c, list):
            schedule = tuple([cost(x) for x in c])
        else:
            schedule = (cost(c),) * max(b - a, 0)
        edges.append(Edge(edge_id, src, dst, a, b, schedule))
    _json_value(nodes, list, '"nodes" must be a list')
    *nodes, source, sink = [name(v) for v in (*nodes, source, sink)]
    return ProjectNetwork(tuple(nodes), source, sink, tuple(edges))


def plan_to_json(plan: Plan) -> dict:
    return {"amounts": {edge_id: x for edge_id, x in sorted(plan.amounts.items())}}
