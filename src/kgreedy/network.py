"""Activity-on-edge project networks and crash plans.

A project is a DAG with a single source and a single sink whose edges are
jobs.  Each job has a normal length, a technological minimum length, and a
per-day marginal cost schedule.  Shortening jobs ("crashing") reduces the
project duration, which is the length of the longest source-to-sink path.

All types are immutable after construction and all operations are pure, so
values can be shared freely between workers.  A network computes its
topological index on first use and keeps it; the index is not a field, so it
takes no part in equality, hashing or ``repr``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping, NamedTuple

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


class Edge(NamedTuple):
    """One job: a directed edge with crashing bounds and a cost schedule.

    ``normal_len`` is the uncrashed length in days, ``min_len`` the
    technological lower bound.  ``cost_schedule[d]`` is the marginal cost of
    the (d+1)-th day of shortening; its length must equal
    ``normal_len - min_len``.  A named tuple: it equals the plain tuple of
    its fields, hot loops unpack it, and ``_replace`` updates it.
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

    @cached_property
    def _index(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """``_topological_order(self)``, computed once per network."""
        return _topological_order(self)


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
    for edge_id, src, dst, a, b, schedule in net.edges:
        if edge_id in seen_ids:
            raise NetworkValidationError(f"edge id {edge_id!r} appears twice")
        seen_ids.add(edge_id)
        if src not in node_set or dst not in node_set:
            raise NetworkValidationError(f"edge {edge_id!r} references an unknown node")
        if a < 0 or a > b:
            raise NetworkValidationError(
                f"edge {edge_id!r}: need 0 <= min_len <= normal_len, got ({a}, {b})"
            )
        if len(schedule) != b - a:
            raise NetworkValidationError(
                f"edge {edge_id!r}: schedule has {len(schedule)} entries, expected {b - a}"
            )
        if not schedule:
            continue
        # A non-decreasing schedule is non-negative once its first day is,
        # and a constant one needs no day-by-day compare (see Edge.is_linear).
        if schedule[0].numerator < 0:
            raise NetworkValidationError(f"edge {edge_id!r}: negative cost at day 0")
        if schedule.count(schedule[0]) != len(schedule):
            for d in range(1, len(schedule)):
                if schedule[d] < schedule[d - 1]:
                    raise NetworkValidationError(
                        f"edge {edge_id!r}: schedule must be non-decreasing (convex), "
                        f"day {d} is cheaper than day {d - 1}"
                    )

    tails, heads, _ = net._index  # raises on a cycle

    # In a DAG whose only node without in-edges is the source and only node
    # without out-edges is the sink, walking back from any node ends at the
    # source and walking forward ends at the sink: every node lies on an
    # s-t path, so no reachability pass is needed.
    has_in, has_out = set(heads), set(tails)
    sources = [v for i, v in enumerate(net.nodes) if i not in has_in]
    sinks = [v for i, v in enumerate(net.nodes) if i not in has_out]
    if len(sources) != 1 or sources[0] != net.source:
        raise NetworkValidationError(
            f"nodes without incoming edges: {sorted(sources)}, declared source: {net.source!r}"
        )
    if len(sinks) != 1 or sinks[0] != net.sink:
        raise NetworkValidationError(
            f"nodes without outgoing edges: {sorted(sinks)}, declared sink: {net.sink!r}"
        )


# -- duration and criticality -------------------------------------------------
#
# The private routines work on positions: node i is ``net.nodes[i]`` and
# edge i is ``net.edges[i]``, running from node ``tails[i]`` to ``heads[i]``.
# A network keeps its ``_topological_order`` as ``net._index``, so every
# consumer after the first reads it for free.

def _topological_order(net: ProjectNetwork) -> tuple[tuple[int, ...], ...]:
    """Each edge's tail and head, and the edge positions listed in a
    topological order of their tails.

    Kahn's algorithm frees a node once all its in-edges are counted and then
    lists its out-edges.  The nodes never freed, a cycle and all downstream
    of it, raise NetworkValidationError.
    """
    index = {v: i for i, v in enumerate(net.nodes)}
    indeg = [0] * len(net.nodes)
    outgoing: list[list[int]] = [[] for _ in net.nodes]
    tails, heads = [], []
    for i, (_, src, dst, _, _, _) in enumerate(net.edges):
        u, v = index[src], index[dst]
        tails.append(u)
        heads.append(v)
        indeg[v] += 1
        outgoing[u].append(i)
    free = [u for u, d in enumerate(indeg) if d == 0]
    order: list[int] = []
    freed = 0
    while free:
        out = outgoing[free.pop()]
        freed += 1
        order += out
        for i in out:
            v = heads[i]
            indeg[v] -= 1
            if indeg[v] == 0:
                free.append(v)
    if freed != len(net.nodes):
        stuck = sorted(v for v, d in zip(net.nodes, indeg) if d > 0)
        raise NetworkValidationError(f"cycle through nodes {stuck}")
    return tuple(tails), tuple(heads), tuple(order)


def _longest_dists(order, tails, heads, lengths, n: int) -> list[int]:
    """Longest distances to each of the n nodes, relaxing edge i from
    ``tails[i]`` to ``heads[i]`` at ``lengths[i]``, in ``order``.

    With the edges in topological order of their tails these are the
    distances from the source; with the order reversed and tails and heads
    swapped, the distances to the sink.
    """
    dist = [0] * n
    for i in order:
        d = dist[tails[i]] + lengths[i]
        if d > dist[heads[i]]:
            dist[heads[i]] = d
    return dist


def _critical_positions(
    order, tails, heads, lengths: list[int], n: int, sink: int
) -> tuple[list[int], int]:
    """The positions of the edges on some longest source-to-sink path, in
    edge order, and the duration; ``order`` is ``_topological_order``'s."""
    from_src = _longest_dists(order, tails, heads, lengths, n)
    to_sink = _longest_dists(reversed(order), heads, tails, lengths, n)
    total = from_src[sink]
    kept = [
        i for i, (u, v, x) in enumerate(zip(tails, heads, lengths))
        if from_src[u] + x + to_sink[v] == total
    ]
    return kept, total


def _duration(net: ProjectNetwork, lengths) -> int:
    """The longest source-to-sink path with edge i ``lengths[i]`` days long."""
    tails, heads, order = net._index
    return _longest_dists(order, tails, heads, lengths, len(net.nodes))[net.nodes.index(net.sink)]


def duration(net: ProjectNetwork) -> int:
    """Project duration: length of the longest source-to-sink path, in days."""
    return _duration(net, [e.normal_len for e in net.edges])


# -- plan application ---------------------------------------------------------

def apply_plan(net: ProjectNetwork, plan: Plan) -> ProjectNetwork:
    """The network with each edge shortened by its plan amount.

    Consumed schedule entries are dropped, so the next marginal cost of a
    partially crashed edge is always ``cost_schedule[0]``.  Crashing changes
    lengths only, so the result shares the input's topological index once
    the input has one.
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
    crashed = ProjectNetwork(net.nodes, net.source, net.sink, tuple(new_edges))
    if "_index" in vars(net):
        vars(crashed)["_index"] = net._index
    return crashed


def k_max(net: ProjectNetwork) -> int:
    """Largest achievable duration reduction."""
    return (_duration(net, [e.normal_len for e in net.edges])
            - _duration(net, [e.min_len for e in net.edges]))


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
        return str(_json_value(v, (int, str), _NAME_RULE))

    def days(v, rule: str) -> int:
        return _json_parsed(int, v, (int, str), rule)

    # Exact JSON types take the fast path inline; anything else goes through
    # the helpers above, which accept or reject it as the rules say.
    edges = []
    for pos, rec in enumerate(_json_value(records, list, '"edges" must be a list')):
        if type(rec) is not dict:
            _json_value(rec, dict, "each edge must be a JSON object")
        try:
            edge_id, src, dst, a, b, c = _EDGE_KEYS(rec)
        except KeyError as missing:
            raise NetworkValidationError(f'edge {pos} has no "{missing.args[0]}"') from None
        if type(edge_id) is not str:
            edge_id = name(edge_id)
        if type(src) is not str:
            src = name(src)
        if type(dst) is not str:
            dst = name(dst)
        if type(a) is not int:
            a = days(a, '"a" must be a whole number of days')
        if type(b) is not int:
            b = days(b, '"b" must be a whole number of days')
        if b - a > MAX_CRASHABLE_DAYS:
            raise NetworkValidationError(
                f"edge {edge_id!r}: b - a = {b - a} exceeds {MAX_CRASHABLE_DAYS} crashable days"
            )
        if isinstance(c, list):
            schedule = tuple([cost(x) for x in c])
        else:
            # A negative count repeats to the empty tuple; validate rejects a > b.
            parsed = costs.get((type(c), c)) if type(c) in _COST_TYPES else None
            if parsed is None:
                parsed = cost(c)
            schedule = (parsed,) * (b - a)
        edges.append(Edge(edge_id, src, dst, a, b, schedule))
    _json_value(nodes, list, '"nodes" must be a list')
    *nodes, source, sink = [v if type(v) is str else name(v) for v in (*nodes, source, sink)]
    return ProjectNetwork(tuple(nodes), source, sink, tuple(edges))


def plan_to_json(plan: Plan) -> dict:
    return {"amounts": {edge_id: x for edge_id, x in sorted(plan.amounts.items())}}
