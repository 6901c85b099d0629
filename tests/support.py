"""Independent brute-force reference computations used across the tests.

`reference_validate` checks a network's structural rules one by one, on a
network built in code or by `unchecked_network` from project JSON; the
loader, `network.network_from_json`, is tested against it.

Everything here enumerates or sums directly: paths for durations and
criticality, node partitions for cuts, index subsets for subsequences,
schedule prefixes for plan costs, integer plans for the exact crash cost,
and tail states for the exact k subsequences.  None of it shares code with
the library's fast paths, so agreement is meaningful.  The plan
enumeration, `reference_exact_crash_cost`, reads the network's topological
order, which the oracle it checks never uses; the tail-state search,
`reference_exact_klis`, is exponential in k and checks both the klis flow's
witnesses and the RSK totals.  `full_plan`, every edge crashed to its
minimum, builds the floor network the tests compare `k_max` against, and
`matrix_optimal_parts` reads the staircase's k column copies off its values
as the certificate of its optimum k^2.

The exception is the named reference path.  `Arc`, `FlowGraph`, `CutResult`
and `min_cut` are flow graphs and cuts by name, and `critical_graph` is a
network's critical subnetwork; all are thin adapters over the library's
private index routines (`flow.Residual`, `network._slacks`).
`reference_greedy` and `reference_decompose` compose the greedy's days and
the decomposition's levels from them and `apply_plan`, one named network per
day or level, so that the library's loops over edge positions are checked
against them; `reference_verify` checks named levels as `verify_trace` does.
`reference_greedy_klis` repeats `lis` over a residue of (position, value)
pairs and `reference_random_network` builds `random_network`'s draws edge by
edge with `linear_schedule`, so the library's leaner bookkeeping is checked
against the plain construction.  The flow, network and differential tests
use the adapters too.  The one CLI helper, `assert_exit_defined`, checks the
exit contract of `kgreedy.cli.main`.
"""

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from kgreedy.cli import main
from kgreedy.flow import Residual
from kgreedy.generators import matrix_sequence
from kgreedy.klis import SubseqSelection, lis
from kgreedy.errors import NetworkValidationError
from kgreedy.network import (
    Edge,
    Plan,
    ProjectNetwork,
    _slacks,
    _topological_order,
    apply_plan,
    as_cost,
    duration,
    linear_schedule,
)


# -- the validation reference -------------------------------------------------

def reference_validate(net: ProjectNetwork) -> None:
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

    tails, heads, *_ = net._index  # raises on a cycle

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


def unchecked_network(data):
    """The network a well-typed project JSON describes, built with no check:
    names as strings, and a scalar "c" repeated b - a times, as the loader
    builds it."""
    def schedule(rec):
        c = rec["c"]
        if isinstance(c, list):
            return tuple(map(as_cost, c))
        return linear_schedule(c, rec["b"] - rec["a"])

    edges = tuple(
        Edge(str(r["id"]), str(r["from"]), str(r["to"]), r["a"], r["b"], schedule(r))
        for r in data["edges"]
    )
    return ProjectNetwork(
        tuple(map(str, data["nodes"])), str(data["source"]), str(data["sink"]), edges
    )


def two_edge_project(c_first=1, c_second=1):
    """A valid project JSON: s -> u (edge e, 3 crashable days) -> t (edge f, 3)."""
    return {
        "nodes": ["s", "u", "t"],
        "source": "s",
        "sink": "t",
        "edges": [
            {"id": "e", "from": "s", "to": "u", "a": 1, "b": 4, "c": c_first},
            {"id": "f", "from": "u", "to": "t", "a": 0, "b": 3, "c": c_second},
        ],
    }


def structural_faults():
    """(name, project, exact message): `two_edge_project` with one fault for
    each structural rule, in `reference_validate`'s order."""
    def project(nodes=(), arcs=(), second=(), **top):
        p = two_edge_project()
        p["nodes"] += nodes
        p["edges"] += [{"id": "g", "from": u, "to": v, "a": 0, "b": 1, "c": 1} for u, v in arcs]
        p["edges"][1].update(second)
        p.update(top)
        return p

    bounds = "edge 'f': need 0 <= min_len <= normal_len, got"
    return [
        ("duplicate-node", project(nodes=["u"]), "duplicate node ids"),
        ("source-not-a-node", project(source="x"), "declared endpoint 'x' is not a node"),
        ("sink-not-a-node", project(sink="x"), "declared endpoint 'x' is not a node"),
        ("duplicate-edge-id", project(second={"id": "e"}), "edge id 'e' appears twice"),
        ("unknown-node", project(second={"to": "x"}), "edge 'f' references an unknown node"),
        ("negative-a", project(second={"a": -1}), f"{bounds} (-1, 3)"),
        ("a-over-b", project(second={"a": 4}), f"{bounds} (4, 3)"),
        ("list-length", project(second={"c": [1, 2]}),
         "edge 'f': schedule has 2 entries, expected 3"),
        ("negative-scalar", project(second={"c": -1}), "edge 'f': negative cost at day 0"),
        ("negative-list", project(second={"c": ["-1/2", 0, 1]}),
         "edge 'f': negative cost at day 0"),
        ("decreasing-list", project(second={"c": [1, 3, 2]}),
         "edge 'f': schedule must be non-decreasing (convex), day 2 is cheaper than day 1"),
        ("cycle", project(arcs=[("t", "u")]), "cycle through nodes ['t', 'u']"),
        ("second-source", project(nodes=["v"], arcs=[("v", "t")]),
         "nodes without incoming edges: ['s', 'v'], declared source: 's'"),
        ("second-sink", project(nodes=["v"], arcs=[("s", "v")]),
         "nodes without outgoing edges: ['t', 'v'], declared sink: 't'"),
    ]


# -- the named reference path -------------------------------------------------

@dataclass(frozen=True)
class Arc:
    id: str
    src: str
    dst: str
    capacity: Fraction | None


@dataclass(frozen=True)
class FlowGraph:
    nodes: tuple[str, ...]
    source: str
    sink: str
    arcs: tuple[Arc, ...]


@dataclass(frozen=True)
class CutResult:
    """A minimum s-t cut: the crossing arcs and the source side that witnesses them."""

    cut_arcs: frozenset[str]
    source_side: frozenset[str]
    cost: Fraction | None


def min_cut(g):
    """A one-shot `flow.Residual` on the graph's node and arc positions, every
    arc open, mapped back to names."""
    index = {v: i for i, v in enumerate(g.nodes)}
    arcs = g.arcs
    residual = Residual(
        len(g.nodes), index[g.source], index[g.sink],
        [index[a.src] for a in arcs], [index[a.dst] for a in arcs],
    )
    everything = range(len(arcs))
    residual.set_caps(everything, [a.capacity for a in arcs])
    crossing, reached, cost = residual.cut(everything)
    return CutResult(
        frozenset(arcs[i].id for i in crossing),
        frozenset(v for v, r in zip(g.nodes, reached) if r),
        cost,
    )


def critical_graph(net):
    """The subnetwork of edges lying on some longest source-to-sink path,
    in the network's node and edge order; a node is kept when it is the
    source, the sink or an end of a kept edge."""
    tails, heads, order, _, sink = _topological_order(net)
    lengths = [e.normal_len for e in net.edges]
    slack, _ = _slacks(order, tails, heads, lengths, len(net.nodes), sink)
    kept = [i for i, x in enumerate(slack) if not x]
    ends = {tails[i] for i in kept} | {heads[i] for i in kept}
    nodes = tuple(
        v for i, v in enumerate(net.nodes) if i in ends or v == net.source or v == net.sink
    )
    return ProjectNetwork(nodes, net.source, net.sink, tuple(net.edges[i] for i in kept))


def random_flow_graph(seed, max_nodes=7, max_arcs=12, unbounded_share=0.15,
                      capacity=lambda rng: Fraction(rng.randint(1, 9))):
    """A small random graph; ``capacity(rng)`` draws each finite capacity."""
    rng = random.Random(seed)
    n = rng.randint(2, max_nodes)
    nodes = tuple(f"v{i}" for i in range(n))
    arcs = []
    for j in range(rng.randint(1, max_arcs)):
        u, v = rng.sample(range(n), 2)
        if rng.random() < unbounded_share:
            cap = None
        else:
            cap = capacity(rng)
        arcs.append(Arc(f"a{j}", nodes[u], nodes[v], cap))
    return FlowGraph(nodes, nodes[0], nodes[-1], tuple(arcs))


def edge_ids(net):
    """The network's edge ids, in edge order."""
    return tuple(e.id for e in net.edges)


def merge(plan, other):
    """Multiset union of two plans: crash amounts added edge by edge."""
    merged = dict(plan.amounts)
    for edge_id, x in other.amounts.items():
        merged[edge_id] = merged.get(edge_id, 0) + x
    return Plan(merged)


def full_plan(net):
    """The maximal plan: every edge crashed to its minimum length."""
    return Plan({e.id: e.crashable_days for e in net.edges if e.crashable_days > 0})


def plan_cost(net, plan):
    """Reference cost of a plan: the first x schedule entries of each edge, summed."""
    by_id = {e.id: e for e in net.edges}
    total = Fraction(0)
    for edge_id, x in plan.amounts.items():
        schedule = by_id[edge_id].cost_schedule
        assert x <= len(schedule), edge_id
        total += sum(schedule[:x], Fraction(0))
    return total


def reference_exact_crash_cost(net, k):
    """Cheapest k-crashing plan and its cost, by enumerating every in-bounds
    integer plan with cost-bound pruning; among equal-cost optima the first
    in per-edge lexicographic order wins.  Needs 1 <= k <= k_max."""
    tails, heads, order, _, sink = _topological_order(net)

    def duration(lengths):
        dist = [0] * len(net.nodes)
        for j in order:
            dist[heads[j]] = max(dist[heads[j]], dist[tails[j]] + lengths[j])
        return dist[sink]

    lengths = [e.normal_len for e in net.edges]
    target = duration(lengths) - k
    prefix = [list(itertools.accumulate(e.cost_schedule, initial=Fraction(0)))
              for e in net.edges]
    # Only crashable edges are branched on: any other edge has the single choice 0.
    crashable = [j for j, e in enumerate(net.edges) if e.crashable_days > 0]
    xs = [0] * len(net.edges)
    best = [None, None]  # cost, amounts

    def search(depth, cost):
        if best[0] is not None and cost >= best[0]:
            return
        if depth == len(crashable):
            if duration(lengths) <= target:
                best[:] = cost, xs.copy()
            return
        j = crashable[depth]
        normal = lengths[j]
        for x in range(net.edges[j].crashable_days + 1):
            xs[j] = x
            lengths[j] = normal - x
            search(depth + 1, cost + prefix[j][x])
        xs[j] = 0
        lengths[j] = normal

    search(0, Fraction(0))
    assert best[0] is not None, f"no {k}-crashing plan"
    return Plan({e.id: x for e, x in zip(net.edges, best[1]) if x > 0}), best[0]


def reference_exact_klis(values, k):
    """Maximum-total k disjoint increasing subsequences by a tail-state DP.

    Every assignment of positions to {unused, class 1..k} maps onto a path
    through (position, sorted class-tails) states, so the search over that
    state space is exact; its state count grows exponentially in k.  Parts
    are returned longest first, as a SubseqSelection.
    """
    start = (float("-inf"),) * k
    states = {start: 0}
    parents = []
    for v in values:
        nxt, back = {}, {}
        for tails, count in states.items():
            if tails not in nxt or count > nxt[tails]:
                nxt[tails] = count
                back[tails] = (tails, None)
            for tail in set(tails):
                if tail >= v:
                    continue
                grown = list(tails)
                grown.remove(tail)
                grown_key = tuple(sorted(grown + [v]))
                if grown_key not in nxt or count + 1 > nxt[grown_key]:
                    nxt[grown_key] = count + 1
                    back[grown_key] = (tails, tail)
        states = nxt
        parents.append(back)

    best_count = max(states.values())
    cur = min(t for t, c in states.items() if c == best_count)
    actions = []
    for back in reversed(parents):
        cur, action = back[cur]
        actions.append(action)
    actions.reverse()

    classes = [[] for _ in range(k)]
    live = [float("-inf")] * k
    for i, action in enumerate(actions):
        if action is not None:
            slot = live.index(action)
            classes[slot].append(i)
            live[slot] = values[i]
    classes.sort(key=lambda part: (-len(part), part))
    return SubseqSelection(tuple(tuple(part) for part in classes), best_count)


def reference_greedy_klis(values, k):
    """k rounds of `lis` over a residue of (position, value) pairs, deleting
    each pick from it one at a time; `greedy_klis` keeps the positions and
    the values in two lists and drops a round's picks in one pass."""
    residue = list(enumerate(values))
    rounds = []
    for _ in range(k):
        local = lis([v for _, v in residue])
        rounds.append(tuple(residue[p][0] for p in local))
        for p in reversed(local):
            del residue[p]
    return SubseqSelection(tuple(rounds), sum(len(r) for r in rounds))


def matrix_optimal_parts(k):
    """A constructive optimum for the staircase sequence: its k column copies.

    Value v sits at row v of the k-by-k matrix, and the sequence emits the
    columns' cells in order, so the j-th occurrences of 1, ..., k are column
    j, a strictly increasing run.  The k columns are disjoint and cover all
    k^2 positions, certifying the optimum k^2 without enumeration.
    """
    values, _ = matrix_sequence(k)
    seen = [[] for _ in range(k + 1)]
    for i, v in enumerate(values):
        seen[v].append(i)
    return [[seen[v][j] for v in range(1, k + 1)] for j in range(k)]


def reference_random_network(spec):
    """`random_network`'s draws in the same order, each edge built by keyword
    with its own `linear_schedule`; `random_network` shares one parsed cost
    per drawn value and builds each edge positionally."""
    rng = random.Random(spec.seed)
    m = spec.node_count
    nodes = tuple(f"n{i}" for i in range(m))
    pairs = [(i, i + 1) for i in range(m - 1)]
    while len(pairs) < spec.edge_count:
        u = rng.randrange(0, m - 1)
        v = rng.randrange(u + 1, m)
        pairs.append((u, v))
    lo, hi = spec.cost_range
    edges = []
    for j, (u, v) in enumerate(pairs):
        b = rng.randint(1, spec.max_normal_len)
        crash = rng.randint(0, min(spec.max_crashable, b))
        edges.append(Edge(id=f"e{j}", src=nodes[u], dst=nodes[v], min_len=b - crash,
                          normal_len=b, cost_schedule=linear_schedule(rng.randint(lo, hi), crash)))
    return ProjectNetwork(nodes=nodes, source=nodes[0], sink=nodes[-1], edges=tuple(edges))


def reference_greedy(net, k):
    """Up to k greedy days, each from public one-day pieces: the critical
    graph, a flow graph pricing each critical edge at the head of its
    remaining schedule (unbounded once it is empty), a minimum cut, and a
    plan of one unit per cut edge.

    Returns one (cut edges, cost, duration reached, plan so far) tuple per
    day, and stops before the first day that no finite cut saves.
    """
    days = []
    current, plan = net, Plan()
    for _ in range(k):
        critical = critical_graph(current)
        arcs = tuple(
            Arc(e.id, e.src, e.dst, e.cost_schedule[0] if e.cost_schedule else None)
            for e in critical.edges
        )
        cut = min_cut(FlowGraph(critical.nodes, critical.source, critical.sink, arcs))
        if cut.cost is None:
            break
        day = Plan({edge_id: 1 for edge_id in cut.cut_arcs})
        current, plan = apply_plan(current, day), merge(plan, day)
        days.append((cut.cut_arcs, cut.cost, duration(current), plan))
    return days


@dataclass(frozen=True)
class ReferenceLevel:
    """One decomposition level by name: the level's network, its critical
    graph, the plan units left, and the cut with its cost and source side."""

    network: ProjectNetwork
    critical: ProjectNetwork
    remaining_plan: Plan
    cut: frozenset[str]
    cut_cost: Fraction
    source_side: frozenset[str]


def reference_decompose(net, plan, k):
    """The k levels of a k-crashing plan's decomposition, each from named
    pieces: the critical graph of the level's network, a flow graph pricing
    each critical edge that the remaining plan still carries at its next
    cost (unbounded otherwise), a minimum cut, and as the next level's
    network the critical graph with each cut edge one day shorter."""
    levels = []
    current, remaining = net, dict(plan.amounts)
    for _ in range(k):
        critical = critical_graph(current)
        arcs = tuple(
            Arc(e.id, e.src, e.dst, e.cost_schedule[0] if remaining.get(e.id) else None)
            for e in critical.edges
        )
        cut = min_cut(FlowGraph(critical.nodes, critical.source, critical.sink, arcs))
        assert cut.cost is not None
        levels.append(ReferenceLevel(
            current, critical, Plan(remaining), cut.cut_arcs, cut.cost, cut.source_side
        ))
        current = apply_plan(critical, Plan({edge_id: 1 for edge_id in cut.cut_arcs}))
        for edge_id in cut.cut_arcs:
            remaining[edge_id] -= 1
    return levels


def _is_partition(parts, whole):
    return sum(map(len, parts)) == len(whole) and set().union(*parts) == whole


def reference_verify(levels):
    """The decomposition's checks on named levels, as (name, level, passed,
    detail) tuples in `verify_trace`'s order and wording."""
    checks = []
    base = duration(levels[0].network)
    for i, level in enumerate(levels, start=1):
        got, want = duration(level.network), base - (i - 1)
        outside = sorted(level.cut - level.remaining_plan.amounts.keys())
        checks += [
            ("duration-decrement", i, got == want, f"duration {got}, expected {want}"),
            ("cut-within-plan", i, not outside,
             f"cut edges outside the remaining plan: {outside}"),
            ("cut-disconnects", i, removing_disconnects(level.critical, level.cut),
             "removing the cut must disconnect the critical graph"),
        ]

    ends = {e.id: (e.src, e.dst) for e in levels[0].network.edges}

    def sides(level, edge_id):
        """Whether the edge's tail and its head are on the level's source side."""
        return tuple(v in level.source_side for v in ends[edge_id])

    def part(cut, level, key):
        """The cut edges that are critical at the level with sides ``key``."""
        critical = {e.id for e in level.critical.edges}
        return frozenset(e for e in cut if e in critical and sides(level, e) == key)

    within_src, within_snk, reverse = (True, True), (False, False), (False, True)
    for i, (cur, nxt) in enumerate(zip(levels, levels[1:]), start=1):
        next_critical = {e.id for e in nxt.critical.edges}
        shared = cur.cut & nxt.cut
        next_ahead, next_behind = part(nxt.cut, cur, within_snk), part(nxt.cut, cur, within_src)
        cur_ahead, cur_behind = part(cur.cut, nxt, within_snk), part(cur.cut, nxt, within_src)
        cur_reverse = part(cur.cut, nxt, reverse)
        checks += [
            ("reverse-cut-disjoint", i, not part(nxt.cut, cur, reverse),
             "next cut must avoid arcs crossing the current partition backwards"),
            ("cut-stays-critical", i, cur.cut <= next_critical,
             f"cut edges dropped from the next critical graph: {sorted(cur.cut - next_critical)}"),
            ("cut-cost-monotone", i, cur.cut_cost <= nxt.cut_cost,
             f"cost {cur.cut_cost} then {nxt.cut_cost}"),
            ("next-cut-partitioned", i, _is_partition((next_ahead, shared, next_behind), nxt.cut),
             "ahead/shared/behind must partition the next cut"),
            ("cur-cut-partitioned", i,
             _is_partition((cur_ahead, shared, cur_behind, cur_reverse), cur.cut),
             "ahead/shared/behind/reverse must partition the current cut"),
            ("shared-classes-equal", i,
             all(sides(cur, e) == sides(nxt, e) == (True, False) for e in shared),
             "both cuts must agree on their shared part"),
            ("forward-mix-contains-cut", i,
             removing_disconnects(cur.critical, next_ahead | shared | cur_ahead),
             "next-ahead + shared + cur-ahead must contain a cut of the current critical graph"),
            ("backward-mix-contains-cut", i,
             removing_disconnects(cur.critical, next_behind | shared | cur_behind),
             "next-behind + shared + cur-behind must contain a cut of the current critical graph"),
        ]
    return checks


def failures(report):
    """The checks of a trace report that did not pass."""
    return tuple(c for c in report.checks if not c.passed)


def all_st_paths(net):
    """Every source-to-sink path, as a list of Edge objects."""
    out = {v: [] for v in net.nodes}
    for e in net.edges:
        out[e.src].append(e)
    paths = []

    def walk(node, acc):
        if node == net.sink:
            paths.append(list(acc))
            return
        for e in out[node]:
            acc.append(e)
            walk(e.dst, acc)
            acc.pop()

    walk(net.source, [])
    return paths


def brute_duration(net):
    return max(sum(e.normal_len for e in p) for p in all_st_paths(net))


def brute_critical_edge_ids(net):
    paths = all_st_paths(net)
    longest = max(sum(e.normal_len for e in p) for p in paths)
    ids = set()
    for p in paths:
        if sum(e.normal_len for e in p) == longest:
            ids.update(e.id for e in p)
    return ids


def cut_capacity(g, side):
    """Sum of the finite capacities of the arcs leaving ``side``."""
    return sum(
        (a.capacity for a in g.arcs
         if a.src in side and a.dst not in side and a.capacity is not None),
        Fraction(0),
    )


def brute_min_cut_cost(g):
    """Minimum cut cost over every (S, T) partition with s in S, t in T;
    None when every partition is crossed by an unbounded arc."""
    middle = [v for v in g.nodes if v not in (g.source, g.sink)]
    best = None
    for bits in itertools.product((0, 1), repeat=len(middle)):
        src_side = {g.source} | {v for v, b in zip(middle, bits) if b == 0}
        cost = Fraction(0)
        unbounded = False
        for a in g.arcs:
            if a.src in src_side and a.dst not in src_side:
                if a.capacity is None:
                    unbounded = True
                    break
                cost += a.capacity
        if unbounded:
            continue
        if best is None or cost < best:
            best = cost
    return best


def brute_lis_length(values):
    """Longest strictly increasing subsequence length via subset scan."""
    n = len(values)
    best = 0
    for mask in range(1 << n):
        picked = [values[i] for i in range(n) if mask >> i & 1]
        if all(a < b for a, b in zip(picked, picked[1:])):
            best = max(best, len(picked))
    return best


def all_max_lis_index_lists(values):
    """Every maximum-length strictly increasing subsequence, as index tuples."""
    n = len(values)
    found = []
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        vals = [values[i] for i in idx]
        if all(a < b for a, b in zip(vals, vals[1:])):
            found.append(tuple(idx))
    top = max(len(t) for t in found)
    return sorted(t for t in found if len(t) == top)


def assert_valid_selection(selection, values, k):
    """Disjoint index lists, each strictly increasing in position and value."""
    assert len(selection.rounds) == k
    seen = set()
    for part in selection.rounds:
        for a, b in zip(part, part[1:]):
            assert a < b
            assert values[a] < values[b]
        for i in part:
            assert 0 <= i < len(values)
            assert i not in seen
            seen.add(i)
    assert selection.total_length == sum(len(r) for r in selection.rounds)


def removing_disconnects(net, removed_ids):
    out = {v: [] for v in net.nodes}
    for e in net.edges:
        if e.id not in removed_ids:
            out[e.src].append(e.dst)
    seen, stack = {net.source}, [net.source]
    while stack:
        u = stack.pop()
        for v in out[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return net.sink not in seen


def assert_exit_defined(argv, codes):
    """main(argv) exits with one of codes: 0 with JSON on stdout and nothing
    on stderr, any other with nothing on stdout and exactly one `error:`
    line on stderr.  Returns what went to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in codes
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    return err.getvalue()
