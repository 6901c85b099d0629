"""Independent brute-force reference computations used across the tests.

Everything here enumerates or sums directly: paths for durations and
criticality, node partitions for cuts, index subsets for subsequences,
schedule prefixes for plan costs.  None of it shares code with the library's
fast paths, so agreement is meaningful.  The exception is `reference_greedy`,
which composes the greedy's days from the library's public one-day pieces,
so that `greedy_crash`'s index-level day loop is checked against them.  The
one CLI helper, `assert_exit_defined`, checks the exit contract of
`kgreedy.cli.main`.
"""

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction

from kgreedy.cli import main
from kgreedy.flow import Arc, FlowGraph, UNBOUNDED, min_cut
from kgreedy.network import Plan, apply_plan, critical_graph, duration


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
            cap = UNBOUNDED
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


def plan_cost(net, plan):
    """Reference cost of a plan: the first x schedule entries of each edge, summed."""
    by_id = {e.id: e for e in net.edges}
    total = Fraction(0)
    for edge_id, x in plan.amounts.items():
        schedule = by_id[edge_id].cost_schedule
        assert x <= len(schedule), edge_id
        total += sum(schedule[:x], Fraction(0))
    return total


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
            Arc(e.id, e.src, e.dst, e.cost_schedule[0] if e.cost_schedule else UNBOUNDED)
            for e in critical.edges
        )
        cut = min_cut(FlowGraph(critical.nodes, critical.source, critical.sink, arcs))
        if cut.cost is UNBOUNDED:
            break
        day = Plan({edge_id: 1 for edge_id in cut.cut_arcs})
        current, plan = apply_plan(current, day), merge(plan, day)
        days.append((cut.cut_arcs, cut.cost, duration(current), plan))
    return days


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
         if a.src in side and a.dst not in side and a.capacity is not UNBOUNDED),
        Fraction(0),
    )


def brute_min_cut_cost(g):
    """Minimum cut cost over every (S, T) partition with s in S, t in T."""
    middle = [v for v in g.nodes if v not in (g.source, g.sink)]
    best = None
    for bits in itertools.product((0, 1), repeat=len(middle)):
        src_side = {g.source} | {v for v, b in zip(middle, bits) if b == 0}
        cost = Fraction(0)
        unbounded = False
        for a in g.arcs:
            if a.src in src_side and a.dst not in src_side:
                if a.capacity is UNBOUNDED:
                    unbounded = True
                    break
                cost += a.capacity
        if unbounded:
            continue
        if best is None or cost < best:
            best = cost
    return UNBOUNDED if best is None else best


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
