"""Differential tests against networkx at sizes brute force cannot reach.

networkx is a test-only dependency; without it these tests are skipped.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

nx = pytest.importorskip("networkx")

from kgreedy.generators import RandomNetSpec, random_network
from kgreedy.network import apply_plan, duration
from support import Arc, FlowGraph, cut_capacity, full_plan, min_cut


def _random_graph(seed, capacity=lambda rng: Fraction(rng.randint(0, 9))):
    """Up to 200 nodes; capacities drawn by ``capacity(rng)`` (by default
    integers) with zeros, unbounded arcs, cycles, and anti-parallel and
    parallel arcs."""
    rng = random.Random(seed)
    n = rng.randint(2, 200)
    nodes = tuple(f"v{i}" for i in range(n))
    unbounded_share = rng.choice([0.0, 0.1, 0.3, 0.6])
    arcs = []
    for j in range(rng.randint(n // 2, 6 * n)):
        u, v = rng.sample(nodes, 2)
        if arcs and rng.random() < 0.1:
            # an earlier arc's endpoints: a parallel or an anti-parallel arc
            prev = rng.choice(arcs)
            u, v = rng.choice([(prev.src, prev.dst), (prev.dst, prev.src)])
        cap = None if rng.random() < unbounded_share else capacity(rng)
        arcs.append(Arc(f"a{j}", u, v, cap))
    s, t = rng.sample(nodes, 2)
    return FlowGraph(nodes, s, t, tuple(arcs))


def _to_networkx(g, scale=1):
    """A DiGraph with parallel arcs merged and every finite capacity multiplied
    by ``scale``, which must make it whole; an unbounded arc has no capacity."""
    G = nx.DiGraph()
    G.add_nodes_from(g.nodes)
    for a in g.arcs:
        if not G.has_edge(a.src, a.dst):
            G.add_edge(a.src, a.dst, capacity=0)
        attrs = G[a.src][a.dst]
        if a.capacity is None:
            attrs.pop("capacity", None)
        elif "capacity" in attrs:
            scaled = a.capacity * scale
            assert scaled.denominator == 1
            attrs["capacity"] += int(scaled)
    return G


def _residual_source_side(G, s, t):
    """Nodes reachable from s in the residual graph of networkx's maximum flow."""
    R = nx.flow.preflow_push(G, s, t)
    seen, stack = {s}, [s]
    while stack:
        u = stack.pop()
        for v, attr in R[u].items():
            if v not in seen and attr["flow"] < attr["capacity"]:
                seen.add(v)
                stack.append(v)
    return seen


def _check_min_cuts(graphs, scale_of=lambda g: 1):
    """min_cut's cost and witness against networkx on the graph with every
    capacity multiplied by ``scale_of(g)``; returns the outcomes seen."""
    outcomes = set()
    for seed, g in enumerate(graphs):
        scale = scale_of(g)
        G = _to_networkx(g, scale)
        cut = min_cut(g)
        try:
            expected = nx.minimum_cut_value(G, g.source, g.sink)
        except nx.NetworkXUnbounded:
            assert cut.cost is None, seed
            outcomes.add("unbounded")
            continue
        assert cut.cost == cut_capacity(g, cut.source_side), seed
        assert cut.cost * scale == expected, seed
        # The residual-reachable set is the same for every maximum flow, so
        # networkx's preflow-push flow must give the same witness.
        assert cut.source_side == _residual_source_side(G, g.source, g.sink), seed
        outcomes.add("bounded")
    return outcomes


def test_min_cut_matches_networkx():
    outcomes = _check_min_cuts(_random_graph(seed) for seed in range(80))
    assert outcomes == {"bounded", "unbounded"}


def _denominator_lcm(g):
    """Least common multiple of the finite capacities' denominators."""
    lcm = 1
    for a in g.arcs:
        if a.capacity is not None:
            q = a.capacity.denominator
            lcm = lcm * q // gcd(lcm, q)
    return lcm


def test_min_cut_matches_networkx_on_rational_capacities():
    def rational(rng):
        return Fraction(rng.randint(0, 30), rng.randint(1, 9))

    graphs = [_random_graph(seed, rational) for seed in range(80)]
    assert sum(_denominator_lcm(g) > 1000 for g in graphs) >= 40
    outcomes = _check_min_cuts(graphs, _denominator_lcm)
    assert outcomes == {"bounded", "unbounded"}


def _layered_graph(seed):
    """``width`` by ``depth`` layers in which node j of a layer has arcs to
    nodes j and j + 1 (wrapping around) of the next one, the source feeds the
    first layer and the last feeds the sink: every source-to-sink path has
    depth + 1 arcs, so all of them tie as shortest.  Capacities are rational
    or None (no limit, about a tenth in most graphs), and a few are zero."""
    rng = random.Random(seed)
    width, depth = rng.randint(2, 10), rng.randint(1, 12)
    unbounded_share = rng.choice([0.1, 0.1, 0.1, 0.5])
    layers = [[f"v{i}_{j}" for j in range(width)] for i in range(depth)]
    pairs = [("s", v) for v in layers[0]] + [(v, "t") for v in layers[-1]]
    for here, there in zip(layers, layers[1:]):
        pairs += [(u, there[(j + step) % width]) for j, u in enumerate(here) for step in (0, 1)]
    arcs = []
    for n, (u, v) in enumerate(pairs):
        draw = rng.random()
        if draw < unbounded_share:
            cap = None
        elif draw < unbounded_share + 0.03:
            cap = Fraction(0)
        else:
            cap = Fraction(rng.randint(1, 30), rng.randint(1, 9))
        arcs.append(Arc(f"a{n}", u, v, cap))
    nodes = ("s", *(v for layer in layers for v in layer), "t")
    return FlowGraph(nodes, "s", "t", tuple(arcs))


def test_min_cut_matches_networkx_on_layered_critical_graphs():
    graphs = [_layered_graph(seed) for seed in range(80)]
    assert sum(len(g.arcs) > 100 for g in graphs) >= 15
    outcomes = _check_min_cuts(graphs, _denominator_lcm)
    assert outcomes == {"bounded", "unbounded"}


def test_duration_matches_networkx():
    rng = random.Random(7)
    for seed in range(40):
        nodes = rng.randint(2, 200)
        spec = RandomNetSpec(nodes, rng.randint(nodes - 1, 800), max_normal_len=9,
                             max_crashable=5, seed=seed)
        net = random_network(spec)
        for variant in (net, apply_plan(net, full_plan(net))):
            G = nx.MultiDiGraph()
            G.add_nodes_from(variant.nodes)
            for e in variant.edges:
                G.add_edge(e.src, e.dst, weight=e.normal_len)
            assert duration(variant) == nx.dag_longest_path_length(G), seed
