import math
import random
from fractions import Fraction

from kgreedy.flow import min_cut_indexed
from support import (
    Arc,
    CutResult,
    FlowGraph,
    brute_min_cut_cost,
    cut_capacity,
    min_cut,
    random_flow_graph,
)


def test_single_arc():
    g = FlowGraph(("s", "t"), "s", "t", (Arc("a", "s", "t", Fraction(5)),))
    cut = min_cut(g)
    assert cut.cut_arcs == {"a"}
    assert cut.cost == 5


def test_two_parallel_arcs():
    g = FlowGraph(
        ("s", "t"), "s", "t",
        (Arc("a", "s", "t", Fraction(3)), Arc("b", "s", "t", Fraction(4))),
    )
    assert min_cut(g).cost == 7


def test_series_chain_picks_cheapest_arc():
    # the counterexample's critical graph: three arcs in series, 10 / 9 / 10
    g = FlowGraph(
        ("1", "2", "3", "4"), "1", "4",
        (
            Arc("j1", "1", "2", Fraction(10)),
            Arc("j3", "2", "3", Fraction(9)),
            Arc("j5", "3", "4", Fraction(10)),
        ),
    )
    cut = min_cut(g)
    assert cut.cut_arcs == {"j3"}
    assert cut.cost == 9


def test_sink_unreachable_gives_empty_cut():
    g = FlowGraph(
        ("s", "u", "t"), "s", "t", (Arc("a", "s", "u", Fraction(2)),)
    )
    cut = min_cut(g)
    assert cut.cut_arcs == frozenset()
    assert cut.cost == 0
    assert cut.source_side == {"s", "u"}


def test_unbounded_path_makes_cut_unbounded():
    unbounded = (Arc("a", "s", "u", None), Arc("b", "u", "t", None))
    # with arc c, the shorter finite path s-t is augmented before s-u-t is found
    for arcs in (unbounded, unbounded + (Arc("c", "s", "t", Fraction(3)),)):
        g = FlowGraph(("s", "u", "t"), "s", "t", arcs)
        cut = min_cut(g)
        assert cut.cost is None
        assert cut.cut_arcs == cut.source_side == frozenset()


def test_source_that_is_the_sink_has_no_finite_cut():
    for arcs in ((), (Arc("a", "s", "u", Fraction(2)), Arc("b", "u", "s", Fraction(1)))):
        nodes = ("s", "u") if arcs else ("s",)
        g = FlowGraph(nodes, "s", "s", arcs)
        cut = min_cut(g)
        assert cut.cost is None
        # no finite cut exists, so nothing can witness one
        assert cut.cut_arcs == cut.source_side == frozenset()


def test_unbounded_arc_avoided_when_finite_cut_exists():
    g = FlowGraph(
        ("s", "u", "t"), "s", "t",
        (Arc("a", "s", "u", None), Arc("b", "u", "t", Fraction(4))),
    )
    cut = min_cut(g)
    assert cut.cut_arcs == {"b"}
    assert cut.cost == 4


def test_duality_and_minimality_random_suite():
    for seed in range(250):
        g = random_flow_graph(seed)
        cut = min_cut(g)
        brute = brute_min_cut_cost(g)
        if brute is None:
            assert cut.cost is None
        else:
            assert cut.cost == cut_capacity(g, cut.source_side) == brute


def test_cut_partition_is_consistent():
    for seed in range(100):
        g = random_flow_graph(seed)
        cut = min_cut(g)
        if cut.cost is None:
            assert cut.cut_arcs == cut.source_side == frozenset()
            continue
        sink_side = set(g.nodes) - cut.source_side
        assert g.source in cut.source_side
        assert g.sink in sink_side
        assert cut.source_side <= set(g.nodes)
        crossing = {
            a.id for a in g.arcs
            if a.src in cut.source_side and a.dst in sink_side
        }
        assert cut.cut_arcs == crossing
        # removing the crossing arcs disconnects the sink
        out = {v: [] for v in g.nodes}
        for a in g.arcs:
            if a.id not in cut.cut_arcs:
                out[a.src].append(a.dst)
        seen, stack = {g.source}, [g.source]
        while stack:
            u = stack.pop()
            for v in out[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert g.sink not in seen


def test_deterministic_results():
    for seed in range(20):
        g = random_flow_graph(seed)
        first = min_cut(g)
        for _ in range(3):
            again = min_cut(g)
            assert isinstance(again, CutResult)
            assert again == first


def test_flow_sent_back_along_a_reverse_arc():
    # The first shortest path is s-1-4-t.  The second, s-3-4-1-2-t, takes back
    # the flow on 1->4; before it is found, 3 and 4 lead nowhere new.
    arcs = [("s", "1"), ("s", "3"), ("1", "4"), ("1", "2"), ("3", "4"), ("2", "t"), ("4", "t")]
    g = FlowGraph(
        ("s", "1", "2", "3", "4", "t"), "s", "t",
        tuple(Arc(u + v, u, v, Fraction(1)) for u, v in arcs),
    )
    cut = min_cut(g)
    assert cut.cost == 2
    assert cut.cut_arcs == {"s1", "s3"}
    assert cut.source_side == {"s"}


def test_tied_minimum_cuts_resolve_source_nearest():
    # two equal-cost cuts in a chain; the witness hugs the source
    g = FlowGraph(
        ("s", "u", "t"), "s", "t",
        (Arc("a", "s", "u", Fraction(5)), Arc("b", "u", "t", Fraction(5))),
    )
    cut = min_cut(g)
    assert cut.cut_arcs == {"a"}
    assert cut.source_side == {"s"}


def test_fractional_capacities_stay_exact():
    g = FlowGraph(
        ("s", "u", "t"), "s", "t",
        (
            Arc("a", "s", "u", Fraction(1, 3)),
            Arc("b", "s", "u", Fraction(1, 6)),
            Arc("c", "u", "t", Fraction(2, 5)),
        ),
    )
    cut = min_cut(g)
    assert cut.cost == cut_capacity(g, cut.source_side) == Fraction(2, 5)
    assert cut.cut_arcs == {"c"}


def test_rational_capacities_random_suite():
    def rational(rng):
        return Fraction(rng.randint(0, 30), rng.randint(1, 13))

    large_lcm = 0
    for seed in range(300):
        g = random_flow_graph(seed, max_arcs=20, capacity=rational)
        finite = [a.capacity for a in g.arcs if a.capacity is not None]
        large_lcm += math.lcm(*(c.denominator for c in finite)) > 10**4
        cut = min_cut(g)
        brute = brute_min_cut_cost(g)
        if brute is None:
            assert cut.cost is None, seed
            continue
        assert cut.cost == cut_capacity(g, cut.source_side) == brute, seed
        assert type(cut.cost) is Fraction, seed
    assert large_lcm >= 50  # 76 of the 300 scale by more than 10**4

    # three disjoint paths whose bottlenecks are 1/3, 1/7 and 2/11
    g = FlowGraph(
        ("s", "a", "b", "c", "t"), "s", "t",
        (
            Arc("sa", "s", "a", Fraction(1, 3)),
            Arc("at", "a", "t", Fraction(1, 2)),
            Arc("sb", "s", "b", Fraction(1, 7)),
            Arc("bt", "b", "t", None),
            Arc("sc", "s", "c", Fraction(5, 1)),
            Arc("ct", "c", "t", Fraction(2, 11)),
        ),
    )
    cut = min_cut(g)
    assert type(cut.cost) is Fraction
    assert (cut.cost.numerator, cut.cost.denominator) == (152, 231)
    assert cut.cost == cut_capacity(g, cut.source_side)
    assert cut.cut_arcs == {"sa", "sb", "ct"}


def test_indexed_core_returns_positions_and_flags():
    # nodes s=0, u=1, t=2; arc 1 (u->t) is the cheaper of the two in series
    tails, heads = [0, 1, 0], [1, 2, 2]
    caps = [Fraction(5), Fraction(2), Fraction(1, 3)]
    crossing, reached, cost, _ = min_cut_indexed(3, 0, 2, tails, heads, caps)
    assert (crossing, reached, cost) == ([1, 2], [True, True, False], Fraction(7, 3))
    assert min_cut_indexed(3, 0, 2, tails, heads, [None] * 3) == ([], [], None, None)
    assert min_cut_indexed(1, 0, 0, [], [], []) == ([], [], None, None)


def test_adapter_matches_indexed_core():
    for seed in range(100):
        g = random_flow_graph(seed)
        index = {v: i for i, v in enumerate(g.nodes)}
        crossing, reached, cost, _ = min_cut_indexed(
            len(g.nodes), index[g.source], index[g.sink],
            [index[a.src] for a in g.arcs], [index[a.dst] for a in g.arcs],
            [a.capacity for a in g.arcs],
        )
        cut = min_cut(g)
        assert cut.cost == cost, seed
        assert cut.cut_arcs == {g.arcs[i].id for i in crossing}, seed
        assert cut.source_side == {v for v, r in zip(g.nodes, reached) if r}, seed


# -- warm starts --------------------------------------------------------------

def rational(rng):
    return Fraction(rng.randint(0, 30), rng.randint(1, 13))


def rational_suite():
    """The rational suite as ``min_cut_indexed`` arguments: (n, source, sink,
    tails, heads) and the capacities."""
    for seed in range(300):
        g = random_flow_graph(seed, max_arcs=20, capacity=rational)
        index = {v: i for i, v in enumerate(g.nodes)}
        where = (
            len(g.nodes), index[g.source], index[g.sink],
            [index[a.src] for a in g.arcs], [index[a.dst] for a in g.arcs],
        )
        yield seed, where, [a.capacity for a in g.arcs]


def assert_maximum_flow(where, caps, result):
    """The result's flow is conserved at every node but the source and the
    sink, lies within each arc's capacity, and its value is the cost."""
    n, source, sink, tails, heads = where
    _, _, cost, flow = result
    if cost is None:
        assert flow is None
        return
    ints, scale = flow
    assert len(ints) == len(caps)
    assert scale % math.lcm(*(c.denominator for c in caps if c is not None)) == 0
    net = [0] * n
    for u, v, c, f in zip(tails, heads, caps, ints):
        assert type(f) is int and 0 <= f
        assert c is None or Fraction(f, scale) <= c
        net[u] -= f
        net[v] += f
    assert all(x == 0 for i, x in enumerate(net) if i not in (source, sink))
    assert Fraction(-net[source], scale) == cost


def test_returned_flow_is_a_maximum_flow():
    finite = 0
    for seed, where, caps in rational_suite():
        result = min_cut_indexed(*where, caps)
        assert_maximum_flow(where, caps, result)
        finite += result[2] is not None
    assert finite >= 200


def test_restart_from_the_returned_flow_changes_nothing():
    finer = 0
    for seed, where, caps in rational_suite():
        result = min_cut_indexed(*where, caps)
        if result[2] is None:
            continue
        assert min_cut_indexed(*where, caps, result[3]) == result, seed
        # Raising an arc that does not cross the cut by 1/17 keeps the flow
        # maximum; 17 divides no scale here, so the flow is multiplied up.
        crossing, _, _, (ints, scale) = result
        i = next((i for i, c in enumerate(caps) if c is not None and i not in crossing), None)
        if i is not None:
            raised = caps[:i] + [caps[i] + Fraction(1, 17)] + caps[i + 1:]
            expected = (*result[:3], ([17 * f for f in ints], 17 * scale))
            assert min_cut_indexed(*where, raised, result[3]) == expected, seed
            finer += 1
    assert finer >= 200


def test_warm_start_after_raised_capacities_matches_a_cold_start():
    # Raised to a Fraction with a new denominator, or lifted to no limit:
    # the old maximum flow still fits, and the warm call finds the same cut.
    rng = random.Random(0)
    augmented = 0
    for seed, where, caps in rational_suite():
        first = min_cut_indexed(*where, caps)
        if first[2] is None:
            continue
        raised = [
            c if c is None or rng.random() < 0.6
            else None if rng.random() < 0.25
            else c + Fraction(rng.randint(0, 20), rng.randint(1, 17))
            for c in caps
        ]
        warm = min_cut_indexed(*where, raised, first[3])
        cold = min_cut_indexed(*where, raised)
        assert warm[:3] == cold[:3], seed
        assert_maximum_flow(where, raised, warm)
        if warm[3] is not None:
            # the start's scale is multiplied up, never rounded
            assert warm[3][1] == math.lcm(cold[3][1], first[3][1]), seed
        augmented += warm[2] != first[2]
    assert augmented >= 50


def test_start_that_does_not_fit_is_dropped():
    # One capacity lowered below its carried flow: the call is the cold one.
    dropped = 0
    for seed, where, caps in rational_suite():
        first = min_cut_indexed(*where, caps)
        if first[2] is None:
            continue
        ints, scale = first[3]
        for i, f in enumerate(ints):
            if f:
                lowered = list(caps)
                lowered[i] = Fraction(f, 2 * scale)
                assert min_cut_indexed(*where, lowered, first[3]) == min_cut_indexed(
                    *where, lowered
                ), seed
                dropped += 1
                break
    assert dropped >= 140  # 144 of the 300 carry a positive flow
