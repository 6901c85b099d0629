import math
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from kgreedy.flow import Residual
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


def residual(where, caps):
    """A residual graph on ``where``, (n, source, sink, tails, heads), with
    every arc open at its capacity in ``caps``."""
    r = Residual(*where)
    r.set_caps(range(len(caps)), caps)
    return r


def test_indexed_core_returns_positions_and_flags():
    # nodes s=0, u=1, t=2; arc 1 (u->t) is the cheaper of the two in series
    where = (3, 0, 2, [0, 1, 0], [1, 2, 2])
    caps = [Fraction(5), Fraction(2), Fraction(1, 3)]
    assert residual(where, caps).cut(range(3)) == ([1, 2], [True, True, False], Fraction(7, 3))
    assert residual(where, [None] * 3).cut(range(3)) == ([], [], None)
    assert residual((1, 0, 0, [], []), []).cut([]) == ([], [], None)
    # a closed arc is no arc: with arc 1 closed, the cut is arc 2 alone
    r = Residual(*where)
    r.set_caps([0, 2], [caps[0], caps[2]])
    assert r.cut([0, 2]) == ([2], [True, True, False], Fraction(1, 3))


def test_adapter_matches_indexed_core():
    for seed in range(100):
        g = random_flow_graph(seed)
        index = {v: i for i, v in enumerate(g.nodes)}
        where = (
            len(g.nodes), index[g.source], index[g.sink],
            [index[a.src] for a in g.arcs], [index[a.dst] for a in g.arcs],
        )
        every = range(len(g.arcs))
        crossing, reached, cost = residual(where, [a.capacity for a in g.arcs]).cut(every)
        cut = min_cut(g)
        assert cut.cost == cost, seed
        assert cut.cut_arcs == {g.arcs[i].id for i in crossing}, seed
        assert cut.source_side == {v for v, r in zip(g.nodes, reached) if r}, seed


# -- runs of cuts on one residual graph ---------------------------------------

def rational(rng):
    return Fraction(rng.randint(0, 30), rng.randint(1, 13))


def rational_suite():
    """The rational suite as ``Residual`` arguments: (n, source, sink,
    tails, heads) and the capacities."""
    for seed in range(300):
        g = random_flow_graph(seed, max_arcs=20, capacity=rational)
        index = {v: i for i, v in enumerate(g.nodes)}
        where = (
            len(g.nodes), index[g.source], index[g.sink],
            [index[a.src] for a in g.arcs], [index[a.dst] for a in g.arcs],
        )
        yield seed, where, [a.capacity for a in g.arcs]


def assert_maximum_flow(where, caps, r, cost):
    """The residual's flow is conserved at every node but the source and the
    sink, lies within each arc's capacity (closed arcs, capacity 0, carry
    nothing), and its value is the cost."""
    n, source, sink, tails, heads = where
    ints, scale = r.room[1::2], r.scale
    assert len(ints) == len(caps)
    assert scale % math.lcm(*(c.denominator for c in caps if c is not None)) == 0
    net = [0] * n
    for u, v, c, f in zip(tails, heads, caps, ints):
        assert type(f) is int and 0 <= f
        assert c is None or Fraction(f, scale) <= c
        net[u] -= f
        net[v] += f
    assert all(x == 0 for i, x in enumerate(net) if i not in (source, sink))
    assert Fraction(-net[source], scale) == cost == Fraction(r.total, scale)


def test_returned_flow_is_a_maximum_flow():
    finite = 0
    for seed, where, caps in rational_suite():
        r = residual(where, caps)
        cost = r.cut(range(len(caps)))[2]
        if cost is not None:
            assert_maximum_flow(where, caps, r, cost)
            finite += 1
    assert finite >= 200


def test_restart_from_the_returned_flow_changes_nothing():
    finer = 0
    for seed, where, caps in rational_suite():
        every = range(len(caps))
        r = residual(where, caps)
        result = r.cut(every)
        if result[2] is None:
            continue
        ints, scale = r.room[1::2], r.scale
        assert r.cut(every) == result, seed
        assert (r.room[1::2], r.scale) == (ints, scale), seed
        # Raising an arc that does not cross the cut by 1/17 keeps the flow
        # maximum; 17 divides no scale here, so the flow is multiplied up.
        crossing = result[0]
        i = next((i for i, c in enumerate(caps) if c is not None and i not in crossing), None)
        if i is not None:
            r.set_caps([i], [caps[i] + Fraction(1, 17)])
            assert r.cut(every) == result, seed
            assert (r.room[1::2], r.scale) == ([17 * f for f in ints], 17 * scale), seed
            finer += 1
    assert finer >= 200


def test_warm_start_after_raised_capacities_matches_a_cold_start():
    # Raised to a Fraction with a new denominator, or lifted to no limit:
    # the old maximum flow still fits, and the warm cut is the cold one.
    rng = random.Random(0)
    augmented = 0
    for seed, where, caps in rational_suite():
        every = range(len(caps))
        r = residual(where, caps)
        first, first_scale = r.cut(every), r.scale
        if first[2] is None:
            continue
        raised = [
            c if c is None or rng.random() < 0.6
            else None if rng.random() < 0.25
            else c + Fraction(rng.randint(0, 20), rng.randint(1, 17))
            for c in caps
        ]
        changed = [i for i, (c, d) in enumerate(zip(caps, raised)) if c != d]
        r.set_caps(changed, [raised[i] for i in changed])
        warm = r.cut(every)
        cold = residual(where, raised)
        assert warm == cold.cut(every), seed
        if warm[2] is not None:
            assert_maximum_flow(where, raised, r, warm[2])
            # the old scale is multiplied up, never rounded
            assert r.scale == math.lcm(cold.scale, first_scale), seed
        augmented += warm[2] != first[2]
    assert augmented >= 50


def test_one_update_of_every_arc_matches_one_update_per_arc():
    # One set_caps rescales at most once, to the lcm of all its denominators:
    # the scale, the rooms and the cut are those of one call per arc, before
    # any flow and again when raising arcs that carry flow.
    rng = random.Random(2)
    for seed, where, caps in rational_suite():
        every = range(len(caps))
        together, apart = Residual(*where), Residual(*where)
        for new in (caps, [c if c is None else c + rational(rng) for c in caps]):
            together.set_caps(list(every), new)
            for i, c in enumerate(new):
                apart.set_caps([i], [c])
            assert (together.scale, together.room) == (apart.scale, apart.room), seed
            assert together.cut(every) == apart.cut(every), seed
            assert (together.room, together.total) == (apart.room, apart.total), seed


def test_one_update_rescales_to_the_lcm_of_its_denominators():
    # s -> m at 1/2, 1/3, 1/5 and 1/7 with m -> t unlimited, then s -> t at
    # 1/11 and 1/13 opened beside the flow the first cut left
    arcs = [Arc("mt", "m", "t", None)]
    arcs += [Arc(f"sm{d}", "s", "m", Fraction(1, d)) for d in (2, 3, 5, 7)]
    arcs += [Arc(f"st{d}", "s", "t", Fraction(1, d)) for d in (11, 13)]
    g = FlowGraph(("s", "m", "t"), "s", "t", tuple(arcs))
    r = Residual(3, 0, 2, [1, 0, 0, 0, 0, 0, 0], [2, 1, 1, 1, 1, 2, 2])
    r.set_caps([0, 1, 2, 3, 4], [a.capacity for a in arcs[:5]])
    assert r.scale == 210
    assert r.cut(range(5))[2] == Fraction(247, 210)
    r.set_caps([5, 6], [arcs[5].capacity, arcs[6].capacity])
    assert r.scale == 30030
    cost = r.cut(range(7))[2]
    assert cost == brute_min_cut_cost(g) == Fraction(247, 210) + Fraction(1, 11) + Fraction(1, 13)


def test_capacity_below_its_flow_is_an_error():
    # One capacity set below its arc's flow is refused, naming the arc.
    refused = 0
    for seed, where, caps in rational_suite():
        every = range(len(caps))
        r = residual(where, caps)
        if r.cut(every)[2] is None:
            continue
        i = next((i for i, f in enumerate(r.room[1::2]) if f), None)
        if i is not None:
            message = f"^arc {i} carries flow above its new capacity$"
            with pytest.raises(RuntimeError, match=message):
                r.set_caps([i], [Fraction(r.room[2 * i + 1], 2 * r.scale)])
            refused += 1
    assert refused >= 140  # 144 of the 300 carry a positive flow


def test_opened_and_closed_arcs_match_a_cold_start():
    # Random runs of opens, raises and closes (capacity 0) of empty arcs: each
    # cut is the cold cut of the open arcs, and an arc that carries flow
    # cannot close.
    rng = random.Random(1)
    refused = closed = 0
    for seed, where, caps in rational_suite():
        r = Residual(*where)
        live = {}
        for _ in range(4):
            shut = [i for i in live if not r.room[2 * i + 1] and rng.random() < 0.3]
            r.set_caps(shut, [0] * len(shut))
            for i in shut:
                del live[i]
            closed += len(shut)
            busy = [i for i in live if r.room[2 * i + 1]]
            if busy:
                with pytest.raises(RuntimeError, match="carries flow"):
                    r.set_caps(busy[:1], [0])
                refused += 1
            opened = [i for i in range(len(caps)) if i not in live and rng.random() < 0.5]
            r.set_caps(opened, [caps[i] for i in opened])
            live.update((i, caps[i]) for i in opened)
            up = {i: c + Fraction(1, rng.randint(1, 9))
                  for i, c in live.items() if c is not None and rng.random() < 0.3}
            r.set_caps(list(up), list(up.values()))
            live.update(up)
            cold = Residual(*where)
            cold.set_caps(list(live), [live[i] for i in live])
            assert r.cut(sorted(live)) == cold.cut(sorted(live)), seed
    assert refused >= 400 and closed >= 1000  # 450 refused, 1,374 closed


# -- unbounded rooms past float range -----------------------------------------

PRIMES = [p for p in range(2, 1224) if all(p % d for d in range(2, int(p**0.5) + 1))]


def test_unbounded_rooms_beside_a_scale_past_float_range():
    # Rooms are in units of 1/scale, here the product of the first 200 primes
    # times 10**400, far past float range, beside math.inf rooms: every
    # rescale, the augmentations through m -> t and the raise to no limit do
    # exact arithmetic.
    assert len(PRIMES) == 200
    arcs = [Arc("ut", "u", "t", None), Arc("mt", "m", "t", None)]
    arcs += [Arc(f"p{p}", "s", "m", Fraction(1, p)) for p in PRIMES]
    arcs += [Arc("tiny", "s", "u", Fraction(1, 10**400)), Arc("su", "s", "u", Fraction(3))]
    g = FlowGraph(("s", "m", "u", "t"), "s", "t", tuple(arcs))
    cut = min_cut(g)
    assert cut.cost == brute_min_cut_cost(g) == sum(Fraction(1, p) for p in PRIMES) + Fraction(
        1, 10**400) + 3
    assert cut.cut_arcs == {a.id for a in arcs if a.src == "s"}

    index = {v: i for i, v in enumerate(g.nodes)}
    where = (4, 0, 3, [index[a.src] for a in arcs], [index[a.dst] for a in arcs])
    every = range(len(arcs))
    caps = [a.capacity for a in arcs]
    r = residual(where, caps)
    assert r.scale > 10**700
    # m -> t limited above its flow with a new prime denominator (a rescale),
    # then an s -> m arc that carries flow without a limit, then m -> t raised
    # further; each of the last two augments by more than 1e308 units.
    grown = []
    for pick, cap in ((lambda: 1, 4 + Fraction(1, 1229)),
                      (lambda: next(i for i in range(2, 202) if r.room[2 * i + 1]), None),
                      (lambda: 1, Fraction(5))):
        before = r.cut(every)[2]
        i = pick()
        r.set_caps([i], [cap])
        caps[i] = cap
        brute = brute_min_cut_cost(replace(g, arcs=tuple(
            replace(a, capacity=c) for a, c in zip(arcs, caps))))
        cost = r.cut(every)[2]
        assert cost == brute == residual(where, caps).cut(every)[2]
        assert_maximum_flow(where, caps, r, cost)
        grown.append((cost - before) * r.scale)
    assert r.scale % 1229 == 0
    assert grown[0] == 0 and all(x > sys.float_info.max for x in grown[1:])
