import random
from dataclasses import replace
from fractions import Fraction

import pytest

from kgreedy.crashing import (
    cost_ratio_bound,
    decompose,
    greedy_crash,
    verify_trace,
)
from kgreedy.errors import (
    ConvexNotSupportedError,
    NotCrashableError,
    NotKCrashingError,
)
from kgreedy.generators import (
    RandomNetSpec,
    counterexample_network,
    random_network,
    with_convex_schedules,
)
from kgreedy.network import (
    Edge,
    Plan,
    ProjectNetwork,
    apply_plan,
    duration,
    k_max,
    linear_schedule,
)
from kgreedy.oracle import exact_crash_cost
from support import (
    brute_duration,
    critical_graph,
    edge_ids,
    failures,
    full_plan,
    merge,
    plan_cost,
    reference_decompose,
    reference_greedy,
    reference_verify,
    removing_disconnects,
)


def small_nets(count=60):
    for seed in range(count):
        yield random_network(RandomNetSpec(node_count=4 + seed % 2, edge_count=7, seed=seed))


def one_day(net):
    """The greedy's first day, a cheapest one-day plan, as (plan, cost)."""
    result = greedy_crash(net, 1)
    return result.plan, result.total_cost


class TestOptimalOneCrash:
    def test_counterexample_first_step(self):
        plan, cost = one_day(counterexample_network())
        assert plan == Plan({"j3": 1})
        assert cost == 9

    def test_counterexample_second_step(self):
        net = apply_plan(counterexample_network(), Plan({"j3": 1}))
        plan, cost = one_day(net)
        assert plan == Plan({"j1": 1, "j2": 1})
        assert cost == 19

    def test_single_edge(self):
        e = Edge("e", "s", "t", 1, 3, linear_schedule(5, 2))
        net = ProjectNetwork(("s", "t"), "s", "t", (e,))
        assert one_day(net) == (Plan({"e": 1}), Fraction(5))

    def test_rigid_network_not_crashable(self):
        e = Edge("e", "s", "t", 3, 3, ())
        with pytest.raises(NotCrashableError):
            one_day(ProjectNetwork(("s", "t"), "s", "t", (e,)))

    def test_jobless_network_not_crashable(self):
        with pytest.raises(NotCrashableError):
            one_day(ProjectNetwork(("s",), "s", "s", ()))

    def test_reduces_duration_by_exactly_one(self):
        for net in small_nets(40):
            if k_max(net) < 1:
                continue
            plan, _ = one_day(net)
            assert duration(apply_plan(net, plan)) == duration(net) - 1


class TestGreedyCrash:
    def test_counterexample_total(self):
        result = greedy_crash(counterexample_network(), 2)
        assert result.total_cost == 28
        assert [sorted(s.edges) for s in result.steps] == [["j3"], ["j1", "j2"]]
        assert result.durations == (8, 7)

    def test_infeasible_k_reports_failing_iteration(self):
        net = counterexample_network()
        day = k_max(net) + 1
        with pytest.raises(NotCrashableError, match=f"day {day} cannot be saved"):
            greedy_crash(net, 99)

    def test_accumulated_plan_is_i_crashing_each_step(self):
        for net in small_nets(20):
            km = min(3, k_max(net))
            if km < 1:
                continue
            result = greedy_crash(net, km)
            base = duration(net)
            partial = Plan()
            for i, step in enumerate(result.steps, start=1):
                partial = merge(partial, Plan({e: 1 for e in step.edges}))
                assert duration(apply_plan(net, partial)) == base - i
                assert result.durations[i - 1] == brute_duration(apply_plan(net, partial))

    def test_total_cost_equals_plan_cost(self):
        for net in small_nets(20):
            km = min(3, k_max(net))
            if km < 1:
                continue
            result = greedy_crash(net, km)
            assert result.total_cost == sum((s.cost for s in result.steps), Fraction(0))
            assert result.total_cost == plan_cost(net, result.plan)

    def test_within_harmonic_factor_of_oracle(self):
        for net in small_nets(40):
            for k in range(1, min(3, k_max(net)) + 1):
                greedy = greedy_crash(net, k).total_cost
                _, opt = exact_crash_cost(net, k)
                assert greedy <= cost_ratio_bound(k) * opt

    def test_convex_schedules_within_bound(self):
        for seed in range(40):
            net = with_convex_schedules(
                random_network(RandomNetSpec(node_count=5, edge_count=8, seed=seed)),
                seed=seed + 1000,
            )
            if k_max(net) < 2:
                continue
            result = greedy_crash(net, 2)
            # marginal step costs must add up to the plan's prefix-sum cost
            assert result.total_cost == plan_cost(net, result.plan)
            _, opt = exact_crash_cost(net, 2)
            assert result.total_cost <= cost_ratio_bound(2) * opt

    def test_convex_marginals_switch_edges(self):
        # day one of e1 is cheap, day two is prohibitive: the second greedy
        # step must move to e2 and match the exact optimum
        e1 = Edge("e1", "s", "u", 0, 2, (Fraction(1), Fraction(100)))
        e2 = Edge("e2", "u", "t", 0, 2, (Fraction(3), Fraction(3)))
        net = ProjectNetwork(("s", "u", "t"), "s", "t", (e1, e2))
        result = greedy_crash(net, 2)
        assert [sorted(s.edges) for s in result.steps] == [["e1"], ["e2"]]
        assert result.total_cost == 4
        assert exact_crash_cost(net, 2)[1] == 4

    def test_exact_cost_at_least_k_times_one_step(self):
        # the key lower bound: any k-day plan costs at least k single steps
        for net in small_nets(40):
            km = min(3, k_max(net))
            if km < 1:
                continue
            _, one = one_day(net)
            for k in range(1, km + 1):
                _, opt = exact_crash_cost(net, k)
                assert opt >= k * one


def reference_suite(count=300):
    """Seeded random networks with 3-7 nodes, each as drawn, with convex
    schedules, and with each edge's costs divided by its own 2..7."""
    for seed in range(count):
        nodes = 3 + seed % 5
        spec = RandomNetSpec(
            node_count=nodes, edge_count=nodes - 1 + seed % 7, max_crashable=3, seed=seed
        )
        net = random_network(spec)
        rng = random.Random(seed)
        scaled = tuple(
            e._replace(cost_schedule=tuple(c / rng.randint(2, 7) for c in e.cost_schedule))
            for e in net.edges
        )
        yield net
        yield with_convex_schedules(net, seed=seed + 1000)
        yield replace(net, edges=scaled)


class TestGreedyMatchesReference:
    def test_every_k_matches_the_one_day_pieces(self):
        for net in reference_suite():
            top = k_max(net)
            days = reference_greedy(net, top + 1)
            assert len(days) == top
            for k in range(1, top + 1):
                result = greedy_crash(net, k)
                assert [(s.edges, s.cost) for s in result.steps] == [d[:2] for d in days[:k]]
                assert result.durations == tuple(d[2] for d in days[:k])
                assert result.plan == days[k - 1][3]
                assert result.total_cost == sum((d[1] for d in days[:k]), Fraction(0))
            message = f"no {top + 1}-day plan exists: day {len(days) + 1} cannot be saved"
            with pytest.raises(NotCrashableError, match=message):
                greedy_crash(net, top + 1)


def cut_ids(net, level):
    """The level's cut edges by id."""
    return {net.edges[j].id for j in level.cut}


def positions(net, *names):
    """The named edges' positions."""
    ids = edge_ids(net)
    return frozenset(ids.index(name) for name in names)


class TestDecompose:
    def test_counterexample_trace(self):
        net = counterexample_network()
        trace = decompose(net, Plan({"j1": 1, "j5": 1}), 2)
        assert trace.network == net
        cuts = [cut_ids(net, level) for level in trace.levels]
        assert sorted(map(sorted, cuts)) == [["j1"], ["j5"]]
        assert [level.cut_cost for level in trace.levels] == [10, 10]
        assert trace.levels[0].cut_cost <= trace.levels[1].cut_cost

    def test_single_level_is_cheapest_cut_within_plan(self):
        net = counterexample_network()
        trace = decompose(net, Plan({"j1": 1, "j5": 1}), 1)
        assert len(trace.levels) == 1
        level = trace.levels[0]
        assert level.cut <= positions(net, "j1", "j5")
        assert level.cut_cost == 10
        critical = ProjectNetwork(
            net.nodes, net.source, net.sink, tuple(net.edges[j] for j in level.critical)
        )
        assert removing_disconnects(critical, cut_ids(net, level))

    def test_rejects_insufficient_plan(self):
        with pytest.raises(NotKCrashingError):
            decompose(counterexample_network(), Plan({"j3": 1}), 2)

    def test_rejects_convex_schedules(self):
        e = Edge("e", "s", "t", 1, 3, (Fraction(2), Fraction(5)))
        net = ProjectNetwork(("s", "t"), "s", "t", (e,))
        with pytest.raises(ConvexNotSupportedError):
            decompose(net, Plan({"e": 2}), 2)

    def test_overcrashing_plan_accepted_at_stated_k(self):
        net = counterexample_network()
        plan, _ = exact_crash_cost(net, 3)
        trace = decompose(net, plan, 2)
        assert len(trace.levels) == 2
        assert verify_trace(trace).passed

    def test_residual_plans_shrink_by_cut_units(self):
        net = counterexample_network()
        plan, _ = exact_crash_cost(net, 3)
        trace = decompose(net, plan, 3)
        assert trace.levels[0].remaining == tuple(plan.amounts.get(e, 0) for e in edge_ids(net))
        for cur, nxt in zip(trace.levels, trace.levels[1:]):
            assert nxt.remaining == tuple(x - (j in cur.cut) for j, x in enumerate(cur.remaining))
            assert nxt.lengths == tuple(x - (j in cur.cut) for j, x in enumerate(cur.lengths))

    def test_edge_that_left_the_critical_graph_stays_out(self):
        # b is shorter than a, so level 1 keeps a alone and cuts it.  After
        # the cut b ties a again, but level 2 looks only at level 1's
        # critical edges, so b stays out of it and out of its cut.
        a = Edge("a", "s", "t", 0, 3, linear_schedule(1, 3))
        b = Edge("b", "s", "t", 0, 2, linear_schedule(1, 2))
        net = ProjectNetwork(("s", "t"), "s", "t", (a, b))
        assert edge_ids(critical_graph(apply_plan(net, Plan({"a": 1})))) == ("a", "b")
        plan = Plan({"a": 2, "b": 1})
        trace = decompose(net, plan, 2)
        assert [level.critical for level in trace.levels] == [(0,), (0,)]
        assert [level.cut for level in trace.levels] == [{0}, {0}]
        assert trace.levels[1].lengths == (2, 2)
        reference = reference_decompose(net, plan, 2)
        assert edge_ids(reference[1].critical) == ("a",)
        assert verify_trace(trace).passed


def _named_levels(net, trace):
    """Each level's critical edges, lengths, plan left, cut, cost and
    source side, by name."""
    ids = edge_ids(net)
    return [
        (
            tuple(ids[j] for j in level.critical),
            {ids[j]: level.lengths[j] for j in level.critical},
            Plan({ids[j]: x for j, x in enumerate(level.remaining)}),
            {ids[j] for j in level.cut},
            level.cut_cost,
            {v for v, r in zip(net.nodes, level.reached) if r},
        )
        for level in trace.levels
    ]


def _reference_named_levels(levels):
    return [
        (
            edge_ids(level.critical),
            {e.id: e.normal_len for e in level.critical.edges},
            level.remaining_plan,
            level.cut,
            level.cut_cost,
            level.source_side,
        )
        for level in levels
    ]


def _report(trace):
    return [(c.name, c.level, c.passed, c.detail) for c in verify_trace(trace).checks]


class TestDecomposeMatchesReference:
    def test_levels_and_reports_match_the_named_path(self):
        # greedy plans for every k, the full plan at k_max and at a random
        # k; then one level's cut swapped for a random edge set in both
        rng = random.Random(0)
        traces = 0
        for seed in range(150):
            nodes = 4 + seed % 4
            net = random_network(RandomNetSpec(
                node_count=nodes, edge_count=nodes + seed % 6, max_crashable=3, seed=seed
            ))
            top = k_max(net)
            if top < 1:
                continue
            cases = [(greedy_crash(net, k).plan, k) for k in range(1, top + 1)]
            cases += [(full_plan(net), top), (full_plan(net), rng.randint(1, top))]
            for plan, k in cases:
                trace = decompose(net, plan, k)
                reference = reference_decompose(net, plan, k)
                assert _named_levels(net, trace) == _reference_named_levels(reference), seed
                assert _report(trace) == reference_verify(reference), seed

                i = rng.randrange(k)
                cut = frozenset(rng.sample(range(len(net.edges)), rng.randint(0, 3)))
                tampered = list(trace.levels)
                tampered[i] = replace(tampered[i], cut=cut)
                reference[i] = replace(reference[i], cut=frozenset(net.edges[j].id for j in cut))
                tampered_trace = replace(trace, levels=tuple(tampered))
                assert _report(tampered_trace) == reference_verify(reference), seed
                traces += 1
        assert traces >= 300


class TestVerifyTrace:
    def test_counterexample_trace_passes(self):
        net = counterexample_network()
        trace = decompose(net, Plan({"j1": 1, "j5": 1}), 2)
        report = verify_trace(trace)
        assert report.passed
        assert failures(report) == ()

    def test_cut_that_does_not_disconnect_fails(self):
        # j2 is in the greedy plan but off the critical path j1, j3, j5.
        net = counterexample_network()
        trace = decompose(net, greedy_crash(net, 2).plan, 2)
        tampered = replace(trace.levels[0], cut=positions(net, "j2"))
        report = verify_trace(replace(trace, levels=(tampered,) + trace.levels[1:]))
        assert not report.passed
        assert ("cut-disconnects", 1) in [(c.name, c.level) for c in failures(report)]

    def test_changed_cut_is_checked_as_it_stands(self):
        # Level 1 cuts j1, and level 2's partition keeps j1 on its source
        # side; a level-2 cut {j1, j3} puts j1 in both the shared and the
        # behind part of the level-1 cut, so that cut is not partitioned.
        net = counterexample_network()
        trace = decompose(net, Plan({"j1": 1, "j5": 1}), 2)
        tampered = replace(trace.levels[1], cut=positions(net, "j1", "j3"))
        report = verify_trace(replace(trace, levels=trace.levels[:1] + (tampered,)))
        assert ("cur-cut-partitioned", 1) in [(c.name, c.level) for c in failures(report)]

    def test_shared_cut_edge_must_cross_both_partitions(self):
        # Levels 1 and 2 of the optimal 3-day plan both cut j1 (1 -> 2);
        # putting node 2 on level 2's source side leaves j1 in both cuts
        # without crossing level 2's partition.
        net = counterexample_network()
        plan, _ = exact_crash_cost(net, 3)
        trace = decompose(net, plan, 3)
        j1 = positions(net, "j1")
        assert trace.levels[0].cut == trace.levels[1].cut == j1
        assert verify_trace(trace).passed
        reached = list(trace.levels[1].reached)
        reached[net.nodes.index("2")] = True
        tampered = replace(trace.levels[1], reached=tuple(reached))
        levels = (trace.levels[0], tampered, trace.levels[2])
        report = verify_trace(replace(trace, levels=levels))
        assert ("shared-classes-equal", 1) in [(c.name, c.level) for c in failures(report)]

    def test_random_oracle_plans_all_pass(self):
        # 200 seeded instances, oracle-optimal plans, every claim checked
        checked = 0
        seed = 0
        while checked < 200:
            net = random_network(
                RandomNetSpec(node_count=4 + seed % 2, edge_count=7, max_crashable=2, seed=seed)
            )
            seed += 1
            km = min(3, k_max(net))
            if km < 1:
                continue
            for k in range(1, km + 1):
                plan, _ = exact_crash_cost(net, k)
                report = verify_trace(decompose(net, plan, k))
                assert report.passed, failures(report)
                checked += 1

    def test_greedy_plans_also_decompose_cleanly(self):
        for net in small_nets(30):
            km = min(3, k_max(net))
            if km < 1:
                continue
            result = greedy_crash(net, km)
            report = verify_trace(decompose(net, result.plan, km))
            assert report.passed, failures(report)
