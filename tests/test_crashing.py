import random
from dataclasses import replace
from fractions import Fraction

import pytest

from kgreedy import flow
from kgreedy.crashing import (
    cost_ratio_bound,
    decompose,
    greedy_crash,
    verify_trace,
)
from kgreedy.errors import NotCrashableError, NotKCrashingError, PlanOutOfBoundsError
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
    _slacks,
    apply_plan,
    duration,
    is_k_crashing,
    k_max,
    linear_schedule,
    network_from_json,
    network_to_json,
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
    reference_validate,
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
    schedules, and with each edge's costs divided by its own 2..7, all valid."""
    for seed in range(count):
        net = _reference_draw(seed)
        rng = random.Random(seed)
        scaled = tuple(
            e._replace(cost_schedule=tuple(c / d for c in e.cost_schedule))
            for e, d in zip(net.edges, [rng.randint(2, 7) for _ in net.edges])
        )
        for valid in (net, with_convex_schedules(net, seed=seed + 1000), replace(net, edges=scaled)):
            reference_validate(valid)
            yield valid


def decreasing_suite(count=300):
    """``reference_suite``'s draws with each day's cost divided by its own
    2..7, which mostly gives decreasing schedules that loading rejects."""
    for seed in range(count):
        net = _reference_draw(seed)
        rng = random.Random(seed)
        yield replace(net, edges=tuple(
            e._replace(cost_schedule=tuple(c / rng.randint(2, 7) for c in e.cost_schedule))
            for e in net.edges
        ))


def _reference_draw(seed):
    nodes = 3 + seed % 5
    return random_network(RandomNetSpec(
        node_count=nodes, edge_count=nodes - 1 + seed % 7, max_crashable=3, seed=seed
    ))


def layered_nets(count=6):
    """Seeded networks on which every edge is critical: three layers of three
    or four nodes between the source and the sink, the jobs between two
    consecutive layers sharing one normal length.  Each layer node feeds its
    own column and the next one in the following layer.  Even seeds get
    constant rational costs, odd seeds convex ones."""
    for seed in range(count):
        rng = random.Random(seed)
        width = 3 + seed % 2
        layers = [["s"], *([f"v{d}_{i}" for i in range(width)] for d in range(3)), ["t"]]
        edges = []
        for here, there in zip(layers, layers[1:]):
            normal = rng.randint(2, 4)
            pairs = (
                [(u, v) for u in here for v in there] if len(here) == 1 or len(there) == 1
                else [(u, there[(i + step) % width]) for i, u in enumerate(here) for step in (0, 1)]
            )
            for u, v in pairs:
                days = rng.randint(normal - 1, normal)
                costs = [Fraction(rng.randint(1, 30), rng.randint(1, 7)) for _ in range(days)]
                schedule = tuple(sorted(costs)) if seed % 2 else linear_schedule(costs[0], days)
                edges.append(Edge(f"e{len(edges)}", u, v, normal - days, normal, schedule))
        yield ProjectNetwork(tuple(v for layer in layers for v in layer), "s", "t", tuple(edges))


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

    def test_decreasing_schedules_match_or_raise(self):
        # Outside the loader's contract a capacity can fall below its flow,
        # which the residual refuses; the greedy never returns another answer.
        raised = matched = 0
        for net in decreasing_suite():
            top = k_max(net)
            days = reference_greedy(net, top)
            refused = False
            for k in range(1, top + 1):
                try:
                    result = greedy_crash(net, k)
                except RuntimeError as error:
                    assert "carries flow above its new capacity" in str(error)
                    refused = True
                    continue
                assert [(s.edges, s.cost) for s in result.steps] == [d[:2] for d in days[:k]]
                assert result.durations == tuple(d[2] for d in days[:k])
                assert result.plan == days[k - 1][3]
            raised += refused
            matched += not refused
        assert raised >= 100 and matched >= 100  # 166 raise, 134 match

    def test_layered_networks_match_for_every_k(self):
        for net in layered_nets():
            top = k_max(net)
            days = reference_greedy(net, top)
            assert len(days) == top >= 3
            for k in range(1, top + 1):
                result = greedy_crash(net, k)
                steps = [(s.edges, s.cost, d) for s, d in zip(result.steps, result.durations)]
                assert steps == [d[:3] for d in days[:k]]
                assert result.plan == days[k - 1][3]


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

    @pytest.mark.parametrize("amounts", [{"zz": 1}, {"j1": 1, "j3": 99}, {"zz": 1, "j3": 99}])
    def test_out_of_bounds_plan_raises_apply_plans_message(self, amounts):
        # is_k_crashing checks the plan without building the crashed network;
        # decompose and it must still fail as apply_plan does
        net, plan = counterexample_network(), Plan(amounts)
        with pytest.raises(PlanOutOfBoundsError) as want:
            apply_plan(net, plan)
        for check in (lambda: is_k_crashing(net, plan, 1), lambda: decompose(net, plan, 1)):
            with pytest.raises(PlanOutOfBoundsError) as got:
                check()
            assert str(got.value) == str(want.value)

    def test_convex_levels_price_each_unit_at_its_own_entry(self):
        # test_convex_marginals_switch_edges's network: e1's first day costs
        # 1 and its second 100, e2's days cost 3 each
        e1 = Edge("e1", "s", "u", 0, 2, (Fraction(1), Fraction(100)))
        e2 = Edge("e2", "u", "t", 0, 2, (Fraction(3), Fraction(3)))
        net = ProjectNetwork(("s", "u", "t"), "s", "t", (e1, e2))
        for plan, cuts, costs in [
            (Plan({"e1": 2}), [{"e1"}, {"e1"}], [1, 100]),
            (Plan({"e1": 2, "e2": 2}), [{"e1"}, {"e2"}], [1, 3]),
        ]:
            trace = decompose(net, plan, 2)
            assert [cut_ids(net, level) for level in trace.levels] == cuts
            assert [level.cut_cost for level in trace.levels] == costs
            assert verify_trace(trace).passed

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

    def test_reference_suite_matches_for_every_k(self):
        # linear, convex and rational networks; greedy and exact plans for
        # every k, and the full plan: every trace passes
        for net in reference_suite(150):
            top = k_max(net)
            if top < 1:
                continue
            cases = [(full_plan(net), top)]
            for k in range(1, top + 1):
                cases += [(greedy_crash(net, k).plan, k), (exact_crash_cost(net, k)[0], k)]
            for plan, k in cases:
                trace = decompose(net, plan, k)
                reference = reference_decompose(net, plan, k)
                assert _named_levels(net, trace) == _reference_named_levels(reference)
                report = _report(trace)
                assert report == reference_verify(reference)
                assert all(passed for _, _, passed, _ in report)

    def test_layered_networks_match_for_every_k(self):
        for net in layered_nets():
            top = k_max(net)
            cases = [(greedy_crash(net, k).plan, k) for k in range(1, top + 1)]
            for plan, k in cases + [(full_plan(net), top)]:
                trace = decompose(net, plan, k)
                reference = reference_decompose(net, plan, k)
                assert _named_levels(net, trace) == _reference_named_levels(reference)
                assert _report(trace) == reference_verify(reference)


def flow_value(residual):
    """The net flow out of the source, summed from each arc's flow."""
    ints, tails, heads, source = residual.room[1::2], residual.tails, residual.heads, residual.source
    out = sum(f for f, u in zip(ints, tails) if u == source)
    back = sum(f for f, v in zip(ints, heads) if v == source)
    return Fraction(out - back, residual.scale)


def record_cuts(monkeypatch, tamper=lambda residual, open_arcs: None):
    """Wrap ``Residual.cut`` so that each call appends (the residual, the
    flow's value before the call, the cost) to the returned list; ``tamper``
    may change the residual after each call, given the open arcs."""
    calls = []
    cut = flow.Residual.cut

    def recording(residual, open_arcs):
        start = flow_value(residual)
        result = cut(residual, open_arcs)
        calls.append((residual, start, result[2]))
        tamper(residual, open_arcs)
        return result

    monkeypatch.setattr(flow.Residual, "cut", recording)
    return calls


def test_each_day_and_level_starts_from_the_previous_maximum_flow(monkeypatch):
    calls = record_cuts(monkeypatch)
    warm = 0
    for net in [*layered_nets(), *small_nets(20)]:
        top = k_max(net)
        if top < 2:
            continue
        for run in [lambda: greedy_crash(net, top), lambda: decompose(net, full_plan(net), top)]:
            calls.clear()
            run()
            # one residual graph per run, starting from zero flow
            assert len(calls) == top and len({id(c[0]) for c in calls}) == 1
            assert calls[0][1] == 0
            for (_, _, previous_cost), (_, start, _) in zip(calls, calls[1:]):
                assert start == previous_cost
                warm += start > 0
    assert warm >= 145  # 148 days and levels start from a positive flow


def detour_network():
    """Three equally long paths; the cheapest cut, of e1 and e3, leaves the
    zig-zag path s-x-y-t (e1, e2, e3) two days shorter, so e2 leaves the
    critical graph after day one.  The maximum flow keeps e2 empty."""
    def job(name, u, v, normal, cost):
        return Edge(name, u, v, 0, normal, linear_schedule(cost, normal))

    return ProjectNetwork(("s", "x", "y", "t"), "s", "t", (
        job("e1", "s", "x", 1, 1), job("e2", "x", "y", 1, 10), job("e3", "y", "t", 1, 1),
        job("e4", "s", "y", 2, 10), job("e5", "x", "t", 2, 10),
    ))


def test_flow_left_on_a_departing_edge_is_an_error(monkeypatch):
    net = detour_network()
    plan = Plan({"e1": 1, "e3": 1, "e4": 1, "e5": 1})
    assert [s.edges for s in greedy_crash(net, 2).steps] == [{"e1", "e3"}, {"e4", "e5"}]
    assert verify_trace(decompose(net, plan, 2)).passed

    def load_every_arc(residual, open_arcs):
        # one unit more on every open arc that carries nothing, e2 among them
        for i in open_arcs:
            if not residual.room[2 * i + 1]:
                residual.room[2 * i] -= 1
                residual.room[2 * i + 1] = 1

    record_cuts(monkeypatch, load_every_arc)
    with pytest.raises(RuntimeError, match="carries flow above its new capacity"):
        greedy_crash(net, 2)
    with pytest.raises(RuntimeError, match="carries flow above its new capacity"):
        decompose(net, plan, 2)


def test_no_loader_accepted_project_sets_a_capacity_below_its_flow():
    # Non-decreasing schedules only raise capacities and close empty edges,
    # so no greedy day or decomposition level of a project the loader
    # accepts raises, and every trace passes.
    pairs = 0
    for seed in range(500):
        nodes = 3 + seed % 7
        linear = random_network(RandomNetSpec(
            node_count=nodes, edge_count=nodes - 1 + seed % 9, max_crashable=1 + seed % 5,
            seed=seed,
        ))
        for drawn in (linear, with_convex_schedules(linear, seed=seed)):
            net = network_from_json(network_to_json(drawn))
            for k in range(1, k_max(net) + 1):
                for plan in (greedy_crash(net, k).plan, exact_crash_cost(net, k)[0]):
                    report = verify_trace(decompose(net, plan, k))
                    assert report.passed, (seed, k, failures(report))
                pairs += 1
    assert pairs >= 5000  # 5,278 (network, k) pairs over 1,000 networks


def test_a_day_that_saves_more_than_one_day_is_an_error(monkeypatch):
    # Cutting every open arc of a three-edge chain saves three days at once,
    # which no minimum cut does; the next day's duration check catches it.
    net = ProjectNetwork(("s", "x", "y", "t"), "s", "t", tuple(
        Edge(f"e{i}", u, v, 0, 2, linear_schedule(1, 2))
        for i, (u, v) in enumerate((("s", "x"), ("x", "y"), ("y", "t")))
    ))
    assert greedy_crash(net, 2).durations == (5, 4)
    cut = flow.Residual.cut

    def every_open_arc(residual, open_arcs):
        _, reached, cost = cut(residual, open_arcs)
        return list(open_arcs), reached, cost

    monkeypatch.setattr(flow.Residual, "cut", every_open_arc)
    with pytest.raises(RuntimeError, match="day 1 left a duration of 3, expected 5"):
        greedy_crash(net, 2)


def record_residuals(monkeypatch):
    """Replace ``flow.Residual`` with a subclass that logs its "set" and
    "cut" calls in ``events``; returns the list of residuals built."""
    built = []

    class Recording(flow.Residual):
        def __init__(self, *args):
            super().__init__(*args)
            self.events = []
            built.append(self)

        def set_caps(self, arcs, caps):
            self.events.append("set")
            super().set_caps(arcs, caps)

        def cut(self, open_arcs):
            self.events.append("cut")
            return super().cut(open_arcs)

    monkeypatch.setattr(flow, "Residual", Recording)
    return built


def test_decompose_holds_only_the_input_slack_zero_edges(monkeypatch):
    # On ``example`` the 4-day path s-a-t is critical, s-b-t (a day shorter)
    # turns critical after day 1, and e5 only three days later.  The greedy's
    # residual holds every edge of slack less than k, the decomposition's
    # only those of slack 0, and neither raises a capacity after its last cut.
    def job(name, u, v, normal, cost):
        return Edge(name, u, v, 0, normal, linear_schedule(cost, normal))

    example = ProjectNetwork(("s", "a", "b", "t"), "s", "t", (
        job("e1", "s", "a", 2, 1), job("e2", "a", "t", 2, 3),
        job("e3", "s", "b", 1, 1), job("e4", "b", "t", 2, 2), job("e5", "s", "t", 1, 1),
    ))
    built = record_residuals(monkeypatch)
    restricted = 0
    for net, k in [(example, 2), *((n, k_max(n)) for n in [*layered_nets(), *small_nets(40)])]:
        if k < 1:
            continue
        tails, heads, order, _, sink = net._index
        slack, _ = _slacks(order, tails, heads, [e.normal_len for e in net.edges],
                           len(net.nodes), sink)
        if net is example:
            assert slack == [0, 0, 1, 1, 3]
        near = [j for j, x in enumerate(slack) if x < k]
        zero = [j for j, x in enumerate(slack) if not x]
        built.clear()
        plans = [greedy_crash(net, k).plan, full_plan(net)]
        (greedy,) = built
        assert list(zip(greedy.tails, greedy.heads)) == [(tails[j], heads[j]) for j in near]
        assert greedy.events[-1] == "cut" and greedy.events.count("cut") == k
        for plan in plans:
            built.clear()
            trace = decompose(net, plan, k)
            (residual,) = built
            assert list(zip(residual.tails, residual.heads)) == [
                (tails[j], heads[j]) for j in zero
            ]
            assert residual.events[-1] == "cut" and residual.events.count("cut") == k
            assert trace.levels[0].critical == tuple(zero)
        restricted += len(zero) < len(near)
    assert restricted >= 10


def bypassed(net, length, cost):
    """``net`` with one more edge, "by", from the source straight to the
    sink: ``length`` days long, crashable to 0 at ``cost`` a day."""
    by = Edge("by", net.source, net.sink, 0, length, linear_schedule(cost, length))
    return replace(net, edges=net.edges + (by,))


def boundary_nets():
    """Two 7-day paths s-a-t and s-b-t and a shortcut a-b one day short, in
    linear, convex and rational versions.  The first crash day of e1 and of
    e3 costs 0, so the first day's cut costs 0."""
    def net(e1, e2, e3, e4):
        return ProjectNetwork(("s", "a", "b", "t"), "s", "t", (
            Edge("e1", "s", "a", 1, 3, e1), Edge("e2", "a", "t", 1, 4, e2),
            Edge("e3", "s", "b", 2, 4, e3), Edge("e4", "b", "t", 1, 3, e4),
            Edge("m", "a", "b", 0, 0, ()),
        ))

    f = Fraction
    yield "linear", net((f(0),) * 2, (f(3),) * 3, (f(0),) * 2, (f(4),) * 2), f(2)
    yield "convex", net((f(0), f(5)), (f(1), f(2), f(6)), (f(0), f(1)), (f(2), f(2))), f(4)
    yield "rational", net(
        (f(0), f(0)), (f(5, 3),) * 3, (f(0), f(0)), (f(7, 4),) * 2,
    ), f(10, 3)


def test_near_critical_edges_match_the_reference_at_every_boundary():
    # A bypass of slack k - 1 turns critical on day k and is in its cut, one
    # of slack k joins only the longest paths after day k, and one of slack
    # k + 1 never; the greedy keeps the edges of slack less than k.
    for name, net, cost in boundary_nets():
        top = k_max(net)
        assert top == 4, name
        assert reference_greedy(net, 1)[0][1] == 0, name
        base = duration(net)
        for k in range(1, top + 1):
            for slack in (k - 1, k, k + 1):
                case = bypassed(net, base - slack, cost)
                assert k_max(case) == top, (name, k, slack)
                days = reference_greedy(case, k)
                result = greedy_crash(case, k)
                steps = [(s.edges, s.cost, d) for s, d in zip(result.steps, result.durations)]
                assert steps == [d[:3] for d in days], (name, k, slack)
                assert result.plan == days[-1][3], (name, k, slack)
                in_cuts = [i for i, s in enumerate(result.steps, start=1) if "by" in s.edges]
                finally_critical = "by" in edge_ids(critical_graph(apply_plan(case, result.plan)))
                assert in_cuts == ([k] if slack == k - 1 else []), (name, k, slack)
                assert finally_critical == (slack <= k), (name, k, slack)


class TestVerifyTrace:
    @staticmethod
    def _fig2(edge_order):
        """The counterexample network, its edges listed in topological order
        or reversed, so that a sweep in edge order would reach nothing."""
        net = counterexample_network()
        return net if edge_order == "topological" else replace(net, edges=net.edges[::-1])

    @staticmethod
    def _with_critical(trace, level, extra):
        """The trace with the ``extra`` edge positions added to the critical
        edges of level ``level`` (from 1), listed in edge order."""
        levels = list(trace.levels)
        critical = tuple(sorted({*levels[level - 1].critical, *extra}))
        levels[level - 1] = replace(levels[level - 1], critical=critical)
        return replace(trace, levels=tuple(levels))

    def test_counterexample_trace_passes(self):
        net = counterexample_network()
        trace = decompose(net, Plan({"j1": 1, "j5": 1}), 2)
        report = verify_trace(trace)
        assert report.passed
        assert failures(report) == ()

    def test_cut_that_does_not_disconnect_fails(self):
        # j2 is in the greedy plan but off the critical path j1, j3, j5.
        for edge_order in ("topological", "reversed"):
            net = self._fig2(edge_order)
            trace = decompose(net, greedy_crash(net, 2).plan, 2)
            assert verify_trace(trace).passed
            tampered = replace(trace.levels[0], cut=positions(net, "j2"))
            report = verify_trace(replace(trace, levels=(tampered,) + trace.levels[1:]))
            assert not report.passed
            assert ("cut-disconnects", 1) in [(c.name, c.level) for c in failures(report)]

    @pytest.mark.parametrize("edge_order", ["topological", "reversed"])
    def test_forward_mix_must_contain_a_cut(self, edge_order):
        # Level 1 cuts j1 and level 2 cuts j5.  Listing j4 (2 -> 4) as
        # critical at level 1 puts it on that level's sink side, where it
        # bypasses the forward mix {j5}; the level-1 cut j1 still holds.
        net = self._fig2(edge_order)
        trace = decompose(net, Plan({"j1": 1, "j5": 1}), 2)
        assert [cut_ids(net, level) for level in trace.levels] == [{"j1"}, {"j5"}]
        report = verify_trace(self._with_critical(trace, 1, positions(net, "j4")))
        assert [(c.name, c.level) for c in failures(report)] == [("forward-mix-contains-cut", 1)]

    @pytest.mark.parametrize("edge_order", ["topological", "reversed"])
    def test_backward_mix_must_contain_a_cut(self, edge_order):
        # With j5's days at 9, level 1 cuts j5 and level 2 cuts j1.  Listing
        # j2 (1 -> 3) as critical at level 1 puts it on that level's source
        # side, where it bypasses the backward mix {j1}; the level-1 cut j5
        # still holds.
        net = self._fig2(edge_order)
        net = replace(net, edges=tuple(
            e._replace(cost_schedule=linear_schedule(9, 2)) if e.id == "j5" else e
            for e in net.edges
        ))
        trace = decompose(net, Plan({"j1": 1, "j5": 1}), 2)
        assert [cut_ids(net, level) for level in trace.levels] == [{"j5"}, {"j1"}]
        report = verify_trace(self._with_critical(trace, 1, positions(net, "j2")))
        assert [(c.name, c.level) for c in failures(report)] == [("backward-mix-contains-cut", 1)]

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
