import copy
import dataclasses
import pickle
import random
import re
import sys
import time
from fractions import Fraction

import pytest

from kgreedy.crashing import greedy_crash
from kgreedy.errors import NetworkValidationError, PlanOutOfBoundsError
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
    _topological_order,
    apply_plan,
    as_cost,
    duration,
    is_k_crashing,
    k_max,
    linear_schedule,
    network_from_json,
    network_to_json,
)
from support import (
    all_st_paths,
    brute_critical_edge_ids,
    brute_duration,
    critical_graph,
    edge_ids,
    full_plan,
    merge,
    plan_cost,
    reference_validate,
    removing_disconnects,
    structural_faults,
    two_edge_project,
    unchecked_network,
)


def single_edge_net(a=1, b=3, cost=5):
    e = Edge("e", "s", "t", a, b, linear_schedule(cost, b - a))
    return ProjectNetwork(("s", "t"), "s", "t", (e,))


def random_suite(count=40, **kw):
    for seed in range(count):
        yield random_network(RandomNetSpec(node_count=4 + seed % 2, edge_count=8, seed=seed, **kw))


class TestValidate:
    def test_minimal_network_ok(self):
        reference_validate(single_edge_net())

    def test_counterexample_ok(self):
        reference_validate(counterexample_network())

    def test_cycle_rejected(self):
        cases = [
            ("st", ["st", "ts"], "['s', 't']"),
            # cycle u -> v -> u, with w and t downstream of it
            ("suvwt", ["su", "uv", "vu", "vw", "wt"], "['t', 'u', 'v', 'w']"),
        ]
        for nodes, arcs, stuck in cases:
            edges = tuple(Edge(f"e{i}", u, v, 1, 1, ()) for i, (u, v) in enumerate(arcs))
            net = ProjectNetwork(tuple(nodes), "s", "t", edges)
            with pytest.raises(NetworkValidationError, match=re.escape(f"cycle through nodes {stuck}")):
                reference_validate(net)

    def test_second_source_rejected(self):
        net = ProjectNetwork(
            ("s", "u", "t"), "s", "t",
            (
                Edge("a", "s", "t", 0, 1, linear_schedule(1, 1)),
                Edge("b", "u", "t", 0, 1, linear_schedule(1, 1)),
            ),
        )
        message = "nodes without incoming edges: ['s', 'u'], declared source: 's'"
        with pytest.raises(NetworkValidationError, match=re.escape(message)):
            reference_validate(net)

    def test_second_sink_rejected(self):
        net = ProjectNetwork(
            ("s", "u", "t"), "s", "t",
            (
                Edge("a", "s", "t", 0, 1, linear_schedule(1, 1)),
                Edge("b", "s", "u", 0, 1, linear_schedule(1, 1)),
            ),
        )
        message = "nodes without outgoing edges: ['t', 'u'], declared sink: 't'"
        with pytest.raises(NetworkValidationError, match=re.escape(message)):
            reference_validate(net)

    def test_isolated_node_rejected(self):
        net = ProjectNetwork(
            ("s", "u", "v", "t"), "s", "t",
            (
                Edge("a", "s", "t", 0, 1, linear_schedule(1, 1)),
                Edge("b", "u", "v", 0, 1, linear_schedule(1, 1)),
            ),
        )
        message = "nodes without incoming edges: ['s', 'u'], declared source: 's'"
        with pytest.raises(NetworkValidationError, match=re.escape(message)):
            reference_validate(net)

    def test_bad_bounds_rejected(self):
        net = ProjectNetwork(
            ("s", "t"), "s", "t", (Edge("a", "s", "t", 4, 3, ()),)
        )
        message = "edge 'a': need 0 <= min_len <= normal_len, got (4, 3)"
        with pytest.raises(NetworkValidationError, match=re.escape(message)):
            reference_validate(net)

    def test_schedule_length_mismatch_rejected(self):
        net = ProjectNetwork(
            ("s", "t"), "s", "t", (Edge("a", "s", "t", 1, 3, linear_schedule(5, 1)),)
        )
        message = "edge 'a': schedule has 1 entries, expected 2"
        with pytest.raises(NetworkValidationError, match=message):
            reference_validate(net)

    def test_decreasing_schedule_rejected(self):
        cases = [((5, 2), "day 1 is cheaper than day 0"), ((-1, 2), "negative cost at day 0")]
        for schedule, message in cases:
            e = Edge("a", "s", "t", 1, 3, tuple(map(Fraction, schedule)))
            with pytest.raises(NetworkValidationError, match=message):
                reference_validate(ProjectNetwork(("s", "t"), "s", "t", (e,)))

    def test_first_day_sign_checked_for_fractions_and_ints(self):
        def net(first):
            e = Edge("a", "s", "t", 1, 3, (first, Fraction(2)))
            return ProjectNetwork(("s", "t"), "s", "t", (e,))

        for first in (Fraction(-1, 2), -1):
            with pytest.raises(NetworkValidationError, match="^edge 'a': negative cost at day 0$"):
                reference_validate(net(first))
        reference_validate(net(0))

    def test_repeated_day_objects_are_still_compared(self):
        x = Fraction(2)
        e = Edge("a", "s", "t", 0, 3, (x, x, Fraction(1)))
        with pytest.raises(NetworkValidationError, match="day 2 is cheaper than day 1"):
            reference_validate(ProjectNetwork(("s", "t"), "s", "t", (e,)))

    def test_equal_distinct_day_objects_are_accepted(self):
        e = Edge("a", "s", "t", 1, 3, (Fraction(3), Fraction(3)))
        reference_validate(ProjectNetwork(("s", "t"), "s", "t", (e,)))

    def test_is_linear(self):
        x = Fraction(2)
        for schedule, linear in (((), True), ((x,), True), ((x, Fraction(2)), True),
                                 ((x, Fraction(3)), False)):
            assert Edge("a", "s", "t", 0, len(schedule), schedule).is_linear() is linear

    def test_duplicate_edge_id_rejected(self):
        e = Edge("a", "s", "t", 1, 3, linear_schedule(5, 2))
        with pytest.raises(NetworkValidationError, match="edge id 'a' appears twice"):
            reference_validate(ProjectNetwork(("s", "t"), "s", "t", (e, e)))

    def test_random_networks_all_validate(self):
        for net in random_suite(60):
            reference_validate(net)

    def test_accepted_digraphs_have_every_node_on_a_source_sink_path(self):
        # Mostly forward edges over a random node order, plus some arbitrary
        # ones (self-loops, back edges), isolated nodes and random endpoints.
        accepted = 0
        for seed in range(3000):
            rng = random.Random(seed)
            nodes = [f"v{i}" for i in range(rng.randint(1, 6))]
            rng.shuffle(nodes)
            edges = []
            for j in range(rng.randint(0, 9)):
                if rng.random() < 0.15:
                    u, v = rng.choice(nodes), rng.choice(nodes)
                elif len(nodes) > 1:
                    u, v = sorted(rng.sample(nodes, 2), key=nodes.index)
                else:
                    continue
                edges.append(Edge(f"e{j}", u, v, 0, 1, linear_schedule(1, 1)))
            ends = (nodes[0], nodes[-1]) if rng.random() < 0.7 else (
                rng.choice(nodes), rng.choice(nodes))
            net = ProjectNetwork(tuple(nodes), *ends, tuple(edges))
            try:
                network_from_json(network_to_json(net))
            except NetworkValidationError:
                continue
            accepted += 1
            on_path = {e.src for p in all_st_paths(net) for e in p} | {net.sink}
            assert on_path == set(nodes), seed
        assert accepted >= 300


class TestDuration:
    def test_single_edge(self):
        assert duration(single_edge_net(b=3)) == 3

    def test_counterexample(self):
        assert duration(counterexample_network()) == 9

    def test_matches_path_enumeration(self):
        for net in random_suite():
            assert duration(net) == brute_duration(net)


class TestCriticalGraph:
    def test_all_paths_equal_keeps_everything(self):
        # two parallel chains of equal total length
        edges = (
            Edge("a", "s", "u", 1, 2, linear_schedule(1, 1)),
            Edge("b", "u", "t", 1, 3, linear_schedule(1, 2)),
            Edge("c", "s", "v", 1, 4, linear_schedule(1, 3)),
            Edge("d", "v", "t", 1, 1, ()),
        )
        net = ProjectNetwork(("s", "u", "v", "t"), "s", "t", edges)
        reference_validate(net)
        assert edge_ids(critical_graph(net)) == edge_ids(net)

    def test_counterexample(self):
        assert set(edge_ids(critical_graph(counterexample_network()))) == {"j1", "j3", "j5"}

    def test_keeps_node_and_edge_order(self):
        # s-u-t and s-t are longest (5 days); s-w-t (2 days) is not.  The
        # input order runs against the topological one.
        edges = (
            Edge("c", "s", "t", 5, 5, ()),
            Edge("x", "s", "w", 1, 1, ()),
            Edge("b", "u", "t", 2, 2, ()),
            Edge("y", "w", "t", 1, 1, ()),
            Edge("a", "s", "u", 3, 3, ()),
        )
        net = ProjectNetwork(("t", "u", "w", "s"), "s", "t", edges)
        reference_validate(net)
        crit = critical_graph(net)
        assert crit.nodes == ("t", "u", "s")
        assert edge_ids(crit) == ("c", "b", "a")
        assert (crit.source, crit.sink) == ("s", "t")

    def test_cycle_rejected_by_every_longest_path_pass(self):
        arcs = ["su", "uv", "vu", "vt"]
        edges = tuple(Edge(f"e{i}", u, v, 1, 2, (Fraction(1),)) for i, (u, v) in enumerate(arcs))
        net = ProjectNetwork(tuple("suvt"), "s", "t", edges)
        message = re.escape("cycle through nodes ['t', 'u', 'v']")
        for run in (duration, critical_graph, lambda n: greedy_crash(n, 1)):
            with pytest.raises(NetworkValidationError, match=message):
                run(net)

    def test_matches_path_enumeration(self):
        for net in random_suite():
            assert set(edge_ids(critical_graph(net))) == brute_critical_edge_ids(net)

    def test_idempotent(self):
        for net in random_suite(20):
            once = critical_graph(net)
            assert edge_ids(critical_graph(once)) == edge_ids(once)

    def test_result_is_valid_network(self):
        for net in random_suite(20):
            reference_validate(critical_graph(net))

    def test_slacks_over_critical_edges_match_the_named_subnetwork(self):
        # ``decompose`` lists only the previous level's critical edges in
        # ``order``, at lengths changed since: each listed edge must get the
        # slack it has in that critical subnetwork built by name.
        rng = random.Random(0)
        positive = 0
        for net in random_suite():
            tails, heads, order, _, sink = _topological_order(net)
            lengths = [rng.randint(0, 6) for _ in net.edges]
            changed = {e.id: x for e, x in zip(net.edges, lengths)}
            sub = critical_graph(net)
            listed = set(edge_ids(sub))
            sub = dataclasses.replace(sub, edges=tuple(
                e._replace(normal_len=changed[e.id]) for e in sub.edges
            ))
            paths = [(sum(e.normal_len for e in p), {e.id for e in p}) for p in all_st_paths(sub)]
            total = max(days for days, _ in paths)
            slack, got = _slacks(
                [i for i in order if net.edges[i].id in listed], tails, heads, lengths,
                len(net.nodes), sink,
            )
            assert got == total
            for i, e in enumerate(net.edges):
                if e.id in listed:
                    through = max(days for days, ids in paths if e.id in ids)
                    assert slack[i] == total - through, (net, e.id)
                    positive += slack[i] > 0
        assert positive >= 20  # 21 listed edges have a positive slack

    def test_every_critical_edge_on_a_longest_path(self):
        for net in random_suite(20):
            crit = critical_graph(net)
            total = duration(net)
            on_longest = set()
            for p in all_st_paths(net):
                if sum(e.normal_len for e in p) == total:
                    on_longest.update(e.id for e in p)
            assert set(edge_ids(crit)) <= on_longest


class TestApplyPlan:
    def test_empty_plan_is_identity(self):
        net = counterexample_network()
        assert apply_plan(net, Plan()) == net

    def test_counterexample_optimal_plan(self):
        net = counterexample_network()
        assert duration(apply_plan(net, Plan({"j1": 1, "j5": 1}))) == 7

    def test_full_plan_reaches_min_lengths(self):
        for net in random_suite(20):
            crashed = apply_plan(net, full_plan(net))
            for e in crashed.edges:
                assert e.normal_len == e.min_len
                assert e.cost_schedule == ()

    def test_out_of_bounds_rejected(self):
        with pytest.raises(PlanOutOfBoundsError) as info:
            apply_plan(single_edge_net(a=1, b=3), Plan({"e": 3}))
        assert str(info.value) == "edge 'e': amount 3 exceeds crashable days 2"

    def test_unknown_edge_rejected(self):
        # the first unknown edge in plan order is named
        for amounts, unknown in (({"z": 1}, "z"), ({"y": 1, "e": 1, "z": 1}, "y")):
            with pytest.raises(PlanOutOfBoundsError) as info:
                apply_plan(single_edge_net(a=1, b=3), Plan(amounts))
            assert str(info.value) == f"plan names unknown edge {unknown!r}"

    def test_partial_crash_keeps_rest_of_schedule(self):
        e = Edge("e", "s", "t", 0, 3, (Fraction(2), Fraction(5), Fraction(7)))
        f = Edge("f", "s", "t", 0, 1, (Fraction(1),))
        net = ProjectNetwork(("s", "t"), "s", "t", (e, f))
        crashed = apply_plan(net, Plan({"e": 1}))
        assert crashed.edges == (Edge("e", "s", "t", 0, 2, (Fraction(5), Fraction(7))), f)
        assert crashed.edges[1] is f

    def test_never_beats_full_crash(self):
        import random

        rng = random.Random(7)
        for net in random_suite(20):
            floor = duration(apply_plan(net, full_plan(net)))
            plan = Plan({
                e.id: rng.randint(0, e.crashable_days) for e in net.edges
            })
            assert duration(apply_plan(net, plan)) >= floor


class TestPlanCost:
    def test_empty(self):
        assert plan_cost(counterexample_network(), Plan()) == 0

    def test_counterexample_optimal_costs_twenty(self):
        assert plan_cost(counterexample_network(), Plan({"j1": 1, "j5": 1})) == 20

    def test_convex_prefix_sum(self):
        e = Edge("e", "s", "t", 1, 3, (Fraction(2), Fraction(5)))
        net = ProjectNetwork(("s", "t"), "s", "t", (e,))
        assert plan_cost(net, Plan({"e": 2})) == 7
        assert plan_cost(net, Plan({"e": 1})) == 2

    def test_additive_over_disjoint_union_and_monotone(self):
        net = counterexample_network()
        p1 = Plan({"j1": 2, "j3": 1})
        p2 = Plan({"j5": 1, "j2": 3})
        assert plan_cost(net, merge(p1, p2)) == plan_cost(net, p1) + plan_cost(net, p2)
        assert plan_cost(net, Plan({"j1": 2})) >= plan_cost(net, Plan({"j1": 1}))


class TestKMax:
    def test_rigid_network(self):
        e = Edge("e", "s", "t", 3, 3, ())
        assert k_max(ProjectNetwork(("s", "t"), "s", "t", (e,))) == 0

    def test_single_edge(self):
        assert k_max(single_edge_net(a=1, b=4)) == 3

    def test_counterexample_definition(self):
        net = counterexample_network()
        floor = duration(apply_plan(net, full_plan(net)))
        assert k_max(net) == duration(net) - floor
        assert k_max(net) >= 2


class TestIsKCrashing:
    def test_empty_plan_zero(self):
        assert is_k_crashing(counterexample_network(), Plan(), 0)

    def test_optimal_two_day_plan(self):
        assert is_k_crashing(counterexample_network(), Plan({"j1": 1, "j5": 1}), 2)

    def test_single_day_plan_is_not_two_crashing(self):
        assert not is_k_crashing(counterexample_network(), Plan({"j3": 1}), 2)

    def test_one_crashing_plan_contains_cut_of_critical_graph(self):
        import random

        rng = random.Random(11)
        checked = 0
        for net in random_suite(40):
            crit_ids = set(edge_ids(critical_graph(net)))
            plan = Plan({e.id: rng.randint(0, e.crashable_days) for e in net.edges})
            if not is_k_crashing(net, plan, 1):
                continue
            checked += 1
            assert removing_disconnects(critical_graph(net), frozenset(plan.amounts) & crit_ids)
        assert checked > 5


_NAME_RULE = "node and edge names must be strings or integers"
_JSON_RULES = {
    "edges": '"edges" must be a list',
    "nodes": '"nodes" must be a list',
    "source": _NAME_RULE,
    "sink": _NAME_RULE,
    "id": _NAME_RULE,
    "from": _NAME_RULE,
    "to": _NAME_RULE,
    "a": '"a" must be a whole number of days',
    "b": '"b" must be a whole number of days',
    "c": '"c" must be a cost or a list of costs',
}
_MISSING = object()


def _json_error_cases():
    """(key, value or _MISSING, exact message) for single faults in a valid
    two-edge project; edge keys are set on the second edge."""
    for key, rule in _JSON_RULES.items():
        where = "the project" if key in ("edges", "nodes", "source", "sink") else "edge 1"
        yield pytest.param(key, _MISSING, f'{where} has no "{key}"', id=f"{key}-missing")
        for value in (True, None, {}):
            yield pytest.param(key, value, f"{rule}, got {value!r}", id=f"{key}-{value!r}")
    yield pytest.param("nodes", ["s", "u", None, "t"], f"{_NAME_RULE}, got None", id="nodes-item")
    yield pytest.param("c", [1, None, 2], f"{_JSON_RULES['c']}, got None", id="c-item")
    # literals of the right JSON type that do not parse; the CLI reads JSON
    # floats as strings, so "a": 1.0 arrives as '1.0'; a cost with an
    # underscore is rejected although Fraction() reads "1_0" from 3.11 on
    for key, value in (("a", "x"), ("a", "1.0"), ("b", "3 days"), ("c", "abc"),
                       ("c", float("inf")), ("c", float("nan")), ("c", ["1", "oops"]),
                       ("c", "1_0"), ("c", ["1", "1_000/3"])):
        got = value[-1] if isinstance(value, list) else value
        yield pytest.param(key, value, f"{_JSON_RULES[key]}, got {got!r}",
                           id=f"{key}-literal-{value!r}")
    yield pytest.param("b", 1_000_001, "edge 'f': b - a = 1000001 exceeds 1000000 crashable days",
                       id="days-cap")


# (changes to the second edge of a valid two-edge project whose first edge
# costs 1, message): records with two faults, where the one the loader meets
# first must be the one reported.
_FIRST_FAULT_CASES = [
    pytest.param({"id": None, "a": "x"}, f"{_NAME_RULE}, got None", id="bad-id-then-bad-a"),
    pytest.param({"b": "x", "c": _MISSING}, 'edge 1 has no "c"', id="bad-b-with-missing-c"),
    pytest.param({"a": 0, "b": 1_000_001, "c": [1, None]},
                 "edge 'f': b - a = 1000001 exceeds 1000000 crashable days",
                 id="days-cap-before-bad-list-item"),
    pytest.param({"a": 5, "b": 3, "c": True}, f"{_JSON_RULES['c']}, got True",
                 id="bool-cost-with-a-over-b"),
]


def _pick(rng, data):
    return rng.choice(data["edges"])


def _schedule(rng, days, first=0):
    return sorted(rng.randint(first, 9) for _ in range(days))


def _drop_node(rng, data):
    data["nodes"].remove(rng.choice(data["nodes"]))


def _rewire(rng, data):
    _pick(rng, data)[rng.choice(["from", "to"])] = rng.choice(data["nodes"])


def _extra_edge(rng, data):
    data["edges"].append({"id": "extra", "from": rng.choice(data["nodes"]),
                          "to": rng.choice(data["nodes"]), "a": 0, "b": 1, "c": 1})


def _short_list(rng, data):
    e = _pick(rng, data)
    e["c"] = _schedule(rng, e["b"] - e["a"] + rng.choice([-1, 1]) if e["b"] > e["a"] else 1)


def _negative_list(rng, data):
    e = _pick(rng, data)
    e["c"] = [-rng.randint(1, 3)] + _schedule(rng, e["b"] - e["a"] - 1)


def _decreasing_list(rng, data):
    e = _pick(rng, data)
    e["b"] = e["a"] + rng.randint(2, 4)
    e["c"] = _schedule(rng, e["b"] - e["a"], first=1)[::-1]
    e["c"][-1] = 0


def _negative_scalars(rng, data):
    # one literal on two edges, each of which may have no crashable day
    for e in rng.sample(data["edges"], 2):
        e["c"] = -2


# Single faults for the loader-against-reference test; None leaves the
# generated project as it is.  Some (a rewired edge, a dropped node) break
# different rules on different projects, or none.
_FAULTS = [
    None,
    lambda rng, data: data["nodes"].insert(rng.randint(0, len(data["nodes"])),
                                           rng.choice(data["nodes"])),
    lambda rng, data: data.update({rng.choice(["source", "sink"]): "x"}),
    _drop_node,
    lambda rng, data: _pick(rng, data).update(id=_pick(rng, data)["id"]),
    lambda rng, data: _pick(rng, data).update({rng.choice(["from", "to"]): "x"}),
    lambda rng, data: _pick(rng, data).update(a=-rng.randint(1, 2)),
    lambda rng, data: _pick(rng, data).update(a=rng.randint(6, 8)),
    _short_list,
    lambda rng, data: _pick(rng, data).update(c=-rng.randint(1, 3)),
    _negative_list,
    _decreasing_list,
    _negative_scalars,
    _rewire,
    _extra_edge,
    lambda rng, data: data["edges"].pop(rng.randrange(len(data["edges"]))),
]


def _load_beside_reference(data):
    """The reference's verdict on ``data``, the loader's, and the network the
    loader built (None on a fault), which must be the unchecked one; a
    verdict is the fault's message, or None."""
    try:
        reference_validate(unchecked_network(data))
        expected = None
    except NetworkValidationError as exc:
        expected = str(exc)
    try:
        net = network_from_json(data)
    except NetworkValidationError as exc:
        return str(exc), expected, None
    assert net == unchecked_network(data)
    return None, expected, net


class TestJson:
    @pytest.mark.parametrize("changes, message", _FIRST_FAULT_CASES)
    def test_first_fault_wins(self, changes, message):
        data = self._two_edge_project(1, 1)
        for key, value in changes.items():
            if value is _MISSING:
                del data["edges"][1][key]
            else:
                data["edges"][1][key] = value
        with pytest.raises(NetworkValidationError) as info:
            network_from_json(data)
        assert str(info.value) == message

    @pytest.mark.parametrize("key, value, message", _json_error_cases())
    def test_error_table(self, key, value, message):
        data = self._two_edge_project(1, 1)
        target = data if key in data else data["edges"][1]
        if value is _MISSING:
            del target[key]
        else:
            target[key] = value
        with pytest.raises(NetworkValidationError) as info:
            network_from_json(data)
        assert str(info.value) == message

    @pytest.mark.parametrize("project, message",
                             [pytest.param(p, m, id=name) for name, p, m in structural_faults()])
    def test_rule_table(self, project, message):
        for check in (network_from_json, lambda p: reference_validate(unchecked_network(p))):
            with pytest.raises(NetworkValidationError) as info:
                check(project)
            assert str(info.value) == message

    def test_negative_cost_literal_is_checked_on_every_crashable_edge(self):
        # a negative scalar "c" loads on an edge with no crashable day, and
        # meeting it there does not let it through on a later edge that has one
        data = self._two_edge_project(-1, -1)
        data["edges"][0]["b"] = 1
        with pytest.raises(NetworkValidationError) as info:
            network_from_json(data)
        assert str(info.value) == "edge 'f': negative cost at day 0"
        data["edges"][1]["c"] = 1
        assert [e.cost_schedule for e in network_from_json(data).edges] == [(), (Fraction(1),) * 3]
        # in the reverse order the first edge, which has crashable days, fails
        data = self._two_edge_project(-1, -1)
        data["edges"][1]["a"] = 3
        with pytest.raises(NetworkValidationError) as info:
            network_from_json(data)
        assert str(info.value) == "edge 'e': negative cost at day 0"

    def test_loader_matches_the_reference_on_single_faults(self):
        # Seeded generated projects, half with convex schedules, each given
        # at most one fault; the loader must reject exactly what the
        # reference rejects, with its message, and load the rest whole.
        messages = set()
        for seed in range(700):
            rng = random.Random(seed)
            generated = random_network(RandomNetSpec(
                node_count=rng.randint(2, 7), edge_count=rng.randint(7, 12), seed=seed))
            if seed % 2:
                generated = with_convex_schedules(generated, seed)
            data = network_to_json(generated)
            fault = _FAULTS[seed % len(_FAULTS)]
            if fault is not None:
                fault(rng, data)
            got, expected, net = _load_beside_reference(data)
            assert got == expected, (seed, data)
            if got is None:
                assert net._index == _topological_order(net)
                if fault is None:
                    assert net == generated
            else:
                messages.add(re.sub(r"'[^']*'|\[[^]]*\]|\(.*\)|\d+", "_", got))
        assert len(messages) == 11, "\n".join(sorted(messages))  # each message met

    def test_round_trip(self):
        net = counterexample_network()
        assert network_from_json(network_to_json(net)) == net

    def test_decimal_string_costs_are_exact(self):
        data = {
            "nodes": ["s", "t"],
            "source": "s",
            "sink": "t",
            "edges": [{"id": "e", "from": "s", "to": "t", "a": 1, "b": 3, "c": "0.1"}],
        }
        net = network_from_json(data)
        assert net.edges[0].cost_schedule == (Fraction(1, 10), Fraction(1, 10))

    def test_convex_schedule_list(self):
        data = {
            "nodes": ["s", "t"],
            "source": "s",
            "sink": "t",
            "edges": [{"id": "e", "from": "s", "to": "t", "a": 1, "b": 3, "c": [2, "5"]}],
        }
        net = network_from_json(data)
        assert net.edges[0].cost_schedule == (Fraction(2), Fraction(5))

    _two_edge_project = staticmethod(two_edge_project)

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="no int-to-str digit limit")
    def test_cost_exponent_is_bounded_like_an_integer_literal(self, monkeypatch):
        # 10**5000 has more digits than a JSON integer literal may; Fraction
        # would compute the power first, in time growing with the exponent
        limit = sys.get_int_max_str_digits()
        assert limit < 5000
        for literal in ("1e5000", "1E-5000", f"2.5e{limit}", f" 1e-{limit} "):
            start = time.perf_counter()
            message = re.escape(f"cost {literal!r} needs a power of ten of more than {limit} digits")
            with pytest.raises(NetworkValidationError, match=message):
                network_from_json(self._two_edge_project(literal, 1))
            assert time.perf_counter() - start < 1
        for literal, cost in (("1e300", 10**300), ("1e-300", Fraction(1, 10**300)),
                              (f"1e{limit - 1}", 10**(limit - 1))):
            net = network_from_json(self._two_edge_project(1, literal))
            assert net.edges[1].cost_schedule == (Fraction(cost),) * 3
        # without a limit, as on interpreters that lack one, nothing is bounded
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        net = network_from_json(self._two_edge_project(1, "1e5000"))
        assert net.edges[1].cost_schedule == (Fraction(10**5000),) * 3

    def test_booleans_are_not_costs_even_after_equal_numbers(self):
        # a parsed 1 must not stand in for true, in the same list or a later edge
        message = re.escape('"c" must be a cost or a list of costs, got True')
        for c_first, c_second in (([1, 1, True], 1), (1, True), ([1, 1, 1], [1, 1.0, True])):
            with pytest.raises(NetworkValidationError, match=message):
                network_from_json(self._two_edge_project(c_first, c_second))

    def test_equal_cost_literals_of_any_spelling_parse_alike(self):
        net = network_from_json(self._two_edge_project(["1/2", "1/2", "0.5"], [0.5, "1/2", 0.5]))
        for e in net.edges:
            assert e.cost_schedule == (Fraction(1, 2),) * 3
            assert all(type(x) is Fraction for x in e.cost_schedule)
        net = network_from_json(self._two_edge_project([1, 1.0, "1"], "7/7"))
        assert net.edges[0].cost_schedule + net.edges[1].cost_schedule == (Fraction(1),) * 6

    def test_equal_int_and_float_literals_can_parse_apart(self):
        # a float goes through its repr, so 2**70 and float(2**70) compare
        # and hash equal yet give different exact costs (the float's is
        # smaller, so it comes first in a non-decreasing list)
        big = 2**70
        net = network_from_json(self._two_edge_project(big, [float(big), float(big), big]))
        assert net.edges[0].cost_schedule == (Fraction(1180591620717411303424),) * 3
        assert net.edges[1].cost_schedule == (Fraction(1180591620717411300000),) * 2 + (
            Fraction(big),)

    def test_equal_literals_across_edges_parse_alike(self):
        net = network_from_json(self._two_edge_project("7/2", ["7/2", "7/2", 4]))
        assert net.edges[0].cost_schedule == (Fraction(7, 2),) * 3
        assert net.edges[1].cost_schedule == (Fraction(7, 2), Fraction(7, 2), Fraction(4))
        net = network_from_json(self._two_edge_project(["2", 2, "2/1"], 2))
        for e in net.edges:
            assert e.cost_schedule == (Fraction(2),) * 3 and e.is_linear()
            assert all(type(x) is Fraction for x in e.cost_schedule)

    @pytest.mark.parametrize("c, changes", [
        pytest.param([1, 2, 2], {}, id="sorted"),
        pytest.param([0, 0, 0], {}, id="zeros"),
        pytest.param([], {"a": 3}, id="empty"),
        pytest.param([3, 1, 2], {}, id="unsorted"),
        pytest.param([1, 3, 2], {}, id="unsorted-late"),
        pytest.param([-1, 0, 1], {}, id="negative-day-0"),
        pytest.param([-1, 5, 2], {}, id="negative-day-0-and-unsorted"),
        pytest.param([1, True, 2], {}, id="bool"),
        pytest.param([2, 1, True], {"a": 5}, id="bool-with-a-over-b"),
        pytest.param([1, 2], {}, id="short"),
        pytest.param([3, 2], {}, id="short-and-unsorted"),
        pytest.param([1, 2, 3, 4], {}, id="long"),
        pytest.param([1, 2.0, 3], {}, id="equal-float"),
        pytest.param([1, 2.0, 1], {}, id="equal-float-and-unsorted"),
        pytest.param([2, 1, 0], {"a": 4}, id="a-over-b-and-unsorted"),
        pytest.param([2, 1, 0], {"id": "e"}, id="duplicate-id-and-unsorted"),
        pytest.param([-2, 1, 0], {"to": "x"}, id="unknown-node-and-negative"),
    ])
    def test_integer_lists_are_judged_like_the_reference(self, c, changes):
        # A list of ints is checked on the ints; its verdict, first fault
        # included, is the reference's on the parsed schedule, and a bool
        # breaks the type rule before any structural fault.
        data = self._two_edge_project(1, c)
        data["edges"][1].update(changes)
        got, expected, net = _load_beside_reference(data)
        if any(type(x) is bool for x in c):
            expected = f'{_JSON_RULES["c"]}, got True'
        assert got == expected
        if got is None:
            assert all(type(x) is Fraction for x in net.edges[1].cost_schedule)

    def test_cost_literals_read_as_fraction_reads_them(self):
        # ASCII "n" and "n/d" skip Fraction's parser, so every spelling must
        # give Fraction's value or its exception class (ValueError; a zero
        # denominator, ZeroDivisionError there, is a NetworkValidationError).
        # The digit limit is lowered so that long strings meet it.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("no int-to-str digit limit")
        digits = st.text("0123456789", max_size=4)
        long_digits = st.integers(630, 660).map(lambda n: "7" * n)
        number = st.builds(
            lambda sign, whole, fraction, exponent: sign + whole + fraction + exponent,
            st.sampled_from(["", "+", "-"]),
            digits | long_digits,
            st.just("") | digits.map(lambda d: "." + d),
            st.just("") | st.builds(lambda e, d: e + d, st.sampled_from(["e", "E-", "e+"]),
                                    st.text("0123456789", min_size=1, max_size=2)),
        )
        ratio = st.builds(lambda n, d: n + "/" + d, digits | long_digits, digits | long_digits)
        padded = st.builds(lambda left, s, right: left + s + right,
                           st.sampled_from(["", " ", "\t"]), number | ratio,
                           st.sampled_from(["", " ", "\n"]))
        fixed = st.sampled_from(["007", "007/014", "3/0", "0/0", "3/00", "/3", "3/", "/", "",
                                 " ", "-0", "1/2/3", "٣/٤", "٣", "3/٤", "1.5", "2e3", "-3/4"])

        @hypothesis.settings(max_examples=400, deadline=None, database=None)
        @hypothesis.given(fixed | padded)
        def check(literal):
            try:
                want = Fraction(literal)
            except ZeroDivisionError:
                want = NetworkValidationError
            except ValueError:
                want = ValueError
            try:
                got = as_cost(literal)
            except (ValueError, NetworkValidationError) as exc:
                got = type(exc)
            assert got == want and type(got) is type(want), literal

        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            check()
        finally:
            sys.set_int_max_str_digits(limit)

    def test_subclassed_names_and_day_counts_load_as_plain_values(self):
        class Name(str):
            pass

        class Days(int):
            pass

        data = self._two_edge_project(1, [1, 2, 3])
        data["nodes"] = [Name(v) for v in data["nodes"]]
        data["source"], data["sink"] = Name("s"), Name("t")
        for rec in data["edges"]:
            for key in ("id", "from", "to"):
                rec[key] = Name(rec[key])
            rec["a"], rec["b"] = Days(rec["a"]), Days(rec["b"])
        net = network_from_json(data)
        assert net == network_from_json(self._two_edge_project(1, [1, 2, 3]))
        assert all(type(v) is str for v in (*net.nodes, net.source, net.sink))
        for e in net.edges:
            assert type(e.id) is str and type(e.src) is str and type(e.dst) is str
            assert type(e.min_len) is int and type(e.normal_len) is int


class TestPlan:
    def test_amounts_are_read_only(self):
        plan = Plan({"j1": 1})
        with pytest.raises(TypeError):
            plan.amounts["j1"] = 2
        assert plan == Plan({"j1": 1})

    def test_equal_plans_hash_equal(self):
        assert hash(Plan({"j1": 1, "j5": 2, "j2": 0})) == hash(Plan({"j5": 2, "j1": 1}))
        assert len({Plan({"j1": 1}), Plan({"j1": 1}), Plan({"j1": 2})}) == 2

    @pytest.mark.parametrize("x", [0.5, 1.5, 2.0, Fraction(3, 2), True])
    def test_amounts_must_be_integers(self, x):
        with pytest.raises(PlanOutOfBoundsError) as info:
            Plan({"j1": x})
        assert str(info.value) == f"crash amount {x!r} for edge 'j1' is not an integer"

    def test_pickle_round_trip(self):
        plan = Plan({"j1": 1, "j5": 2})
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestValues:
    """Edges and networks are immutable, hashable values; a network's
    cached topological index changes none of that."""

    @staticmethod
    def _validated():
        net = network_from_json(network_to_json(counterexample_network()))
        assert "_index" in vars(net)
        return net

    def test_fields_cannot_be_assigned(self):
        net = counterexample_network()
        with pytest.raises(AttributeError):
            net.edges[0].normal_len = 1
        with pytest.raises(AttributeError):
            net.nodes = ()

    def test_edge_is_a_named_tuple_of_its_fields(self):
        e = counterexample_network().edges[0]
        assert e == ("j1", "1", "2", 1, 3, (Fraction(10),) * 2)
        assert e._replace(normal_len=2, cost_schedule=e.cost_schedule[1:]) == Edge(
            "j1", "1", "2", 1, 2, (Fraction(10),))
        assert (e.crashable_days, e.is_linear()) == (2, True)

    def test_round_trips_keep_equality_and_hash(self):
        for net in (counterexample_network(), self._validated()):
            for e in net.edges:
                assert pickle.loads(pickle.dumps(e)) == e
                assert hash(copy.deepcopy(e)) == hash(e)
            for copied in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
                assert copied == net and hash(copied) == hash(net)
                assert duration(copied) == 9

    def test_cached_index_is_invisible(self):
        plain, validated = counterexample_network(), self._validated()
        assert validated == plain and hash(validated) == hash(plain)
        assert repr(validated) == repr(plain)
        assert len({plain, validated}) == 1

    def test_replace_gets_a_fresh_index(self):
        net = self._validated()
        # the same jobs listed in reverse: every position moves
        flipped = dataclasses.replace(net, edges=net.edges[::-1])
        assert "_index" not in vars(flipped)
        assert flipped._index == _topological_order(flipped) != net._index
        assert duration(flipped) == duration(net) == 9

    def test_index_is_read_only(self):
        net = self._validated()
        tails, heads, order, source, sink = net._index
        assert all(type(part) is tuple for part in (tails, heads, order))
        assert type(source) is int and type(sink) is int
        assert (net.nodes[source], net.nodes[sink]) == (net.source, net.sink)
