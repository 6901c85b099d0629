import copy
import dataclasses
import pickle
import random
import re
from fractions import Fraction

import pytest

from kgreedy.crashing import greedy_crash
from kgreedy.errors import NetworkValidationError, PlanOutOfBoundsError
from kgreedy.generators import RandomNetSpec, counterexample_network, random_network
from kgreedy.network import (
    Edge,
    Plan,
    ProjectNetwork,
    _topological_order,
    apply_plan,
    duration,
    is_k_crashing,
    k_max,
    linear_schedule,
    network_from_json,
    network_to_json,
    validate,
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
    removing_disconnects,
)


def single_edge_net(a=1, b=3, cost=5):
    e = Edge("e", "s", "t", a, b, linear_schedule(cost, b - a))
    return ProjectNetwork(("s", "t"), "s", "t", (e,))


def random_suite(count=40, **kw):
    for seed in range(count):
        yield random_network(RandomNetSpec(node_count=4 + seed % 2, edge_count=8, seed=seed, **kw))


class TestValidate:
    def test_minimal_network_ok(self):
        validate(single_edge_net())

    def test_counterexample_ok(self):
        validate(counterexample_network())

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
                validate(net)

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
            validate(net)

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
            validate(net)

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
            validate(net)

    def test_bad_bounds_rejected(self):
        net = ProjectNetwork(
            ("s", "t"), "s", "t", (Edge("a", "s", "t", 4, 3, ()),)
        )
        message = "edge 'a': need 0 <= min_len <= normal_len, got (4, 3)"
        with pytest.raises(NetworkValidationError, match=re.escape(message)):
            validate(net)

    def test_schedule_length_mismatch_rejected(self):
        net = ProjectNetwork(
            ("s", "t"), "s", "t", (Edge("a", "s", "t", 1, 3, linear_schedule(5, 1)),)
        )
        message = "edge 'a': schedule has 1 entries, expected 2"
        with pytest.raises(NetworkValidationError, match=message):
            validate(net)

    def test_decreasing_schedule_rejected(self):
        cases = [((5, 2), "day 1 is cheaper than day 0"), ((-1, 2), "negative cost at day 0")]
        for schedule, message in cases:
            e = Edge("a", "s", "t", 1, 3, tuple(map(Fraction, schedule)))
            with pytest.raises(NetworkValidationError, match=message):
                validate(ProjectNetwork(("s", "t"), "s", "t", (e,)))

    def test_first_day_sign_checked_for_fractions_and_ints(self):
        def net(first):
            e = Edge("a", "s", "t", 1, 3, (first, Fraction(2)))
            return ProjectNetwork(("s", "t"), "s", "t", (e,))

        for first in (Fraction(-1, 2), -1):
            with pytest.raises(NetworkValidationError, match="^edge 'a': negative cost at day 0$"):
                validate(net(first))
        validate(net(0))

    def test_repeated_day_objects_are_still_compared(self):
        x = Fraction(2)
        e = Edge("a", "s", "t", 0, 3, (x, x, Fraction(1)))
        with pytest.raises(NetworkValidationError, match="day 2 is cheaper than day 1"):
            validate(ProjectNetwork(("s", "t"), "s", "t", (e,)))

    def test_equal_distinct_day_objects_are_accepted(self):
        e = Edge("a", "s", "t", 1, 3, (Fraction(3), Fraction(3)))
        validate(ProjectNetwork(("s", "t"), "s", "t", (e,)))

    def test_is_linear(self):
        x = Fraction(2)
        for schedule, linear in (((), True), ((x,), True), ((x, Fraction(2)), True),
                                 ((x, Fraction(3)), False)):
            assert Edge("a", "s", "t", 0, len(schedule), schedule).is_linear() is linear

    def test_duplicate_edge_id_rejected(self):
        e = Edge("a", "s", "t", 1, 3, linear_schedule(5, 2))
        with pytest.raises(NetworkValidationError, match="edge id 'a' appears twice"):
            validate(ProjectNetwork(("s", "t"), "s", "t", (e, e)))

    def test_random_networks_all_validate(self):
        for net in random_suite(60):
            validate(net)

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
                validate(net)
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
        validate(net)
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
        validate(net)
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
            validate(critical_graph(net))

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
        validate(net)
        assert net.edges[0].cost_schedule == (Fraction(2), Fraction(5))

    @staticmethod
    def _two_edge_project(c_first, c_second):
        return {
            "nodes": ["s", "u", "t"],
            "source": "s",
            "sink": "t",
            "edges": [
                {"id": "e", "from": "s", "to": "u", "a": 1, "b": 4, "c": c_first},
                {"id": "f", "from": "u", "to": "t", "a": 0, "b": 3, "c": c_second},
            ],
        }

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
        # and hash equal yet give different exact costs
        big = 2**70
        net = network_from_json(self._two_edge_project([big, float(big), float(big)], big))
        assert net.edges[0].cost_schedule[0] == Fraction(1180591620717411303424)
        assert net.edges[0].cost_schedule[1] == Fraction(1180591620717411300000)
        assert net.edges[1].cost_schedule == (Fraction(big),) * 3

    def test_equal_literals_across_edges_parse_alike(self):
        net = network_from_json(self._two_edge_project("7/2", ["7/2", "7/2", 4]))
        validate(net)
        assert net.edges[0].cost_schedule == (Fraction(7, 2),) * 3
        assert net.edges[1].cost_schedule == (Fraction(7, 2), Fraction(7, 2), Fraction(4))
        net = network_from_json(self._two_edge_project(["2", 2, "2/1"], 2))
        for e in net.edges:
            assert e.cost_schedule == (Fraction(2),) * 3 and e.is_linear()
            assert all(type(x) is Fraction for x in e.cost_schedule)

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
        net = counterexample_network()
        validate(net)
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
        assert all(type(part) is tuple for part in self._validated()._index)
