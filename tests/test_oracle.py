import random
from dataclasses import replace
from fractions import Fraction

import pytest

from kgreedy import oracle
from kgreedy.errors import NotCrashableError
from kgreedy.generators import (
    RandomNetSpec,
    counterexample_network,
    matrix_sequence,
    random_network,
    random_sequence,
    with_convex_schedules,
)
from kgreedy.network import Edge, Plan, ProjectNetwork, is_k_crashing, k_max, linear_schedule
from kgreedy.oracle import (
    _check_plan,
    _DurationEvaluator,
    exact_crash_cost,
    exact_klis,
    exact_klis_total,
)
from support import (
    assert_valid_selection,
    brute_lis_length,
    plan_cost,
    reference_exact_crash_cost,
    reference_exact_klis,
)


class TestExactCrashCost:
    def test_counterexample(self):
        plan, cost = exact_crash_cost(counterexample_network(), 2)
        assert cost == 20
        assert plan == Plan({"j1": 1, "j5": 1})

    def test_k_zero_is_free(self):
        assert exact_crash_cost(counterexample_network(), 0) == (Plan(), Fraction(0))

    def test_single_edge_two_days(self):
        e = Edge("e", "s", "t", 1, 3, linear_schedule(7, 2))
        net = ProjectNetwork(("s", "t"), "s", "t", (e,))
        plan, cost = exact_crash_cost(net, 2)
        assert plan == Plan({"e": 2})
        assert cost == 14

    def test_convex_prefix_costs(self):
        e = Edge("e", "s", "t", 1, 3, (Fraction(2), Fraction(5)))
        net = ProjectNetwork(("s", "t"), "s", "t", (e,))
        assert exact_crash_cost(net, 2)[1] == 7

    def test_no_plan_beyond_k_max(self):
        with pytest.raises(NotCrashableError):
            exact_crash_cost(counterexample_network(), 7)

    def test_long_series_solves(self):
        # 21 one-day jobs in series: 2^21 plans, past what enumeration reaches
        edges = tuple(
            Edge(f"e{i}", f"v{i}", f"v{i + 1}", 1, 2, linear_schedule(1, 1)) for i in range(21)
        )
        net = ProjectNetwork(tuple(f"v{i}" for i in range(22)), "v0", "v21", edges)
        assert exact_crash_cost(net, 1)[1] == 1
        plan, cost = exact_crash_cost(net, 21)
        assert cost == 21
        assert plan == Plan({e.id: 1 for e in edges})

    def test_fig2_cost_curve(self):
        net = counterexample_network()
        curve = [exact_crash_cost(net, k)[1] for k in range(k_max(net) + 1)]
        assert curve == [0, 9, 20, 39, 59, 87, 115]

    @pytest.mark.parametrize("form", ["fig2", "convex-suite", "linear", "convex", "rational"])
    def test_matches_plan_enumeration_at_every_k(self, form):
        runs = 0
        for net in _cross_check_networks(form):
            for k in range(1, k_max(net) + 1):
                plan, cost = exact_crash_cost(net, k)
                assert cost == reference_exact_crash_cost(net, k)[1], (form, net, k)
                assert is_k_crashing(net, plan, k)
                assert plan_cost(net, plan) == cost
                runs += 1
        assert runs > {"fig2": 5, "convex-suite": 100}.get(form, 300)

    def test_self_check_rejects_a_plan_one_unit_short(self):
        # fig2 lasts 9 days; {j1: 1, j5: 1} is its 2-crashing optimum at 20
        net = counterexample_network()
        evaluator = _DurationEvaluator(net)
        amounts = [{"j1": 1, "j5": 1}.get(e.id, 0) for e in net.edges]
        _check_plan(net, evaluator, 7, amounts, Fraction(20))
        amounts[[e.id for e in net.edges].index("j5")] = 0
        with pytest.raises(RuntimeError, match="misses the target duration 7"):
            _check_plan(net, evaluator, 7, amounts, Fraction(10))

    def test_self_check_rejects_a_cost_off_by_one(self):
        net = counterexample_network()
        amounts = [{"j1": 1, "j5": 1}.get(e.id, 0) for e in net.edges]
        with pytest.raises(RuntimeError, match="costs 20, not the optimum 21"):
            _check_plan(net, _DurationEvaluator(net), 7, amounts, Fraction(21))

    def test_cost_non_decreasing_in_k(self):
        for seed in range(20):
            net = random_network(RandomNetSpec(node_count=5, edge_count=8, seed=seed))
            costs = []
            for k in range(1, 4):
                try:
                    costs.append(exact_crash_cost(net, k)[1])
                except NotCrashableError:
                    break
            assert costs == sorted(costs)

    def test_at_least_k_times_single_day_cost(self):
        for seed in range(40):
            net = random_network(RandomNetSpec(node_count=5, edge_count=8, seed=seed))
            try:
                _, one = exact_crash_cost(net, 1)
            except NotCrashableError:
                continue
            for k in (2, 3):
                try:
                    _, ck = exact_crash_cost(net, k)
                except NotCrashableError:
                    break
                assert ck >= k * one

    def test_invariant_under_edge_relabeling(self):
        net = counterexample_network()
        renamed = ProjectNetwork(
            net.nodes, net.source, net.sink,
            tuple(
                Edge(f"x{i}", e.src, e.dst, e.min_len, e.normal_len, e.cost_schedule)
                for i, e in enumerate(reversed(net.edges))
            ),
        )
        assert exact_crash_cost(net, 2)[1] == exact_crash_cost(renamed, 2)[1]


class TestExactKlis:
    def test_known_sequence(self):
        values = [3, 4, 5, 8, 9, 1, 6, 7, 8, 9]
        sel = exact_klis(values, 2)
        assert sel.total_length == 10
        assert [[values[i] for i in r] for r in sel.rounds] == [
            [3, 4, 5, 8, 9],
            [1, 6, 7, 8, 9],
        ]

    def test_k_at_least_n_takes_everything(self):
        values = [5, 1, 4, 4, 2]
        sel = exact_klis(values, len(values))
        assert sel.total_length == len(values)
        assert_valid_selection(sel, values, len(values))

    def test_matrix_optimum_is_k_squared(self):
        for k in (2, 3):
            values, _ = matrix_sequence(k)
            assert exact_klis(values, k).total_length == k * k

    def test_parts_sorted_longest_first(self):
        for seed in range(20):
            values = random_sequence(10, 9, seed=seed)
            sel = exact_klis(values, 3)
            assert_valid_selection(sel, values, 3)
            lengths = [len(r) for r in sel.rounds]
            assert lengths == sorted(lengths, reverse=True)

    def test_total_non_decreasing_in_k_and_at_most_n(self):
        for seed in range(15):
            values = random_sequence(9, 9, seed=seed)
            totals = [exact_klis(values, k).total_length for k in (1, 2, 3)]
            assert totals == sorted(totals)
            assert totals[-1] <= len(values)

    def test_invariant_under_monotone_value_relabeling(self):
        for seed in range(15):
            values = random_sequence(9, 9, seed=seed)
            remapped = [v * 10 + 3 for v in values]
            for k in (2, 3):
                assert exact_klis(values, k).total_length == exact_klis(remapped, k).total_length

    def test_twelve_elements_at_k_four(self):
        values = [4, 8, 3, 1, 6, 4, 9, 6, 2, 5, 1, 5]
        sel = exact_klis(values, 4)
        assert sel.total_length == 11
        assert_valid_selection(sel, values, 4)
        assert exact_klis(list(range(12)), 4).total_length == 12

    def test_sixty_elements_at_k_four(self):
        # the tail-state search holds over 100,000 states here
        values = random_sequence(60, 1000, seed=1)
        sel = exact_klis(values, 4)
        assert sel.total_length == exact_klis_total(values, 4) == 38
        assert_valid_selection(sel, values, 4)

    def test_matches_tail_state_dp(self):
        for values, k in _small_klis_inputs():
            sel = exact_klis(values, k)
            assert sel.total_length == reference_exact_klis(values, k).total_length, (values, k)
            assert_valid_selection(sel, values, k)

    def test_matches_greene_at_scale(self):
        rng = random.Random(7)
        cases = []
        for _ in range(20):
            n = rng.randint(300, 3000)
            values = random_sequence(n, rng.choice([n // 10, n, 10 * n]), seed=rng.randrange(10**6))
            cases.append((values, rng.randint(1, 6)))
        # each of the first 200 values is covered by each of the last 200
        cases.append((list(range(200, 0, -1)) + list(range(400, 200, -1)), 4))
        cases += [(matrix_sequence(k)[0], k) for k in range(1, 9)]
        for values, k in cases:
            sel = exact_klis(values, k)
            assert sel.total_length == exact_klis_total(values, k), (len(values), k)
            assert_valid_selection(sel, values, k)

    def test_self_check_rejects_a_total_off_by_one(self, monkeypatch):
        values = [4, 8, 3, 1, 6, 4, 9, 6, 2, 5, 1, 5]
        greene = oracle.exact_klis_total
        monkeypatch.setattr(oracle, "exact_klis_total", lambda values, k: greene(values, k) + 1)
        with pytest.raises(RuntimeError, match="witnesses total 11, not Greene's 12"):
            exact_klis(values, 4)

    def test_single_class_agrees_with_both_lis_routes(self):
        from kgreedy.klis import lis

        for seed in range(25):
            values = random_sequence(11, 9, seed=seed)
            total = exact_klis(values, 1).total_length
            assert total == len(lis(values))
            assert total == brute_lis_length(values)


class TestExactKlisTotal:
    def test_matches_tail_state_dp(self):
        for values, k in _small_klis_inputs():
            assert exact_klis_total(values, k) == reference_exact_klis(values, k).total_length, (
                values, k)

    def test_staircase_is_k_squared(self):
        # the optimum `experiment --generator matrix` reports
        for k in range(1, 41):
            values, _ = matrix_sequence(k)
            assert exact_klis_total(values, k) == k * k

    def test_equal_values_never_share_a_subsequence(self):
        assert exact_klis_total([5] * 6, 4) == 4
        assert exact_klis_total([], 3) == 0

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            exact_klis_total([1, 2], 0)


def _small_klis_inputs():
    """3,000 seeded (values, k): n <= 11 and value ranges from 3 to 20, so
    values repeat, and k from 1 to 4."""
    for seed in range(3000):
        rng = random.Random(seed)
        values = [rng.randint(1, rng.randint(3, 20)) for _ in range(rng.randint(0, 11))]
        yield values, rng.randint(1, 4)


def _cross_check_networks(form):
    """fig2, the convex acceptance suite, or 300 seeded networks with linear,
    convex, or convex rational schedules (each edge's schedule divided by one
    number, so it stays convex)."""
    if form == "fig2":
        yield counterexample_network()
        return
    if form == "convex-suite":
        for seed in range(100):
            base = random_network(RandomNetSpec(node_count=5, edge_count=8, seed=seed))
            yield with_convex_schedules(base, seed=seed + 10_000)
        return
    for seed in range(300):
        rng = random.Random(seed)
        nodes = rng.randint(2, 6)
        net = random_network(RandomNetSpec(
            node_count=nodes, edge_count=rng.randint(nodes - 1, 8), max_crashable=3, seed=seed,
        ))
        if form != "linear":
            net = with_convex_schedules(net, seed=seed + 1)
        if form == "rational":
            edges = []
            for e in net.edges:
                d = rng.randint(2, 7)
                edges.append(e._replace(cost_schedule=tuple(c / d for c in e.cost_schedule)))
            net = replace(net, edges=tuple(edges))
        yield net
