from fractions import Fraction

import pytest

from kgreedy.errors import BudgetExceededError, NotCrashableError
from kgreedy.generators import (
    RandomNetSpec,
    counterexample_network,
    matrix_sequence,
    random_network,
    random_sequence,
)
from kgreedy.network import Edge, Plan, ProjectNetwork, linear_schedule
from kgreedy.oracle import exact_crash_cost, exact_klis
from support import assert_valid_selection, brute_lis_length


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

    def test_budget_is_enforced(self):
        # 21 one-day jobs in series: 2^21 plans, rejected before any search
        edges = tuple(
            Edge(f"e{i}", f"v{i}", f"v{i + 1}", 1, 2, linear_schedule(1, 1)) for i in range(21)
        )
        net = ProjectNetwork(tuple(f"v{i}" for i in range(22)), "v0", "v21", edges)
        with pytest.raises(BudgetExceededError, match="2097152 plans exceed the budget of 2000000"):
            exact_crash_cost(net, 1)

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

    def test_budget_is_enforced(self):
        # 5^12 assignments, rejected before any search
        with pytest.raises(BudgetExceededError, match="244140625 assignments exceed the budget"):
            exact_klis(list(range(12)), 4)

    def test_single_class_agrees_with_both_lis_routes(self):
        from kgreedy.klis import lis

        for seed in range(25):
            values = random_sequence(11, 9, seed=seed)
            total = exact_klis(values, 1).total_length
            assert total == len(lis(values))
            assert total == brute_lis_length(values)

