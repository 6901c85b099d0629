import math

import pytest

from kgreedy.crashing import greedy_crash
from kgreedy.generators import (
    RandomNetSpec,
    counterexample_network,
    matrix_optimal_parts,
    matrix_sequence,
    random_network,
    random_sequence,
    with_convex_schedules,
)
from kgreedy.klis import greedy_klis_scripted
from kgreedy.network import duration, network_from_json, network_to_json
from kgreedy.oracle import exact_crash_cost, exact_klis
from support import critical_graph, edge_ids, reference_random_network


def loads_back(net):
    """The network passes the loader's checks and loads back unchanged."""
    assert network_from_json(network_to_json(net)) == net


class TestCounterexampleNetwork:
    """The canned fixture must reproduce every fact it was reconstructed from."""

    def test_validates(self):
        loads_back(counterexample_network())

    def test_duration_is_nine(self):
        assert duration(counterexample_network()) == 9

    def test_unique_critical_path(self):
        assert set(edge_ids(critical_graph(counterexample_network()))) == {"j1", "j3", "j5"}

    def test_greedy_steps_and_costs(self):
        result = greedy_crash(counterexample_network(), 2)
        assert [(sorted(s.edges), s.cost) for s in result.steps] == [
            (["j3"], 9),
            (["j1", "j2"], 19),
        ]
        assert result.total_cost == 28

    def test_exact_optimum(self):
        plan, cost = exact_crash_cost(counterexample_network(), 2)
        assert cost == 20
        assert dict(plan.amounts) == {"j1": 1, "j5": 1}


class TestMatrixSequence:
    def test_k_three_layout(self):
        values, _ = matrix_sequence(3)
        assert values == [1, 2, 1, 3, 2, 1, 3, 2, 3]

    def test_k_one(self):
        assert matrix_sequence(1) == ([1], [[0]])

    def test_k_two_scripted_vs_oracle(self):
        values, script = matrix_sequence(2)
        assert values == [1, 2, 1, 2]
        assert greedy_klis_scripted(values, 2, script).total_length == 3
        assert exact_klis(values, 2).total_length == 4

    @pytest.mark.parametrize("k", range(1, 7))
    def test_length_and_scripted_total(self, k):
        values, script = matrix_sequence(k)
        assert len(values) == k * k
        # scripted replay also proves every round maximal
        sel = greedy_klis_scripted(values, k, script)
        assert sel.total_length == math.ceil(3 * k * k / 4)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_optimal_parts_certificate(self, k):
        values, _ = matrix_sequence(k)
        parts = matrix_optimal_parts(k)
        assert sorted(i for p in parts for i in p) == list(range(k * k))
        for p in parts:
            assert all(a < b for a, b in zip(p, p[1:]))
            assert all(values[a] < values[b] for a, b in zip(p, p[1:]))


class TestRandomNetwork:
    def test_deterministic_per_seed(self):
        spec = RandomNetSpec(node_count=5, edge_count=8, seed=7)
        assert random_network(spec) == random_network(spec)

    def test_contract_example(self):
        loads_back(random_network(RandomNetSpec(node_count=5, edge_count=8, seed=7)))

    def test_five_hundred_samples_validate(self):
        for seed in range(500):
            net = random_network(
                RandomNetSpec(node_count=3 + seed % 4, edge_count=6 + seed % 3, seed=seed)
            )
            loads_back(net)

    def test_matches_edge_by_edge_reference(self):
        for seed in range(40):
            for nodes, edges, crashable, costs in [
                (2, 1, 0, (1, 1)),
                (4, 9, 2, (1, 9)),
                (6, 14, 5, (3, 4)),
                (9, 20, 3, (1, 10**6)),
            ]:
                spec = RandomNetSpec(node_count=nodes, edge_count=edges, max_normal_len=6,
                                     max_crashable=crashable, cost_range=costs, seed=seed)
                assert random_network(spec) == reference_random_network(spec)

    def test_spec_bounds_checked(self):
        with pytest.raises(ValueError):
            RandomNetSpec(node_count=1, edge_count=3)
        with pytest.raises(ValueError):
            RandomNetSpec(node_count=5, edge_count=3)
        with pytest.raises(ValueError):
            RandomNetSpec(node_count=5, edge_count=8, cost_range=(0, 5))

    def test_convex_variant_validates_with_sorted_schedules(self):
        for seed in range(30):
            net = with_convex_schedules(
                random_network(RandomNetSpec(node_count=5, edge_count=8, seed=seed)),
                seed=seed,
            )
            loads_back(net)
            for e in net.edges:
                assert list(e.cost_schedule) == sorted(e.cost_schedule)


class TestRandomSequence:
    def test_empty(self):
        assert random_sequence(0, 9, seed=1) == []

    def test_deterministic_per_seed(self):
        assert random_sequence(12, 9, seed=5) == random_sequence(12, 9, seed=5)

    def test_values_in_range(self):
        values = random_sequence(200, 4, seed=9)
        assert all(1 <= v <= 4 for v in values)
