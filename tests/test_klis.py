import pytest

from kgreedy.errors import ScriptError
from kgreedy.generators import matrix_sequence, random_sequence
from kgreedy.klis import (
    format_sequence,
    greedy_klis,
    greedy_klis_scripted,
    lis,
    parse_sequence,
    selection_to_json,
    total_ratio_bound,
)
from kgreedy.oracle import exact_klis
from support import (
    all_max_lis_index_lists,
    assert_valid_selection,
    brute_lis_length,
    reference_greedy_klis,
)

KNOWN_SEQ = [3, 4, 5, 8, 9, 1, 6, 7, 8, 9]


class TestLis:
    def test_known_sequence(self):
        idx = lis(KNOWN_SEQ)
        assert len(idx) == 7
        assert [KNOWN_SEQ[i] for i in idx] == [3, 4, 5, 6, 7, 8, 9]

    def test_empty(self):
        assert lis([]) == []

    def test_length_matches_subset_enumeration(self):
        for seed in range(30):
            values = random_sequence(12, 9, seed=seed)
            assert len(lis(values)) == brute_lis_length(values)

    def test_canonical_is_lexicographically_smallest(self):
        # 400 seeded sequences of length 0 to 11 over value ranges 3, 6 and 20
        for seed in range(400):
            values = random_sequence(seed % 12, (3, 6, 20)[seed // 12 % 3], seed=seed)
            assert tuple(lis(values)) == all_max_lis_index_lists(values)[0]

    def test_long_inputs(self):
        n = 5000
        staircase, _ = matrix_sequence(70)
        cases = [
            (list(range(n)), n),
            (list(range(n, 0, -1)), 1),
            ([7] * n, 1),
            (staircase, 70),
            (random_sequence(n, 1000, seed=3), None),
        ]
        for values, length in cases:
            idx = lis(values)
            assert all(a < b for a, b in zip(idx, idx[1:]))
            assert all(values[a] < values[b] for a, b in zip(idx, idx[1:]))
            assert length is None or len(idx) == length
        assert lis(list(range(n))) == list(range(n))
        for values in (list(range(n, 0, -1)), [7] * n):
            assert lis(values) == [0]

    def test_result_is_strictly_increasing(self):
        for seed in range(15):
            values = random_sequence(14, 6, seed=seed)
            idx = lis(values)
            assert all(a < b for a, b in zip(idx, idx[1:]))
            assert all(values[a] < values[b] for a, b in zip(idx, idx[1:]))


class TestGreedyKlis:
    def test_known_sequence_two_rounds(self):
        sel = greedy_klis(KNOWN_SEQ, 2)
        assert sel.total_length == 9
        assert_valid_selection(sel, KNOWN_SEQ, 2)

    def test_k_one_is_single_lis(self):
        for seed in range(10):
            values = random_sequence(10, 9, seed=seed)
            sel = greedy_klis(values, 1)
            assert sel.rounds == (tuple(lis(values)),)

    def test_rounds_are_disjoint_and_non_increasing(self):
        for seed in range(20):
            values = random_sequence(12, 9, seed=seed)
            sel = greedy_klis(values, 4)
            assert_valid_selection(sel, values, 4)
            lengths = [len(r) for r in sel.rounds]
            assert lengths == sorted(lengths, reverse=True)

    def test_exhausted_residue_yields_empty_rounds(self):
        sel = greedy_klis([1, 2, 3], 3)
        assert sel.rounds[0] == (0, 1, 2)
        assert sel.rounds[1] == ()
        assert sel.rounds[2] == ()
        assert sel.total_length == 3

    def test_ratio_bound_any_policy(self):
        from fractions import Fraction

        for seed in range(60):
            values = random_sequence(11, 9, seed=seed)
            for k in (2, 3):
                greedy = greedy_klis(values, k).total_length
                opt = exact_klis(values, k).total_length
                assert Fraction(greedy) >= total_ratio_bound(k) * opt

    def test_each_round_at_least_remaining_optimal_parts(self):
        # whatever survives of any optimal part is available to the greedy,
        # so the picked round can never be shorter than any survivor
        for seed in range(40):
            values = random_sequence(10, 9, seed=seed)
            for k in (2, 3):
                greedy = greedy_klis(values, k)
                optimal = exact_klis(values, k)
                removed: set[int] = set()
                for round_x in greedy.rounds:
                    for part in optimal.rounds:
                        survivors = [i for i in part if i not in removed]
                        assert len(round_x) >= len(survivors)
                    removed.update(round_x)

    def test_matches_residue_of_pairs_reference(self):
        # 500 seeded sequences of length 0 to 39 over value ranges 3, 8 and 40,
        # so ties are common, at every k from 1 to 6
        for seed in range(500):
            values = random_sequence(seed % 40, (3, 8, 40)[seed % 3], seed=seed)
            for k in range(1, 7):
                assert greedy_klis(values, k) == reference_greedy_klis(values, k)


class TestScriptedGreedy:
    def test_matrix_three_rounds(self):
        values, script = matrix_sequence(3)
        sel = greedy_klis_scripted(values, 3, script)
        assert sel.total_length == 7
        assert_valid_selection(sel, values, 3)

    def test_two_by_two_matrix(self):
        values, script = matrix_sequence(2)
        assert values == [1, 2, 1, 2]
        assert greedy_klis_scripted(values, 2, script).total_length == 3
        assert exact_klis(values, 2).total_length == 4

    def test_non_maximal_round_rejected(self):
        message = "round 0: scripted pick has length 1, longest increasing subsequence has length 3"
        with pytest.raises(ScriptError, match=message):
            greedy_klis_scripted([1, 2, 3], 1, [[0]])

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_each_staircase_round_is_a_longest_subsequence(self, k):
        values, script = matrix_sequence(k)
        assert greedy_klis_scripted(values, k, script).rounds == tuple(map(tuple, script))
        removed = set()
        for entry in script:
            residue = [v for i, v in enumerate(values) if i not in removed]
            assert len(entry) == brute_lis_length(residue)
            removed.update(entry)

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_staircase_round_one_short_rejected(self, k):
        values, script = matrix_sequence(k)
        for r, entry in enumerate(script):
            short = [list(e) for e in script]
            short[r].pop()
            message = (f"round {r}: scripted pick has length {len(entry) - 1}, "
                       f"longest increasing subsequence has length {len(entry)}")
            with pytest.raises(ScriptError, match=message):
                greedy_klis_scripted(values, k, short)

    def test_removed_index_rejected(self):
        values, _ = matrix_sequence(2)
        with pytest.raises(ScriptError, match="round 1: index 0 is not in the current residue"):
            greedy_klis_scripted(values, 2, [[0, 3], [0]])

    def test_non_increasing_values_rejected(self):
        message = "round 0: indices must be increasing in position and value"
        with pytest.raises(ScriptError, match=message):
            greedy_klis_scripted([2, 1], 1, [[0, 1]])

    def test_wrong_round_count_rejected(self):
        with pytest.raises(ValueError):
            greedy_klis_scripted([1, 2], 1, [[0], [1]])

    def test_k_zero_rejected_as_by_greedy_klis(self):
        for run in (greedy_klis, lambda values, k: greedy_klis_scripted(values, k, [])):
            with pytest.raises(ValueError, match="k must be at least 1"):
                run([1, 2], 0)


class TestTextFormats:
    def test_parse_commas_and_spaces(self):
        assert parse_sequence("3,4, 5\n") == [3, 4, 5]
        assert parse_sequence("3 4\t5") == [3, 4, 5]

    def test_underscore_token_rejected(self):
        # int() would read "1_0" as 10
        for text in ("1_0,2,3", "3 4 1_0", "_1"):
            token = next(t for t in text.replace(",", " ").split() if "_" in t)
            with pytest.raises(ValueError, match=f"sequence token '{token}' has an underscore"):
                parse_sequence(text)

    def test_format_round_trip(self):
        values = random_sequence(9, 9, seed=3)
        assert parse_sequence(format_sequence(values)) == values

    def test_selection_json_shape(self):
        sel = greedy_klis(KNOWN_SEQ, 2)
        data = selection_to_json(sel, KNOWN_SEQ)
        assert data["total"] == 9
        assert data["values"][0] == [3, 4, 5, 6, 7, 8, 9]
        assert len(data["rounds"]) == 2
