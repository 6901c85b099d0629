"""Longest increasing subsequences and greedy repeated extraction.

"Increasing" always means strictly increasing.  ``lis`` finds the
lexicographically first maximum subsequence; ``greedy_klis`` extracts k of
them, removing each winner before the next round.  All reported indices
refer to the original sequence, no matter how much of it has been removed.

``greedy_klis_scripted`` replays an externally supplied removal sequence and
verifies, round by round, that each scripted pick really is a longest
increasing subsequence of what is left.  This realizes adversarial greedy
executions without baking adversarial behaviour into ``lis``.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ScriptError


def total_ratio_bound(k: int) -> Fraction:
    """Guaranteed fraction of the optimum the greedy total attains.

    Extract-and-remove keeps at least 1 - ((k-1)/k)^k of the best possible
    total, which exceeds 1 - 1/e for every k.
    """
    return 1 - Fraction(k - 1, k) ** k


@dataclass(frozen=True)
class SubseqSelection:
    """k disjoint increasing subsequences, as index lists into the original sequence."""

    rounds: tuple[tuple[int, ...], ...]
    total_length: int


def _suffix_lis_lengths(values: Sequence[int]) -> tuple[list[int], int]:
    """For each position, the length of the longest increasing run starting there,
    and the length of the longest increasing subsequence overall.

    Patience piles over the reversed, negated sequence: the pile an element
    lands on is its suffix-LIS length minus one.
    """
    lengths: list[int] = []
    tails: list[int] = []
    for x in map(operator.neg, reversed(values)):
        pos = bisect_left(tails, x)
        if pos == len(tails):
            tails.append(x)
        else:
            tails[pos] = x
        lengths.append(pos + 1)
    lengths.reverse()
    return lengths, len(tails)


def lis(values: Sequence[int]) -> list[int]:
    """Indices of one longest strictly increasing subsequence, in O(n log n).

    Among all maximum-length subsequences it returns the lexicographically
    smallest index list, so results are reproducible.
    """
    # One scan takes each position whose suffix length is the length still
    # needed.  Positions sharing a suffix length hold non-increasing values,
    # so the first one after a pick also exceeds the picked value.  Maximum
    # subsequences are closed under position-wise min, so the scan's earliest
    # picks are lexicographically smallest.
    lengths, need = _suffix_lis_lengths(values)
    picked: list[int] = []
    i = 0
    while need:
        i = lengths.index(need, i)
        picked.append(i)
        need -= 1
    return picked


def greedy_klis(values: Sequence[int], k: int) -> SubseqSelection:
    """k rounds of extract-longest-then-remove.

    Later rounds come out empty once the residue is exhausted; round lengths
    never increase because every residue is contained in the previous one.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    residue = list(values)
    positions = list(range(len(values)))  # the original position of each residue value
    rounds: list[tuple[int, ...]] = []
    for _ in range(k):
        local = lis(residue)
        rounds.append(tuple(map(positions.__getitem__, local)))
        keep = [True] * len(residue)
        for p in local:
            keep[p] = False
        positions = list(itertools.compress(positions, keep))
        residue = list(itertools.compress(residue, keep))
    return SubseqSelection(tuple(rounds), sum(map(len, rounds)))


def greedy_klis_scripted(
    values: Sequence[int], k: int, script: Sequence[Sequence[int]]
) -> SubseqSelection:
    """Replay a scripted k-round removal, enforcing per-round maximality.

    Each script entry must be an increasing subsequence of the current
    residue (original indices) and exactly as long as the residue's longest
    increasing subsequence.  A failing round raises ScriptError naming the
    round; a short pick's message gives both lengths.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(script) != k:
        raise ValueError(f"script has {len(script)} rounds, expected {k}")
    n = len(values)
    alive = [True] * n
    rounds: list[tuple[int, ...]] = []
    for r, entry in enumerate(script):
        entry = list(entry)
        prev_idx = -1
        prev_val = None
        for idx in entry:
            if not 0 <= idx < n or not alive[idx]:
                raise ScriptError(f"round {r}: index {idx} is not in the current residue")
            if idx <= prev_idx or (prev_val is not None and values[idx] <= prev_val):
                raise ScriptError(f"round {r}: indices must be increasing in position and value")
            prev_idx, prev_val = idx, values[idx]
        # Patience piles over the residue: only their number is needed.
        tails: list[int] = []
        for x in itertools.compress(values, alive):
            pos = bisect_left(tails, x)
            if pos == len(tails):
                tails.append(x)
            else:
                tails[pos] = x
        best = len(tails)
        if len(entry) != best:
            raise ScriptError(
                f"round {r}: scripted pick has length {len(entry)}, "
                f"longest increasing subsequence has length {best}"
            )
        for idx in entry:
            alive[idx] = False
        rounds.append(tuple(entry))
    return SubseqSelection(tuple(rounds), sum(len(r) for r in rounds))


# -- text and JSON interchange -------------------------------------------------

def parse_sequence(text: str) -> list[int]:
    """One line of comma- or whitespace-separated integers."""
    tokens = text.replace(",", " ").split()
    # int() reads "_" as a digit separator; one test of the text stays in C.
    if "_" in text:
        token = next(t for t in tokens if "_" in t)
        raise ValueError(f"sequence token {token!r} has an underscore")
    return list(map(int, tokens))


def format_sequence(values: Sequence[int]) -> str:
    return ",".join(str(v) for v in values)


def selection_to_json(selection: SubseqSelection, values: Sequence[int]) -> dict:
    return {
        "rounds": [list(r) for r in selection.rounds],
        "values": [list(map(values.__getitem__, r)) for r in selection.rounds],
        "total": selection.total_length,
    }
