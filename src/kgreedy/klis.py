"""Longest increasing subsequences and greedy repeated extraction.

"Increasing" always means strictly increasing.  ``lis`` finds one maximum
subsequence under a deterministic tie-break policy; ``greedy_klis`` extracts
k of them, removing each winner before the next round.  All reported indices
refer to the original sequence, no matter how much of it has been removed.

``greedy_klis_scripted`` replays an externally supplied removal sequence and
verifies, round by round, that each scripted pick really is a longest
increasing subsequence of what is left.  This realizes adversarial greedy
executions without baking adversarial behaviour into the tie-breaker.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .errors import ScriptNotIncreasingError, ScriptNotMaximalError


class TieBreak(Enum):
    # Among maximum-length subsequences: lexicographically smallest index
    # list (CANONICAL) or lexicographically largest (LATEST).
    CANONICAL = "canonical"
    LATEST = "latest"


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
    n = len(values)
    lengths = [0] * n
    tails: list[int] = []
    for i in range(n - 1, -1, -1):
        x = -values[i]
        pos = bisect_left(tails, x)
        if pos == len(tails):
            tails.append(x)
        else:
            tails[pos] = x
        lengths[i] = pos + 1
    return lengths, len(tails)


def lis(values: Sequence[int], policy: TieBreak = TieBreak.CANONICAL) -> list[int]:
    """Indices of one longest strictly increasing subsequence, in O(n log n).

    CANONICAL returns the lexicographically smallest index list among all
    maximum-length subsequences, LATEST the largest; both are total orders,
    so results are reproducible.  LATEST is CANONICAL on the mirrored
    (reversed, negated) sequence, read back to front.
    """
    # One scan takes each position whose suffix length is the length still
    # needed.  Positions sharing a suffix length hold non-increasing values,
    # so the first one after a pick also exceeds the picked value.  Maximum
    # subsequences are closed under position-wise min and max, so the scan's
    # earliest picks (latest, when mirrored) are lexicographically extreme.
    n = len(values)
    mirrored = policy is TieBreak.LATEST
    lengths, need = _suffix_lis_lengths([-v for v in reversed(values)] if mirrored else values)
    picked: list[int] = []
    for i, length in enumerate(lengths):
        if length == need:
            picked.append(n - 1 - i if mirrored else i)
            need -= 1
    return picked[::-1] if mirrored else picked


def greedy_klis(
    values: Sequence[int], k: int, policy: TieBreak = TieBreak.CANONICAL
) -> SubseqSelection:
    """k rounds of extract-longest-then-remove.

    Later rounds come out empty once the residue is exhausted; round lengths
    never increase because every residue is contained in the previous one.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    residue = list(enumerate(values))
    rounds: list[tuple[int, ...]] = []
    for _ in range(k):
        local = lis([v for _, v in residue], policy)
        rounds.append(tuple(residue[p][0] for p in local))
        for p in reversed(local):
            del residue[p]
    return SubseqSelection(tuple(rounds), sum(len(r) for r in rounds))


def greedy_klis_scripted(
    values: Sequence[int], k: int, script: Sequence[Sequence[int]]
) -> SubseqSelection:
    """Replay a scripted k-round removal, enforcing per-round maximality.

    Each script entry must be an increasing subsequence of the current
    residue (original indices) and exactly as long as the residue's longest
    increasing subsequence; anything shorter raises ScriptNotMaximalError
    with the round and the true length.
    """
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
                raise ScriptNotIncreasingError(
                    f"round {r}: index {idx} is not in the current residue", round_index=r
                )
            if idx <= prev_idx or (prev_val is not None and values[idx] <= prev_val):
                raise ScriptNotIncreasingError(
                    f"round {r}: indices must be increasing in position and value",
                    round_index=r,
                )
            prev_idx, prev_val = idx, values[idx]
        residue_vals = [values[i] for i in range(n) if alive[i]]
        best = len(lis(residue_vals))
        if len(entry) != best:
            raise ScriptNotMaximalError(
                f"round {r}: scripted pick has length {len(entry)}, "
                f"longest increasing subsequence has length {best}",
                round_index=r,
                script_length=len(entry),
                lis_length=best,
            )
        for idx in entry:
            alive[idx] = False
        rounds.append(tuple(entry))
    return SubseqSelection(tuple(rounds), sum(len(r) for r in rounds))


# -- text and JSON interchange -------------------------------------------------

def parse_sequence(text: str) -> list[int]:
    """One line of comma- or whitespace-separated integers."""
    tokens = text.replace(",", " ").split()
    return [int(t) for t in tokens]


def format_sequence(values: Sequence[int]) -> str:
    return ",".join(str(v) for v in values)


def selection_to_json(selection: SubseqSelection, values: Sequence[int]) -> dict:
    return {
        "rounds": [list(r) for r in selection.rounds],
        "values": [[values[i] for i in r] for r in selection.rounds],
        "total": selection.total_length,
    }
