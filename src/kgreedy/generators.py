"""Instance generators: canned fixtures and seeded random families."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .network import Edge, ProjectNetwork, as_cost, linear_schedule


def counterexample_network() -> ProjectNetwork:
    """The 5-job network on which the greedy plan is provably suboptimal.

    Duration 9 with the unique critical path j1, j3, j5; greedy spends 28 to
    save two days ({j3} then {j1, j2}) while {j1: 1, j5: 1} costs only 20.
    Served by the CLI as ``gen fig2``.
    """
    jobs = [
        ("j1", "1", "2", 1, 3, 10),
        ("j2", "1", "3", 1, 5, 9),
        ("j3", "2", "3", 1, 3, 9),
        ("j4", "2", "4", 1, 5, 10),
        ("j5", "3", "4", 1, 3, 10),
    ]
    edges = tuple(
        Edge(id=jid, src=u, dst=v, min_len=a, normal_len=b,
             cost_schedule=linear_schedule(c, b - a))
        for jid, u, v, a, b, c in jobs
    )
    return ProjectNetwork(nodes=("1", "2", "3", "4"), source="1", sink="4", edges=edges)


# -- staircase matrix sequences -------------------------------------------------

def _matrix_positions(k: int) -> dict[tuple[int, int], int]:
    """Position of each matrix cell (row, col) in the flattened sequence.

    Cells are emitted anti-diagonal by anti-diagonal (row + col constant),
    each anti-diagonal from its top-left cell (largest row) down to its
    bottom-right cell.  Rows count from the bottom, so cell values equal the
    row index and the emitted value pattern is 1; 2,1; 3,2,1; ...
    """
    pos: dict[tuple[int, int], int] = {}
    counter = 0
    for c in range(2, 2 * k + 1):
        for i in range(min(k, c - 1), max(1, c - k) - 1, -1):
            pos[(i, c - i)] = counter
            counter += 1
    return pos


def matrix_sequence(k: int) -> tuple[list[int], list[list[int]]]:
    """The k*k staircase sequence together with its adversarial script.

    The sequence of length k^2 splits into k disjoint copies of (1..k), so
    the exact optimum is k^2.  The script lists the k longest main-parallel
    diagonals (offsets 0, +1, -1, +2, -2, ...), each a valid longest
    increasing subsequence at its round, driving the greedy total down to
    ceil(3*k^2/4).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    pos = _matrix_positions(k)
    values = [0] * (k * k)
    for (i, _), p in pos.items():
        values[p] = i

    offsets = [0]
    step = 1
    while len(offsets) < k:
        offsets.append(step)
        if len(offsets) < k:
            offsets.append(-step)
        step += 1

    script = []
    for off in offsets:
        rows = range(max(1, 1 - off), min(k, k - off) + 1)
        script.append([pos[(i, i + off)] for i in rows])
    return values, script


# -- seeded random families ------------------------------------------------------

@dataclass(frozen=True)
class RandomNetSpec:
    """Parameters for the seeded project-network sampler."""

    node_count: int
    edge_count: int
    max_normal_len: int = 5
    max_crashable: int = 2
    cost_range: tuple[int, int] = (1, 9)
    seed: int = 0

    def __post_init__(self):
        if self.node_count < 2:
            raise ValueError("need at least two nodes")
        if self.edge_count < self.node_count - 1:
            raise ValueError("need at least node_count - 1 edges")
        if self.max_normal_len < 1 or self.max_crashable < 0:
            raise ValueError("length bounds must be positive")
        lo, hi = self.cost_range
        if not 1 <= lo <= hi:
            raise ValueError("cost range must satisfy 1 <= lo <= hi")


def random_network(spec: RandomNetSpec) -> ProjectNetwork:
    """A seeded random project network with a single source and sink.

    Nodes are arranged along a backbone chain (which pins down the unique
    source and sink and puts every node on a source-to-sink path); the
    remaining edge budget goes to random forward shortcuts, so parallel
    edges and diamonds occur freely.
    """
    rng = random.Random(spec.seed)
    m = spec.node_count
    nodes = tuple(f"n{i}" for i in range(m))
    pairs = [(i, i + 1) for i in range(m - 1)]
    while len(pairs) < spec.edge_count:
        u = rng.randrange(0, m - 1)
        v = rng.randrange(u + 1, m)
        pairs.append((u, v))

    lo, hi = spec.cost_range
    costs = {}  # each drawn cost, parsed once
    edges = []
    for j, (u, v) in enumerate(pairs):
        b = rng.randint(1, spec.max_normal_len)
        crash = rng.randint(0, min(spec.max_crashable, b))
        c = rng.randint(lo, hi)
        cost = costs.get(c)
        if cost is None:
            cost = costs[c] = as_cost(c)
        edges.append(Edge(f"e{j}", nodes[u], nodes[v], b - crash, b, (cost,) * crash))
    return ProjectNetwork(nodes=nodes, source=nodes[0], sink=nodes[-1], edges=tuple(edges))


def with_convex_schedules(net: ProjectNetwork, seed: int = 0) -> ProjectNetwork:
    """Replace every schedule with random non-decreasing per-day costs in 1..9."""
    rng = random.Random(seed)
    edges = []
    for e in net.edges:
        days = sorted(rng.randint(1, 9) for _ in range(e.crashable_days))
        edges.append(e._replace(cost_schedule=tuple(as_cost(c) for c in days)))
    return ProjectNetwork(net.nodes, net.source, net.sink, tuple(edges))


def random_sequence(n: int, value_range: int, seed: int = 0) -> list[int]:
    """n seeded uniform integers in 1..value_range."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if value_range < 1:
        raise ValueError("value range must be at least 1")
    rng = random.Random(seed)
    return [rng.randint(1, value_range) for _ in range(n)]
