"""The seeded workloads: instance generation and the op list of one pass.

A workload's set-up writes its instance files under a work directory and
returns the ops of one pass.  An op is one ``kgreedy.cli.main(argv)`` call;
the program sees only the argv and the files it names.  Everything random is
drawn from ``random.Random("<op family>/<seed>")``, so a seed fixes the
instances and the argv byte for byte.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

from checks import (
    Project,
    check_crash,
    check_experiment,
    check_klis,
    check_lis,
    patience_length,
)


@dataclass
class Op:
    argv: list[str]
    check: Callable[[object, str], list[str]]
    params: dict
    subject: object = field(default=None, repr=False)

    def provenance(self) -> dict:
        """Instance parameters, with counts from the benchmark's own code."""
        info = dict(self.params)
        if isinstance(self.subject, Project):
            info["critical_edges"] = self.subject.critical_edges()
        elif isinstance(self.subject, list):
            info["lis_length"] = patience_length(self.subject)
        return info


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _write_project(path: Path, doc: dict) -> str:
    return _write(path, json.dumps(doc) + "\n")


def _write_sequence(path: Path, values) -> str:
    return _write(path, ",".join(str(v) for v in values) + "\n")


def _crash_op(path: str, doc: dict, k_target: int, trace: bool) -> Op:
    project = Project(doc)
    k_max = project.k_max()
    k = min(k_target, k_max)
    argv = ["crash", "--input", path, "-k", str(k)] + (["--trace"] if trace else [])
    params = {"n": len(doc["nodes"]), "m": len(doc["edges"]), "k": k, "k_max": k_max}
    return Op(argv, partial(check_crash, project, k, trace), params, project)


# -- crash-chain ---------------------------------------------------------------------

# (edges, k); node count is edges // 4.
CHAIN_LADDER = [(100, 8), (200, 6), (400, 4), (700, 3), (1000, 2)]
CHAIN_TINY = [(30, 3), (60, 5)]


def crash_chain(kg, seed: int, tiny: bool, workdir: Path) -> list[Op]:
    rng = random.Random(f"crash-chain/{seed}")
    ops = []
    for m, k in CHAIN_TINY if tiny else CHAIN_LADDER:
        spec = kg.generators.RandomNetSpec(
            node_count=m // 4, edge_count=m, max_normal_len=9, max_crashable=5,
            seed=rng.randrange(2**31),
        )
        linear = kg.generators.random_network(spec)
        convex = kg.generators.with_convex_schedules(linear, seed=rng.randrange(2**31))
        for tag, net, trace in (("lin", linear, True), ("cvx", convex, False)):
            doc = kg.network.network_to_json(net)
            path = _write_project(workdir / f"chain-{m}-{tag}.json", doc)
            ops.append(_crash_op(path, doc, k, trace))
    return ops


# -- crash-wide ----------------------------------------------------------------------

def layered_network(rng: random.Random, width: int, depth: int, rational: bool) -> dict:
    """``depth`` layers of ``width`` nodes between a source and a sink.

    All jobs between two consecutive layers share one normal length, so every
    source-to-sink path ties and the whole network is critical.  Every job
    can lose at least 4 days, so k_max >= 4 * (depth + 1).  Each node feeds
    its own column and the next two, cyclically, in the next layer.  With
    ``rational``, about half the jobs cost a fraction with denominator 2..7.
    """
    layers = [[f"v{d}_{i}" for i in range(width)] for d in range(depth)]
    gaps = [rng.choice((8, 10, 12)) for _ in range(depth + 1)]
    edges = []

    def job(u: str, v: str, length: int) -> None:
        cost = rng.randint(1, 9)
        if rational and rng.random() < 0.5:
            cost = str(Fraction(rng.randint(1, 30), rng.randint(2, 7)))
        edges.append({"id": f"e{len(edges)}", "from": u, "to": v,
                      "a": length - rng.randint(4, length - 2), "b": length, "c": cost})

    for v in layers[0]:
        job("s", v, gaps[0])
    for d in range(depth - 1):
        for i, u in enumerate(layers[d]):
            for j in sorted({i, (i + 1) % width, (i + 2) % width}):
                job(u, layers[d + 1][j], gaps[d + 1])
    for u in layers[-1]:
        job(u, "t", gaps[-1])
    nodes = ["s"] + [v for layer in layers for v in layer] + ["t"]
    return {"nodes": nodes, "source": "s", "sink": "t", "edges": edges}


# (width, depth, k, rational costs, also run the first copy with --trace, copies).
# How long a wide op takes varies a lot with its random costs, most with rational
# ones, so every rung has several short ops and no single instance sets the pass.
WIDE_LADDER = [
    (4, 10, 3, True, True, 12),
    (6, 10, 2, True, False, 9),
    (8, 12, 2, False, True, 6),
    (12, 6, 1, False, False, 5),
    (6, 30, 1, False, False, 6),
]
WIDE_TINY = [(3, 4, 6, True, True, 2), (4, 6, 4, False, False, 2)]


def crash_wide(kg, seed: int, tiny: bool, workdir: Path) -> list[Op]:
    rng = random.Random(f"crash-wide/{seed}")
    ops = []
    for width, depth, k, rational, trace, copies in WIDE_TINY if tiny else WIDE_LADDER:
        for copy in range(copies):
            doc = layered_network(rng, width, depth, rational)
            path = _write_project(workdir / f"wide-{width}x{depth}-{copy}.json", doc)
            ops.append(_crash_op(path, doc, k, False))
            if trace and copy == 0:
                ops.append(_crash_op(path, doc, k, True))
    return ops


# -- klis-long -----------------------------------------------------------------------

# (family, n or staircase k, command, k)
KLIS_LADDER = [
    ("random", 3000, "lis", 0),
    ("random", 2000, "klis", 5),
    ("random", 1000, "klis", 10),
    ("near-sorted", 2000, "lis", 0),
    ("near-sorted", 1000, "klis", 3),
    ("sorted", 1000, "lis", 0),
    ("sorted", 700, "klis", 2),
    ("staircase", 20, "script", 20),
    ("staircase", 30, "script", 30),
]
KLIS_TINY = [
    ("random", 300, "lis", 0),
    ("near-sorted", 200, "klis", 3),
    ("sorted", 100, "lis", 0),
    ("staircase", 6, "script", 6),
]
NEAR_SORTED_NOISE = 48


def klis_long(kg, seed: int, tiny: bool, workdir: Path) -> list[Op]:
    rng = random.Random(f"klis-long/{seed}")
    ops = []
    for j, (family, size, command, k) in enumerate(KLIS_TINY if tiny else KLIS_LADDER):
        script_path = None
        if family == "random":
            values = kg.generators.random_sequence(size, 10 * size, rng.randrange(2**31))
        elif family == "near-sorted":
            values = [i + rng.randrange(NEAR_SORTED_NOISE) for i in range(size)]
        elif family == "sorted":
            start = rng.randrange(1000)
            values = list(range(start, start + size))
        else:
            values, script = kg.generators.matrix_sequence(size)
            script_path = _write(workdir / f"klis-{j}-script.json", json.dumps(script) + "\n")
        path = _write_sequence(workdir / f"klis-{j}-{family}.txt", values)
        if command == "lis":
            argv = ["lis", "--input", path]
            check = partial(check_lis, values)
        else:
            argv = ["klis", "-k", str(k), "--input", path]
            if script_path:
                argv += ["--script", script_path]
            check = partial(check_klis, values, k, family == "staircase")
        params = {"family": family, "n": len(values), "k": k or 1}
        ops.append(Op(argv, check, params, values))
    return ops


# -- ratio-experiment ----------------------------------------------------------------

# (problem, generator, k, trials per op, ops, extra flags).  The exhaustive
# oracle's cost varies a lot from one random instance to the next, so the
# random rungs spread their trials over several short ops.  Crashing stops at
# 7 nodes and 11 edges: at 8 nodes, 13 edges and k = 4 one trial in a few
# hundred costs 20x the median, and such a trial would set the whole pass.
RATIO_LADDER = [
    ("crashing", "random", 2, 10, 3, ["--nodes", "6", "--edges", "9"]),
    ("crashing", "random", 3, 6, 5, ["--nodes", "7", "--edges", "11"]),
    ("crashing", "random", 4, 6, 4, ["--nodes", "6", "--edges", "9"]),
    ("klis", "random", 2, 12, 2, ["--length", "12", "--range", "20"]),
    ("klis", "random", 3, 5, 3, ["--length", "13", "--range", "50"]),
    ("klis", "matrix", 4, 1, 1, []),
    ("klis", "matrix", 6, 1, 1, []),
    ("klis", "matrix", 8, 1, 1, []),
]
RATIO_TINY = [
    ("crashing", "random", 2, 2, 1, ["--nodes", "5", "--edges", "7"]),
    ("klis", "random", 2, 2, 1, ["--length", "8"]),
    ("klis", "matrix", 4, 1, 1, []),
]


def ratio_experiment(kg, seed: int, tiny: bool, workdir: Path) -> list[Op]:
    ops = []
    next_seed = seed * 10_000
    for problem, generator, k, trials, copies, extra in RATIO_TINY if tiny else RATIO_LADDER:
        for _ in range(copies):
            argv = ["experiment", "--problem", problem, "--generator", generator,
                    "--trials", str(trials), "-k", str(k), "--seed", str(next_seed)] + extra
            check = partial(check_experiment, problem, generator == "matrix", k, trials,
                            next_seed)
            params = {"problem": problem, "generator": generator, "k": k, "trials": trials,
                      "seed": next_seed}
            ops.append(Op(argv, check, params))
            next_seed += trials
    return ops


# Each workload is the union of op families that stress different layers: a
# run is long enough to be steady on a noisy host only if there are few
# workloads (each gets 22 runs of run_seconds).
BUILDERS = {
    "crash": (crash_chain, crash_wide),
    "klis-ratio": (klis_long, ratio_experiment),
}


def set_up(kg, name: str, seed: int, tiny: bool, workdir: Path) -> list[Op]:
    """Write the workload's instance files and op manifest; return one pass."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops = [op for build in BUILDERS[name] for op in build(kg, seed, tiny, workdir)]
    _write(workdir / "ops.json", json.dumps([op.argv for op in ops]) + "\n")
    return ops
