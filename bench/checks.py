"""Independent output checks for benchmark ops.

Nothing here imports kgreedy: the longest-path DP and the patience-length
routine are the benchmark's own, so a defect shared with the library cannot
hide itself.  Every check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from fractions import Fraction


# -- project networks ------------------------------------------------------------

def topological_order(nodes, arcs) -> list:
    """Kahn's algorithm over (src, dst) pairs; the input must be acyclic."""
    indeg = {v: 0 for v in nodes}
    out = {v: [] for v in nodes}
    for u, v in arcs:
        indeg[v] += 1
        out[u].append(v)
    order = [v for v in nodes if indeg[v] == 0]
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    if len(order) != len(nodes):
        raise ValueError("project graph has a cycle")
    return order


class Project:
    """A project JSON document with its longest-path DP."""

    def __init__(self, doc: dict):
        self.nodes = list(doc["nodes"])
        self.source, self.sink = doc["source"], doc["sink"]
        self.edges = doc["edges"]
        self.order = topological_order(self.nodes, [(e["from"], e["to"]) for e in self.edges])
        self.schedule = {}
        for e in self.edges:
            c, days = e["c"], e["b"] - e["a"]
            self.schedule[e["id"]] = (
                [Fraction(x) for x in c] if isinstance(c, list) else [Fraction(c)] * days
            )

    def dists(self, lengths: dict) -> tuple[dict, dict]:
        """Longest distances from the source and to the sink under ``lengths``."""
        incoming = {v: [] for v in self.nodes}
        outgoing = {v: [] for v in self.nodes}
        for e in self.edges:
            incoming[e["to"]].append(e)
            outgoing[e["from"]].append(e)
        from_src = {v: 0 for v in self.nodes}
        for v in self.order:
            for e in incoming[v]:
                from_src[v] = max(from_src[v], from_src[e["from"]] + lengths[e["id"]])
        to_sink = {v: 0 for v in self.nodes}
        for v in reversed(self.order):
            for e in outgoing[v]:
                to_sink[v] = max(to_sink[v], to_sink[e["to"]] + lengths[e["id"]])
        return from_src, to_sink

    def duration(self, amounts: dict | None = None) -> int:
        amounts = amounts or {}
        lengths = {e["id"]: e["b"] - amounts.get(e["id"], 0) for e in self.edges}
        return self.dists(lengths)[0][self.sink]

    def k_max(self) -> int:
        return self.duration() - self.duration({e["id"]: e["b"] - e["a"] for e in self.edges})

    def critical_edges(self) -> int:
        from_src, to_sink = self.dists({e["id"]: e["b"] for e in self.edges})
        total = from_src[self.sink]
        return sum(
            1 for e in self.edges if from_src[e["from"]] + e["b"] + to_sink[e["to"]] == total
        )

    def plan_cost(self, amounts: dict) -> Fraction:
        return sum((sum(self.schedule[eid][:x], Fraction(0)) for eid, x in amounts.items()),
                   Fraction(0))


def check_crash(project: Project, k: int, trace: bool, rc, out: str) -> list[str]:
    """Greedy crash output: plan in bounds, k days saved, costs and trace consistent."""
    if rc != 0:
        return [f"exit code {rc}"]
    payload = json.loads(out)
    problems = []
    amounts = payload["plan"]["amounts"]
    crashable = {e["id"]: e["b"] - e["a"] for e in project.edges}
    for eid, x in amounts.items():
        if eid not in crashable or not 0 < x <= crashable[eid]:
            problems.append(f"plan amount {x} out of bounds for edge {eid!r}")
    if problems:
        return problems
    base = project.duration()
    after = project.duration(amounts)
    if after > base - k:
        problems.append(f"plan shortens {base} days to {after}, not by {k}")
    want = [base - i for i in range(1, k + 1)]
    if payload["durations"] != want:
        problems.append(f"durations {payload['durations']} are not {want}")
    steps = payload["steps"]
    units: dict = {}
    for step in steps:
        for eid in step["edges"]:
            units[eid] = units.get(eid, 0) + 1
    if len(steps) != k or units != amounts:
        problems.append("steps do not add up to the plan")
    total = Fraction(payload["total_cost"])
    step_sum = sum((Fraction(s["cost"]) for s in steps), Fraction(0))
    if total != step_sum or total != project.plan_cost(amounts):
        problems.append(
            f"total_cost {total}, step sum {step_sum}, plan cost {project.plan_cost(amounts)}"
        )
    if trace and payload["trace"]["report"]["passed"] is not True:
        problems.append("trace report did not pass")
    return problems


# -- sequences ---------------------------------------------------------------------

def patience_length(values) -> int:
    """Length of a longest strictly increasing subsequence."""
    tails: list = []
    for x in values:
        pos = bisect_left(tails, x)
        if pos == len(tails):
            tails.append(x)
        else:
            tails[pos] = x
    return len(tails)


def staircase_total(k: int) -> int:
    """ceil(3k^2/4): the scripted greedy total on the k-staircase."""
    return (3 * k * k + 3) // 4


def _increasing(indices, values) -> bool:
    return all(0 <= i < len(values) for i in indices) and all(
        i < j and values[i] < values[j] for i, j in zip(indices, indices[1:])
    )


def check_lis(values, rc, out: str) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    payload = json.loads(out)
    idx = payload["indices"]
    problems = []
    if not _increasing(idx, values):
        problems.append("indices are not increasing in position and value")
    elif payload["values"] != [values[i] for i in idx]:
        problems.append("values do not match the indices")
    want = patience_length(values)
    if payload["length"] != len(idx) or len(idx) != want:
        problems.append(f"length {payload['length']} with {len(idx)} indices, LIS is {want}")
    return problems


def check_klis(values, k: int, staircase: bool, rc, out: str) -> list[str]:
    """k rounds: disjoint, increasing, each a longest subsequence of its residue."""
    if rc != 0:
        return [f"exit code {rc}"]
    payload = json.loads(out)
    rounds = payload["rounds"]
    problems = []
    if len(rounds) != k:
        return [f"{len(rounds)} rounds, expected {k}"]
    alive = [True] * len(values)
    prev_len = None
    for r, part in enumerate(rounds):
        if not _increasing(part, values) or not all(alive[i] for i in part):
            problems.append(f"round {r} is not increasing or reuses an index")
            break
        if payload["values"][r] != [values[i] for i in part]:
            problems.append(f"round {r} values do not match its indices")
        best = patience_length([v for v, a in zip(values, alive) if a])
        if len(part) != best:
            problems.append(f"round {r} has length {len(part)}, residue LIS is {best}")
        if prev_len is not None and len(part) > prev_len:
            problems.append(f"round {r} is longer than round {r - 1}")
        prev_len = len(part)
        for i in part:
            alive[i] = False
    total = sum(len(p) for p in rounds)
    if payload["total"] != total:
        problems.append(f"total {payload['total']} but rounds hold {total}")
    if staircase and total != staircase_total(k):
        problems.append(f"staircase total {total}, expected {staircase_total(k)}")
    return problems


# -- ratio experiments ---------------------------------------------------------------

def crash_bound(k: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, k + 1)), Fraction(0))


def klis_bound(k: int) -> Fraction:
    return 1 - Fraction(k - 1, k) ** k


def check_experiment(problem: str, matrix: bool, k: int, trials: int, seed: int,
                     rc, out: str) -> list[str]:
    """Every trial row is ``yes`` or ``skip``, ratios and bounds are exact."""
    if rc != 0:
        return [f"exit code {rc}"]
    lines = out.splitlines()
    rows = [line.split(",") for line in lines[2:] if not line.startswith("#")]
    problems = []
    if len(rows) != trials:
        return [f"{len(rows)} rows for {trials} trials"]
    bound = crash_bound(k) if problem == "crashing" else klis_bound(k)
    for t, row in enumerate(rows):
        if row[-1] not in ("yes", "skip") or int(row[0]) != t or int(row[1]) != seed + t:
            problems.append(f"row {t}: {','.join(row)}")
        elif row[-1] == "yes":
            greedy, opt, ratio, row_bound = (Fraction(x) for x in row[3:7])
            if ratio != greedy / opt or row_bound != bound:
                problems.append(f"row {t}: ratio or bound is wrong")
    if matrix:
        want = Fraction(staircase_total(k), k * k)
        tail = lines[-1]
        if not tail.startswith("# max_ratio=") or Fraction(tail.split("=")[1]) != want:
            problems.append(f"max_ratio line {tail!r}, expected {want}")
    return problems


def skip_rows(out: str) -> tuple[int, int]:
    """(skip rows, trial rows) of an experiment's CSV output."""
    rows = [line for line in out.splitlines()[2:] if not line.startswith("#")]
    return sum(1 for r in rows if r.endswith(",skip")), len(rows)
