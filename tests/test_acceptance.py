"""End-to-end acceptance suite.

Every test re-derives its expected values from an independent route (exact
oracles, partition brute force, constructive certificates) and prints
one pass/fail line; run with ``pytest -s tests/test_acceptance.py`` to see
them all.  Exact rational comparisons throughout; stated runtime limits are
asserted.
"""

import io
import json
import math
import time
from fractions import Fraction
from functools import lru_cache

from kgreedy.cli import main
from kgreedy.crashing import cost_ratio_bound, decompose, greedy_crash, verify_trace
from kgreedy.generators import (
    RandomNetSpec,
    counterexample_network,
    matrix_sequence,
    random_network,
    random_sequence,
    with_convex_schedules,
)
from kgreedy.klis import greedy_klis, greedy_klis_scripted, total_ratio_bound
from kgreedy.network import k_max
from kgreedy.oracle import exact_crash_cost, exact_klis
from support import (
    brute_min_cut_cost,
    cut_capacity,
    failures,
    matrix_optimal_parts,
    min_cut,
    random_flow_graph,
)


def conclude(number, description, ok, started):
    elapsed = time.monotonic() - started
    print(f"criterion {number:02d} [{'PASS' if ok else 'FAIL'}] ({elapsed:.2f}s) {description}")
    assert ok, f"criterion {number} failed: {description}"
    return elapsed


@lru_cache(maxsize=1)
def crash_instances():
    """300 seeded networks (3-5 nodes, up to 8 edges, up to 2 crashable days,
    costs 1..9) with oracle plans and costs for every k up to min(3, k_max)."""
    records = []
    for seed in range(300):
        nodes = 3 + seed % 3
        edges = min(8, nodes - 1 + seed % 5)
        net = random_network(
            RandomNetSpec(
                node_count=nodes, edge_count=edges, max_normal_len=5,
                max_crashable=2, cost_range=(1, 9), seed=seed,
            )
        )
        per_k = {}
        for k in range(1, min(3, k_max(net)) + 1):
            per_k[k] = exact_crash_cost(net, k)
        records.append((net, per_k))
    return records


def test_criterion_1_counterexample_reproduction():
    started = time.monotonic()
    net = counterexample_network()
    result = greedy_crash(net, 2)
    plan, cost = exact_crash_cost(net, 2)
    ok = (
        result.total_cost == 28
        and [sorted(s.edges) for s in result.steps] == [["j3"], ["j1", "j2"]]
        and cost == 20
        and dict(plan.amounts) == {"j1": 1, "j5": 1}
    )
    elapsed = conclude(1, "5-job fixture: greedy 28 via ({j3},{j1,j2}), exact 20 via {j1,j5}",
                       ok, started)
    assert elapsed < 1.0


def test_criterion_2_klis_example_reproduction():
    started = time.monotonic()
    values = [3, 4, 5, 8, 9, 1, 6, 7, 8, 9]
    greedy = greedy_klis(values, 2).total_length
    opt = exact_klis(values, 2).total_length
    ok = greedy == 9 and opt == 10
    elapsed = conclude(2, "10-element example: greedy total 9, exact total 10", ok, started)
    assert elapsed < 1.0


def test_criterion_3_matrix_family():
    started = time.monotonic()
    ok = True
    for k in range(2, 7):
        values, script = matrix_sequence(k)
        ok &= len(values) == k * k
        # scripted replay verifies each round's maximality internally
        scripted = greedy_klis_scripted(values, k, script).total_length
        ok &= scripted == math.ceil(3 * k * k / 4)
        if k <= 3:
            ok &= exact_klis(values, k).total_length == k * k
        else:
            # constructive optimum: k disjoint increasing copies of (1..k)
            parts = matrix_optimal_parts(k)
            ok &= sorted(i for p in parts for i in p) == list(range(k * k))
            for p in parts:
                ok &= all(a < b and values[a] < values[b] for a, b in zip(p, p[1:]))
    elapsed = conclude(
        3, "staircase family k=2..6: length k^2, optimum k^2, scripted ceil(3k^2/4)",
        ok, started,
    )
    assert elapsed < 30.0


def test_criterion_4_greedy_within_harmonic_bound():
    started = time.monotonic()
    violations = 0
    runs = 0
    for net, per_k in crash_instances():
        for k, (_, opt) in per_k.items():
            greedy = greedy_crash(net, k).total_cost
            runs += 1
            if greedy > cost_ratio_bound(k) * opt:
                violations += 1
    ok = violations == 0 and runs > 0
    elapsed = conclude(
        4, f"300 seeded networks, k<=min(3,k_max): greedy <= H_k * exact ({runs} runs)",
        ok, started,
    )
    assert elapsed < 60.0


def test_criterion_5_exact_cost_grows_k_fold():
    started = time.monotonic()
    violations = 0
    runs = 0
    for _, per_k in crash_instances():
        if 1 not in per_k:
            continue
        _, one = per_k[1]
        for k, (_, opt) in per_k.items():
            runs += 1
            if opt < k * one:
                violations += 1
    ok = violations == 0 and runs > 0
    conclude(5, f"same instances: exact(k) >= k * exact(1) ({runs} runs)", ok, started)


def test_criterion_6_decomposition_suite():
    started = time.monotonic()
    failed = []
    runs = 0
    for net, per_k in crash_instances():
        for k, (plan, _) in per_k.items():
            report = verify_trace(decompose(net, plan, k))
            runs += 1
            if not report.passed:
                failed.extend(failures(report))
    ok = not failed and runs > 0
    conclude(6, f"same instances, oracle plans: every trace check passes ({runs} traces)",
             ok, started)


def test_criterion_7_klis_ratio_suite():
    started = time.monotonic()
    violations = 0
    runs = 0
    for seed in range(300):
        n = 8 + seed % 5  # 8..12 elements
        values = random_sequence(n, 9, seed=seed)
        for k in (2, 3):
            greedy = greedy_klis(values, k).total_length
            opt = exact_klis(values, k).total_length
            runs += 1
            if Fraction(greedy) < total_ratio_bound(k) * opt:
                violations += 1
    ok = violations == 0
    elapsed = conclude(
        7, f"300 seeded sequences, k in {{2,3}}: greedy >= (1-((k-1)/k)^k) * exact ({runs} runs)",
        ok, started,
    )
    assert elapsed < 60.0


def test_criterion_8_flow_duality_suite():
    started = time.monotonic()
    violations = 0
    for seed in range(200):
        g = random_flow_graph(seed, max_nodes=10, max_arcs=16)
        cut = min_cut(g)
        brute = brute_min_cut_cost(g)
        if brute is None:
            if cut.cost is not None:
                violations += 1
        elif not (cut.cost == cut_capacity(g, cut.source_side) == brute):
            violations += 1
    conclude(8, "200 random flow graphs: max-flow = min-cut = partition brute force",
             violations == 0, started)


def test_criterion_9_convex_cost_suite():
    started = time.monotonic()
    violations = 0
    runs = 0
    for seed in range(100):
        base = random_network(
            RandomNetSpec(node_count=5, edge_count=8, max_normal_len=5,
                          max_crashable=2, cost_range=(1, 9), seed=seed)
        )
        net = with_convex_schedules(base, seed=seed + 10_000)
        if k_max(net) < 2:
            continue
        greedy = greedy_crash(net, 2).total_cost
        _, opt = exact_crash_cost(net, 2)
        runs += 1
        if greedy > cost_ratio_bound(2) * opt:
            violations += 1
    ok = violations == 0 and runs > 50
    conclude(9, f"100 convex-schedule networks, k=2: greedy <= H_2 * exact ({runs} runs)",
             ok, started)


def test_criterion_10_determinism(tmp_path, capsys, monkeypatch):
    started = time.monotonic()

    fig2_path = tmp_path / "fig2.json"
    main(["gen", "fig2"])
    fig2_path.write_text(capsys.readouterr().out)
    script_path = tmp_path / "m3.json"

    stdin_seq = "3,4,5,8,9,1,6,7,8,9"
    commands = [
        (["gen", "fig2"], None),
        (["gen", "matrix", "-k", "3", "--script", str(script_path)], None),
        (["gen", "random-dag", "--nodes", "5", "--edges", "8", "--seed", "11"], None),
        (["gen", "random-seq", "-n", "12", "--seed", "11"], None),
        (["crash", "--input", str(fig2_path), "-k", "2", "--trace"], None),
        (["crash", "--input", str(fig2_path), "-k", "2", "--exact"], None),
        (["klis", "-k", "2"], stdin_seq),
        (["klis", "-k", "2", "--exact"], stdin_seq),
        (["lis"], stdin_seq),
    ]
    ok = True
    for argv, stdin in commands:
        outputs = []
        for _ in range(2):
            if stdin is not None:
                monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            code = main(argv)
            outputs.append(capsys.readouterr().out.encode())
            ok &= code == 0
        ok &= outputs[0] == outputs[1]

    # scripted klis replays identically off the generated script file
    values_path = tmp_path / "m3.txt"
    main(["gen", "matrix", "-k", "3"])
    values_path.write_text(capsys.readouterr().out)
    outputs = []
    for _ in range(2):
        code = main(["klis", "-k", "3", "--input", str(values_path),
                     "--script", str(script_path)])
        outputs.append(capsys.readouterr().out.encode())
        ok &= code == 0
    ok &= outputs[0] == outputs[1]
    ok &= json.loads(outputs[0])["total"] == 7

    # experiments are byte-identical per (config, seed)
    for problem, k in (("crashing", 2), ("klis", 2)):
        files = [tmp_path / f"{problem}-{i}.csv" for i in range(2)]
        for f in files:
            code = main(["experiment", "--problem", problem, "--trials", "8",
                         "-k", str(k), "--seed", "5", "--output", str(f)])
            capsys.readouterr()
            ok &= code == 0
        ok &= files[0].read_bytes() == files[1].read_bytes()

    conclude(10, "identical inputs and seeds give byte-identical JSON/CSV", ok, started)
