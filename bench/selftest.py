#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size, in subprocesses.

    python3 bench/selftest.py

Checks, for each workload, that both the end-to-end run and the traced run
print every metric of BENCHMARK.json with its unit (and the end-to-end run
also the raw wall-clock figures and fail_ratio), that all ops pass their
output checks, that one seed gives one stdout digest and one set of
instances across runs, and that another seed gives other instances.  Last,
it checks that a copy of the benchmark without the program's sources exits
non-zero without printing a result.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(BENCH.relative_to(ROOT) / "run.py")]


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(RUN + list(args), cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def bench(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    proc = run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny")
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def printed(stdout: str, label: str) -> str:
    match = re.search(rf"^# {label}: .*sha256=([0-9a-f]{{64}})", stdout, re.M)
    assert match, f"no {label} line"
    return match.group(1)


def check_metrics(result: dict, stdout: str, wanted: list[dict]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    names = [m["name"] for m in wanted]
    if sorted(result["metrics"]) != sorted(names):
        problems.append(f"metrics {sorted(result['metrics'])}, expected {sorted(names)}")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: {got}")
        if not re.search(rf"^# {re.escape(m['name'])} = \S+ {re.escape(m['unit'])}\b",
                         stdout, re.M):
            problems.append(f"{m['name']} is not printed with unit {m['unit']}")
    return problems


def main() -> int:
    failures = []
    for spec in SPEC["workloads"]:
        name = spec["name"]
        plain, plain_out = bench(name, 1, 0)
        traced, traced_out = bench(name, 1, 1)
        _, other_out = bench(name, 2, 0)
        problems = check_metrics(plain, plain_out, SPEC["end_to_end"])
        for label, unit in (("raw_ops_per_s", "ops/s"), ("raw_op_p50_ms", "ms"),
                            ("raw_setup_s", "s"), ("fail_ratio", "1")):
            if not re.search(rf"^# {label} = \S+ {unit}\b", plain_out, re.M):
                problems.append(f"{label} is not printed with unit {unit}")
        problems += check_metrics(traced, traced_out, SPEC["per_layer"])
        if printed(plain_out, "digest") != printed(traced_out, "digest"):
            problems.append("seed 1 gave two different stdout digests")
        if printed(plain_out, "instances") != printed(traced_out, "instances"):
            problems.append("seed 1 gave two different instance sets")
        if printed(plain_out, "instances") == printed(other_out, "instances"):
            problems.append("seeds 1 and 2 gave the same instances")
        print(f"{name}: {'ok' if not problems else 'FAILED'}")
        failures += [f"{name}: {p}" for p in problems]

    # Without src/, the benchmark must fail instead of measuring something else.
    bare = BENCH / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                   "--seconds", "1", "--trace", "0", "--scale", "tiny")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    bare_ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"without src/: {'ok' if bare_ok else 'FAILED'} (exit {proc.returncode})")
    if not bare_ok:
        failures.append("a checkout without src/ printed a result or exited 0")

    for failure in failures:
        print(f"  {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
