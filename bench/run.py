#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the kgreedy CLI.

Run from the repository root:

    python3 bench/run.py --workload crash --seed 0 --seconds 55 --trace 0
    python3 bench/run.py --workload crash --seed 0 --seconds 55 --trace 1
    python3 bench/run.py --check-digests

One process, one thread, closed loop: each op is one in-process
``kgreedy.cli.main(argv)`` call with stdout captured, started only after the
previous one returned.  A run imports kgreedy from ``src/`` and sets up its
workload (timed), runs one pass whose outputs are checked by the
benchmark's own code, and then times whole passes until ``--seconds`` have
gone by; every repeated op must print exactly what the checked pass printed.
Timings are reported at the speed of a reference computation timed next to
every op (see ``scaled_latencies``).  The set-up is timed ``SETUP_REPS``
times in all, spread over the run.  ``--trace 1`` times the same passes with
spans at every module boundary and reports per-layer metrics instead.  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

import workloads
from tracer import LAYERS, Tracer
from checks import Project, skip_rows

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH.relative_to(ROOT) / "work"  # relative: main() changes into ROOT
DIGESTS = BENCH / "digests.json"

DEFAULT_SEED = 0
SETUP_REPS = 11
# The reference computation timed next to every op (see scaled_latencies): the
# benchmark's own longest-path DP on a fixed 12 x 20 layered network.  Timings
# are reported at REFERENCE_S per reference run, about its median on an idle
# 2-vCPU VM.
REFERENCE = Project(workloads.layered_network(random.Random("reference"), 12, 20, True))
REFERENCE_S = 1e-3
# A traced run times this share of --seconds untraced, then as many passes traced.
TRACE_SHARE = 0.45
# op_tail_ms is a fixed percentile, so it does not jump from one op to another as
# the number of passes changes; from 10 passes on, at least 10 executions lie at
# or above it on every workload.
TAIL_PERCENTILE = 90

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}
# Printed after the end-to-end metrics but left out of the result line: the raw
# wall-clock figures, whose 10-seed spread on a shared 2-vCPU VM reached 0.21 of
# the median.
RAW = {"raw_ops_per_s": "ops/s", "raw_op_p50_ms": "ms", "raw_setup_s": "s"}

# name -> (unit, function or layer, what); ``what`` is "calls", "self_s" or a count.
PER_LAYER = {
    "network.critical_graph.calls": ("count", "network.critical_graph", "calls"),
    "network.critical_graph.self_s": ("s", "network.critical_graph", "self_s"),
    "network.critical_graph.kept_share": ("1", "network.critical_graph", "kept_edges/in_edges"),
    "network.duration.calls": ("count", "network.duration", "calls"),
    "network.duration.self_s": ("s", "network.duration", "self_s"),
    "network.apply_plan.calls": ("count", "network.apply_plan", "calls"),
    "network.apply_plan.self_s": ("s", "network.apply_plan", "self_s"),
    "network.validate.self_s": ("s", "network.validate", "self_s"),
    "network.network_from_json.self_s": ("s", "network.network_from_json", "self_s"),
    "flow.min_cut.calls": ("count", "flow.min_cut", "calls"),
    "flow.min_cut.self_s": ("s", "flow.min_cut", "self_s"),
    "flow.min_cut.arcs": ("count", "flow.min_cut", "arcs"),
    "flow.min_cut.finite_share": ("1", "flow.min_cut", "finite_arcs/arcs"),
    "flow.min_cut.us_per_arc": ("us", "flow.min_cut", "self_s/arcs"),
    "crashing.greedy_crash.self_s": ("s", "crashing.greedy_crash", "self_s"),
    "crashing.optimal_one_crash.calls": ("count", "crashing.optimal_one_crash", "calls"),
    "crashing.decompose.self_s": ("s", "crashing.decompose", "self_s"),
    "crashing.verify_trace.self_s": ("s", "crashing.verify_trace", "self_s"),
    "crashing.verify_trace.checks": ("count", "crashing.verify_trace", "checks"),
    "klis.lis.calls": ("count", "klis.lis", "calls"),
    "klis.lis.self_s": ("s", "klis.lis", "self_s"),
    "klis.lis.elems": ("count", "klis.lis", "elems"),
    "klis.lis.ns_per_elem": ("ns", "klis.lis", "self_s/elems"),
    "klis.greedy_klis.self_s": ("s", "klis.greedy_klis", "self_s"),
    "klis.greedy_klis_scripted.self_s": ("s", "klis.greedy_klis_scripted", "self_s"),
    "oracle.exact_crash_cost.calls": ("count", "oracle.exact_crash_cost", "calls"),
    "oracle.exact_crash_cost.self_s": ("s", "oracle.exact_crash_cost", "self_s"),
    "oracle.exact_crash_cost.plan_space": ("count", "oracle.exact_crash_cost", "plan_space"),
    "oracle.exact_klis.calls": ("count", "oracle.exact_klis", "calls"),
    "oracle.exact_klis.self_s": ("s", "oracle.exact_klis", "self_s"),
    "oracle.exact_klis.assignments": ("count", "oracle.exact_klis", "assignments"),
    "generators.calls": ("count", "generators", "calls"),
    "generators.self_s": ("s", "generators", "self_s"),
    "cli.main.calls": ("count", "cli.main", "calls"),
    "cli.main.self_s": ("s", "cli.main", "self_s"),
}
# Derived from outputs and run walls rather than from spans.
PER_LAYER_EXTRA = {
    "cli.stdout_bytes": "B",
    "cli.experiment.skip_share": "1",
    "trace.overhead_share": "1",
}
SCALE = {"1": 1, "us": 1e6, "ns": 1e9}


def import_kgreedy() -> types.SimpleNamespace:
    """A fresh import of kgreedy from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "kgreedy" or m.startswith("kgreedy.")]:
        del sys.modules[name]
    package = importlib.import_module("kgreedy")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"kgreedy was imported from {package.__file__}, not from src/")
    return types.SimpleNamespace(
        **{layer: importlib.import_module(f"kgreedy.{layer}") for layer in LAYERS}
    )


def call(kg, argv: list[str]) -> tuple[object, str]:
    """One op: ``kgreedy.cli.main(argv)`` with stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = kg.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def validation_pass(kg, ops) -> tuple[list, dict, str, list]:
    """Run and check every op once.

    Returns (outputs, problems by op index, stdout digest, latencies).
    """
    outputs, problems, latencies = [], {}, []
    digest = hashlib.sha256()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        rc, out = call(kg, op.argv)
        latencies.append(time.perf_counter() - t0)
        try:
            found = op.check(rc, out)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            found = [f"malformed output: {type(exc).__name__}: {exc}"]
        if found:
            problems[i] = found
        outputs.append((rc, out))
        digest.update(out.encode())
    return outputs, problems, digest.hexdigest(), latencies


def time_reference() -> float:
    t0 = time.perf_counter()
    REFERENCE.critical_edges()
    return time.perf_counter() - t0


def timed_passes(kg, ops, outputs, bad, seconds=None, passes=None, tracer=None,
                 between=None, probes=None):
    """Whole passes until ``seconds`` have gone by, or exactly ``passes`` of them.

    Returns (latencies, failed ops, passes, wall seconds).  An op fails if its
    op failed validation or its exit code or stdout differ from validation.
    ``between(kg, elapsed)``, if given, runs after each pass and returns the
    kgreedy modules to use from then on.  ``probes``, if given, is a list that
    gets the reference time before every pass and after every op, so
    len(ops) + 1 of them per pass.
    """
    clock = time.perf_counter
    latencies, failed, done = [], 0, 0
    start = clock()
    while True:
        if probes is not None:
            probes.append(time_reference())
        for i, op in enumerate(ops):
            if tracer:
                tracer.op_id = f"{done}:{i}"
            t0 = clock()
            result = call(kg, op.argv)
            latencies.append(clock() - t0)
            if probes is not None:
                probes.append(time_reference())
            if i in bad or result != outputs[i]:
                failed += 1
        done += 1
        if between:
            kg = between(kg, clock() - start)
        if passes is not None and done >= passes:
            break
        if passes is None and clock() - start >= seconds:
            break
    return latencies, failed, done, clock() - start


def instances_digest(workdir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stored_digest(name: str, seed: int):
    if seed != DEFAULT_SEED or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(name)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux: KiB


def scaled_latencies(latencies, probes, n_ops) -> list[float]:
    """Every op execution at the reference speed; see ``timed_passes`` for ``probes``.

    On a shared virtual machine the same op's latency swings by up to 2x
    between slow and fast stretches that last from milliseconds to minutes,
    so a whole run can fall into a slow one, and even the fastest op of a run
    moves with it.  What stays put is a latency's ratio to the reference
    computation timed right before and right after it; that ratio times
    REFERENCE_S is the scaled latency.  The reference is the benchmark's own
    code, so a change to kgreedy moves only the numerator.
    """
    # One extra probe opens every pass, so execution j sits between probes
    # j + j // n_ops and the one after it.
    return [t * REFERENCE_S * 2 / (probes[j + j // n_ops] + probes[j + j // n_ops + 1])
            for j, t in enumerate(latencies)]


def end_to_end_metrics(set_ups, latencies, probes, n_ops, passes, wall, failed, attempted):
    """The end-to-end metrics of the timed loop, at the reference speed.

    Each op's latency is the median of its ``passes`` scaled executions; the
    percentiles are taken over every scaled execution.  A set-up lasts a few
    hundred milliseconds, too long for the probes around it to tell the host's
    speed during it, so the median set-up is scaled by the median probe of the
    run, over which the set-ups are spread.  The raw wall-clock figures are
    returned as well.
    """
    executions = scaled_latencies(latencies, probes, n_ops)
    per_op = [statistics.median(executions[i::n_ops]) for i in range(n_ops)]
    n = len(executions)
    tail = statistics.quantiles(executions, n=100)[TAIL_PERCENTILE - 1]
    at_tail = sum(1 for x in executions if x >= tail)
    raw_per_op = [statistics.median(latencies[i::n_ops]) for i in range(n_ops)]
    values = {
        "setup_s": statistics.median(set_ups) * REFERENCE_S / statistics.median(probes),
        "ops_per_s": n_ops / sum(per_op),
        "op_p50_ms": statistics.median(executions) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "raw_ops_per_s": n_ops / sum(raw_per_op),
        "raw_op_p50_ms": statistics.median(latencies) * 1e3,
        "raw_setup_s": statistics.median(set_ups),
    }
    speed = (f"reference {min(probes) * 1e3:.4g} ms fastest, "
             f"{statistics.median(probes) * 1e3:.4g} ms median, "
             f"scaled to {REFERENCE_S * 1e3:g} ms")
    notes = {
        "setup_s": f"median of {len(set_ups)} set-ups (import kgreedy, write instances) "
                   f"at the reference speed",
        "ops_per_s": f"{n_ops} ops per pass, each at its median of {passes} executions "
                     f"at the reference speed; {speed}",
        "op_p50_ms": f"median of {n} executions at the reference speed",
        "op_tail_ms": f"p{TAIL_PERCENTILE} of {n} executions at the reference speed, "
                      f"{at_tail} at or above it",
        "peak_rss_mb": "ru_maxrss of this process",
        "raw_ops_per_s": f"wall clock, each op at its median; the loop ran {n} ops "
                         f"in {wall:.3f} s, probes and set-ups included",
        "raw_op_p50_ms": "wall clock",
        "raw_setup_s": "wall clock",
        "fail_ratio": f"{failed} of {attempted} ops failed",
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in {**END_TO_END, **RAW}.items()}
    return metrics, notes


def per_layer_metrics(table, passes, outputs, untraced_wall, traced_wall):
    """Per-layer values for one set-up plus one pass (the mean over traced passes)."""

    def total(target: str, key: str) -> float:
        value = 0.0
        for (group, name), row in table.items():
            if name == target or name.startswith(target + "."):
                value += row.get(key, 0.0) / (passes if group == "pass" else 1)
        return value

    metrics = {}
    for name, (unit, target, what) in PER_LAYER.items():
        num, _, den = what.partition("/")
        value = total(target, num)
        if den:
            base = total(target, den)
            value = value / base * SCALE[unit] if base else 0.0
        metrics[name] = {"value": value, "unit": unit}
    skips = [skip_rows(out) for _, out in outputs if out.startswith("# problem=")]
    skipped, rows = sum(s for s, _ in skips), sum(r for _, r in skips)
    extra = {
        "cli.stdout_bytes": sum(len(out.encode()) for _, out in outputs),
        "cli.experiment.skip_share": skipped / rows if rows else 0.0,
        "trace.overhead_share": (traced_wall - untraced_wall) / untraced_wall,
    }
    for name, unit in PER_LAYER_EXTRA.items():
        metrics[name] = {"value": extra[name], "unit": unit}
    return metrics


def run(args) -> int:
    name, seed, tiny = args.workload, args.seed, args.scale == "tiny"
    workdir = WORK / f"{name}-{seed}"
    report = []  # human-readable lines printed before the result
    try:
        if args.trace:
            kg = import_kgreedy()
            tracer = Tracer(kg)
            tracer.install()
            ops = workloads.set_up(kg, name, seed, tiny, workdir)
            tracer.uninstall()
        else:
            set_ups = []

            def timed_set_up():
                t0 = time.perf_counter()
                kg = import_kgreedy()
                ops = workloads.set_up(kg, name, seed, tiny, workdir)
                set_ups.append(time.perf_counter() - t0)
                return kg, ops

            def spread_set_ups(kg, elapsed):
                # The other set-ups are spread over the run, so that their median
                # does not hang on how fast the host was at one moment.
                if len(set_ups) < SETUP_REPS and \
                        elapsed >= args.seconds * len(set_ups) / SETUP_REPS:
                    kg, _ = timed_set_up()
                return kg

            kg, ops = timed_set_up()
        instances = instances_digest(workdir)

        start = time.perf_counter()
        outputs, problems, digest, _ = validation_pass(kg, ops)
        attempted, failed = len(ops), len(problems)
        bad = set(problems)

        if args.trace:
            lat, fail_u, passes, untraced_wall = timed_passes(
                kg, ops, outputs, bad, seconds=args.seconds * TRACE_SHARE)
            tracer.install()
            traced_lat, fail_t, _, traced_wall = timed_passes(
                kg, ops, outputs, bad, passes=passes, tracer=tracer)
            tracer.uninstall()
            attempted += len(lat) + len(traced_lat)
            failed += fail_u + fail_t
            metrics = per_layer_metrics(tracer.table(), passes, outputs, untraced_wall,
                                        traced_wall)
            notes = {"per_layer": f"one set-up plus the mean of {passes} traced passes; "
                                  f"{len(tracer.spans)} spans"}
            spans_path = WORK / f"{name}-seed{seed}-spans.jsonl"
            tracer.write(spans_path)
        else:
            # The checked pass warms up; the timed loop starts after it.
            probes = []
            lat, fail_t, passes, wall = timed_passes(
                kg, ops, outputs, bad, seconds=args.seconds - (time.perf_counter() - start),
                between=spread_set_ups, probes=probes)
            while len(set_ups) < SETUP_REPS:
                timed_set_up()
            attempted += len(lat)
            failed += fail_t
            metrics, notes = end_to_end_metrics(set_ups, lat, probes, len(ops), passes,
                                                wall, failed, attempted)
            executions = scaled_latencies(lat, probes, len(ops))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    expected = stored_digest(name, seed) if not tiny else None
    digest_ok = expected is None or expected == digest
    correct = failed == 0 and digest_ok

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    provenance = {
        "workload": name,
        "seed": seed,
        "scale": args.scale,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": nproc,
        "instances": [op.provenance() for op in ops],
    }
    report.append(f"workload={name} seed={seed} trace={args.trace} scale={args.scale} "
                  f"python={provenance['python']} nproc={nproc}")
    for i, (op, info) in enumerate(zip(ops, provenance["instances"])):
        if not args.trace:
            info["median_ms"] = round(statistics.median(lat[i::len(ops)]) * 1e3, 3)
            info["scaled_ms"] = round(statistics.median(executions[i::len(ops)]) * 1e3, 3)
        report.append(f"op {i}: {' '.join(op.argv)} | "
                      + " ".join(f"{k}={v}" for k, v in info.items()))
    report.append(f"digest: workload={name} seed={seed} sha256={digest} "
                  + ("" if expected is None else
                     "matches the stored digest" if digest_ok else
                     f"DIFFERS from the stored {expected}"))
    report.append(f"instances: sha256={instances}")
    for i, found in sorted(problems.items()):
        report.append(f"FAILED op {i} ({' '.join(ops[i].argv)}): {'; '.join(found[:3])}")
    for metric, entry in metrics.items():
        note = notes.get(metric, "")
        report.append(f"{metric} = {entry['value']:.6g} {entry['unit']}"
                      + (f"  ({note})" if note else ""))
    if not args.trace:
        report.append(f"fail_ratio = {failed / attempted:.6g} 1  ({notes['fail_ratio']})")
    else:
        report.append(f"per-layer values: {notes['per_layer']}")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(provenance, digest=digest, instances_sha256=instances, correct=correct,
                  attempted=attempted, failed=failed, fail_ratio=failed / attempted,
                  problems=problems, metrics=metrics, notes=notes,
                  latencies_ms=[round(x * 1e3, 3) for x in lat])
    (results / f"{name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")

    for line in report:
        print(f"# {line}")
    result = {metric: entry for metric, entry in metrics.items() if metric not in RAW}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


def digests(write: bool) -> int:
    """Check (or rewrite) the stored stdout digests of every workload's default seed."""
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    fresh, status = {}, 0
    for name in workloads.BUILDERS:
        workdir = WORK / f"{name}-{DEFAULT_SEED}"
        try:
            kg = import_kgreedy()
            ops = workloads.set_up(kg, name, DEFAULT_SEED, False, workdir)
            _, problems, digest, _ = validation_pass(kg, ops)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        fresh[name] = digest
        ok = not problems and (write or stored.get(name) == digest)
        status |= not ok
        print(f"{name} seed={DEFAULT_SEED} sha256={digest} "
              f"{'ok' if ok else 'MISMATCH or failed checks'}")
    if write and not status:
        DIGESTS.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small instances, for the self-test")
    parser.add_argument("--check-digests", action="store_true",
                        help="re-run every workload's validation pass at the default seed "
                             "and compare its stdout digest with digests.json")
    parser.add_argument("--write-digests", action="store_true",
                        help="like --check-digests, but store the digests")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    try:
        import_kgreedy()
    except ImportError as exc:
        print(f"error: cannot import kgreedy from {SRC}: {exc}", file=sys.stderr)
        return 3
    if args.check_digests or args.write_digests:
        return digests(args.write_digests)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
