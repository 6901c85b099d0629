"""Command-line front end and ratio-experiment harness.

Exit codes are part of the contract so shell harnesses need no JSON parsing:
0 success, 1 an experiment ratio violated its bound, 2 the requested
reduction is infeasible, 3 bad input (every malformed input and usage
error), 4 a scripted round failed validation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import crashing, generators, klis, network, oracle
from .errors import KGreedyError, NotCrashableError, ScriptError

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INPUT = 3
EXIT_SCRIPT = 4


def _frac(value: Fraction) -> str:
    """The exact value as ``str`` prints it, in full at any size."""
    try:
        return str(value)
    except ValueError:  # more digits than the int-to-str limit
        # A Decimal made from an int prints it without that limit; importing
        # decimal here keeps it out of every other run's start-up.
        from decimal import Decimal
        text = str(Decimal(value.numerator))
        return text if value.denominator == 1 else f"{text}/{Decimal(value.denominator)}"


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _read_json(path: str, **options):
    with open(path) as fh:
        try:
            return json.load(fh, **options)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_network(path: str) -> network.ProjectNetwork:
    return network.network_from_json(_read_json(path, parse_float=str))


def _load_script(path: str) -> list[list[int]]:
    script = _read_json(path)
    if not isinstance(script, list) or not all(
        isinstance(entry, list) and all(type(i) is int for i in entry) for entry in script
    ):
        raise ValueError("a script must be a JSON list of index lists")
    return script


def _read_sequence(args) -> list[int]:
    if args.input:
        with open(args.input) as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return klis.parse_sequence(text)


# -- crash ----------------------------------------------------------------------

def _cmd_crash(args) -> int:
    net = _load_network(args.input)
    if args.exact:
        plan, cost = oracle.exact_crash_cost(net, args.k)
        payload = {
            "mode": "exact",
            "k": args.k,
            "plan": network.plan_to_json(plan),
            "total_cost": _frac(cost),
        }
    else:
        result = crashing.greedy_crash(net, args.k)
        plan = result.plan
        payload = {
            "mode": "greedy",
            "k": args.k,
            "plan": network.plan_to_json(result.plan),
            "steps": [
                {"edges": sorted(step.edges), "cost": _frac(step.cost)}
                for step in result.steps
            ],
            "durations": list(result.durations),
            "total_cost": _frac(result.total_cost),
        }
    if args.trace:
        trace = crashing.decompose(net, plan, args.k)
        report = crashing.verify_trace(trace)
        payload["trace"] = {
            "cuts": [sorted(net.edges[j].id for j in level.cut) for level in trace.levels],
            "cut_costs": [_frac(level.cut_cost) for level in trace.levels],
            "report": {
                "passed": report.passed,
                "checks": [
                    {"name": c.name, "level": c.level, "passed": c.passed, "detail": c.detail}
                    for c in report.checks
                ],
            },
        }
    _emit(payload)
    return EXIT_OK


# -- klis / lis -----------------------------------------------------------------

def _cmd_klis(args) -> int:
    values = _read_sequence(args)
    if args.script:
        selection = klis.greedy_klis_scripted(values, args.k, _load_script(args.script))
    elif args.exact:
        selection = oracle.exact_klis(values, args.k)
    else:
        selection = klis.greedy_klis(values, args.k)
    _emit(klis.selection_to_json(selection, values))
    return EXIT_OK


def _cmd_lis(args) -> int:
    values = _read_sequence(args)
    indices = klis.lis(values)
    _emit({
        "indices": indices,
        "values": list(map(values.__getitem__, indices)),
        "length": len(indices),
    })
    return EXIT_OK


# -- gen ------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    if args.what == "fig2":
        _emit(network.network_to_json(generators.counterexample_network()))
    elif args.what == "matrix":
        values, script = generators.matrix_sequence(args.k)
        print(klis.format_sequence(values))
        if args.script:
            with open(args.script, "w") as fh:
                json.dump(script, fh)
                fh.write("\n")
    elif args.what == "random-dag":
        _emit(network.network_to_json(generators.random_network(_net_spec(args, args.seed))))
    elif args.what == "random-seq":
        print(klis.format_sequence(generators.random_sequence(args.n, args.range, args.seed)))
    return EXIT_OK


# -- experiment -------------------------------------------------------------------

def _net_spec(args, seed: int) -> generators.RandomNetSpec:
    # The spec checks the same bounds, but its messages name its own fields.
    for flag, value, low in (
        ("--nodes", args.nodes, 2),
        ("--edges", args.edges, args.nodes - 1),
        ("--max-len", args.max_len, 1),
        ("--max-crashable", args.max_crashable, 0),
        ("--cost-min", args.cost_min, 1),
        ("--cost-max", args.cost_max, args.cost_min),
    ):
        if value < low:
            raise ValueError(f"argument {flag}: must be at least {low}")
    return generators.RandomNetSpec(
        node_count=args.nodes,
        edge_count=args.edges,
        max_normal_len=args.max_len,
        max_crashable=args.max_crashable,
        cost_range=(args.cost_min, args.cost_max),
        seed=seed,
    )


def _crashing_trial(args, seed: int):
    net = generators.random_network(_net_spec(args, seed))
    if network.k_max(net) < args.k:
        return None
    greedy = crashing.greedy_crash(net, args.k).total_cost
    _, opt = oracle.exact_crash_cost(net, args.k)
    return greedy, opt


def _klis_random_trial(args, seed: int):
    values = generators.random_sequence(args.length, args.range, seed)
    greedy = klis.greedy_klis(values, args.k).total_length
    opt = oracle.exact_klis_total(values, args.k)
    return greedy, opt


def _klis_matrix_trial(args, seed: int):
    k = args.k
    values, script = generators.matrix_sequence(k)
    greedy = klis.greedy_klis_scripted(values, k, script).total_length
    return greedy, oracle.exact_klis_total(values, k)


# The problem options of `experiment`, each with its default.
_PROBLEM_OPTIONS = {
    "--nodes": 5,
    "--edges": 8,
    "--max-len": generators.RandomNetSpec.max_normal_len,
    "--max-crashable": generators.RandomNetSpec.max_crashable,
    "--cost-min": generators.RandomNetSpec.cost_range[0],
    "--cost-max": generators.RandomNetSpec.cost_range[1],
    "--length": 12,
    "--range": 9,
}

# (problem, generator) -> (trial function, the problem options it reads,
# provenance line formatted with the args)
_EXPERIMENTS = {
    ("crashing", "random"): (
        _crashing_trial,
        ("--nodes", "--edges", "--max-len", "--max-crashable", "--cost-min", "--cost-max"),
        "# problem=crashing trials={a.trials} k={a.k} seed={a.seed} "
        "nodes={a.nodes} edges={a.edges} max-len={a.max_len} "
        "max-crashable={a.max_crashable} cost={a.cost_min}..{a.cost_max}",
    ),
    ("klis", "random"): (
        _klis_random_trial,
        ("--length", "--range"),
        "# problem=klis trials={a.trials} k={a.k} seed={a.seed} "
        "length={a.length} range={a.range}",
    ),
    ("klis", "matrix"): (
        _klis_matrix_trial,
        (),
        "# problem=klis generator=matrix trials={a.trials} k={a.k}",
    ),
}


def _cmd_experiment(args) -> int:
    experiment = _EXPERIMENTS.get((args.problem, args.generator))
    if experiment is None:
        raise ValueError("the matrix generator applies to the klis problem only")
    if args.generator == "matrix" and args.trials > 1:
        raise ValueError("the matrix generator ignores the seed, so it takes --trials 1 only")
    run_trial, reads, provenance = experiment
    # The parser leaves a problem option unset unless it is given, so an
    # option the experiment would ignore is an error, not a silent no-op.
    options = vars(args)
    for flag, default in _PROBLEM_OPTIONS.items():
        dest = flag[2:].replace("-", "_")
        if flag in reads:
            options.setdefault(dest, default)
        elif dest in options:
            raise ValueError(
                f"argument {flag}: does not apply to "
                f"--problem {args.problem} --generator {args.generator}"
            )
    if "--length" in reads and args.length < 0:
        raise ValueError("argument --length: must be non-negative")

    # Greedy crashing pays at most the bound times the optimum; greedy klis
    # keeps at least the bound's share of it.
    crashing_run = args.problem == "crashing"
    bound = crashing.cost_ratio_bound(args.k) if crashing_run else klis.total_ratio_bound(args.k)
    lines = [provenance.format(a=args), "instance,seed,k,greedy,opt,ratio,bound,ok"]
    violations = 0
    max_ratio: Fraction | None = None
    for t in range(args.trials):
        seed = args.seed + t
        outcome = run_trial(args, seed)
        if outcome is None:
            lines.append(f"{t},{seed},{args.k},,,,,skip")
            continue
        greedy, opt = outcome
        ratio = Fraction(greedy, opt) if opt else Fraction(1)
        ok = ratio <= bound if crashing_run else ratio >= bound
        if not ok:
            violations += 1
        if max_ratio is None or ratio > max_ratio:
            max_ratio = ratio
        lines.append(
            f"{t},{seed},{args.k},{_frac(greedy)},{_frac(opt)},"
            f"{_frac(ratio)},{_frac(bound)},{'yes' if ok else 'no'}"
        )
    if max_ratio is not None:
        lines.append(f"# max_ratio={_frac(max_ratio)}={float(max_ratio):.6f}")
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if violations == 0 else 1


# -- argument wiring ----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as bad input: one `error:` line and exit 3."""

    def error(self, message):
        raise ValueError(message)


def _count(text: str) -> int:
    """-k and --trials: a whole number of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


@functools.cache  # built on first use, so importing kgreedy stays cheap
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kgreedy",
        description="Greedy project crashing and repeated subsequence extraction, "
        "with exact oracles and a ratio-experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    crash = sub.add_parser("crash", help="find a plan shortening a project by k days")
    crash.add_argument("--input", required=True, help="project JSON file")
    crash.add_argument("-k", type=_count, required=True, help="days to save")
    crash.add_argument("--exact", action="store_true", help="exact optimum instead of greedy")
    crash.add_argument("--trace", action="store_true",
                       help="decompose the produced plan and verify the cut chain")

    kl = sub.add_parser("klis", help="extract k disjoint increasing subsequences")
    kl.add_argument("-k", type=_count, required=True)
    kl.add_argument("--input", help="sequence file (default: stdin)")
    kl_mode = kl.add_mutually_exclusive_group()
    kl_mode.add_argument("--exact", action="store_true", help="exact optimum instead of greedy")
    kl_mode.add_argument("--script", help="JSON file with one index list per round to replay")

    li = sub.add_parser("lis", help="one longest increasing subsequence")
    li.add_argument("--input", help="sequence file (default: stdin)")

    gen = sub.add_parser("gen", help="emit example and random instances")
    gsub = gen.add_subparsers(dest="what", required=True)
    gsub.add_parser("fig2", help="the bundled 5-job project where greedy overpays")
    gm = gsub.add_parser("matrix", help="staircase sequence with its adversarial script")
    gm.add_argument("-k", type=_count, required=True)
    gm.add_argument("--script", help="also write the per-round removal script to this file")
    gd = gsub.add_parser("random-dag", help="seeded random project network")
    gd.add_argument("--nodes", type=int, required=True)
    gd.add_argument("--edges", type=int, required=True)
    for flag in ("--max-len", "--max-crashable", "--cost-min", "--cost-max"):
        gd.add_argument(flag, type=int, default=_PROBLEM_OPTIONS[flag])
    gd.add_argument("--seed", type=int, default=0)
    gs = gsub.add_parser("random-seq", help="seeded random integer sequence")
    gs.add_argument("-n", type=int, required=True)
    gs.add_argument("--range", type=int, default=_PROBLEM_OPTIONS["--range"])
    gs.add_argument("--seed", type=int, default=0)

    exp = sub.add_parser("experiment", help="greedy-vs-oracle ratio runs, CSV output")
    exp.add_argument("--problem", choices=["crashing", "klis"], required=True)
    exp.add_argument("--trials", type=_count, required=True)
    exp.add_argument("-k", type=_count, required=True)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--generator", choices=["random", "matrix"], default="random",
                     help="klis instances: seeded random sequences, or the fixed "
                     "staircase instance for k with its adversarial script")
    exp.add_argument("--output", help="CSV path (default: stdout)")
    readers = {flag: f"{g} {p}" for (p, g), (_, reads, _) in _EXPERIMENTS.items() for flag in reads}
    for flag, default in _PROBLEM_OPTIONS.items():
        exp.add_argument(flag, type=int, default=argparse.SUPPRESS,
                         help=f"{readers[flag]} experiments only (default {default})")
    return parser


_HANDLERS = {
    "crash": _cmd_crash,
    "klis": _cmd_klis,
    "lis": _cmd_lis,
    "gen": _cmd_gen,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except NotCrashableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ScriptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCRIPT
    except (KGreedyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
