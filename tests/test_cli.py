import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from kgreedy import cli, crashing, generators, klis, network, oracle
from kgreedy.cli import main
from kgreedy.network import network_from_json
from support import assert_exit_defined, plan_cost, structural_faults, two_edge_project

SRC = Path(__file__).parent.parent / "src"


@pytest.fixture
def fig2_path(tmp_path, capsys):
    assert main(["gen", "fig2"]) == 0
    path = tmp_path / "fig2.json"
    path.write_text(capsys.readouterr().out)
    return str(path)


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


@pytest.mark.parametrize("argv, message", [
    (["crash", "--input", "{fig2}", "-k", "abc"], "argument -k: invalid int value: 'abc'"),
    (["crash", "-k", "2"], "the following arguments are required: --input"),
    (["crash", "--input", "{fig2}"], "the following arguments are required: -k"),
    (["crash", "--input", "{fig2}", "-k", "0", "--exact"], "argument -k: must be at least 1"),
    (["klis", "-k", "0", "--input", "{seq}", "--script", "{script}"],
     "argument -k: must be at least 1"),
    (["klis", "-k", "2", "--input", "{seq}", "--exact", "--script", "{script}"],
     "argument --script: not allowed with argument --exact"),
    (["experiment", "--problem", "klis", "--trials", "0", "-k", "2"],
     "argument --trials: must be at least 1"),
    (["gen", "random-seq", "-n", "3", "--range", "0"], "value range must be at least 1"),
    (["experiment", "--problem", "klis", "--trials", "1", "-k", "2", "--range", "0"],
     "value range must be at least 1"),
], ids=["k-not-int", "no-input", "no-k", "crash-k-zero", "klis-k-zero-script",
        "klis-exact-and-script", "zero-trials", "random-seq-range-zero",
        "experiment-range-zero"])
def test_usage_error_exits_three(tmp_path, fig2_path, argv, message):
    (tmp_path / "seq.txt").write_text("1,2,3\n")
    (tmp_path / "script.json").write_text("[]")
    paths = {"fig2": fig2_path, "seq": tmp_path / "seq.txt", "script": tmp_path / "script.json"}
    err = assert_exit_defined([arg.format(**paths) for arg in argv], (3,))
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("k", [1, 5, 36])
def test_crash_exact_on_200_edges(tmp_path, capsys, k):
    # k_max is 36; a minimum cut is optimal for one day, so at k = 1 the
    # greedy's cost is the optimum
    net = generators.random_network(generators.RandomNetSpec(
        node_count=40, edge_count=200, seed=1))
    path = tmp_path / "net.json"
    path.write_text(json.dumps(network.network_to_json(net)))
    code, out = run(capsys, ["crash", "--input", str(path), "-k", str(k), "--exact"])
    assert code == 0
    exact = json.loads(out)
    plan = network.Plan(exact["plan"]["amounts"])
    cost = Fraction(exact["total_cost"])
    assert network.is_k_crashing(net, plan, k)
    assert plan_cost(net, plan) == cost
    greedy = crashing.greedy_crash(net, k).total_cost
    assert cost == greedy if k == 1 else cost <= greedy


def test_klis_experiment_of_length_40_exits_zero(capsys):
    code, out = run(capsys, ["experiment", "--problem", "klis", "--trials", "2", "-k", "2",
                             "--length", "40"])
    assert code == 0
    rows = out.splitlines()[2:4]
    assert [row.split(",")[:3] for row in rows] == [["0", "0", "2"], ["1", "1", "2"]]
    assert all(row.endswith(",yes") for row in rows)


def test_klis_exact_on_60_elements_exits_zero(tmp_path, capsys):
    values = generators.random_sequence(60, 1000, seed=1)
    seq = tmp_path / "seq.txt"
    seq.write_text(klis.format_sequence(values))
    code, out = run(capsys, ["klis", "-k", "4", "--exact", "--input", str(seq)])
    assert code == 0
    assert json.loads(out)["total"] == oracle.exact_klis_total(values, 4) == 38


def kgreedy(*argv, **env):
    """The CLI run as a child process, with ``env`` added to its environment."""
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "kgreedy.cli", *argv], env=env,
                          capture_output=True, text=True)


def test_shell_exit_codes(tmp_path):
    # what a shell sees: the exit status of the process, not main's return value
    fig2 = kgreedy("gen", "fig2")
    assert fig2.returncode == 0
    path = tmp_path / "fig2.json"
    path.write_text(fig2.stdout)
    infeasible = kgreedy("crash", "--input", str(path), "-k", "9")
    assert infeasible.returncode == 2
    assert infeasible.stderr == "error: no 9-day plan exists: day 7 cannot be saved\n"
    usage = kgreedy("crash", "--input", str(path), "-k", "abc")
    assert (usage.returncode, usage.stdout) == (3, "")
    assert usage.stderr == "error: argument -k: invalid int value: 'abc'\n"
    assert kgreedy("--help").returncode == 0


def _rejected_projects():
    """(name, project, exact message): one project per structural rule, and
    a negative scalar "c" on both edges of a project whose first or second
    edge has no crashable day; it is rejected on the other edge either way."""
    rigid_first, rigid_second = two_edge_project(-1, -1), two_edge_project(-1, -1)
    rigid_first["edges"][0]["b"] = 1
    rigid_second["edges"][1]["a"] = 3
    return structural_faults() + [
        ("negative-cost-after-a-rigid-edge", rigid_first, "edge 'f': negative cost at day 0"),
        ("negative-cost-before-a-rigid-edge", rigid_second, "edge 'e': negative cost at day 0"),
    ]


_REJECTED_PROJECTS = _rejected_projects()


class TestCrash:
    def test_greedy(self, capsys, fig2_path):
        code, out = run(capsys, ["crash", "--input", fig2_path, "-k", "2"])
        assert code == 0
        data = json.loads(out)
        assert data["total_cost"] == "28"
        assert [s["edges"] for s in data["steps"]] == [["j3"], ["j1", "j2"]]

    def test_exact(self, capsys, fig2_path):
        code, out = run(capsys, ["crash", "--input", fig2_path, "-k", "2", "--exact"])
        assert code == 0
        data = json.loads(out)
        assert data["total_cost"] == "20"
        assert data["plan"]["amounts"] == {"j1": 1, "j5": 1}

    def test_trace_report(self, capsys, fig2_path):
        code, out = run(capsys, ["crash", "--input", fig2_path, "-k", "2", "--trace"])
        assert code == 0
        data = json.loads(out)
        assert data["trace"]["report"]["passed"] is True
        assert len(data["trace"]["cuts"]) == 2

    def test_trace_of_convex_schedule_passes(self, capsys, tmp_path):
        convex = tmp_path / "convex.json"
        convex.write_text(json.dumps({
            "nodes": ["s", "t"], "source": "s", "sink": "t",
            "edges": [{"id": "e", "from": "s", "to": "t", "a": 1, "b": 3, "c": [1, 2]}],
        }))
        code, out = run(capsys, ["crash", "--input", str(convex), "-k", "2", "--trace"])
        assert code == 0
        trace = json.loads(out)["trace"]
        assert trace["report"]["passed"] is True
        assert trace["cut_costs"] == ["1", "2"]

    def test_infeasible_k_exits_two(self, capsys, fig2_path):
        code, _ = run(capsys, ["crash", "--input", fig2_path, "-k", "99"])
        assert code == 2

    def test_missing_file_exits_three(self, capsys):
        code, _ = run(capsys, ["crash", "--input", "no-such-file.json", "-k", "1"])
        assert code == 3

    def test_invalid_network_exits_three(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "nodes": ["s", "t"], "source": "s", "sink": "t",
            "edges": [
                {"id": "a", "from": "s", "to": "t", "a": 1, "b": 2, "c": 1},
                {"id": "b", "from": "t", "to": "s", "a": 1, "b": 2, "c": 1},
            ],
        }))
        code, _ = run(capsys, ["crash", "--input", str(bad), "-k", "1"])
        assert code == 3

    @pytest.mark.parametrize("text, message", [
        (json.dumps([1, 2]), "must be a JSON object"),
        (json.dumps({"nodes": ["s", "t"], "source": "s", "sink": "t", "edges": "x"}),
         '"edges" must be a list'),
        (json.dumps({"nodes": ["s", "t"], "source": "s", "sink": "t", "edges": [
            {"id": "e", "from": "s", "to": "t", "a": True, "b": 2, "c": 1}]}),
         '"a" must be a whole number'),
        (json.dumps({"nodes": ["s", "t"], "source": "s", "sink": "t", "edges": [
            {"id": "e", "from": "s", "to": "t", "a": 1, "b": 2, "c": "1/0"}]}),
         "zero denominator"),
        ('{"nodes": ["s", "t"], "source": "s", "sink": "t", "edges": ['
         '{"id": "e", "from": "s", "to": "t", "a": 1.0, "b": 2, "c": 1}]}',
         '"a" must be a whole number of days, got \'1.0\''),
        ('{"nodes": ["s", "t"], "source": "s", "sink": "t", "edges": ['
         '{"id": "e", "from": "s", "to": "t", "a": 1, "b": 2, "c": NaN}]}',
         '"c" must be a cost or a list of costs, got nan'),
        (json.dumps({"nodes": ["s", "t"], "source": "s", "sink": "t", "edges": [
            {"id": "e", "from": "s", "to": "t", "a": 1, "b": 2, "c": "1_0"}]}),
         '"c" must be a cost or a list of costs, got \'1_0\''),
        ("[" * 100_000, "nested too deeply"),
        (json.dumps({"nodes": ["s", "t"], "source": "s", "edges": [
            {"id": "e", "from": "s", "to": "t", "a": 1, "b": 2, "c": 1}]}),
         'the project has no "sink"'),
        (json.dumps({"nodes": ["s", "t"], "source": "s", "sink": "t", "edges": [
            {"from": "s", "to": "t", "a": 1, "b": 2, "c": 1}]}),
         'edge 0 has no "id"'),
        (json.dumps({"nodes": ["s", "t"], "source": "s", "sink": "t", "edges": [
            {"id": None, "from": "s", "to": "t", "a": 1, "b": 2, "c": 1}]}),
         "names must be strings or integers"),
        (json.dumps({"nodes": ["s", True], "source": "s", "sink": True, "edges": [
            {"id": "e", "from": "s", "to": True, "a": 1, "b": 2, "c": 1}]}),
         "names must be strings or integers"),
        (json.dumps({"nodes": ["s", "t"], "source": "s", "sink": "t", "edges": [
            {"id": {"x": 1}, "from": "s", "to": "t", "a": 1, "b": 2, "c": 1}]}),
         "names must be strings or integers"),
    ] + [(json.dumps(project), message) for _, project, message in _REJECTED_PROJECTS],
        ids=["top-level-list", "edges-not-list", "bool-days", "zero-denominator", "float-days",
             "nan-cost", "underscore-cost", "deep-nesting", "missing-sink", "edge-missing-id",
             "null-id", "bool-node", "object-id"] + [name for name, _, _ in _REJECTED_PROJECTS])
    def test_malformed_project_exits_three(self, capsys, tmp_path, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["crash", "--input", str(bad), "-k", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_negative_cost_on_an_edge_without_crashable_days_loads(self, capsys, tmp_path):
        project = two_edge_project(-1, 1)
        project["edges"][0]["b"] = 1
        path = tmp_path / "rigid.json"
        path.write_text(json.dumps(project))
        code, out = run(capsys, ["crash", "--input", str(path), "-k", "1"])
        assert code == 0
        assert json.loads(out)["total_cost"] == "1"

    def test_too_many_crashable_days_exits_three(self, capsys, tmp_path):
        # A scalar cost would otherwise expand into b - a schedule entries.
        bad = tmp_path / "long.json"
        bad.write_text(json.dumps({
            "nodes": ["s", "t"], "source": "s", "sink": "t",
            "edges": [{"id": "e", "from": "s", "to": "t", "a": 0, "b": 2_000_001, "c": 1}],
        }))
        assert main(["crash", "--input", str(bad), "-k", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="no int-to-str digit limit")
    def test_cost_exponent_past_the_digit_limit_exits_three(self, capsys, tmp_path):
        # Fraction would compute the power of ten first: 21 s for 1e20000000
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "exponent.json"

        def crash(c):
            path.write_text('{"nodes": ["s", "t"], "source": "s", "sink": "t", "edges": ['
                            f'{{"id": "e", "from": "s", "to": "t", "a": 0, "b": 1, "c": {c}}}]}}')
            start = time.perf_counter()
            code = main(["crash", "--input", str(path), "-k", "1"])
            assert time.perf_counter() - start < 1
            return code, capsys.readouterr()

        for c in ('"1e5000"', "1e-5000"):  # a JSON string and a JSON number
            code, captured = crash(c)
            assert code == 3
            assert captured.err == (f"error: cost {c.strip(chr(34))!r} needs a power of ten "
                                    f"of more than {limit} digits\n")
        code, captured = crash("1e300")
        assert code == 0
        assert json.loads(captured.out)["total_cost"] == str(10**300)

    def test_exact_on_long_chain(self, capsys, tmp_path):
        # 1,500 jobs in series, one of them crashable: deep, but three plans.
        edges = [
            {"id": f"e{i}", "from": f"v{i}", "to": f"v{i + 1}", "a": 1, "b": 1, "c": 0}
            for i in range(1500)
        ]
        edges[700].update(b=3, c=1)
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps({
            "nodes": [f"v{i}" for i in range(1501)], "source": "v0", "sink": "v1500",
            "edges": edges,
        }))
        code, out = run(capsys, ["crash", "--input", str(chain), "-k", "1", "--exact"])
        assert code == 0
        assert json.loads(out)["total_cost"] == "1"


class TestExactValuesPrintInFull:
    """Exact values past the interpreter's int-to-str digit limit print in
    full.  The children run with the limit at 640 digits, its least, so the
    instances stay small."""

    def test_klis_bound_with_a_744_digit_denominator(self):
        child = kgreedy("experiment", "--problem", "klis", "--trials", "1", "-k", "300",
                        "--length", "3", PYTHONINTMAXSTRDIGITS="640")
        assert child.returncode == 0, child.stderr
        bound = Fraction(child.stdout.splitlines()[2].split(",")[6])
        assert bound == klis.total_ratio_bound(300)
        assert len(str(bound.denominator)) == 744  # 300**300

    @pytest.mark.parametrize("mode", [[], ["--exact"]], ids=["greedy", "exact"])
    def test_crash_cost_of_300_prime_reciprocals(self, tmp_path, mode):
        # 300 parallel jobs whose one day costs 1/p for the first 300 primes:
        # one day saved cuts them all, at a cost whose denominator is their product
        primes = [p for p in range(2, 2000) if all(p % d for d in range(2, int(p**0.5) + 1))]
        assert len(primes) == 303
        path = tmp_path / "primes.json"
        path.write_text(json.dumps({"nodes": ["s", "t"], "source": "s", "sink": "t", "edges": [
            {"id": f"e{p}", "from": "s", "to": "t", "a": 0, "b": 1, "c": f"1/{p}"}
            for p in primes[:300]
        ]}))
        child = kgreedy("crash", "--input", str(path), "-k", "1", *mode,
                        PYTHONINTMAXSTRDIGITS="640")
        assert child.returncode == 0, child.stderr
        cost = Fraction(json.loads(child.stdout)["total_cost"])
        assert cost == sum(Fraction(1, p) for p in primes[:300])
        assert len(str(cost.denominator)) > 640


class TestCostsPastFloatRange:
    """200 one-day jobs costing 1/p for the first 200 primes, whose common
    denominator is past float range, beside jobs without a limit once their
    days are spent: every mode exits 0 with the exact cost."""

    PRIMES = [p for p in range(2, 1224) if all(p % d for d in range(2, int(p**0.5) + 1))]

    def project(self, tmp_path, series):
        """The jobs from s to t, or with ``series`` from s to m followed by
        a two-day job m -> t at 5 a day."""
        assert len(self.PRIMES) == 200
        head = "m" if series else "t"
        edges = [{"id": f"e{p}", "from": "s", "to": head, "a": 0, "b": 1, "c": f"1/{p}"}
                 for p in self.PRIMES]
        if series:
            edges.append({"id": "mt", "from": "m", "to": "t", "a": 0, "b": 2, "c": 5})
        path = tmp_path / "primes.json"
        nodes = ["s", "m", "t"] if series else ["s", "t"]
        path.write_text(json.dumps({"nodes": nodes, "source": "s", "sink": "t", "edges": edges}))
        return str(path)

    def test_parallel_jobs_traced(self, capsys, tmp_path):
        code, out = run(capsys, ["crash", "--input", self.project(tmp_path, False),
                                 "-k", "1", "--trace"])
        assert code == 0
        data = json.loads(out)
        assert data["trace"]["report"]["passed"]
        assert Fraction(data["total_cost"]) == sum(Fraction(1, p) for p in self.PRIMES)

    @pytest.mark.parametrize("mode", [[], ["--exact"], ["--trace"]],
                             ids=["greedy", "exact", "trace"])
    def test_jobs_in_series_with_a_two_day_job(self, capsys, tmp_path, mode):
        # day 1 crashes every 1/p job (about 2.2 all told, less than 5), and
        # day 2 the job m -> t, the only one left with a day to spend
        code, out = run(capsys, ["crash", "--input", self.project(tmp_path, True),
                                 "-k", "2", *mode])
        assert code == 0
        data = json.loads(out)
        assert Fraction(data["total_cost"]) == sum(Fraction(1, p) for p in self.PRIMES) + 5
        assert data["plan"]["amounts"]["mt"] == 1
        if "--trace" in mode:
            assert data["trace"]["report"]["passed"]


class TestKlisAndLis:
    SEQ = "3,4,5,8,9,1,6,7,8,9"

    def test_greedy_total_nine(self, capsys, monkeypatch):
        code, out = run(capsys, ["klis", "-k", "2"], stdin=self.SEQ, monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["total"] == 9

    def test_exact_total_ten(self, capsys, monkeypatch):
        code, out = run(capsys, ["klis", "-k", "2", "--exact"], stdin=self.SEQ,
                        monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["total"] == 10

    def test_k_one_is_lis(self, capsys, monkeypatch):
        code, out = run(capsys, ["klis", "-k", "1"], stdin=self.SEQ, monkeypatch=monkeypatch)
        assert code == 0
        data = json.loads(out)
        assert data["total"] == 7
        assert data["values"][0] == [3, 4, 5, 6, 7, 8, 9]

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("1 2 3\n")
        code, out = run(capsys, ["klis", "-k", "1", "--input", str(path)])
        assert code == 0
        assert json.loads(out)["total"] == 3

    def test_garbage_sequence_exits_three(self, capsys, monkeypatch):
        code, _ = run(capsys, ["klis", "-k", "1"], stdin="1,two,3", monkeypatch=monkeypatch)
        assert code == 3

    def test_underscore_in_sequence_exits_three(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1_0,2,3"))
        err = assert_exit_defined(["lis"], (3,))
        assert err == "error: sequence token '1_0' has an underscore\n"

    def test_bad_script_exits_four(self, capsys, tmp_path, monkeypatch):
        script = tmp_path / "script.json"
        script.write_text(json.dumps([[0]]))
        code, _ = run(capsys, ["klis", "-k", "1", "--script", str(script)],
                      stdin="1,2,3", monkeypatch=monkeypatch)
        assert code == 4

    def test_script_of_wrong_shape_exits_three(self, capsys, tmp_path, monkeypatch):
        script = tmp_path / "script.json"
        script.write_text("5")
        monkeypatch.setattr("sys.stdin", io.StringIO("1,2,3"))
        assert main(["klis", "-k", "1", "--script", str(script)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_matrix_script_pipeline(self, capsys, tmp_path):
        script_path = tmp_path / "m4.json"
        code, out = run(capsys, ["gen", "matrix", "-k", "4", "--script", str(script_path)])
        assert code == 0
        seq_path = tmp_path / "m4.txt"
        seq_path.write_text(out)
        code, out = run(capsys, [
            "klis", "-k", "4", "--input", str(seq_path), "--script", str(script_path),
        ])
        assert code == 0
        assert json.loads(out)["total"] == 12

    def test_lis_command(self, capsys, monkeypatch):
        code, out = run(capsys, ["lis"], stdin=self.SEQ, monkeypatch=monkeypatch)
        assert code == 0
        data = json.loads(out)
        assert data["length"] == 7
        assert data["values"] == [3, 4, 5, 6, 7, 8, 9]


class TestGen:
    def test_fig2_round_trips(self, capsys):
        code, out = run(capsys, ["gen", "fig2"])
        assert code == 0
        net = network_from_json(json.loads(out))
        assert len(net.edges) == 5

    def test_random_dag_validates(self, capsys):
        code, out = run(capsys, ["gen", "random-dag", "--nodes", "5", "--edges", "8",
                                 "--seed", "3"])
        assert code == 0
        network_from_json(json.loads(out))

    def test_random_seq(self, capsys):
        code, out = run(capsys, ["gen", "random-seq", "-n", "6", "--seed", "3"])
        assert code == 0
        assert len(out.strip().split(",")) == 6


class TestExperiment:
    def test_crashing_csv_schema(self, capsys, tmp_path):
        out_path = tmp_path / "crash.csv"
        code = main([
            "experiment", "--problem", "crashing", "--trials", "6", "-k", "2",
            "--seed", "1", "--output", str(out_path),
        ])
        capsys.readouterr()
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("# problem=crashing")
        assert lines[1] == "instance,seed,k,greedy,opt,ratio,bound,ok"
        data_rows = [l for l in lines[2:] if not l.startswith("#")]
        assert len(data_rows) == 6
        for row in data_rows:
            fields = row.split(",")
            assert fields[7] in ("yes", "skip")

    def test_klis_csv_bound_column(self, capsys, tmp_path):
        out_path = tmp_path / "klis.csv"
        code = main([
            "experiment", "--problem", "klis", "--trials", "4", "-k", "2",
            "--seed", "1", "--output", str(out_path),
        ])
        capsys.readouterr()
        assert code == 0
        rows = [l for l in out_path.read_text().splitlines()[2:] if not l.startswith("#")]
        assert all(r.split(",")[6] == "3/4" for r in rows)
        assert all(r.split(",")[7] == "yes" for r in rows)

    def test_matrix_family_ratios(self, capsys, tmp_path):
        for k, want_ratio in ((2, "3/4"), (3, "7/9"), (4, "3/4"), (5, "19/25"), (6, "3/4")):
            out_path = tmp_path / f"matrix{k}.csv"
            code = main([
                "experiment", "--problem", "klis", "--generator", "matrix",
                "--trials", "1", "-k", str(k), "--output", str(out_path),
            ])
            capsys.readouterr()
            assert code == 0
            row = out_path.read_text().splitlines()[2].split(",")
            assert row[3] == str(-(-3 * k * k // 4))  # ceil(3k^2/4)
            assert row[4] == str(k * k)
            assert row[5] == want_ratio
            assert row[7] == "yes"

    def test_matrix_generator_rejected_for_crashing(self, capsys):
        code = main(["experiment", "--problem", "crashing", "--generator", "matrix",
                     "--trials", "1", "-k", "2"])
        capsys.readouterr()
        assert code == 3

    def test_repeated_matrix_trials_rejected(self, capsys):
        # The staircase instance ignores the seed, so extra trials would only repeat it.
        code = main(["experiment", "--problem", "klis", "--generator", "matrix",
                     "--trials", "2", "-k", "3"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_byte_identical_reruns(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code = main([
                "experiment", "--problem", "klis", "--trials", "5", "-k", "3",
                "--seed", "9", "--output", str(p),
            ])
            capsys.readouterr()
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("argv, message", [
    (["--problem", "crashing", "--range", "0"],
     "argument --range: does not apply to --problem crashing --generator random"),
    (["--problem", "klis", "--nodes", "6"],
     "argument --nodes: does not apply to --problem klis --generator random"),
    (["--problem", "klis", "--generator", "matrix", "--length", "4"],
     "argument --length: does not apply to --problem klis --generator matrix"),
    (["--problem", "klis", "--length", "-1"], "argument --length: must be non-negative"),
], ids=["crashing-range", "klis-nodes", "matrix-length", "negative-length"])
def test_experiment_rejects_options_it_would_not_read(argv, message):
    err = assert_exit_defined(["experiment", "--trials", "1", "-k", "3", *argv], {3})
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["--nodes", "1", "--edges", "3"], "argument --nodes: must be at least 2"),
    (["--nodes", "4", "--edges", "2"], "argument --edges: must be at least 3"),
    (["--max-len", "0"], "argument --max-len: must be at least 1"),
    (["--max-crashable", "-1"], "argument --max-crashable: must be at least 0"),
    (["--cost-min", "0"], "argument --cost-min: must be at least 1"),
    (["--cost-min", "5", "--cost-max", "4"], "argument --cost-max: must be at least 5"),
], ids=["nodes", "edges", "max-len", "max-crashable", "cost-min", "cost-max"])
@pytest.mark.parametrize("command", [
    ["experiment", "--problem", "crashing", "--trials", "1", "-k", "1"],
    ["gen", "random-dag", "--nodes", "5", "--edges", "8"],
], ids=["experiment", "gen"])
def test_network_option_errors_name_the_option(command, argv, message):
    # argparse keeps the last of a repeated option, so argv overrides gen's
    err = assert_exit_defined([*command, *argv], {3})
    assert err == f"error: {message}\n"


def test_crash_trace_orders_the_network_once(monkeypatch, fig2_path):
    # Loading checks the network with Kahn's algorithm and keeps the
    # topological index it yields on the network, so the greedy, the
    # decomposition and its check reuse it.
    calls = []
    kahn = network._kahn
    monkeypatch.setattr(network, "_kahn", lambda *args: calls.append(args) or kahn(*args))
    net = cli._load_network(fig2_path)
    assert "_index" in vars(net) and len(calls) == 1
    plan = crashing.greedy_crash(net, 2).plan
    assert crashing.verify_trace(crashing.decompose(net, plan, 2)).passed
    assert len(calls) == 1
