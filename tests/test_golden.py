"""Golden CLI transcripts: the exact stdout of the README commands.

Each command runs in-process through ``kgreedy.cli.main`` and its stdout must
equal, byte for byte, the file of the same name in ``tests/golden/``.  After
an intended output change, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from kgreedy.cli import main

GOLDEN = Path(__file__).parent / "golden"
SEQ = "3,4,5,8,9,1,6,7,8,9"

# (name, argv, stdin).  The commands run in this order in one directory,
# "{dir}" in an argument, and each stdout is also saved there as <name>.out,
# so later commands read what earlier ones wrote.  Inputs no command writes
# are committed beside the transcripts.
TRANSCRIPTS = [
    ("gen_fig2", ["gen", "fig2"], None),
    ("crash_fig2_k2", ["crash", "--input", "{dir}/gen_fig2.out", "-k", "2"], None),
    ("crash_fig2_k2_exact", ["crash", "--input", "{dir}/gen_fig2.out", "-k", "2", "--exact"], None),
    ("crash_fig2_k2_trace", ["crash", "--input", "{dir}/gen_fig2.out", "-k", "2", "--trace"], None),
    ("crash_convex_k2_trace",
     ["crash", "--input", str(GOLDEN / "convex_project.json"), "-k", "2", "--trace"], None),
    ("klis_k2", ["klis", "-k", "2"], SEQ),
    ("klis_k2_exact", ["klis", "-k", "2", "--exact"], SEQ),
    ("lis", ["lis"], SEQ),
    ("gen_matrix_k4", ["gen", "matrix", "-k", "4", "--script", "{dir}/m4.json"], None),
    ("klis_matrix_k4_scripted",
     ["klis", "-k", "4", "--input", "{dir}/gen_matrix_k4.out", "--script", "{dir}/m4.json"], None),
    ("klis_k3_witness_scripted",
     ["klis", "-k", "3", "--input", str(GOLDEN / "klis_k3_witness.txt"),
      "--script", str(GOLDEN / "klis_k3_witness_script.json")], None),
    ("klis_k3_witness_exact",
     ["klis", "-k", "3", "--input", str(GOLDEN / "klis_k3_witness.txt"), "--exact"], None),
    ("gen_random_dag", ["gen", "random-dag", "--nodes", "5", "--edges", "8", "--seed", "7"], None),
    ("gen_random_seq", ["gen", "random-seq", "-n", "12", "--seed", "7"], None),
    ("experiment_crashing",
     ["experiment", "--problem", "crashing", "--trials", "20", "-k", "2", "--seed", "1"], None),
    ("experiment_klis",
     ["experiment", "--problem", "klis", "--trials", "20", "-k", "2", "--seed", "1"], None),
    ("experiment_matrix_k4",
     ["experiment", "--problem", "klis", "--generator", "matrix", "--trials", "1", "-k", "4"], None),
]


def run_transcripts(workdir: Path) -> dict[str, str]:
    """Run every transcript command in order; return each one's stdout."""
    outputs = {}
    saved_stdin = sys.stdin
    try:
        for name, argv, stdin in TRANSCRIPTS:
            sys.stdin = io.StringIO(stdin or "")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([arg.replace("{dir}", str(workdir)) for arg in argv])
            assert code == 0, f"{name} exited {code}"
            outputs[name] = out.getvalue()
            (workdir / f"{name}.out").write_text(outputs[name])
    finally:
        sys.stdin = saved_stdin
    return outputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_transcripts(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", [t[0] for t in TRANSCRIPTS])
def test_stdout_matches_golden(outputs, name):
    assert outputs[name].encode() == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in run_transcripts(Path(tmp)).items():
            (GOLDEN / f"{name}.out").write_bytes(text.encode())
