"""Property tests: any project JSON given to `kgreedy crash` ends in a defined exit.

Projects are valid networks over the nodes s, u and t with small day counts,
half of them with one fault: a key dropped, or a value replaced by a wrong
one or by arbitrary JSON.  With k from 0 to 4, valid, infeasible and
malformed inputs all occur.  Every one must exit 0, 2 or 3; a non-zero exit
prints exactly one `error:` line to stderr, so no traceback.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kgreedy.cli import main  # noqa: E402

junk = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)

# values that are well-typed but wrong somewhere: negative or huge days, bad
# costs, a non-convex schedule, endpoints that make a cycle or a second source
odd = st.sampled_from([-1, 2_000_001, "1/0", "nan", "x", "0.1", [3, 1], "s", "u", "t", "w"])
DROP = object()


@st.composite
def projects(draw):
    """A valid project over s -> u -> t, half of the time with one fault."""
    extra = st.sampled_from([("s", "u"), ("u", "t"), ("s", "t")])
    arcs = [("s", "u"), ("u", "t")] + draw(st.lists(extra, max_size=4))
    edges = []
    for pos, (src, dst) in enumerate(arcs):
        a = draw(st.integers(0, 3))
        days = draw(st.integers(0, 3))
        convex = st.lists(st.integers(0, 9), min_size=days, max_size=days).map(sorted)
        c = draw(st.integers(0, 9) | convex)
        edges.append({"id": f"e{pos}", "from": src, "to": dst, "a": a, "b": a + days, "c": c})
    project = {"nodes": ["s", "u", "t"], "source": "s", "sink": "t", "edges": edges}
    if draw(st.booleans()):
        obj = draw(st.sampled_from([project] + edges))
        key = draw(st.sampled_from(sorted(obj)))
        value = draw(st.just(DROP) | odd | junk)
        if value is DROP:
            del obj[key]
        else:
            obj[key] = value
    return project


# derandomize: the same examples on every run, so a failure always reproduces
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(project=projects(), k=st.integers(0, 4), trace=st.booleans())
def test_crash_exit_is_defined(project, k, trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "project.json")
        with open(path, "w") as fh:
            json.dump(project, fh)
        argv = ["crash", "--input", path, "-k", str(k)] + (["--trace"] if trace else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue())
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
