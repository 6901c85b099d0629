"""Property tests: any input to `kgreedy crash` or `kgreedy klis` ends in a
defined exit.

Projects are valid networks over the nodes s, u and t with small day counts,
half of them with one fault: a key dropped, or a value replaced by a wrong
one or by arbitrary JSON.  With k from 0 to 4, valid, infeasible and
malformed inputs all occur.  Every one must exit 0, 2 or 3.

Sequences are short integer lists, huge ones included, sometimes with junk
tokens mixed in; `--script` files hold the greedy rounds, index lists with
bad or out-of-range indices, or arbitrary JSON.  Every run must exit 0, 3
or 4.

Exit 0 prints JSON and nothing on stderr; any other exit prints exactly one
`error:` line to stderr, so no traceback.
"""

import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kgreedy.klis import greedy_klis  # noqa: E402
from support import assert_exit_defined  # noqa: E402

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


# up to 4300 digits, Python's default limit for converting ints to and from
# text; a junk token goes one digit past it
huge = st.sampled_from([10**18, -(10**30), 10**4299])
token = st.text(max_size=3) | st.sampled_from(
    ["x", "1.5", "--3", "0x1f", "1e3", "nan", "[1]", "\u0663", "1" + "0" * 4300]
)


@st.composite
def sequences(draw):
    """Integers as text, a quarter of the time with junk tokens mixed in."""
    values = draw(st.lists(st.integers(-5, 5) | huge, max_size=8))
    tokens = [str(v) for v in values]
    if draw(st.integers(0, 3)) == 0:
        for junk_token in draw(st.lists(token, min_size=1, max_size=2)):
            tokens.insert(draw(st.integers(0, len(tokens))), junk_token)
    return values, draw(st.sampled_from([",", " ", "\n", ", "])).join(tokens)


@st.composite
def scripts(draw, values, k):
    """The greedy rounds, perhaps with one index dropped; index lists, mostly
    k of them, with bad or out-of-range indices; or arbitrary JSON."""
    kind = draw(st.sampled_from(["greedy", "indices", "junk"]))
    if kind == "greedy" and k >= 1:
        rounds = [list(r) for r in greedy_klis(values, k).rounds]
        picked = [r for r in rounds if r]
        if picked and draw(st.booleans()):
            draw(st.sampled_from(picked)).pop()
        return rounds
    if kind == "junk":
        return draw(junk)
    index = st.integers(-2, len(values) + 2) | huge
    count = draw(st.just(k) | st.integers(0, 5))
    return draw(st.lists(st.lists(index, max_size=4), min_size=count, max_size=count))


# derandomize: the same examples on every run, so a failure always reproduces
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(project=projects(), k=st.integers(0, 4), trace=st.booleans())
def test_crash_exit_is_defined(project, k, trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "project.json")
        with open(path, "w") as fh:
            json.dump(project, fh)
        argv = ["crash", "--input", path, "-k", str(k)] + (["--trace"] if trace else [])
        assert_exit_defined(argv, (0, 2, 3))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sequence=sequences(), k=st.integers(0, 4), data=st.data())
def test_klis_exit_is_defined(sequence, k, data):
    values, text = sequence
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sequence.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = ["klis", "--input", path, "-k", str(k)]
        if data.draw(st.booleans()):
            script_path = os.path.join(tmp, "script.json")
            with open(script_path, "w") as fh:
                json.dump(data.draw(scripts(values, k)), fh)
            argv += ["--script", script_path]
        assert_exit_defined(argv, (0, 3, 4))
