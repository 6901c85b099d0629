"""Spans at kgreedy's module boundaries, recorded from outside the program.

``Tracer.install`` replaces every public function of the layer modules with
a timing wrapper, wherever a layer module has it bound: as a module
attribute (how ``cli`` reaches every layer and how each module reaches its
own functions) and as a name imported into another module (``crashing``
imports from ``network``).  Spans stay in memory as (name, start, end,
parent, op id, counts) and are written out when the run ends.  Counts are
taken from each call's arguments and result, never from inside the program.
"""

from __future__ import annotations

import inspect
import json
import numbers
import time
from collections import defaultdict

LAYERS = ("network", "flow", "crashing", "klis", "oracle", "generators", "cli")

# Per-element helpers: wrapping them would time the wrapper, not the layer.
SKIP = {"network.as_cost", "network.linear_schedule", "flow.is_unbounded"}


def _count_critical_graph(args, kwargs, result):
    return {"in_edges": len(args[0].edges), "kept_edges": len(result.edges)}


def _count_min_cut(args, kwargs, result):
    arcs = args[0].arcs
    finite = sum(1 for a in arcs if isinstance(a.capacity, numbers.Number))
    return {"arcs": len(arcs), "finite_arcs": finite}


def _count_verify_trace(args, kwargs, result):
    return {"checks": len(result.checks)}


def _count_lis(args, kwargs, result):
    return {"elems": len(args[0])}


def _count_exact_crash_cost(args, kwargs, result):
    space = 1
    for e in args[0].edges:
        space *= e.normal_len - e.min_len + 1
    return {"plan_space": space}


def _count_exact_klis(args, kwargs, result):
    k = args[1] if len(args) > 1 else kwargs["k"]
    return {"assignments": (k + 1) ** len(args[0])}


COUNTERS = {
    "network.critical_graph": _count_critical_graph,
    "flow.min_cut": _count_min_cut,
    "crashing.verify_trace": _count_verify_trace,
    "klis.lis": _count_lis,
    "oracle.exact_crash_cost": _count_exact_crash_cost,
    "oracle.exact_klis": _count_exact_klis,
}


class Tracer:
    def __init__(self, kg):
        self.modules = [getattr(kg, layer) for layer in LAYERS]
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = "setup"
        self._patched: list = []  # (module, attribute, original)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counter = COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, clock(), parent, tracer.op_id, None)
                raise
            finally:
                stack.pop()
            end = clock()
            counts = counter(args, kwargs, result) if counter else None
            spans[idx] = (name, start, end, parent, tracer.op_id, counts)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    wrappers[id(value)] = self._wrap(name, value)
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op_id, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id, "counts": counts}))
                fh.write("\n")

    def table(self) -> dict:
        """Per function and per op group: calls, self seconds, summed counts.

        Self time is a span's duration minus the durations of its children,
        which nest inside it because the run is single-threaded.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        rows: dict = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, op_id, counts) in enumerate(self.spans):
            group = "setup" if op_id == "setup" else "pass"
            row = rows[(group, name)]
            row["calls"] += 1
            row["self_s"] += end - start - child[i]
            for key, value in (counts or {}).items():
                row[key] += value
        return rows
