"""Outside-in tracing of graph_calculus and the per-layer metrics it yields.

The tracer never edits the package: instrument() replaces, for the duration of
a `with` block, the names that graph_calculus.convergence and graph_calculus.cli
look up at call time (the public functions of manifolds, graph_core, calculus,
csvio and convergence they imported) with wrappers that record a span each.
A span has an id, a name `<module>.<function>`, start and end
(time.perf_counter seconds), its parent span's id, the id of the cell it
belongs to, the id of its root span (one per round), and the thread it ran on.
Spans stay in memory; the child process writes them out when it ends.

layer_metrics() turns a span list into the per-layer numbers; it is pure
Python so the parent can run it without importing numpy.
"""

from __future__ import annotations

import inspect
import itertools
import statistics
import threading
import time
import tracemalloc
from contextlib import contextmanager

# Cell roots: one span per cell of a workload.
CELL_SPANS = ("convergence.lemma_check", "convergence.degree_check")
# Round-level spans whose parallelism attribute gives the pool size K.
POOL_SPANS = ("convergence.sweep", "bench.ensemble")
# graph_core passes that evaluate the kernel over all N(N+1)/2 pairs.
KERNEL_PASSES = ("graph_core.build_weights", "graph_core.degrees_from_cloud")

# What to wrap. In graph_calculus.convergence: every function it imported from
# the other layer modules (found at run time, so a refactor that changes the
# imports keeps its spans) and its own cell entry points. In graph_calculus.cli:
# the calls on a run's cell and output path only, so that spec parsing, rate
# fits and the summary stay in cli.run's self time. Missing names are skipped.
_LAYER_MODULES = ("manifolds", "graph_core", "calculus", "csvio")
_SKIP = ("get_manifold",)  # registry lookup, no work of its own
_OWN = {
    "graph_calculus.convergence": ("lemma_check", "degree_check"),
    "graph_calculus.cli": ("sweep", "results_csv_text", "write_text_atomic"),
}


def _plan(module) -> list[str]:
    names = list(_OWN.get(module.__name__, ()))
    if module.__name__ == "graph_calculus.convergence":
        names += sorted(
            name
            for name, obj in vars(module).items()
            if inspect.isfunction(obj)
            and obj.__module__.rsplit(".", 1)[-1] in _LAYER_MODULES
            and obj.__module__.startswith("graph_calculus.")
            and name not in _SKIP
        )
    return names


class Tracer:
    """Collects spans from the main thread and from pool threads it starts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._main_stack: list[dict] = []
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        # A pool thread's first span hangs under the span the main thread is
        # blocked in (the sweep that submitted the work).
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            span_id = next(self._ids)
        rec = {
            "id": span_id,
            "name": name,
            "parent": parent["id"] if parent else None,
            "root": parent["root"] if parent else span_id,
            "cell": span_id if name in CELL_SPANS else (parent["cell"] if parent else None),
            "thread": threading.get_ident(),
            "attrs": attrs,
        }
        stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _matrix_bytes(w) -> int:
    m = w.entries
    if w.is_sparse:
        return int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)
    return int(m.nbytes)


def _weights_attrs(args, kwargs, result):
    import numpy as np

    n = _arg(args, kwargs, 0, "cloud").n_points
    nnz = result.entries.nnz if result.is_sparse else np.count_nonzero(result.entries)
    return {"n": n, "nnz": int(nnz), "bytes_out": _matrix_bytes(result)}


def _degrees_attrs(args, kwargs, result):
    return {"n": _arg(args, kwargs, 0, "cloud").n_points, "bytes_out": int(result.nbytes)}


def _apply_attrs(args, kwargs, result):
    # computed traffic: W once, then f and d read and the result written
    w = _arg(args, kwargs, 1, "w")
    return {"n": w.n_vertices, "bytes": _matrix_bytes(w) + 3 * 8 * w.n_vertices}


def _write_attrs(args, kwargs, result):
    return {"bytes": len(_arg(args, kwargs, 1, "text").encode("utf-8"))}


def _sweep_attrs(args, kwargs, result):
    return {"parallelism": int(kwargs.get("parallelism", args[1] if len(args) > 1 else 1))}


# (attributes computed after the call, track allocation peak)
_HOOKS = {
    "build_weights": (_weights_attrs, True),
    "degrees_from_cloud": (_degrees_attrs, True),
    "laplacian_apply": (_apply_attrs, False),
    "write_text_atomic": (_write_attrs, False),
    "sweep": (_sweep_attrs, False),
}


def _wrap(tracer: Tracer, fn, name: str):
    attrs_of, track_alloc = _HOOKS.get(fn.__name__, (None, False))
    is_cell = name in CELL_SPANS

    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            if track_alloc and tracemalloc.is_tracing():
                # process-wide: with a thread pool, other cells' allocations count too
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            if is_cell:
                cpu0 = time.thread_time()
            result = fn(*args, **kwargs)
            if is_cell:
                rec["attrs"]["cpu_ms"] = (time.thread_time() - cpu0) * 1000.0
            if track_alloc and tracemalloc.is_tracing():
                peak = tracemalloc.get_traced_memory()[1]
                rec["attrs"]["alloc_peak_mb"] = (peak - base) / 2**20
        if attrs_of is not None:
            # outside the span: counting nonzeros is the benchmark's work
            rec["attrs"].update(attrs_of(args, kwargs, result))
        return result

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers on the module-level names _plan picks; undo on exit."""
    import importlib

    patched = []
    try:
        for module_name in _OWN:
            module = importlib.import_module(module_name)
            for name in _plan(module):
                fn = getattr(module, name, None)
                if not callable(fn):
                    continue
                layer = fn.__module__.rsplit(".", 1)[-1]
                setattr(module, name, _wrap(tracer, fn, f"{layer}.{name}"))
                patched.append((module, name, fn))
        yield tracer
    finally:
        for module, name, fn in reversed(patched):
            setattr(module, name, fn)


# ----------------------------------------------------------------------
# span analysis (pure Python)


def _dur_ms(span) -> float:
    return (span["end"] - span["start"]) * 1000.0


def _children(spans):
    kids: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(s)
    return kids


def _covered_ms(span, kids) -> float:
    """Time of span covered by its children on the same thread (interval union)."""
    intervals = sorted(
        (max(k["start"], span["start"]), min(k["end"], span["end"]))
        for k in kids.get(span["id"], ())
        if k["thread"] == span["thread"]
    )
    covered, cur_start, cur_end = 0.0, None, None
    for a, b in intervals:
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered * 1000.0


def check_cell_accounting(spans) -> list[str]:
    """Each cell's same-thread children must nest inside it without overlapping,
    so that children plus self time account for the cell's wall time."""
    kids = _children(spans)
    problems = []
    for cell in (s for s in spans if s["name"] in CELL_SPANS):
        own = sorted(
            (k for k in kids.get(cell["id"], ()) if k["thread"] == cell["thread"]),
            key=lambda k: k["start"],
        )
        if any(k["start"] < cell["start"] or k["end"] > cell["end"] for k in own):
            problems.append(f"span {cell['id']}: a child lies outside its cell")
        if any(a["end"] > b["start"] for a, b in zip(own, own[1:])):
            problems.append(f"span {cell['id']}: children overlap")
        total = sum(_dur_ms(k) for k in own)
        self_ms = _dur_ms(cell) - _covered_ms(cell, kids)
        if abs(total + self_ms - _dur_ms(cell)) > 1e-6 * max(1.0, _dur_ms(cell)):
            problems.append(f"span {cell['id']}: children + self != wall")
    return problems


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(spans, memory_spans) -> dict:
    """Every per-layer metric the spans support, by name (value None if absent).

    ms values are medians over calls; functions called once per cell give
    per-cell medians. Allocation peaks come from memory_spans, recorded in a
    separate round under tracemalloc.
    """
    kids = _children(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def ms(name):
        return _median([_dur_ms(s) for s in by_name.get(name, ())])

    def attr(name, key, source=spans):
        return _median([s["attrs"][key] for s in source if s["name"] == name and key in s["attrs"]])

    def self_ms(name):
        return _median([_dur_ms(s) - _covered_ms(s, kids) for s in by_name.get(name, ())])

    def pair_rate(names):
        pairs = sum(s["attrs"]["n"] * (s["attrs"]["n"] + 1) / 2 for n in names for s in by_name.get(n, ()))
        secs = sum(_dur_ms(s) / 1000.0 for n in names for s in by_name.get(n, ()))
        return pairs / secs if secs > 0 else None

    cells = [s for s in spans if s["name"] in CELL_SPANS]
    per_cell: dict[str, dict[int, float]] = {"manifolds": {}, "graph_core": {}}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        if layer in per_cell and s["cell"] is not None:
            per_cell[layer][s["cell"]] = per_cell[layer].get(s["cell"], 0.0) + _dur_ms(s)
    kernel = [s for n in KERNEL_PASSES for s in by_name.get(n, ())]

    efficiencies = []
    for pool in (s for n in POOL_SPANS for s in by_name.get(n, ())):
        inside = [c for c in cells if pool["start"] <= c["start"] and c["end"] <= pool["end"]]
        wall = pool["end"] - pool["start"]
        k = pool["attrs"].get("parallelism", 1)
        if inside and wall > 0:
            efficiencies.append(sum(c["attrs"]["cpu_ms"] for c in inside) / 1000.0 / (k * wall))

    out = {
        # module-level metrics, measured on every workload
        "manifolds.ms": _median([per_cell["manifolds"].get(c["id"], 0.0) for c in cells]),
        "manifolds.sample.ms": ms("manifolds.sample"),
        "graph_core.ms": _median([per_cell["graph_core"].get(c["id"], 0.0) for c in cells]),
        "graph_core.pair_rate": pair_rate(KERNEL_PASSES),
        "graph_core.alloc_peak_mb": _median(
            [s["attrs"]["alloc_peak_mb"] for s in memory_spans if s["name"] in KERNEL_PASSES]
        ),
        "graph_core.bytes_out": _median([s["attrs"]["bytes_out"] for s in kernel]),
        "convergence.self_ms": _median([_dur_ms(c) - _covered_ms(c, kids) for c in cells]),
        "convergence.cell.ms": _median([_dur_ms(c) for c in cells]),
        "convergence.cell.cpu_ms": _median([c["attrs"]["cpu_ms"] for c in cells]),
        "convergence.cell.wait_ms": _median([_dur_ms(c) - c["attrs"]["cpu_ms"] for c in cells]),
        "convergence.cell.child_share": _median(
            [_covered_ms(c, kids) / _dur_ms(c) for c in cells if _dur_ms(c) > 0]
        ),
        "convergence.sweep.pool_efficiency": _median(efficiencies),
        # per-function metrics, on the workloads that call the function
        "manifolds.eval_pair.ms": ms("manifolds.eval_pair"),
        "graph_core.build_weights.ms": ms("graph_core.build_weights"),
        "graph_core.build_weights.nnz": attr("graph_core.build_weights", "nnz"),
        "graph_core.build_weights.keep_ratio": _median(
            [s["attrs"]["nnz"] / s["attrs"]["n"] ** 2 for s in by_name.get("graph_core.build_weights", ())]
        ),
        "graph_core.build_weights.pair_rate": pair_rate(("graph_core.build_weights",)),
        "graph_core.build_weights.alloc_peak_mb": attr(
            "graph_core.build_weights", "alloc_peak_mb", memory_spans
        ),
        "graph_core.build_weights.bytes_out": attr("graph_core.build_weights", "bytes_out"),
        "graph_core.degrees.ms": ms("graph_core.degrees"),
        "graph_core.degrees_from_cloud.ms": ms("graph_core.degrees_from_cloud"),
        "graph_core.degrees_from_cloud.pair_rate": pair_rate(("graph_core.degrees_from_cloud",)),
        "graph_core.degrees_from_cloud.alloc_peak_mb": attr(
            "graph_core.degrees_from_cloud", "alloc_peak_mb", memory_spans
        ),
        "calculus.laplacian_apply.ms": ms("calculus.laplacian_apply"),
        "calculus.laplacian_apply.bytes": attr("calculus.laplacian_apply", "bytes"),
        "convergence.lemma_check.self_ms": self_ms("convergence.lemma_check"),
        "convergence.degree_check.self_ms": self_ms("convergence.degree_check"),
        "csvio.results_csv_text.ms": ms("csvio.results_csv_text"),
        "csvio.write_text_atomic.ms": ms("csvio.write_text_atomic"),
        "csvio.bytes_written": _median(
            [
                sum(k["attrs"]["bytes"] for k in kids.get(r["id"], ()) if k["name"] == "csvio.write_text_atomic")
                for r in by_name.get("cli.run", ())
            ]
        ),
        "cli.run.self_ms": self_ms("cli.run"),
    }
    return out


def span_tree(spans) -> list[dict]:
    """Per span name: call count, parent names and median duration."""
    names = {s["id"]: s["name"] for s in spans}
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"name": s["name"], "calls": 0, "parents": set(), "ms": []})
        row["calls"] += 1
        row["parents"].add(names.get(s["parent"], "-"))
        row["ms"].append(_dur_ms(s))
    return [
        {"name": r["name"], "calls": r["calls"], "parents": sorted(r["parents"]), "median_ms": _median(r["ms"])}
        for r in sorted(table.values(), key=lambda r: r["name"])
    ]
