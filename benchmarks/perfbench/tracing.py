"""Spans around calls into overlap_ecc's layers, recorded from outside the package.

A span is (name, start, end, parent).  The layer of a span is the part of
its name before the first dot.  Spans are kept in flat arrays until the run
ends; nothing is written while work is being timed.

``install`` swaps each traced function for a wrapper in *every* loaded
``overlap_ecc`` module that binds it, because modules import names directly
(``cli`` does ``from .injection import sweep``, ``injection`` does
``from .code import build_double_error_table``).  Kernel calls made inside
forked pool workers are recorded in the worker's copy of the tracer and are
lost; the parent sees them only as time inside the ``injection.pool`` span,
which is waiting, and counts them through the pool's ``map``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from array import array
from time import perf_counter

# (module, attribute, span name); "Class.method" patches a method.
TARGETS = (
    ("overlap_ecc.code", "encode", "code.encode"),
    ("overlap_ecc.code", "decode", "code.decode"),
    ("overlap_ecc.code", "build_double_error_table", "code.double_table"),
    ("overlap_ecc.code", "builtin_config", "code.builtin_config"),
    ("overlap_ecc.code", "Codestruct.to_hex", "code.to_hex"),
    ("overlap_ecc.code", "Codestruct.from_hex", "code.from_hex"),
    ("overlap_ecc.injection", "sweep", "injection.sweep"),
    ("overlap_ecc.injection", "build_sweep_tables", "injection.tables"),
    ("overlap_ecc._sweep_py", "sweep_chunk", "kernel.sweep_chunk"),
    ("overlap_ecc._speedups", "sweep_chunk", "kernel.sweep_chunk"),
    ("overlap_ecc.search", "search_assignment", "search.solve"),
    ("overlap_ecc.search", "validate_assignment", "search.validate"),
    ("overlap_ecc.reliability", "reliability_curve", "reliability.curve"),
    ("overlap_ecc.scalability", "compare", "scalability.compare"),
    ("overlap_ecc.manifest", "RunManifest.to_json", "manifest.emit"),
    ("overlap_ecc.manifest", "sha256_text", "manifest.sha256"),
)


class Tracer:
    """In-memory span recorder for one process; not thread-safe."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list = []
        self.counts: dict = {}

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    def records(self) -> list:
        """[(name, start, end, parent), ...] in start order."""
        return [(self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i])
                for i in range(len(self.start))]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.records(), "counts": self.counts}, fh)


def _rebind(old, new) -> list:
    """Point every overlap_ecc module attribute bound to ``old`` at ``new``."""
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "overlap_ecc" or mod_name.startswith("overlap_ecc.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                undo.append((mod, attr, old))
    return undo


def install(tracer: Tracer):
    """Wrap every traced overlap_ecc function; returns a callable that undoes it."""
    undo = []
    for mod_name, attr, span_name in TARGETS:
        mod = sys.modules.get(mod_name)
        if mod is None:
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(span_name, raw.__func__))
            else:
                new = tracer.wrap(span_name, raw)
            setattr(cls, meth, new)
            undo.append((cls, meth, raw))
        else:
            old = getattr(mod, attr)
            undo.extend(_rebind(old, tracer.wrap(span_name, old)))

    injection = sys.modules.get("overlap_ecc.injection")
    if injection is not None:
        pool_cls = injection.ProcessPoolExecutor

        class TracedPool(pool_cls):
            """Times the pool's whole life as waiting; counts the chunks it runs."""

            def __enter__(self):
                self._span = tracer.begin("injection.pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.finish(self._span)

            def map(self, fn, *iterables, **kwargs):
                jobs = list(iterables[0])
                tracer.count("kernel.pooled_chunks", len(jobs))
                return super().map(fn, jobs, *iterables[1:], **kwargs)

        injection.ProcessPoolExecutor = TracedPool
        undo.append((injection, "ProcessPoolExecutor", pool_cls))

    def uninstall():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)
    return uninstall


def summarize(records: list) -> dict:
    """Self time per layer and per span name, covered time, and counts.

    A span's self time is its duration minus its children's durations.
    ``covered_s`` sums the root spans, so wall time minus it is the part no
    span covers (interpreter start and exit, the benchmark's own loop).
    ``sweep_s`` lists the duration of each ``injection.sweep`` call in order.
    """
    child_time = [0.0] * len(records)
    for name, t0, t1, parent in records:
        if parent >= 0:
            child_time[parent] += t1 - t0
    self_by_name = {}
    covered = 0.0
    sweeps = []
    for i, (name, t0, t1, parent) in enumerate(records):
        dur = t1 - t0
        self_by_name[name] = self_by_name.get(name, 0.0) + dur - child_time[i]
        if parent < 0:
            covered += dur
        if name == "injection.sweep":
            sweeps.append(dur)
    self_by_layer = {}
    for name, s in self_by_name.items():
        layer = name.split(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + s
    return {"self_s": self_by_layer, "self_by_name": self_by_name, "covered_s": covered,
            "spans": len(records), "sweep_s": sweeps,
            "kernel_calls": sum(1 for r in records if r[0] == "kernel.sweep_chunk")}
