"""Tracing from outside the library: wrapped functions record spans in memory.

Each public function of a `yblattice` module is wrapped at every binding
the library looks it up through (its own module, every module that
imported it by name, and the package), so a call made from anywhere in
the library opens a span.  A span holds a name, a start, an end and its
parent span.  Spans are kept in flat arrays, written out when the run
ends, and every per-layer number is derived from them.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import wraps
from time import perf_counter
from types import FunctionType, ModuleType

LAYERS = ("exactnum", "ybmaps", "quadgraph", "reduction", "lax", "chains", "verify")

# methods wrapped besides the module-level functions: (module, class, attribute, span name)
METHODS = (
    ("reduction", "SquareSolution", "solve", "reduction.SquareSolution.solve"),
    ("chains", "PathState", "__post_init__", "chains.PathState.init"),
)

ROOT = "bench.pass"


@dataclass
class Spans:
    names: list
    name_of: array
    parent: array
    start: array
    end: array


class Recorder:
    """Span store for one single-threaded run; spans nest by a call stack."""

    def __init__(self) -> None:
        self.spans = Spans([], array("i"), array("i"), array("d"), array("d"))
        self._ids: dict = {}
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.spans.names)
            self.spans.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """`fn` recording one span per call, kept short to keep the cost per call low."""
        name_id = self._name_id(name)
        s, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            i = len(s.start)
            s.name_of.append(name_id)
            s.parent.append(stack[-1])
            s.end.append(0.0)
            stack.append(i)
            s.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                s.end[i] = perf_counter()
                stack.pop()

        return traced


def install(yb, rec: Recorder) -> list:
    """Wrap every traced function and method; returns the undo list for `uninstall`."""
    modules = [yb] + [
        m for m in vars(yb).values()
        if isinstance(m, ModuleType) and m.__name__.startswith(yb.__name__ + ".")
    ]
    undo = []
    for layer in LAYERS:
        module = getattr(yb, layer)
        for attr, fn in list(vars(module).items()):
            if (
                attr.startswith("_")
                or not isinstance(fn, FunctionType)
                or fn.__module__ != module.__name__
            ):
                continue
            traced = rec.wrap(fn, f"{layer}.{attr}")
            for owner in modules:
                for bound_as, value in list(vars(owner).items()):
                    if value is fn:
                        undo.append((owner, bound_as, fn))
                        setattr(owner, bound_as, traced)
    for layer, cls_name, attr, name in METHODS:
        cls = getattr(getattr(yb, layer), cls_name, None)
        raw = vars(cls).get(attr) if cls is not None else None
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            traced = classmethod(rec.wrap(raw.__func__, name))
        else:
            traced = rec.wrap(raw, name)
        undo.append((cls, attr, raw))
        setattr(cls, attr, traced)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def write(spans: Spans, path) -> None:
    """One JSON header line (names, count), then the four arrays in binary."""
    header = {"names": spans.names, "count": len(spans.start)}
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode() + b"\n")
        for column in (spans.name_of, spans.parent, spans.start, spans.end):
            column.tofile(f)


def load(path) -> Spans:
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        n = header["count"]
        columns = []
        for code in "iidd":
            column = array(code)
            column.fromfile(f, n)
            columns.append(column)
    return Spans(header["names"], *columns)


@dataclass
class Layers:
    """Per-name call counts and self times, plus the total they add up to."""

    calls: Counter
    self_s: dict
    root_s: float


def derive(spans: Spans) -> Layers:
    """Self time is a span's duration minus the durations of its child spans.

    Children of one span run one after another inside it, so their
    durations sum to the part of the parent they cover.  Summed over all
    spans, self times equal the total duration of the root spans.
    """
    name_of, parent, start, end = spans.name_of, spans.parent, spans.start, spans.end
    n = len(start)
    covered = array("d", bytes(8 * n))
    root_s = 0.0
    for i in range(n):
        duration = end[i] - start[i]
        p = parent[i]
        if p >= 0:
            covered[p] += duration
        else:
            root_s += duration
    calls: Counter = Counter()
    self_s: dict = defaultdict(float)
    for i in range(n):
        name = spans.names[name_of[i]]
        calls[name] += 1
        self_s[name] += end[i] - start[i] - covered[i]
    return Layers(calls, self_s, root_s)
