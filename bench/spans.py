"""Span tracing around the public functions of each multlat layer.

The tracer replaces each traced function by a wrapper, in its home module and
in every other multlat module that imported it by name, so calls made inside
the package are seen as well.  A span is recorded only while an operation is
open; spans are kept in memory and written out when the run ends.

A span is ``(name, start, end, parent, op, counts)``: ``parent`` is the
index of the enclosing span (the operation's own span for a top-level call),
``op`` the operation number and ``counts`` the work counts read off the
result, by metric name, or None.  A layer's self time is its span's duration
minus the durations of its direct children; calls nest on one thread, so
children never overlap.
"""
from __future__ import annotations

import functools
import json
import sys
import time

OP_SPAN = "op"

# span name -> (module, attribute, counts read off the result, or None)
LAYERS = {
    "lattice.build": ("multlat.lattice", "build_lattice",
                      lambda lat: {"lattice.elements_built": lat.n}),
    "multiplication.attach": ("multlat.multiplication", "attach_multiplication", None),
    "rings.zn": ("multlat.rings", "ideal_lattice_zn", None),
    "fileio.load": ("multlat.fileio", "load_lattice_file", None),
    "zdgraph.graph": ("multlat.zdgraph", "mult_zero_divisor_graph",
                      lambda g: {"zdgraph.vertices": g.n_vertices,
                                 "zdgraph.edges": g.n_edges}),
    "solvers.clique": ("multlat.solvers", "clique_number", None),
    "solvers.chromatic": ("multlat.solvers", "chromatic_number", None),
    "primes.structure": ("multlat.primes", "prime_structure",
                         lambda s: {"primes.capped": int(s.cap_exceeded)}),
    "primes.lemmas": ("multlat.primes", "check_lemma_suite", None),
    "report.analyze": ("multlat.report", "analyze", None),
}
# BeckReport.to_json is a method, so it is wrapped on the class.
TO_JSON_SPAN = "report.to_json"


class Tracer:
    """Collects spans for the operations run between begin() and end()."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: int | None = None

    def install(self) -> None:
        """Wrap every traced function; multlat must already be imported."""
        package = [m for name, m in sys.modules.items()
                   if name == "multlat" or name.startswith("multlat.")]
        for span, (module, attr, count) in LAYERS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(span, original, count)
            for mod in package:
                for key, value in vars(mod).items():
                    if value is original:
                        setattr(mod, key, wrapper)
        report = sys.modules["multlat.report"].BeckReport
        report.to_json = self._wrap(TO_JSON_SPAN, report.to_json, None)

    def _wrap(self, span: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            record = [span, 0.0, 0.0, self._stack[-1], self._op, None]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                record[5] = count(result)
            return result
        return traced

    def begin(self, op: int) -> None:
        self._stack = [len(self.spans)]
        self.spans.append([OP_SPAN, time.perf_counter(), 0.0, -1, op, None])
        self._op = op

    def end(self) -> None:
        self.spans[self._stack[0]][2] = time.perf_counter()
        self._op = None

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def check_nesting(spans: list[list]) -> list[str]:
    """Problems with the span tree: a child outside its parent's interval."""
    problems = []
    for k, (name, start, end, parent, op, _) in enumerate(spans):
        if parent < 0:
            continue
        pname, pstart, pend, _, pop, _ = spans[parent]
        if pop != op or start < pstart or end > pend or end < start:
            problems.append(f"span {k} ({name}) lies outside its parent {pname}")
    return problems
