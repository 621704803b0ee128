"""The benchmark's contract with the package.

``bench/spans.py`` wraps public functions by module and attribute name and
reads work counts off their results.  A renamed function or attribute would
otherwise show only when the traced benchmark crashes (``--smoke`` runs
untraced); these tests make it fail the suite instead.
"""
from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys

from multlat import BeckReport, fixture

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "bench_spans", os.path.join(BENCH, "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _per_layer_names() -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)["per_layer"]}


# A real call of every traced function whose result the tracer reads counts
# off, keyed by span name, and the counts that call must give.
SAMPLE_CALLS = {
    "lattice.build": (lambda f: f(["0", "a", "1"], [("0", "a"), ("a", "1")]),
                      {"lattice.elements_built": 3}),
    "zdgraph.graph": (lambda f: f(fixture("fig3")),
                      {"zdgraph.vertices": 12, "zdgraph.edges": 21}),
    "primes.structure": (lambda f: f(fixture("fig3")),
                         {"primes.capped": 0}),
}


def test_traced_functions_exist_and_counts_read_real_results():
    spans = _load_spans()
    metrics = _per_layer_names()
    for span, (module, attr, count) in spans.LAYERS.items():
        fn = getattr(importlib.import_module(module), attr)
        assert callable(fn), span
        if count is None:
            continue
        assert span in SAMPLE_CALLS, f"no sample call for counted span {span}"
        call, expected = SAMPLE_CALLS[span]
        counts = count(call(fn))
        assert set(counts) <= metrics, span
        assert counts == expected, span
    assert callable(BeckReport.to_json)


def test_bench_smoke_passes():
    run = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--smoke"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    assert json.loads(run.stdout.splitlines()[-1]) == {"smoke": "pass"}
