"""One workload process: set up, run timed rounds, record every output.

Started by run.py as ``python3 bench/child.py INPUTS OUT ROUNDS TRACE``.
INPUTS is the JSON file of generated inputs; the seed never reaches this
process.  A round runs every item once.  Each operation is timed on its own;
its output is serialized after the clock stops and written to OUT as one
JSON line, so run.py can check it.  The last line of OUT holds the set-up
end time and the peak resident memory.  ROUNDS = 0 ends the process after
set-up, which is how run.py takes extra set-up samples.
"""
from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_multlat():
    """Import multlat from the checkout's own source tree, never elsewhere."""
    sys.path.insert(0, SRC)
    import multlat
    if not os.path.abspath(multlat.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"multlat was imported from {multlat.__file__}, "
                         f"not from {SRC}")
    return multlat


def peak_rss_kb() -> int:
    """Peak resident memory of this process image, in KiB.

    VmHWM is reset by exec; ru_maxrss is not, and would report the parent's
    peak when the parent was the larger of the two.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise SystemExit("no VmHWM line in /proc/self/status")


def graph_from_edges(M, n: int, edges: list[list[int]], lattice=None):
    """A bare ZdGraph on positions 0..n-1; its lattice only supplies names."""
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return M.ZdGraph(lattice or M.chain_lattice(n), tuple(range(n)),
                     tuple(adj), ("bench", None))


def prepare(M, workload: str, items: list):
    """Zero-argument operations and the serializer of their outputs."""
    if workload == "ring-sweep":
        ops = [lambda n=n: M.analyze_ring(n).to_json(indent=None) for n in items]
        return ops, lambda out: out

    if workload == "large-analyze":
        ops = []
        for spec in items:
            [(iid, ml)] = M.generate(spec)
            ops.append(lambda ml=ml, iid=iid:
                       M.analyze(ml, instance_id=iid).to_json())
        return ops, lambda out: out

    if workload == "validate-wide":
        def load(path):
            try:
                return M.load_lattice_file(path)
            except M.LatticeError as exc:
                return exc

        def serialize(out):
            if isinstance(out, Exception):
                return {"error": type(out).__name__,
                        "axiom": getattr(out, "axiom", None),
                        "witness": list(getattr(out, "witness", ()))}
            lat, ml = out
            return {"names": lat.names, "meet": lat.meet, "join": lat.join,
                    "product": None if ml is None else ml.product}
        return [lambda p=p: load(p) for p in items], serialize

    if workload == "solver-graphs":
        def solve(g):
            omega, clique = M.clique_number(g)
            chi, coloring = M.chromatic_number(g)
            return omega, clique, chi, coloring

        def serialize(out):
            omega, clique, chi, coloring = out
            return {"omega": omega, "clique": clique.vertices, "chi": chi,
                    "coloring": sorted(coloring.assignment.items())}
        chains = {n: M.chain_lattice(n) for n in {g["n"] for g in items}}
        graphs = [graph_from_edges(M, g["n"], g["edges"], chains[g["n"]])
                  for g in items]
        return [lambda g=g: solve(g) for g in graphs], serialize

    raise SystemExit(f"unknown workload {workload!r}")


def main(argv: list[str]) -> int:
    inputs_path, out_path, rounds, trace = argv
    M = import_multlat()
    tracer = None
    if trace == "1":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    ops, serialize = prepare(M, inputs["workload"], inputs["items"])

    ready = time.monotonic()
    with open(out_path, "w", encoding="utf-8") as out:
        for round_ in range(int(rounds)):
            for item, op in enumerate(ops):
                if tracer is not None:
                    tracer.begin(round_ * len(ops) + item)
                start = time.perf_counter()
                result = op()
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.end()
                out.write(json.dumps({"item": item, "s": elapsed,
                                      "out": serialize(result)}) + "\n")
        out.write(json.dumps({"ready": ready,
                              "peak_rss_kb": peak_rss_kb()}) + "\n")
    if tracer is not None:
        tracer.write(out_path + ".spans")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
