"""Opcode counts: the bytecode instructions of ``src/multlat`` that one call
runs, a deterministic measure of its work beside wall time.

Run from the repository root:

    python tests/opcount.py

For each of fig3, boolean:8, chain:256 and divisor:720720 the runner
analyses one instance untraced, to warm the process, and then prints the
opcode counts of three ``generate`` calls of the spec, which build the
instance, and of one ``analyze`` on each of three fresh instances.  The
warm-up matters: the first call in a process also builds the cached masks
of ``lattice._transpose_rounds``, which a cold count includes.

``count(call)`` runs ``call()`` under ``sys.settrace`` with
``frame.f_trace_opcodes`` set, and counts the ``opcode`` events in frames
whose code lives in ``src/multlat``, the frame filter of
``tests/linecov.py``.  It puts back the tracer it found, so a count taken
under ``tests/linecov.py`` leaves that runner's tracing of later calls as
it was.  An opcode weighs the same whether it is a local load or an ``&``
of two 1024-bit ints, so work moved into C, or into fewer but wider int
operations, shows less here than in wall time; and the trace makes a call
many times slower, so time it in a separate run.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "multlat"

#: The family specs that ``main`` counts.
SPECS = ("fig3", "boolean:8", "chain:256", "divisor:720720")


def count(call: Callable[[], object]) -> int:
    """The number of opcodes that frames of ``src/multlat`` run in
    ``call()``."""
    prefix = str(PACKAGE) + os.sep
    total = 0

    def local(frame, event, arg):
        nonlocal total
        if event == "opcode":
            total += 1
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    return total


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from multlat import analyze, generate

    def analysis(spec: str) -> Callable[[], object]:
        [(instance_id, ml)] = generate(spec)  # a fresh instance
        return lambda: analyze(ml, instance_id=instance_id)

    for spec in SPECS:
        analysis(spec)()
        builds = [count(lambda: generate(spec)) for _ in range(3)]
        analyses = [count(analysis(spec)) for _ in range(3)]
        print(f"{spec}: generate {' '.join(f'{c:,}' for c in builds)}; "
              f"analyze {' '.join(f'{c:,}' for c in analyses)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
