"""The opcode counter of ``tests/opcount.py`` is deterministic: the same
call on a fresh instance counts the same.  No count is pinned, so a change
to the package's code does not have to edit this test."""
from __future__ import annotations

import sys

from multlat import analyze, fixture

from opcount import count


def test_fig3_analysis_counts_the_same_opcodes_twice():
    analyze(fixture("fig3"))  # warm the process, as the runner does
    tracer = sys.gettrace()
    counts = [count(lambda ml=fixture("fig3"): analyze(ml)) for _ in range(2)]
    assert counts[0] == counts[1] > 0
    assert sys.gettrace() is tracer
