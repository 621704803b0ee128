"""Golden digest of the canonical report bytes.

``canonical_bytes`` renders every ``ring --sweep 2..1000`` line
(``analyze_ring(n).to_json(indent=None)``) and the fig2 and fig3 reports as
``multlat analyze --fixture`` prints them, each followed by its full lemma
report, joined by newlines.  ``GOLDEN_SHA256`` is the sha256 of those
bytes, computed by this function on the scan-based code that the cached,
join-irreducible and covering-pair deciders replaced; the deciders must
not move a byte.  Any change to a report byte, to the order of a list or to
a lemma detail changes the digest; a change that alters canonical output on
purpose recomputes it and says why.
"""
from __future__ import annotations

import hashlib
import json

from multlat import FIXTURE_NAMES, analyze, analyze_ring, fixture

GOLDEN_SHA256 = "ea224f7ee3c835468cc0cd97fbe5edfee6da5e694c963b6dcc091212d782771b"


def _lemma_json(report) -> str:
    return json.dumps(report.lemma_report.to_dict(), sort_keys=True,
                      ensure_ascii=False)


def canonical_bytes() -> bytes:
    lines = []
    for n in range(2, 1001):
        report = analyze_ring(n)
        lines += [report.to_json(indent=None), _lemma_json(report)]
    for name in FIXTURE_NAMES:
        report = analyze(fixture(name), instance_id=f"fixture:{name}")
        lines += [report.to_json(), _lemma_json(report)]
    return "\n".join(lines).encode("utf-8")


def test_canonical_bytes_match_the_golden_digest():
    assert hashlib.sha256(canonical_bytes()).hexdigest() == GOLDEN_SHA256
