"""Golden digests of the canonical report bytes and of the solver outputs.

``canonical_bytes`` renders every ``ring --sweep 2..1000`` line
(``analyze_ring(n).to_json(indent=None)``) and the fig2 and fig3 reports as
``multlat analyze --fixture`` prints them, each followed by its instance's
lemma checks as ``_lemma_json`` writes them, joined by newlines.  ``GOLDEN_SHA256`` is the sha256 of those
bytes, computed by this function on the scan-based code that the cached,
join-irreducible and covering-pair deciders replaced; the deciders must
not move a byte.  Any change to a report byte, to the order of a list or to
a lemma detail changes the digest; a change that alters canonical output on
purpose recomputes it and says why.

``extended_bytes`` reaches what the ring sweep does not: the report (from
one walk over the instance's elements) and lemma checks at every element
of a few small instances, their nilpotency witness, annihilator map,
greedy colouring and, when reduced, the colouring by minimal primes; the
(omega, clique, chi, colouring) of seeded random graphs, with and without
a known clique bound; and one fixed search.
``EXTENDED_SHA256`` was computed by that function on the code that walked
each element's powers up to three times, rebuilt each colouring twice and
closed every sampled poset a second time.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import random

from multlat import (FIXTURE_NAMES, BeckReport, analyze, analyze_ring,
                     check_lemma_suite, chromatic_number, clique_number,
                     fixture, generate, ideal_lattice_zn, is_reduced,
                     mult_zero_divisor_graph, nilpotency_witness,
                     search_counterexamples)
from multlat.multiplication import annihilator_map
from multlat.report import _analyses
from multlat.solvers import DEFAULT_SOLVER_BUDGET, _solve

from helpers import greedy_coloring, make_graph, minimal_prime_coloring

GOLDEN_SHA256 = "ea224f7ee3c835468cc0cd97fbe5edfee6da5e694c963b6dcc091212d782771b"
EXTENDED_SHA256 = "dccc9a143313625df5bd9417ae000f6473f544098ed6198aa499fefed8b447f5"

EXTENDED_SPECS = ("fig2", "fig3", "boolean:4", "chain:5:trivial", "divisor:720",
                  "divisor:2310")


def _lemma_json(ml) -> str:
    """The lemma checks of ``ml`` as one JSON object, {"checks": [...]}: per
    check its id and status, its detail if not empty, and its witness as a
    list if it has one."""
    lines = []
    for check in check_lemma_suite(ml):
        line = {"id": check.check_id, "status": check.status}
        if check.detail:
            line["detail"] = check.detail
        if check.witness is not None:
            line["witness"] = list(check.witness)
        lines.append(line)
    return json.dumps({"checks": lines}, sort_keys=True, ensure_ascii=False)


def canonical_bytes() -> bytes:
    lines = []
    for n in range(2, 1001):
        lines += [analyze_ring(n).to_json(indent=None),
                  _lemma_json(ideal_lattice_zn(n))]
    for name in FIXTURE_NAMES:
        ml = fixture(name)
        report = analyze(ml, instance_id=f"fixture:{name}")
        lines += [report.to_json(), _lemma_json(ml)]
    return "\n".join(lines).encode("utf-8")


def test_canonical_bytes_match_the_golden_digest():
    assert hashlib.sha256(canonical_bytes()).hexdigest() == GOLDEN_SHA256


def _coloring(c) -> list:
    return [sorted(c.assignment.items()), c.color_count]


def extended_bytes() -> bytes:
    lines = []
    instances = [pair for spec in EXTENDED_SPECS for pair in generate(spec)]
    instances += generate("random:12x24", seed=5)
    for instance_id, ml in instances:
        lemmas = _lemma_json(ml)  # about the bottom at every element
        for report in _analyses(ml, range(ml.n), instance_id,
                                DEFAULT_SOLVER_BUDGET):
            lines += [report.to_json(indent=None), lemmas]
        facts = [nilpotency_witness(ml), annihilator_map(ml),
                 _coloring(greedy_coloring(mult_zero_divisor_graph(ml)))]
        if is_reduced(ml):
            facts.append(_coloring(minimal_prime_coloring(ml)))
        lines.append(json.dumps(facts))
    rng = random.Random(8)
    for _ in range(150):
        n, p = rng.randint(1, 30), rng.random()
        g = make_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                           if rng.random() < p])
        omega, clique = clique_number(g)
        chi, coloring = chromatic_number(g)
        _, bounded = _solve(g)
        lines.append(json.dumps([omega, clique.vertices, chi, _coloring(coloring),
                                 bounded[0], _coloring(bounded[1]),
                                 _coloring(greedy_coloring(g))]))
    result = search_counterexamples(["random:60x30", "fig3", "boolean:4",
                                     "divisor:360", "chain:4:trivial"], seed=7)
    lines.append(json.dumps([result.findings, result.skipped, result.analyzed],
                            sort_keys=True))
    return "\n".join(lines).encode("utf-8")


def test_extended_bytes_match_their_digest():
    assert hashlib.sha256(extended_bytes()).hexdigest() == EXTENDED_SHA256


def test_report_keys_are_its_compared_fields():
    """to_dict holds the 19 canonical fields and nothing else: not the wall
    time, which takes no part in ==."""
    report = analyze(fixture("fig3"), instance_id="fixture:fig3")
    keys = {f.name for f in dataclasses.fields(BeckReport) if f.compare}
    assert len(keys) == 19
    assert set(report.to_dict()) == keys == {
        "instance", "element", "element_count", "vertex_count", "edge_count",
        "chi", "omega", "clique", "coloring", "reduced", "nilpotent_witness",
        "modular", "n5_witness", "zero_distributive", "minimal_prime_elements",
        "counts", "verdict", "timed_out", "lemmas"}
