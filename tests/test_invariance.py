"""Reports do not depend on how a lattice is presented.

Several builders work in element or pair order: the meet and join tables
compose a row from the first two covers, the cover walk steps to the
highest-indexed element above, and the axiom phases and their fallback
scans go in row order.  The canonical report must not see any of that.
Each instance is rebuilt from its order pairs in a shuffled order, given
as covers or as the whole order (with or without the reflexive pairs), and
optionally written to a lattice file and read back; the report at every
element must stay byte for byte the same.  Permuting the elements, which
can change every witness, is checked field by field: each instance is
rebuilt with its elements in seeded shuffled index orders, names kept, and
at every element the fields that name no element must stay the same, the
minimal prime elements the same set, and each witness must meet its
definition in the permuted lattice.  Each instance's reports come from one
walk over its elements, which computes the facts about its bottom once.
"""
from __future__ import annotations

import json
import os
import random
import tempfile
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multlat import (attach_multiplication, build_lattice, fixture,
                     load_lattice_file, mult_zero_divisor_graph)
from multlat.lattice import _bits
from multlat.report import _analyses
from multlat.rings import ideal_lattice_zn
from multlat.solvers import DEFAULT_SOLVER_BUDGET

from helpers import (assert_is_n5, chain_square_mult,
                     chain_square_times_two_chain, power)

# A fixed sample of Id(Z_n), n < 200: primes, prime powers, squarefree and
# mixed moduli, up to the 18 ideals of Z_180.
ZN_SAMPLE = (2, 12, 30, 36, 60, 64, 72, 105, 120, 180, 198)

INSTANCES = {
    "fig2": lambda: fixture("fig2"),
    "fig3": lambda: fixture("fig3"),
    "chain_square": chain_square_mult,
    "chain_square_x_2": chain_square_times_two_chain,
    **{f"ring:{n}": lambda n=n: ideal_lattice_zn(n) for n in ZN_SAMPLE},
}


#: The report fields that name no element, or only the element analysed,
#: which keeps its name under a permutation.
UNNAMED_FIELDS = ("element", "element_count", "vertex_count", "edge_count",
                  "chi", "omega", "reduced", "modular", "zero_distributive",
                  "counts", "verdict", "timed_out", "lemmas")


def _reports(ml, instance_id: str) -> list[str]:
    """The report at every element of ``ml`` as JSON, from one walk."""
    return [report.to_json() for report in
            _analyses(ml, range(ml.n), instance_id, DEFAULT_SOLVER_BUDGET)]


@lru_cache(maxsize=None)
def _original(instance_id: str):
    """The instance, its presentation as plain data, and its reports."""
    ml = INSTANCES[instance_id]()
    lat = ml.lattice
    names = lat.names
    covers = [(names[x], names[y]) for y in range(lat.n)
              for x in lat.lower_covers[y]]
    order = [(names[x], names[y]) for x in range(lat.n)
             for y in _bits(lat.up[x]) if x != y]
    table = [[names[p] for p in row] for row in ml.product]
    return names, covers, order, table, _reports(ml, instance_id)


@given(instance_id=st.sampled_from(sorted(INSTANCES)),
       seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["covers", "leq", "leq+reflexive"]),
       through_file=st.booleans())
def test_reports_do_not_depend_on_the_presentation(instance_id, seed, kind,
                                                   through_file):
    names, covers, order, table, expected = _original(instance_id)
    pairs = list(covers if kind == "covers" else order)
    if kind == "leq+reflexive":
        pairs += [(x, x) for x in names]
    random.Random(seed).shuffle(pairs)
    order_kind = "covers" if kind == "covers" else "leq"
    if through_file:
        doc = {"elements": list(names),
               "order": {"kind": order_kind, "pairs": [list(p) for p in pairs]},
               "multiplication": {"kind": "table", "table": table}}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "lattice.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, ensure_ascii=False)
            _, ml = load_lattice_file(path)
    else:
        lat = build_lattice(names, pairs, order_kind)
        ml = attach_multiplication(lat, "table", table)
    assert _reports(ml, instance_id) == expected


def _permuted(instance_id: str, rng: random.Random):
    """The instance rebuilt with its elements in a shuffled index order,
    each keeping its name."""
    names, covers, _, table, _ = _original(instance_id)
    shuffled = list(names)
    rng.shuffle(shuffled)
    at = {nm: k for k, nm in enumerate(names)}
    lat = build_lattice(shuffled, covers, "covers")
    return attach_multiplication(
        lat, "table", [[table[at[x]][at[y]] for y in shuffled] for x in shuffled])


def _assert_witnesses_hold(ml, report) -> None:
    """Each witness of ``report`` meets its definition in ``ml``."""
    lat = ml.lattice
    at = lat.names.index
    graph = mult_zero_divisor_graph(ml, at(report.element))
    position = {v: k for k, v in enumerate(graph.vertices)}
    if report.clique is not None:
        clique = [position[at(nm)] for nm in report.clique]
        assert len(set(clique)) == report.omega
        assert all(graph.adj[a] >> b & 1 for a, b in combinations(clique, 2))
    if report.coloring is not None:
        colour = {at(nm): c for nm, c in report.coloring.items()}
        assert set(colour) == set(graph.vertices)
        assert len(set(colour.values())) == report.chi
        assert all(colour[graph.vertices[a]] != colour[graph.vertices[b]]
                   for a, b in graph.edges())
    if report.nilpotent_witness is not None:
        a = at(report.nilpotent_witness["element"])
        k = report.nilpotent_witness["exponent"]
        assert a != lat.bottom and power(ml, a, k) == lat.bottom
    if report.n5_witness is not None:
        assert_is_n5(lat, tuple([at(report.n5_witness[key]) for key in
                                 ("bottom", "low", "high", "side", "top")]))


@pytest.mark.parametrize("instance_id", sorted(INSTANCES))
def test_reports_do_not_depend_on_the_element_order(instance_id):
    """In 20 seeded index orders, every report keeps its unnamed fields and
    its minimal prime elements, and its witnesses still hold."""
    expected = {}
    for text in _original(instance_id)[-1]:
        report = json.loads(text)
        expected[report["element"]] = report
    rng = random.Random(instance_id)
    for _ in range(20):
        ml = _permuted(instance_id, rng)
        for report in _analyses(ml, range(ml.n), instance_id,
                                DEFAULT_SOLVER_BUDGET):
            original = expected[report.element]
            for key in UNNAMED_FIELDS:
                assert getattr(report, key) == original[key], (instance_id, key)
            assert (set(report.minimal_prime_elements)
                    == set(original["minimal_prime_elements"]))
            _assert_witnesses_hold(ml, report)
