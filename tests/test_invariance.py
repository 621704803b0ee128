"""Reports do not depend on how a lattice is presented.

Several builders work in element or pair order: the meet and join tables
compose a row from the first two covers, the cover walk steps to the
highest-indexed element above, and the axiom phases and their fallback
scans go in row order.  The canonical report must not see any of that.
Each instance is rebuilt from its order pairs in a shuffled order, given
as covers or as the whole order (with or without the reflexive pairs), and
optionally written to a lattice file and read back; the report at every
element must stay byte for byte the same.  Permuting the elements, which
renames every witness, is not covered here.
"""
from __future__ import annotations

import json
import os
import random
import tempfile
from functools import lru_cache

from hypothesis import given
from hypothesis import strategies as st

from multlat import (analyze, attach_multiplication, build_lattice, fixture,
                     load_lattice_file)
from multlat.lattice import _bits
from multlat.rings import ideal_lattice_zn

from helpers import chain_square_mult, chain_square_times_two_chain

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


def _reports(ml, instance_id: str) -> list[str]:
    return [analyze(ml, element=e, instance_id=instance_id).to_json()
            for e in range(ml.n)]


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
