"""Multiplication axioms and the multiplicative notions built on them."""
from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multlat import (AxiomViolation, IncompleteTable, SelfCheckError,
                     annihilator_star, attach_multiplication, fig2_lattice,
                     fig3_lattice, fig3_table, fixture, is_reduced,
                     is_zero_distributive, maximal_annihilator_elements,
                     minimal_prime_elements, nilpotency_witness, prime_elements)
from multlat import multiplication
from multlat.multiplication import _power_walk, _verify_axioms
from multlat.rings import ideal_lattice_zn
from multlat.search import boolean_lattice, chain_lattice

from helpers import (axiom_holds_at, exhaustive_axiom_violation,
                     join_irreducible_axiom_violation, power,
                     random_closure_lattice, trivial_product)
from test_lattice import diamond_lattice, pentagon_lattice


def b3_meet():
    return attach_multiplication(boolean_lattice(3), "meet")


# ---------------------------------------------------------------------------
# Attach and axioms


def test_fig3_table_is_a_valid_multiplication():
    ml = fixture("fig3")
    assert ml.n == 14


def test_fig2_trivial_is_valid():
    # the top covers a single element, so it is join-irreducible
    ml = fixture("fig2")
    lat = ml.lattice
    assert ml.product[lat.names.index("a")][lat.names.index("b")] == lat.bottom
    assert ml.product[lat.names.index("a")][lat.top] == lat.names.index("a")


def test_meet_multiplication_needs_distributivity():
    with pytest.raises(AxiomViolation) as exc:
        attach_multiplication(diamond_lattice(), "meet")
    assert exc.value.axiom == "M3"
    assert len(exc.value.witness) == 3


def test_trivial_multiplication_needs_join_irreducible_top():
    with pytest.raises(AxiomViolation) as exc:
        attach_multiplication(diamond_lattice(), "trivial")
    assert exc.value.axiom == "M3"


def test_trivial_multiplication_on_one_element():
    """On chain:1 and boolean:0 the top is 0, which is not join-irreducible
    and has no lower cover, and the trivial product is admissible."""
    for lat in (chain_lattice(1), boolean_lattice(0)):
        assert lat.join_irreducibles == () and lat.lower_covers[lat.top] == ()
        assert attach_multiplication(lat, "trivial").product == ((0,),)


def test_trivial_product_is_its_definition():
    """x.1 = 1.x = x, and every other product is 0: the table, entry by
    entry, on the chains of 1 to 20 elements, fig2 and fig3."""
    lattices = [chain_lattice(k) for k in range(1, 21)]
    for lat in lattices + [fig2_lattice(), fig3_lattice()]:
        assert attach_multiplication(lat, "trivial").product == \
            trivial_product(lat), lat.names


def test_incomplete_tables_are_rejected():
    lat = chain_lattice(2)
    with pytest.raises(IncompleteTable):
        attach_multiplication(lat, "table", None)
    with pytest.raises(IncompleteTable):
        attach_multiplication(lat, "table", [["c0", "c0"]])
    with pytest.raises(IncompleteTable):
        attach_multiplication(lat, "table", [["c0"], ["c0", "c1"]])
    with pytest.raises(IncompleteTable):
        attach_multiplication(lat, "table", [["c0", "c0"], ["c0", "nope"]])
    # A JSON list where a name belongs gets the unknown-element message.
    with pytest.raises(IncompleteTable,
                       match=r"table entry \(1,1\) names unknown element \['c1'\]"):
        attach_multiplication(lat, "table", [["c0", "c0"], ["c0", ["c1"]]])


def test_non_commutative_table_is_rejected():
    lat = chain_lattice(2)
    ok = [["c0", "c0"], ["c0", "c1"]]
    assert attach_multiplication(lat, "table", ok).product[1][1] == 1
    with pytest.raises(AxiomViolation) as exc:
        attach_multiplication(lat, "table", [["c0", "c1"], ["c0", "c1"]])
    assert exc.value.axiom in ("M1", "M3", "M5")


def test_axiom_m5_violation():
    lat = chain_lattice(2)
    with pytest.raises(AxiomViolation) as exc:
        attach_multiplication(lat, "table", [["c0", "c0"], ["c0", "c0"]])
    assert exc.value.axiom == "M5"


def test_exhaustive_axiom_scan_on_fig3():
    ml = fixture("fig3")
    lat = ml.lattice
    n, P, join = lat.n, ml.product, lat.join
    for a in range(n):
        assert P[a][lat.top] == a
        assert P[a][lat.bottom] == lat.bottom
        for b in range(n):
            assert P[a][b] == P[b][a]
            assert lat.up[P[a][b]] >> lat.meet[a][b] & 1
            for c in range(n):
                assert P[a][P[b][c]] == P[P[a][b]][c]
                assert P[a][join[b][c]] == join[P[a][b]][P[a][c]]


# ---------------------------------------------------------------------------
# The join-irreducible check against the exhaustive oracle


def assert_matches_oracle(lat, product) -> str | None:
    """The fast check and the exhaustive one agree on accept or reject, each
    reported witness violates the axiom it is reported under, and the fast
    check names the same axiom and witness as the element-wise
    join-irreducible scan.  Returns the axiom the fast check reported, or
    None."""
    reference = exhaustive_axiom_violation(lat, product)
    scanned = join_irreducible_axiom_violation(lat, product)
    try:
        _verify_axioms(lat, product)
    except AxiomViolation as exc:
        witness = tuple(lat.names.index(w) for w in exc.witness)
        assert (exc.axiom, witness) == scanned
        assert reference is not None, f"{exc} but every triple satisfies M1-M5"
        assert not axiom_holds_at(lat, product, exc.axiom, witness)
        assert not axiom_holds_at(lat, product, *reference)
        irreducibles = set(lat.join_irreducibles)
        if exc.axiom == "M2":
            assert set(witness) <= irreducibles
        if exc.axiom == "M3" and len(witness) == 3:
            assert witness[2] in irreducibles
        return exc.axiom
    assert reference is None, f"accepted, but the oracle finds {reference}"
    assert scanned is None
    return None


def small_instances():
    """(lattice, candidate product) pairs: the fixtures, the diamond and the
    pentagon with both built-in kinds, and Id(Z_n) for n < 200."""
    out = [(fixture("fig2").lattice, fixture("fig2").product),
           (fixture("fig3").lattice, fixture("fig3").product)]
    for lat in (diamond_lattice(), pentagon_lattice()):
        out += [(lat, lat.meet), (lat, trivial_product(lat))]
    for n in range(2, 200):
        ml = ideal_lattice_zn(n)
        out.append((ml.lattice, ml.product))
    return out


def test_axiom_check_matches_oracle_on_fixed_instances():
    verdicts = [assert_matches_oracle(lat, p) for lat, p in small_instances()]
    assert verdicts[:2] == [None, None]  # fig2 trivial, fig3 table
    assert verdicts[2:6] == ["M3"] * 4  # diamond and pentagon, meet and trivial
    assert verdicts[6:] == [None] * 198


def test_axiom_check_matches_oracle_on_perturbed_tables():
    """Seeded perturbations of one entry, alone and with its mirror entry,
    so that some copies keep M1 and fail only M2 or M3."""
    rng = random.Random(3)
    seen = set()
    for lat, product in small_instances():
        n = lat.n
        for _ in range(4):
            i, j = rng.randrange(n), rng.randrange(n)
            v = rng.choice([x for x in range(n) if x != product[i][j]])
            one = [list(row) for row in product]
            one[i][j] = v
            mirrored = [list(row) for row in one]
            mirrored[j][i] = v
            for table in (one, mirrored):
                seen.add(assert_matches_oracle(lat, table))
    assert {"M1", "M2", "M3", "M4", "M5", None} <= seen


SMALL_LATTICES = [chain_lattice(k) for k in range(1, 9)] + [
    boolean_lattice(k) for k in range(4)] + [
    diamond_lattice(), pentagon_lattice(), fig2_lattice()] + [
    ideal_lattice_zn(n).lattice for n in (8, 12, 18, 20, 24, 30)] + [
    random_closure_lattice(random.Random(s), 3, 4) for s in range(10)]


@st.composite
def small_tables(draw):
    """A lattice of at most 8 elements and a table on it.  Most tables keep
    M1, M4, M5 and a.0 = 0 by construction, so that M2 and M3 decide."""
    lat = draw(st.sampled_from(SMALL_LATTICES))
    n, bot, top = lat.n, lat.bottom, lat.top
    shaped = draw(st.integers(0, 3)) > 0
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if shaped and b < a:
                table[a][b] = table[b][a]
            elif shaped and top in (a, b):
                table[a][b] = b if a == top else a
            elif shaped and bot in (a, b):
                table[a][b] = bot
            elif shaped:
                below = [x for x in range(n) if lat.down[lat.meet[a][b]] >> x & 1]
                table[a][b] = draw(st.sampled_from(below))
            else:
                table[a][b] = draw(st.integers(0, n - 1))
    return lat, table


@given(small_tables())
def test_axiom_check_matches_oracle_on_drawn_tables(drawn):
    assert_matches_oracle(*drawn)


def test_axiom_check_matches_oracle_on_every_chain_table():
    """All 12 tables on the 4-chain 0 < a < b < 1 that keep M1, M4 and M5;
    some are admissible multiplications other than the meet."""
    lat = chain_lattice(4)
    accepted = 0
    for aa in range(2):
        for ab in range(2):
            for bb in range(3):
                table = [[0, 0, 0, 0], [0, aa, ab, 1], [0, ab, bb, 2], [0, 1, 2, 3]]
                accepted += assert_matches_oracle(lat, table) is None
    assert 0 < accepted < 12


def m3_phases(lat, product) -> tuple[bool, bool]:
    """Whether the table passes phase (i) and phase (ii) of the cover-graph
    M3 check, restated from their definitions: (i) a.(b v j) = a.b v a.j for
    a, j join-irreducible and every b; (ii) every nonzero c outside J has
    its row equal to the elementwise join of the rows of its first two
    lower covers."""
    n, join = lat.n, lat.join
    irreducibles = lat.join_irreducibles
    phase_one = all(product[a][join[b][j]] == join[product[a][b]][product[a][j]]
                    for a in irreducibles for j in irreducibles for b in range(n))
    strict = [lat.down[c] & ~(1 << c) for c in range(n)]
    phase_two = True
    for c in range(n):
        covers = [d for d in range(n) if strict[c] >> d & 1
                  and not any(strict[c] >> e & 1 and lat.up[d] >> e & 1 and e != d
                              for e in range(n))]
        if len(covers) >= 2:
            d, e = covers[:2]
            phase_two &= all(product[c][x] == join[product[d][x]][product[e][x]]
                             for x in range(n))
    return phase_one, phase_two


def test_each_m3_phase_rejects_a_table_the_other_accepts():
    """The pentagon under its meet fails only phase (i), and boolean:3
    under its meet but with {1,2}.{1,2} = {1} fails only phase (ii), so
    neither phase can be dropped; both are rejected under M3 with the
    witness of the element-wise scan.  (The diamond under its meet fails
    both: the rows of two of its atoms join to 0 at the third.)"""
    pentagon, diamond = pentagon_lattice(), diamond_lattice()
    b3 = boolean_lattice(3)
    x = b3.names.index("{1,2}")
    squashed = [list(row) for row in b3.meet]
    squashed[x][x] = b3.names.index("{1}")
    cases = [(pentagon, pentagon.meet, (False, True)),
             (b3, squashed, (True, False)),
             (diamond, diamond.meet, (False, False))]
    for lat, product, phases in cases:
        assert m3_phases(lat, product) == phases
        assert assert_matches_oracle(lat, product) == "M3"


def test_a_row_above_an_uncertified_row_is_scanned():
    """Id(Z_12) under its meet but with (2).(3) = (3).(6) = 0: row (2) is
    still the join of the rows of its lower covers (4) and (6), but row (6)
    fails phase (i), so row (2) is not certified from it.  It is scanned,
    and named, as the element-wise scan names it."""
    lat = ideal_lattice_zn(12).lattice
    table = [list(row) for row in lat.meet]
    for x, y in (("(2)", "(3)"), ("(3)", "(6)")):
        i, j = lat.names.index(x), lat.names.index(y)
        table[i][j] = table[j][i] = lat.bottom
    with pytest.raises(AxiomViolation) as exc:
        _verify_axioms(lat, table)
    assert exc.value.witness == ("(2)", "(4)", "(3)")
    assert assert_matches_oracle(lat, table) == "M3"


def test_a_fast_test_its_scan_contradicts_is_a_self_check_error(monkeypatch):
    """A whole-row test or an M3 phase that rejects a table its scan then
    accepts raises SelfCheckError, not an AxiomViolation or nothing."""
    lat = chain_lattice(2)
    monkeypatch.setattr(multiplication, "_pair_axiom_scan", lambda lat, rows: None)
    with pytest.raises(SelfCheckError, match="pair scan accepts"):
        _verify_axioms(lat, [[0, 1], [0, 1]])  # breaks M1
    lat = diamond_lattice()
    monkeypatch.setattr(multiplication, "_m3_scan", lambda lat, rows, scan: None)
    with pytest.raises(SelfCheckError, match="M3 scan accepts"):
        _verify_axioms(lat, lat.meet)


def test_self_check_survives_python_optimize():
    """The same contradiction still raises under python -O, which strips
    assert statements."""
    code = (
        "from multlat import multiplication as m, SelfCheckError\n"
        "from multlat.search import chain_lattice\n"
        "m._pair_axiom_scan = lambda lat, rows: None\n"
        "try:\n"
        "    m._verify_axioms(chain_lattice(2), [[0, 1], [0, 1]])\n"
        "except SelfCheckError:\n"
        "    print('raised')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "raised\n"


# ---------------------------------------------------------------------------
# Powers, nilpotents, reducedness


def test_fig3_nilpotents():
    ml = fixture("fig3")
    lat = ml.lattice
    f = lat.names.index("f")
    assert power(ml, f, 2) == lat.bottom
    assert not is_reduced(ml)
    witness = nilpotency_witness(ml)
    assert (lat.names[witness[0]], witness[1]) == ("f", 2)
    a = lat.names.index("a")
    assert power(ml, a, 2) == f
    assert power(ml, a, 3) == lat.bottom


def test_meet_multiplication_is_reduced():
    assert is_reduced(b3_meet())
    assert is_reduced(attach_multiplication(chain_lattice(4), "meet"))


def test_fig2_trivial_is_not_reduced():
    ml = fixture("fig2")
    a = ml.lattice.names.index("a")
    assert ml.product[a][a] == ml.lattice.bottom
    assert not is_reduced(ml)


def test_power_sequence_stabilizes_within_n_steps():
    for ml in (fixture("fig3"), fixture("fig2"), b3_meet()):
        n = ml.n
        for a in range(n):
            assert power(ml, a, n) == power(ml, a, n + 1) or \
                power(ml, a, n) == ml.lattice.bottom
            assert _power_walk(ml.product, a) == power(ml, a, n)


# ---------------------------------------------------------------------------
# Annihilators


def test_annihilator_of_bottom_is_top():
    for ml in (b3_meet(), fixture("fig3")):
        assert annihilator_star(ml, ml.lattice.bottom) == ml.lattice.top


def test_b3_atom_annihilator():
    ml = b3_meet()
    lat = ml.lattice
    assert lat.names[annihilator_star(ml, lat.names.index("{1}"))] == "{2,3}"


def test_fig3_annihilator_of_square_zero_element_is_top():
    ml = fixture("fig3")
    assert annihilator_star(ml, ml.lattice.names.index("f")) == ml.lattice.top


def test_reduced_annihilator_matches_single_power_form():
    for ml in (b3_meet(), ideal_lattice_zn(30)):
        lat = ml.lattice
        for a in range(ml.n):
            direct = lat.join_all(x for x in range(ml.n)
                                  if ml.product[x][a] == lat.bottom)
            assert annihilator_star(ml, a) == direct


def test_reduced_zero_products_match_zero_meets():
    for ml in (b3_meet(), ideal_lattice_zn(30),
               attach_multiplication(chain_lattice(3), "meet")):
        assert is_reduced(ml)
        lat = ml.lattice
        for a in range(ml.n):
            for b in range(ml.n):
                assert (ml.product[a][b] == lat.bottom) == \
                    (lat.meet[a][b] == lat.bottom)


def test_reduced_implies_zero_distributive():
    for ml in (b3_meet(), ideal_lattice_zn(210)):
        assert is_reduced(ml)
        assert is_zero_distributive(ml.lattice)


# ---------------------------------------------------------------------------
# Prime elements and maximal annihilators


def test_two_chain_primes():
    ml = attach_multiplication(chain_lattice(2), "meet")
    assert prime_elements(ml) == [0]
    assert minimal_prime_elements(ml) == [0]


def test_b3_minimal_primes_are_coatoms():
    ml = b3_meet()
    lat = ml.lattice
    names = {lat.names[p] for p in minimal_prime_elements(ml)}
    assert names == {"{1,2}", "{1,3}", "{2,3}"}
    assert sorted(minimal_prime_elements(ml)) == minimal_prime_elements(ml)


def test_z30_minimal_primes():
    zn = ideal_lattice_zn(30)
    names = [zn.lattice.names[p] for p in minimal_prime_elements(zn)]
    assert names == ["(2)", "(3)", "(5)"]


def test_top_is_never_prime():
    ml = b3_meet()
    assert ml.lattice.top not in prime_elements(ml)


def test_fig3_prime_elements():
    ml = fixture("fig3")
    assert [ml.lattice.names[p] for p in prime_elements(ml)] == ["t"]


def test_b3_maximal_annihilators_are_coatoms():
    ml = b3_meet()
    names = {ml.lattice.names[m] for m in maximal_annihilator_elements(ml)}
    assert names == {"{1,2}", "{1,3}", "{2,3}"}


def test_two_chain_maximal_annihilators():
    # The annihilator of the top is the bottom, so the candidate set is {0}
    # and its maximal member is 0 itself.
    ml = attach_multiplication(chain_lattice(2), "meet")
    assert maximal_annihilator_elements(ml) == [ml.lattice.bottom]


def test_z30_maximal_annihilators_equal_minimal_primes():
    ml = ideal_lattice_zn(30)
    assert maximal_annihilator_elements(ml) == minimal_prime_elements(ml)


@given(st.integers(2, 120))
def test_reduced_ring_annihilator_properties(n):
    ml = ideal_lattice_zn(n)
    lat = ml.lattice
    if not is_reduced(ml):
        return
    for m in maximal_annihilator_elements(ml):
        assert m in prime_elements(ml)


def test_fig3_table_round_trip():
    table = fig3_table()
    lat = fig3_lattice()
    ml = attach_multiplication(lat, "table", table)
    for i in range(lat.n):
        for j in range(lat.n):
            assert lat.names[ml.product[i][j]] == table[i][j]


def test_unknown_mult_kind():
    with pytest.raises(ValueError):
        attach_multiplication(fig2_lattice(), "other")
