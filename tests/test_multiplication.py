"""Multiplication axioms and the multiplicative notions built on them."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multlat import (AxiomViolation, IncompleteTable, annihilator_star,
                     attach_multiplication, fig2_lattice,
                     fig3_lattice, fig3_table, fixture, is_nilpotent,
                     is_prime_element, is_reduced, is_zero_distributive,
                     maximal_annihilator_elements, minimal_prime_elements,
                     nilpotency_witness, power, prime_elements, residual)
from multlat.multiplication import stable_power
from multlat.rings import ideal_lattice_zn
from multlat.search import boolean_lattice, chain_lattice

from test_lattice import diamond_lattice


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
    assert ml.prod(lat.index("a"), lat.index("b")) == lat.bottom
    assert ml.prod(lat.index("a"), lat.top) == lat.index("a")


def test_meet_multiplication_needs_distributivity():
    with pytest.raises(AxiomViolation) as exc:
        attach_multiplication(diamond_lattice(), "meet")
    assert exc.value.axiom == "M3"
    assert len(exc.value.witness) == 3


def test_trivial_multiplication_needs_join_irreducible_top():
    with pytest.raises(AxiomViolation) as exc:
        attach_multiplication(diamond_lattice(), "trivial")
    assert exc.value.axiom == "M3"


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
    assert attach_multiplication(lat, "table", ok).prod(1, 1) == 1
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
    n = lat.n
    for a in range(n):
        assert ml.prod(a, lat.top) == a
        assert ml.prod(a, lat.bottom) == lat.bottom
        for b in range(n):
            assert ml.prod(a, b) == ml.prod(b, a)
            assert lat.leq(ml.prod(a, b), lat.meet_of(a, b))
            for c in range(n):
                assert ml.prod(a, ml.prod(b, c)) == ml.prod(ml.prod(a, b), c)
                assert ml.prod(a, lat.join_of(b, c)) == \
                    lat.join_of(ml.prod(a, b), ml.prod(a, c))


# ---------------------------------------------------------------------------
# Powers, nilpotents, reducedness


def test_fig3_nilpotents():
    ml = fixture("fig3")
    lat = ml.lattice
    f = lat.index("f")
    assert power(ml, f, 2) == lat.bottom
    assert is_nilpotent(ml, f)
    assert not is_reduced(ml)
    witness = nilpotency_witness(ml)
    assert (lat.names[witness[0]], witness[1]) == ("f", 2)
    a = lat.index("a")
    assert power(ml, a, 2) == f
    assert power(ml, a, 3) == lat.bottom


def test_meet_multiplication_is_reduced():
    assert is_reduced(b3_meet())
    assert is_reduced(attach_multiplication(chain_lattice(4), "meet"))


def test_fig2_trivial_is_not_reduced():
    ml = fixture("fig2")
    a = ml.lattice.index("a")
    assert ml.prod(a, a) == ml.lattice.bottom
    assert not is_reduced(ml)


def test_power_validates_exponent():
    ml = b3_meet()
    with pytest.raises(ValueError):
        power(ml, 0, 0)


def test_power_sequence_stabilizes_within_n_steps():
    for ml in (fixture("fig3"), fixture("fig2"), b3_meet()):
        n = ml.n
        for a in range(n):
            assert power(ml, a, n) == power(ml, a, n + 1) or \
                power(ml, a, n) == ml.lattice.bottom
            assert stable_power(ml, a) == power(ml, a, n)


# ---------------------------------------------------------------------------
# Annihilators and residuals


def test_annihilator_of_bottom_is_top():
    for ml in (b3_meet(), fixture("fig3")):
        assert annihilator_star(ml, ml.lattice.bottom) == ml.lattice.top


def test_b3_atom_annihilator():
    ml = b3_meet()
    lat = ml.lattice
    assert lat.names[annihilator_star(ml, lat.index("{1}"))] == "{2,3}"


def test_fig3_annihilator_of_square_zero_element_is_top():
    ml = fixture("fig3")
    assert annihilator_star(ml, ml.lattice.index("f")) == ml.lattice.top


def test_reduced_annihilator_matches_single_power_form():
    for ml in (b3_meet(), ideal_lattice_zn(30).embedded):
        lat = ml.lattice
        for a in range(ml.n):
            direct = lat.join_all(x for x in range(ml.n)
                                  if ml.prod(x, a) == lat.bottom)
            assert annihilator_star(ml, a) == direct


def test_residual_identities():
    ml = b3_meet()
    lat = ml.lattice
    for a in range(ml.n):
        assert residual(ml, a, lat.top) == a
        assert residual(ml, lat.top, a) == lat.top
        for b in range(ml.n):
            assert lat.leq(a, residual(ml, a, b))


def test_residual_b3_example():
    ml = b3_meet()
    lat = ml.lattice
    r = residual(ml, lat.index("{1}"), lat.index("{1,2}"))
    assert lat.names[r] == "{1,3}"


def test_residual_adjunction_exhaustive():
    for ml in (b3_meet(), fixture("fig3"), ideal_lattice_zn(12).embedded):
        lat = ml.lattice
        for a in range(ml.n):
            for b in range(ml.n):
                r = residual(ml, a, b)
                for x in range(ml.n):
                    assert lat.leq(ml.prod(x, b), a) == lat.leq(x, r)


def test_reduced_zero_products_match_zero_meets():
    for ml in (b3_meet(), ideal_lattice_zn(30).embedded,
               attach_multiplication(chain_lattice(3), "meet")):
        assert is_reduced(ml)
        lat = ml.lattice
        for a in range(ml.n):
            for b in range(ml.n):
                assert (ml.prod(a, b) == lat.bottom) == \
                    (lat.meet_of(a, b) == lat.bottom)


def test_reduced_implies_zero_distributive():
    for ml in (b3_meet(), ideal_lattice_zn(210).embedded):
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
    names = [zn.lattice.names[p] for p in minimal_prime_elements(zn.embedded)]
    assert names == ["(2)", "(3)", "(5)"]


def test_top_is_never_prime():
    ml = b3_meet()
    assert not is_prime_element(ml, ml.lattice.top)


def test_fig3_prime_elements():
    ml = fixture("fig3")
    assert [ml.names[p] for p in prime_elements(ml)] == ["t"]


def test_b3_maximal_annihilators_are_coatoms():
    ml = b3_meet()
    names = {ml.names[m] for m in maximal_annihilator_elements(ml)}
    assert names == {"{1,2}", "{1,3}", "{2,3}"}


def test_two_chain_maximal_annihilators():
    # The annihilator of the top is the bottom, so the candidate set is {0}
    # and its maximal member is 0 itself.
    ml = attach_multiplication(chain_lattice(2), "meet")
    assert maximal_annihilator_elements(ml) == [ml.lattice.bottom]


def test_z30_maximal_annihilators_equal_minimal_primes():
    ml = ideal_lattice_zn(30).embedded
    assert maximal_annihilator_elements(ml) == minimal_prime_elements(ml)


@given(st.integers(2, 120))
def test_reduced_ring_annihilator_properties(n):
    ml = ideal_lattice_zn(n).embedded
    lat = ml.lattice
    if not is_reduced(ml):
        return
    for m in maximal_annihilator_elements(ml):
        assert is_prime_element(ml, m)


def test_fig3_table_round_trip():
    table = fig3_table()
    lat = fig3_lattice()
    ml = attach_multiplication(lat, "table", table)
    for i in range(lat.n):
        for j in range(lat.n):
            assert lat.names[ml.prod(i, j)] == table[i][j]


def test_unknown_mult_kind():
    with pytest.raises(ValueError):
        attach_multiplication(fig2_lattice(), "other")
