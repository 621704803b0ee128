"""Closed-form prime semi-ideals and ideals, and the lemma suite."""
from __future__ import annotations

import random

from hypothesis import given
from hypothesis import strategies as st

from multlat import (analyze, attach_multiplication, check_lemma_suite,
                     fig2_lattice, fig3_lattice, fixture, is_distributive,
                     is_reduced,
                     minimal_prime_elements, minimal_prime_ideals,
                     minimal_prime_semi_ideals, mult_zero_divisor_graph,
                     prime_structure)
from multlat.primes import prime_semi_ideals
from multlat.rings import ideal_lattice_zn, is_squarefree
from multlat.search import (boolean_lattice, chain_lattice, generate,
                            random_poset_down_set_lattice)

from helpers import oracle_prime_masks, random_closure_lattice

# Seed base of the random lattices in the acceptance battery.
RANDOM_SUITE_BASE_SEED = 20_240_817


# ---------------------------------------------------------------------------
# Enumeration


def test_b2_minimal_prime_semi_ideals():
    lat = boolean_lattice(2)
    mpsi = minimal_prime_semi_ideals(lat)
    assert [d.names for d in mpsi] == [("{}", "{1}"), ("{}", "{2}")]
    assert all(d.is_minimal and d.is_prime for d in mpsi)


def test_chain_minimal_prime_semi_ideal_is_bottom():
    lat = chain_lattice(4)
    mpsi = minimal_prime_semi_ideals(lat)
    assert len(mpsi) == 1
    assert mpsi[0].members == (lat.bottom,)


def test_fig2_minimal_prime_semi_ideals():
    lat = fig2_lattice()
    mpsi = minimal_prime_semi_ideals(lat)
    assert [set(d.names) for d in mpsi] == [{"0", "a", "b"}, {"0", "c"}]


def test_empty_and_whole_are_not_prime():
    lat = boolean_lattice(2)
    primes = prime_semi_ideals(lat)
    for d in primes:
        assert not d.is_empty and d.is_proper


def test_minimal_prime_ideals_b3():
    lat = boolean_lattice(3)
    mpi = minimal_prime_ideals(lat)
    assert len(mpi) == 3
    for d in mpi:
        assert d.is_ideal and d.is_prime
    # each is the principal down-set of a coatom
    expected = {lat.down[c] for c in lat.coatoms()}
    assert {d.mask for d in mpi} == expected
    assert ("{}", "{1}", "{2}", "{1,2}") in {d.names for d in mpi}


def test_minimal_prime_ideals_two_chain():
    lat = chain_lattice(2)
    mpi = minimal_prime_ideals(lat)
    assert len(mpi) == 1 and mpi[0].members == (lat.bottom,)


def test_z30_minimal_prime_ideal_count():
    lat = ideal_lattice_zn(30).lattice
    assert len(minimal_prime_ideals(lat)) == 3
    assert len(minimal_prime_semi_ideals(lat)) == 3


def test_prime_semi_ideals_are_filter_complements():
    """Independent characterization: in a finite bounded lattice the prime
    semi-ideals are exactly the complements of principal proper filters, so
    the minimal ones are the complements of atom filters."""
    for lat in (boolean_lattice(3), fig2_lattice(), chain_lattice(5),
                ideal_lattice_zn(60).lattice):
        primes = prime_semi_ideals(lat)
        expected = {((1 << lat.n) - 1) & ~lat.up[m]
                    for m in range(lat.n) if m != lat.bottom}
        assert {d.mask for d in primes} == expected
        minimal = minimal_prime_semi_ideals(lat)
        atom_complements = {((1 << lat.n) - 1) & ~lat.up[a] for a in lat.atoms()}
        assert {d.mask for d in minimal} == atom_complements
        for d in minimal:
            assert d.complement().is_filter


def test_minimal_prime_semi_ideal_count_equals_atom_count():
    for seed in range(40):
        lat = random_poset_down_set_lattice(seed, 20)
        assert len(minimal_prime_semi_ideals(lat)) == len(lat.atoms())


def _oracle_lattices():
    """The acceptance battery's lattices, the fixtures, chains, Id(Z_n) for
    n < 200 and seeded random lattices, distributive or not."""
    for k in range(6):
        yield boolean_lattice(k)
    for k in range(1, 7):
        yield chain_lattice(k)
    yield fig2_lattice()
    yield fig3_lattice()
    for n in range(2, 1001):
        if n < 200 or is_squarefree(n):
            yield ideal_lattice_zn(n).lattice
    for i in range(100):
        yield random_poset_down_set_lattice(RANDOM_SUITE_BASE_SEED + i, 24)
    rng = random.Random(0)
    for _ in range(150):
        yield random_closure_lattice(rng, 5, rng.randint(2, 10))


def test_closed_form_matches_down_set_oracle():
    """Every prime list from the closed form equals the one found by checking
    the definitions on every down-set, mask for mask and in order."""
    checked = distinct_counts = 0
    for lat in _oracle_lattices():
        semi, minimal_semi, minimal_ideals = oracle_prime_masks(lat)
        assert [d.mask for d in prime_semi_ideals(lat)] == semi
        assert [d.mask for d in minimal_prime_semi_ideals(lat)] == minimal_semi
        assert [d.mask for d in minimal_prime_ideals(lat)] == minimal_ideals
        if is_distributive(lat):
            structure = prime_structure(attach_multiplication(lat, "meet"))
            assert [d.mask for d in structure.minimal_prime_semi_ideals] == minimal_semi
            assert [d.mask for d in structure.minimal_prime_ideals] == minimal_ideals
        checked += 1
        distinct_counts += len(minimal_semi) != len(minimal_ideals)
    assert checked > 900
    # The non-distributive lattices reach the case where the two differ.
    assert distinct_counts > 0


def test_analyze_counts_on_formerly_capped_instances():
    """boolean:6 and divisor:27720 used to exceed the down-set enumeration;
    their minimal prime semi-ideal and ideal counts are now integers."""
    for spec, expected in (("boolean:6", 6), ("divisor:27720", 5)):
        [(instance_id, ml)] = generate(spec)
        report = analyze(ml, instance_id=instance_id)
        assert report.counts["minimal_prime_semi_ideals"] == expected, spec
        assert report.counts["minimal_prime_ideals"] == expected, spec
        if report.reduced:
            assert report.lemmas["minimal_prime_semi_ideals_are_ideals"] == "pass"


def test_reduced_semi_ideals_coincide_with_ideals():
    for ml in (attach_multiplication(boolean_lattice(3), "meet"),
               ideal_lattice_zn(30).embedded,
               ideal_lattice_zn(42).embedded):
        assert is_reduced(ml)
        lat = ml.lattice
        semi = {d.mask for d in minimal_prime_semi_ideals(lat)}
        ideals = {d.mask for d in minimal_prime_ideals(lat)}
        assert semi == ideals


def test_prime_structure_orders_are_deterministic():
    ml = ideal_lattice_zn(210).embedded
    s1 = prime_structure(ml)
    s2 = prime_structure(ml)
    assert [d.mask for d in s1.minimal_prime_semi_ideals] == \
        [d.mask for d in s2.minimal_prime_semi_ideals]
    assert s1.minimal_prime_elements == sorted(s1.minimal_prime_elements)
    masks = [d.mask for d in s1.minimal_prime_semi_ideals]
    assert masks == sorted(masks)


# ---------------------------------------------------------------------------
# Lemma suite


def test_lemma_suite_passes_on_b3():
    report = check_lemma_suite(attach_multiplication(boolean_lattice(3), "meet"))
    assert report.all_passed
    assert all(c.status == "pass" for c in report.checks)


def test_lemma_suite_on_fig3_skips_reduced_hypotheses():
    report = check_lemma_suite(fixture("fig3"))
    summary = report.summary()
    assert summary["reduced_implies_zero_distributive"] == "skip"
    assert summary["annihilator_chains_stabilize"] == "pass"
    detail = next(c.detail for c in report.checks
                  if c.check_id == "reduced_implies_zero_distributive")
    assert "0-distributive: True" in detail
    acc = next(c for c in report.checks
               if c.check_id == "annihilator_chains_stabilize")
    assert acc.detail == "trivial (finite)"


def test_lemma_suite_vacuous_on_two_chain():
    report = check_lemma_suite(attach_multiplication(chain_lattice(2), "meet"))
    assert report.all_passed
    vac = next(c for c in report.checks
               if c.check_id == "zero_is_meet_of_minimal_primes")
    assert "vacuous" in vac.detail


def test_lemma_suite_serializes():
    report = check_lemma_suite(attach_multiplication(boolean_lattice(2), "meet"))
    d = report.to_dict()
    assert {c["id"] for c in d["checks"]} == set(report.summary())


@given(st.integers(2, 150))
def test_lemma_suite_on_rings(n):
    ml = ideal_lattice_zn(n).embedded
    report = check_lemma_suite(ml)
    if is_reduced(ml):
        assert report.all_passed, report.summary()
    else:
        assert not report.failed  # skipped, never failed


def test_count_coherence_on_reduced_instances():
    """Non-empty graph: chi = omega = #minimal prime elements =
    #minimal prime semi-ideals."""
    from multlat import chromatic_number, clique_number
    for ml in (attach_multiplication(boolean_lattice(2), "meet"),
               attach_multiplication(boolean_lattice(3), "meet"),
               ideal_lattice_zn(30).embedded,
               ideal_lattice_zn(210).embedded):
        lat = ml.lattice
        g = mult_zero_divisor_graph(ml)
        assert g.n_vertices > 0
        chi, _ = chromatic_number(g)
        omega, _ = clique_number(g)
        n_mpe = len(minimal_prime_elements(ml))
        n_mpsi = len(minimal_prime_semi_ideals(lat))
        assert chi == omega == n_mpe == n_mpsi
