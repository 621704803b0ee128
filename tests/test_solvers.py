"""Exact solvers against the brute-force oracles and known values."""
from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import multlat.report
import multlat.solvers
from multlat import (NotReduced, SolverTimeout, TooLarge, analyze,
                     attach_multiplication, beck_coloring,
                     brute_force_chromatic, brute_force_clique,
                     chromatic_number, clique_number, fixture, is_reduced,
                     mult_zero_divisor_graph)
from multlat.solvers import greedy_coloring, is_proper
from multlat.rings import ideal_lattice_zn
from multlat.search import boolean_lattice, chain_lattice, random_poset_down_set_lattice

from helpers import complete_graph, cycle_graph, make_graph, random_graph


def fig3_graph():
    return mult_zero_divisor_graph(fixture("fig3"))


# ---------------------------------------------------------------------------
# Known values


def test_empty_graph_conventions():
    g = make_graph(0, [])
    assert clique_number(g) == (0, clique_number(g)[1])
    assert clique_number(g)[0] == 0 and clique_number(g)[1].vertices == ()
    chi, col = chromatic_number(g)
    assert chi == 0 and col.assignment == {} and col.color_count == 0
    assert brute_force_chromatic(g) == 0
    assert brute_force_clique(g) == 0


def test_k4():
    g = complete_graph(4)
    assert clique_number(g)[0] == 4
    assert chromatic_number(g)[0] == 4
    assert brute_force_chromatic(g) == 4
    assert brute_force_clique(g) == 4


def test_path_of_three():
    g = make_graph(3, [(0, 1), (1, 2)])
    assert chromatic_number(g)[0] == 2
    assert clique_number(g)[0] == 2


def test_odd_cycle():
    g = cycle_graph(5)
    assert brute_force_chromatic(g) == 3
    assert chromatic_number(g)[0] == 3
    assert clique_number(g)[0] == 2


def test_edgeless_graph():
    g = make_graph(5, [])
    assert chromatic_number(g)[0] == 1
    assert clique_number(g)[0] == 1


def test_fig3_exact_values():
    g = fig3_graph()
    omega, clique = clique_number(g)
    chi, coloring = chromatic_number(g)
    assert (chi, omega) == (4, 3)
    assert brute_force_chromatic(g) == 4
    assert brute_force_clique(g) == 3


# ---------------------------------------------------------------------------
# Witness validity and determinism


def test_clique_witness_is_a_clique_of_reported_size():
    g = fig3_graph()
    omega, witness = clique_number(g)
    assert len(witness.vertices) == omega
    pos = {v: k for k, v in enumerate(g.vertices)}
    for a in witness.vertices:
        for b in witness.vertices:
            if a != b:
                assert g.adjacent(pos[a], pos[b])


def test_coloring_witness_is_proper_and_tight():
    g = fig3_graph()
    chi, coloring = chromatic_number(g)
    assert is_proper(g, coloring)
    assert coloring.color_count == chi
    assert set(coloring.assignment) == set(g.vertices)


def test_greedy_is_proper_upper_bound():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, 10, 0.5)
        greedy = greedy_coloring(g)
        assert is_proper(g, greedy)
        assert chromatic_number(g)[0] <= greedy.color_count


def test_determinism():
    g = fig3_graph()
    assert clique_number(g) == clique_number(g)
    c1 = chromatic_number(g)
    c2 = chromatic_number(g)
    assert c1[0] == c2[0] and c1[1].assignment == c2[1].assignment
    rng = random.Random(13)
    for _ in range(10):
        h = random_graph(rng, 11, 0.5)
        assert chromatic_number(h)[1].assignment == \
            chromatic_number(h)[1].assignment
        assert clique_number(h)[1].vertices == clique_number(h)[1].vertices


def test_chromatic_with_a_known_clique_bound():
    """Passing the clique number as the lower bound changes nothing."""
    rng = random.Random(17)
    for g in [fig3_graph()] + [random_graph(rng, 11, 0.5) for _ in range(10)]:
        omega, _ = clique_number(g)
        chi, coloring = chromatic_number(g, lower=omega)
        assert (chi, coloring.assignment) == \
            (chromatic_number(g)[0], chromatic_number(g)[1].assignment)


def test_analyze_solves_the_clique_once(monkeypatch):
    calls = []
    real = multlat.solvers.clique_number

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(multlat.report, "clique_number", counted)
    monkeypatch.setattr(multlat.solvers, "clique_number", counted)
    report = analyze(fixture("fig3"))
    assert (report.chi, report.omega) == (4, 3)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Oracle equivalence


@given(st.integers(0, 400))
def test_solver_matches_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    p = rng.choice([0.2, 0.5, 0.8])
    g = random_graph(rng, n, p)
    chi, coloring = chromatic_number(g)
    omega, witness = clique_number(g)
    assert omega <= chi
    assert chi == brute_force_chromatic(g)
    assert omega == brute_force_clique(g)
    assert is_proper(g, coloring)


def test_oracle_caps():
    g = make_graph(13, [])
    with pytest.raises(TooLarge):
        brute_force_chromatic(g)
    with pytest.raises(TooLarge):
        brute_force_clique(g)
    assert brute_force_chromatic(g, max_vertices=13) == 1


def test_solver_timeout():
    rng = random.Random(1)
    g = random_graph(rng, 40, 0.5)
    with pytest.raises(SolverTimeout):
        clique_number(g, budget=0.0)
    with pytest.raises(SolverTimeout):
        chromatic_number(g, budget=0.0)
    # and without a budget the same graph solves fine
    chi, _ = chromatic_number(g, budget=None)
    assert chi >= clique_number(g, budget=None)[0]


# ---------------------------------------------------------------------------
# Constructive minimal-prime coloring


def test_beck_coloring_b3():
    ml = attach_multiplication(boolean_lattice(3), "meet")
    coloring = beck_coloring(ml)
    g = mult_zero_divisor_graph(ml)
    assert is_proper(g, coloring)
    assert coloring.color_count == 3
    assert chromatic_number(g)[0] == 3


def test_beck_coloring_empty_graph():
    ml = attach_multiplication(chain_lattice(2), "meet")
    coloring = beck_coloring(ml)
    assert coloring.assignment == {} and coloring.color_count == 0


def test_beck_coloring_z30():
    ml = ideal_lattice_zn(30).embedded
    coloring = beck_coloring(ml)
    g = mult_zero_divisor_graph(ml)
    assert is_proper(g, coloring)
    assert coloring.color_count == 3 == brute_force_chromatic(g)


def test_beck_coloring_requires_reduced():
    with pytest.raises(NotReduced):
        beck_coloring(fixture("fig3"))


@given(st.integers(0, 120))
def test_beck_coloring_properties_on_random_reduced(seed):
    lat = random_poset_down_set_lattice(seed, 20)
    ml = attach_multiplication(lat, "meet")
    assert is_reduced(ml)
    coloring = beck_coloring(ml)
    g = mult_zero_divisor_graph(ml)
    if g.n_vertices == 0:
        assert coloring.color_count == 0
        return
    from multlat import minimal_prime_elements
    primes = minimal_prime_elements(ml)
    assert is_proper(g, coloring)
    assert coloring.color_count <= len(primes)
    # the combined squeeze: omega >= #primes from the pairwise-zero witnesses
    # and chi <= #primes from this coloring force equality
    chi, _ = chromatic_number(g)
    omega, _ = clique_number(g)
    assert chi == omega == len(primes)
