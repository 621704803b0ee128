"""Lattice construction, validation, predicates, and down-set machinery."""
from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multlat import (ElementSubset, NoBoundedStructure, NotALattice,
                     NotAPartialOrder, build_lattice, distributivity_witness,
                     fig2_lattice, fig3_lattice, is_distributive, is_modular,
                     is_zero_distributive, modularity_witness,
                     principal_down_set, principal_up_set,
                     zero_distributivity_witness)
from multlat.search import boolean_lattice, chain_lattice, random_poset_down_set_lattice

from helpers import assert_is_n5, enumerate_down_sets

DIAMOND = (["0", "x", "y", "z", "1"],
           [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")])


def diamond_lattice():
    return build_lattice(*DIAMOND, "covers")


# ---------------------------------------------------------------------------
# Construction


def test_two_chain():
    lat = build_lattice(["0", "1"], [("0", "1")], "covers")
    assert lat.bottom == lat.index("0")
    assert lat.top == lat.index("1")
    assert lat.meet_of(0, 1) == lat.index("0")
    assert lat.join_of(0, 1) == lat.index("1")


def test_fig2_structure():
    lat = fig2_lattice()
    a, b, c, d = (lat.index(x) for x in "abcd")
    assert lat.meet_of(a, c) == lat.bottom
    assert lat.meet_of(b, c) == lat.bottom
    assert lat.join_of(a, c) == d
    assert lat.leq(a, b) and lat.leq(b, d)
    lat.assert_valid()


def test_missing_top_is_rejected():
    with pytest.raises(NoBoundedStructure):
        build_lattice(["0", "x", "y", "1"], [("0", "x"), ("0", "y")], "covers")


def test_missing_bottom_is_rejected():
    with pytest.raises(NoBoundedStructure):
        build_lattice(["a", "b", "1"], [("a", "1"), ("b", "1")], "covers")


def test_cycle_is_rejected():
    with pytest.raises(NotAPartialOrder):
        build_lattice(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")], "covers")


def test_leq_mode_requires_transitivity():
    with pytest.raises(NotAPartialOrder, match="transitive"):
        build_lattice(["0", "a", "1"], [("0", "a"), ("a", "1")], "leq")


def test_leq_mode_requires_antisymmetry():
    with pytest.raises(NotAPartialOrder):
        build_lattice(["a", "b"], [("a", "b"), ("b", "a")], "leq")


def test_leq_mode_accepts_full_order():
    lat = build_lattice(["0", "a", "1"],
                        [("0", "a"), ("a", "1"), ("0", "1")], "leq")
    assert lat.bottom == 0 and lat.top == 2
    lat.assert_valid()


def test_non_lattice_pair_is_named():
    # a and b have two minimal upper bounds c, d.
    with pytest.raises(NotALattice) as exc:
        build_lattice(["0", "a", "b", "c", "d", "1"],
                      [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"),
                       ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")], "covers")
    assert exc.value.pair == ("a", "b")


def test_bad_arguments():
    with pytest.raises(ValueError):
        build_lattice([], [], "covers")
    with pytest.raises(ValueError):
        build_lattice(["a", "a"], [], "covers")
    with pytest.raises(ValueError):
        build_lattice(["a"], [("a", "zz")], "covers")
    with pytest.raises(ValueError):
        build_lattice(["a"], [], "weird")


def test_boolean_meets_are_intersections():
    # Independent oracle: subsets of {1,2,3} with frozenset arithmetic.
    lat = boolean_lattice(3)

    def members(i):
        return frozenset(int(ch) for ch in lat.names[i].strip("{}").split(",") if ch)

    for i in range(lat.n):
        for j in range(lat.n):
            assert members(lat.meet_of(i, j)) == members(i) & members(j)
            assert members(lat.join_of(i, j)) == members(i) | members(j)
    assert lat.meet_of(lat.index("{1,2}"), lat.index("{2,3}")) == lat.index("{2}")


# ---------------------------------------------------------------------------
# Predicates


def test_chain_is_distributive_and_modular():
    lat = chain_lattice(5)
    assert is_distributive(lat)
    assert is_modular(lat)
    assert is_zero_distributive(lat)


def test_boolean_is_distributive():
    assert is_distributive(boolean_lattice(3))


def test_diamond_is_modular_not_distributive():
    lat = diamond_lattice()
    assert is_modular(lat)
    assert not is_distributive(lat)
    assert distributivity_witness(lat) is not None


def test_diamond_is_not_zero_distributive():
    lat = diamond_lattice()
    w = zero_distributivity_witness(lat)
    assert w is not None
    a, b, c = w
    assert lat.meet_of(a, b) == lat.bottom
    assert lat.meet_of(a, c) == lat.bottom
    assert lat.meet_of(a, lat.join_of(b, c)) != lat.bottom


def test_fig3_lattice_is_not_modular():
    lat = fig3_lattice()
    assert not is_modular(lat)
    assert_is_n5(lat, modularity_witness(lat))


def test_fig2_lattice_flags():
    lat = fig2_lattice()
    assert not is_modular(lat)  # contains the pentagon {0, a, b, c, d}
    assert_is_n5(lat, modularity_witness(lat))
    assert is_zero_distributive(lat)


def test_fig2_is_zero_distributive_by_scan():
    assert zero_distributivity_witness(fig2_lattice()) is None


# ---------------------------------------------------------------------------
# Subsets and down-sets


def test_principal_sets():
    lat = fig2_lattice()
    assert principal_down_set(lat, lat.top).names == lat.names
    assert principal_down_set(lat, lat.bottom).names == ("0",)
    assert principal_down_set(lat, lat.index("d")).names == ("0", "a", "b", "c", "d")
    assert principal_up_set(lat, lat.index("d")).names == ("d", "1")


def test_subset_flags():
    lat = fig2_lattice()
    down_d = principal_down_set(lat, lat.index("d"))
    assert down_d.is_down_set and down_d.is_ideal and down_d.is_proper
    up_d = principal_up_set(lat, lat.index("d"))
    assert up_d.is_up_set and up_d.is_filter and not up_d.is_down_set
    ab = ElementSubset(lat, [lat.index("a"), lat.index("b")])
    assert not ab.is_down_set and not ab.is_ideal
    whole = ElementSubset(lat, (1 << lat.n) - 1)
    assert whole.is_ideal and not whole.is_proper and not whole.is_prime


def test_down_sets_two_chain():
    lat = chain_lattice(2)
    fams = enumerate_down_sets(lat)
    assert [d.members for d in fams] == [(), (0,), (0, 1)]


def test_down_sets_b2():
    lat = boolean_lattice(2)
    fams = enumerate_down_sets(lat)
    assert len(fams) == 6
    names = [d.names for d in fams]
    assert ("{}", "{1}") in names and ("{}", "{1}", "{2}") in names


def test_down_sets_chain_count():
    # Prefix structure: a k-element chain has k+1 down-sets including the
    # empty one (k+2 when counting by edge length).
    for k in range(1, 7):
        assert len(enumerate_down_sets(chain_lattice(k))) == k + 1


def test_down_sets_are_down_closed_and_lattice():
    lat = fig2_lattice()
    fams = enumerate_down_sets(lat)
    masks = {d.mask for d in fams}
    for d in fams:
        assert d.is_down_set
    for m1 in masks:
        for m2 in masks:
            assert m1 | m2 in masks
            assert m1 & m2 in masks
    assert [d.mask for d in fams] == sorted(d.mask for d in fams)


# ---------------------------------------------------------------------------
# Properties on randomized instances


@given(st.integers(0, 500))
def test_random_distributive_lattice_invariants(seed):
    lat = random_poset_down_set_lattice(seed, 20)
    lat.assert_valid()
    assert is_distributive(lat)
    assert is_modular(lat)
    assert is_zero_distributive(lat)


@given(st.integers(2, 7), st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                                  max_size=12))
def test_random_cover_relations(n, raw_pairs):
    """Random DAG covers either build a valid lattice or raise a typed error."""
    names = [f"v{i}" for i in range(n)]
    pairs = [(f"v{a}", f"v{b}") for a, b in raw_pairs if a < b < n]
    try:
        lat = build_lattice(names, pairs, "covers")
    except (NotAPartialOrder, NoBoundedStructure, NotALattice):
        return
    lat.assert_valid()
    if is_distributive(lat):
        assert is_modular(lat)
        assert is_zero_distributive(lat)


def test_distributivity_implications():
    # distributive forces both weaker properties; modular alone does not
    # force 0-distributivity (the diamond is the standard counterexample)
    for lat in (chain_lattice(4), boolean_lattice(3), diamond_lattice(),
                fig2_lattice(), fig3_lattice()):
        if is_distributive(lat):
            assert is_modular(lat)
            assert is_zero_distributive(lat)
    assert is_modular(diamond_lattice())
    assert not is_zero_distributive(diamond_lattice())


def test_meet_join_bounds_law():
    lat = boolean_lattice(3)
    for x, y in combinations(range(lat.n), 2):
        m = lat.meet_of(x, y)
        j = lat.join_of(x, y)
        assert lat.leq(m, x) and lat.leq(m, y)
        assert lat.leq(x, j) and lat.leq(y, j)
        for z in range(lat.n):
            if lat.leq(z, x) and lat.leq(z, y):
                assert lat.leq(z, m)
            if lat.leq(x, z) and lat.leq(y, z):
                assert lat.leq(j, z)
