"""Lattice construction, validation, predicates, and down-set machinery."""
from __future__ import annotations

import ast
import os
import random
import signal
import struct
import tracemalloc
from contextlib import contextmanager
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import multlat
from multlat import lattice as lattice_module
from multlat import (NoBoundedStructure, NotALattice, NotAPartialOrder,
                     SelfCheckError, build_lattice, fig2_lattice, fig3_lattice,
                     is_modular, is_zero_distributive, modularity_witness,
                     order_zero_divisor_graph, zero_distributivity_witness)
from multlat.search import boolean_lattice, chain_lattice, random_poset_down_set_lattice

from helpers import (assert_is_n5, bit_scan_meet_join, cover_closure,
                     enumerate_down_sets, is_distributive, is_prime_semi_ideal,
                     mask_names, random_closure_lattice)

DIAMOND = (["0", "x", "y", "z", "1"],
           [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")])


PENTAGON = (["0", "a", "b", "c", "1"],
            [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")])


def diamond_lattice():
    return build_lattice(*DIAMOND, "covers")


def pentagon_lattice():
    return build_lattice(*PENTAGON, "covers")


def assert_tables_match_the_oracles(lat, pairs):
    """The order of ``lat`` is Warshall's closure of the index pairs
    (a, b), a <= b, and its meet and join are that order's greatest lower
    and least upper bounds by bit scan.  An order with glb and lub tables
    satisfies every lattice law."""
    assert (lat.up, lat.down) == tuple(map(tuple, cover_closure(lat.n, pairs)))
    assert (lat.meet, lat.join) == bit_scan_meet_join(lat.names, lat.up, lat.down)


def inclusion_pairs(lat):
    """The index pairs (a, b) with a's name a subset of b's, for lattices
    of sets named "{1,2}"."""
    sets = [set(name.strip("{}").split(",")) - {""} for name in lat.names]
    return [(a, b) for a in range(lat.n) for b in range(lat.n) if sets[a] <= sets[b]]


# ---------------------------------------------------------------------------
# Construction


def test_two_chain():
    lat = build_lattice(["0", "1"], [("0", "1")], "covers")
    assert lat.bottom == lat.names.index("0")
    assert lat.top == lat.names.index("1")
    assert lat.meet[0][1] == lat.names.index("0")
    assert lat.join[0][1] == lat.names.index("1")


def test_fig2_structure():
    lat = fig2_lattice()
    a, b, c, d = (lat.names.index(x) for x in "abcd")
    assert lat.meet[a][c] == lat.bottom
    assert lat.meet[b][c] == lat.bottom
    assert lat.join[a][c] == d
    assert lat.up[a] >> b & 1 and lat.up[b] >> d & 1
    assert_tables_match_the_oracles(
        lat, [(y, x) for x in range(lat.n) for y in lat.lower_covers[x]])


def test_missing_top_is_rejected():
    with pytest.raises(NoBoundedStructure):
        build_lattice(["0", "x", "y", "1"], [("0", "x"), ("0", "y")], "covers")


def test_missing_bottom_is_rejected():
    with pytest.raises(NoBoundedStructure):
        build_lattice(["a", "b", "1"], [("a", "1"), ("b", "1")], "covers")


def test_cycle_is_rejected():
    with pytest.raises(NotAPartialOrder,
                       match="^relation contains a cycle through 'a' and 'b'$"):
        build_lattice(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")], "covers")


def test_leq_mode_requires_transitivity():
    with pytest.raises(NotAPartialOrder, match="transitive"):
        build_lattice(["0", "a", "1"], [("0", "a"), ("a", "1")], "leq")


def test_leq_mode_requires_antisymmetry():
    with pytest.raises(NotAPartialOrder):
        build_lattice(["a", "b"], [("a", "b"), ("b", "a")], "leq")


# build_lattice's self-checks: a fast pass that its scan contradicts raises.


def test_a_cycle_that_the_scans_do_not_find_is_fatal(monkeypatch):
    """A closure pass that calls the 3-chain cyclic hands over to the scans,
    which find no cycle: SelfCheckError, not an order rejected for a fault
    it does not have."""
    monkeypatch.setattr(lattice_module, "_close_acyclic", lambda up: None)
    with pytest.raises(SelfCheckError, match="^the closure pass rejected a "
                       "relation that the pairwise scans accept$"):
        chain_lattice(3)


def test_a_missing_join_that_the_pair_scan_does_not_find_is_fatal(monkeypatch):
    """The bowtie 0 < a, b < c, d < 1 has no join of a and b, so the looked-up
    join row of a misses an entry; a pair scan that finds none contradicts
    it."""
    monkeypatch.setattr(lattice_module, "_meet_join_scan", lambda *args: None)
    with pytest.raises(SelfCheckError, match="^a join-irreducible row of the "
                       "join table misses an entry that the pair scan finds$"):
        build_lattice(["0", "a", "b", "c", "d", "1"],
                      [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"),
                       ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")])


def test_a_missing_meet_under_a_complete_join_table_is_fatal(monkeypatch):
    """A closure that leaves c0 out of the down-set of c1 in the 3-chain
    keeps every join row whole, as c1 and c0 have no lower cover and c2
    composes its row from both; the looked-up meet row of c1 then has no
    entry at c0."""
    real = lattice_module._close_acyclic

    def c0_not_below_c1(up):
        down = real(up)
        down[1] &= ~1
        return down

    monkeypatch.setattr(lattice_module, "_close_acyclic", c0_not_below_c1)
    with pytest.raises(SelfCheckError, match="^the join table is complete but "
                       "a meet-irreducible row misses a meet$"):
        chain_lattice(3)


def test_leq_mode_accepts_full_order():
    lat = build_lattice(["0", "a", "1"],
                        [("0", "a"), ("a", "1"), ("0", "1")], "leq")
    assert lat.bottom == 0 and lat.top == 2
    assert_tables_match_the_oracles(lat, [(0, 1), (1, 2), (0, 2)])


def test_non_lattice_pair_is_named():
    # a and b have two minimal upper bounds c, d.
    with pytest.raises(NotALattice) as exc:
        build_lattice(["0", "a", "b", "c", "d", "1"],
                      [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"),
                       ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")], "covers")
    assert exc.value.pair == ("a", "b")


def check_first_failing_pair(names, covers, pair, message):
    """build_lattice names ``pair`` in a NotALattice that matches
    ``message`` and is the error the bit-scan oracle raises."""
    with pytest.raises(NotALattice, match=message) as exc:
        build_lattice(names, covers, "covers")
    assert exc.value.pair == pair
    index = {nm: i for i, nm in enumerate(names)}
    up, down = cover_closure(len(names), [(index[x], index[y]) for x, y in covers])
    with pytest.raises(NotALattice) as ref:
        bit_scan_meet_join(names, up, down)
    assert str(ref.value) == str(exc.value)


def test_pair_without_meet_or_join_reports_the_meet():
    # a and b have lower bounds 0, e, f and upper bounds c, d, 1; listed
    # first, they are the first failing pair in row order.
    check_first_failing_pair(
        ["a", "b", "0", "e", "f", "c", "d", "1"],
        [("0", "e"), ("0", "f"), ("e", "a"), ("e", "b"), ("f", "a"), ("f", "b"),
         ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")],
        ("a", "b"), "no greatest lower bound")


def test_first_failing_pair_need_not_hold_a_join_irreducible():
    # The join-irreducible rows first miss a v b, but x ^ y is the first
    # missing entry in row order, and neither x nor y is join-irreducible.
    check_first_failing_pair(
        ["x", "y", "0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "x"), ("b", "x"), ("a", "y"),
         ("b", "y"), ("x", "1"), ("y", "1"), ("c", "1")],
        ("x", "y"), "^elements 'x' and 'y' have no greatest lower bound$")


def test_bad_arguments():
    with pytest.raises(ValueError, match="at least one element name"):
        build_lattice([], [], "covers")
    # "a" is declared first, although "b" is the first one declared again.
    with pytest.raises(ValueError, match="^element name 'a' is declared more"):
        build_lattice(["a", "b", "b", "a"], [], "covers")
    with pytest.raises(ValueError) as exc:
        build_lattice(["a"], [("a", "zz")], "covers")
    assert str(exc.value) == "order pair references undeclared element 'zz'"
    with pytest.raises(ValueError) as exc:
        build_lattice(["a"], [], "weird")
    assert str(exc.value) == 'order kind must be "covers" or "leq", got \'weird\''


def test_assert_is_n5_rejects_a_wrong_witness():
    """The helper's asserts are live, also under python -O: conftest.py
    has pytest rewrite them."""
    lat = pentagon_lattice()
    b, u, v, y, t = modularity_witness(lat)
    assert_is_n5(lat, (b, u, v, y, t))
    with pytest.raises(AssertionError):
        assert_is_n5(lat, (b, v, u, y, t))


def test_the_package_has_no_assert_statement():
    """Checks in the package raise errors of their own, so that none is
    stripped under python -O."""
    found = []
    for root, _, files in os.walk(os.path.dirname(multlat.__file__)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            found += [f"{path}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


def test_boolean_meets_are_intersections():
    # Independent oracle: subsets of {1,2,3} with frozenset arithmetic.
    lat = boolean_lattice(3)

    def members(i):
        return frozenset(int(ch) for ch in lat.names[i].strip("{}").split(",") if ch)

    for i in range(lat.n):
        for j in range(lat.n):
            assert members(lat.meet[i][j]) == members(i) & members(j)
            assert members(lat.join[i][j]) == members(i) | members(j)
    at = lat.names.index
    assert lat.meet[at("{1,2}")][at("{2,3}")] == at("{2}")


def test_boolean_7_from_covers_matches_the_bit_scan_oracle():
    """128 elements, listed in a shuffled order, so that the composed rows
    come from covers at every position."""
    masks = list(range(1 << 7))
    random.Random(7).shuffle(masks)
    names = [f"s{m}" for m in masks]
    covers = [(f"s{m}", f"s{m | 1 << i}") for m in masks for i in range(7)
              if not m >> i & 1]
    lat = build_lattice(names, covers, "covers")
    assert (lat.meet, lat.join) == bit_scan_meet_join(names, lat.up, lat.down)


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


def test_diamond_is_not_zero_distributive():
    lat = diamond_lattice()
    w = zero_distributivity_witness(lat)
    assert w is not None
    a, b, c = w
    assert lat.meet[a][b] == lat.bottom
    assert lat.meet[a][c] == lat.bottom
    assert lat.meet[a][lat.join[b][c]] != lat.bottom


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
    def down(name):
        return mask_names(lat, lat.down[lat.names.index(name)])
    assert down("1") == lat.names
    assert down("0") == ("0",)
    assert down("d") == ("0", "a", "b", "c", "d")
    assert mask_names(lat, lat.up[lat.names.index("d")]) == ("d", "1")


def test_subset_flags():
    lat = fig2_lattice()
    whole = (1 << lat.n) - 1

    def down_closed(d):
        return all(lat.down[x] & ~d == 0 for x in range(lat.n) if d >> x & 1)

    down_d = lat.down[lat.names.index("d")]
    assert down_closed(down_d) and lat.is_ideal(down_d) and down_d != whole
    up_d = lat.up[lat.names.index("d")]
    assert not down_closed(up_d)
    ab = 1 << lat.names.index("a") | 1 << lat.names.index("b")
    assert not down_closed(ab) and not lat.is_ideal(ab)
    assert lat.is_ideal(whole) and not is_prime_semi_ideal(lat, whole)


def _time_out(signum, frame):
    raise TimeoutError("the mask was not rejected within 5 s")


@pytest.mark.parametrize("outside", [-1, 6])
def test_subset_members_outside_the_lattice(outside):
    """fig2 has 6 elements, so a mask with a bit at 6 and the negative mask
    -1 (every bit set, for ever) reach outside the lattice, and the order
    graph rejects each with its range message, not as a non-ideal.  A
    negative mask that got past the range check could loop for ever on its
    bits, which the alarm turns into a failure."""
    lat = fig2_lattice()
    assert lat.n == 6
    masks = (outside,) if outside < 0 else (1 << outside, 1 | 1 << outside)
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.alarm(5)
    try:
        for mask in masks:
            with pytest.raises(ValueError, match=(
                    rf"^ideal mask {mask} is outside 0 \.\. 2\*\*6 - 1$")):
                order_zero_divisor_graph(lat, mask)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_down_sets_two_chain():
    lat = chain_lattice(2)
    assert enumerate_down_sets(lat) == [0b00, 0b01, 0b11]


def test_down_sets_b2():
    lat = boolean_lattice(2)
    fams = enumerate_down_sets(lat)
    assert len(fams) == 6
    names = [mask_names(lat, d) for d in fams]
    assert ("{}", "{1}") in names and ("{}", "{1}", "{2}") in names


def test_down_sets_chain_count():
    # Prefix structure: a k-element chain has k+1 down-sets including the
    # empty one (k+2 when counting by edge length).
    for k in range(1, 7):
        assert len(enumerate_down_sets(chain_lattice(k))) == k + 1


def test_down_sets_are_down_closed_and_lattice():
    lat = fig2_lattice()
    fams = enumerate_down_sets(lat)
    masks = set(fams)
    for d in fams:
        assert all(lat.down[x] & ~d == 0 for x in range(lat.n) if d >> x & 1)
    for m1 in masks:
        for m2 in masks:
            assert m1 | m2 in masks
            assert m1 & m2 in masks
    assert fams == sorted(fams)


# ---------------------------------------------------------------------------
# Properties on randomized instances


@given(st.integers(0, 500))
def test_random_distributive_lattice_invariants(seed):
    lat = random_poset_down_set_lattice(seed, 20)
    assert_tables_match_the_oracles(lat, inclusion_pairs(lat))
    assert is_distributive(lat)
    assert is_modular(lat)
    assert is_zero_distributive(lat)


@given(st.integers(2, 7), st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                                  max_size=12), st.booleans(), st.booleans())
def test_random_cover_relations(n, raw_pairs, bounded, bowtie):
    """Random DAG covers either build a valid lattice or raise a typed error;
    the meet and join tables, or the pair named by NotALattice, match the
    bit-scan oracle on the closed order, and NoBoundedStructure comes only
    for an order with no bottom or no top.  With ``bounded`` set, v0 goes
    under each element with nothing below it and v(n-1) over each element
    with nothing above it, so the order is bounded.  With ``bowtie`` set and
    n >= 6, v1 and v2 go under both v3 and v4 in an order bounded so: a
    bowtie, which leaves v1 v v2 undefined unless the random pairs put v3
    and v4 in order, and so reaches NotALattice."""
    names = [f"v{i}" for i in range(n)]
    index_pairs = [(a, b) for a, b in raw_pairs if a < b < n]
    planted = bowtie and n >= 6
    if planted:
        index_pairs += [(1, 3), (1, 4), (2, 3), (2, 4)]
    if bounded or planted:
        has_lower = {b for _, b in index_pairs}
        has_upper = {a for a, _ in index_pairs}
        index_pairs += [(0, k) for k in range(1, n) if k not in has_lower]
        index_pairs += [(k, n - 1) for k in range(1, n - 1) if k not in has_upper]
    pairs = [(f"v{a}", f"v{b}") for a, b in index_pairs]
    up, down = cover_closure(n, index_pairs)
    try:
        lat = build_lattice(names, pairs, "covers")
    except NotALattice as exc:
        with pytest.raises(NotALattice) as ref:
            bit_scan_meet_join(names, up, down)
        assert exc.pair == ref.value.pair
        assert str(exc) == str(ref.value)
        return
    except NoBoundedStructure:
        full = (1 << n) - 1
        assert full not in up or full not in down
        return
    assert_tables_match_the_oracles(lat, index_pairs)
    if is_distributive(lat):
        assert is_modular(lat)
        assert is_zero_distributive(lat)


def seeded_relations(seed: int, count: int):
    """(n, index pairs) for seeded relations in any element order, with
    cycles, self-pairs, pairs that are not covers and some bowties, most
    with a bottom and a top added."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(2, 10)
        index_pairs = [(rng.randrange(n), rng.randrange(n))
                       for _ in range(rng.randrange(2 * n))]
        if rng.random() < 0.7:  # keep the pairs that go up a random order
            rank = rng.sample(range(n), n)
            index_pairs = [(a, b) for a, b in index_pairs if rank[a] <= rank[b]]
        picks = rng.sample(range(n), n)
        if n >= 6 and rng.random() < 0.4:  # a bowtie: a, b below both c and d
            a, b, c, d = picks[2:6]
            index_pairs += [(a, c), (a, d), (b, c), (b, d)]
        if rng.random() < 0.8:
            bot, top = picks[:2]
            index_pairs += [(bot, x) for x in range(n)] + [(x, top) for x in range(n)]
        yield n, index_pairs


@contextmanager
def counted_pair_scans():
    """The list of calls, while the block runs, of the pair scan that
    build_lattice runs when a join-irreducible row misses an entry."""
    calls = []
    scan = lattice_module._meet_join_scan

    def counted(*args):
        calls.append(args)
        return scan(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice_module, "_meet_join_scan", counted)
        yield calls


def build_outcome(names, pairs, kind, up, down) -> str:
    """Build, and check the lattice or the error against the oracles on
    the closed order (up, down), which the relation is known to match up
    to the error cases the caller checks; returns the kind of outcome.
    The pair scan runs exactly when the order is not a lattice."""
    n = len(names)
    try:
        with counted_pair_scans() as scans:
            lat = build_lattice(names, pairs, kind)
    except NoBoundedStructure:
        full = (1 << n) - 1
        assert full not in up or full not in down
        assert scans == []
        return "unbounded"
    except NotALattice as exc:
        with pytest.raises(NotALattice) as ref:
            bit_scan_meet_join(names, up, down)
        assert str(exc) == str(ref.value)
        assert len(scans) == 1
        return "not a lattice"
    assert (list(lat.up), list(lat.down)) == (up, down)
    assert (lat.meet, lat.join) == bit_scan_meet_join(names, up, down)
    assert scans == []
    return "lattice"


def first_cycle(up: list[int]) -> tuple[int, int] | None:
    """The first i, then j != i, with j in up[i] and i in up[j]."""
    n = len(up)
    return next(((i, j) for i in range(n) for j in range(n)
                 if j != i and up[i] >> j & 1 and up[j] >> i & 1), None)


def test_seeded_cover_relations_close_like_warshall():
    """The one-pass closure gives Warshall's up and down masks, a cyclic
    relation raises with the first cycle pair the pairwise scan names, and
    the tables or the NotALattice pair match the bit-scan oracle."""
    outcomes = []
    for n, index_pairs in seeded_relations(10, 600):
        names = [f"v{i}" for i in range(n)]
        pairs = [(names[a], names[b]) for a, b in index_pairs]
        up, down = cover_closure(n, index_pairs)
        cycle = first_cycle(up)
        if cycle is not None:
            i, j = cycle
            with pytest.raises(NotAPartialOrder) as exc:
                build_lattice(names, pairs, "covers")
            assert str(exc.value) == (f"relation contains a cycle through "
                                      f"{names[i]!r} and {names[j]!r}")
            outcomes.append("cycle")
            continue
        outcomes.append(build_outcome(names, pairs, "covers", up, down))
    kinds = ("cycle", "unbounded", "not a lattice", "lattice")
    assert min(map(outcomes.count, kinds)) >= 20


def test_seeded_order_relations_match_the_pairwise_scans():
    """Each seeded relation given as "leq", as it is and closed (where
    acyclic), so that some are orders: the one walk that checks
    transitivity and antisymmetry raises what the pairwise scans name,
    first antisymmetry, then transitivity, and an order builds as the
    bit-scan oracle says."""
    outcomes = []
    for n, index_pairs in seeded_relations(11, 300):
        names = [f"v{i}" for i in range(n)]
        closed_up, _ = cover_closure(n, index_pairs)
        relations = [index_pairs]
        if first_cycle(closed_up) is None:
            relations.append([(i, j) for i in range(n) for j in range(n)
                              if closed_up[i] >> j & 1])
        for rel in relations:
            pairs = [(names[a], names[b]) for a, b in rel]
            up = [1 << i for i in range(n)]
            for a, b in rel:
                up[a] |= 1 << b
            cycle = first_cycle(up)
            broken = next(((i, j, k) for i in range(n) for j in range(n)
                           if up[i] >> j & 1
                           for k in range(n) if up[j] >> k & 1 and not up[i] >> k & 1),
                          None)
            if cycle is not None or broken is not None:
                if cycle is not None:
                    i, j = cycle
                    message = (f"relation violates antisymmetry through "
                               f"{names[i]!r} and {names[j]!r}")
                else:
                    i, j, k = broken
                    message = (f"relation is not transitive: {names[i]!r} <= "
                               f"{names[j]!r} <= {names[k]!r} but {names[i]!r} <= "
                               f"{names[k]!r} is missing")
                with pytest.raises(NotAPartialOrder) as exc:
                    build_lattice(names, pairs, "leq")
                assert str(exc.value) == message
                outcomes.append("cycle" if cycle else "not transitive")
                continue
            down = [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]
            outcomes.append(build_outcome(names, pairs, "leq", up, down))
    kinds = ("cycle", "not transitive", "unbounded", "not a lattice", "lattice")
    assert min(map(outcomes.count, kinds)) >= 10


@given(st.sets(st.integers(1, 30), min_size=3, max_size=10), st.booleans())
def test_random_subset_orders_match_bit_scan_oracle(middle, reverse):
    """Bounded families of subsets of a 5-set, ordered by inclusion or its
    reverse; about one in ten lacks a meet or a join."""
    masks = sorted({0, 31} | middle)
    n = len(masks)
    names = [f"s{m}" for m in masks]
    le = [[(b & ~a == 0) if reverse else (a & ~b == 0) for b in masks] for a in masks]
    up = [sum(1 << j for j in range(n) if le[i][j]) for i in range(n)]
    down = [sum(1 << i for i in range(n) if le[i][j]) for j in range(n)]
    pairs = [(names[i], names[j]) for i in range(n) for j in range(n)
             if i != j and le[i][j]]
    try:
        with counted_pair_scans() as scans:
            lat = build_lattice(names, pairs, "leq")
    except NotALattice as exc:
        with pytest.raises(NotALattice) as ref:
            bit_scan_meet_join(names, up, down)
        assert exc.pair == ref.value.pair
        assert str(exc) == str(ref.value)
        assert len(scans) == 1
        return
    assert (lat.meet, lat.join) == bit_scan_meet_join(names, up, down)
    assert scans == []


def test_join_irreducibles_have_one_lower_cover():
    rng = random.Random(5)
    lattices = [chain_lattice(1), chain_lattice(5), boolean_lattice(3),
                diamond_lattice(), pentagon_lattice(), fig2_lattice(),
                fig3_lattice(), *(random_closure_lattice(rng, 4, 5) for _ in range(20))]
    for lat in lattices:
        strict = [lat.down[x] & ~(1 << x) for x in range(lat.n)]
        lower_covers = [[y for y in range(lat.n) if strict[x] >> y & 1
                         and not any(strict[z] >> y & 1 for z in range(lat.n)
                                     if strict[x] >> z & 1)]
                        for x in range(lat.n)]
        assert lat.lower_covers == tuple(map(tuple, lower_covers))
        irreducibles = lat.join_irreducibles
        assert irreducibles == tuple(x for x in range(lat.n) if len(lower_covers[x]) == 1)
        for x in range(lat.n):
            assert lat.join_all(j for j in irreducibles if lat.down[x] >> j & 1) == x
    assert boolean_lattice(3).join_irreducibles == boolean_lattice(3).atoms()
    assert chain_lattice(1).join_irreducibles == ()
    pentagon = pentagon_lattice()
    assert [pentagon.names[x] for x in pentagon.join_irreducibles] == ["a", "b", "c"]


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
    up = lat.up
    for x, y in combinations(range(lat.n), 2):
        m = lat.meet[x][y]
        j = lat.join[x][y]
        assert up[m] >> x & 1 and up[m] >> y & 1
        assert up[x] >> j & 1 and up[y] >> j & 1
        for z in range(lat.n):
            if up[z] >> x & 1 and up[z] >> y & 1:
                assert up[z] >> m & 1
            if up[x] >> z & 1 and up[y] >> z & 1:
                assert up[j] >> z & 1


def test_boolean_3_and_fig3_tables_match_the_oracles():
    """boolean:3 has elements with two upper covers, so composed meet rows;
    fig3's order is the closure of its lower covers."""
    lat = boolean_lattice(3)
    assert_tables_match_the_oracles(lat, inclusion_pairs(lat))
    lat = fig3_lattice()
    assert_tables_match_the_oracles(
        lat, [(y, x) for x in range(lat.n) for y in lat.lower_covers[x]])


def _naive_transpose(rows, n):
    columns = [0] * n
    for r, row in enumerate(rows):
        for c, bit in enumerate(bin(row)[:1:-1]):
            if bit == "1":
                columns[c] |= 1 << r
    return columns


def test_transposed_matches_the_naive_transpose():
    """On square, tall and wide matrices on both sides of every stride from
    8 to 256, and at 1022 rows."""
    rng = random.Random(41)
    sizes = (0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129,
             255, 256, 257, 1022)
    for m in sizes:
        for height, n in ((m, m), (m, m // 3), (m // 3, m)):
            rows = [rng.getrandbits(n) for _ in range(height)]
            assert lattice_module._transposed(rows, n) == _naive_transpose(rows, n), (height, n)


def test_word_codes_are_as_wide_as_their_strides():
    for stride, code in lattice_module._WORD_CODES.items():
        assert struct.calcsize("<" + code) * 8 == stride


def test_transpose_keeps_only_the_masks_of_lattice_strides():
    """A 1200-row transpose (stride 2048, above any lattice within
    ``MAX_INPUT_ELEMENTS``) builds its masks for the one call: 5.3 MB of
    them stayed behind when every stride was kept.  What it holds after
    the call is its 0.2 MB of columns."""
    rng = random.Random(43)
    rows = [rng.getrandbits(1200) for _ in range(1200)]
    kept = lattice_module._transpose_rounds.cache_info().currsize
    tracemalloc.start()
    try:
        columns = lattice_module._transposed(rows, 1200)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 500_000
    assert lattice_module._transpose_rounds.cache_info().currsize == kept
    assert columns == _naive_transpose(rows, 1200)
