"""Shared test utilities: ad-hoc graphs and reference implementations."""
from __future__ import annotations

import random

from multlat import ElementSubset, Lattice, ZdGraph, build_lattice
from multlat.search import chain_lattice


def make_graph(n: int, edges: list[tuple[int, int]]) -> ZdGraph:
    """A bare ZdGraph on vertices 0..n-1 for solver tests."""
    lat = chain_lattice(max(n, 1))
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return ZdGraph(lat, tuple(range(n)), tuple(adj), ("test", None))


def random_graph(rng: random.Random, n: int, p: float) -> ZdGraph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return make_graph(n, edges)


def cycle_graph(n: int) -> ZdGraph:
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> ZdGraph:
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def assert_is_n5(lat, witness: tuple[int, int, int, int, int]) -> None:
    """The witness must be a genuine pentagon sublattice."""
    b, u, v, y, t = witness
    assert len({b, u, v, y, t}) == 5
    assert lat.leq(b, u) and lat.leq(u, v) and lat.leq(v, t)
    assert u != v
    assert not lat.leq(y, u) and not lat.leq(u, y)
    assert not lat.leq(y, v) and not lat.leq(v, y)
    assert lat.meet_of(y, u) == b and lat.meet_of(y, v) == b
    assert lat.join_of(y, u) == t and lat.join_of(y, v) == t


# ---------------------------------------------------------------------------
# Down-set oracle for the closed-form prime structure


def enumerate_down_sets(lat: Lattice) -> list[ElementSubset]:
    """All down-sets of the lattice order, sorted by member bitmask.

    Includes the empty set and the whole lattice.  Exponential in general:
    this is the brute-force reference the closed forms in multlat.primes are
    checked against, not something the package runs.
    """
    n = lat.n
    strict_down = [lat.down[x] & ~(1 << x) for x in range(n)]
    found = {0}
    frontier = [0]
    while frontier:
        d = frontier.pop()
        for x in range(n):
            if d >> x & 1 or strict_down[x] & ~d:
                continue
            nd = d | 1 << x
            if nd not in found:
                found.add(nd)
                frontier.append(nd)
    return [ElementSubset(lat, m) for m in sorted(found)]


def _minimal(masks: list[int]) -> list[int]:
    return [m for m in masks
            if not any(o != m and o & ~m == 0 for o in masks)]


def oracle_prime_masks(lat: Lattice) -> tuple[list[int], list[int], list[int]]:
    """(prime semi-ideals, minimal prime semi-ideals, minimal prime ideals)
    as ascending mask lists, from the definitions over every down-set."""
    primes = [d for d in enumerate_down_sets(lat) if d.is_prime]
    semi = [d.mask for d in primes]
    ideals = [d.mask for d in primes if d.is_ideal]
    return semi, _minimal(semi), _minimal(ideals)


def random_closure_lattice(rng: random.Random, k: int, m: int) -> Lattice:
    """The lattice of m random subsets of a k-set closed under intersection,
    with the whole set as top, ordered by inclusion.  Unlike the down-set
    lattices of random posets these need not be distributive or modular."""
    full = (1 << k) - 1
    sets = {full} | {rng.getrandbits(k) for _ in range(m)}
    while True:
        closed = sets | {a & b for a in sets for b in sets}
        if closed == sets:
            break
        sets = closed
    members = sorted(sets)
    names = [f"s{x}" for x in members]
    pairs = [(f"s{a}", f"s{b}") for a in members for b in members
             if a != b and a & ~b == 0]
    return build_lattice(names, pairs, "leq")
