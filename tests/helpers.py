"""Shared test utilities: ad-hoc graphs and reference implementations."""
from __future__ import annotations

import math
import random

from multlat import (Lattice, NotALattice, ZdGraph, attach_multiplication,
                     build_lattice, fig3_lattice, fig3_table,
                     minimal_prime_elements, mult_zero_divisor_graph)
from multlat.search import chain_lattice
from multlat.solvers import (Coloring, _class_colors, _coloring, _Deadline,
                             _max_clique, _relabel)


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
    up = lat.up
    assert up[b] >> u & 1 and up[u] >> v & 1 and up[v] >> t & 1
    assert u != v
    assert not up[y] >> u & 1 and not up[u] >> y & 1
    assert not up[y] >> v & 1 and not up[v] >> y & 1
    assert lat.meet[y][u] == b and lat.meet[y][v] == b
    assert lat.join[y][u] == t and lat.join[y][v] == t


# ---------------------------------------------------------------------------
# Down-set oracle for the closed-form prime structure


def enumerate_down_sets(lat: Lattice) -> list[int]:
    """The member bitmasks of all down-sets of the lattice order, sorted.

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
    return sorted(found)


def mask_names(lat: Lattice, mask: int) -> tuple[str, ...]:
    """The names of the elements in ``mask``, in index order."""
    return tuple([lat.names[i] for i in _mask_bits(mask)])


def _minimal(masks: list[int]) -> list[int]:
    return [m for m in masks
            if not any(o != m and o & ~m == 0 for o in masks)]


def pair_is_ideal(lat: Lattice, d: int) -> bool:
    """Whether the mask d is a non-empty down-set closed under binary join,
    checked on every pair of members: the definition that the
    principal-down-set test ``Lattice.is_ideal`` is compared against."""
    down, join, ms = lat.down, lat.join, _mask_bits(d)
    if d == 0 or any(down[x] & ~d for x in ms):
        return False
    return all(d >> join[a][b] & 1 for a in ms for b in ms)


def is_prime_semi_ideal(lat: Lattice, d: int) -> bool:
    """Whether the mask d is a non-empty proper down-set such that a ^ b
    inside forces a or b inside, checked over every pair outside."""
    if (d == 0 or d == (1 << lat.n) - 1
            or any(lat.down[x] & ~d for x in _mask_bits(d))):
        return False
    outside = [x for x in range(lat.n) if not d >> x & 1]
    return not any(d >> lat.meet[a][b] & 1 for a in outside for b in outside)


def oracle_prime_masks(lat: Lattice) -> tuple[list[int], list[int], list[int]]:
    """(prime semi-ideals, minimal prime semi-ideals, minimal prime ideals)
    as ascending mask lists, from the definitions over every down-set."""
    semi = [d for d in enumerate_down_sets(lat) if is_prime_semi_ideal(lat, d)]
    ideals = [d for d in semi if pair_is_ideal(lat, d)]
    return semi, _minimal(semi), _minimal(ideals)


def is_squarefree(n: int) -> bool:
    """Whether no square of a prime divides n, by trial division."""
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        if n % d == 0:
            n //= d
        d += 1
    return True


def naive_divisors(n: int) -> list[int]:
    """The divisors of n, ascending, found by trial of every d <= n."""
    return [d for d in range(1, n + 1) if n % d == 0]


def gcd_product_table(n: int) -> tuple[tuple[int, ...], ...]:
    """The ideal product of Z_n by its definition, (d1)(d2) = (gcd(d1 d2, n)),
    as indices into ``naive_divisors(n)``."""
    divs = naive_divisors(n)
    position = {d: i for i, d in enumerate(divs)}
    return tuple([tuple([position[math.gcd(d1 * d2, n)] for d2 in divs])
                  for d1 in divs])


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


# ---------------------------------------------------------------------------
# Exhaustive oracles for the lattice build and the multiplication axioms


def _mask_bits(mask: int):
    return [b for b in range(mask.bit_length()) if mask >> b & 1]


def bit_scan_meet_join(names, up, down):
    """(meet rows, join rows) found by scanning each pair's common lower and
    upper bounds for a greatest and least one, as lattice construction did
    before it switched to down-mask lookups.  Raises NotALattice for the
    first pair in row order that lacks a meet, checked before its join."""
    n = len(names)
    meet_rows, join_rows = [], []
    for i in range(n):
        mrow, jrow = [0] * n, [0] * n
        for j in range(n):
            low = down[i] & down[j]
            for m in _mask_bits(low):
                if low & ~down[m] == 0:
                    mrow[j] = m
                    break
            else:
                raise NotALattice(
                    f"elements {names[i]!r} and {names[j]!r} have no greatest lower bound",
                    pair=(names[i], names[j]))
            high = up[i] & up[j]
            for m in _mask_bits(high):
                if high & ~up[m] == 0:
                    jrow[j] = m
                    break
            else:
                raise NotALattice(
                    f"elements {names[i]!r} and {names[j]!r} have no least upper bound",
                    pair=(names[i], names[j]))
        meet_rows.append(tuple(mrow))
        join_rows.append(tuple(jrow))
    return tuple(meet_rows), tuple(join_rows)


def cover_closure(n: int, pairs: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """(up, down) masks of the reflexive-transitive closure of index pairs
    (a, b) meaning a <= b, by Warshall's algorithm."""
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[a] |= 1 << b
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    down = [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]
    return up, down


def exhaustive_axiom_violation(lat: Lattice, product) -> tuple[str, tuple[int, ...]] | None:
    """The first (axiom, witness) found by checking M1-M5 on every pair and
    every triple, or None when all hold.  O(n^3): the reference that the
    join-irreducible check in multlat.multiplication is compared against."""
    n, bot, top, join = lat.n, lat.bottom, lat.top, lat.join
    for a in range(n):
        if product[a][top] != a:
            return "M5", (a,)
        if product[a][bot] != bot:
            return "M3", (a, bot)
        for b in range(a, n):
            if product[a][b] != product[b][a]:
                return "M1", (a, b)
            if not lat.up[product[a][b]] >> lat.meet[a][b] & 1:
                return "M4", (a, b)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if product[product[a][b]][c] != product[a][product[b][c]]:
                    return "M2", (a, b, c)
                if product[a][join[b][c]] != join[product[a][b]][product[a][c]]:
                    return "M3", (a, b, c)
    return None


def join_irreducible_axiom_violation(lat: Lattice, product
                                     ) -> tuple[str, tuple[int, ...]] | None:
    """The first (axiom, witness) found by the element-wise join-irreducible
    check, or None when all hold: the pair axioms on every pair in row
    order, then M3 as a.(b v j) = a.b v a.j for every a, then every j in J,
    then every b, in O(n^2 |J|), then M2 on J^3.  The cover-graph check in
    multlat.multiplication must report the same axiom and witness."""
    n, bot, top, join = lat.n, lat.bottom, lat.top, lat.join
    for a in range(n):
        pa = product[a]
        if pa[top] != a:
            return "M5", (a,)
        if pa[bot] != bot:
            return "M3", (a, bot)
        for b in range(a, n):
            if pa[b] != product[b][a]:
                return "M1", (a, b)
            if not lat.up[pa[b]] >> lat.meet[a][b] & 1:
                return "M4", (a, b)
    irreducibles = lat.join_irreducibles
    for a in range(n):
        pa = product[a]
        for j in irreducibles:
            for b in range(n):
                if pa[join[b][j]] != join[pa[b]][pa[j]]:
                    return "M3", (a, b, j)
    for a in irreducibles:
        for b in irreducibles:
            for c in irreducibles:
                if product[product[a][b]][c] != product[a][product[b][c]]:
                    return "M2", (a, b, c)
    return None


def axiom_holds_at(lat: Lattice, product, axiom: str, witness: tuple[int, ...]) -> bool:
    """Evaluate the named axiom at one witness."""
    P, join = product, lat.join
    if axiom == "M1":
        a, b = witness
        return P[a][b] == P[b][a]
    if axiom == "M2":
        a, b, c = witness
        return P[P[a][b]][c] == P[a][P[b][c]]
    if axiom == "M3" and len(witness) == 2:
        return P[witness[0]][lat.bottom] == lat.bottom
    if axiom == "M3":
        a, b, c = witness
        return P[a][join[b][c]] == join[P[a][b]][P[a][c]]
    if axiom == "M4":
        a, b = witness
        return bool(lat.up[P[a][b]] >> lat.meet[a][b] & 1)
    if axiom == "M5":
        (a,) = witness
        return P[a][lat.top] == a
    raise ValueError(f"unknown axiom {axiom!r}")


def trivial_product(lat: Lattice) -> tuple[tuple[int, ...], ...]:
    """x.1 = 1.x = x and every other product 0, admissible or not."""
    t, b = lat.top, lat.bottom
    return tuple(tuple(y if x == t else x if y == t else b for y in range(lat.n))
                 for x in range(lat.n))


# ---------------------------------------------------------------------------
# Reference solvers: the set-based DSATUR search and the tuple-list clique
# scan that multlat.solvers replaced with bitmask kernels.  The new kernels
# must visit the same search tree, so they must return the same witnesses.


def _reference_degree_order(g: ZdGraph) -> list[int]:
    degs = [row.bit_count() for row in g.adj]
    return sorted(range(g.n_vertices), key=lambda k: (-degs[k], k))


def reference_k_colorable(g: ZdGraph, k: int, nodes: list | None = None
                           ) -> dict[int, int] | None:
    """A proper coloring with at most k colors, or None.

    Recursive backtracking with DSATUR selection by a linear scan (max
    saturation, then max degree, then lowest position), per-vertex sets of
    neighbour colours and new-color symmetry breaking.  The number of
    colours in use at each node is appended to ``nodes`` when it is given.
    """
    nv = g.n_vertices
    adj = g.adj
    colors = [-1] * nv
    neighbor_colors: list[set[int]] = [set() for _ in range(nv)]
    degs = [adj[i].bit_count() for i in range(nv)]

    def pick() -> int:
        best = -1
        key = (-1, -1, 0)
        for v in range(nv):
            if colors[v] < 0:
                cand = (len(neighbor_colors[v]), degs[v], -v)
                if cand > key:
                    key = cand
                    best = v
        return best

    def run(colored: int, max_used: int) -> bool:
        if nodes is not None:
            nodes.append(max_used + 1)
        if colored == nv:
            return True
        v = pick()
        limit = min(max_used + 1, k - 1)
        for c in range(limit + 1):
            if c in neighbor_colors[v]:
                continue
            colors[v] = c
            touched = []
            for w in _mask_bits(adj[v]):
                if colors[w] < 0 and c not in neighbor_colors[w]:
                    neighbor_colors[w].add(c)
                    touched.append(w)
            if run(colored + 1, max(max_used, c)):
                return True
            for w in touched:
                neighbor_colors[w].discard(c)
            colors[v] = -1
        return False

    if nv == 0:
        return {}
    if run(0, -1):
        return {g.vertices[i]: colors[i] for i in range(nv)}
    return None


def reference_clique(g: ZdGraph, nodes: list | None = None
                     ) -> tuple[int, tuple[int, ...]]:
    """(maximum clique size, witness) by branch and bound that lists each
    node's candidates as (vertex, greedy colour bound) pairs and scans the
    list from its end.  Each node's (clique mask, candidates) is appended
    to ``nodes`` when it is given."""
    nv = g.n_vertices
    if nv == 0:
        return 0, ()
    order = _reference_degree_order(g)
    newpos = {old: new for new, old in enumerate(order)}
    adj = [0] * nv
    for old_i, row in enumerate(g.adj):
        for old_j in _mask_bits(row):
            adj[newpos[old_i]] |= 1 << newpos[old_j]
    best_size = 0
    best_mask = 0

    def expand(rmask: int, rsize: int, cand: int) -> None:
        nonlocal best_size, best_mask
        if nodes is not None:
            nodes.append((rmask, cand))
        classes: list[int] = []
        rest = cand
        while rest:
            avail = rest
            cls = 0
            while avail:
                v = (avail & -avail).bit_length() - 1
                cls |= 1 << v
                avail &= ~(adj[v] | 1 << v)
            classes.append(cls)
            rest &= ~cls
        ordered: list[tuple[int, int]] = []
        for ci, cls in enumerate(classes):
            for v in _mask_bits(cls):
                ordered.append((v, ci + 1))
        p = cand
        for v, bound in reversed(ordered):
            if rsize + bound <= best_size:
                return
            nr = rmask | 1 << v
            np_ = p & adj[v]
            if np_:
                expand(nr, rsize + 1, np_)
            elif rsize + 1 > best_size:
                best_size = rsize + 1
                best_mask = nr
            p &= ~(1 << v)

    expand(0, 0, (1 << nv) - 1)
    return best_size, tuple(sorted(g.vertices[order[v]]
                                   for v in _mask_bits(best_mask)))


# ---------------------------------------------------------------------------
# Zero-divisor graphs read pairwise off their definitions


def reference_order_graph(lat: Lattice, ideal_mask: int):
    """(vertices, edges) of the order-sense graph: the elements outside I
    whose meet with some other element outside I is in I, and the pairs of
    distinct vertices whose meet is in I."""
    outside = [x for x in range(lat.n) if not ideal_mask >> x & 1]

    def zero(x, y):
        return bool(ideal_mask >> lat.meet[x][y] & 1)

    verts = [x for x in outside if any(y != x and zero(x, y) for y in outside)]
    return verts, [(v, w) for v in verts for w in verts if v < w and zero(v, w)]


def reference_mult_graph(ml, i: int):
    """(vertices, edges) of the multiplicative-sense graph at i: the elements
    not below i whose product with some element not below i, itself
    included, is <= i, and the pairs of distinct vertices with product
    <= i."""
    lat = ml.lattice
    below = lat.down[i]
    outside = [x for x in range(lat.n) if not below >> x & 1]

    def zero(x, y):
        return bool(below >> ml.product[x][y] & 1)

    verts = [x for x in outside if any(zero(x, y) for y in outside)]
    return verts, [(v, w) for v in verts for w in verts if v < w and zero(v, w)]


# ---------------------------------------------------------------------------
# Reference deciders for the facts cached on Lattice and MultLattice


def is_distributive(lat: Lattice) -> bool:
    """Whether x ^ (y v z) = (x ^ y) v (x ^ z) for every triple: the
    definition, checked over all n^3 triples.  The tests use it to pick the
    lattices on which the meet is an admissible product."""
    meet, join = lat.meet, lat.join
    xs = range(lat.n)
    return all(meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]]
               for x in xs for y in xs for z in xs)


def power(ml, a: int, k: int) -> int:
    """a^k for k >= 1 by k - 1 products."""
    acc = a
    for _ in range(k - 1):
        acc = ml.product[acc][a]
    return acc


def scan_annihilator_star(ml, a: int) -> int:
    """a*, read off its definition: the join of every x that some power
    a^k kills, k = 1..n.  The powers of a fall strictly until they stop, so
    by a^n they have stopped."""
    powers = {power(ml, a, k) for k in range(1, ml.n + 1)}
    bot = ml.lattice.bottom
    return ml.lattice.join_all(x for x in range(ml.n)
                               if any(ml.product[p][x] == bot for p in powers))


def scan_is_semiprime(ml, i: int) -> bool:
    """Whether a.a <= i implies a <= i, checked at every element a."""
    lat = ml.lattice
    below = ml.lattice.down[i]
    return all(below >> a & 1 or not below >> ml.product[a][a] & 1
               for a in range(ml.n))


def greedy_coloring(g: ZdGraph) -> Coloring:
    """First fit in the solvers' largest-degree-first order: the clique
    search's root classes, the greedy bound that ``chromatic_number``
    starts from, mapped back to ``g``."""
    order, adj = _relabel(g)
    classes = _max_clique(adj, _Deadline(None))[2]
    return _coloring(g, order, _class_colors(classes, len(adj)))


def minimal_prime_coloring(ml) -> Coloring:
    """Beck's colouring of the graph at the bottom, by its definition: each
    vertex gets the position of the first minimal prime element (ascending)
    it is not below.  In a reduced lattice the minimal primes meet to 0, so
    every vertex gets a colour, and adjacent vertices (product 0 <= p)
    cannot share one."""
    lat = ml.lattice
    primes = minimal_prime_elements(ml)
    assignment = {v: next(k for k, p in enumerate(primes) if not lat.up[v] >> p & 1)
                  for v in mult_zero_divisor_graph(ml).vertices}
    return Coloring(assignment)


def principal_join_irreducibles(lat: Lattice) -> tuple[int, ...]:
    """Elements x != 0 whose strictly-lower elements form a principal
    down-set, one set lookup each: in a finite lattice, those below x then
    have a greatest element m, and x is not their join."""
    principal = set(lat.down)
    return tuple(x for x in range(lat.n)
                 if x != lat.bottom and lat.down[x] ^ 1 << x in principal)


def scan_join_irreducibles(lat: Lattice) -> tuple[int, ...]:
    """Elements x != 0 that differ from the join of everything strictly
    below them, found by taking that join for each x."""
    return tuple(x for x in range(lat.n)
                 if x != lat.bottom and lat.join_all(_mask_bits(lat.down[x] & ~(1 << x))) != x)


def scan_is_prime_element(ml, p: int) -> bool:
    """p != 1 and a.b <= p forces a <= p or b <= p, checked over every pair
    of elements not below p: the O(n^2) definition that the join-irreducible
    test in multlat.multiplication is compared against."""
    lat = ml.lattice
    if p == lat.top:
        return False
    below = lat.down[p]
    outside = [a for a in range(ml.n) if not below >> a & 1]
    for a in outside:
        row = ml.product[a]
        for b in outside:
            if below >> row[b] & 1:
                return False
    return True


# ---------------------------------------------------------------------------
# Reduced instances whose product is not the meet


# On the 4-chain c0 < c1 < c2 < c3: c2.c2 = c1, every other product the
# smaller factor.
_CHAIN_SQUARE = ((0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 1, 2), (0, 1, 2, 3))


def chain_square_mult():
    """The 4-chain with c2.c2 = c1: reduced, with an empty graph."""
    lat = chain_lattice(4)
    table = [[lat.names[x] for x in row] for row in _CHAIN_SQUARE]
    return attach_multiplication(lat, "table", table)


def chain_square_times_two_chain():
    """The componentwise product of ``chain_square_mult`` with the 2-chain
    under its meet: 8 elements "(i,j)", i in 0..3, j in 0..1."""
    cells = [(i, j) for i in range(4) for j in range(2)]
    names = [f"({i},{j})" for i, j in cells]
    covers = [(f"({i},{j})", f"({i + 1},{j})") for i, j in cells if i < 3]
    covers += [(f"({i},0)", f"({i},1)") for i in range(4)]
    lat = build_lattice(names, covers, "covers")
    table = [[f"({_CHAIN_SQUARE[i][k]},{min(j, l)})" for k, l in cells]
             for i, j in cells]
    return attach_multiplication(lat, "table", table)


def distributive_kernel_not_a_clique():
    """0 < w < z < x, y < s < 1 with x.y = x.s = y.s = s.s = w, every other
    product of non-top elements 0, and 1 a unit: distributive, not reduced,
    and at 0 the vertices x with x.y = 0 for each vertex y < x are w, z, x
    and y, of which x and y are not adjacent.  z lies below both x and y,
    so the join-irreducibles do not form disjoint chains."""
    names = ["0", "w", "z", "x", "y", "s", "1"]
    covers = [("0", "w"), ("w", "z"), ("z", "x"), ("z", "y"), ("x", "s"),
              ("y", "s"), ("s", "1")]
    to_w = {("x", "y"), ("y", "x"), ("x", "s"), ("s", "x"), ("y", "s"),
            ("s", "y"), ("s", "s")}
    table = [[b if a == "1" else a if b == "1" else "w" if (a, b) in to_w else "0"
              for b in names] for a in names]
    return attach_multiplication(build_lattice(names, covers, "covers"), "table", table)


def fig3_under_a_new_bottom() -> dict:
    """The lattice file of fig3 under a new bottom "Z", with Z.x = Z and
    fig3's product elsewhere: 15 elements.  No a != Z has a.a = Z, so it is
    reduced, and fig3's bottom "0" is an atom.  Its graph at "0" is fig3's
    graph, with chi = 4 > omega = 3; "0" is not semiprime, as f.f = 0."""
    lat = fig3_lattice()
    names = ["Z", *lat.names]
    pairs = [["Z", x] for x in lat.names]
    pairs += [[lat.names[x], lat.names[y]] for x in range(lat.n)
              for y in range(lat.n) if lat.up[x] >> y & 1]
    table = [["Z"] * len(names)] + [["Z", *row] for row in fig3_table()]
    return {"elements": names, "order": {"kind": "leq", "pairs": pairs},
            "multiplication": {"kind": "table", "table": table}}


# ---------------------------------------------------------------------------
# Power walks and zero divisors read off their definitions


def two_walk_nilpotency_scan(ml) -> tuple[int, int] | None:
    """(a, k): the nonzero nilpotent a with the least exponent k, ties by
    index, or None.  Walks each element's powers to see whether it is
    nilpotent, then walks each nilpotent's powers again to count its
    exponent: the scan that reading the diagonal of the table replaced."""
    bot = ml.lattice.bottom

    def stable(a):
        p = a
        while ml.product[p][a] != p:
            p = ml.product[p][a]
        return p

    best = None
    for a in range(ml.n):
        if a == bot or stable(a) != bot:
            continue
        k, p = 1, a
        while p != bot:
            p = ml.product[p][a]
            k += 1
        if best is None or k < best[1]:
            best = (a, k)
    return best


def scan_has_nonzero_zero_divisor(ml) -> bool:
    """Whether a.b = 0 for some a, b != 0, by scanning all n^2 products."""
    bot = ml.lattice.bottom
    return any(ml.product[a][b] == bot
               for a in range(ml.n) if a != bot
               for b in range(ml.n) if b != bot)


def scan_prime_annihilator_pair(ml, primes) -> tuple[int, int] | None:
    """The first x < y, in index order, whose annihilators are distinct
    members of ``primes`` and whose product is not 0, by scanning all n^2
    pairs; None when there is none."""
    stars = [scan_annihilator_star(ml, a) for a in range(ml.n)]
    return next(((x, y) for x in range(ml.n) for y in range(x + 1, ml.n)
                 if stars[x] in primes and stars[y] in primes
                 and stars[x] != stars[y]
                 and ml.product[x][y] != ml.lattice.bottom), None)
