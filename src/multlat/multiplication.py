"""Multiplicative structure on a finite lattice.

A multiplication is an n-by-n index table verified against five axioms at
attach time:

  M1  commutativity          a.b = b.a
  M2  associativity          a.(b.c) = (a.b).c
  M3  join distributivity    a.(b v c) = a.b v a.c, and a.0 = 0
  M4  below the meet         a.b <= a ^ b
  M5  top is a unit          a.1 = a

The check is exact but does not visit all n^3 triples.  Every element is a
join of join-irreducibles, and a product that distributes over joins is
fixed by its values on them, so M3 is checked with c ranging over the
join-irreducibles J only, in O(n^2 |J|), and M2 on J^3 only (see
``_verify_axioms`` for why that suffices).  On top of the verified table
this module computes powers, nilpotents, annihilators, residuals and prime
elements.

The facts the analysis asks for more than once are computed once per
``MultLattice`` and cached on it with ``functools.cached_property``: the
stable power of each element (read by ``stable_power``, ``is_nilpotent``
and the annihilators), the nilpotency witness, the annihilator of every
element and the prime elements.  The public functions return a fresh list
each call.  Reducedness is read off the diagonal of the table, with no
power walk (see ``nilpotency_witness``).

Primality is decided on J x J.  An element p != 1 is prime exactly when
a.b is not below p for all join-irreducibles a, b not below p.  Any x not
below p is the join of the join-irreducibles below it, so one of them, a,
is not below p either; M3 makes the product monotone in each argument
(x = x v a gives x.y = x.y v a.y), so x, y not below p with x.y <= p give
a <= x and b <= y in J, not below p, with a.b <= x.y <= p.  The cost per
element is O(|J|^2) instead of O(n^2).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import AxiomViolation, IncompleteTable, SelfCheckError
from .lattice import Lattice

MULT_KINDS = ("table", "meet", "trivial")


@dataclass(frozen=True)
class MultLattice:
    """A lattice together with a verified multiplication table.

    The underscored cached properties hold facts computed on first use; they
    are not fields, so they take no part in ``==`` or hashing.
    """

    lattice: Lattice
    product: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return self.lattice.n

    @property
    def names(self) -> tuple[str, ...]:
        return self.lattice.names

    def prod(self, x: int, y: int) -> int:
        return self.product[x][y]

    @cached_property
    def _stable_powers(self) -> tuple[int, ...]:
        return tuple([_power_walk(self.product, a) for a in range(self.n)])

    @cached_property
    def _nilpotency_witness(self) -> tuple[int, int] | None:
        return _nilpotency_scan(self)

    @cached_property
    def _annihilators(self) -> tuple[int, ...]:
        return tuple([annihilator_star(self, a) for a in range(self.n)])

    @cached_property
    def _prime_elements(self) -> tuple[int, ...]:
        return tuple([p for p in range(self.n) if is_prime_element(self, p)])


def _verify_axioms(lat: Lattice, product: Sequence[Sequence[int]]) -> None:
    """Raise AxiomViolation unless ``product`` satisfies M1-M5 on ``lat``.

    M5, a.0 = 0, M1 and M4 are checked on all pairs.  M3 is then checked as
    a.(b v j) = a.b v a.j for every a, b and every join-irreducible j.  That
    implies M3 for every c, in any finite lattice: c is 0 or a join
    c' v j with j join-irreducible, and by induction on such a decomposition
    a.(b v c' v j) = a.(b v c') v a.j = a.b v a.c' v a.j = a.b v a.c, with
    a.(b v 0) = a.b v a.0 from a.0 = 0.  With M1 and M3 in hand, (a.b).c and
    a.(b.c) both preserve joins and 0 in each argument, so agreeing on J^3
    means agreeing everywhere, and M2 is checked on J^3 only.  The cost is
    O(n^2 |J|), and every witness violates the axiom it is reported under.
    """
    n = lat.n
    names = lat.names
    bot, top = lat.bottom, lat.top
    up, meet, join = lat.up, lat.meet, lat.join

    def fail(axiom: str, witness: tuple[int, ...], text: str) -> None:
        wnames = tuple(names[w] for w in witness)
        raise AxiomViolation(axiom, wnames, f"{axiom} fails at {wnames}: {text}")

    for a in range(n):
        pa = product[a]
        if pa[top] != a:
            fail("M5", (a,), f"{names[a]}*1 = {names[pa[top]]}")
        if pa[bot] != bot:
            fail("M3", (a, bot), f"{names[a]}*0 = {names[pa[bot]]}")
        ma = meet[a]
        for b in range(a, n):
            p = pa[b]
            if p != product[b][a]:
                fail("M1", (a, b), "products differ under swap")
            if not up[p] >> ma[b] & 1:
                fail("M4", (a, b), "product is not below the meet")
    irreducibles = lat.join_irreducibles()
    for a in range(n):
        pa = product[a]
        for j in irreducibles:
            # join is symmetric, so join[j] is the column b -> b v j.
            jj, jpa = join[j], join[pa[j]]
            lhs = [pa[x] for x in jj]     # a.(b v j) for every b
            rhs = [jpa[x] for x in pa]    # a.b v a.j for every b
            if lhs != rhs:
                b = next(b for b in range(n) if lhs[b] != rhs[b])
                fail("M3", (a, b, j), "product does not distribute over join")
    for a in irreducibles:
        pa = product[a]
        for b in irreducibles:
            pab, pb = product[pa[b]], product[b]
            for c in irreducibles:
                if pab[c] != pa[pb[c]]:
                    fail("M2", (a, b, c), "associativity fails")


def attach_multiplication(lat: Lattice, kind: str = "meet",
                          table: Sequence[Sequence[str]] | None = None) -> MultLattice:
    """Attach a multiplication to a lattice and verify every axiom.

    kind="table" takes a complete n-by-n table of element names (row-major in
    element order).  kind="meet" uses x.y = x ^ y, which is admissible exactly
    on distributive lattices.  kind="trivial" uses x.y = 0 for x, y != 1 and
    x.1 = x, admissible exactly when the top is join-irreducible.

    Raises IncompleteTable for a malformed table and AxiomViolation (with the
    axiom id and a witness) when verification fails.
    """
    n = lat.n
    if kind == "meet":
        product = lat.meet
    elif kind == "trivial":
        rows = []
        for i in range(n):
            if i == lat.top:
                rows.append(tuple(range(n)))
            else:
                rows.append(tuple(i if j == lat.top else lat.bottom for j in range(n)))
        product = tuple(rows)
    elif kind == "table":
        if table is None:
            raise IncompleteTable("table mode requires a multiplication table")
        if len(table) != n:
            raise IncompleteTable(f"table has {len(table)} rows, expected {n}")
        index = {name: k for k, name in enumerate(lat.names)}
        rows = []
        for i, row in enumerate(table):
            if len(row) != n:
                raise IncompleteTable(
                    f"table row {i} has {len(row)} entries, expected {n}")
            out = []
            for j, name in enumerate(row):
                try:
                    out.append(index[name])
                except (KeyError, TypeError):  # TypeError: unhashable entry
                    raise IncompleteTable(
                        f"table entry ({i},{j}) names unknown element {name!r}") from None
            rows.append(tuple(out))
        product = tuple(rows)
    else:
        raise ValueError(f"unknown multiplication kind {kind!r}")

    _verify_axioms(lat, product)
    return MultLattice(lat, product)


# ---------------------------------------------------------------------------
# Powers, nilpotents, reducedness


def power(ml: MultLattice, a: int, k: int) -> int:
    """a^k for k >= 1 by iterated product."""
    if k < 1:
        raise ValueError("exponent must be >= 1")
    acc = a
    for _ in range(k - 1):
        acc = ml.product[acc][a]
    return acc


def _power_walk(product: Sequence[Sequence[int]], a: int) -> int:
    """The stable power of a: the first a^k with a^(k+1) = a^k.

    M4 forces a^(k+1) <= a^k, so the powers strictly decrease until two
    consecutive ones agree, and from there on they all equal that one.
    """
    p = a
    while (q := product[p][a]) != p:
        p = q
    return p


def stable_power(ml: MultLattice, a: int) -> int:
    """The limit of the decreasing power sequence a, a^2, a^3, ..., which
    is 0 precisely for nilpotent elements.  Read off the cached walk."""
    return ml._stable_powers[a]


def is_nilpotent(ml: MultLattice, a: int) -> bool:
    """Whether a^k = 0 for some k >= 1."""
    return stable_power(ml, a) == ml.lattice.bottom


def nilpotency_witness(ml: MultLattice) -> tuple[int, int] | None:
    """(a, 2) for the first nonzero a with a.a = 0, or None if reduced.

    That is the nonzero nilpotent with the least exponent, ties by index:
    if a != 0 and k >= 2 is least with a^k = 0, then b = a^(k-1) != 0 and
    b.b = a^k . a^(k-2) = 0, so the lattice is reduced exactly when no
    nonzero element squares to 0.  Cached on ``ml``.
    """
    return ml._nilpotency_witness


def _nilpotency_scan(ml: MultLattice) -> tuple[int, int] | None:
    bot, product = ml.lattice.bottom, ml.product
    a = next((a for a in range(ml.n) if a != bot and product[a][a] == bot), None)
    return None if a is None else (a, 2)


def is_reduced(ml: MultLattice) -> bool:
    """Whether the only nilpotent element is 0."""
    return ml._nilpotency_witness is None


# ---------------------------------------------------------------------------
# Annihilators and residuals


def annihilator_star(ml: MultLattice, a: int) -> int:
    """Join of every x killed by some power of a.

    Computed as the join of {x | p.x = 0} where p is the stable power of a
    (powers decrease, so annihilating any power is annihilating the stable
    one).  For reduced lattices this coincides with the join of
    {x | x.a = 0}.
    """
    lat = ml.lattice
    row = ml.product[stable_power(ml, a)]
    return lat.join_all(x for x in range(ml.n) if row[x] == lat.bottom)


def residual(ml: MultLattice, a: int, b: int) -> int:
    """The residual (a : b): the largest x with x.b <= a."""
    lat = ml.lattice
    col = ml.product[b]
    r = lat.join_all(x for x in range(ml.n) if lat.leq(col[x], a))
    # The defining set is join-closed by M3, so the adjunction must hold.
    for x in range(ml.n):
        if lat.leq(col[x], a) != lat.leq(x, r):
            raise SelfCheckError(
                f"residual ({ml.names[a]} : {ml.names[b]}) = {ml.names[r]} breaks "
                f"the adjunction at {ml.names[x]}; the product does not "
                "distribute over joins")
    return r


# ---------------------------------------------------------------------------
# Prime elements


def is_prime_element(ml: MultLattice, p: int) -> bool:
    """p != 1 and a.b <= p always forces a <= p or b <= p.

    Decided on pairs of join-irreducibles not below p, which is exact (see
    the module docstring); by M1 each unordered pair is tried once.
    """
    lat = ml.lattice
    if p == lat.top:
        return False
    below = lat.down[p]
    outside = [a for a in lat.join_irreducibles() if not below >> a & 1]
    for i, a in enumerate(outside):
        row = ml.product[a]
        for b in outside[i:]:
            if below >> row[b] & 1:
                return False
    return True


def prime_elements(ml: MultLattice) -> list[int]:
    """All prime elements, ascending by element index.  Cached on ``ml``."""
    return list(ml._prime_elements)


def minimal_prime_elements(ml: MultLattice) -> list[int]:
    """The <=-minimal prime elements, ascending by element index."""
    return ml.lattice.minimal(ml._prime_elements)


def maximal_annihilator_elements(ml: MultLattice) -> list[int]:
    """The <=-maximal members of {a* | a != 0, a* != 1}, deduplicated.

    Result is ascending by element index.
    """
    lat = ml.lattice
    return lat.maximal(s for a, s in enumerate(ml._annihilators)
                       if a != lat.bottom and s != lat.top)


def annihilator_map(ml: MultLattice) -> list[int]:
    """annihilator_star for every element, as a list indexed by element.
    Cached on ``ml``."""
    return list(ml._annihilators)
