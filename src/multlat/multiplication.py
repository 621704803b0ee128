"""Multiplicative structure on a finite lattice.

A multiplication is an n-by-n index table verified exhaustively against five
axioms at attach time:

  M1  commutativity          a.b = b.a
  M2  associativity          a.(b.c) = (a.b).c
  M3  join distributivity    a.(b v c) = a.b v a.c, and a.0 = 0
  M4  below the meet         a.b <= a ^ b
  M5  top is a unit          a.1 = a

In a finite lattice the binary form of M3 plus a.0 = 0 gives the arbitrary
join form by induction, so the exhaustive check is complete.  On top of the
verified table this module computes powers, nilpotents, annihilators,
residuals and prime elements.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import AxiomViolation, IncompleteTable
from .lattice import Lattice

MULT_KINDS = ("table", "meet", "trivial")


@dataclass(frozen=True)
class MultLattice:
    """A lattice together with a verified multiplication table."""

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


def _verify_axioms(lat: Lattice, product: Sequence[Sequence[int]]) -> None:
    n = lat.n
    names = lat.names
    bot, top = lat.bottom, lat.top
    join = lat.join

    def fail(axiom: str, witness: tuple[int, ...], text: str) -> None:
        wnames = tuple(names[w] for w in witness)
        raise AxiomViolation(axiom, wnames, f"{axiom} fails at {wnames}: {text}")

    for a in range(n):
        if product[a][top] != a:
            fail("M5", (a,), f"{names[a]}*1 = {names[product[a][top]]}")
        if product[a][bot] != bot:
            fail("M3", (a, bot), f"{names[a]}*0 = {names[product[a][bot]]}")
        for b in range(a, n):
            if product[a][b] != product[b][a]:
                fail("M1", (a, b), "products differ under swap")
            if not lat.leq(product[a][b], lat.meet[a][b]):
                fail("M4", (a, b), "product is not below the meet")
    for a in range(n):
        pa = product[a]
        for b in range(n):
            pab = product[pa[b]]
            jb = join[b]
            pb = product[b]
            for c in range(n):
                if pab[c] != pa[pb[c]]:
                    fail("M2", (a, b, c), "associativity fails")
                if pa[jb[c]] != join[pa[b]][pa[c]]:
                    fail("M3", (a, b, c), "product does not distribute over join")


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


def stable_power(ml: MultLattice, a: int) -> int:
    """The limit of the decreasing power sequence a, a^2, a^3, ...

    M4 forces a^(k+1) <= a^k, so the sequence stabilizes within n steps; the
    limit is 0 precisely for nilpotent elements.
    """
    p = a
    while True:
        q = ml.product[p][a]
        if q == p:
            return p
        p = q


def is_nilpotent(ml: MultLattice, a: int) -> bool:
    """Whether a^k = 0 for some k >= 1."""
    return stable_power(ml, a) == ml.lattice.bottom


def nilpotency_witness(ml: MultLattice) -> tuple[int, int] | None:
    """A nonzero nilpotent with the smallest exponent, or None if reduced.

    Searches exponent-first (k = 2, 3, ...), ties broken by element index,
    so the witness has the minimal power that reaches 0.
    """
    bot = ml.lattice.bottom
    nilpotents = [a for a in range(ml.n) if a != bot and is_nilpotent(ml, a)]
    if not nilpotents:
        return None
    best: tuple[int, int] | None = None
    for a in nilpotents:
        k = 1
        p = a
        while p != bot:
            p = ml.product[p][a]
            k += 1
        if best is None or k < best[1]:
            best = (a, k)
    return best


def is_reduced(ml: MultLattice) -> bool:
    """Whether the only nilpotent element is 0."""
    return nilpotency_witness(ml) is None


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
    p = stable_power(ml, a)
    row = ml.product[p]
    return lat.join_all(x for x in range(ml.n) if row[x] == lat.bottom)


def residual(ml: MultLattice, a: int, b: int) -> int:
    """The residual (a : b): the largest x with x.b <= a."""
    lat = ml.lattice
    col = ml.product[b]
    r = lat.join_all(x for x in range(ml.n) if lat.leq(col[x], a))
    # The defining set is join-closed by M3, so the adjunction must hold.
    for x in range(ml.n):
        assert lat.leq(col[x], a) == lat.leq(x, r), "residual adjunction broken"
    return r


# ---------------------------------------------------------------------------
# Prime elements


def is_prime_element(ml: MultLattice, p: int) -> bool:
    """p != 1 and a.b <= p always forces a <= p or b <= p."""
    lat = ml.lattice
    if p == lat.top:
        return False
    n = ml.n
    outside = [a for a in range(n) if not lat.leq(a, p)]
    for a in outside:
        row = ml.product[a]
        for b in outside:
            if lat.leq(row[b], p):
                return False
    return True


def prime_elements(ml: MultLattice) -> list[int]:
    """All prime elements, ascending by element index."""
    return [p for p in range(ml.n) if is_prime_element(ml, p)]


def minimal_prime_elements(ml: MultLattice) -> list[int]:
    """The <=-minimal prime elements, ascending by element index."""
    primes = prime_elements(ml)
    lat = ml.lattice
    return [p for p in primes
            if not any(q != p and lat.leq(q, p) for q in primes)]


def maximal_annihilator_elements(ml: MultLattice) -> list[int]:
    """The <=-maximal members of {a* | a != 0, a* != 1}, deduplicated.

    Result is ascending by element index.
    """
    lat = ml.lattice
    stars = sorted({annihilator_star(ml, a)
                    for a in range(ml.n) if a != lat.bottom})
    stars = [s for s in stars if s != lat.top]
    return [s for s in stars if not any(t != s and lat.leq(s, t) for t in stars)]


def annihilator_map(ml: MultLattice) -> list[int]:
    """annihilator_star for every element, as a list indexed by element."""
    return [annihilator_star(ml, a) for a in range(ml.n)]
