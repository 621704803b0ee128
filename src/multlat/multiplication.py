"""Multiplicative structure on a finite lattice.

A multiplication is an n-by-n index table verified against five axioms at
attach time:

  M1  commutativity          a.b = b.a
  M2  associativity          a.(b.c) = (a.b).c
  M3  join distributivity    a.(b v c) = a.b v a.c, and a.0 = 0
  M4  below the meet         a.b <= a ^ b
  M5  top is a unit          a.1 = a

The check is exact but does not visit all n^3 triples.  M1, M4 and M5,
which imply a.0 = 0, are whole-row tests in O(n^2).  M3 is checked on the
cover graph: a.(b v j) = a.b v a.j for a and j among the join-irreducibles
J, in O(|J|^2 n), and each other nonzero row against the join of the rows
of two of its lower covers, in O(n^2) over all rows; M2 is checked on J^3
only (see ``_verify_axioms`` for why that suffices).  The tests compare
whole rows, and the M3 test on J compares two compositions of rows: with
pa the row of a, jj the column b -> b v j and jpa the join row of a.j,
b -> pa[jj[b]] is a.(b v j) and b -> jpa[pa[b]] is a.j v a.b, and
``operator.itemgetter`` builds each in C.  A failed test hands over to a
scan that names the witness an element-by-element check would name.

The two built-in products are admitted by theorem, with no scan of their
tables: the meet exactly when every join-irreducible j is join-prime (j
not below the join of the elements outside up(j)), n |J| joins in all, and
the trivial product exactly when the top has one lower cover or the
lattice has one element.  Only a product the theorem rejects goes through
the check above, which names its axiom and witness, or raises
SelfCheckError if it finds none; tables from files and Id(Z_n) always go
through it.  On top of the verified table this module computes
reducedness, annihilators and prime elements.

The annihilator of every element, each from one walk of that element's
powers, is cached on the ``MultLattice`` with ``functools.cached_property``,
as computing them again costs more than a cache miss.  The nilpotency
witness and the prime elements, read at most twice per analysis, are
computed on each call, as a cache miss costs more than either.  The public
functions return a fresh list each call.  Reducedness is read off the
diagonal of the table, with no power walk (see ``nilpotency_witness``).

Primality, semiprimeness and the annihilators are decided on J.  An element
p != 1 is prime exactly when a.b is not below p for all join-irreducibles
a, b not below p.  Any x not below p is the join of the join-irreducibles
below it, so one of them, a, is not below p either; M3 makes the product
monotone in each argument (x = x v a gives x.y = x.y v a.y), so x, y not
below p with x.y <= p give a <= x and b <= y in J, not below p, with
a.b <= x.y <= p.  Read as masks: the elements that a pair a, b in J rules
out are up(a.b) less up(a) and up(b), so the non-primes are 1 and the union
of those masks over the unordered pairs (M1) with a.b not a or b (others
rule out nothing): at most |J|^2/2 mask operations per instance for every
element at once (``_decide_primes``).  Semiprimeness is O(|J|) by the same
argument, and so is each annihilator (``annihilator_star``).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import eq, itemgetter
from typing import Sequence

from .errors import AxiomViolation, IncompleteTable, SelfCheckError
from .lattice import Lattice, _bits

MULT_KINDS = ("table", "meet", "trivial")


def check_mult_kind(kind: object) -> None:
    """Raise ValueError unless ``kind`` is one of ``MULT_KINDS``."""
    if kind not in MULT_KINDS:
        raise ValueError(
            f"multiplication kind must be one of {MULT_KINDS}, got {kind!r}")


@dataclass(frozen=True)
class MultLattice:
    """A lattice together with a verified multiplication table.

    The underscored cached property holds the annihilators, computed on
    first use; it is not a field, so it takes no part in ``==`` or hashing.
    """

    lattice: Lattice
    product: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return self.lattice.n

    @cached_property
    def _annihilators(self) -> tuple[int, ...]:
        return tuple([annihilator_star(self, a) for a in range(self.n)])


def _verify_axioms(lat: Lattice, product: Sequence[Sequence[int]]) -> None:
    """Raise AxiomViolation unless ``product`` satisfies M1-M5 on ``lat``.

    The pair axioms are whole-row tests: M1 is the table equal to its
    transpose; M4 is every value in row a lying in down(a), which with M1
    gives a.b = b.a <= a ^ b; M5 is read off the column of 1.  a.0 = 0
    needs no test of its own: M4 puts row 0 inside down(0) = {0}, and M1
    carries that to column 0.

    M3 is checked on the cover graph, in two phases, with J the
    join-irreducibles:

    (i)  a.(b v j) = a.b v a.j for a and j in J and every b, in |J|^2 n,
         as row a composed with the column of j against the join row of
         a.j composed with row a;
    (ii) for every c != 0 outside J, row c is the elementwise join of the
         rows of two of its lower covers, in (n - |J| - 1) n.

    Call row a good when a.(b v j) = a.b v a.j for every b and every j in J.
    Every row good implies M3: each c is 0 or a join c' v j with j in J, and
    by induction on such a decomposition a.(b v c' v j) = a.(b v c') v a.j =
    a.b v a.c' v a.j = a.b v a.c, with a.(b v 0) = a.b v a.0 from a.0 = 0.
    Row 0 is good, as 0.x = x.0 = 0 by M1.  A row in J that passes (i) is
    good by definition.  A row c that is the elementwise join of two good
    rows d and e is good: c.(b v j) = d.(b v j) v e.(b v j) = d.b v d.j v
    e.b v e.j = c.b v c.j.  So, going up the cover graph from 0, (i) and
    (ii) make every row good, and M3 holds.  Conversely M3 implies both: (i)
    is a case of it, and a nonzero c outside J has two or more lower
    covers, any two of which, d and e, join to c (d < d v e <= c, and c
    covers d), so c.x = x.(d v e) = x.d v x.e.  The two phases therefore
    decide M3 exactly.  (A row c in J also lies above the row of its one
    lower cover, but that follows from M3, so it is not checked.)

    With M1 and M3 in hand, (a.b).c and a.(b.c) both preserve joins and 0 in
    each argument, so agreeing on J^3 means agreeing everywhere, and M2 is
    checked on J^3 only.

    When a test fails, the scan that it stands for runs to name the
    witness, so the axiom and the witness are those the scans alone would
    report: the pair scan in row order, then the M3 scan of the rows that
    the phases left uncertified, in index order.  Phase (ii) certifies a
    row from two certified lower covers, so every certified row is good, and
    the first row the scan rejects is the first row that is not good.  A
    failed test whose scan finds nothing raises SelfCheckError.
    """
    rows = tuple([tuple(row) for row in product])
    if not _pair_axioms_hold(lat, rows):
        _pair_axiom_scan(lat, rows)
        raise SelfCheckError("the whole-row pair tests reject a table that "
                             "the pair scan accepts")
    uncertified = _m3_uncertified_rows(lat, rows)
    if uncertified:
        _m3_scan(lat, rows, uncertified)
        raise SelfCheckError("the cover-graph M3 phases reject a table that "
                             "the M3 scan accepts")
    irreducibles = lat.join_irreducibles
    for a in irreducibles:
        pa = rows[a]
        for b in irreducibles:
            pab, pb = rows[pa[b]], rows[b]
            for c in irreducibles:
                if pab[c] != pa[pb[c]]:
                    _fail(lat, "M2", (a, b, c), "associativity fails")


def _fail(lat: Lattice, axiom: str, witness: tuple[int, ...], text: str) -> None:
    wnames = tuple([lat.names[w] for w in witness])
    raise AxiomViolation(axiom, wnames, f"{axiom} fails at {wnames}: {text}")


def _pair_axioms_hold(lat: Lattice, rows: tuple[tuple[int, ...], ...]) -> bool:
    """M1, M4 and M5, each as a test on whole rows or columns; together
    they imply a.0 = 0."""
    return (all(map(eq, rows, zip(*rows)))
            and [pa[lat.top] for pa in rows] == [*range(lat.n)]
            # the mask of the values in row a lies inside down(a)
            and all([sum(map((1).__lshift__, set(pa))) & ~d == 0
                     for d, pa in zip(lat.down, rows)]))


def _pair_axiom_scan(lat: Lattice, rows: tuple[tuple[int, ...], ...]) -> None:
    """Raise for the first pair-axiom failure, with a <= b in row order:
    M5 and a.0 = 0 for a, then M1 and M4 for each b."""
    names, bot, top = lat.names, lat.bottom, lat.top
    up, meet = lat.up, lat.meet
    for a in range(lat.n):
        pa = rows[a]
        if pa[top] != a:
            _fail(lat, "M5", (a,), f"{names[a]}*1 = {names[pa[top]]}")
        if pa[bot] != bot:
            _fail(lat, "M3", (a, bot), f"{names[a]}*0 = {names[pa[bot]]}")
        ma = meet[a]
        for b in range(a, lat.n):
            p = pa[b]
            if p != rows[b][a]:
                _fail(lat, "M1", (a, b), "products differ under swap")
            if not up[p] >> ma[b] & 1:
                _fail(lat, "M4", (a, b), "product is not below the meet")


def _distributes(pa: tuple[int, ...], jj: tuple[int, ...], jpa: tuple[int, ...]) -> bool:
    """a.(b v j) = a.b v a.j for every b, given row a, the column
    b -> b v j and the row of a.j in the join table, as two compositions
    of rows (module docstring).  J is empty when n = 1, so the rows here
    have two or more entries and itemgetter returns tuples."""
    return itemgetter(*jj)(pa) == itemgetter(*pa)(jpa)


def _m3_uncertified_rows(lat: Lattice, rows: tuple[tuple[int, ...], ...]) -> list[int]:
    """The rows that phases (i) and (ii) do not certify as good, ascending;
    empty exactly when M3 holds (see ``_verify_axioms``).  Phase (ii) joins
    the rows of the first two certified lower covers of c, so that one bad
    row below c does not leave c uncertified."""
    join, down = lat.join, lat.down
    irreducibles = lat.join_irreducibles
    lower = lat.lower_covers
    good = [False] * lat.n
    good[lat.bottom] = True
    for a in irreducibles:
        pa = rows[a]
        # join is symmetric, so join[j] is the column b -> b v j.
        good[a] = all(_distributes(pa, join[j], join[pa[j]]) for j in irreducibles)
    # Lower covers have fewer elements below them, so they come first.
    for c in sorted(range(lat.n), key=lambda c: down[c].bit_count()):
        if len(lower[c]) < 2:
            continue  # 0 or a join-irreducible
        certified = [d for d in lower[c] if good[d]]
        if len(certified) >= 2:
            d, e = certified[0], certified[1]
            good[c] = [join[x][y] for x, y in zip(rows[d], rows[e])] == [*rows[c]]
    return [a for a, ok in enumerate(good) if not ok]


def _m3_scan(lat: Lattice, rows: tuple[tuple[int, ...], ...], scan: list[int]) -> None:
    """Raise for the first a in ``scan``, then the first j in J, then the
    first b with a.(b v j) != a.b v a.j."""
    join = lat.join
    for a in scan:
        pa = rows[a]
        for j in lat.join_irreducibles:
            jj, jpa = join[j], join[pa[j]]
            if not _distributes(pa, jj, jpa):
                b = next(b for b, x in enumerate(jj) if pa[x] != jpa[pa[b]])
                _fail(lat, "M3", (a, b, j), "product does not distribute over join")


def _checked(lat: Lattice, product: tuple[tuple[int, ...], ...]) -> MultLattice:
    """``product`` attached to ``lat`` once every axiom holds on it."""
    _verify_axioms(lat, product)
    return MultLattice(lat, product)


def _irreducibles_join_prime(lat: Lattice) -> bool:
    """Whether every j in J is join-prime: j is not below the join of the
    elements outside up(j).  One join per j, n |J| in all."""
    full = (1 << lat.n) - 1
    return not any(lat.up[j] >> lat.join_all(_bits(full & ~lat.up[j])) & 1
                   for j in lat.join_irreducibles)


def _top_has_one_lower_cover(lat: Lattice) -> bool:
    """Whether the trivial product is admissible: the top has one lower
    cover, or the lattice has one element (``attach_multiplication``)."""
    return lat.n == 1 or len(lat.lower_covers[lat.top]) == 1


def attach_multiplication(lat: Lattice, kind: str = "meet",
                          table: Sequence[Sequence[str]] | None = None) -> MultLattice:
    """Attach a multiplication to a lattice and verify every axiom.

    kind="table" takes a complete n-by-n table of element names (row-major in
    element order) and runs the full check.  The two built-in products are
    admitted by theorem; the full check runs on one only when the theorem
    rejects it, so that the AxiomViolation names its axiom and witness.

    kind="meet" uses x.y = x ^ y.  M1, M2, M4, M5 and a.0 = 0 hold for any
    meet, and M3 is distributivity, which holds exactly when every j in J
    is join-prime.  If every j is, mapping x to the set of j in J below it
    embeds the lattice in a power set, which is distributive.  Conversely, if j <= a v b,
    distributivity gives j = (j ^ a) v (j ^ b), and j is join-irreducible,
    so j <= a or j <= b.

    kind="trivial" uses x.y = 0 for x, y != 1 and x.1 = x, admissible
    exactly when the top has one lower cover, or the lattice has one
    element.  M1, M2, M4, M5 and a.0 = 0 always hold.  M3 fails exactly
    at an a outside {0, 1} and b v c = 1 with b, c < 1, where a.(b v c) = a
    and a.b v a.c = 0; b and c exist exactly when the top has two or more
    lower covers, as two of them join to 1, and two elements below the
    only lower cover join below it.

    Raises ValueError for any other kind, IncompleteTable for a malformed
    table and AxiomViolation (with the axiom id and a witness) when
    verification fails; SelfCheckError when the theorem rejects a built-in
    product on which every axiom holds.
    """
    check_mult_kind(kind)
    n = lat.n
    if kind == "meet":
        product = lat.meet
        admissible = _irreducibles_join_prime(lat)
    elif kind == "trivial":
        row, rows = [lat.bottom] * n, []
        for i in range(n):
            row[lat.top] = i  # x.1 = x, and x.y = 0 for y != 1
            rows.append(tuple(row))
        rows[lat.top] = tuple(range(n))
        product = tuple(rows)
        admissible = _top_has_one_lower_cover(lat)
    else:
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
            try:
                resolved = itemgetter(*row)(index)
            except (KeyError, TypeError):  # TypeError: unhashable entry
                j, name = next((j, x) for j, x in enumerate(row)
                               if not isinstance(x, str) or x not in index)
                raise IncompleteTable(
                    f"table entry ({i},{j}) names unknown element {name!r}") from None
            # With one name, itemgetter returns the bare index.
            rows.append(resolved if n > 1 else (resolved,))
        return _checked(lat, tuple(rows))
    if not admissible:
        _verify_axioms(lat, product)
        raise SelfCheckError(f"the theorem rejects the {kind} product, but "
                             "every axiom holds on its table")
    return MultLattice(lat, product)


# ---------------------------------------------------------------------------
# Powers, nilpotents, reducedness


def _power_walk(product: Sequence[Sequence[int]], a: int) -> int:
    """The stable power of a: the first a^k with a^(k+1) = a^k.

    M4 forces a^(k+1) <= a^k, so the powers strictly decrease until two
    consecutive ones agree, and from there on they all equal that one.
    """
    p = a
    while (q := product[p][a]) != p:
        p = q
    return p


def nilpotency_witness(ml: MultLattice) -> tuple[int, int] | None:
    """(a, 2) for the first nonzero a with a.a = 0, or None if reduced.

    That is the nonzero nilpotent with the least exponent, ties by index:
    if a != 0 and k >= 2 is least with a^k = 0, then b = a^(k-1) != 0 and
    b.b = a^k . a^(k-2) = 0, so the lattice is reduced exactly when no
    nonzero element squares to 0.  One scan of the diagonal.
    """
    return _nilpotency_scan(ml)


def _nilpotency_scan(ml: MultLattice) -> tuple[int, int] | None:
    bot, product = ml.lattice.bottom, ml.product
    a = next((a for a in range(ml.n) if a != bot and product[a][a] == bot), None)
    return None if a is None else (a, 2)


def is_reduced(ml: MultLattice) -> bool:
    """Whether the only nilpotent element is 0."""
    return _nilpotency_scan(ml) is None


def _check_index(ml: MultLattice, x: int) -> None:
    if not 0 <= x < ml.n:
        raise IndexError(f"element index {x} is outside 0..{ml.n - 1}")


def is_semiprime(ml: MultLattice, i: int) -> bool:
    """Whether a.a <= i implies a <= i; at the bottom, reducedness.  Tested
    on the squares of the j in J not below i (module docstring).
    IndexError for an i outside 0..n-1."""
    _check_index(ml, i)
    below = ml.lattice.down[i]
    return not any(below >> ml.product[j][j] & 1
                   for j in ml.lattice.join_irreducibles if not below >> j & 1)


# ---------------------------------------------------------------------------
# Annihilators


def annihilator_star(ml: MultLattice, a: int) -> int:
    """Join of every x killed by some power of a.

    That is the join of S = {x | p.x = 0}, p the stable power of a (powers
    decrease, so annihilating any power is annihilating the stable one).
    For reduced lattices this coincides with the join of {x | x.a = 0}.
    By M3, S is a down-set closed under joins, so it is down(V S), and
    only its join-irreducibles are joined.  ``annihilator_map`` caches it
    for every element.  IndexError for an a outside 0..n-1.
    """
    _check_index(ml, a)
    lat = ml.lattice
    row = ml.product[_power_walk(ml.product, a)]
    return lat.join_all([j for j in lat.join_irreducibles if row[j] == lat.bottom])


# ---------------------------------------------------------------------------
# Prime elements


def _decide_primes(ml: MultLattice) -> int:
    """The mask of the prime elements: every element but 1 and those in
    up(a.b) less up(a) and up(b) for a pair a, b in J (module docstring)."""
    lat = ml.lattice
    up, irreducibles = lat.up, lat.join_irreducibles
    ruled_out = 1 << lat.top
    for i, a in enumerate(irreducibles):
        row, ua = ml.product[a], up[a]
        for b in irreducibles[i:]:
            if (ab := row[b]) != a and ab != b:
                ruled_out |= up[ab] & ~(ua | up[b])
    return ((1 << lat.n) - 1) & ~ruled_out


def prime_elements(ml: MultLattice) -> list[int]:
    """All prime elements, ascending by element index (``_decide_primes``)."""
    primes = _decide_primes(ml)
    return [p for p in range(ml.n) if primes >> p & 1]


def minimal_prime_elements(ml: MultLattice) -> list[int]:
    """The <=-minimal prime elements, ascending by element index."""
    return ml.lattice.minimal(prime_elements(ml))


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
