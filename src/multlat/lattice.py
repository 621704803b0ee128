"""Finite bounded lattices: construction, validation, and order machinery.

Elements are identified by their index into a fixed name tuple; names only
matter at the I/O boundary.  The order relation is kept as per-element
bitmasks (``up[i]`` is the set of elements above ``i``), any other set of
elements, such as an ideal, is a bitmask with bit i for element i, and
meet/join are precomputed n-by-n index tables so that everything downstream
is a table lookup.  All objects here are immutable after construction and
safe to share.

Both kinds of order relation are closed in one pass over the elements in
reverse topological order, each element's up-mask the union of its direct
successors', and one pass back builds the down-masks the same way.  A cover
relation is an order exactly when the pass finds no cycle, a ``leq``
relation when it also adds no pair; only a relation the pass rejects runs
the pairwise scans, to name the fault.

The join table comes from one walk, ``_join_table``, which looks up the
rows of a core and composes every other row from two rows already built;
run on the dual order, the same walk builds the meet table.
``build_lattice``'s docstring proves both tables exact, and says how a
missing entry becomes the error that names a pair with no meet or join.

The cover structure is part of every ``Lattice``: ``build_lattice`` reads
the lower covers, the upper covers and the join-irreducibles (the x with
one lower cover) off the walk its tables use, and stores them as fields
that take no part in ``==``, hashing or ``repr``.  The modularity test, the
atoms and the multiplication's axiom check, primality and annihilators all
read them there.  The N5 witness is computed on first use and cached on
the lattice with ``functools.cached_property``: Id(Z_n) asks for it twice,
in its self-check and in the report, and the covering-pair test costs
more than a cache miss.  The 0-distributivity witness, whose atom test
costs less than a miss, is computed on each call.  Each is decided on its
smallest exact core before any cubic scan runs:

* modularity is decided as upper plus lower semimodularity on covering
  pairs (Birkhoff's condition: two covers of one element have a join that
  covers both, and dually), which is exact for finite lattices (Gratzer,
  *Lattice Theory: Foundation*, 2011); the x <= z scan of the modular law
  runs only when that test fails, to name the first pentagon;
* 0-distributivity needs a ^ V{b | a ^ b = 0} = 0 only for the atoms a,
  one set lookup each; the triple scan runs only when that fails, to name
  the first witness.

Python's unbounded ints make the bitmask representation work for lattices
of a few hundred elements.  Measured on a shared 2-core Xeon (best of 7),
a 256-element boolean lattice builds from its covers in 5-8 ms, and
Id(Z_73513440), 768 elements, builds with its multiplication checked in
0.19 s (best of 5).
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cache, cached_property
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import NoBoundedStructure, NotALattice, NotAPartialOrder, SelfCheckError

#: The most elements a lattice from outside input may have: a lattice file,
#: or Id(Z_n) for ``ring --modulus`` and ``divisor:N``.  A 1024-element
#: Id(Z_n) builds in about 0.33 s and analyses in about 0.011 s; twice that
#: size once took 3.7 s and 2.8 s (shared 2-core Xeon).  It caps ``chain:K``
#: as well: chain:1024 builds in 0.62-0.65 s, takes the meet in 0.09 s and
#: the trivial product in 0.01 s, and analyses in 0.19-0.21 s and
#: 0.45-0.47 s (fresh instances, Python 3.11).
MAX_INPUT_ELEMENTS = 1024


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


#: The largest stride whose masks ``_transpose_rounds`` keeps.
_KEPT_STRIDE = 1 << (MAX_INPUT_ELEMENTS - 1).bit_length()


#: The ``struct`` code of the unsigned word of each stride up to 64 bits, in
#: standard sizes: with "<" the packing is little-endian on every platform.
_WORD_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


@cache
def _transpose_rounds(s: int) -> tuple[tuple[int, int], ...]:
    """The (shift, mask) of each round of ``_transposed`` at stride s: for
    b = s/2, ..., 1, the shift b(s - 1) and the mask of the entries (r, c)
    with bit b clear in r and set in c.  At s = 1024 they hold 1.3 MB, the
    most that a lattice within ``MAX_INPUT_ELEMENTS`` needs; ``_transposed``
    builds those of a larger stride for the one call (24 MB at 4096)."""
    rounds = []
    zero = bytes(s // 8)
    b = s // 2
    while b:
        row = sum([1 << c for c in range(s) if c & b]).to_bytes(s // 8, "little")
        mask = b"".join([zero if r & b else row for r in range(s)])
        rounds.append((b * (s - 1), int.from_bytes(mask, "little")))
        b //= 2
    return tuple(rounds)


def _transposed(rows: Sequence[int], n: int) -> list[int]:
    """The n columns of the bit matrix ``rows``, each row below ``1 << n``:
    bit r of column c is bit c of ``rows[r]``.

    The rows are packed s bits apart, s the least power of two that is at
    least 8, n and ``len(rows)``, into one s x s matrix with entry (r, c) at
    bit rs + c.  Round b swaps the off-diagonal b x b blocks of every 2b x 2b
    block: each (r, c) with bit b clear in r and set in c trades places with
    (r + b, c - b), b(s - 1) bits up.  After the rounds for b = s/2, ..., 1
    every entry has traded each bit of its row for that of its column.

    At strides 8 to 64 the rows are packed, and the columns unpacked, by one
    ``struct`` call each on words of the stride (``_WORD_CODES``); above 64
    each row is converted to bytes and joined, and each column sliced and
    converted back.  Both are little-endian with standard sizes, so the
    result does not depend on the platform.
    """
    s = 1 << (max(n, len(rows), 8) - 1).bit_length()
    width = s // 8
    code = _WORD_CODES.get(s)
    if code is not None:
        packed = struct.pack(f"<{len(rows)}{code}", *rows)
    else:
        packed = b"".join([row.to_bytes(width, "little") for row in rows])
    x = int.from_bytes(packed, "little")
    rounds = _transpose_rounds if s <= _KEPT_STRIDE else _transpose_rounds.__wrapped__
    for shift, mask in rounds(s):
        t = (x ^ x >> shift) & mask
        x ^= t ^ t << shift
    packed = x.to_bytes(n * width, "little")  # the columns past n are 0
    if code is not None:
        return list(struct.unpack(f"<{n}{code}", packed))
    return [int.from_bytes(packed[i:i + width], "little")
            for i in range(0, n * width, width)]


def _extremal(xs: Iterable[int], cone: tuple[int, ...]) -> list[int]:
    """The x of S = mask(xs), ascending, whose cone meets S only in x."""
    s = 0
    for x in xs:
        s |= 1 << x
    return [x for x in _bits(s) if cone[x] & s == 1 << x]


@dataclass(frozen=True)
class Lattice:
    """A finite bounded lattice over named elements.

    ``up[i]`` / ``down[i]`` are bitmasks of the elements weakly above/below
    ``i``; ``meet`` and ``join`` are index tables; ``bottom`` and ``top`` are
    the indices of the least and greatest elements.  ``lower_covers[x]``
    and ``upper_covers[x]`` are the elements x covers and is covered by,
    and ``join_irreducibles`` the x with one lower cover, all ascending;
    every element is the join of the join-irreducibles below it.  These,
    and the underscored cached property, take no part in ``==`` or
    hashing.  They are derived from ``up`` and ``down`` and trusted by
    every check on the lattice, so a Lattice is made by ``build_lattice``.
    """

    names: tuple[str, ...]
    up: tuple[int, ...]
    down: tuple[int, ...]
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]
    bottom: int
    top: int
    lower_covers: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    upper_covers: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    join_irreducibles: tuple[int, ...] = field(compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.names)

    def join_all(self, xs: Iterable[int]) -> int:
        acc = self.bottom
        for x in xs:
            acc = self.join[acc][x]
        return acc

    def minimal(self, xs: Iterable[int]) -> list[int]:
        """The <=-minimal members of ``xs``, ascending and deduplicated: the
        x in S with ``down[x] & S == 1 << x``, where S is the mask of xs."""
        return _extremal(xs, self.down)

    def maximal(self, xs: Iterable[int]) -> list[int]:
        """The <=-maximal members of ``xs``, ascending and deduplicated: the
        x in S with ``up[x] & S == 1 << x``."""
        return _extremal(xs, self.up)

    def is_ideal(self, mask: int) -> bool:
        """Whether the set D of elements in ``mask``, which must lie in
        ``0 <= mask < 1 << n``, is an ideal: a non-empty down-set closed
        under binary join.

        Decided as ``down[V D] == D`` for the join V D of the members: a
        finite non-empty down-set D closed under joins holds V D, so
        D <= down(V D) <= D; conversely down(m) is a non-empty down-set
        closed under joins, and V down(m) = m.  So D is an ideal exactly
        when it is principal, with V D as its generator.  The empty set
        fails the test, as V {} = 0 and down(0) = {0}.
        """
        return self.down[self.join_all(_bits(mask))] == mask

    def atoms(self) -> tuple[int, ...]:
        """Elements covering bottom, ascending."""
        return self.upper_covers[self.bottom]

    @cached_property
    def _n5_witness(self) -> tuple[int, int, int, int, int] | None:
        if _covers_semimodular(self):
            return None
        if (witness := _modularity_scan(self)) is None:
            raise SelfCheckError("the covering-pair test rejects a lattice "
                                 "in which the modular-law scan finds no pentagon")
        return witness


def _covers_below(up: Sequence[int], down: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The lower covers of every element of the order with these masks,
    ascending: the maximal elements strictly below it.

    Each is found by walking up from the lowest-indexed element left below
    y to a maximal one, which is a cover; its down-set is then dropped.
    The cost is a walk per cover, not a test per element below y.  Each
    step goes to the highest-indexed element above, so that where the
    index order extends the order, as in chains, the first step lands on
    a maximal element; where it reverses it, the walk starts on one.
    """
    out = []
    for y, dy in enumerate(down):
        rest = dy ^ 1 << y
        covers = []
        while rest:
            x = (rest & -rest).bit_length() - 1
            above = rest & up[x] ^ 1 << x
            while above:
                x = above.bit_length() - 1
                above &= up[x] ^ 1 << x
            covers.append(x)
            rest &= ~down[x]
        covers.sort()
        out.append(tuple(covers))
    return tuple(out)


def _close_acyclic(up: list[int]) -> list[int] | None:
    """Close the relation whose direct successors are ``up[i]`` (each with
    bit i set) reflexively and transitively, in place, and return the
    matching down masks; None, with ``up`` only partly closed, when the
    relation has a cycle.

    One pass over the nodes in reverse topological order closes ``up``: a
    node is closed once every direct successor is, as the union of their
    closures.  The pass back, in topological order, closes ``down`` from
    the direct predecessors the same way, so each direct pair costs one
    mask union each way.  A cycle leaves its nodes, and every node below
    it, unreached.
    """
    n = len(up)
    preds: list[list[int]] = [[] for _ in range(n)]
    pending = [(up[i] ^ 1 << i).bit_count() for i in range(n)]
    for i in range(n):
        for j in _bits(up[i] ^ 1 << i):
            preds[j].append(i)
    ready = [i for i in range(n) if not pending[i]]
    for j in ready:  # grows while it is walked
        uj = up[j]
        for i in preds[j]:
            up[i] |= uj
            pending[i] -= 1
            if not pending[i]:
                ready.append(i)
    if len(ready) < n:
        return None
    down = [1 << i for i in range(n)]
    for j in reversed(ready):
        for i in preds[j]:
            down[j] |= down[i]
    return down


def _close_with_cycles(up: list[int]) -> None:
    """Close ``up`` in place by Warshall's algorithm, which, unlike
    ``_close_acyclic``, also closes a relation with cycles."""
    for k in range(len(up)):
        for i in range(len(up)):
            if up[i] >> k & 1:
                up[i] |= up[k]


def _transitivity_scan(names: tuple[str, ...], up: list[int]) -> None:
    """Raise NotAPartialOrder naming the first i <= j <= k, in index order,
    with i <= k missing."""
    for i in range(len(up)):
        for j in _bits(up[i]):
            missing = up[j] & ~up[i]
            if missing:
                k = next(_bits(missing))
                raise NotAPartialOrder(
                    f"relation is not transitive: {names[i]!r} <= {names[j]!r} <= "
                    f"{names[k]!r} but {names[i]!r} <= {names[k]!r} is missing")


def _antisymmetry_scan(names: tuple[str, ...], up: list[int], what: str) -> None:
    """Raise NotAPartialOrder naming the first i, then the first j != i,
    with i <= j <= i in the relation ``up``."""
    for i in range(len(up)):
        for j in _bits(up[i]):
            if j != i and up[j] >> i & 1:
                raise NotAPartialOrder(
                    f"relation {what} through {names[i]!r} and {names[j]!r}")


def build_lattice(names: Iterable[str], pairs: Iterable[tuple[str, str]],
                  kind: str = "covers") -> Lattice:
    """Build and fully validate a bounded lattice from an order relation.

    ``kind="covers"`` treats the pairs as a cover (Hasse) relation and takes
    the reflexive-transitive closure; ``kind="leq"`` treats them as the
    (possibly reflexive-stripped) full order and verifies transitivity.
    A pair (x, y) always means x <= y.

    Raises ValueError for no names, a name declared twice (the first in
    element order), a kind other than "covers" or "leq", or a pair naming an
    undeclared element: the lattice-file rules, which ``parse_lattice_data``
    reports in these words.  Raises NotAPartialOrder, NoBoundedStructure or
    NotALattice; never returns a partially validated object.

    The tables are built up from a core by ``_join_table``: the join rows
    of the join-irreducibles J, those with one lower cover, are looked up,
    j v x as the m with up[m] = up[j] & up[x], and going up by down-set
    size each row c with two or more lower covers is composed from the rows
    of its first two, d and e; the meet table is the dual, going down.  Two
    facts make this exact.

    1. A finite bounded poset in which j v x exists for every j in J and
       every x is a lattice.  Let J(a) be the members of J below a.  First,
       by induction on down-set size, each a is the join of J(a); that join
       exists, as (...((0 v j1) v j2)...) over J(a) is a least upper bound
       of j1, ..., jk at each step.  It is 0 for a = 0 and a for a in J.
       Otherwise a has two or more lower covers; if s = V J(a) < a, then
       s <= some lower cover c of a, and another lower cover c' has
       J(c') in J(a), so c' = V J(c') <= s <= c, which is impossible for
       two covers of a.  Then a v b = (...((b v j1) v j2)...) over J(a):
       the right side is above b and every ji, so above a, and every upper
       bound of a and b is above it.  So all joins exist, and a finite
       join-semilattice with a bottom has every meet, the join of the
       common lower bounds.
    2. In a lattice two distinct lower covers d and e of c join to c
       (d < d v e <= c, and c covers d), so c v x = d v (e v x): row c is
       row d composed with row e.  The meet table is the dual.

    So a complete set of looked-up join rows proves the order a lattice and
    every composed row right; a missing entry proves it is not, and the
    pair scan then names the first pair in row order with no meet, or else
    no join.
    """
    names = tuple(names)
    if not names:
        raise ValueError("at least one element name is required")
    index = {nm: i for i, nm in enumerate(names)}
    n = len(names)
    if len(index) != n:  # index holds each name's last position
        dup = next(nm for i, nm in enumerate(names) if index[nm] != i)
        raise ValueError(f"element name {dup!r} is declared more than once")
    if kind not in ("covers", "leq"):
        raise ValueError(f'order kind must be "covers" or "leq", got {kind!r}')
    full = (1 << n) - 1

    up = [1 << i for i in range(n)]
    for a, b in pairs:
        if a not in index or b not in index:
            bad = a if a not in index else b
            raise ValueError(f"order pair references undeclared element {bad!r}")
        up[index[a]] |= 1 << index[b]

    # A leq relation keeps its own masks: the closed ones are equal but new
    # ints, strewn among the pass's temporaries (0.5 MB more peak memory
    # over repeated loads of 60-192 element files).
    closed = up.copy()
    down = _close_acyclic(closed)
    if down is None or (kind == "leq" and closed != up):
        if kind == "covers":  # name the cycle on the closure
            _close_with_cycles(up)
            _antisymmetry_scan(names, up, "contains a cycle")
        else:  # name the fault on the relation as given
            _antisymmetry_scan(names, up, "violates antisymmetry")
            _transitivity_scan(names, up)
        raise SelfCheckError("the closure pass rejected a relation that the "
                             "pairwise scans accept")
    if kind == "covers":
        up = closed

    bottoms = [i for i in range(n) if up[i] == full]
    tops = [i for i in range(n) if down[i] == full]
    if not bottoms:
        raise NoBoundedStructure("order has no global minimum element")
    if not tops:
        raise NoBoundedStructure("order has no global maximum element")
    bottom, top = bottoms[0], tops[0]

    lower = _covers_below(up, down)
    upper: list[list[int]] = [[] for _ in range(n)]
    for y, covers in enumerate(lower):
        for x in covers:
            upper[x].append(y)  # ascending, as y is
    # A lower-bound set has a greatest element m exactly when it is down[m]
    # (dually for upper bounds), so a missing key means no meet (join).
    by_down = {d: m for m, d in enumerate(down)}
    by_up = {u: m for m, u in enumerate(up)}
    # Covers below c have smaller down-sets, so they come before c here,
    # and the covers above c come before it in the reverse order.
    order = sorted(range(n), key=lambda c: down[c].bit_count())
    join_rows = _join_table(up, by_up, lower, order)
    if join_rows is None:
        _meet_join_scan(names, up, down, by_up, by_down)
        raise SelfCheckError("a join-irreducible row of the join table "
                             "misses an entry that the pair scan finds")
    # Every join exists, so the order is a lattice (build_lattice's
    # docstring) and each looked-up meet row is complete.
    meet_rows = _join_table(down, by_down, upper, reversed(order))
    if meet_rows is None:
        raise SelfCheckError("the join table is complete but a "
                             "meet-irreducible row misses a meet")

    return Lattice(names, tuple(up), tuple(down), tuple(meet_rows), tuple(join_rows),
                   bottom, top, lower, tuple([tuple(u) for u in upper]),
                   tuple([c for c in range(n) if len(lower[c]) == 1]))


def _join_table(masks: Sequence[int], by_mask: dict[int, int],
                covers: Sequence[Sequence[int]], order: Iterable[int]
                ) -> list[tuple[int, ...]] | None:
    """The join table of the order whose up-masks are ``masks``, with
    ``by_mask`` their inverse and ``covers`` the lower covers, walked in
    ``order``, which lists each element after its covers; None at the
    first missing entry.  ``build_lattice`` calls it on ``(up, by_up,
    lower, order)``, and on the dual order, ``(down, by_down, upper,
    reversed(order))``, for the meet table.  A row with no cover is the
    identity, a row with one cover is looked up, and a row with two or more
    is composed from the rows of its first two covers, as ``build_lattice``'s
    docstring proves.
    """
    n = len(masks)
    rows: list[tuple[int, ...]] = [tuple(range(n))] * n
    for c in order:
        below = covers[c]
        if len(below) == 1:
            mc = masks[c]
            row = [by_mask.get(mc & m) for m in masks]
            if None in row:
                return None
            rows[c] = tuple(row)
        elif below:  # c = d v e, so c v x = d v (e v x)
            rows[c] = itemgetter(*rows[below[1]])(rows[below[0]])
    return rows


def _meet_join_scan(names: tuple[str, ...], up: list[int], down: list[int],
                    by_up: dict[int, int], by_down: dict[int, int]) -> None:
    """Raise NotALattice for the first pair i <= j, in row order, with no
    meet, or else no join: the meet is looked up first, in ``by_down``,
    which maps each down-mask to its element (``by_up`` likewise)."""
    n = len(names)
    for i in range(n):
        for j in range(i, n):
            if down[i] & down[j] not in by_down:
                raise NotALattice(
                    f"elements {names[i]!r} and {names[j]!r} have no greatest lower bound",
                    pair=(names[i], names[j]))
            if up[i] & up[j] not in by_up:
                raise NotALattice(
                    f"elements {names[i]!r} and {names[j]!r} have no least upper bound",
                    pair=(names[i], names[j]))


# ---------------------------------------------------------------------------
# Structural predicates


def modularity_witness(lat: Lattice) -> tuple[int, int, int, int, int] | None:
    """Return a pentagon sublattice as (bottom, low, high, side, top), or None.

    The first failing triple of the modular law (x <= z implies
    x v (y ^ z) = (x v y) ^ z) in scan order yields the standard pentagon with
    chain bottom < low < high < top on one side and the incomparable element
    ``side`` on the other.  Decided on covering pairs first and cached on
    the lattice; see the module docstring.
    """
    return lat._n5_witness


def is_modular(lat: Lattice) -> bool:
    return lat._n5_witness is None


def _covers_semimodular(lat: Lattice) -> bool:
    """Whether the lattice is upper and lower semimodular, by Birkhoff's
    condition on covering pairs: any two upper covers a, b of one element
    are both covered by a v b, and any two lower covers are both covers of
    a ^ b.  In a finite lattice this holds exactly when the lattice is
    modular: each half gives a rank function r with r(a) + r(b) >= r(a v b)
    + r(a ^ b) (<= for the lower half), so equality holds, and that rules
    out a pentagon.  The lower half is the upper half of the dual order:
    the same test on the lower covers, the meet, and ``down`` for ``up``."""
    return (_upper_semimodular(lat.upper_covers, lat.join, lat.up, lat.down)
            and _upper_semimodular(lat.lower_covers, lat.meet, lat.down, lat.up))


def _upper_semimodular(covers: Sequence[Sequence[int]],
                       join: Sequence[Sequence[int]],
                       up: Sequence[int], down: Sequence[int]) -> bool:
    """Whether any two members a, b of one ``covers[x]`` are both covered
    by their join j, as read off the masks: up(a) & down(j) is {a, j}."""
    for above in covers:
        for i, a in enumerate(above):
            for b in above[i + 1:]:
                j = join[a][b]
                if (up[a] & down[j] != 1 << a | 1 << j
                        or up[b] & down[j] != 1 << b | 1 << j):
                    return False
    return True


def _modularity_scan(lat: Lattice) -> tuple[int, int, int, int, int] | None:
    """The first pentagon found by scanning the modular law over every
    x <= z and every y."""
    n, meet, join, up = lat.n, lat.meet, lat.join, lat.up
    for x in range(n):
        jx = join[x]
        for z in _bits(up[x]):
            mz = meet[z]
            for y in range(n):
                low = jx[mz[y]]
                high = mz[jx[y]]
                if low != high:
                    return (mz[y], low, high, y, jx[y])
    return None


def zero_distributivity_witness(lat: Lattice) -> tuple[int, int, int] | None:
    """First (a, b, c) with a^b = a^c = 0 but a^(b v c) != 0, or None.

    Decided on the atoms first; see the module docstring.
    """
    if _zero_distributive(lat):
        return None
    if (witness := _zero_distributivity_scan(lat)) is None:
        raise SelfCheckError("the atom test rejects a lattice in which "
                             "the 0-distributivity scan finds no witness")
    return witness


def is_zero_distributive(lat: Lattice) -> bool:
    return zero_distributivity_witness(lat) is None


def _zero_distributive(lat: Lattice) -> bool:
    """Whether u ^ V{b | u ^ b = 0} = 0 for every atom u.

    Exact: if a ^ b = a ^ c = 0 but a ^ (b v c) != 0, an atom
    u <= a ^ (b v c) has u ^ b = u ^ c = 0 and u ^ (b v c) = u != 0, so u
    fails the test; conversely, in a 0-distributive lattice the set
    {b | u ^ b = 0} is join-closed, so its join meets u in 0.  That set is
    L less up(u), a down-set, and u meets its join in 0 exactly when it
    holds its join, that is when it is principal: some ``down[m]``.
    """
    principal = set(lat.down)
    full = (1 << lat.n) - 1
    return all(full & ~lat.up[u] in principal for u in lat.atoms())


def _zero_distributivity_scan(lat: Lattice) -> tuple[int, int, int] | None:
    """The first witness found by scanning every a and every pair of
    elements that meet a in 0."""
    n, meet, join, bot = lat.n, lat.meet, lat.join, lat.bottom
    for a in range(n):
        ma = meet[a]
        zero_partners = [b for b in range(n) if ma[b] == bot]
        for b in zero_partners:
            jb = join[b]
            for c in zero_partners:
                if ma[jb[c]] != bot:
                    return (a, b, c)
    return None


def _leaves_ideal(lat: Lattice, row: Sequence[int], inside: int) -> int:
    """The mask of the y with ``row[y]`` outside the ideal ``inside``: the
    union of up(j) over the j in J with ``row[j]`` outside.  ``row`` is x's
    row of the meet or of a multiplication.  Then ``row[y]`` is in I exactly
    when ``row[j]`` is for every j in J below y.  (=>) The row is monotone
    and I a down-set.  (<=) For a product, M3 makes x.y the join of those
    x.j; for the meet, x ^ y is the join of the j in J below it, each such
    j = x ^ j.  I holds the join, so no distributivity is needed.
    """
    up = lat.up
    out = 0
    for j in lat.join_irreducibles:
        if not inside >> row[j] & 1:
            out |= up[j]
    return out
