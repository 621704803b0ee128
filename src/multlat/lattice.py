"""Finite bounded lattices: construction, validation, and order machinery.

Elements are identified by their index into a fixed name tuple; names only
matter at the I/O boundary.  The order relation is kept as per-element
bitmasks (``up[i]`` is the set of elements above ``i``), and meet/join are
precomputed n-by-n index tables so that everything downstream is a table
lookup.  All objects here are immutable after construction and safe to share.

A cover relation is closed in one pass over the elements in reverse
topological order, each element's up-mask the union of its direct
successors', and one pass back builds the down-masks the same way: one mask
union per pair each way.  A pass that finds no cycle proves antisymmetry, so
the pairwise antisymmetry scan runs only when it finds one, to name it.

The tables are built by lookup, not by search: the lower bounds
``down[i] & down[j]`` of a pair have a greatest element exactly when they
equal some ``down[m]``, and then m is the meet, so each meet is one dict
lookup keyed by the down-mask and each join one lookup keyed by the up-mask.
Both tables are symmetric, so only the n(n+1)/2 entries on and right of the
diagonal are looked up; the rest are copied from earlier rows.

Facts about a lattice that several layers ask for are computed once per
``Lattice`` object and cached on it with ``functools.cached_property``: the
join-irreducibles, the lower covers (shared by the modularity test and the
multiplication's axiom check), the N5 witness and the 0-distributivity
witness.  The public functions return a fresh list each call (witnesses
are tuples), so a caller that mutates a result cannot change the next one.
Each fact is decided on its smallest exact core before any cubic scan runs:

* the join-irreducibles are the x whose strictly-lower elements form a
  principal down-set, one set lookup each;
* modularity is decided as upper plus lower semimodularity on covering
  pairs (Birkhoff's condition: two covers of one element have a join that
  covers both, and dually), which is exact for finite lattices (Gratzer,
  *Lattice Theory: Foundation*, 2011); the x <= z scan of the modular law
  runs only when that test fails, to name the first pentagon;
* 0-distributivity needs a ^ V{b | a ^ b = 0} = 0 only for the atoms a,
  in O(n) per atom; the triple scan runs only when that fails, to name the
  first witness.

The toolkit targets lattices of up to ~64 elements; Python's unbounded ints
make the bitmask representation work beyond that (Id(Z_n) with 768 elements
builds, with its multiplication checked, in about 0.6 s), but distributivity
is still a cubic scan.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import NoBoundedStructure, NotALattice, NotAPartialOrder, SelfCheckError


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
    the indices of the least and greatest elements.  The underscored cached
    properties hold facts computed on first use; they are not fields, so
    they take no part in ``==`` or hashing.
    """

    names: tuple[str, ...]
    up: tuple[int, ...]
    down: tuple[int, ...]
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]
    bottom: int
    top: int

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown element name {name!r}") from None

    def leq(self, x: int, y: int) -> bool:
        """Whether x <= y."""
        return bool(self.up[x] >> y & 1)

    def meet_of(self, x: int, y: int) -> int:
        """Greatest lower bound of x and y."""
        return self.meet[x][y]

    def join_of(self, x: int, y: int) -> int:
        """Least upper bound of x and y."""
        return self.join[x][y]

    def meet_all(self, xs: Iterable[int]) -> int:
        acc = self.top
        for x in xs:
            acc = self.meet[acc][x]
        return acc

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

    def atoms(self) -> list[int]:
        """Elements covering bottom."""
        b = self.bottom
        return [x for x in range(self.n) if x != b and self.down[x] == (1 << b | 1 << x)]

    def coatoms(self) -> list[int]:
        t = self.top
        return [x for x in range(self.n) if x != t and self.up[x] == (1 << t | 1 << x)]

    def join_irreducibles(self) -> list[int]:
        """Elements x != 0 that are not the join of the elements strictly
        below them, ascending by index.

        Every element is the join of the join-irreducibles below it (0 is the
        empty join), which is what lets a join-preserving map be checked on
        them alone.  In a finite lattice these are exactly the elements with
        a single lower cover: x is one exactly when the elements strictly
        below it have a greatest element m, that is when they form down(m).
        """
        return list(self._join_irreducibles)

    @cached_property
    def _join_irreducibles(self) -> tuple[int, ...]:
        principal = set(self.down)
        return tuple([x for x in range(self.n)
                      if x != self.bottom and self.down[x] ^ 1 << x in principal])

    @cached_property
    def _lower_covers(self) -> tuple[tuple[int, ...], ...]:
        """The lower covers of every element, ascending: the maximal
        elements strictly below it.

        Each is found by walking up from the lowest-indexed element left
        below y to a maximal one, which is a cover; its down-set is then
        dropped.  The cost is a walk per cover, not a test per element
        below y.
        """
        up, down = self.up, self.down
        out = []
        for y in range(self.n):
            rest = down[y] ^ 1 << y
            covers = []
            while rest:
                x = (rest & -rest).bit_length() - 1
                above = rest & up[x] ^ 1 << x
                while above:
                    x = (above & -above).bit_length() - 1
                    above &= up[x] ^ 1 << x
                covers.append(x)
                rest &= ~down[x]
            covers.sort()
            out.append(tuple(covers))
        return tuple(out)

    @cached_property
    def _n5_witness(self) -> tuple[int, int, int, int, int] | None:
        return None if _covers_semimodular(self) else _modularity_scan(self)

    @cached_property
    def _zero_distributivity_witness(self) -> tuple[int, int, int] | None:
        return None if _zero_distributive(self) else _zero_distributivity_scan(self)

    def assert_valid(self) -> None:
        """Exhaustively re-check every lattice invariant.

        Construction already guarantees these; this is the belt-and-braces
        scan used by the test suite (reflexivity through associativity and
        absorption, glb/lub laws, bounds).  Raises SelfCheckError naming the
        first law that fails, also under ``python -O``.
        """
        def law(holds: bool, name: str) -> None:
            if not holds:
                raise SelfCheckError(name)
        n, up, down, meet, join = self.n, self.up, self.down, self.meet, self.join
        full = (1 << n) - 1
        for x in range(n):
            law(self.leq(x, x), "reflexivity")
            law(self.leq(self.bottom, x) and self.leq(x, self.top), "bounds")
            for y in range(n):
                law((down[x] >> y & 1) == (up[y] >> x & 1), "up/down transposes")
                if x != y:
                    law(not (self.leq(x, y) and self.leq(y, x)), "antisymmetry")
                m, j = meet[x][y], join[x][y]
                law(m == meet[y][x] and j == join[y][x], "commutativity")
                low = down[x] & down[y]
                high = up[x] & up[y]
                law(low & ~down[m] == 0 and (low >> m & 1), "glb law")
                law(high & ~up[j] == 0 and (high >> j & 1), "lub law")
                law(meet[x][join[x][y]] == x, "absorption")
                law(join[x][meet[x][y]] == x, "absorption (dual)")
            law(meet[x][x] == x and join[x][x] == x, "idempotence")
        for x in range(n):
            for y in _bits(up[x]):
                law(up[y] & ~up[x] == 0, "transitivity")
            for y in range(n):
                m, j = meet[x][y], join[x][y]
                for z in range(n):
                    law(meet[m][z] == meet[x][meet[y][z]], "associativity")
                    law(join[j][z] == join[x][join[y][z]], "associativity (dual)")
        law(up[self.bottom] == full and down[self.top] == full, "bounds")


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


def _close_by_fixpoint(up: list[int]) -> None:
    """Close ``up`` in place by repeated passes until nothing changes; this
    also terminates on a relation with cycles."""
    changed = True
    while changed:
        changed = False
        for i in range(len(up)):
            acc = up[i]
            for j in _bits(up[i]):
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True


def _order_down_masks(up: list[int]) -> list[int] | None:
    """The down masks of the partial order whose up masks are ``up``, in one
    walk over its pairs; None when it is not transitive (some up[i] lacks
    part of up[j] for a j in it) or not antisymmetric (some element shares
    its up mask and its down mask with another)."""
    n = len(up)
    down = [0] * n
    for i, ui in enumerate(up):
        above = 0
        for j in _bits(ui):
            down[j] |= 1 << i
            above |= up[j]
        if above != ui:
            return None
    if any([u & d != 1 << i for i, (u, d) in enumerate(zip(up, down))]):
        return None
    return down


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

    if kind == "covers":
        down = _close_acyclic(up)
        if down is None:
            _close_by_fixpoint(up)
            _antisymmetry_scan(names, up, "contains a cycle")
            raise SelfCheckError("the closure pass found a cycle that the "
                                 "antisymmetry scan does not")
    else:
        down = _order_down_masks(up)
        if down is None:
            _antisymmetry_scan(names, up, "violates antisymmetry")
            _transitivity_scan(names, up)
            raise SelfCheckError("the order walk rejected a relation that the "
                                 "antisymmetry and transitivity scans accept")

    bottoms = [i for i in range(n) if up[i] == full]
    tops = [i for i in range(n) if down[i] == full]
    if not bottoms:
        raise NoBoundedStructure("order has no global minimum element")
    if not tops:
        raise NoBoundedStructure("order has no global maximum element")
    bottom, top = bottoms[0], tops[0]

    # A lower-bound set has a greatest element m exactly when it is down[m]
    # (dually for upper bounds), so a missing key means no meet (join).
    by_down = {d: m for m, d in enumerate(down)}
    by_up = {u: m for m, u in enumerate(up)}
    # Both tables are symmetric: row i is looked up from the diagonal on,
    # and left of it copied from column i of the earlier rows.  An earlier
    # row with a missing entry has already raised, so the copy holds no None.
    meet_rows: list[tuple[int, ...]] = []
    join_rows: list[tuple[int, ...]] = []
    for i in range(n):
        di, ui = down[i], up[i]
        mrow = [row[i] for row in meet_rows] + [by_down.get(di & d) for d in down[i:]]
        jrow = [row[i] for row in join_rows] + [by_up.get(ui & u) for u in up[i:]]
        if None in mrow or None in jrow:
            for j in range(i, n):
                if mrow[j] is None:
                    raise NotALattice(
                        f"elements {names[i]!r} and {names[j]!r} have no greatest lower bound",
                        pair=(names[i], names[j]))
                if jrow[j] is None:
                    raise NotALattice(
                        f"elements {names[i]!r} and {names[j]!r} have no least upper bound",
                        pair=(names[i], names[j]))
        meet_rows.append(tuple(mrow))
        join_rows.append(tuple(jrow))

    return Lattice(names, tuple(up), tuple(down), tuple(meet_rows), tuple(join_rows),
                   bottom, top)


# ---------------------------------------------------------------------------
# Structural predicates


def distributivity_witness(lat: Lattice) -> tuple[int, int, int] | None:
    """First triple (x, y, z) with x ^ (y v z) != (x ^ y) v (x ^ z), or None."""
    n, meet, join = lat.n, lat.meet, lat.join
    for x in range(n):
        mx = meet[x]
        for y in range(n):
            jy = join[y]
            mxy = mx[y]
            jm = join[mxy]
            for z in range(n):
                if mx[jy[z]] != jm[mx[z]]:
                    return (x, y, z)
    return None


def is_distributive(lat: Lattice) -> bool:
    return distributivity_witness(lat) is None


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
    out a pentagon."""
    up, down, meet, join = lat.up, lat.down, lat.meet, lat.join
    lower = lat._lower_covers
    upper: list[list[int]] = [[] for _ in range(lat.n)]
    for y, covers in enumerate(lower):
        for x in covers:
            upper[x].append(y)
    for x in range(lat.n):
        covers = upper[x]
        for i, a in enumerate(covers):
            for b in covers[i + 1:]:
                j = join[a][b]
                if (up[a] & down[j] != 1 << a | 1 << j
                        or up[b] & down[j] != 1 << b | 1 << j):
                    return False
        covers = lower[x]
        for i, a in enumerate(covers):
            for b in covers[i + 1:]:
                m = meet[a][b]
                if (down[a] & up[m] != 1 << a | 1 << m
                        or down[b] & up[m] != 1 << b | 1 << m):
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

    Decided on the atoms first and cached on the lattice; see the module
    docstring.
    """
    return lat._zero_distributivity_witness


def is_zero_distributive(lat: Lattice) -> bool:
    return lat._zero_distributivity_witness is None


def _zero_distributive(lat: Lattice) -> bool:
    """Whether u ^ V{b | u ^ b = 0} = 0 for every atom u.

    Exact: if a ^ b = a ^ c = 0 but a ^ (b v c) != 0, an atom
    u <= a ^ (b v c) has u ^ b = u ^ c = 0 and u ^ (b v c) = u != 0, so u
    fails the test; conversely, in a 0-distributive lattice the set
    {b | u ^ b = 0} is join-closed, so its join meets u in 0.
    """
    n, meet, bot = lat.n, lat.meet, lat.bottom
    for u in lat.atoms():
        mu = meet[u]
        if mu[lat.join_all([b for b in range(n) if mu[b] == bot])] != bot:
            return False
    return True


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


# ---------------------------------------------------------------------------
# Element subsets (semi-ideals, ideals, filters)


class ElementSubset:
    """A subset of lattice elements with lazily computed structure flags.

    The membership is a bitmask over element indices.  ``is_minimal`` is not
    intrinsic: the prime-structure routines set it on the subsets they
    certify as inclusion-minimal prime semi-ideals or ideals.  Tuples are
    built from lists so they are allocated at their exact size.
    """

    def __init__(self, lattice: Lattice, members: int | Iterable[int], *,
                 is_minimal: bool = False):
        self.lattice = lattice
        if isinstance(members, int):
            self.mask = members
        else:
            mask = 0
            for m in members:
                mask |= 1 << m
            self.mask = mask
        if self.mask >> lattice.n:
            raise ValueError("subset mask has bits outside the lattice")
        self.is_minimal = is_minimal

    @property
    def members(self) -> tuple[int, ...]:
        return tuple([*_bits(self.mask)])

    @property
    def names(self) -> tuple[str, ...]:
        names = self.lattice.names
        return tuple([names[i] for i in _bits(self.mask)])

    def __contains__(self, x: int) -> bool:
        return bool(self.mask >> x & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ElementSubset) and self.mask == other.mask
                and self.lattice == other.lattice)

    def __hash__(self) -> int:
        return hash((self.mask, self.lattice.names))

    def __repr__(self) -> str:
        return f"ElementSubset({{{', '.join(self.names)}}})"

    @cached_property
    def is_empty(self) -> bool:
        return self.mask == 0

    @cached_property
    def is_proper(self) -> bool:
        return self.mask != (1 << self.lattice.n) - 1

    @cached_property
    def is_down_set(self) -> bool:
        lat = self.lattice
        return all(lat.down[x] & ~self.mask == 0 for x in _bits(self.mask))

    @cached_property
    def is_up_set(self) -> bool:
        lat = self.lattice
        return all(lat.up[x] & ~self.mask == 0 for x in _bits(self.mask))

    @cached_property
    def is_ideal(self) -> bool:
        """Non-empty down-set closed under binary join."""
        if self.is_empty or not self.is_down_set:
            return False
        lat = self.lattice
        ms = self.members
        return all(self.mask >> lat.join[a][b] & 1 for a in ms for b in ms)

    @cached_property
    def is_filter(self) -> bool:
        """Non-empty up-set closed under binary meet."""
        if self.is_empty or not self.is_up_set:
            return False
        lat = self.lattice
        ms = self.members
        return all(self.mask >> lat.meet[a][b] & 1 for a in ms for b in ms)

    @cached_property
    def is_prime(self) -> bool:
        """Prime semi-ideal: non-empty proper down-set such that a ^ b inside
        forces a or b inside (checked over all pairs outside)."""
        if self.is_empty or not self.is_proper or not self.is_down_set:
            return False
        lat = self.lattice
        outside = [x for x in range(lat.n) if not self.mask >> x & 1]
        for a in outside:
            row = lat.meet[a]
            for b in outside:
                if self.mask >> row[b] & 1:
                    return False
        return True

    def complement(self) -> "ElementSubset":
        return ElementSubset(self.lattice, ((1 << self.lattice.n) - 1) & ~self.mask)


def principal_down_set(lat: Lattice, a: int) -> ElementSubset:
    """The principal down-set of ``a``: every element <= a."""
    return ElementSubset(lat, lat.down[a])


def principal_up_set(lat: Lattice, a: int) -> ElementSubset:
    """The principal up-set of ``a``: every element >= a."""
    return ElementSubset(lat, lat.up[a])
