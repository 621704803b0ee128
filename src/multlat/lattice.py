"""Finite bounded lattices: construction, validation, and order machinery.

Elements are identified by their index into a fixed name tuple; names only
matter at the I/O boundary.  The order relation is kept as per-element
bitmasks (``up[i]`` is the set of elements above ``i``), and meet/join are
precomputed n-by-n index tables so that everything downstream is a table
lookup.  All objects here are immutable after construction and safe to share.

The toolkit targets lattices of up to ~64 elements; Python's unbounded ints
make the bitmask representation work beyond that, but the exhaustive
predicates are cubic and sized for desk-scale instances.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import NoBoundedStructure, NotALattice, NotAPartialOrder


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Lattice:
    """A finite bounded lattice over named elements.

    ``up[i]`` / ``down[i]`` are bitmasks of the elements weakly above/below
    ``i``; ``meet`` and ``join`` are index tables; ``bottom`` and ``top`` are
    the indices of the least and greatest elements.
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

    def atoms(self) -> list[int]:
        """Elements covering bottom."""
        b = self.bottom
        return [x for x in range(self.n) if x != b and self.down[x] == (1 << b | 1 << x)]

    def coatoms(self) -> list[int]:
        t = self.top
        return [x for x in range(self.n) if x != t and self.up[x] == (1 << t | 1 << x)]

    def assert_valid(self) -> None:
        """Exhaustively re-check every lattice invariant.

        Construction already guarantees these; this is the belt-and-braces
        scan used by the test suite (reflexivity through associativity and
        absorption, glb/lub laws, bounds).
        """
        n, up, down = self.n, self.up, self.down
        full = (1 << n) - 1
        for x in range(n):
            assert self.leq(x, x), "reflexivity"
            assert self.leq(self.bottom, x) and self.leq(x, self.top), "bounds"
            for y in range(n):
                assert (down[x] >> y & 1) == (up[y] >> x & 1), "up/down transposes"
                if x != y:
                    assert not (self.leq(x, y) and self.leq(y, x)), "antisymmetry"
                m, j = self.meet[x][y], self.join[x][y]
                assert m == self.meet[y][x] and j == self.join[y][x], "commutativity"
                low = down[x] & down[y]
                high = up[x] & up[y]
                assert low & ~down[m] == 0 and (low >> m & 1), "glb law"
                assert high & ~up[j] == 0 and (high >> j & 1), "lub law"
                assert self.meet[x][self.join[x][y]] == x, "absorption"
                assert self.join[x][self.meet[x][y]] == x, "absorption (dual)"
            assert self.meet[x][x] == x and self.join[x][x] == x, "idempotence"
        for x in range(n):
            for y in _bits(up[x]):
                assert up[y] & ~up[x] == 0, "transitivity"
            for y in range(n):
                for z in range(n):
                    assert self.meet[self.meet[x][y]][z] == self.meet[x][self.meet[y][z]]
                    assert self.join[self.join[x][y]][z] == self.join[x][self.join[y][z]]
        assert up[self.bottom] == full and down[self.top] == full


def build_lattice(names: Iterable[str], pairs: Iterable[tuple[str, str]],
                  kind: str = "covers") -> Lattice:
    """Build and fully validate a bounded lattice from an order relation.

    ``kind="covers"`` treats the pairs as a cover (Hasse) relation and takes
    the reflexive-transitive closure; ``kind="leq"`` treats them as the
    (possibly reflexive-stripped) full order and verifies transitivity.
    A pair (x, y) always means x <= y.

    Raises NotAPartialOrder, NoBoundedStructure or NotALattice; never returns
    a partially validated object.
    """
    names = tuple(names)
    if not names:
        raise ValueError("at least one element name is required")
    if len(set(names)) != len(names):
        raise ValueError("element names must be distinct")
    if kind not in ("covers", "leq"):
        raise ValueError(f"unknown relation kind {kind!r}")
    index = {nm: i for i, nm in enumerate(names)}
    n = len(names)
    full = (1 << n) - 1

    up = [1 << i for i in range(n)]
    for a, b in pairs:
        if a not in index or b not in index:
            bad = a if a not in index else b
            raise ValueError(f"relation references undeclared element {bad!r}")
        up[index[a]] |= 1 << index[b]

    if kind == "covers":
        changed = True
        while changed:
            changed = False
            for i in range(n):
                acc = up[i]
                for j in _bits(up[i]):
                    acc |= up[j]
                if acc != up[i]:
                    up[i] = acc
                    changed = True

    for i in range(n):
        for j in _bits(up[i]):
            if j != i and up[j] >> i & 1:
                what = "contains a cycle" if kind == "covers" else "violates antisymmetry"
                raise NotAPartialOrder(
                    f"relation {what} through {names[i]!r} and {names[j]!r}")
    if kind == "leq":
        for i in range(n):
            for j in _bits(up[i]):
                missing = up[j] & ~up[i]
                if missing:
                    k = next(_bits(missing))
                    raise NotAPartialOrder(
                        f"relation is not transitive: {names[i]!r} <= {names[j]!r} <= "
                        f"{names[k]!r} but {names[i]!r} <= {names[k]!r} is missing")

    down = [0] * n
    for i in range(n):
        for j in _bits(up[i]):
            down[j] |= 1 << i

    bottoms = [i for i in range(n) if up[i] == full]
    tops = [i for i in range(n) if down[i] == full]
    if not bottoms:
        raise NoBoundedStructure("order has no global minimum element")
    if not tops:
        raise NoBoundedStructure("order has no global maximum element")
    bottom, top = bottoms[0], tops[0]

    meet_rows: list[tuple[int, ...]] = []
    join_rows: list[tuple[int, ...]] = []
    for i in range(n):
        mrow = [0] * n
        jrow = [0] * n
        for j in range(n):
            low = down[i] & down[j]
            for m in _bits(low):
                if low & ~down[m] == 0:
                    mrow[j] = m
                    break
            else:
                raise NotALattice(
                    f"elements {names[i]!r} and {names[j]!r} have no greatest lower bound",
                    pair=(names[i], names[j]))
            high = up[i] & up[j]
            for m in _bits(high):
                if high & ~up[m] == 0:
                    jrow[j] = m
                    break
            else:
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

    Scans the modular law (x <= z implies x v (y ^ z) = (x v y) ^ z); a
    failing triple yields the standard pentagon with chain
    bottom < low < high < top on one side and the incomparable element
    ``side`` on the other.
    """
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


def is_modular(lat: Lattice) -> bool:
    return modularity_witness(lat) is None


def zero_distributivity_witness(lat: Lattice) -> tuple[int, int, int] | None:
    """First (a, b, c) with a^b = a^c = 0 but a^(b v c) != 0, or None."""
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


def is_zero_distributive(lat: Lattice) -> bool:
    return zero_distributivity_witness(lat) is None


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
        return self.mask.bit_count() if hasattr(self.mask, "bit_count") else bin(self.mask).count("1")

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
