"""Built-in example lattices.

``fig2`` is a 6-element bounded lattice with a 3-element chain and a side
atom below a common coatom; its order-sense zero-divisor graph at {0} is the
path a - c - b, while the trivial multiplication turns the graph into K4.

``fig3`` is a 14-element non-reduced, non-modular multiplicative lattice:
one square-zero element f under five atoms arranged so that the zero-product
pairs of atoms form a 5-cycle.  Its zero-divisor graph has 12 vertices and
needs 4 colors although its largest clique has 3 vertices.
"""
from __future__ import annotations

from .errors import InvalidSpec
from .lattice import Lattice, build_lattice
from .multiplication import MultLattice, attach_multiplication

#: Each fixture's default multiplication, for ``fixture`` and search specs.
FIXTURE_MULTS = {"fig2": "trivial", "fig3": "table"}
FIXTURE_NAMES = tuple(FIXTURE_MULTS)

_FIG2_ELEMENTS = ("0", "a", "b", "c", "d", "1")
_FIG2_COVERS = (("0", "a"), ("a", "b"), ("b", "d"),
                ("0", "c"), ("c", "d"), ("d", "1"))

_FIG3_ELEMENTS = ("0", "a", "b", "c", "d", "e", "f",
                  "a∨c", "a∨d", "b∨e", "c∨e", "b∨d", "t", "1")
_FIG3_COVERS = (
    ("0", "f"),
    ("f", "a"), ("f", "b"), ("f", "c"), ("f", "d"), ("f", "e"),
    ("a", "a∨c"), ("a", "a∨d"),
    ("b", "b∨e"), ("b", "b∨d"),
    ("c", "a∨c"), ("c", "c∨e"),
    ("d", "a∨d"), ("d", "b∨d"),
    ("e", "b∨e"), ("e", "c∨e"),
    ("a∨c", "t"), ("a∨d", "t"), ("b∨e", "t"), ("c∨e", "t"), ("b∨d", "t"),
    ("t", "1"),
)
# Row-major product table in element order (rows split on whitespace).
_FIG3_PRODUCT = tuple([row.split() for row in (
    "0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    "0 f 0 f f 0 0 f f 0 f f f a",
    "0 0 f 0 f f 0 0 f f f f f b",
    "0 f 0 f 0 f 0 f f f f 0 f c",
    "0 f f 0 f 0 0 f f f 0 f f d",
    "0 0 f f 0 f 0 f 0 f f f f e",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 f",
    "0 f 0 f f f 0 f f f f f f a∨c",
    "0 f f f f 0 0 f f f f f f a∨d",
    "0 0 f f f f 0 f f f f f f b∨e",
    "0 f f f 0 f 0 f f f f f f c∨e",
    "0 f f 0 f f 0 f f f f f f b∨d",
    "0 f f f f f 0 f f f f f f t",
    "0 a b c d e f a∨c a∨d b∨e c∨e b∨d t 1",
)])


def fig2_lattice() -> Lattice:
    return build_lattice(_FIG2_ELEMENTS, _FIG2_COVERS, "covers")


def fig3_lattice() -> Lattice:
    return build_lattice(_FIG3_ELEMENTS, _FIG3_COVERS, "covers")


def fig3_table() -> tuple[tuple[str, ...], ...]:
    return tuple([tuple(row) for row in _FIG3_PRODUCT])


def fixture(name: str, mult: str | None = None) -> MultLattice:
    """Build a named fixture with its default (or an overriding) multiplication.

    fig2 defaults to the trivial multiplication, fig3 to its bundled table.
    """
    kind = mult or FIXTURE_MULTS.get(name)
    if name == "fig2":
        if kind == "table":
            raise InvalidSpec("fig2 has no bundled multiplication table")
        return attach_multiplication(fig2_lattice(), kind)
    if name == "fig3":
        if kind == "table":
            return attach_multiplication(fig3_lattice(), "table", fig3_table())
        return attach_multiplication(fig3_lattice(), kind)
    raise InvalidSpec(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
