"""Zero-divisor graphs of a lattice, in both senses.

The order-sense graph is taken with respect to a proper ideal I, given as
the bitmask of its members: vertices are the elements outside I whose meet
with some other element outside I lands in I, and two distinct vertices are
adjacent when their meet is in I.

The multiplicative-sense graph is taken with respect to an element i:
vertices are the elements not below i whose product with some element not
below i drops to or below i (the partner may be the vertex itself, so a
square-zero element is a vertex), and distinct vertices are adjacent when
their product is <= i.

Both are one construction: a symmetric table (the meet, or the product,
which is symmetric by M1) and an ideal (I, or down(i)).  An element x
outside the ideal is a vertex when its row has an entry in the ideal at
some y outside it, x itself included, and that row, less x, is its
adjacency.  In the order sense x ^ x = x is never in I, so the partner is
always another element there.  Each row is read off its |J| columns at the
join-irreducibles (``_leaves_ideal`` in lattice.py), in both senses.

Graphs store vertex indices into their source lattice plus a bitmask
adjacency over vertex positions; they are immutable.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ImproperIdeal, NotAnIdeal, SelfCheckError, TooLarge
from .lattice import Lattice, _bits, _leaves_ideal, _transposed
from .multiplication import MultLattice

#: Fixed fill palette for DOT export, indexed by color class.
DOT_PALETTE = ("red", "blue", "green", "white", "yellow", "orange",
               "purple", "cyan", "magenta", "brown", "pink", "gray")


@dataclass(frozen=True)
class ZdGraph:
    """A simple undirected graph over a subset of lattice elements.

    ``vertices`` are lattice element indices in ascending order; ``adj[k]``
    is a bitmask over vertex *positions* adjacent to position k.
    ``provenance`` records how the graph was built: ("order", ideal_mask) or
    ("mult", element_index).
    """

    lattice: Lattice
    vertices: tuple[int, ...]
    adj: tuple[int, ...]
    provenance: tuple

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edges as ascending (position, position) pairs, sorted."""
        out = []
        for i, row in enumerate(self.adj):
            for j in _bits(row):
                if j > i:
                    out.append((i, j))
        return out

    def vertex_names(self) -> tuple[str, ...]:
        names = self.lattice.names
        return tuple([names[v] for v in self.vertices])


def _assemble(lat: Lattice, table, inside: int, provenance) -> ZdGraph:
    """The graph of ``table`` (n x n element indices, symmetric) around the
    ideal ``inside`` (a mask).

    The row of an element x outside is the mask of the y outside with
    ``table[x][y]`` inside, read off the join-irreducible columns.  The
    vertices are the x with a non-empty row (x itself may be in it) and
    x's neighbours are its row without x.  The table is symmetric, so
    column v of the vertices' rows is the mask of the positions adjacent
    to v, which is v's row over positions.
    """
    outside = ((1 << lat.n) - 1) & ~inside
    verts, rows = [], []
    for x in _bits(outside):
        row = outside & ~_leaves_ideal(lat, table[x], inside)
        if row:
            verts.append(x)
            rows.append(row & ~(1 << x))
    columns = _transposed(rows, lat.n)
    adj = [columns[v] for v in verts]
    for k, row in enumerate(adj):
        if row >> k & 1:
            raise SelfCheckError("self-loop")
    return ZdGraph(lat, tuple(verts), tuple(adj), provenance)


def order_zero_divisor_graph(lat: Lattice, ideal: int) -> ZdGraph:
    """The zero-divisor graph of the lattice order with respect to the ideal
    whose members are the set bits of ``ideal``."""
    full = (1 << lat.n) - 1
    if not 0 <= ideal <= full:
        raise ValueError(f"ideal mask {ideal} is outside 0 .. 2**{lat.n} - 1")
    if not lat.is_ideal(ideal):
        members = ", ".join([lat.names[i] for i in _bits(ideal)])
        raise NotAnIdeal(f"subset {{{members}}} is not an ideal")
    if ideal == full:
        raise ImproperIdeal("the whole lattice is not a proper ideal")
    return _assemble(lat, lat.meet, ideal, ("order", ideal))


def mult_zero_divisor_graph(ml: MultLattice, element: int | None = None) -> ZdGraph:
    """The zero-divisor graph of a multiplicative lattice w.r.t. an element.

    ``element`` defaults to the bottom.  Taking element = top yields the
    empty graph (nothing fails to be below the top).
    """
    lat = ml.lattice
    i = lat.bottom if element is None else element
    if not 0 <= i < lat.n:
        raise ValueError(f"element index {i} is outside the lattice")
    return _assemble(lat, ml.product, lat.down[i], ("mult", i))


def _dot_id(name: str) -> str:
    """``name`` as a double-quoted DOT ID: a backslash is doubled and a
    double quote escaped, so the ID ends at the closing quote."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(graph: ZdGraph, coloring=None) -> str:
    """Deterministic DOT text for a graph.

    One node line per vertex in ascending order, one edge line per edge with
    endpoints ascending, edges sorted by their position pair.  When a
    coloring is supplied, nodes are filled from the fixed 12-color palette
    indexed by color class; a label outside 0..11 raises TooLarge.
    Each name is one double-quoted DOT ID (``_dot_id``), so a name holding
    a double quote or a backslash cannot end it early; any other name
    appears as it is.
    """
    names = [_dot_id(nm) for nm in graph.vertex_names()]
    color_of = {}
    if coloring is not None:
        labels = set(coloring.assignment.values())
        if not labels <= set(range(len(DOT_PALETTE))):
            raise TooLarge(
                f"coloring uses labels {min(labels)}..{max(labels)}; palette "
                f"has {len(DOT_PALETTE)}, labelled 0..{len(DOT_PALETTE) - 1}")
        color_of = {v: DOT_PALETTE[c] for v, c in coloring.assignment.items()}
    lines = ["graph G {"]
    for k, v in enumerate(graph.vertices):
        if v in color_of:
            lines.append(f'  {names[k]} [style=filled,fillcolor={color_of[v]}];')
        else:
            lines.append(f'  {names[k]};')
    for i, j in graph.edges():
        lines.append(f'  {names[i]} -- {names[j]};')
    lines.append("}")
    return "\n".join(lines) + "\n"

