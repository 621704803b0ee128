"""Zero-divisor graphs of a lattice, in both senses.

The order-sense graph is taken with respect to a proper ideal I: vertices are
the elements outside I whose meet with some other element outside I lands in
I, and two distinct vertices are adjacent when their meet is in I.

The multiplicative-sense graph is taken with respect to an element i:
vertices are the elements not below i whose product with some element not
below i drops to or below i (the partner may be the vertex itself, so a
square-zero element is a vertex), and distinct vertices are adjacent when
their product is <= i.

Graphs store vertex indices into their source lattice plus a bitmask
adjacency over vertex positions; they are immutable.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ImproperIdeal, NotAnIdeal, SelfCheckError
from .lattice import ElementSubset, Lattice, _bits
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

    def edge_names(self) -> list[tuple[str, str]]:
        names = self.vertex_names()
        return [(names[i], names[j]) for i, j in self.edges()]

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.adj[i] >> j & 1)


def _assemble(lat: Lattice, verts: list[int], adjacent, provenance) -> ZdGraph:
    pos = {v: k for k, v in enumerate(verts)}
    adj = [0] * len(verts)
    for v in verts:
        for w in verts:
            if w > v and adjacent(v, w):
                adj[pos[v]] |= 1 << pos[w]
                adj[pos[w]] |= 1 << pos[v]
    g = ZdGraph(lat, tuple(verts), tuple(adj), provenance)
    for k, row in enumerate(adj):
        if row >> k & 1:
            raise SelfCheckError("self-loop")
    return g


def order_zero_divisor_graph(lat: Lattice, ideal: ElementSubset) -> ZdGraph:
    """The zero-divisor graph of the lattice order with respect to an ideal."""
    if ideal.lattice != lat:
        raise ValueError("ideal belongs to a different lattice")
    if not ideal.is_ideal:
        raise NotAnIdeal(f"subset {{{', '.join(ideal.names)}}} is not an ideal")
    if not ideal.is_proper:
        raise ImproperIdeal("the whole lattice is not a proper ideal")
    mask = ideal.mask
    outside = [x for x in range(lat.n) if not mask >> x & 1]
    in_ideal = lambda v: bool(mask >> v & 1)
    verts = [x for x in outside
             if any(y != x and in_ideal(lat.meet[x][y]) for y in outside)]
    return _assemble(lat, verts, lambda v, w: in_ideal(lat.meet[v][w]),
                     ("order", mask))


def mult_zero_divisor_graph(ml: MultLattice, element: int | None = None) -> ZdGraph:
    """The zero-divisor graph of a multiplicative lattice w.r.t. an element.

    ``element`` defaults to the bottom.  Taking element = top yields the
    empty graph (nothing fails to be below the top).
    """
    lat = ml.lattice
    i = lat.bottom if element is None else element
    outside = [x for x in range(lat.n) if not lat.leq(x, i)]
    verts = [x for x in outside
             if any(lat.leq(ml.product[x][y], i) for y in outside)]
    return _assemble(lat, verts, lambda v, w: lat.leq(ml.product[v][w], i),
                     ("mult", i))


def export_dot(graph: ZdGraph, labels: tuple[str, ...] | None = None,
               coloring=None) -> str:
    """Deterministic DOT text for a graph.

    One node line per vertex in ascending order, one edge line per edge with
    endpoints ascending, edges sorted by their position pair.  When a
    coloring is supplied, nodes are filled from the fixed 12-color palette
    indexed by color class.
    """
    names = labels if labels is not None else graph.vertex_names()
    if len(names) != graph.n_vertices:
        raise ValueError("label count does not match vertex count")
    color_of = {}
    if coloring is not None:
        if coloring.color_count > len(DOT_PALETTE):
            raise ValueError(
                f"coloring uses {coloring.color_count} classes; palette has "
                f"{len(DOT_PALETTE)}")
        color_of = {v: DOT_PALETTE[c] for v, c in coloring.assignment.items()}
    lines = ["graph G {"]
    for k, v in enumerate(graph.vertices):
        if v in color_of:
            lines.append(f'  "{names[k]}" [style=filled,fillcolor={color_of[v]}];')
        else:
            lines.append(f'  "{names[k]}";')
    for i, j in graph.edges():
        lines.append(f'  "{names[i]}" -- "{names[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
