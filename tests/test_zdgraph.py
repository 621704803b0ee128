"""Zero-divisor graph construction in both senses, plus DOT export."""
from __future__ import annotations

import random
import re
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import multlat.zdgraph
from multlat import (AxiomViolation, Coloring, ImproperIdeal,
                     NotAnIdeal, SelfCheckError, TooLarge, attach_multiplication,
                     build_lattice, chromatic_number, export_dot,
                     fig2_lattice, fig3_lattice, fixture, is_reduced,
                     mult_zero_divisor_graph, order_zero_divisor_graph)
from multlat.rings import ideal_lattice_zn
from multlat.search import boolean_lattice, chain_lattice

from helpers import (chain_square_mult, chain_square_times_two_chain,
                     is_distributive, random_closure_lattice,
                     reference_mult_graph, reference_order_graph)

# The 21 edges of the bundled 14-element counterexample graph, derived by
# scanning its product table for zero products (f kills everything, the five
# atoms pair up in a cycle, each join gets the one atom annihilating both of
# its parts, and t only meets f at zero).
FIG3_EDGES = [
    ("a", "b"), ("a", "e"), ("a", "f"), ("a", "b∨e"),
    ("b", "c"), ("b", "f"), ("b", "a∨c"),
    ("c", "d"), ("c", "f"), ("c", "b∨d"),
    ("d", "e"), ("d", "f"), ("d", "c∨e"),
    ("e", "f"), ("e", "a∨d"),
    ("f", "a∨c"), ("f", "a∨d"), ("f", "b∨e"), ("f", "c∨e"), ("f", "b∨d"),
    ("f", "t"),
]


def zero_ideal(lat):
    return 1 << lat.bottom


# ---------------------------------------------------------------------------
# Order sense


def test_fig2_order_graph():
    lat = fig2_lattice()
    g = order_zero_divisor_graph(lat, zero_ideal(lat))
    names = g.vertex_names()
    assert names == ("a", "b", "c")
    assert [(names[i], names[j]) for i, j in g.edges()] == [("a", "c"), ("b", "c")]


def test_chain_order_graph_is_empty():
    lat = chain_lattice(5)
    g = order_zero_divisor_graph(lat, zero_ideal(lat))
    assert g.n_vertices == 0 and g.n_edges == 0


def test_b3_order_graph_is_disjointness():
    lat = boolean_lattice(3)
    g = order_zero_divisor_graph(lat, zero_ideal(lat))
    assert g.n_vertices == 6  # all proper non-empty subsets
    assert g.n_edges == 6     # three atom pairs + three atom/coatom pairs


def test_order_graph_wrt_bigger_ideal():
    lat = fig2_lattice()
    ideal = lat.down[lat.names.index("a")]  # {0, a}
    g = order_zero_divisor_graph(lat, ideal)
    # b ^ c = 0 in the ideal; both outside it
    assert "b" in g.vertex_names() and "c" in g.vertex_names()
    for i, j in g.edges():
        assert ideal >> lat.meet[g.vertices[i]][g.vertices[j]] & 1


def test_order_graph_rejects_non_ideals():
    """A set that is not an ideal and the whole lattice each raise their own
    error; test_lattice.py::test_subset_members_outside_the_lattice covers
    the masks with bits outside the lattice."""
    lat = fig2_lattice()
    a, c = lat.names.index("a"), lat.names.index("c")
    with pytest.raises(NotAnIdeal, match=r"^subset \{a, c\} is not an ideal$"):
        order_zero_divisor_graph(lat, 1 << c | 1 << a)
    with pytest.raises(ImproperIdeal,
                       match="^the whole lattice is not a proper ideal$"):
        order_zero_divisor_graph(lat, (1 << lat.n) - 1)


# ---------------------------------------------------------------------------
# Multiplicative sense


def test_fig2_trivial_graph_is_k4():
    ml = fixture("fig2")
    g = mult_zero_divisor_graph(ml)
    assert g.vertex_names() == ("a", "b", "c", "d")
    assert g.n_edges == 6


def test_fig3_graph_vertices_and_edges():
    ml = fixture("fig3")
    g = mult_zero_divisor_graph(ml)
    assert g.n_vertices == 12
    assert set(g.vertex_names()) == {"a", "b", "c", "d", "e", "f", "t",
                                     "a∨c", "a∨d", "b∨e", "c∨e", "b∨d"}
    names = g.vertex_names()
    assert sorted((names[i], names[j]) for i, j in g.edges()) == sorted(FIG3_EDGES)


def test_square_zero_element_is_a_vertex_even_in_isolation():
    # x.x = 0 makes x a vertex; adjacency still needs distinct endpoints.
    ml = fixture("fig3")
    g = mult_zero_divisor_graph(ml)
    names = g.vertex_names()
    f = names.index("f")
    assert not g.adj[f] >> f & 1


def test_graph_at_top_is_empty():
    ml = fixture("fig3")
    g = mult_zero_divisor_graph(ml, ml.lattice.top)
    assert g.n_vertices == 0


def test_rebuild_is_idempotent():
    ml = fixture("fig3")
    g1 = mult_zero_divisor_graph(ml)
    g2 = mult_zero_divisor_graph(ml)
    assert g1 == g2
    lat = fig2_lattice()
    assert order_zero_divisor_graph(lat, zero_ideal(lat)) == \
        order_zero_divisor_graph(lat, zero_ideal(lat))


@given(st.integers(2, 80))
def test_edge_monotonicity(n):
    """Order-sense graph w.r.t. (i] embeds into the mult-sense graph w.r.t. i."""
    ml = ideal_lattice_zn(n)
    lat = ml.lattice
    for i in range(lat.n):
        if i == lat.top:
            continue
        go = order_zero_divisor_graph(lat, lat.down[i])
        gm = mult_zero_divisor_graph(ml, i)
        assert set(go.vertices) <= set(gm.vertices)
        mult_edges = {(gm.vertices[a], gm.vertices[b]) for a, b in gm.edges()}
        for a, b in go.edges():
            assert (go.vertices[a], go.vertices[b]) in mult_edges


def test_reduced_order_and_mult_graphs_coincide():
    for ml in (attach_multiplication(boolean_lattice(3), "meet"),
               ideal_lattice_zn(30),
               ideal_lattice_zn(105)):
        assert is_reduced(ml)
        lat = ml.lattice
        go = order_zero_divisor_graph(lat, zero_ideal(lat))
        gm = mult_zero_divisor_graph(ml)
        assert go.vertices == gm.vertices
        assert go.adj == gm.adj


# ---------------------------------------------------------------------------
# One construction for both senses


def _kernel_instances():
    """(lattice, {name: multiplication}): fig2 and fig3, Id(Z_n) for
    n < 200, boolean:0..5 under their meet, the two reduced instances whose
    product is not the meet, and seeded closure lattices, which are not all
    distributive, under their meet where it is a multiplication; each also
    under the trivial product where that is admissible."""
    instances = [(fig2_lattice(), fixture("fig2")), (fig3_lattice(), fixture("fig3"))]
    for n in range(2, 200):
        ml = ideal_lattice_zn(n)
        instances.append((ml.lattice, ml))
    for k in range(6):
        lat = boolean_lattice(k)
        instances.append((lat, attach_multiplication(lat, "meet")))
    for ml in (chain_square_mult(), chain_square_times_two_chain()):
        instances.append((ml.lattice, ml))
    rng = random.Random(1)
    for _ in range(60):
        lat = random_closure_lattice(rng, 5, rng.randint(2, 10))
        instances.append((lat, attach_multiplication(lat, "meet")
                          if is_distributive(lat) else None))
    for lat, ml in instances:
        mls = {} if ml is None else {"given": ml}
        try:
            mls["trivial"] = attach_multiplication(lat, "trivial")
        except AxiomViolation:
            pass
        yield lat, mls


def test_both_senses_match_the_pairwise_definitions():
    """The multiplicative graph at every element and the order graph at
    every proper principal ideal equal the graphs read pair by pair off the
    module docstring."""
    checked = 0
    senses = Counter()
    for lat, mls in _kernel_instances():
        for i in range(lat.n):
            graphs = [(kind, mult_zero_divisor_graph(ml, i), reference_mult_graph(ml, i))
                      for kind, ml in mls.items()]
            if i != lat.top:
                graphs.append(("order", order_zero_divisor_graph(lat, lat.down[i]),
                               reference_order_graph(lat, lat.down[i])))
            for kind, g, (verts, edges) in graphs:
                assert g.vertices == tuple(verts)
                assert [(g.vertices[a], g.vertices[b]) for a, b in g.edges()] == edges
                checked += 1
                senses[kind] += g.n_edges > 0
    assert checked > 2000
    # Graphs with an edge, per sense.
    assert senses["order"] > 900 and senses["given"] > 500, senses
    assert senses["trivial"] > 40, senses


def test_element_outside_the_lattice_is_rejected():
    ml = fixture("fig2")
    for i in (-1, ml.n):
        with pytest.raises(ValueError):
            mult_zero_divisor_graph(ml, i)


def test_a_transpose_that_puts_a_vertex_beside_itself_is_fatal(monkeypatch):
    monkeypatch.setattr(multlat.zdgraph, "_transposed",
                        lambda rows, n: [(1 << len(rows)) - 1] * n)
    with pytest.raises(SelfCheckError, match="^self-loop$"):
        mult_zero_divisor_graph(fixture("fig3"))


# ---------------------------------------------------------------------------
# DOT export


def test_dot_empty_graph():
    lat = chain_lattice(3)
    g = order_zero_divisor_graph(lat, zero_ideal(lat))
    assert export_dot(g) == "graph G {\n}\n"


def test_dot_k2():
    g = mult_zero_divisor_graph(ideal_lattice_zn(6))
    assert export_dot(g) == (
        'graph G {\n'
        '  "(2)";\n'
        '  "(3)";\n'
        '  "(2)" -- "(3)";\n'
        '}\n'
    )


def test_dot_fig2_order_golden():
    lat = fig2_lattice()
    g = order_zero_divisor_graph(lat, zero_ideal(lat))
    assert export_dot(g) == (
        'graph G {\n'
        '  "a";\n'
        '  "b";\n'
        '  "c";\n'
        '  "a" -- "c";\n'
        '  "b" -- "c";\n'
        '}\n'
    )


def test_dot_with_coloring():
    ml = fixture("fig3")
    g = mult_zero_divisor_graph(ml)
    _, coloring = chromatic_number(g)
    text = export_dot(g, coloring=coloring)
    node_lines = [ln for ln in text.splitlines() if "fillcolor" in ln]
    assert len(node_lines) == 12
    used = {ln.split("fillcolor=")[1].rstrip("];") for ln in node_lines}
    assert len(used) == 4


def test_dot_deterministic():
    ml = fixture("fig3")
    g = mult_zero_divisor_graph(ml)
    assert export_dot(g) == export_dot(g)


def test_dot_rejects_labels_outside_the_palette():
    """A label past 11 or below 0 raises TooLarge with a one-line message,
    however few classes the coloring has; the edge labels 0 and 11 fill
    red and gray."""
    g = mult_zero_divisor_graph(ideal_lattice_zn(6))
    a, b = g.vertices
    for labels in ((0, 15), (-1, 0), (-1, 12)):
        coloring = Coloring(dict(zip((a, b), labels)))
        with pytest.raises(TooLarge) as exc:
            export_dot(g, coloring=coloring)
        assert str(exc.value) == (f"coloring uses labels {labels[0]}..{labels[1]}; "
                                  "palette has 12, labelled 0..11")
    text = export_dot(g, coloring=Coloring({a: 0, b: 11}))
    assert '"(2)" [style=filled,fillcolor=red];' in text
    assert '"(3)" [style=filled,fillcolor=gray];' in text


# A DOT double-quoted ID: any character but " and \, or \ and one character.
DOT_ID = r'"((?:[^"\\]|\\.)*)"'
DOT_NODE = re.compile(rf"  {DOT_ID}( \[style=filled,fillcolor=[a-z]+\])?;")
DOT_EDGE = re.compile(rf"  {DOT_ID} -- {DOT_ID};")


def _dot_names(text: str) -> tuple[list[str], list[tuple[str, str]]]:
    """The node names and edge name pairs of export_dot's text, unescaped;
    every line between the braces must be one node or one edge line."""
    lines = text.splitlines()
    assert lines[0] == "graph G {" and lines[-1] == "}"
    def unescape(dot_id: str) -> str:
        return re.sub(r"\\(.)", r"\1", dot_id)

    nodes, edges = [], []
    for line in lines[1:-1]:
        node, edge = DOT_NODE.fullmatch(line), DOT_EDGE.fullmatch(line)
        assert node or edge, line
        if node:
            nodes.append(unescape(node.group(1)))
        else:
            edges.append((unescape(edge.group(1)), unescape(edge.group(2))))
    return nodes, edges


def test_dot_escapes_quotes_and_backslashes():
    """A name holding a double quote or a backslash is one quoted ID that
    reads back as the name; the node and edge lines stay well formed."""
    names = ["0", 'a"x', "b\\", 'c\\"', "1"]
    lat = build_lattice(names, [("0", n) for n in names[1:4]]
                        + [(n, "1") for n in names[1:4]])
    g = order_zero_divisor_graph(lat, zero_ideal(lat))
    _, coloring = chromatic_number(g)
    for colored in (None, coloring):
        nodes, edges = _dot_names(export_dot(g, coloring=colored))
        assert nodes == names[1:4]
        assert edges == [(a, b) for i, a in enumerate(names[1:4])
                         for b in names[i + 2:4]]
    assert '  "a\\"x" -- "b\\\\";' in export_dot(g)


def test_dot_of_plain_names_is_unchanged():
    """Names with no quote or backslash are written as they are: the DOT of
    every fixture graph is the unescaped text, byte for byte."""
    for name in ("fig2", "fig3"):
        ml = fixture(name)
        g = mult_zero_divisor_graph(ml)
        names = g.vertex_names()
        expected = ["graph G {"] + [f'  "{nm}";' for nm in names] + [
            f'  "{names[i]}" -- "{names[j]}";' for i, j in g.edges()] + ["}"]
        assert export_dot(g) == "\n".join(expected) + "\n"
        assert _dot_names(export_dot(g))[0] == list(names)
