"""Exact clique and chromatic number with witnesses, plus brute-force oracles.

The exact solvers are deterministic: vertices are processed in a fixed order
(descending degree, ties by position), improvements are strict, and no
wall-clock or OS entropy enters any decision.  Both carry a configurable time
budget and abort with SolverTimeout when it runs out.  The kernels read the
clock on their first search node and on every 64th node after it, so a
timeout is noticed at most 63 nodes late, and each adds the number of nodes
it visited to the ``nodes`` count of its deadline, whether it returns or
raises.  That count is as deterministic as the search.

Both solvers work on bitmasks over one relabelling of the graph: vertex v of
the new numbering is the v-th vertex of the degree order, so "highest degree,
then lowest position" is always the lowest set bit of a mask.  Two kernels
run on those masks, each on an explicit stack, so neither the depth of the
search nor the size of a clique is bounded by Python's recursion limit:

* ``_max_clique``, a branch and bound whose candidates are greedily
  coloured at each node, the class count bounding the clique.  The mask
  of the vertices outside each closed neighbourhood is built once per
  search, so a greedy step is one ``&``;
* ``_k_colorable``, a DSATUR backtracking search.  It keeps, per colour c,
  the mask of vertices that see c on a neighbour, and bit-sliced saturation
  layers: among the uncoloured vertices, layer t holds those with at least
  t + 1 distinct neighbour colours, and only uncoloured vertices are
  lifted.  The DSATUR choice is then the lowest set bit of the top
  non-empty layer among the uncoloured vertices.

Neither saving changes a search tree: each node chooses the vertex and
tries the colours that the tests' plain reference solvers do, with the same
``nodes`` counts and witnesses.

``_solve`` relabels the graph once and makes one deadline.  It yields omega
with its checked clique first, then chi with its checked colouring, so a
timeout in the colouring search still leaves omega.  The k-search, or the
clique search's root classes when every k below their count is refuted,
give a colour list in the new numbering; only that one is built and mapped
back, by ``_coloring``, into a ``Coloring`` that holds the assignment alone
and reads its colour count off it.
``clique_number`` and ``chromatic_number`` are thin wrappers over
``_solve``, and the pair shares one relabelling and one clique search:
``_solve`` keeps the last graph's in a one-graph slot, keyed on the
identity of ``g.adj`` and held until another graph is solved, so the second
call of the pair skips both and gives its whole budget to the k-search.

The brute-force oracles are naive on purpose, independent of the solvers
they cross-check: each fills one table over every vertex subset, with no
search, vertex order or bound (inclusion-exclusion for chi, a flag for omega).
"""
from __future__ import annotations

import time
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import SelfCheckError, SolverTimeout, TooLarge
from .lattice import _bits, _transposed
from .zdgraph import ZdGraph

#: Default per-graph time budget for the exact solvers, in seconds.
DEFAULT_SOLVER_BUDGET = 30.0

#: Size cap for the brute-force oracles.  Each of their tables holds 2^n
#: entries, and ``search`` re-verifies every finding of at most this many
#: vertices, so raising the cap changes its output bytes.
ORACLE_CAP = 12


class _Deadline:
    """A time budget shared by the kernels of one solve, and their node count.

    ``check`` reads the clock and raises SolverTimeout once the budget is
    spent; the kernels call it on nodes 1, 65, 129, ..., not on every node.
    ``nodes`` is the number of search nodes the kernels have visited under
    this deadline: clique nodes plus DSATUR nodes over every k tried.
    """

    __slots__ = ("limit", "nodes")

    def __init__(self, seconds: float | None):
        self.limit = None if seconds is None else time.monotonic() + seconds
        self.nodes = 0

    def check(self) -> None:
        if self.limit is not None and time.monotonic() > self.limit:
            raise SolverTimeout("solver exceeded its time budget")


@dataclass
class Coloring:
    """A proper vertex coloring; keys are lattice element indices."""

    assignment: dict[int, int]

    @property
    def color_count(self) -> int:
        """The number of distinct colours the assignment uses."""
        return len(set(self.assignment.values()))


@dataclass
class CliqueWitness:
    """A set of pairwise-adjacent vertices (lattice element indices)."""

    vertices: tuple[int, ...]


def _degree_order(g: ZdGraph) -> list[int]:
    # The sort is stable, so ties keep their order by position.
    keys = [-row.bit_count() for row in g.adj]
    return sorted(range(g.n_vertices), key=keys.__getitem__)


def _relabel(g: ZdGraph) -> tuple[list[int], list[int]]:
    """The degree order and the adjacency masks renumbered along it.

    Vertex v of the new numbering is position ``order[v]`` of ``g``.  With
    the rows taken in degree order, column c of the matrix is the set of
    new vertices adjacent to position c, which by symmetry is the new row
    of the vertex at position c.  So new row v is column ``order[v]``.
    """
    order = _degree_order(g)
    adj = g.adj
    columns = _transposed([adj[old] for old in order], len(order))
    return order, [columns[old] for old in order]


def is_proper(g: ZdGraph, coloring: Coloring) -> bool:
    col = coloring.assignment
    if set(col) != set(g.vertices):
        return False
    classes: dict[int, int] = {}
    for k, v in enumerate(g.vertices):
        classes[col[v]] = classes.get(col[v], 0) | 1 << k
    return all(not row & classes[col[v]]
               for row, v in zip(g.adj, g.vertices))


def _class_colors(classes: list[int], nv: int) -> list[int]:
    """The colour of each of nv relabelled vertices: the position of its
    class among the disjoint masks ``classes``."""
    colors = [0] * nv
    for c, cls in enumerate(classes):
        for v in _bits(cls):
            colors[v] = c
    return colors


def _coloring(g: ZdGraph, order: list[int], colors: list[int]) -> Coloring:
    """Map colours of the relabelled numbering back to a Coloring of ``g``."""
    return Coloring({g.vertices[old]: c for old, c in zip(order, colors)})


# ---------------------------------------------------------------------------
# Exact kernels on relabelled adjacency masks: maximum clique (branch and
# bound with a greedy-colouring bound) and k-colourability (DSATUR)


def _max_clique(adj: list[int], deadline: _Deadline
                ) -> tuple[int, int, list[int]]:
    """The size and mask of a maximum clique, on masks from ``_relabel``,
    and the colour classes of the root node, which colour every vertex.

    Branch and bound over candidate masks.  On entering a node the
    candidates are greedily coloured; a vertex in class c (from 1) can only
    extend the clique to its size + c, which prunes the rest of the node.
    The classes are scanned from the last down, each from its highest
    vertex, and the first clique of a size wins.  ``outside[v]``, the
    vertices that are neither v nor adjacent to it, is built once per
    search, so a greedy step drops v's closed neighbourhood with one ``&``.
    The search runs on an explicit stack of [clique mask, clique size,
    candidates left, classes, class number, class bits left] frames, so its
    depth is not bounded by Python's recursion limit.  Nodes are counted
    and the clock polled as the module docstring says.
    """
    outside = [~(row | 1 << v) for v, row in enumerate(adj)]
    best_size = best_mask = 0
    root: list[int] = []
    stack = []
    rmask, rsize, cand = 0, 0, (1 << len(adj)) - 1
    nodes = 0
    try:
        while True:
            # Enter the node (rmask, rsize, cand).
            nodes += 1
            if nodes & 63 == 1:
                deadline.check()
            classes = []
            rest = cand
            while rest:
                avail = rest
                cls = 0
                while avail:
                    low = avail & -avail
                    cls |= low
                    avail &= outside[low.bit_length() - 1]
                classes.append(cls)
                rest &= ~cls
            bound = len(classes)
            if not stack:  # only the root is entered on an empty stack
                root = classes
            stack.append([rmask, rsize, cand, classes, bound,
                          classes[-1] if classes else 0])
            # Scan the top frame until it branches or every frame is done.
            while stack:
                frame = stack[-1]
                rmask, rsize, p, classes, bound, cls = frame
                if not cls and bound > 1:
                    bound -= 1
                    cls = classes[bound - 1]
                if not cls or rsize + bound <= best_size:
                    stack.pop()
                    continue
                v = cls.bit_length() - 1
                bit = 1 << v
                frame[2] = p & ~bit
                frame[4] = bound
                frame[5] = cls ^ bit
                cand = p & adj[v]
                if cand:
                    rmask |= bit
                    rsize += 1
                    break
                if rsize + 1 > best_size:
                    best_size = rsize + 1
                    best_mask = rmask | bit
            else:
                return best_size, best_mask, root
    finally:
        deadline.nodes += nodes


def _k_colorable(adj: list[int], k: int, deadline: _Deadline) -> list[int] | None:
    """Colours 0..k-1 per vertex of a proper coloring, or None.

    Backtracking with dynamic DSATUR vertex selection (max saturation, ties
    by degree then position) and new-color symmetry breaking, on adjacency
    masks relabelled by ``_relabel``.  ``seen[c]`` is the mask of vertices
    with a neighbour coloured c; ``sat[t]`` holds the vertices with at least
    t + 1 distinct neighbour colours.  Colouring v with c lifts the
    uncoloured vertices of ``adj[v] & ~seen[c]`` one layer by a carry
    chain, so the next vertex is the lowest set bit of the top layer met by
    the uncoloured mask.  Only uncoloured vertices are lifted: the layers
    are read only through ``sat[t] & uncolored``, and a vertex is coloured
    until the frame that coloured it is popped, which restores the layers
    it saw, so a coloured vertex's layer bits are never read and the tree
    is that of lifting every neighbour.  A colour c is tested on v as
    ``seen[c] & low``, low being v's bit.  The search runs on an explicit
    stack of (vertex, colour, colours used, old ``seen[c]``, old layers)
    frames, so its depth is not bounded by Python's recursion limit.  A
    frame keeps the layer list itself, not a copy: the list is never
    changed in place, and a colouring that lifts some vertex works on a
    fresh copy.  Nodes are counted and the clock polled as the module
    docstring says.
    """
    nv = len(adj)
    colors = [0] * nv
    seen = [0] * k
    sat = [0] * k
    uncolored = (1 << nv) - 1
    max_used = -1
    top = k - 1
    stack = []
    push, pop = stack.append, stack.pop
    nodes = 0
    try:
        while True:
            nodes += 1
            if nodes & 63 == 1:
                deadline.check()
            if not uncolored:
                return colors
            # No vertex sees more colours than are in use, so the scan starts
            # at layer max_used.
            cand = uncolored
            t = max_used
            while t >= 0:
                if sat[t] & uncolored:
                    cand = sat[t] & uncolored
                    break
                t -= 1
            low = cand & -cand
            v = low.bit_length() - 1
            c = 0
            limit = max_used + 1 if max_used < top else top
            while True:
                while c <= limit and seen[c] & low:
                    c += 1
                if c <= limit:
                    break
                # v has no colour left: undo the last assignment, try its
                # next.
                if not stack:
                    return None
                v, c, max_used, old, sat = pop()
                seen[c] = old
                low = 1 << v
                uncolored |= low
                limit = max_used + 1 if max_used < top else top
                c += 1
            old = seen[c]
            row = adj[v]
            push((v, c, max_used, old, sat))
            seen[c] = old | row
            uncolored ^= low
            carry = row & uncolored & ~old
            if carry:
                sat = sat[:]
                t = 0
                while carry:
                    s = sat[t]
                    sat[t] = s | carry
                    carry &= s
                    t += 1
            colors[v] = c
            if c > max_used:
                max_used = c
    finally:
        deadline.nodes += nodes


# ---------------------------------------------------------------------------
# Exact solvers: relabel once, run the kernels, check the witnesses


def _clique_witness(g: ZdGraph, order: list[int], size: int,
                    mask: int) -> CliqueWitness:
    """Map a clique of the relabelled numbering back to ``g`` and check it."""
    positions = [order[v] for v in _bits(mask)]
    pmask = 0
    for k in positions:
        pmask |= 1 << k
    if len(positions) != size or any(
            (g.adj[k] | 1 << k) & pmask != pmask for k in positions):
        raise SelfCheckError("clique witness not a clique")
    return CliqueWitness(tuple(sorted(g.vertices[k] for k in positions)))


#: (g.adj, order, relabelled adj, omega, clique mask, root classes) of the
#: last finished clique search, read only; see ``_solve``.
_last: tuple | None = None


def _solve(g: ZdGraph, budget: float | None = DEFAULT_SOLVER_BUDGET
           ) -> Iterator[tuple[int, CliqueWitness | Coloring]]:
    """Yield (omega, clique witness), then (chi, proper colouring).

    chi is proved by sandwiching: omega is a lower bound, the colouring by
    ``_max_clique``'s root classes an upper bound, and each k in between is
    settled by ``_k_colorable``.  One deadline counts the nodes of both
    kernels.  The root classes are turned into colours by ``_class_colors``
    only when every k below their count is refuted; when a k succeeds,
    which is most dense random graphs, they are never built.  The root
    classes are first fit along the relabelled order: class c takes, in
    ascending order, each vertex outside classes 0..c-1 with no smaller
    neighbour already in class c, so by induction on v it is the least
    class holding no smaller neighbour of v.

    The relabelling and the clique search depend on ``g.adj`` alone, so the
    module keeps those of the last graph whose clique search finished, in
    the one slot ``_last``, until a solve of another graph replaces it.  A
    call whose ``g.adj`` is that very tuple (identity, not equality) skips
    ``_relabel`` and ``_max_clique``; the slot holds the tuple, so its
    identity cannot pass to another.  The clique check, the k-search under
    the call's own deadline and the colouring checks run on every call,
    and the witnesses are mapped through the calling graph's vertices.  A
    solve that times out in the clique search stores nothing.  The slot
    holds ints and lists of ints only, never a graph or a lattice, and is
    read once, so a store between the test and the use cannot mix two
    graphs.
    """
    global _last
    if g.n_vertices == 0:
        yield 0, CliqueWitness(())
        yield 0, Coloring({})
        return
    deadline = _Deadline(budget)
    last = _last
    if last is not None and last[0] is g.adj:
        _, order, adj, omega, mask, classes = last
    else:
        order, adj = _relabel(g)
        omega, mask, classes = _max_clique(adj, deadline)
        _last = g.adj, order, adj, omega, mask, classes
    yield omega, _clique_witness(g, order, omega, mask)
    chi = len(classes)
    for k in range(omega, chi):
        colors = _k_colorable(adj, k, deadline)
        if colors is not None:
            chi = k
            break
    else:
        colors = _class_colors(classes, len(adj))
    witness = _coloring(g, order, colors)
    if not is_proper(g, witness):
        raise SelfCheckError("chromatic witness is not proper")
    if witness.color_count != chi:
        raise SelfCheckError("chromatic witness wastes colors")
    yield chi, witness


def clique_number(g: ZdGraph,
                  budget: float | None = DEFAULT_SOLVER_BUDGET
                  ) -> tuple[int, CliqueWitness]:
    """Exact maximum clique size and a checked witness: the first half of
    ``_solve``.  The search runs under ``budget``, unless ``g.adj`` is the
    tuple of the last finished search (``_solve``); then it is read from
    that slot and returns even under ``budget=0.0``."""
    return next(_solve(g, budget))


def chromatic_number(g: ZdGraph,
                     budget: float | None = DEFAULT_SOLVER_BUDGET
                     ) -> tuple[int, Coloring]:
    """Exact chromatic number with a proper witness colouring: the second
    half of ``_solve``.  When the last graph solved is this one (by
    ``clique_number`` or ``chromatic_number``), the relabelling and the
    clique come from ``_solve``'s slot and the whole ``budget`` goes to the
    k-search; if the root classes already meet omega no k-search runs, and
    the call returns even under ``budget=0.0``.  Otherwise the clique
    search and the k-search share the budget."""
    _, solved = _solve(g, budget)
    return solved


# ---------------------------------------------------------------------------
# Brute-force oracles: one table over every vertex subset each


def _oracle_size(g: ZdGraph) -> int:
    """The vertex count of ``g``; TooLarge above ``ORACLE_CAP``."""
    nv = g.n_vertices
    if nv > ORACLE_CAP:
        raise TooLarge(f"graph has {nv} vertices; oracle cap is {ORACLE_CAP}")
    return nv


def brute_force_chromatic(g: ZdGraph) -> int:
    """Smallest k admitting a proper k-labeling, by inclusion-exclusion.

    ``count[S]`` is the number of independent sets inside S, the empty one
    included; a set inside S + v leaves v out or holds v and no neighbour.
    G is k-colourable exactly when the sum over S of (-1)^(n - |S|)
    count[S]^k, taken over the distinct (count, parity) pairs, is positive
    (Bjorklund, Husfeldt and Koivisto, "Set partitioning via
    inclusion-exclusion", SIAM J. Comput. 39, 2009); chi <= n bounds k.
    Raises TooLarge above ``ORACLE_CAP`` vertices.
    """
    nv = _oracle_size(g)
    count, odd = [1], [nv & 1]
    for row in g.adj:
        outside = ~row
        count += [c + count[s & outside] for s, c in enumerate(count)]
        odd += [p ^ 1 for p in odd]
    terms = Counter(zip(count, odd)).items()
    return next(k for k in range(nv + 1)
                if sum(-m * c ** k if p else m * c ** k
                       for (c, p), m in terms) > 0)


def brute_force_clique(g: ZdGraph) -> int:
    """Maximum clique size, from a flag per vertex subset built one vertex v
    at a time: S + v is a clique when S is one and lies inside the
    neighbourhood of v.  TooLarge above ``ORACLE_CAP`` vertices."""
    _oracle_size(g)
    clique = [True]
    for row in g.adj:
        clique += [f and not s & ~row for s, f in enumerate(clique)]
    return max(s.bit_count() for s, f in enumerate(clique) if f)
