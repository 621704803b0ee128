"""Exact clique and chromatic number with witnesses, plus brute-force oracles.

The exact solvers are deterministic: vertices are processed in a fixed order
(descending degree, ties by position), improvements are strict, and no
wall-clock or OS entropy enters any decision.  Both carry a configurable time
budget and abort with SolverTimeout when it runs out.

The brute-force oracles are intentionally naive (static vertex order,
exhaustive search with only conflict pruning) so they stay independent of the
branch-and-bound solvers they cross-check.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import NoPrimesFound, NotReduced, SolverTimeout, TooLarge
from .lattice import _bits
from .multiplication import MultLattice, is_reduced, minimal_prime_elements
from .zdgraph import ZdGraph, mult_zero_divisor_graph

#: Default per-graph time budget for the exact solvers, in seconds.
DEFAULT_SOLVER_BUDGET = 30.0

#: Size cap for the brute-force oracles.
ORACLE_CAP = 12


class _Deadline:
    __slots__ = ("limit",)

    def __init__(self, seconds: float | None):
        self.limit = None if seconds is None else time.monotonic() + seconds

    def check(self) -> None:
        if self.limit is not None and time.monotonic() > self.limit:
            raise SolverTimeout("solver exceeded its time budget")


@dataclass
class Coloring:
    """A proper vertex coloring; keys are lattice element indices."""

    assignment: dict[int, int]
    color_count: int

    def __post_init__(self):
        used = set(self.assignment.values())
        assert self.color_count == len(used)


@dataclass
class CliqueWitness:
    """A set of pairwise-adjacent vertices (lattice element indices)."""

    vertices: tuple[int, ...]


def _degree_order(g: ZdGraph) -> list[int]:
    degs = [g.adj[k].bit_count() for k in range(g.n_vertices)]
    return sorted(range(g.n_vertices), key=lambda k: (-degs[k], k))


def is_proper(g: ZdGraph, coloring: Coloring) -> bool:
    col = coloring.assignment
    for i, j in g.edges():
        if col[g.vertices[i]] == col[g.vertices[j]]:
            return False
    return set(col) == set(g.vertices)


def greedy_coloring(g: ZdGraph) -> Coloring:
    """Largest-degree-first greedy coloring (deterministic upper bound)."""
    order = _degree_order(g)
    colors: dict[int, int] = {}
    for k in order:
        used = {colors[j] for j in _bits(g.adj[k]) if j in colors}
        c = 0
        while c in used:
            c += 1
        colors[k] = c
    assignment = {g.vertices[k]: c for k, c in colors.items()}
    return Coloring(assignment, len(set(colors.values())) if colors else 0)


# ---------------------------------------------------------------------------
# Exact maximum clique (branch and bound with greedy-coloring bound)


def clique_number(g: ZdGraph,
                  budget: float | None = DEFAULT_SOLVER_BUDGET
                  ) -> tuple[int, CliqueWitness]:
    """Exact maximum clique size and a witness.

    Branch and bound over candidate bitmasks; vertices are renumbered by
    descending degree (ties by position) and candidates inside a node are
    ordered by a greedy coloring whose class count bounds the achievable
    clique.  Returns (0, empty witness) for the empty graph.
    """
    nv = g.n_vertices
    if nv == 0:
        return 0, CliqueWitness(())
    deadline = _Deadline(budget)
    order = _degree_order(g)
    # adjacency in the new numbering
    newpos = {old: new for new, old in enumerate(order)}
    adj = [0] * nv
    for old_i, row in enumerate(g.adj):
        for old_j in _bits(row):
            adj[newpos[old_i]] |= 1 << newpos[old_j]

    best_size = 0
    best_mask = 0

    def expand(rmask: int, rsize: int, cand: int) -> None:
        nonlocal best_size, best_mask
        deadline.check()
        # Greedy-color the candidates; a vertex in class c can only extend the
        # clique to rsize + c + 1, which prunes the tail of the scan.
        classes: list[int] = []
        rest = cand
        while rest:
            avail = rest
            cls = 0
            while avail:
                v = (avail & -avail).bit_length() - 1
                cls |= 1 << v
                avail &= ~(adj[v] | 1 << v)
            classes.append(cls)
            rest &= ~cls
        ordered: list[tuple[int, int]] = []
        for ci, cls in enumerate(classes):
            for v in _bits(cls):
                ordered.append((v, ci + 1))
        p = cand
        for v, bound in reversed(ordered):
            if rsize + bound <= best_size:
                return
            nr = rmask | 1 << v
            np_ = p & adj[v]
            if np_:
                expand(nr, rsize + 1, np_)
            elif rsize + 1 > best_size:
                best_size = rsize + 1
                best_mask = nr
            p &= ~(1 << v)

    expand(0, 0, (1 << nv) - 1)
    witness = tuple(sorted(g.vertices[order[v]] for v in _bits(best_mask)))
    # sanity: pairwise adjacency of the witness in the original graph
    pos = {v: k for k, v in enumerate(g.vertices)}
    for a in witness:
        for b in witness:
            if a != b:
                assert g.adjacent(pos[a], pos[b]), "clique witness not a clique"
    return best_size, CliqueWitness(witness)


# ---------------------------------------------------------------------------
# Exact chromatic number (iterated k-colorability, DSATUR branching)


def _k_colorable(g: ZdGraph, k: int, deadline: _Deadline) -> dict[int, int] | None:
    """A proper coloring with at most k colors, or None.

    Backtracking with dynamic DSATUR vertex selection (max saturation, ties
    by degree then position) and new-color symmetry breaking.
    """
    nv = g.n_vertices
    adj = g.adj
    colors = [-1] * nv
    neighbor_colors: list[set[int]] = [set() for _ in range(nv)]
    degs = [adj[i].bit_count() for i in range(nv)]

    def pick() -> int:
        best = -1
        key = (-1, -1, 0)
        for v in range(nv):
            if colors[v] < 0:
                cand = (len(neighbor_colors[v]), degs[v], -v)
                if cand > key:
                    key = cand
                    best = v
        return best

    def run(colored: int, max_used: int) -> bool:
        deadline.check()
        if colored == nv:
            return True
        v = pick()
        limit = min(max_used + 1, k - 1)
        for c in range(limit + 1):
            if c in neighbor_colors[v]:
                continue
            colors[v] = c
            touched = []
            for w in _bits(adj[v]):
                if colors[w] < 0 and c not in neighbor_colors[w]:
                    neighbor_colors[w].add(c)
                    touched.append(w)
            if run(colored + 1, max(max_used, c)):
                return True
            for w in touched:
                neighbor_colors[w].discard(c)
            colors[v] = -1
        return False

    if nv == 0:
        return {}
    if run(0, -1):
        return {g.vertices[i]: colors[i] for i in range(nv)}
    return None


def chromatic_number(g: ZdGraph,
                     budget: float | None = DEFAULT_SOLVER_BUDGET,
                     lower: int | None = None) -> tuple[int, Coloring]:
    """Exact chromatic number with a proper witness coloring.

    Optimality is proved by sandwiching: the clique number is a lower bound,
    a greedy largest-degree-first coloring an upper bound, and each k in
    between is settled by an exhaustive k-colorability search.  A caller
    that has already solved the clique number passes it as ``lower``; the
    clique is solved here only when ``lower`` is None.  Returns
    (0, empty coloring) for the empty graph.
    """
    if g.n_vertices == 0:
        return 0, Coloring({}, 0)
    deadline = _Deadline(budget)
    if lower is None:
        lower, _ = clique_number(g, budget)
    greedy = greedy_coloring(g)
    upper = greedy.color_count
    witness = greedy
    chi = upper
    for k in range(lower, upper):
        deadline.check()
        found = _k_colorable(g, k, deadline)
        if found is not None:
            chi = k
            witness = Coloring(found, len(set(found.values())))
            break
    assert is_proper(g, witness), "chromatic witness is not proper"
    assert witness.color_count == chi, "chromatic witness wastes colors"
    return chi, witness


# ---------------------------------------------------------------------------
# Brute-force oracles


def brute_force_chromatic(g: ZdGraph, max_vertices: int = ORACLE_CAP) -> int:
    """Smallest k admitting a proper k-labeling, by exhaustive search.

    Static vertex order, colors tried in canonical form (a vertex may only
    open one fresh color); no heuristics or bounds beyond edge conflicts.
    Raises TooLarge above ``max_vertices``.
    """
    nv = g.n_vertices
    if nv > max_vertices:
        raise TooLarge(f"graph has {nv} vertices; oracle cap is {max_vertices}")
    if nv == 0:
        return 0
    adj = g.adj

    def colorable(k: int) -> bool:
        colors = [-1] * nv

        def rec(v: int, used: int) -> bool:
            if v == nv:
                return True
            for c in range(min(used + 1, k)):
                if all(colors[w] != c for w in _bits(adj[v])):
                    colors[v] = c
                    if rec(v + 1, max(used, c + 1)):
                        return True
                    colors[v] = -1
            return False

        return rec(0, 0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def brute_force_clique(g: ZdGraph, max_vertices: int = ORACLE_CAP) -> int:
    """Maximum clique size by exhaustive subset enumeration."""
    nv = g.n_vertices
    if nv > max_vertices:
        raise TooLarge(f"graph has {nv} vertices; oracle cap is {max_vertices}")
    adj = g.adj
    best = 0
    for mask in range(1 << nv):
        size = mask.bit_count()
        if size <= best:
            continue
        ok = True
        rest = mask
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if rest & ~adj[v]:
                ok = False
                break
        if ok:
            best = size
    return best


# ---------------------------------------------------------------------------
# Constructive coloring for reduced lattices


def beck_coloring(ml: MultLattice,
                  budget: float | None = DEFAULT_SOLVER_BUDGET) -> Coloring:
    """Color the zero-divisor graph of a reduced lattice by minimal primes.

    With the minimal prime elements p_1 < p_2 < ... (ascending element
    index), each vertex x gets the first index i with x not below p_i.  In a
    reduced lattice the minimal primes meet to 0, so the color is defined for
    every vertex, and adjacent vertices (product 0 <= p_i) cannot share it;
    the result is a proper coloring in at most #minimal-primes colors.
    """
    if not is_reduced(ml):
        raise NotReduced("constructive coloring requires a reduced lattice")
    lat = ml.lattice
    graph = mult_zero_divisor_graph(ml, lat.bottom)
    if graph.n_vertices == 0:
        return Coloring({}, 0)
    primes = minimal_prime_elements(ml)
    if not primes:
        raise NoPrimesFound("no prime elements although the graph is non-empty")
    assert lat.meet_all(primes) == lat.bottom, \
        "minimal primes of a reduced lattice must meet to 0"
    assignment: dict[int, int] = {}
    for v in graph.vertices:
        for i, p in enumerate(primes):
            if not lat.leq(v, p):
                assignment[v] = i
                break
        else:
            raise AssertionError(
                f"vertex {lat.names[v]} lies below every minimal prime")
    coloring = Coloring(assignment, len(set(assignment.values())))
    assert is_proper(graph, coloring), "minimal-prime coloring is not proper"
    assert coloring.color_count <= len(primes)
    return coloring
