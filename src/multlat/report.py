"""Per-instance analysis: graph, exact invariants, prime structure, verdict.

The report is the canonical JSON artifact of the toolkit.  Its serialized
form is byte-deterministic for fixed inputs: keys are sorted, lists are in
fixed element order, and wall time is deliberately kept out of the canonical
dictionary (it is carried on the object and surfaced on stderr by the CLI).
The facts about the instance's bottom are computed once per walk over its
elements, and the graph, the solve and the verdict once per element.
"""
from __future__ import annotations

import json
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields
from itertools import combinations

from .errors import SelfCheckError, SolverTimeout
from .lattice import is_zero_distributive, modularity_witness
from .multiplication import MultLattice, is_semiprime, nilpotency_witness
from .primes import check_lemma_suite, prime_structure
from .solvers import DEFAULT_SOLVER_BUDGET, _solve
from .zdgraph import mult_zero_divisor_graph

VERDICT_HOLDS = "holds"
VERDICT_FAILS = "fails"
VERDICT_EMPTY = "empty_graph"


@dataclass
class BeckReport:
    """Everything one instance says about the chromatic/clique equality."""

    instance: str
    element: str
    element_count: int
    vertex_count: int
    edge_count: int
    chi: int | None
    omega: int | None
    clique: list[str] | None
    coloring: dict[str, int] | None
    reduced: bool
    nilpotent_witness: dict | None
    modular: bool
    n5_witness: dict | None
    zero_distributive: bool
    minimal_prime_elements: list[str]
    counts: dict
    verdict: str | None
    timed_out: bool
    lemmas: dict[str, str]
    wall_time: float = field(repr=False, compare=False, default=0.0)

    def to_dict(self) -> dict:
        """The canonical fields: every field that takes part in ``==``."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.compare}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent,
                          ensure_ascii=False)


def analyze(ml: MultLattice, element: int | None = None, instance_id: str = "",
            solver_budget: float | None = DEFAULT_SOLVER_BUDGET) -> BeckReport:
    """Analyze the multiplicative-sense zero-divisor graph of one instance.

    Builds the graph at ``element`` (default: bottom), computes exact chi and
    omega with witnesses, the prime structure, structural flags, and the
    lemma suite, then renders the verdict.  Both invariants come from one
    solve: one relabelling of the graph and one deadline of
    ``solver_budget`` seconds, omega first.  A solver timeout is folded into
    the report (timed_out True, verdict None) so batch callers can log and
    continue; chi and its coloring are None, and so are omega and its
    clique unless the clique was solved first.  The report's ``wall_time``
    covers the whole call.

    At a semiprime element i (a.a <= i implies a <= i; at the bottom, a
    reduced instance) the theory fixes chi and omega in closed form, and a
    disagreement raises SelfCheckError: both must equal the number of
    minimal vertices K, and the members of K must be pairwise adjacent.
    The proof:

    * two distinct x, y in K are adjacent.  Let z = x ^ y < x and w a
      partner of x; then w.z <= w.x <= i, so z not below i would be a
      vertex below x, against the minimality of x.  Hence z <= i, and
      x.y <= x ^ y <= i by M4;
    * colour each vertex like the first member of K below it.  If x and z
      are adjacent, with m <= x and m' <= z in K, then m.m' <= x.z <= i,
      so m = m' would give m.m <= i, against semiprimeness.

    Together |K| <= omega <= chi <= |K|; at the bottom of a reduced
    lattice this is the paper's theorem.  The report's ``reduced`` field
    and its lemma lines are about the bottom whatever the element;
    ``lemmas`` keeps each check's status, and ``check_lemma_suite(ml)``
    gives the checks with their details and witnesses.  A walk over many
    elements of one instance computes those facts once: it is
    ``_analyses``, of which this is the one-element case.
    """
    i = ml.lattice.bottom if element is None else element
    return next(_analyses(ml, (i,), instance_id, solver_budget))


def _analyses(ml: MultLattice, elements: Iterable[int], instance_id: str,
              solver_budget: float | None) -> Iterator[BeckReport]:
    """Yield ``analyze``'s report at each of ``elements``, in order.

    The instance half runs once, before the first graph: the nilpotency
    and N5 witnesses, 0-distributivity, the prime structure and the lemma
    statuses, all about the bottom.  The element half builds each graph,
    solves it once, renders the verdict and runs the semiprime self-check.
    Each report gets containers of its own, so no two share a dict or a
    list.  The first report's ``wall_time`` includes the instance half;
    each later one covers its element alone.
    """
    start = time.monotonic()
    lat = ml.lattice
    names = lat.names
    nilp = nilpotency_witness(ml)
    n5 = modularity_witness(lat)
    n5_keys = ("bottom", "low", "high", "side", "top")
    zero_distributive = is_zero_distributive(lat)
    structure = prime_structure(ml)
    lemmas = {c.check_id: c.status for c in check_lemma_suite(ml, structure)}
    counts = {f.name: len(getattr(structure, f.name)) for f in fields(structure)}
    minimal_primes = [names[p] for p in structure.minimal_prime_elements]
    for i in elements:
        graph = mult_zero_divisor_graph(ml, i)
        timed_out = False
        chi = omega = None
        clique_names = coloring_names = None
        try:
            solve = _solve(graph, solver_budget)
            omega, clique = next(solve)
            clique_names = [names[v] for v in clique.vertices]
            chi, coloring = next(solve)
            coloring_names = {names[v]: c for v, c in coloring.assignment.items()}
            if omega > chi:
                raise SelfCheckError(
                    f"{instance_id}: clique number {omega} exceeds chromatic {chi}")
        except SolverTimeout:
            timed_out = True

        if timed_out:
            verdict = None
        elif graph.n_vertices == 0:
            verdict = VERDICT_EMPTY
        elif chi == omega:
            verdict = VERDICT_HOLDS
        else:
            verdict = VERDICT_FAILS

        if not timed_out and is_semiprime(ml, i):
            kernel = lat.minimal(graph.vertices)
            below = lat.down[i]
            if not (chi == omega == len(kernel) and all(
                    below >> ml.product[x][y] & 1 for x, y in combinations(kernel, 2))):
                what = ("reduced instance" if i == lat.bottom
                        else f"semiprime element {names[i]!r}")
                raise SelfCheckError(
                    f"{instance_id}: {what} with chi={chi}, omega={omega} and "
                    f"{len(kernel)} minimal vertices; this contradicts the reduced "
                    "theory and means the implementation is wrong")

        yield BeckReport(
            instance=instance_id, element=names[i], element_count=lat.n,
            vertex_count=graph.n_vertices, edge_count=graph.n_edges,
            chi=chi, omega=omega, clique=clique_names, coloring=coloring_names,
            reduced=nilp is None,
            nilpotent_witness=None if nilp is None else {
                "element": names[nilp[0]], "exponent": nilp[1]},
            modular=n5 is None,
            n5_witness=None if n5 is None else {
                k: names[v] for k, v in zip(n5_keys, n5)},
            zero_distributive=zero_distributive,
            minimal_prime_elements=list(minimal_primes), counts=dict(counts),
            verdict=verdict, timed_out=timed_out, lemmas=dict(lemmas),
            wall_time=time.monotonic() - start)
        start = time.monotonic()
