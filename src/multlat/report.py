"""Per-instance analysis: graph, exact invariants, prime structure, verdict.

The report is the canonical JSON artifact of the toolkit.  Its serialized
form is byte-deterministic for fixed inputs: keys are sorted, lists are in
fixed element order, and wall time is deliberately kept out of the canonical
dictionary (it is carried on the object and surfaced on stderr by the CLI).
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .errors import SelfCheckError, SolverTimeout
from .lattice import is_zero_distributive, modularity_witness
from .multiplication import MultLattice, is_reduced, nilpotency_witness
from .primes import LemmaReport, check_lemma_suite, prime_structure
from .solvers import DEFAULT_SOLVER_BUDGET, chromatic_number, clique_number
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
    lemma_report: LemmaReport = field(repr=False, compare=False, default=None)
    wall_time: float = field(repr=False, compare=False, default=0.0)

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "element": self.element,
            "element_count": self.element_count,
            "vertex_count": self.vertex_count,
            "edge_count": self.edge_count,
            "chi": self.chi,
            "omega": self.omega,
            "clique": self.clique,
            "coloring": self.coloring,
            "reduced": self.reduced,
            "nilpotent_witness": self.nilpotent_witness,
            "modular": self.modular,
            "n5_witness": self.n5_witness,
            "zero_distributive": self.zero_distributive,
            "minimal_prime_elements": self.minimal_prime_elements,
            "counts": self.counts,
            "verdict": self.verdict,
            "timed_out": self.timed_out,
            "lemmas": self.lemmas,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent,
                          ensure_ascii=False)


def analyze(ml: MultLattice, element: int | None = None, instance_id: str = "",
            solver_budget: float | None = DEFAULT_SOLVER_BUDGET) -> BeckReport:
    """Analyze the multiplicative-sense zero-divisor graph of one instance.

    Builds the graph at ``element`` (default: bottom), computes exact chi and
    omega with witnesses, the prime structure, structural flags, and the
    lemma suite, then renders the verdict.  A solver timeout is folded into
    the report (chi/omega None, timed_out True) so batch callers can log and
    continue; a reduced instance with chi != omega raises SelfCheckError
    because the theory proves it impossible.
    """
    start = time.monotonic()
    lat = ml.lattice
    i = lat.bottom if element is None else element
    graph = mult_zero_divisor_graph(ml, i)

    timed_out = False
    chi = omega = None
    clique_names = coloring_names = None
    try:
        omega, clique = clique_number(graph, solver_budget)
        chi, coloring = chromatic_number(graph, solver_budget, lower=omega)
        clique_names = [lat.names[v] for v in clique.vertices]
        coloring_names = {lat.names[v]: c for v, c in coloring.assignment.items()}
        if omega > chi:
            raise SelfCheckError(
                f"{instance_id}: clique number {omega} exceeds chromatic {chi}")
    except SolverTimeout:
        timed_out = True

    reduced = is_reduced(ml)
    nilp = nilpotency_witness(ml)
    nilp_dict = None
    if nilp is not None:
        nilp_dict = {"element": lat.names[nilp[0]], "exponent": nilp[1]}
    n5 = modularity_witness(lat)
    n5_dict = None
    if n5 is not None:
        keys = ("bottom", "low", "high", "side", "top")
        n5_dict = {k: lat.names[v] for k, v in zip(keys, n5)}

    structure = prime_structure(ml)
    lemma_report = check_lemma_suite(ml, structure)

    counts = {
        "minimal_prime_elements": len(structure.minimal_prime_elements),
        "minimal_prime_semi_ideals": len(structure.minimal_prime_semi_ideals),
        "minimal_prime_ideals": len(structure.minimal_prime_ideals),
        "maximal_annihilators": len(structure.maximal_annihilators),
    }

    if timed_out:
        verdict = None
    elif graph.n_vertices == 0:
        verdict = VERDICT_EMPTY
    elif chi == omega:
        verdict = VERDICT_HOLDS
    else:
        verdict = VERDICT_FAILS

    if reduced and verdict == VERDICT_FAILS:
        raise SelfCheckError(
            f"{instance_id}: reduced instance with chi={chi} != omega={omega}; "
            "this contradicts the reduced theory and means the implementation "
            "is wrong")

    report = BeckReport(
        instance=instance_id,
        element=lat.names[i],
        element_count=lat.n,
        vertex_count=graph.n_vertices,
        edge_count=graph.n_edges,
        chi=chi,
        omega=omega,
        clique=clique_names,
        coloring=coloring_names,
        reduced=reduced,
        nilpotent_witness=nilp_dict,
        modular=n5 is None,
        n5_witness=n5_dict,
        zero_distributive=is_zero_distributive(lat),
        minimal_prime_elements=[lat.names[p]
                                for p in structure.minimal_prime_elements],
        counts=counts,
        verdict=verdict,
        timed_out=timed_out,
        lemmas=lemma_report.summary(),
        lemma_report=lemma_report,
        wall_time=time.monotonic() - start,
    )
    return report
