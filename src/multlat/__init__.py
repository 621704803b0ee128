"""Finite multiplicative lattices and their zero-divisor graphs.

Build and validate bounded lattices, attach verified multiplications,
construct zero-divisor graphs in the order and multiplicative senses,
compute exact chromatic and clique numbers with witnesses, derive the
prime structure in closed form, and report per-instance verdicts on whether
the two graph invariants agree.
"""
from .errors import (AxiomViolation, ImproperIdeal, IncompleteTable,
                     InvalidModulus, InvalidSpec, LatticeError,
                     LatticeFileError, NoBoundedStructure, NotALattice,
                     NotAnIdeal, NotAPartialOrder, SelfCheckError,
                     SolverTimeout, TooLarge)
from .fileio import load_lattice_file, parse_lattice_data
from .fixtures import FIXTURE_NAMES, fig2_lattice, fig3_lattice, fig3_table, fixture
from .lattice import (Lattice, build_lattice, is_modular, is_zero_distributive,
                      modularity_witness, zero_distributivity_witness)
from .multiplication import (MultLattice, annihilator_star,
                             attach_multiplication, is_reduced,
                             maximal_annihilator_elements,
                             minimal_prime_elements, nilpotency_witness,
                             prime_elements)
from .primes import (LemmaCheck, PrimeStructure, check_lemma_suite,
                     minimal_prime_ideals, minimal_prime_semi_ideals,
                     prime_structure)
from .report import BeckReport, analyze
from .rings import analyze_ring, ideal_lattice_zn
from .search import (SearchResult, boolean_lattice, chain_lattice, generate,
                     random_poset_down_set_lattice, search_counterexamples)
from .solvers import (Coloring, CliqueWitness, brute_force_chromatic,
                      brute_force_clique, chromatic_number, clique_number)
from .zdgraph import (ZdGraph, export_dot, mult_zero_divisor_graph,
                      order_zero_divisor_graph)

__version__ = "0.1.0"

__all__ = [
    "AxiomViolation", "BeckReport", "CliqueWitness", "Coloring",
    "FIXTURE_NAMES", "ImproperIdeal", "IncompleteTable",
    "InvalidModulus", "InvalidSpec", "Lattice", "LatticeError",
    "LatticeFileError", "LemmaCheck", "MultLattice",
    "NoBoundedStructure", "NotALattice", "NotAPartialOrder", "NotAnIdeal",
    "PrimeStructure", "SearchResult", "SelfCheckError", "SolverTimeout",
    "TooLarge", "ZdGraph", "analyze", "analyze_ring", "annihilator_star",
    "attach_multiplication", "boolean_lattice", "brute_force_chromatic",
    "brute_force_clique", "build_lattice", "chain_lattice",
    "check_lemma_suite", "chromatic_number", "clique_number", "export_dot",
    "fig2_lattice", "fig3_lattice", "fig3_table", "fixture", "generate",
    "ideal_lattice_zn", "is_modular", "is_reduced", "is_zero_distributive",
    "load_lattice_file", "maximal_annihilator_elements",
    "minimal_prime_elements", "minimal_prime_ideals",
    "minimal_prime_semi_ideals", "modularity_witness",
    "mult_zero_divisor_graph", "nilpotency_witness",
    "order_zero_divisor_graph", "parse_lattice_data", "prime_elements",
    "prime_structure", "random_poset_down_set_lattice",
    "search_counterexamples", "zero_distributivity_witness",
]
