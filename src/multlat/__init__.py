"""Finite multiplicative lattices and their zero-divisor graphs.

Build and validate bounded lattices, attach verified multiplications,
construct zero-divisor graphs in the order and multiplicative senses,
compute exact chromatic and clique numbers with witnesses, derive the
prime structure in closed form, and report per-instance verdicts on whether
the two graph invariants agree.
"""
from .errors import (AxiomViolation, ImproperIdeal,
                     IncompleteTable, InvalidModulus, LatticeError,
                     LatticeFileError, NoBoundedStructure, NoPrimesFound,
                     NotALattice, NotAnIdeal, NotAPartialOrder, NotReduced,
                     SelfCheckError, SolverTimeout, TooLarge)
from .fileio import load_lattice_file, parse_lattice_data
from .fixtures import FIXTURE_NAMES, fig2_lattice, fig3_lattice, fig3_table, fixture
from .lattice import (ElementSubset, Lattice, build_lattice,
                      distributivity_witness, is_distributive, is_modular,
                      is_zero_distributive, modularity_witness,
                      principal_down_set, principal_up_set,
                      zero_distributivity_witness)
from .multiplication import (MultLattice, annihilator_star,
                             attach_multiplication, is_nilpotent,
                             is_prime_element, is_reduced,
                             maximal_annihilator_elements,
                             minimal_prime_elements, nilpotency_witness,
                             power, prime_elements, residual)
from .primes import (LemmaCheck, LemmaReport, PrimeStructure,
                     check_lemma_suite, minimal_prime_ideals,
                     minimal_prime_semi_ideals, prime_structure)
from .report import BeckReport, analyze
from .rings import ZnIdealLattice, analyze_ring, ideal_lattice_zn
from .search import (SearchResult, boolean_lattice, chain_lattice, generate,
                     random_poset_down_set_lattice, search_counterexamples)
from .solvers import (Coloring, CliqueWitness, beck_coloring,
                      brute_force_chromatic, brute_force_clique,
                      chromatic_number, clique_number, greedy_coloring)
from .zdgraph import (ZdGraph, export_dot, mult_zero_divisor_graph,
                      order_zero_divisor_graph)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
