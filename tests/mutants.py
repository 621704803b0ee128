"""Mutation checks: hand-made faults in ``src/multlat`` and the tests that
must fail on each.

Every entry of ``MUTANTS`` names a file under ``src/multlat``, an exact
snippet that occurs once in it, the replacement that breaks it, the test
ids that must kill the mutant, and why the fault matters.  Run from the
repository root:

    python tests/mutants.py

For each mutant the runner copies ``src`` and ``tests`` to a temporary
directory, applies the one replacement there, runs the mutant's tests in a
subprocess with ``PYTHONPATH`` pointing at the copy, and prints ``killed``
(a test failed), ``survived`` (all passed), ``not tested`` or ``timed out``
(the run took longer than ``TIMEOUT`` and was stopped).  Before any mutant
it runs every named test on an unchanged copy, which must pass within
``TIMEOUT`` and must import the copy's package.  It exits 1 if a mutant is
not killed or that check fails.  A surviving mutant is mended by a new test, not by
deleting the mutant.  ``tests/test_mutants.py`` checks that each snippet
occurs exactly once.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Seconds one pytest run may take.  On a 2-core host a mutant's run takes
#: 1-3 s and the unchanged copy's about 8 s; the limit stops a mutant that
#: makes a loop run forever, so it fails this run instead of hanging it.
TIMEOUT = 300


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/multlat
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest ids, relative to tests/
    why: str


MUTANTS = (
    # build_lattice: the closure pass, the cover walk and the composed rows.
    Mutant("closure-pass-down-from-direct-predecessors", "lattice.py",
           "down[j] |= down[i]", "down[j] |= 1 << i",
           ("test_lattice.py::test_seeded_cover_relations_close_like_warshall",
            "test_lattice.py::test_boolean_3_and_fig3_tables_match_the_oracles",
            "test_lattice.py::test_random_cover_relations"),
           "down[j] is the union of its predecessors' closed down-sets"),
    Mutant("cover-walk-drops-only-the-cover", "lattice.py",
           "rest &= ~down[x]", "rest &= ~(1 << x)",
           ("test_lattice.py::test_join_irreducibles_have_one_lower_cover",
            "test_primes.py::test_cover_fields_match_their_definitions"),
           "an element below a cover is not a cover; its whole down-set goes"),
    Mutant("composed-join-row-from-one-cover", "lattice.py",
           "itemgetter(*join_rows[covers[1]])", "itemgetter(*join_rows[covers[0]])",
           ("test_lattice.py::test_join_irreducibles_have_one_lower_cover",
            "test_lattice.py::test_meet_join_bounds_law"),
           "c is the join of two lower covers d and e, not of d alone"),
    Mutant("composed-meet-row-from-one-cover", "lattice.py",
           "itemgetter(*meet_rows[covers[1]])", "itemgetter(*meet_rows[covers[0]])",
           ("test_lattice.py::test_meet_join_bounds_law",
            "test_lattice.py::test_boolean_3_and_fig3_tables_match_the_oracles"),
           "c is the meet of two upper covers d and e, not of d alone"),
    Mutant("transpose-skips-rounds", "lattice.py",
           "b //= 2", "b //= 4",
           ("test_lattice.py::test_transposed_matches_the_naive_transpose",),
           "the transpose swaps blocks at every power of two below the stride"),
    # The Id(Z_n) product composed along the cover pairs.
    Mutant("zn-composed-row-is-the-prime-row", "rings.py",
           "rows[c] = itemgetter(*rows[i])(rows[position[p]])",
           "rows[c] = rows[position[p]]",
           ("test_rings.py::test_the_product_is_the_gcd_table",),
           "row (d*p) is row (p) read at the entries of row (d)"),
    Mutant("zn-prime-row-squares-its-prime", "rings.py",
           "position[math.gcd(p * d, n)]", "position[math.gcd(p * d * p, n)]",
           ("test_rings.py::test_the_product_is_the_gcd_table",),
           "(p).(d) is (gcd(pd, n)); p^2 agrees with it only where p^2 does "
           "not divide n"),
    # The prime elements, one mask per instance.
    Mutant("primes-skip-squares", "multiplication.py",
           "for b in irreducibles[i:]:", "for b in irreducibles[i + 1:]:",
           ("test_cores.py::test_prime_elements_match_the_pair_scan",),
           "a.a <= p with a not below p rules p out; the pairs a = b count"),
    Mutant("primes-drop-up-b", "multiplication.py",
           "ruled_out |= up[row[b]] & ~(ua | up[b])",
           "ruled_out |= up[row[b]] & ~ua",
           ("test_cores.py::test_prime_elements_match_the_pair_scan",),
           "an element above b is not ruled out by the pair a, b"),
    Mutant("primes-count-the-top", "multiplication.py",
           "ruled_out = 1 << lat.top", "ruled_out = 0",
           ("test_multiplication.py::test_top_is_never_prime",
            "test_cores.py::test_prime_elements_match_the_pair_scan"),
           "a prime element is not 1 by definition"),
    Mutant("ideal-only-below-its-join", "lattice.py",
           "return self.down[self.join_all(_bits(mask))] == mask",
           "return not mask & ~self.down[self.join_all(_bits(mask))]",
           ("test_cores.py::test_ideal_test_matches_the_pair_definition",),
           "every set lies below its join; an ideal is all of down(V D)"),
    Mutant("prime-ideals-without-the-filter-test", "primes.py",
           "if full & ~d in filters]", "]",
           ("test_primes.py::test_closed_form_matches_down_set_oracle",),
           "down(m) is prime only when its complement is a principal filter"),
    # The reduced theorem checked at every semiprime element.
    Mutant("kernel-by-maximal", "report.py",
           "kernel = lat.minimal(graph.vertices)",
           "kernel = lat.maximal(graph.vertices)",
           ("test_rings.py::test_analyze_ring_spot_values",
            "test_search.py::test_search_reduced_families_have_no_findings"),
           "chi = omega = the number of minimal vertices, not maximal ones"),
    Mutant("kernel-size-unchecked", "report.py",
           "chi == omega == len(kernel) and all(", "chi == omega and all(",
           ("test_search.py::test_solvers_that_agree_below_the_minimal_"
            "vertices_are_fatal",),
           "two solvers that under-report chi and omega by one agree"),
    Mutant("theorem-checked-only-at-the-bottom", "report.py",
           "if not timed_out and is_semiprime(ml, i):",
           "if not timed_out and i == lat.bottom and is_semiprime(ml, i):",
           ("test_search.py::test_chi_above_omega_at_a_semiprime_element_is_"
            "fatal",),
           "the theorem holds at every semiprime element, not only at 0"),
    Mutant("kernel-pair-test-inverted", "report.py",
           "below >> ml.product[x][y] & 1 for x, y",
           "not below >> ml.product[x][y] & 1 for x, y",
           ("test_rings.py::test_analyze_ring_spot_values",),
           "the minimal vertices are pairwise adjacent"),
    # The instance facts computed once per walk, in containers of each report's own.
    Mutant("lemma-suite-per-element", "report.py",
           "lemmas=dict(lemmas)",
           "lemmas={c.check_id: c.status for c in check_lemma_suite(ml, structure)}",
           ("test_cores.py::test_a_walk_computes_the_instance_facts_once",),
           "the lemma suite is about the bottom, so a walk runs it once"),
    Mutant("walk-shares-one-lemmas-dict", "report.py",
           "lemmas=dict(lemmas)", "lemmas=lemmas",
           ("test_cores.py::test_the_reports_of_a_walk_share_no_container",),
           "a caller that edits one report's lemmas must not edit another's"),
    # The built-in products admitted by theorem.
    Mutant("meet-admitted-always", "multiplication.py",
           "admissible = _irreducibles_join_prime(lat)", "admissible = True",
           ("test_cores.py::test_built_in_products_are_admitted_exactly_when_"
            "the_full_check_admits_them",
            "test_multiplication.py::test_meet_multiplication_needs_"
            "distributivity"),
           "the meet satisfies M3 only on a distributive lattice"),
    Mutant("trivial-admitted-always", "multiplication.py",
           "admissible = _top_has_one_lower_cover(lat)", "admissible = True",
           ("test_cores.py::test_built_in_products_are_admitted_exactly_when_"
            "the_full_check_admits_them",
            "test_multiplication.py::test_trivial_multiplication_needs_join_"
            "irreducible_top"),
           "the trivial product fails M3 when 1 has two lower covers"),
    # The M3 phases of the axiom check.
    Mutant("m3-phase-ii-certifies-without-comparing", "multiplication.py",
           "good[c] = [join[x][y] for x, y in zip(rows[d], rows[e])] == [*rows[c]]",
           "good[c] = True",
           ("test_multiplication.py::test_each_m3_phase_rejects_a_table_the_"
            "other_accepts",),
           "a row outside J is good only if it is the join of two good rows"),
    Mutant("m3-phase-i-checks-one-join-irreducible", "multiplication.py",
           "for j in irreducibles)", "for j in irreducibles[:1])",
           ("test_multiplication.py::test_axiom_check_matches_oracle_on_fixed_"
            "instances",),
           "a join-irreducible row is good only if it distributes over b v j "
           "for every j in J"),
    Mutant("join-prime-test-skips-a-join-irreducible", "multiplication.py",
           "for j in lat.join_irreducibles)", "for j in lat.join_irreducibles[1:])",
           ("test_cores.py::test_built_in_products_are_admitted_exactly_when_"
            "the_full_check_admits_them",),
           "every join-irreducible must be join-prime"),
    # Rows read off the join-irreducibles.
    Mutant("leaves-ideal-without-up-j", "lattice.py",
           "out |= up[j]", "out |= 1 << j",
           ("test_cores.py::test_rows_leave_an_ideal_where_their_join_"
            "irreducible_columns_do",
            "test_zdgraph.py::test_both_senses_match_the_pairwise_definitions"),
           "a row leaves the ideal at every y above such a j, not at j alone"),
    Mutant("leaves-ideal-skips-the-last-join-irreducible", "lattice.py",
           "for j in lat.join_irreducibles:", "for j in lat.join_irreducibles[:-1]:",
           ("test_cores.py::test_multiplicative_graphs_are_connected_with_"
            "diameter_at_most_3",),
           "every join-irreducible column can take a row out of the ideal"),
    Mutant("prime-annihilator-pairs-without-the-same-term", "primes.py",
           "ys = prime_stars & ~same[stars[x]] & _leaves_ideal(",
           "ys = prime_stars & _leaves_ideal(",
           ("test_primes.py::test_prime_annihilator_pair_matches_the_pair_"
            "scan",),
           "the lemma is about distinct annihilators; equal ones may not "
           "multiply to 0"),
    # The order graph's ideal is a mask of the lattice's elements.
    Mutant("order-graph-mask-without-lower-bound", "zdgraph.py",
           "if not 0 <= ideal <= full:", "if not ideal <= full:",
           ("test_lattice.py::test_subset_members_outside_the_lattice",),
           "a negative mask has bits past every element and would be read "
           "as a set"),
    # One greedy colouring: the clique search's root classes.
    Mutant("root-class-colours-shifted", "solvers.py",
           "for v in _bits(cls):\n            colors[v] = c\n",
           "for v in _bits(cls):\n            colors[v] = c + 1\n",
           ("test_solvers.py::test_greedy_matches_first_fit_in_degree_order",
            "test_golden.py::test_extended_bytes_match_their_digest"),
           "the greedy colouring numbers its colours from 0, as first fit"),
    Mutant("root-classes-from-the-last-node", "solvers.py",
           "if not stack:  # only the root is entered on an empty stack\n"
           "                root = classes\n",
           "root = classes\n",
           ("test_solvers.py::test_greedy_matches_first_fit_in_degree_order",),
           "only the root's classes colour every vertex"),
    # A fast exact test that a scan contradicts raises.
    Mutant("pentagon-scan-contradiction-ignored", "lattice.py",
           "if (witness := _modularity_scan(self)) is None:",
           "if (witness := _modularity_scan(self)) is None and False:",
           ("test_cores.py::test_a_rejection_that_its_scan_contradicts_raises",),
           "a lattice would read modular against the covering-pair test"),
    Mutant("zero-distributivity-scan-contradiction-ignored", "lattice.py",
           "if (witness := _zero_distributivity_scan(self)) is None:",
           "if (witness := _zero_distributivity_scan(self)) is None and False:",
           ("test_cores.py::test_a_rejection_that_its_scan_contradicts_raises",),
           "a lattice would read 0-distributive against the atom test"),
    Mutant("rejected-product-attached", "multiplication.py",
           "        raise SelfCheckError(f\"the theorem rejects the {kind} "
           "product, but \"\n"
           "                             \"every axiom holds on its table\")\n",
           "",
           ("test_cores.py::test_a_rejected_product_on_which_every_axiom_"
            "holds_raises",),
           "a product that the theorem rejects would attach all the same"),
    # Element indices checked where they are read.
    Mutant("annihilator-index-unchecked", "multiplication.py",
           "    _check_index(ml, a)\n", "",
           ("test_cores.py::test_element_indices_outside_the_lattice_raise",),
           "-1 would read the top's annihilator"),
    Mutant("semiprime-index-unchecked", "multiplication.py",
           "    _check_index(ml, i)\n", "",
           ("test_cores.py::test_element_indices_outside_the_lattice_raise",),
           "-1 would read the top, which is always semiprime"),
    # The transpose keeps only the masks of lattice strides.
    Mutant("transpose-masks-kept-at-every-stride", "lattice.py",
           "_transpose_rounds if s <= _KEPT_STRIDE else",
           "_transpose_rounds if True else",
           ("test_lattice.py::test_transpose_keeps_only_the_masks_of_lattice_"
            "strides",),
           "a hand-built graph of 1200 vertices would hold 5.3 MB for good"),
    # Struct packing at the word strides.
    Mutant("transpose-word-code-too-narrow", "lattice.py",
           '16: "H"', '16: "B"',
           ("test_lattice.py::test_transposed_matches_the_naive_transpose",),
           "a 16-bit row does not fit an 8-bit word"),
    # DSATUR lifts the uncoloured vertices, and only those.
    Mutant("dsatur-lifts-the-coloured-vertices-only", "solvers.py",
           "carry = row & uncolored & ~old", "carry = row & ~uncolored & ~old",
           ("test_solvers.py::test_random_graphs_match_the_reference_solvers",
            "test_solvers.py::test_fig3_node_counts"),
           "the DSATUR choice reads the saturation of uncoloured vertices"),
    # One clique search per graph for clique_number and chromatic_number.
    Mutant("solve-slot-hits-any-graph", "solvers.py",
           "if last is not None and last[0] is g.adj:", "if last is not None:",
           ("test_solvers.py::test_a_solve_of_another_graph_replaces_the_slot",
            "test_solvers.py::test_an_equal_but_distinct_adjacency_tuple_is_"
            "solved_again"),
           "a graph would be solved with the last graph's clique and order"),
    Mutant("solve-slot-never-read", "solvers.py",
           "    last = _last\n", "    last = None\n",
           ("test_solvers.py::test_the_pair_solves_the_clique_once",
            "test_solvers.py::test_a_hit_gives_the_k_search_the_whole_budget"),
           "the pair would relabel and search the clique twice"),
    # The oracles' subset tables.
    Mutant("oracle-count-without-adjacency", "solvers.py",
           "count[s & outside]", "count[s]",
           ("test_solvers.py::test_k4",
            "test_solvers.py::test_oracles_match_the_solvers_on_every_graph_"
            "of_at_most_5_vertices"),
           "a set holding v holds none of v's neighbours"),
    Mutant("oracle-parity-from-zero", "solvers.py",
           "odd = [1], [nv & 1]", "odd = [1], [0]",
           ("test_solvers.py::test_odd_cycle",
            "test_solvers.py::test_oracles_match_the_solvers_on_every_graph_"
            "of_at_most_5_vertices"),
           "the sign of count[S]^k is (-1)^(n - |S|), odd at S empty when n "
           "is odd"),
    Mutant("oracle-clique-flag-without-adjacency", "solvers.py",
           "f and not s & ~row for s, f", "f for s, f",
           ("test_solvers.py::test_fig3_exact_values",
            "test_solvers.py::test_oracles_match_the_solvers_on_every_graph_"
            "of_at_most_5_vertices"),
           "S + v is a clique only when S lies inside v's neighbourhood"),
    # Closed forms read off the stable power and J.
    Mutant("annihilator-of-a-not-its-stable-power", "multiplication.py",
           "row = ml.product[_power_walk(ml.product, a)]",
           "row = ml.product[a]",
           ("test_cores.py::test_annihilators_and_semiprimeness_match_their_"
            "definitions",
            "test_multiplication.py::test_fig3_annihilator_of_square_zero_"
            "element_is_top"),
           "x killed by a power of a need not be killed by a itself"),
    Mutant("semiprime-tested-on-the-atoms", "multiplication.py",
           "for j in ml.lattice.join_irreducibles if not below >> j & 1)",
           "for j in ml.lattice.upper_covers[ml.lattice.bottom]\n"
           "               if not below >> j & 1)",
           ("test_cores.py::test_annihilators_and_semiprimeness_match_their_"
            "definitions",
            "test_search.py::test_semiprime_elements_by_definition"),
           "a join-irreducible above an atom may square below i"),
)


def source(mutant: Mutant) -> str:
    """The unmutated text of the mutant's file."""
    return (ROOT / "src" / "multlat" / mutant.path).read_text(encoding="utf-8")


def _copy(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                    ".pytest_cache", "*.egg-info")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part, ignore=ignore)


def _pytest(where: Path, tests: list[str]
            ) -> subprocess.CompletedProcess | None:
    """The finished pytest run of ``tests`` in the copy at ``where``, or
    None if it ran past ``TIMEOUT`` and was killed."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *[f"tests/{t}" for t in tests]],
            cwd=where, env=env, capture_output=True, text=True,
            timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None


def _imports_the_copy(where: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(where / "src"))
    found = subprocess.run(
        [sys.executable, "-c", "import multlat; print(multlat.__file__)"],
        cwd=where, env=env, capture_output=True, text=True).stdout.strip()
    return Path(found).resolve().is_relative_to(where.resolve())


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="multlat-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        if not _imports_the_copy(clean):
            print("the copy's package is not the one imported", file=sys.stderr)
            return 1
        every_test = sorted({t for m in MUTANTS for t in m.tests})
        baseline = _pytest(clean, every_test)
        if baseline is None or baseline.returncode != 0:
            print(f"timed out after {TIMEOUT} s" if baseline is None
                  else baseline.stdout[-3000:], file=sys.stderr)
            print("the mutants' tests fail on the unchanged code", file=sys.stderr)
            return 1
        # pytest exits 1 when a test fails; any other code (collection
        # error, no test found) means the mutant was not tested, and a run
        # stopped at TIMEOUT is a failure too, never a kill.
        outcomes = {0: "survived", 1: "killed"}
        failures = []
        for k, m in enumerate(MUTANTS):
            where = Path(tmp) / f"mutant-{k}"
            _copy(where)
            target = where / "src" / "multlat" / m.path
            target.write_text(source(m).replace(m.snippet, m.replacement),
                              encoding="utf-8")
            run = _pytest(where, list(m.tests))
            shutil.rmtree(where)
            code = None if run is None else run.returncode
            outcome = (f"timed out (after {TIMEOUT} s)" if run is None else
                       outcomes.get(code, f"not tested (pytest exit {code})"))
            print(f"{outcome}  {m.name}: {m.why}", flush=True)
            if code != 1:
                failures.append(m.name)
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
