"""The public API, pinned: the names ``multlat`` exports, and README's
library example run as it is written."""
from __future__ import annotations

import ast
import os
import re
import subprocess
import sys

import multlat

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

# Every name in multlat.__all__: the package's functions, classes and
# constants, and no submodule.  A new export, or a deleted one, must be
# added here or removed here on purpose.
PUBLIC_NAMES = [
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


def test_the_exported_names_are_pinned():
    assert len(PUBLIC_NAMES) == 61
    assert sorted(multlat.__all__) == PUBLIC_NAMES


def test_no_module_reads_a_private_lattice_attribute():
    """The cover structure is read through the public ``Lattice`` fields:
    the old private names appear nowhere in the package, and no module but
    lattice.py reads an underscored attribute of a lattice."""
    src = os.path.dirname(multlat.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                text = fh.read()
            assert "_join_irreducibles" not in text, name
            assert "_lower_covers" not in text, name
            if name != "lattice.py":
                assert not re.search(r"\b(lat|lattice)\._", text), name


def _is_lazy(node: ast.expr) -> bool:
    """A generator expression, or a call of map, filter or zip: an iterator
    whose length is not known before it is run."""
    return isinstance(node, ast.GeneratorExp) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("map", "filter", "zip"))


def test_no_module_builds_a_tuple_from_a_generator():
    """``tuple(<iterator>)`` allocates a guessed size and resizes it, and
    the resized tuple grows the free lists; so does the argument tuple of
    ``f(*<iterator>)``.  The package builds each tuple from a list or a
    tuple, which has its exact size."""
    src = os.path.dirname(multlat.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            calls = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and (
                         isinstance(node.func, ast.Name) and node.func.id == "tuple"
                         and any(_is_lazy(a) for a in node.args)
                         or any(isinstance(a, ast.Starred) and _is_lazy(a.value)
                                for a in node.args))]
            assert not calls, (name, calls)


def test_the_solvers_depend_on_the_graph_alone():
    """solvers.py takes from the package only its errors, the bit iterator
    and the bit-matrix transpose of lattice.py and the ZdGraph type: no
    multiplication, no graph construction."""
    path = os.path.join(os.path.dirname(multlat.__file__), "solvers.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "multlat" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "multlat"):
            module = (node.module or "").removeprefix("multlat.")
            imported.setdefault(module, set()).update(a.name for a in node.names)
    assert set(imported) <= {"errors", "lattice", "zdgraph"}, imported
    assert imported.get("lattice", set()) <= {"_bits", "_transposed"}
    assert imported.get("zdgraph", set()) <= {"ZdGraph"}


def test_the_readme_library_example_runs():
    """README's one python block runs in a fresh interpreter and prints the
    fig3 verdict, so it names no function that is gone."""
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", blocks[0]], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "fails\n"
