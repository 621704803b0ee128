"""Family generators and the counterexample search harness."""
from __future__ import annotations

import dataclasses
import types

import pytest

import multlat.report
import multlat.search
from multlat import (AxiomViolation, CliqueWitness, InvalidSpec,
                     SelfCheckError, analyze, build_lattice, fixture,
                     ideal_lattice_zn, is_reduced, mult_zero_divisor_graph,
                     parse_lattice_data, search_counterexamples)
from multlat.lattice import MAX_INPUT_ELEMENTS
from multlat.multiplication import is_semiprime
from multlat.search import (MAX_BOOLEAN_RANK, MAX_RANDOM_SIZE, MIN_RANDOM_SIZE,
                            _instances, boolean_lattice, chain_lattice,
                            generate, random_poset_down_set_lattice)

from helpers import fig3_under_a_new_bottom


# ---------------------------------------------------------------------------
# Generators


def test_generate_chain():
    [(instance_id, ml)] = generate("chain:5")
    assert instance_id == "chain:5+meet"
    assert ml.n == 5 and is_reduced(ml)
    assert mult_zero_divisor_graph(ml).n_vertices == 0


def test_chains_past_256_elements_are_generated():
    """chain:K takes any K up to MAX_INPUT_ELEMENTS, with the meet as its
    product."""
    [(instance_id, ml)] = generate("chain:300")
    assert instance_id == "chain:300+meet"
    assert ml.n == 300 and ml.product == ml.lattice.meet


def test_generate_boolean():
    [(instance_id, ml)] = generate("boolean:3")
    assert instance_id == "boolean:3+meet"
    assert ml.n == 8
    from multlat import minimal_prime_elements
    assert len(minimal_prime_elements(ml)) == 3


def test_boolean_lattice_from_covers_equals_the_build_from_its_order():
    """boolean:8 built from its cover pairs equals the build from all of
    its order pairs, cover fields included."""
    k = 8
    lat = boolean_lattice(k)
    pairs = [(lat.names[a], lat.names[b]) for a in range(1 << k)
             for b in range(1 << k) if a & ~b == 0]
    from_order = build_lattice(lat.names, pairs, "leq")
    assert lat == from_order
    assert lat.lower_covers == from_order.lower_covers
    assert lat.upper_covers == from_order.upper_covers
    assert lat.join_irreducibles == from_order.join_irreducibles


def test_boolean_rank_is_capped_by_the_input_size_cap():
    """2^K elements fit under MAX_INPUT_ELEMENTS up to K = 10, and
    boolean:10 is generated and analysed: chi = omega = 10."""
    assert MAX_BOOLEAN_RANK == 10
    assert 2 ** MAX_BOOLEAN_RANK <= MAX_INPUT_ELEMENTS < 2 ** (MAX_BOOLEAN_RANK + 1)
    [(instance_id, ml)] = generate("boolean:10")
    report = analyze(ml, instance_id=instance_id)
    assert ml.n == 1024 and report.verdict == "holds"
    assert report.chi == report.omega == report.counts["minimal_prime_elements"] == 10
    with pytest.raises(InvalidSpec, match=r"boolean rank must be 0\.\.10, got 11"):
        generate("boolean:11")


def test_generate_divisor_default_ring():
    [(instance_id, ml)] = generate("divisor:30")
    assert instance_id == "divisor:30+ring"
    assert ml.n == 8


def test_generate_divisor_meet():
    [(instance_id, ml)] = generate("divisor:30:meet")
    assert instance_id == "divisor:30+meet"


def test_generate_fixtures():
    [(i2, ml2)] = generate("fig2")
    assert i2 == "fig2+trivial" and ml2.n == 6
    [(i3, ml3)] = generate("fig3")
    assert i3 == "fig3+table" and ml3.n == 14


def test_generate_random_expands_and_is_seeded():
    out1 = generate("random:4x16", seed=9)
    out2 = generate("random:4x16", seed=9)
    assert len(out1) == 4
    assert [i for i, _ in out1] == [i for i, _ in out2]
    for (_, a), (_, b) in zip(out1, out2):
        assert a.lattice == b.lattice
    out3 = generate("random:4x16", seed=10)
    assert [i for i, _ in out3] != [i for i, _ in out1]


def test_generate_mult_override_token():
    # a chain top is join-irreducible, so the trivial multiplication attaches
    [(instance_id, ml)] = generate("chain:3:trivial")
    assert instance_id == "chain:3+trivial"
    assert not is_reduced(ml)


@pytest.mark.parametrize("spec, ids", [
    ("chain:3", ["chain:3+meet"]),
    ("chain:3:trivial", ["chain:3+trivial"]),
    ("boolean:2", ["boolean:2+meet"]),
    ("boolean:1:trivial", ["boolean:1+trivial"]),
    ("divisor:12", ["divisor:12+ring"]),
    ("divisor:12:meet", ["divisor:12+meet"]),
    ("random:2x8", ["random:seed=3000009,max=8+meet",
                    "random:seed=3000010,max=8+meet"]),
    ("random:1x8:meet", ["random:seed=3000009,max=8+meet"]),
    ("fig2", ["fig2+trivial"]),
    ("fig2:trivial", ["fig2+trivial"]),
    ("fig3", ["fig3+table"]),
    ("fig3:trivial", ["fig3+trivial"]),
])
def test_generate_names_each_instance_by_its_multiplication(spec, ids):
    """Without a ":MULT" suffix the id names the family's default
    multiplication, with one it names the suffix."""
    assert [i for i, _ in generate(spec, seed=3)] == ids


def test_generate_trivial_on_join_reducible_top_fails():
    # the boolean top is the join of the coatoms
    with pytest.raises(AxiomViolation):
        generate("boolean:3:trivial")


def test_generate_bad_specs():
    for bad in ("nope:3", "chain", "chain:2:3:4", "random:5", "boolean:11",
                "fig2:9", "divisor:1"):
        with pytest.raises(Exception):
            generate(bad)


def test_bad_specs_raise_invalid_spec():
    for bad in ("bogus:3", "boolean:x", "boolean:11", "chain:-1", "chain:1025",
                "chain:4:ring", "random:5x", "random:3x0", "random:-1x5",
                "divisor:x", "fig2:table", "random:0x16"):
        with pytest.raises(InvalidSpec):
            generate(bad)
    with pytest.raises(InvalidSpec):
        search_counterexamples(["chain:4"], budget=0)
    _instances("chain:1024")  # the longest chain spec parses; nothing is built
    _instances("boolean:10")  # and so does the largest boolean spec


def test_family_builders_reject_sizes_out_of_range():
    for k in (0, -1):
        with pytest.raises(ValueError, match="^chain needs at least one element$"):
            chain_lattice(k)
    for k in (-1, MAX_BOOLEAN_RANK + 1):
        with pytest.raises(ValueError, match=rf"^boolean rank must be in "
                           rf"0\.\.{MAX_BOOLEAN_RANK}$"):
            boolean_lattice(k)


def test_an_unknown_fixture_is_an_invalid_spec():
    with pytest.raises(InvalidSpec, match="^unknown fixture 'fig9'; "
                       "available: fig2, fig3$"):
        fixture("fig9")


def test_fig2_has_no_bundled_table():
    with pytest.raises(InvalidSpec,
                       match="^fig2 has no bundled multiplication table$"):
        fixture("fig2", "table")


class _Antichains:
    """A seeded generator stand-in whose every poset is a 3-point
    antichain: the smallest size, and no pair comparable."""

    def __init__(self, seed):
        pass

    def randint(self, low, high):
        return low

    def random(self):
        return 1.0


def test_random_sampling_that_never_fits_raises(monkeypatch):
    """A 3-point antichain has 8 down-sets, more than 4: every one of the
    sampler's 1000 posets is too large, and it says so."""
    monkeypatch.setattr(multlat.search, "random",
                        types.SimpleNamespace(Random=_Antichains))
    with pytest.raises(RuntimeError, match="^random poset sampling failed "
                       "to meet the size bound$"):
        random_poset_down_set_lattice(0, MIN_RANDOM_SIZE)


def test_random_lattice_bounds():
    for seed in range(30):
        lat = random_poset_down_set_lattice(seed, 24)
        assert 2 <= lat.n <= 24
    with pytest.raises(ValueError):
        random_poset_down_set_lattice(0, 100)


def test_random_size_range_is_stated_once():
    """The spec check and the sampler accept the same sizes, MIN..MAX, and
    state the range in the same words."""
    for size in (MIN_RANDOM_SIZE - 1, MAX_RANDOM_SIZE + 1):
        message = f"random size must be {MIN_RANDOM_SIZE}..{MAX_RANDOM_SIZE}"
        with pytest.raises(InvalidSpec, match=message):
            generate(f"random:1x{size}")
        with pytest.raises(InvalidSpec, match=message):
            random_poset_down_set_lattice(0, size)
    for size in (MIN_RANDOM_SIZE, MAX_RANDOM_SIZE):
        [(_, ml)] = generate(f"random:1x{size}")
        assert ml.n <= size


# ---------------------------------------------------------------------------
# Search


def test_search_finds_the_bundled_counterexample():
    result = search_counterexamples(["fig3", "boolean:3"], seed=0)
    assert result.analyzed == 2
    assert len(result.findings) == 1
    finding = result.findings[0]
    assert finding["instance"] == "fig3+table"
    assert (finding["chi"], finding["omega"]) == (4, 3)
    assert finding["reduced"] is False
    assert finding["modular"] is False
    assert finding["oracle_verified"] is True


def test_search_reduced_families_have_no_findings():
    specs = [f"boolean:{k}" for k in range(1, 5)] + \
            [f"chain:{k}" for k in range(1, 6)] + \
            ["divisor:30", "divisor:210", "random:10x16"]
    result = search_counterexamples(specs, seed=3)
    assert result.findings == []
    assert result.analyzed == len(specs) - 1 + 10


def test_search_budget_limits_instances():
    result = search_counterexamples(["random:8x12"], budget=3, seed=1)
    assert result.analyzed == 3
    with pytest.raises(ValueError):
        search_counterexamples(["fig3"], budget=0)


def test_search_builds_only_the_instances_it_analyzes(monkeypatch):
    """A budget of 1 over a hundred thousand random lattices builds one."""
    built = []
    real = multlat.search.build_lattice

    def counted(*args):
        built.append(args[0])
        return real(*args)

    monkeypatch.setattr(multlat.search, "build_lattice", counted)
    result = search_counterexamples(["random:100000x40"], budget=1)
    assert result.analyzed == 1 and len(built) == 1


def test_a_bad_last_spec_raises_before_any_analysis(monkeypatch):
    def no_analysis(*args, **kwargs):
        raise AssertionError("analyze called")

    monkeypatch.setattr(multlat.search, "analyze", no_analysis)
    with pytest.raises(InvalidSpec, match="chain size must be an integer"):
        search_counterexamples(["fig3", "chain:x"])
    with pytest.raises(InvalidSpec, match="ring multiplication only applies"):
        search_counterexamples(["random:5x12", "boolean:2:ring"], budget=1)


def test_search_determinism():
    specs = ["random:6x14", "fig3", "divisor:60"]
    r1 = search_counterexamples(specs, seed=11)
    r2 = search_counterexamples(specs, seed=11)
    assert r1.findings == r2.findings
    assert r1.analyzed == r2.analyzed


def test_search_skips_timeouts():
    result = search_counterexamples(["boolean:4"], seed=0, solver_budget=0.0)
    assert result.findings == []
    assert result.skipped == ["boolean:4+meet"]


def misreport_chi(monkeypatch):
    """Make analyze's solve report chi one too high."""
    real = multlat.report._solve

    def broken(graph, budget=None):
        solve = real(graph, budget)
        yield next(solve)
        chi, coloring = next(solve)
        yield chi + 1, coloring

    monkeypatch.setattr(multlat.report, "_solve", broken)


def underreport_both(monkeypatch):
    """Make analyze's solve report omega one too low, with a clique one
    vertex smaller, and chi one too low: the two still agree."""
    real = multlat.report._solve

    def broken(graph, budget=None):
        solve = real(graph, budget)
        omega, clique = next(solve)
        yield omega - 1, CliqueWitness(clique.vertices[:-1])
        chi, coloring = next(solve)
        yield chi - 1, coloring

    monkeypatch.setattr(multlat.report, "_solve", broken)


def test_reduced_violation_is_fatal(monkeypatch):
    """Force the solver to misreport chi on a reduced instance: the analysis
    must abort with SelfCheckError instead of emitting a finding."""
    misreport_chi(monkeypatch)
    with pytest.raises(SelfCheckError):
        search_counterexamples(["boolean:2"], seed=0)


def test_chi_above_omega_at_a_semiprime_element_is_fatal(monkeypatch):
    """The same misreport at a semiprime element of a non-reduced lattice:
    (6) in Id(Z_12), where (6).(6) = 0.  The quotient above (6) is reduced,
    so the theory still forbids chi != omega there."""
    ml = ideal_lattice_zn(12)
    six = ml.lattice.names.index("(6)")
    assert not is_reduced(ml) and is_semiprime(ml, six)
    assert analyze(ml, element=six).verdict == "holds"
    misreport_chi(monkeypatch)
    with pytest.raises(SelfCheckError, match="semiprime element '\\(6\\)'"):
        analyze(ml, element=six)


def test_solvers_that_agree_below_the_minimal_vertices_are_fatal(monkeypatch):
    """chi = omega = 2 on boolean:3, whose graph has the three atoms as its
    minimal vertices: the solvers agree with each other, but not with the
    theory, which puts both at 3."""
    [(instance_id, ml)] = generate("boolean:3")
    underreport_both(monkeypatch)
    with pytest.raises(SelfCheckError, match="reduced instance with chi=2, "
                       "omega=2 and 3 minimal vertices"):
        analyze(ml, instance_id=instance_id)


def test_a_reduced_finding_that_escapes_analyze_is_fatal(monkeypatch):
    """analyze raises before it reports a reduced instance as failing; a
    stand-in that does not is caught by the search itself."""
    real = multlat.search.analyze
    monkeypatch.setattr(multlat.search, "analyze", lambda ml, **kw: (
        dataclasses.replace(real(ml, **kw), reduced=True, verdict="fails")))
    with pytest.raises(SelfCheckError, match="^chain:2\\+meet: reduced finding "
                       "escaped$"):
        search_counterexamples(["chain:2"])


def test_a_finding_the_oracle_disagrees_with_is_fatal(monkeypatch):
    """fig3's graph has 12 vertices, so its finding is re-checked by the
    brute-force oracles; a wrong chromatic oracle stops the search."""
    monkeypatch.setattr(multlat.search, "brute_force_chromatic", lambda g: 0)
    with pytest.raises(SelfCheckError, match="^fig3\\+table: solvers disagree "
                       "with the brute-force oracle$"):
        search_counterexamples(["fig3"])


def test_a_reduced_lattice_fails_at_an_element_that_is_not_semiprime():
    """fig3 under a new bottom is reduced, but its old bottom "0" is not
    semiprime (f.f = 0): chi = 4 > omega = 3 there is a genuine failure,
    not a self-check alarm.  The report's ``reduced`` stays about the
    bottom."""
    ml = parse_lattice_data(fig3_under_a_new_bottom())[1]
    zero = ml.lattice.names.index("0")
    assert ml.n == 15 and is_reduced(ml) and not is_semiprime(ml, zero)
    report = analyze(ml, element=zero)
    assert (report.verdict, report.chi, report.omega) == ("fails", 4, 3)
    assert report.reduced is True and report.nilpotent_witness is None
    assert analyze(ml).verdict == "empty_graph"


def test_semiprime_elements_by_definition():
    """is_semiprime against a.a <= i implies a <= i over every a."""
    for ml in [ideal_lattice_zn(n) for n in (12, 36, 60, 72)] + [
            parse_lattice_data(fig3_under_a_new_bottom())[1]]:
        down = ml.lattice.down
        for i in range(ml.n):
            assert is_semiprime(ml, i) == all(
                down[i] >> a & 1 for a in range(ml.n)
                if down[i] >> ml.product[a][a] & 1)


def test_analyze_assigns_instance_ids():
    [(instance_id, ml)] = generate("boolean:2")
    report = analyze(ml, instance_id=instance_id)
    assert report.instance == "boolean:2+meet"
    assert report.verdict == "holds"
