"""Family generators and the counterexample search harness."""
from __future__ import annotations

import pytest

import multlat.report
from multlat import (AxiomViolation, SelfCheckError, analyze, is_reduced,
                     mult_zero_divisor_graph, search_counterexamples)
from multlat.search import generate, random_poset_down_set_lattice


# ---------------------------------------------------------------------------
# Generators


def test_generate_chain():
    [(instance_id, ml)] = generate("chain:5")
    assert instance_id == "chain:5+meet"
    assert ml.n == 5 and is_reduced(ml)
    assert mult_zero_divisor_graph(ml).n_vertices == 0


def test_generate_boolean():
    [(instance_id, ml)] = generate("boolean:3")
    assert instance_id == "boolean:3+meet"
    assert ml.n == 8
    from multlat import minimal_prime_elements
    assert len(minimal_prime_elements(ml)) == 3


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


def test_generate_trivial_on_join_reducible_top_fails():
    # the boolean top is the join of the coatoms
    with pytest.raises(AxiomViolation):
        generate("boolean:3:trivial")


def test_generate_bad_specs():
    for bad in ("nope:3", "chain", "chain:2:3:4", "random:5", "boolean:9",
                "fig2:9", "divisor:1"):
        with pytest.raises(Exception):
            generate(bad)


def test_random_lattice_bounds():
    for seed in range(30):
        lat = random_poset_down_set_lattice(seed, 24)
        assert 2 <= lat.n <= 24
    with pytest.raises(ValueError):
        random_poset_down_set_lattice(0, 100)


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


def test_reduced_violation_is_fatal(monkeypatch):
    """Force the solver to misreport chi on a reduced instance: the analysis
    must abort with SelfCheckError instead of emitting a finding."""
    real = multlat.report.chromatic_number

    def broken(graph, budget=None, lower=None):
        chi, coloring = real(graph, budget, lower)
        return chi + 1, coloring

    monkeypatch.setattr(multlat.report, "chromatic_number", broken)
    with pytest.raises(SelfCheckError):
        search_counterexamples(["boolean:2"], seed=0)


def test_analyze_assigns_instance_ids():
    [(instance_id, ml)] = generate("boolean:2")
    report = analyze(ml, instance_id=instance_id)
    assert report.instance == "boolean:2+meet"
    assert report.verdict == "holds"
