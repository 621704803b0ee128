"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance here is exact (these are counting theorems); the only
numeric bounds are the wall-clock budgets stated with each criterion.
"""
from __future__ import annotations

import json
import random
import subprocess
import sys
import time

import pytest

from multlat import (analyze, analyze_ring, attach_multiplication,
                     brute_force_chromatic, brute_force_clique,
                     check_lemma_suite, chromatic_number, clique_number,
                     fixture, fig2_lattice, ideal_lattice_zn, is_modular,
                     minimal_prime_elements, modularity_witness,
                     mult_zero_divisor_graph, order_zero_divisor_graph)
from multlat.rings import prime_factorization
from multlat.search import boolean_lattice, random_poset_down_set_lattice

from helpers import (assert_is_n5, chain_square_mult,
                     chain_square_times_two_chain, is_squarefree, random_graph)

RANDOM_SUITE_BASE_SEED = 20_240_817


def _criterion(number: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {number}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared reduced-instance battery (criteria 3, 5, and part of 7)


def _reduced_instances():
    for k in range(1, 6):
        yield f"boolean:{k}+meet", attach_multiplication(boolean_lattice(k), "meet")
    for n in range(2, 1001):
        if not is_squarefree(n):
            continue
        zn = ideal_lattice_zn(n)
        yield f"divisor:{n}+ring", zn
        yield f"divisor:{n}+meet", attach_multiplication(zn.lattice, "meet")
    for i in range(100):
        lat = random_poset_down_set_lattice(RANDOM_SUITE_BASE_SEED + i, 24)
        yield f"random:{i}+meet", attach_multiplication(lat, "meet")
    # The two reduced instances whose product is not the meet.
    yield "chain-square", chain_square_mult()
    yield "chain-square x 2-chain", chain_square_times_two_chain()


@pytest.fixture(scope="module")
def reduced_suite():
    start = time.monotonic()
    reports = [(instance_id, ml, analyze(ml, instance_id=instance_id))
               for instance_id, ml in _reduced_instances()]
    return reports, time.monotonic() - start


def test_criterion_1_counterexample_reproduction():
    start = time.monotonic()
    ml = fixture("fig3")  # axiom validation happens here and must pass
    report = analyze(ml, instance_id="fixture:fig3")
    elapsed = time.monotonic() - start
    ok = (report.reduced is False
          and report.nilpotent_witness == {"element": "f", "exponent": 2}
          and report.vertex_count == 12
          and report.chi == 4 and report.omega == 3
          and report.verdict == "fails"
          and elapsed < 1.0)
    _criterion(1, "counterexample reproduction", ok,
               f"chi={report.chi} omega={report.omega} "
               f"verdict={report.verdict} in {elapsed:.3f}s")


def test_criterion_2_small_fixture_reproduction():
    start = time.monotonic()
    lat = fig2_lattice()
    go = order_zero_divisor_graph(lat, 1 << lat.bottom)
    ml = fixture("fig2", "trivial")
    gm = mult_zero_divisor_graph(ml)
    chi, _ = chromatic_number(gm)
    omega, _ = clique_number(gm)
    elapsed = time.monotonic() - start
    names = go.vertex_names()
    ok = (names == ("a", "b", "c")
          and [(names[i], names[j]) for i, j in go.edges()] == [("a", "c"), ("b", "c")]
          and gm.vertex_names() == ("a", "b", "c", "d")
          and gm.n_edges == 6
          and chi == 4 and omega == 4
          and elapsed < 1.0)
    _criterion(2, "two-graph fixture reproduction", ok,
               f"order graph P3, mult graph K4 in {elapsed:.3f}s")


def test_criterion_3_reduced_theorem_suite(reduced_suite):
    reports, elapsed = reduced_suite
    bad = []
    for instance_id, _, report in reports:
        counts = report.counts
        if report.vertex_count == 0:
            agree = (report.chi == 0 and report.omega == 0
                     and counts["minimal_prime_elements"]
                     == counts["minimal_prime_semi_ideals"])
        else:
            agree = (report.chi == report.omega
                     == counts["minimal_prime_elements"]
                     == counts["minimal_prime_semi_ideals"])
        if not agree:
            bad.append((instance_id, report.chi, report.omega, counts))
    ok = not bad and elapsed < 300.0
    _criterion(3, "reduced equalities over the generated battery", ok,
               f"{len(reports)} instances in {elapsed:.1f}s"
               + (f"; first failure {bad[0]}" if bad else ""))


def test_criterion_4_ring_corollary_at_desk_scale():
    start = time.monotonic()
    bad = []
    for n in range(2, 1001):
        if not is_squarefree(n):
            continue
        report = analyze_ring(n)
        k = len(prime_factorization(n))
        if k == 1:
            good = (report.verdict == "empty_graph"
                    and report.chi == 0 and report.omega == 0)
        else:
            good = (report.chi == report.omega == k
                    and report.verdict == "holds")
        if not good:
            bad.append((n, report.chi, report.omega))
    spots = {n: analyze_ring(n) for n in (6, 30, 210, 2310)}
    spot_ok = all(spots[n].chi == spots[n].omega == k
                  for n, k in ((6, 2), (30, 3), (210, 4), (2310, 5)))
    elapsed = time.monotonic() - start
    ok = not bad and spot_ok and elapsed < 120.0
    _criterion(4, "ring corollary over squarefree n <= 1000", ok,
               f"spot 6->2, 30->3, 210->4, 2310->5 in {elapsed:.1f}s"
               + (f"; first failure {bad[0]}" if bad else ""))


def test_criterion_5_lemma_suite_on_reduced_battery(reduced_suite):
    reports, _ = reduced_suite
    bad = []
    acc_detail_ok = True
    for instance_id, ml, report in reports:
        if "fail" in report.lemmas.values():
            bad.append((instance_id, report.lemmas))
        for check in check_lemma_suite(ml):
            if check.status not in ("pass",):
                bad.append((instance_id, check.check_id, check.status))
            if (check.check_id == "annihilator_chains_stabilize"
                    and check.detail != "trivial (finite)"):
                acc_detail_ok = False
    ok = not bad and acc_detail_ok
    _criterion(5, "lemma suite passes on every reduced instance", ok,
               f"{len(reports)} instances"
               + (f"; first failure {bad[0]}" if bad else ""))


def test_criterion_6_solver_oracle_equivalence():
    start = time.monotonic()
    mismatches = []
    count = 0
    for i in range(210):
        rng = random.Random(RANDOM_SUITE_BASE_SEED + i)
        n = 1 + i % 12
        p = (0.2, 0.5, 0.8)[i % 3]
        g = random_graph(rng, n, p)
        chi, _ = chromatic_number(g)
        omega, _ = clique_number(g)
        if chi != brute_force_chromatic(g) or omega != brute_force_clique(g):
            mismatches.append(i)
        count += 1
    g3 = mult_zero_divisor_graph(fixture("fig3"))
    fig3_ok = (chromatic_number(g3)[0] == brute_force_chromatic(g3) == 4
               and clique_number(g3)[0] == brute_force_clique(g3) == 3)
    elapsed = time.monotonic() - start
    ok = not mismatches and fig3_ok and count >= 200 and elapsed < 120.0
    _criterion(6, "exact solvers match the brute-force oracles", ok,
               f"{count} random graphs + the bundled counterexample in "
               f"{elapsed:.1f}s")


def test_criterion_7_structural_flags(reduced_suite):
    reports, _ = reduced_suite
    ml3 = fixture("fig3")
    witness = modularity_witness(ml3.lattice)
    fig3_ok = witness is not None and not is_modular(ml3.lattice)
    assert_is_n5(ml3.lattice, witness)
    start = time.monotonic()
    rings_modular = all(is_modular(ideal_lattice_zn(n).lattice)
                        for n in range(2, 1001))
    sweep_elapsed = time.monotonic() - start
    reduced_zero_distributive = all(report.zero_distributive
                                    for _, _, report in reports)
    ok = fig3_ok and rings_modular and reduced_zero_distributive
    _criterion(7, "structural flags", ok,
               f"N5 witness {tuple(ml3.lattice.names[v] for v in witness)}; "
               f"ring sweep "
               f"in {sweep_elapsed:.1f}s")


def test_criterion_8_byte_identical_reports():
    def run(args):
        return subprocess.run([sys.executable, "-m", "multlat", *args],
                              capture_output=True, text=True)

    analyze_args = ["analyze", "--fixture", "fig3"]
    a1, a2 = run(analyze_args), run(analyze_args)
    search_args = ["search", "--families", "fig3,boolean:4,random:10x16",
                   "--seed", "7", "--budget", "64"]
    s1, s2 = run(search_args), run(search_args)
    ok = (a1.stdout == a2.stdout and a1.returncode == a2.returncode == 1
          and s1.stdout == s2.stdout and s1.returncode == s2.returncode == 1
          and json.loads(a1.stdout)["chi"] == 4)
    _criterion(8, "byte-identical reports for identical inputs and seeds", ok,
               f"analyze: {len(a1.stdout)} bytes, search: {len(s1.stdout)} bytes")
