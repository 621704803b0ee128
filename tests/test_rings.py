"""The ideal lattice of Z_n and its analysis."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import multlat.rings
from multlat import (InvalidModulus, SelfCheckError, analyze_ring, ideal_lattice_zn,
                     is_modular, is_reduced, minimal_prime_elements,
                     mult_zero_divisor_graph)
from multlat.lattice import MAX_INPUT_ELEMENTS
from multlat.rings import MAX_MODULUS, _divisors, prime_factorization
from multlat.solvers import DEFAULT_SOLVER_BUDGET

from helpers import (gcd_product_table, is_distributive, is_squarefree,
                     naive_divisors)


def test_divisor_helpers():
    assert _divisors(prime_factorization(30)) == [1, 2, 3, 5, 6, 10, 15, 30]
    assert _divisors(prime_factorization(7)) == [1, 7]
    assert is_squarefree(30) and not is_squarefree(12)
    assert prime_factorization(60) == [(2, 2), (3, 1), (5, 1)]
    assert prime_factorization(999999999989) == [(999999999989, 1)]
    assert prime_factorization(2 * 499999999979) == [(2, 1), (499999999979, 1)]
    assert prime_factorization(10**12) == [(2, 12), (5, 12)]
    assert prime_factorization(349188840) == [
        (2, 3), (3, 3), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1)]


def test_the_factorization_multiplies_back():
    """Ascending primes with positive exponents whose product is n.  Each
    prime below 10**6 is checked by trial division; the two larger ones are
    pinned in ``test_divisor_helpers``."""
    for n in (*range(2, 5001), 999999999989, 2 * 499999999979, 10**12,
              349188840):
        pairs = prime_factorization(n)
        primes = [p for p, _ in pairs]
        assert math.prod([p**e for p, e in pairs]) == n, n
        assert primes == sorted(set(primes)), n
        assert all(e >= 1 for _, e in pairs), n
        assert all(p % q for p in primes if p < 10**6
                   for q in range(2, math.isqrt(p) + 1)), n


def test_the_divisor_listing_matches_the_naive_oracle():
    for n in range(2, 5001):
        assert _divisors(prime_factorization(n)) == naive_divisors(n), n


def test_invalid_modulus():
    for bad in (1, 0, -5, 2.5, "6"):
        with pytest.raises(InvalidModulus):
            ideal_lattice_zn(bad)


class _Reached(Exception):
    """Raised by a stand-in for a step of ideal_lattice_zn."""


def _reached(*args):
    raise _Reached


def test_moduli_past_the_caps_are_rejected_before_building(monkeypatch):
    """A modulus above MAX_MODULUS is rejected before it is factorised, and
    one with more than MAX_INPUT_ELEMENTS divisors before its lattice is
    built; at either cap the build is reached."""
    monkeypatch.setattr(multlat.rings, "build_lattice", _reached)
    with pytest.raises(_Reached):
        ideal_lattice_zn(MAX_MODULUS)
    assert len(_divisors(prime_factorization(349188840))) == MAX_INPUT_ELEMENTS
    with pytest.raises(_Reached):
        ideal_lattice_zn(349188840)
    with pytest.raises(InvalidModulus, match="has 1344 elements; at most 1024"):
        ideal_lattice_zn(735134400)
    monkeypatch.setattr(multlat.rings, "prime_factorization", _reached)
    for n in (MAX_MODULUS + 1, 10**30):
        with pytest.raises(InvalidModulus, match=f"at most {MAX_MODULUS}, got {n}"):
            ideal_lattice_zn(n)


def test_too_many_divisors_are_counted_not_listed(monkeypatch):
    """A modulus past the element cap is rejected from the exponents of its
    factorization, before any divisor is listed; at the cap the divisors
    are listed."""
    monkeypatch.setattr(multlat.rings, "_divisors", _reached)
    for n, count in ((735134400, 1344), (735134400 * 19, 2688)):
        with pytest.raises(InvalidModulus, match=(
                rf"^Id\(Z_{n}\) has {count} elements; at most 1024 are accepted$")):
            ideal_lattice_zn(n)
    with pytest.raises(_Reached):
        ideal_lattice_zn(349188840)


def test_z6_structure():
    zn = ideal_lattice_zn(6)
    lat = zn.lattice
    assert set(lat.names) == {"(1)", "(2)", "(3)", "(6)"}
    assert lat.names[lat.bottom] == "(6)"
    assert lat.names[lat.top] == "(1)"
    g = mult_zero_divisor_graph(zn)
    assert g.vertex_names() == ("(2)", "(3)")
    assert g.n_edges == 1


def test_z4_is_not_reduced():
    ml = ideal_lattice_zn(4)
    two = ml.lattice.names.index("(2)")
    assert ml.product[two][two] == ml.lattice.bottom
    assert not is_reduced(ml)


def test_z30_minimal_primes():
    zn = ideal_lattice_zn(30)
    assert zn.n == len(naive_divisors(30)) == 8
    names = [zn.lattice.names[p] for p in minimal_prime_elements(zn)]
    assert names == ["(2)", "(3)", "(5)"]


def test_order_is_reverse_divisibility():
    zn = ideal_lattice_zn(60)
    lat, divs = zn.lattice, naive_divisors(60)
    for i, d1 in enumerate(divs):
        for j, d2 in enumerate(divs):
            assert bool(lat.up[i] >> j & 1) == (d1 % d2 == 0)
            assert divs[lat.meet[i][j]] == math.lcm(d1, d2)
            assert divs[lat.join[i][j]] == math.gcd(d1, d2)
            assert divs[zn.product[i][j]] == math.gcd(d1 * d2, 60)


def test_the_product_is_the_gcd_table():
    """The product table equals (d1)(d2) = (gcd(d1 d2, n)) entry by entry."""
    for n in (*range(2, 3001), 720720):
        assert ideal_lattice_zn(n).product == gcd_product_table(n), n


def _one_entry_changed(table, i, j):
    row = list(table[i])
    row[j] = (row[j] + 1) % len(row)
    return (*table[:i], tuple(row), *table[i + 1:])


@pytest.mark.parametrize("name, arithmetic", [("meet", "lcm"), ("join", "gcd")])
def test_the_cross_check_catches_every_wrong_entry(monkeypatch, name, arithmetic):
    """A generic lattice whose meet (join) table is wrong at any one entry is
    rejected with a SelfCheckError that names that table."""
    lattices = {n: ideal_lattice_zn(n).lattice for n in (12, 30, 360, 1024)}
    for n, lat in lattices.items():
        table = getattr(lat, name)
        k = len(table)
        for i in range(k):
            for j in range(k):
                wrong = dataclasses.replace(
                    lat, **{name: _one_entry_changed(table, i, j)})
                monkeypatch.setattr(multlat.rings, "build_lattice",
                                    lambda *args: wrong)
                with pytest.raises(SelfCheckError, match=(
                        rf"^{name} table of Id\(Z_{n}\) is not {arithmetic}$")):
                    ideal_lattice_zn(n)


#: The sha256 of what ``multlat ring --sweep 2..1000`` prints.
RING_SWEEP_SHA256 = "2ca21e8cd0e505fe52756bd7925fb36b8c20a62b84dd5418a468803821a31c8c"


def test_the_ring_sweep_bytes_are_pinned():
    """The sha256 of what ``multlat ring --sweep 2..1000`` prints."""
    lines = "".join([analyze_ring(n).to_json(indent=None) + "\n"
                     for n in range(2, 1001)])
    assert hashlib.sha256(lines.encode("utf-8")).hexdigest() == RING_SWEEP_SHA256


def _renamed(value, names: dict[str, str]):
    """``value`` (decoded JSON) with every string in ``names`` replaced,
    dict keys included."""
    if isinstance(value, dict):
        return {names.get(k, k): _renamed(v, names) for k, v in value.items()}
    if isinstance(value, list):
        return [_renamed(v, names) for v in value]
    return names.get(value, value) if isinstance(value, str) else value


def _exponent(d: int, p: int) -> int:
    """The exponent of the prime p in d."""
    e = 0
    while d % p == 0:
        d //= p
        e += 1
    return e


def test_the_ring_sweep_is_its_order_types_renamed():
    """Id(Z_n) depends only on the sequence of exponent vectors of n's
    divisors, ascending: the first n of each sequence is analysed, and its
    report, with (d) renamed by divisor position, is every other such n's
    line of the pinned sweep.  So no divisor value enters the analysis."""
    first: dict[tuple, tuple[list[int], dict]] = {}
    lines = []
    for n in range(2, 1001):
        divs, primes = naive_divisors(n), [p for p, _ in prime_factorization(n)]
        key = tuple(tuple(_exponent(d, p) for p in primes) for d in divs)
        if key not in first:
            first[key] = divs, json.loads(analyze_ring(n).to_json(indent=None))
        seen, report = first[key]
        names = {f"({a})": f"({b})" for a, b in zip(seen, divs)}
        report = {**_renamed(report, names), "instance": f"ring:{n}"}
        lines.append(json.dumps(report, sort_keys=True, indent=None,
                                ensure_ascii=False) + "\n")
    assert len(first) == 131
    digest = hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()
    assert digest == RING_SWEEP_SHA256


@given(st.integers(2, 250))
def test_reduced_iff_squarefree(n):
    assert is_reduced(ideal_lattice_zn(n)) == is_squarefree(n)


@given(st.integers(2, 250))
def test_minimal_primes_are_prime_divisor_ideals(n):
    divs = naive_divisors(n)
    mpe = [divs[p] for p in minimal_prime_elements(ideal_lattice_zn(n))]
    assert mpe == [p for p, _ in prime_factorization(n)]


@given(st.integers(2, 250))
def test_divisor_lattices_are_modular_and_distributive(n):
    lat = ideal_lattice_zn(n).lattice
    assert is_distributive(lat)
    assert is_modular(lat)


def test_analyze_ring_spot_values():
    for n, expected in ((6, 2), (30, 3), (210, 4)):
        report = analyze_ring(n)
        assert report.chi == report.omega == expected
        assert report.reduced and report.verdict == "holds"
        assert report.counts["minimal_prime_elements"] == expected


def test_analyze_ring_prime_modulus_is_empty():
    report = analyze_ring(13)
    assert report.verdict == "empty_graph"
    assert report.chi == 0 and report.omega == 0
    assert report.counts["minimal_prime_elements"] == 1
    assert report.counts["minimal_prime_semi_ideals"] == 1


def test_analyze_ring_non_squarefree_is_reported_without_claims():
    report = analyze_ring(12)
    assert not report.reduced
    assert report.nilpotent_witness == {"element": "(6)", "exponent": 2}
    assert report.chi == report.omega == 2  # path (2)-(6)-(4)-(3)
    assert report.verdict == "holds"
    assert report.modular


def test_analyze_ring_instance_id_and_element():
    report = analyze_ring(30)
    assert report.instance == "ring:30"
    assert report.element == "(30)"


def test_analyze_ring_passes_its_budget_through(monkeypatch):
    """None means no limit, as it does for analyze; the default is
    analyze's default."""
    budgets = []

    def stub(ml, instance_id, solver_budget):
        budgets.append(solver_budget)

    monkeypatch.setattr(multlat.rings, "analyze", stub)
    analyze_ring(6, solver_budget=None)
    analyze_ring(6)
    analyze_ring(6, solver_budget=2.5)
    assert budgets == [None, DEFAULT_SOLVER_BUDGET, 2.5]
