"""Closed-form prime semi-ideals and ideals, and the lemma suite."""
from __future__ import annotations

import dataclasses
import json
import random

from hypothesis import given
from hypothesis import strategies as st

from multlat import (analyze, attach_multiplication,
                     check_lemma_suite, fig2_lattice, fig3_lattice, fixture,
                     is_reduced, minimal_prime_elements, minimal_prime_ideals,
                     minimal_prime_semi_ideals, mult_zero_divisor_graph,
                     prime_structure)
from multlat.primes import LEMMA_IDS, LemmaCheck
from multlat.rings import ideal_lattice_zn
from multlat.search import (boolean_lattice, chain_lattice, generate,
                            random_poset_down_set_lattice)

from helpers import (chain_square_mult, chain_square_times_two_chain,
                     enumerate_down_sets, is_distributive, is_prime_semi_ideal,
                     is_squarefree, mask_names, oracle_prime_masks, pair_is_ideal,
                     principal_join_irreducibles, random_closure_lattice,
                     scan_prime_annihilator_pair)

# Seed base of the random lattices in the acceptance battery.
RANDOM_SUITE_BASE_SEED = 20_240_817


# ---------------------------------------------------------------------------
# Enumeration


def test_b2_minimal_prime_semi_ideals():
    lat = boolean_lattice(2)
    mpsi = minimal_prime_semi_ideals(lat)
    assert [mask_names(lat, d) for d in mpsi] == [("{}", "{1}"), ("{}", "{2}")]
    assert all(is_prime_semi_ideal(lat, d) for d in mpsi)


def test_chain_minimal_prime_semi_ideal_is_bottom():
    lat = chain_lattice(4)
    mpsi = minimal_prime_semi_ideals(lat)
    assert mpsi == [1 << lat.bottom]


def test_fig2_minimal_prime_semi_ideals():
    lat = fig2_lattice()
    mpsi = minimal_prime_semi_ideals(lat)
    assert [set(mask_names(lat, d)) for d in mpsi] == [{"0", "a", "b"}, {"0", "c"}]


def test_empty_and_whole_are_not_prime():
    lat = boolean_lattice(2)
    down_sets = enumerate_down_sets(lat)
    whole = (1 << lat.n) - 1
    assert down_sets[0] == 0 and down_sets[-1] == whole
    assert not is_prime_semi_ideal(lat, down_sets[0])
    assert not is_prime_semi_ideal(lat, down_sets[-1])
    for d in minimal_prime_semi_ideals(lat) + minimal_prime_ideals(lat):
        assert d != 0 and d != whole


def test_minimal_prime_ideals_b3():
    lat = boolean_lattice(3)
    mpi = minimal_prime_ideals(lat)
    assert len(mpi) == 3
    for d in mpi:
        assert (lat.is_ideal(d) and pair_is_ideal(lat, d)
                and is_prime_semi_ideal(lat, d))
    # each is the principal down-set of a coatom
    coatoms = lat.maximal(x for x in range(lat.n) if x != lat.top)
    expected = {lat.down[c] for c in coatoms}
    assert set(mpi) == expected
    assert ("{}", "{1}", "{2}", "{1,2}") in {mask_names(lat, d) for d in mpi}


def test_minimal_prime_ideals_two_chain():
    lat = chain_lattice(2)
    mpi = minimal_prime_ideals(lat)
    assert mpi == [1 << lat.bottom]


def test_z30_minimal_prime_ideal_count():
    lat = ideal_lattice_zn(30).lattice
    assert len(minimal_prime_ideals(lat)) == 3
    assert len(minimal_prime_semi_ideals(lat)) == 3


def test_prime_semi_ideals_are_filter_complements():
    """Independent characterization: in a finite bounded lattice the prime
    semi-ideals are exactly the complements of principal proper filters, so
    the minimal ones are the complements of atom filters.  The prime
    semi-ideals come from the definition, checked on every down-set."""
    for lat in (boolean_lattice(3), fig2_lattice(), chain_lattice(5),
                ideal_lattice_zn(60).lattice):
        semi, _, _ = oracle_prime_masks(lat)
        expected = {((1 << lat.n) - 1) & ~lat.up[m]
                    for m in range(lat.n) if m != lat.bottom}
        assert set(semi) == expected
        minimal = minimal_prime_semi_ideals(lat)
        atom_complements = {((1 << lat.n) - 1) & ~lat.up[a] for a in lat.atoms()}
        assert set(minimal) == atom_complements


def test_minimal_prime_semi_ideal_count_equals_atom_count():
    for seed in range(40):
        lat = random_poset_down_set_lattice(seed, 20)
        assert len(minimal_prime_semi_ideals(lat)) == len(lat.atoms())


def _oracle_lattices():
    """The acceptance battery's lattices, the fixtures, chains, Id(Z_n) for
    n < 200 and seeded random lattices, distributive or not."""
    for k in range(6):
        yield boolean_lattice(k)
    for k in range(1, 7):
        yield chain_lattice(k)
    yield fig2_lattice()
    yield fig3_lattice()
    for n in range(2, 1001):
        if n < 200 or is_squarefree(n):
            yield ideal_lattice_zn(n).lattice
    for i in range(100):
        yield random_poset_down_set_lattice(RANDOM_SUITE_BASE_SEED + i, 24)
    rng = random.Random(0)
    for _ in range(150):
        yield random_closure_lattice(rng, 5, rng.randint(2, 10))


def test_closed_form_matches_down_set_oracle():
    """Every prime list from the closed form equals the one found by checking
    the definitions on every down-set, mask for mask and in order."""
    checked = distinct_counts = 0
    for lat in _oracle_lattices():
        _, minimal_semi, minimal_ideals = oracle_prime_masks(lat)
        assert minimal_prime_semi_ideals(lat) == minimal_semi
        assert minimal_prime_ideals(lat) == minimal_ideals
        if is_distributive(lat):
            structure = prime_structure(attach_multiplication(lat, "meet"))
            assert structure.minimal_prime_semi_ideals == minimal_semi
            assert structure.minimal_prime_ideals == minimal_ideals
        checked += 1
        distinct_counts += len(minimal_semi) != len(minimal_ideals)
    assert checked > 900
    # The non-distributive lattices reach the case where the two differ.
    assert distinct_counts > 0


def test_cover_fields_match_their_definitions():
    """build_lattice fills the cover fields from its cover walk: y is a
    lower cover of x, and x an upper cover of y, when y < x with nothing
    between, and x != 0 is join-irreducible when the elements strictly
    below it form a principal down-set."""
    for lat in _oracle_lattices():
        strict = [d ^ 1 << x for x, d in enumerate(lat.down)]
        covers = [(y, x) for x in range(lat.n) for y in range(lat.n)
                  if strict[x] >> y & 1 and strict[x] & lat.up[y] == 1 << y]
        assert lat.lower_covers == tuple(
            tuple(y for y, z in covers if z == x) for x in range(lat.n))
        assert lat.upper_covers == tuple(
            tuple(sorted(z for y, z in covers if y == x)) for x in range(lat.n))
        assert lat.join_irreducibles == principal_join_irreducibles(lat)


def test_minimal_and_maximal_match_the_quadratic_definition():
    """Lattice.minimal and Lattice.maximal against the pairwise definition,
    on every element, the empty set, and seeded subsets with repeats."""
    rng = random.Random(3)
    for lat in _oracle_lattices():
        subsets = [list(range(lat.n)), []]
        subsets += [[rng.randrange(lat.n) for _ in range(rng.randint(1, lat.n + 2))]
                    for _ in range(4)]
        for xs in subsets:
            members = sorted(set(xs))
            assert lat.minimal(xs) == [
                x for x in members
                if not any(y != x and lat.down[x] >> y & 1 for y in members)]
            assert lat.maximal(iter(xs)) == [
                x for x in members
                if not any(y != x and lat.up[x] >> y & 1 for y in members)]


def test_analyze_counts_on_formerly_capped_instances():
    """boolean:6 and divisor:27720 used to exceed the down-set enumeration;
    their minimal prime semi-ideal and ideal counts are now integers."""
    for spec, expected in (("boolean:6", 6), ("divisor:27720", 5)):
        [(instance_id, ml)] = generate(spec)
        report = analyze(ml, instance_id=instance_id)
        assert report.counts["minimal_prime_semi_ideals"] == expected, spec
        assert report.counts["minimal_prime_ideals"] == expected, spec
        if report.reduced:
            assert report.lemmas["minimal_prime_semi_ideals_are_ideals"] == "pass"


def test_reduced_semi_ideals_coincide_with_ideals():
    for ml in (attach_multiplication(boolean_lattice(3), "meet"),
               ideal_lattice_zn(30),
               ideal_lattice_zn(42)):
        assert is_reduced(ml)
        lat = ml.lattice
        assert minimal_prime_semi_ideals(lat) == minimal_prime_ideals(lat)


def test_prime_structure_orders_are_deterministic():
    ml = ideal_lattice_zn(210)
    s1 = prime_structure(ml)
    s2 = prime_structure(ml)
    assert s1.minimal_prime_semi_ideals == s2.minimal_prime_semi_ideals
    assert s1.minimal_prime_elements == sorted(s1.minimal_prime_elements)
    masks = s1.minimal_prime_semi_ideals
    assert masks == sorted(masks)


# ---------------------------------------------------------------------------
# Lemma suite


def test_lemma_suite_passes_on_b3():
    checks = check_lemma_suite(attach_multiplication(boolean_lattice(3), "meet"))
    assert all(c.status == "pass" for c in checks)


def test_lemma_suite_on_fig3_skips_reduced_hypotheses():
    checks = {c.check_id: c for c in check_lemma_suite(fixture("fig3"))}
    zd = checks["reduced_implies_zero_distributive"]
    assert zd.status == "skip" and "0-distributive: True" in zd.detail
    acc = checks["annihilator_chains_stabilize"]
    assert acc.status == "pass" and acc.detail == "trivial (finite)"


def test_lemma_suite_vacuous_on_two_chain():
    checks = check_lemma_suite(attach_multiplication(chain_lattice(2), "meet"))
    assert all(c.status != "fail" for c in checks)
    vac = next(c for c in checks
               if c.check_id == "zero_is_meet_of_minimal_primes")
    assert "vacuous" in vac.detail


def test_lemma_suite_reports_every_declared_check_in_order():
    """Not reduced (fig3), reduced with zero divisors (Id(Z_30)) and reduced
    without (the 3-chain): one line per declared id, in declared order."""
    for ml in (fixture("fig3"), ideal_lattice_zn(30),
               attach_multiplication(chain_lattice(3), "meet")):
        checks = check_lemma_suite(ml)
        assert tuple(c.check_id for c in checks) == LEMMA_IDS
    assert len(LEMMA_IDS) == len(set(LEMMA_IDS)) == 8


def test_lemma_suite_serializes():
    """The checks are plain dataclasses of strings, so each serializes to
    JSON as it is."""
    checks = check_lemma_suite(attach_multiplication(boolean_lattice(2), "meet"))
    lines = json.loads(json.dumps([dataclasses.asdict(c) for c in checks]))
    assert [line["check_id"] for line in lines] == list(LEMMA_IDS)
    assert [LemmaCheck(**line) for line in lines] == list(checks)


@given(st.integers(2, 150))
def test_lemma_suite_on_rings(n):
    checks = check_lemma_suite(ideal_lattice_zn(n))
    # Where Id(Z_n) is not reduced, the checks that assume it are skipped,
    # never failed.
    assert all(c.status != "fail" for c in checks), checks


def test_count_coherence_on_reduced_instances():
    """Non-empty graph: chi = omega = #minimal prime elements =
    #minimal prime semi-ideals."""
    from multlat import chromatic_number, clique_number
    for ml in (attach_multiplication(boolean_lattice(2), "meet"),
               attach_multiplication(boolean_lattice(3), "meet"),
               ideal_lattice_zn(30),
               ideal_lattice_zn(210)):
        lat = ml.lattice
        g = mult_zero_divisor_graph(ml)
        assert g.n_vertices > 0
        chi, _ = chromatic_number(g)
        omega, _ = clique_number(g)
        n_mpe = len(minimal_prime_elements(ml))
        n_mpsi = len(minimal_prime_semi_ideals(lat))
        assert chi == omega == n_mpe == n_mpsi


# ---------------------------------------------------------------------------
# Lemma suite fail lines, on a reduced instance fed a doctored fact
#
# Id(Z_12)'s lattice under its meet is the 3-chain times the 2-chain:
# reduced, with zero divisors.  Its annihilators take the values (12), (4),
# (3) and (1); its primes are (2), (3) and (4), the minimal ones (3) and (4),
# which are also its maximal annihilators.


def _divisors_of_12():
    return attach_multiplication(ideal_lattice_zn(12).lattice, "meet")


def _fail_line(checks) -> LemmaCheck:
    """The one failing check among ``checks``."""
    [failed] = [c for c in checks if c.status == "fail"]
    return failed


def _with_structure(ml, **fields):
    """The suite on ``ml`` given its prime structure with ``fields`` (element
    names, or lists of them for the subsets, which become masks) put in."""
    lat = ml.lattice
    edited = {}
    for key, value in fields.items():
        if key.endswith("ideals"):
            edited[key] = [sum(1 << lat.names.index(nm) for nm in d) for d in value]
        else:
            edited[key] = [lat.names.index(nm) for nm in value]
    return check_lemma_suite(
        ml, dataclasses.replace(prime_structure(ml), **edited))


def test_the_undoctored_instance_passes_every_check():
    checks = check_lemma_suite(_divisors_of_12())
    assert [c.status for c in checks] == ["pass"] * 8


def test_lemma_fail_line_when_the_lattice_is_not_zero_distributive(monkeypatch):
    ml = _divisors_of_12()
    lat = ml.lattice
    witness = tuple(lat.names.index(nm) for nm in ("(3)", "(4)", "(6)"))
    monkeypatch.setattr("multlat.primes.zero_distributivity_witness",
                        lambda _: witness)
    assert _fail_line(check_lemma_suite(ml)) == LemmaCheck(
        "reduced_implies_zero_distributive", "fail",
        "reduced lattice is not 0-distributive",
        ("(3)", "(4)", "(6)"))


def test_lemma_fail_lines_when_a_minimal_prime_semi_ideal_is_not_an_ideal():
    ml = _divisors_of_12()
    # {(12), (4), (6)} is a down-set without the join (2) of (4) and (6).
    checks = _with_structure(ml, minimal_prime_semi_ideals=[
        ["(12)", "(4)", "(6)"], ["(12)", "(6)", "(3)"]])
    assert _fail_line(checks) == LemmaCheck(
        "minimal_prime_semi_ideals_are_ideals", "fail",
        "a minimal prime semi-ideal is not join-closed",
        ("(4)", "(6)", "(12)"))
    # The families differ: a fail line with no witness.
    checks = _with_structure(ml, minimal_prime_ideals=[["(12)", "(4)"]])
    assert _fail_line(checks) == LemmaCheck(
        "minimal_prime_semi_ideals_are_ideals", "fail",
        "semi-ideal and ideal families differ")


def test_lemma_fail_line_when_a_maximal_annihilator_is_not_prime(monkeypatch):
    ml = _divisors_of_12()
    lat = ml.lattice
    monkeypatch.setattr("multlat.primes.prime_elements", lambda _: [
        lat.names.index("(2)"), lat.names.index("(4)")])
    assert _fail_line(check_lemma_suite(ml)) == LemmaCheck(
        "maximal_annihilators_are_prime", "fail",
        "a maximal annihilator element is not prime",
        ("(3)",))


def test_lemma_fail_line_when_prime_annihilators_multiply_to_nonzero(monkeypatch):
    """Called prime, the annihilator (12) of (1) and the annihilator (4) of
    (3) are distinct, and (1).(3) = (3) is not 0."""
    ml = _divisors_of_12()
    monkeypatch.setattr("multlat.primes.prime_elements",
                        lambda ml: list(range(ml.n)))
    assert _fail_line(check_lemma_suite(ml)) == LemmaCheck(
        "distinct_prime_annihilators_multiply_to_zero", "fail",
        "elements with distinct prime annihilators have a nonzero product",
        ("(1)", "(3)"))


def test_prime_annihilator_pair_matches_the_pair_scan(monkeypatch):
    """With seeded sets of elements called prime, the suite names the first
    pair the O(n^2) scan names, or passes where it finds none."""
    called: list[int] = []
    monkeypatch.setattr("multlat.primes.prime_elements", lambda _: called)
    rng = random.Random(5)
    instances = [attach_multiplication(boolean_lattice(k), "meet") for k in range(5)]
    for n in range(2, 120):
        zn = ideal_lattice_zn(n)
        instances.append(attach_multiplication(zn.lattice, "meet"))
        if is_squarefree(n):
            instances.append(zn)
    instances += [attach_multiplication(random_poset_down_set_lattice(
        RANDOM_SUITE_BASE_SEED + i, 16), "meet") for i in range(30)]
    instances.append(chain_square_times_two_chain())
    outcomes = {True: 0, False: 0}
    for ml in instances:
        assert is_reduced(ml)
        for every in (True, False):
            called[:] = [x for x in range(ml.n) if every or rng.random() < 0.5]
            expected = scan_prime_annihilator_pair(ml, set(called))
            [check] = [c for c in check_lemma_suite(ml)
                       if c.check_id == "distinct_prime_annihilators_multiply_to_zero"]
            if expected is None:
                assert check.status == "pass", ml.lattice.names
            else:
                assert check.status == "fail", ml.lattice.names
                assert check.witness == tuple(ml.lattice.names[w] for w in expected)
            outcomes[expected is None] += 1
    assert outcomes[True] > 50 and outcomes[False] > 200, outcomes


def test_lemma_fail_line_when_annihilator_witnesses_are_not_a_clique():
    """The first nonzero elements with annihilators (3), (4), (4) are (4),
    (3), (3), and (3).(3) = (3) is not 0."""
    checks = _with_structure(_divisors_of_12(),
                             maximal_annihilators=["(3)", "(4)", "(4)"])
    assert _fail_line(checks) == LemmaCheck(
        "finitely_many_maximal_annihilators", "fail",
        "witnesses of maximal annihilators are not a clique",
        ("(4)", "(3)", "(3)"))


def test_lemma_fail_line_with_no_maximal_annihilators():
    """An empty family meets to nothing: a fail line with an empty
    witness."""
    checks = _with_structure(_divisors_of_12(), maximal_annihilators=[])
    assert _fail_line(checks) == LemmaCheck(
        "zero_is_meet_of_minimal_primes", "fail",
        "maximal annihilators do not meet to 0 as minimal primes",
        ())
    assert checks[LEMMA_IDS.index("finitely_many_maximal_annihilators")
                  ].status == "pass"


def test_lemma_fail_line_when_a_minimal_prime_is_not_an_annihilator():
    checks = _with_structure(_divisors_of_12(),
                             minimal_prime_elements=["(2)", "(3)", "(4)"])
    assert _fail_line(checks) == LemmaCheck(
        "minimal_primes_are_annihilators", "fail",
        "a minimal prime element is not an annihilator",
        ("(2)",))


# ---------------------------------------------------------------------------
# Reduced instances whose product is not the meet


def test_reduced_chain_with_a_non_meet_square():
    """On the 4-chain, c2.c2 = c1 keeps the lattice reduced; nothing
    multiplies to 0, so the graph is empty."""
    ml = chain_square_mult()
    lat = ml.lattice
    c1, c2 = lat.names.index("c1"), lat.names.index("c2")
    assert ml.product[c2][c2] == c1 != lat.meet[c2][c2]
    report = analyze(ml, instance_id="chain-square")
    assert report.reduced and report.verdict == "empty_graph"
    assert report.chi == report.omega == report.vertex_count == 0
    assert set(report.lemmas.values()) == {"pass"}
    assert report.minimal_prime_elements == ["c0"]
    assert report.counts["maximal_annihilators"] == 1


def test_reduced_product_with_a_non_meet_square():
    """The chain above times the 2-chain: 8 elements, reduced, product not
    the meet, a 4-vertex star as graph, and chi = omega = #minimal primes =
    #maximal annihilators = 2."""
    ml = chain_square_times_two_chain()
    lat = ml.lattice
    assert lat.n == 8 and ml.product != lat.meet
    report = analyze(ml, instance_id="chain-square x 2-chain")
    assert report.reduced and report.verdict == "holds"
    assert set(report.lemmas.values()) == {"pass"}
    assert report.vertex_count == 4 and report.edge_count == 3
    assert (report.chi == report.omega == report.counts["minimal_prime_elements"]
            == report.counts["maximal_annihilators"] == 2)
    assert report.minimal_prime_elements == ["(0,1)", "(3,0)"]
