"""The deciders that work on the join-irreducible and covering core, checked
against the scans they stand in for, and the facts cached once per
instance."""
from __future__ import annotations

import random
from collections import Counter
from itertools import chain, combinations

import pytest

import multlat.lattice
import multlat.multiplication
import multlat.report
from multlat import (AxiomViolation, Lattice, SelfCheckError,
                     analyze, build_lattice, analyze_ring, annihilator_star,
                     check_lemma_suite, fig2_lattice, fig3_lattice, is_reduced,
                     attach_multiplication, brute_force_chromatic,
                     brute_force_clique, fixture,
                     maximal_annihilator_elements, minimal_prime_elements,
                     modularity_witness, mult_zero_divisor_graph,
                     nilpotency_witness, prime_elements,
                     zero_distributivity_witness)
from multlat.lattice import (_bits, _covers_semimodular, _leaves_ideal,
                             _modularity_scan, _zero_distributive,
                             _zero_distributivity_scan)
from multlat.multiplication import _verify_axioms, annihilator_map, is_semiprime
from multlat.report import _analyses
from multlat.rings import ideal_lattice_zn
from multlat.search import (boolean_lattice, chain_lattice, generate,
                            random_poset_down_set_lattice)
from multlat.solvers import DEFAULT_SOLVER_BUDGET, ORACLE_CAP, _solve

from helpers import (chain_square_mult, chain_square_times_two_chain,
                     distributive_kernel_not_a_clique, enumerate_down_sets,
                     is_distributive, pair_is_ideal,
                     random_closure_lattice,
                     scan_annihilator_star, scan_has_nonzero_zero_divisor,
                     scan_is_prime_element, scan_is_semiprime,
                     scan_join_irreducibles, trivial_product,
                     two_walk_nilpotency_scan)
from test_golden import EXTENDED_SPECS
from test_lattice import diamond_lattice, pentagon_lattice
from test_primes import _oracle_lattices

# Seed base of the random lattices in the acceptance battery.
RANDOM_SUITE_BASE_SEED = 20_240_817


def _mult_instances():
    """(label, MultLattice): Id(Z_n) for n < 600, the fixtures, boolean and
    chain lattices, the battery's random lattices and the two reduced
    instances whose product is not the meet."""
    for n in range(2, 600):
        yield f"ring:{n}", ideal_lattice_zn(n)
    yield "fig2", fixture("fig2")
    yield "fig3", fixture("fig3")
    for k in range(7):
        yield f"boolean:{k}", attach_multiplication(boolean_lattice(k), "meet")
    for k in range(1, 8):
        yield f"chain:{k}", attach_multiplication(chain_lattice(k), "meet")
        yield f"chain:{k}:trivial", attach_multiplication(chain_lattice(k), "trivial")
    for i in range(100):
        lat = random_poset_down_set_lattice(RANDOM_SUITE_BASE_SEED + i, 24)
        yield f"random:{i}", attach_multiplication(lat, "meet")
    yield "chain-square", chain_square_mult()
    yield "chain-square x 2-chain", chain_square_times_two_chain()


def _plane_flats(dual: bool = False) -> Lattice:
    """The flats of four points in general position in the plane (the empty
    set, the points, the six lines and the plane), ordered by inclusion or,
    with ``dual``, by reverse inclusion.  Upper semimodular but not modular,
    and the dual lower semimodular but not modular: two lines meet in the
    empty flat, which neither covers."""
    flats = [0, 1, 2, 4, 8] + [m for m in range(16) if bin(m).count("1") == 2] + [15]
    names = [f"f{m}" for m in flats]
    pairs = [(f"f{a}", f"f{b}") if not dual else (f"f{b}", f"f{a}")
             for a in flats for b in flats if a != b and a & ~b == 0]
    return build_lattice(names, pairs, "leq")


def _lattices():
    """The lattices of ``_mult_instances``, pentagons labelled both ways,
    the diamond, lattices that are semimodular on one side only, and seeded
    intersection-closed lattices, most of them not modular."""
    for label, ml in _mult_instances():
        yield label, ml.lattice
    yield "pentagon", pentagon_lattice()
    # The side element before the chain: then each pair of covers that
    # breaks semimodularity does so at its second member.
    yield "pentagon, side first", build_lattice(
        ["0", "s", "a", "b", "1"],
        [("0", "s"), ("s", "1"), ("0", "a"), ("a", "b"), ("b", "1")], "covers")
    yield "diamond", diamond_lattice()
    yield "plane flats", _plane_flats()
    yield "plane flats, dual", _plane_flats(dual=True)
    rng = random.Random(0)
    for i in range(150):
        yield f"closure:{i}", random_closure_lattice(rng, 5, rng.randint(2, 10))


def test_prime_elements_match_the_pair_scan():
    """Primality on pairs of join-irreducibles equals the O(n^2) definition,
    element by element."""
    checked = primes = 0
    for label, ml in _mult_instances():
        found = prime_elements(ml)
        for p in range(ml.n):
            expected = scan_is_prime_element(ml, p)
            assert (p in found) == expected, (label, ml.lattice.names[p])
            primes += expected
        checked += ml.n
    assert checked > 5000
    assert 0 < primes < checked


def _under_a_new_top(lat: Lattice) -> Lattice:
    """``lat`` with one more element above its top.  The new top has one
    lower cover, so the trivial product is admissible on the result."""
    names = lat.names
    covers = [(names[y], names[x]) for x in range(lat.n) for y in lat.lower_covers[x]]
    return build_lattice([*names, "new top"], [*covers, (names[lat.top], "new top")])


def test_prime_elements_match_the_pair_scan_under_the_trivial_product():
    """The closed form equals the O(n^2) definition under the trivial
    product, a product other than the meet: on every lattice of
    ``_lattices`` where it is admissible (the top is join-irreducible), and
    on each of them under a new top, most of those not distributive."""
    instances = Counter()
    for label, base in _lattices():
        lattices = [_under_a_new_top(base)]
        if base.top in base.join_irreducibles:
            lattices.append(base)
        for lat in lattices:
            ml = attach_multiplication(lat, "trivial")
            expected = [p for p in range(ml.n) if scan_is_prime_element(ml, p)]
            assert prime_elements(ml) == expected, label
            instances[is_distributive(lat)] += 1
    assert instances[True] > 900 and instances[False] > 90


def _full_check_verdict(lat: Lattice, table) -> tuple[str, tuple[str, ...]] | None:
    """None when ``_verify_axioms`` accepts ``table``, else the axiom and
    witness it raises."""
    try:
        _verify_axioms(lat, table)
    except AxiomViolation as exc:
        return exc.axiom, exc.witness
    return None


def test_built_in_products_are_admitted_exactly_when_the_full_check_admits_them():
    """``attach_multiplication`` decides the meet and the trivial product in
    closed form.  On every lattice of ``_lattices``, and on boolean:10 and
    chain:256 under the meet, it accepts exactly when ``_verify_axioms``
    accepts the same table, and otherwise raises the same axiom and
    witness; the meet is accepted exactly on the distributive lattices."""
    cases = [(label, lat, kind) for label, lat in _lattices()
             for kind in ("meet", "trivial")]
    cases += [("boolean:10", boolean_lattice(10), "meet"),
              ("chain:256", chain_lattice(256), "meet")]
    verdicts = Counter()
    for label, lat, kind in cases:
        table = lat.meet if kind == "meet" else trivial_product(lat)
        expected = _full_check_verdict(lat, table)
        try:
            ml = attach_multiplication(lat, kind)
        except AxiomViolation as exc:
            assert (exc.axiom, exc.witness) == expected, (label, kind)
        else:
            assert expected is None and ml.product == table, (label, kind)
        if kind == "meet" and lat.n <= 64:
            assert (expected is None) == is_distributive(lat), label
        verdicts[kind, expected is None] += 1
    assert verdicts["meet", False] > 90 and verdicts["meet", True] > 700
    assert verdicts["trivial", False] > 400 and verdicts["trivial", True] > 100


def test_rows_leave_an_ideal_where_their_join_irreducible_columns_do():
    """``_leaves_ideal`` equals the scan {y : row[y] not in I} for every row
    at every principal ideal down(i): of the meet on every lattice of
    ``_lattices``, distributive or not, of the trivial product where it is
    admissible, and of the product of every ``_mult_instances`` entry."""
    tables = []
    for label, lat in _lattices():
        tables.append((label, lat, lat.meet))
        try:
            tables.append((label, lat, attach_multiplication(lat, "trivial").product))
        except AxiomViolation:
            pass
    tables += [(label, ml.lattice, ml.product) for label, ml in _mult_instances()]
    rows = Counter()
    for label, lat, table in tables:
        for inside in lat.down:
            for row in table:
                expected = sum(1 << y for y, v in enumerate(row)
                               if not inside >> v & 1)
                assert _leaves_ideal(lat, row, inside) == expected, label
        rows[is_distributive(lat)] += lat.n ** 2
    assert rows[False] > 10_000 and rows[True] > 100_000, rows


def test_ideal_test_matches_the_pair_definition():
    """Lattice.is_ideal, the principal-down-set test, equals the
    definition checked on every pair of members, on every down-set and on
    seeded other subsets of the fixtures, the plane flats both ways and
    seeded intersection-closed lattices, most of them not distributive."""
    lattices = [fig2_lattice(), fig3_lattice(), _plane_flats(), _plane_flats(dual=True)]
    rng = random.Random(0)
    lattices += [random_closure_lattice(rng, 5, rng.randint(2, 10)) for _ in range(398)]
    outcomes = Counter()
    for lat in lattices:
        subsets = enumerate_down_sets(lat)
        subsets += [rng.getrandbits(lat.n) for _ in range(20)]
        for d in subsets:
            ideal = pair_is_ideal(lat, d)
            assert lat.is_ideal(d) == ideal, (lat.names, d)
            outcomes[ideal, all(lat.down[x] & ~d == 0 for x in _bits(d))] += 1
    assert sum(not is_distributive(lat) for lat in lattices) > 200
    # Ideals, down-sets that are not join-closed, and other subsets.
    assert outcomes[True, True] > 4000 and outcomes[False, True] > 25000
    assert outcomes[False, False] > 5000


def test_covering_pair_test_matches_the_modular_law_scan():
    outcomes = Counter()
    for label, lat in _lattices():
        modular = _modularity_scan(lat) is None
        assert _covers_semimodular(lat) == modular, label
        outcomes[modular] += 1
    assert outcomes[True] > 0 and outcomes[False] > 20


def test_atom_zero_distributivity_matches_the_triple_scan():
    outcomes = Counter()
    for label, lat in _lattices():
        zero_distributive = _zero_distributivity_scan(lat) is None
        assert _zero_distributive(lat) == zero_distributive, label
        outcomes[zero_distributive] += 1
    assert outcomes[True] > 0 and outcomes[False] > 5


@pytest.mark.parametrize("test_name, read", [
    ("_covers_semimodular", modularity_witness),
    ("_zero_distributive", zero_distributivity_witness)],
    ids=["modularity", "zero-distributivity"])
def test_a_rejection_that_its_scan_contradicts_raises(monkeypatch, test_name,
                                                      read):
    """boolean:3 is distributive, so a fast test forced to reject it hands
    over to a scan that finds no witness: SelfCheckError, not a lattice
    read as modular or 0-distributive against its test."""
    monkeypatch.setattr(multlat.lattice, test_name, lambda lat: False)
    with pytest.raises(SelfCheckError, match="finds no"):
        read(boolean_lattice(3))


@pytest.mark.parametrize("predicate, lat, kind", [
    ("_irreducibles_join_prime", boolean_lattice(3), "meet"),
    ("_top_has_one_lower_cover", chain_lattice(3), "trivial")],
    ids=["meet", "trivial"])
def test_a_rejected_product_on_which_every_axiom_holds_raises(
        monkeypatch, predicate, lat, kind):
    """A built-in product that its theorem rejects but the full check
    accepts is a contradiction, not an attached product."""
    monkeypatch.setattr(multlat.multiplication, predicate, lambda lat: False)
    with pytest.raises(SelfCheckError, match=f"rejects the {kind} product"):
        attach_multiplication(lat, kind)


def test_cached_facts_equal_fresh_oracles():
    """Each cached fact equals a fresh computation by its scan, on the first
    call and when read back from the cache."""
    for label, ml in _mult_instances():
        lat = ml.lattice
        for _ in range(2):
            assert lat.join_irreducibles == scan_join_irreducibles(lat), label
            assert modularity_witness(lat) == _modularity_scan(lat), label
            assert zero_distributivity_witness(lat) == _zero_distributivity_scan(lat), label
            assert nilpotency_witness(ml) == two_walk_nilpotency_scan(ml), label
            assert annihilator_map(ml) == [annihilator_star(ml, a)
                                           for a in range(ml.n)], label
            assert prime_elements(ml) == [p for p in range(ml.n)
                                          if scan_is_prime_element(ml, p)], label


def test_returned_lists_are_fresh():
    """Mutating a returned list does not change what the next call returns."""
    ml = ideal_lattice_zn(210)
    for fn, arg in ((prime_elements, ml), (minimal_prime_elements, ml),
                    (annihilator_map, ml), (maximal_annihilator_elements, ml)):
        first = fn(arg)
        expected = list(first)
        first.append(-1)
        first.reverse()
        assert fn(arg) == expected, fn.__name__


def test_cached_facts_leave_equality_and_hashing_alone():
    ml = ideal_lattice_zn(30)
    fresh = ideal_lattice_zn(30)
    prime_elements(ml)
    modularity_witness(ml.lattice)
    assert ml == fresh and hash(ml.lattice) == hash(fresh.lattice)


# ---------------------------------------------------------------------------
# Once per instance

COUNTED = ((multlat.lattice, "_covers_semimodular"),
           (multlat.lattice, "_modularity_scan"),
           (multlat.lattice, "_zero_distributive"),
           (multlat.lattice, "_zero_distributivity_scan"),
           (multlat.multiplication, "_nilpotency_scan"),
           (multlat.multiplication, "annihilator_star"),
           (multlat.multiplication, "_decide_primes"))


def _count_calls(monkeypatch) -> Counter:
    counts: Counter = Counter()
    for module, name in COUNTED:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_ring_analysis_computes_each_fact_once(monkeypatch):
    """Building Id(Z_720) and analysing it decides modularity,
    0-distributivity and nilpotency once, and each element's annihilator
    once, and the prime elements once for all of them; the distributive
    lattice never needs a scan."""
    counts = _count_calls(monkeypatch)
    report = analyze_ring(720)
    assert report.element_count == 30
    assert counts == {"_covers_semimodular": 1, "_zero_distributive": 1,
                      "_nilpotency_scan": 1, "annihilator_star": 30,
                      "_decide_primes": 1}


def test_fig3_analysis_computes_each_fact_once(monkeypatch):
    """fig3 is not modular, so its first pentagon is found by one scan; a
    second analysis of the same instance reads every fact from the cache."""
    ml = fixture("fig3")
    counts = _count_calls(monkeypatch)
    first = analyze(ml, instance_id="fixture:fig3")
    expected = {"_covers_semimodular": 1, "_modularity_scan": 1,
                "_zero_distributive": 1, "_nilpotency_scan": 1,
                "annihilator_star": 14, "_decide_primes": 1}
    assert counts == expected
    second = analyze(ml, instance_id="fixture:fig3")
    assert counts == expected
    assert first.to_json() == second.to_json()


def test_lemma_suite_on_a_non_reduced_lattice_reads_no_annihilator_or_prime(
        monkeypatch):
    """fig3 is not reduced: the suite tests that once and reports its skip
    lines without deciding any annihilator or primality."""
    ml = fixture("fig3")
    counts = _count_calls(monkeypatch)
    checks = check_lemma_suite(ml)
    assert counts["annihilator_star"] == 0
    assert counts["_decide_primes"] == 0
    assert counts["_nilpotency_scan"] == 1
    assert [c.status for c in checks] == ["skip"] * 4 + ["pass"] + ["skip"] * 3


def test_ring_and_fig3_analyses_walk_each_elements_powers_once(monkeypatch):
    """Each annihilator walks its element's powers once, cached through
    ``annihilator_map``; the nilpotency witness walks none."""
    counts: Counter = Counter()
    original = multlat.multiplication._power_walk

    def counted(product, a):
        counts[a] += 1
        return original(product, a)

    monkeypatch.setattr(multlat.multiplication, "_power_walk", counted)
    assert analyze_ring(720).element_count == 30
    assert counts == Counter(range(30))
    counts.clear()
    ml = fixture("fig3")
    assert nilpotency_witness(ml) == (ml.lattice.names.index("f"), 2)
    assert not counts
    analyze(ml, instance_id="fixture:fig3")
    analyze(ml, instance_id="fixture:fig3")
    assert counts == Counter(range(14))


def _walk(ml, instance_id: str) -> list:
    """The reports at every element of ``ml``, from one walk."""
    return list(_analyses(ml, range(ml.n), instance_id, DEFAULT_SOLVER_BUDGET))


def test_a_walk_computes_the_instance_facts_once(monkeypatch):
    """A walk over the 14 elements of fig3 computes the prime structure and
    the lemma suite once each, as one ``analyze`` does; both are counted
    through the names that ``multlat.report`` calls."""
    counts: Counter = Counter()
    for name in ("prime_structure", "check_lemma_suite"):
        def counted(*args, _name=name, _original=getattr(multlat.report, name)):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(multlat.report, name, counted)
    ml = fixture("fig3")
    assert len(_walk(ml, "fixture:fig3")) == 14
    assert counts == {"prime_structure": 1, "check_lemma_suite": 1}
    counts.clear()
    analyze(ml, element=3, instance_id="fixture:fig3")
    assert counts == {"prime_structure": 1, "check_lemma_suite": 1}


def test_a_walk_reports_what_analyze_reports_at_each_element():
    """At every element of the extended golden instances and of 24 seeded
    random lattices, the walk's report is ``analyze``'s, field for field."""
    instances = [pair for spec in EXTENDED_SPECS for pair in generate(spec)]
    instances += generate("random:12x24", seed=5)
    for instance_id, ml in instances:
        walked = [r.to_dict() for r in _walk(ml, instance_id)]
        assert walked == [analyze(ml, element=e, instance_id=instance_id).to_dict()
                          for e in range(ml.n)], instance_id


def test_the_reports_of_a_walk_share_no_container():
    """No two reports of one fig3 walk hold the same dict or list, so a
    caller that edits one report cannot change another."""
    reports = _walk(fixture("fig3"), "fixture:fig3")
    for key in ("counts", "lemmas", "minimal_prime_elements",
                "nilpotent_witness", "n5_witness"):
        held = [getattr(r, key) for r in reports]
        assert all(value is not None for value in held), key
        assert len({id(value) for value in held}) == len(reports), key


def _walk_instances():
    """The lattices of the prime-structure oracle test under every product
    among meet and trivial that is admissible on them, Id(Z_n) for
    n <= 1000, the fixtures, the two reduced instances whose product is not
    the meet, and seeded random lattices of up to 40 elements."""
    for lat in _oracle_lattices():
        if is_distributive(lat):
            yield attach_multiplication(lat, "meet")
        if lat.top in lat.join_irreducibles:
            yield attach_multiplication(lat, "trivial")
    for n in range(2, 1001):
        yield ideal_lattice_zn(n)
    for spec in ("boolean:6", "chain:7", "fig2", "fig3"):
        yield from (ml for _, ml in generate(spec))
    yield chain_square_mult()
    yield chain_square_times_two_chain()
    yield from (ml for _, ml in generate("random:300x40", seed=11))


def test_power_walk_and_annihilator_test_match_their_scans():
    """The nilpotency witness read off the diagonal of the table equals
    the two-walk scan, and on every reduced instance the lemma suite finds
    a nonzero zero divisor exactly when the O(n^2) product scan does."""
    witnesses = Counter()
    zero_divisors = Counter()
    for ml in _walk_instances():
        witness = nilpotency_witness(ml)
        assert witness == two_walk_nilpotency_scan(ml), ml.lattice.names
        witnesses[witness[1] if witness else None] += 1
        if witness is None:
            check = next(c for c in check_lemma_suite(ml)
                         if c.check_id == "zero_is_meet_of_minimal_primes")
            found = check.detail != "vacuous (no nonzero zero divisors)"
            assert found == scan_has_nonzero_zero_divisor(ml), ml.lattice.names
            zero_divisors[found] += 1
    # If a != 0 is nilpotent, its last nonzero power b has b.b = 0, so the
    # least exponent is always 2 and the witness is decided by the index.
    assert witnesses[None] > 900 and witnesses[2] > 400
    assert zero_divisors[True] > 800 and zero_divisors[False] > 100


def test_annihilators_and_semiprimeness_match_their_definitions():
    """annihilator_map, which joins only the join-irreducibles that the
    stable power kills, and is_semiprime, which squares only the
    join-irreducibles outside down(i), equal the scans of every element at
    every element of both instance sets, non-reduced ones included."""
    outcomes = Counter()
    for ml in chain(_walk_instances(), (ml for _, ml in _mult_instances())):
        assert annihilator_map(ml) == [scan_annihilator_star(ml, a)
                                       for a in range(ml.n)], ml.lattice.names
        for i in range(ml.n):
            semiprime = scan_is_semiprime(ml, i)
            assert is_semiprime(ml, i) == semiprime, (ml.lattice.names, i)
            outcomes[semiprime] += 1
    assert outcomes[True] > 1000 and outcomes[False] > 1000


@pytest.mark.parametrize("read", [annihilator_star, is_semiprime],
                         ids=lambda read: read.__name__)
@pytest.mark.parametrize("index", [-1, 14])
def test_element_indices_outside_the_lattice_raise(read, index):
    """fig3 has 14 elements: -1 is not read as the top, nor 14 as a bare
    tuple index fault."""
    with pytest.raises(IndexError,
                       match=f"^element index {index} is outside 0..13$"):
        read(fixture("fig3"), index)


def test_the_minimal_vertices_at_a_semiprime_element_fix_chi_and_omega():
    """The reduced theorem without ``analyze``: at every semiprime element of
    every instance the minimal vertices of the graph are pairwise adjacent,
    and their number is chi and omega, by the brute-force oracles where the
    graph is small enough and by the exact solvers elsewhere."""
    settled = Counter()
    for label, ml in _mult_instances():
        lat = ml.lattice
        for i in range(ml.n):
            if not scan_is_semiprime(ml, i):
                continue
            g = mult_zero_divisor_graph(ml, i)
            kernel = lat.minimal(g.vertices)
            position = {v: k for k, v in enumerate(g.vertices)}
            assert all(g.adj[position[x]] >> position[y] & 1
                       for x, y in combinations(kernel, 2)), (label, i)
            if g.n_vertices <= ORACLE_CAP:
                values = brute_force_chromatic(g), brute_force_clique(g)
                settled["oracle"] += 1
            else:
                solve = _solve(g, budget=None)
                values = next(solve)[0], next(solve)[0]
                settled["solver"] += 1
            assert values == (len(kernel), len(kernel)), (label, lat.names[i])
    assert settled["oracle"] > 3500 and settled["solver"] > 100, settled


def test_a_distributive_instance_whose_kernel_is_not_a_clique():
    """The boundary of the product-of-chains argument: on this distributive
    lattice, 0 is not semiprime, the vertices x with x.y = 0 for each vertex
    y < x do not form a clique, and still chi = omega."""
    ml = distributive_kernel_not_a_clique()
    lat = ml.lattice
    assert is_distributive(lat) and not is_reduced(ml)
    g = mult_zero_divisor_graph(ml)
    kernel = [x for x in g.vertices
              if all(ml.product[x][y] == lat.bottom for y in g.vertices
                     if y != x and lat.down[x] >> y & 1)]
    assert [lat.names[x] for x in kernel] == ["w", "z", "x", "y"]
    position = {v: k for k, v in enumerate(g.vertices)}
    x, y = lat.names.index("x"), lat.names.index("y")
    assert not g.adj[position[x]] >> position[y] & 1
    report = analyze(ml)
    assert (report.chi, report.omega, report.verdict) == (3, 3, "holds")


def test_multiplicative_graphs_are_connected_with_diameter_at_most_3():
    """DeMeyer, McKenzie and Schneider (Semigroup Forum 65, 2002): the
    zero-divisor graph of a commutative semigroup with zero is connected,
    has diameter at most 3, and has a triangle or a 4-cycle whenever it has
    a cycle.  The graph at i is that of the Rees quotient by down(i), so the
    three hold at every element of every instance with at most 130
    elements, and of ``distributive_kernel_not_a_clique``."""
    instances = [ml for _, ml in _mult_instances() if ml.n <= 130]
    instances.append(distributive_kernel_not_a_clique())
    graphs = cyclic = 0
    for ml in instances:
        for i in range(ml.n):
            g = mult_zero_divisor_graph(ml, i)
            adj, nv = g.adj, g.n_vertices
            where = (ml.lattice.names, i)
            for s in range(nv):
                seen = frontier = 1 << s
                for _ in range(3):
                    reached = 0
                    for v in _bits(frontier):
                        reached |= adj[v]
                    frontier = reached & ~seen
                    seen |= reached
                assert seen == (1 << nv) - 1, where
            # Connected, so it has a cycle exactly when edges >= vertices.
            if g.n_edges >= nv > 0:
                assert any((adj[u] & adj[v]).bit_count() >= 2 - (adj[u] >> v & 1)
                           for u in range(nv) for v in range(u)), where
                cyclic += 1
            graphs += 1
    assert graphs > 5000 and cyclic > 2000, (graphs, cyclic)
