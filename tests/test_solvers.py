"""Exact solvers against the brute-force oracles and known values."""
from __future__ import annotations

import dataclasses
import gc
import itertools
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import multlat.report
import multlat.solvers
from multlat import (SelfCheckError, SolverTimeout, TooLarge, ZdGraph,
                     analyze, attach_multiplication, brute_force_chromatic,
                     brute_force_clique, chromatic_number, clique_number,
                     fixture, is_reduced, minimal_prime_elements,
                     mult_zero_divisor_graph)
from multlat.solvers import (ORACLE_CAP, Coloring, _Deadline, _k_colorable,
                             _max_clique, _relabel, _solve, is_proper)
from multlat.rings import ideal_lattice_zn
from multlat.search import boolean_lattice, chain_lattice, random_poset_down_set_lattice

from helpers import (complete_graph, cycle_graph, greedy_coloring, make_graph,
                     minimal_prime_coloring, random_graph, reference_clique,
                     reference_k_colorable)


def fig3_graph():
    return mult_zero_divisor_graph(fixture("fig3"))


# ---------------------------------------------------------------------------
# Known values


def test_empty_graph_conventions():
    g = make_graph(0, [])
    assert clique_number(g) == (0, clique_number(g)[1])
    assert clique_number(g)[0] == 0 and clique_number(g)[1].vertices == ()
    chi, col = chromatic_number(g)
    assert chi == 0 and col.assignment == {} and col.color_count == 0
    assert brute_force_chromatic(g) == 0
    assert brute_force_clique(g) == 0


def test_k4():
    g = complete_graph(4)
    assert clique_number(g)[0] == 4
    assert chromatic_number(g)[0] == 4
    assert brute_force_chromatic(g) == 4
    assert brute_force_clique(g) == 4


def test_path_of_three():
    g = make_graph(3, [(0, 1), (1, 2)])
    assert chromatic_number(g)[0] == 2
    assert clique_number(g)[0] == 2


def test_odd_cycle():
    g = cycle_graph(5)
    assert brute_force_chromatic(g) == 3
    assert chromatic_number(g)[0] == 3
    assert clique_number(g)[0] == 2


def test_edgeless_graph():
    g = make_graph(5, [])
    assert chromatic_number(g)[0] == 1
    assert clique_number(g)[0] == 1


def test_fig3_exact_values():
    g = fig3_graph()
    omega, clique = clique_number(g)
    chi, coloring = chromatic_number(g)
    assert (chi, omega) == (4, 3)
    assert brute_force_chromatic(g) == 4
    assert brute_force_clique(g) == 3


# ---------------------------------------------------------------------------
# Witness validity and determinism


def test_clique_witness_is_a_clique_of_reported_size():
    g = fig3_graph()
    omega, witness = clique_number(g)
    assert len(witness.vertices) == omega
    pos = {v: k for k, v in enumerate(g.vertices)}
    for a in witness.vertices:
        for b in witness.vertices:
            if a != b:
                assert g.adj[pos[a]] >> pos[b] & 1


def test_coloring_witness_is_proper_and_tight():
    g = fig3_graph()
    chi, coloring = chromatic_number(g)
    assert is_proper(g, coloring)
    assert coloring.color_count == chi
    assert set(coloring.assignment) == set(g.vertices)


def test_greedy_is_proper_upper_bound():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, 10, 0.5)
        greedy = greedy_coloring(g)
        assert is_proper(g, greedy)
        assert chromatic_number(g)[0] <= greedy.color_count


def test_determinism():
    g = fig3_graph()
    assert clique_number(g) == clique_number(g)
    c1 = chromatic_number(g)
    c2 = chromatic_number(g)
    assert c1[0] == c2[0] and c1[1].assignment == c2[1].assignment
    rng = random.Random(13)
    for _ in range(10):
        h = random_graph(rng, 11, 0.5)
        assert chromatic_number(h)[1].assignment == \
            chromatic_number(h)[1].assignment
        assert clique_number(h)[1].vertices == clique_number(h)[1].vertices


def test_chromatic_with_a_known_clique_bound():
    """The pair that analyze's solve yields, the clique bound and then chi,
    is what clique_number and chromatic_number give one at a time."""
    rng = random.Random(17)
    graphs = [fig3_graph(), make_graph(0, [])]
    for g in graphs + [random_graph(rng, 11, 0.5) for _ in range(10)]:
        assert list(_solve(g)) == [clique_number(g), chromatic_number(g)]


def _count_calls(monkeypatch, *names):
    """Wrap each named multlat.solvers function to log its calls."""
    calls = []
    for name in names:
        def counted(*args, _real=getattr(multlat.solvers, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(multlat.solvers, name, counted)
    return calls


def test_analyze_solves_the_clique_once(monkeypatch):
    """One relabelling and one clique search serve both invariants."""
    calls = _count_calls(monkeypatch, "_relabel", "_max_clique")
    report = analyze(fixture("fig3"))
    assert (report.chi, report.omega) == (4, 3)
    assert calls == ["_relabel", "_max_clique"]


def test_root_class_colours_are_built_only_when_they_are_the_answer(monkeypatch):
    """fig3 refutes k = 3, so its 4 root classes are the colouring; G(30, 0.5)
    seed 0 has 8 root classes and is 7-coloured by the k-search."""
    calls = _count_calls(monkeypatch, "_class_colors")
    assert analyze(fixture("fig3")).chi == 4
    assert calls == ["_class_colors"]
    calls.clear()
    g = random_graph(random.Random(0), 30, 0.5)
    _, adj = _relabel(g)
    assert len(_max_clique(adj, _Deadline(None))[2]) == 8
    assert chromatic_number(g)[0] == 7
    assert calls == []


@pytest.mark.parametrize("first, second", [(clique_number, chromatic_number),
                                           (chromatic_number, clique_number)],
                         ids=["omega_first", "chi_first"])
def test_the_pair_solves_the_clique_once(monkeypatch, first, second):
    """clique_number and chromatic_number on one graph, in either order,
    make one relabelling and one clique search, and give what a solve of
    their own would."""
    expected = list(_solve(fig3_graph()))
    calls = _count_calls(monkeypatch, "_relabel", "_max_clique")
    g = fig3_graph()
    got = {f: f(g) for f in (first, second)}
    assert [got[clique_number], got[chromatic_number]] == expected
    assert calls == ["_relabel", "_max_clique"]


def test_a_solve_of_another_graph_replaces_the_slot(monkeypatch):
    g, h = fig3_graph(), cycle_graph(5)
    assert clique_number(g)[0] == 3 and clique_number(h)[0] == 2
    calls = _count_calls(monkeypatch, "_relabel", "_max_clique")
    assert chromatic_number(g)[0] == 4
    assert calls == ["_relabel", "_max_clique"]


def test_an_equal_but_distinct_adjacency_tuple_is_solved_again(monkeypatch):
    """The slot is keyed on the identity of g.adj, not on its value."""
    g = fig3_graph()
    twin = dataclasses.replace(g, adj=tuple(list(g.adj)))
    assert twin.adj == g.adj and twin.adj is not g.adj
    clique_number(g)
    calls = _count_calls(monkeypatch, "_relabel", "_max_clique")
    assert chromatic_number(twin)[0] == 4
    assert calls == ["_relabel", "_max_clique"]


def test_a_timed_out_clique_search_leaves_nothing_behind(monkeypatch):
    g = fig3_graph()
    calls = _count_calls(monkeypatch, "_relabel", "_max_clique")
    with pytest.raises(SolverTimeout):
        clique_number(g, budget=0.0)
    assert chromatic_number(g, None)[0] == 4
    assert calls == ["_relabel", "_max_clique"] * 2


def test_the_slot_keeps_no_lattice_alive():
    ml = fixture("fig3")
    g = mult_zero_divisor_graph(ml)
    assert chromatic_number(g)[0] == 4
    lattice = weakref.ref(ml.lattice)
    del g, ml
    gc.collect()
    assert lattice() is None


def test_a_hit_gives_the_k_search_the_whole_budget(monkeypatch):
    """clique_number's search spends 10.5 of its 10 seconds on a still
    clock; chromatic_number then skips it and refutes k = 3 within its own
    10 seconds."""
    _clique_spends(monkeypatch, 10.5)
    g = fig3_graph()
    assert clique_number(g, budget=10.0)[0] == 3
    assert chromatic_number(g, budget=10.0)[0] == 4


def test_a_hit_under_a_zero_budget(monkeypatch):
    """A hit that needs no k-search returns under budget=0.0; one that
    needs a k-search times out in it, and the slot stays."""
    c6 = cycle_graph(6)  # the root classes meet omega = 2
    assert clique_number(c6)[0] == 2
    assert chromatic_number(c6, budget=0.0)[0] == 2
    assert clique_number(c6, budget=0.0)[0] == 2
    g = fig3_graph()  # k = 3 must be refuted
    assert clique_number(g)[0] == 3
    with pytest.raises(SolverTimeout):
        chromatic_number(g, budget=0.0)
    calls = _count_calls(monkeypatch, "_relabel", "_max_clique")
    assert chromatic_number(g)[0] == 4
    assert calls == []


def test_one_deadline_counts_both_kernels(monkeypatch):
    """analyze on fig3 makes one deadline, and its node count is the
    clique search's 3 plus the 6 DSATUR nodes that refute k = 3."""
    deadlines = []

    class Recorded(_Deadline):
        __slots__ = ()

        def __init__(self, seconds):
            super().__init__(seconds)
            deadlines.append(self)

    monkeypatch.setattr(multlat.solvers, "_Deadline", Recorded)
    assert analyze(fixture("fig3")).chi == 4
    assert [d.nodes for d in deadlines] == [3 + 6]


def test_chromatic_without_a_bound_relabels_once(monkeypatch):
    """chromatic_number solves the clique on its own relabelling: one
    _relabel call, and clique_number is never called."""
    calls = []
    real = multlat.solvers._relabel

    def counted_relabel(g):
        calls.append("_relabel")
        return real(g)

    def no_clique_number(*args, **kwargs):
        calls.append("clique_number")
        raise AssertionError("clique_number called")

    monkeypatch.setattr(multlat.solvers, "_relabel", counted_relabel)
    monkeypatch.setattr(multlat.solvers, "clique_number", no_clique_number)
    chi, coloring = chromatic_number(fig3_graph())
    assert chi == 4 and coloring.color_count == 4
    assert calls == ["_relabel"]


def test_a_false_clique_is_caught_when_used_as_a_bound(monkeypatch):
    """The clique witness is checked when chromatic_number solves its own
    lower bound, not only in clique_number."""
    g = fig3_graph()
    _, adj = _relabel(g)
    v, w = next((v, w) for v in range(len(adj)) for w in range(v + 1, len(adj))
                if not adj[v] >> w & 1)
    monkeypatch.setattr(multlat.solvers, "_max_clique",
                        lambda adj, deadline: (2, 1 << v | 1 << w, []))
    with pytest.raises(SelfCheckError):
        chromatic_number(g)
    with pytest.raises(SelfCheckError):
        clique_number(g)


def test_a_clique_larger_than_the_colouring_fails_analyze(monkeypatch):
    """A solve that reports omega = 3 and then chi = 2 is caught by
    ``analyze``'s omega <= chi check, not reported."""
    def lying(graph, budget):
        real = _solve(graph, budget)
        (_, clique), (_, coloring) = next(real), next(real)
        yield 3, clique
        yield 2, coloring

    monkeypatch.setattr(multlat.report, "_solve", lying)
    with pytest.raises(SelfCheckError, match="clique number 3 exceeds chromatic 2"):
        analyze(fixture("fig3"))


def test_an_improper_k_colouring_is_caught(monkeypatch):
    """On C5 omega = 2 and the root classes use 3 colours, so k = 2 is
    searched; a k-search that colours every vertex 0 is rejected."""
    monkeypatch.setattr(multlat.solvers, "_k_colorable",
                        lambda adj, k, deadline: [0] * len(adj))
    with pytest.raises(SelfCheckError, match="not proper"):
        chromatic_number(cycle_graph(5))


def test_a_k_colouring_with_more_than_k_colours_is_caught(monkeypatch):
    """On C5 the k-search runs for k = 2; one that gives every vertex its own
    colour is proper, but uses 5 colours for a claimed chi of 2."""
    monkeypatch.setattr(multlat.solvers, "_k_colorable",
                        lambda adj, k, deadline: list(range(len(adj))))
    with pytest.raises(SelfCheckError, match="wastes colors"):
        chromatic_number(cycle_graph(5))


def test_chi_search_starts_at_omega(monkeypatch):
    """K_{30,30} plus a disjoint K5: omega and the greedy bound are both 5,
    so chromatic_number runs no k-colouring search.  A lower bound below
    omega, such as the 2-clique a descent from the first vertex finds,
    would have to refute k = 3 and 4 through the bipartite part's
    colourings before each K5 failure."""
    m = 30
    edges = [(a, m + b) for a in range(m) for b in range(m)]
    edges += [(2 * m + a, 2 * m + b) for a in range(5) for b in range(a + 1, 5)]
    calls = _count_calls(monkeypatch, "_k_colorable")
    chi, coloring = chromatic_number(make_graph(2 * m + 5, edges), budget=5.0)
    assert (chi, coloring.color_count) == (5, 5)
    assert calls == []


# ---------------------------------------------------------------------------
# Oracle equivalence


@given(st.integers(0, 400))
def test_solver_matches_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    p = rng.choice([0.2, 0.5, 0.8])
    g = random_graph(rng, n, p)
    chi, coloring = chromatic_number(g)
    omega, witness = clique_number(g)
    assert omega <= chi
    assert chi == brute_force_chromatic(g)
    assert omega == brute_force_clique(g)
    assert is_proper(g, coloring)


def test_oracles_match_the_solvers_on_every_graph_of_at_most_5_vertices():
    checked = 0
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            g = make_graph(n, list(itertools.compress(pairs, chosen)))
            assert brute_force_chromatic(g) == chromatic_number(g)[0], g.adj
            assert brute_force_clique(g) == clique_number(g)[0], g.adj
            checked += 1
    assert checked == 1100


def test_oracle_caps():
    g = make_graph(13, [])
    with pytest.raises(TooLarge):
        brute_force_chromatic(g)
    with pytest.raises(TooLarge):
        brute_force_clique(g)
    at_cap = cycle_graph(ORACLE_CAP)
    assert brute_force_chromatic(at_cap) == brute_force_clique(at_cap) == 2


def test_solver_timeout():
    rng = random.Random(1)
    g = random_graph(rng, 40, 0.5)
    with pytest.raises(SolverTimeout):
        clique_number(g, budget=0.0)
    with pytest.raises(SolverTimeout):
        chromatic_number(g, budget=0.0)
    # and without a budget the same graph solves fine
    chi, _ = chromatic_number(g, budget=None)
    assert chi >= clique_number(g, budget=None)[0]


# ---------------------------------------------------------------------------
# Constructive minimal-prime coloring


def test_beck_coloring_b3():
    ml = attach_multiplication(boolean_lattice(3), "meet")
    coloring = minimal_prime_coloring(ml)
    g = mult_zero_divisor_graph(ml)
    assert is_proper(g, coloring)
    assert coloring.color_count == 3
    assert chromatic_number(g)[0] == 3


def test_beck_coloring_empty_graph():
    ml = attach_multiplication(chain_lattice(2), "meet")
    coloring = minimal_prime_coloring(ml)
    assert coloring.assignment == {} and coloring.color_count == 0


def test_beck_coloring_z30():
    ml = ideal_lattice_zn(30)
    coloring = minimal_prime_coloring(ml)
    g = mult_zero_divisor_graph(ml)
    assert is_proper(g, coloring)
    assert coloring.color_count == 3 == brute_force_chromatic(g)


@given(st.integers(0, 120))
def test_beck_coloring_properties_on_random_reduced(seed):
    lat = random_poset_down_set_lattice(seed, 20)
    ml = attach_multiplication(lat, "meet")
    assert is_reduced(ml)
    coloring = minimal_prime_coloring(ml)
    g = mult_zero_divisor_graph(ml)
    if g.n_vertices == 0:
        assert coloring.color_count == 0
        return
    primes = minimal_prime_elements(ml)
    assert is_proper(g, coloring)
    assert coloring.color_count <= len(primes)
    # the combined squeeze: omega >= #primes from the pairwise-zero witnesses
    # and chi <= #primes from this coloring force equality
    chi, _ = chromatic_number(g)
    omega, _ = clique_number(g)
    assert chi == omega == len(primes)


# ---------------------------------------------------------------------------
# Bitmask kernels against the reference solvers they replaced


def mycielski_graph(k: int):
    """M_k: M_2 is an edge, and M_{k+1} adds a shadow u_i of every vertex
    v_i, adjacent to the neighbours of v_i, and a hub adjacent to every
    shadow.  chi(M_k) = k and omega(M_k) = 2."""
    n, edges = 2, [(0, 1)]
    for _ in range(k - 2):
        shadow = [(a, n + b) for a, b in edges] + [(b, n + a) for a, b in edges]
        hub = [(n + i, 2 * n) for i in range(n)]
        edges, n = edges + shadow + hub, 2 * n + 1
    return make_graph(n, edges)


def kneser_graph(n: int, k: int):
    """K(n, k): the k-subsets of an n-set, adjacent when disjoint."""
    subsets = [frozenset(c) for c in itertools.combinations(range(n), k)]
    edges = [(i, j) for i, a in enumerate(subsets)
             for j in range(i + 1, len(subsets)) if not a & subsets[j]]
    return make_graph(len(subsets), edges)


def assert_same_as_reference(g):
    """Same clique witness after as many search nodes, and the same coloring
    or None after as many nodes for every k from the clique number up to the
    greedy bound, which always succeeds."""
    omega, witness = clique_number(g, budget=None)
    nodes = []
    assert (omega, witness.vertices) == reference_clique(g, nodes)
    if g.n_vertices == 0:
        return
    order, adj = _relabel(g)
    deadline = _Deadline(None)
    assert _max_clique(adj, deadline)[0] == omega
    assert deadline.nodes == len(nodes)
    for k in range(omega, greedy_coloring(g).color_count + 1):
        deadline = _Deadline(None)
        found = _k_colorable(adj, k, deadline)
        ours = None if found is None else {
            g.vertices[order[v]]: c for v, c in enumerate(found)}
        nodes = []
        assert ours == reference_k_colorable(g, k, nodes), k
        assert deadline.nodes == len(nodes), k


def test_known_graphs_match_the_reference_solvers():
    graphs = [fig3_graph()] + [mycielski_graph(k) for k in (3, 4, 5)]
    graphs += [kneser_graph(n, k)
               for n, k in ((7, 2), (8, 2), (9, 2), (8, 3), (9, 3))]
    for g in graphs:
        assert_same_as_reference(g)


def test_fig3_node_counts():
    """3 clique nodes and 6 nodes to refute k = 3, and one deadline sums the
    nodes of every kernel run under it."""
    _, adj = _relabel(fig3_graph())
    deadline = _Deadline(None)
    assert _max_clique(adj, deadline)[0] == 3
    assert deadline.nodes == 3
    assert _k_colorable(adj, 3, deadline) is None
    assert deadline.nodes == 3 + 6


def test_mycielski_and_kneser_values():
    for k in (3, 4, 5):
        g = mycielski_graph(k)
        assert (chromatic_number(g)[0], clique_number(g)[0]) == (k, 2)
    g = kneser_graph(8, 3)
    assert (chromatic_number(g)[0], clique_number(g)[0]) == (4, 2)
    # The oracles on known values, with no solver involved: M3, M4, the
    # Petersen graph and K12, at the oracles' size cap.
    for g, values in ((mycielski_graph(3), (3, 2)), (mycielski_graph(4), (4, 2)),
                      (kneser_graph(5, 2), (3, 2)),
                      (complete_graph(12), (12, 12))):
        assert (brute_force_chromatic(g), brute_force_clique(g)) == values


def test_ring_graphs_match_the_reference_solvers():
    checked = 0
    for n in range(2, 1001):
        g = mult_zero_divisor_graph(ideal_lattice_zn(n))
        if g.n_vertices:
            assert_same_as_reference(g)
            checked += 1
    assert checked == 831


def test_random_graphs_match_the_reference_solvers():
    rng = random.Random(23)
    for n, p in [(n, p) for n in (10, 20, 30, 40) for p in (0.2, 0.5, 0.8)]:
        for _ in range(5):
            assert_same_as_reference(random_graph(rng, n, p))
    # The sparse classes of the solver benchmark; 60 vertices relabel at
    # stride 64.
    for n, p in ((50, 0.2), (60, 0.15)):
        for _ in range(3):
            assert_same_as_reference(random_graph(rng, n, p))


@given(st.integers(0, 14).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                   st.integers(0, max(n - 1, 0)))))))
def test_small_graphs_match_the_reference_solvers(case):
    n, pairs = case
    assert_same_as_reference(
        make_graph(n, sorted({(min(a, b), max(a, b)) for a, b in pairs
                              if a != b})))


def test_relabel_renumbers_every_pair():
    """v, w are adjacent in the relabelled masks exactly when positions
    order[v], order[w] are adjacent in g, at sizes on both sides of each
    stride of the transposed bit matrix up to 256."""
    rng = random.Random(37)
    for n in (0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 255, 256, 257):
        g = random_graph(rng, n, 0.5)
        order, adj = _relabel(g)
        assert sorted(order) == list(range(n)) and len(adj) == n
        assert all(adj[v] >> w & 1 == g.adj[order[v]] >> order[w] & 1
                   for v in range(n) for w in range(n))
        assert all(row >> n == 0 for row in adj)


def test_greedy_matches_first_fit_in_degree_order():
    rng = random.Random(29)
    for _ in range(20):
        g = random_graph(rng, 20, 0.4)
        degs = [row.bit_count() for row in g.adj]
        colors: dict[int, int] = {}
        for k in sorted(range(20), key=lambda k: (-degs[k], k)):
            used = {colors[j] for j in range(20) if g.adj[k] >> j & 1
                    and j in colors}
            colors[k] = min(set(range(20)) - used)
        assert greedy_coloring(g).assignment == colors


def test_chromatic_number_maps_its_colouring_back_once(monkeypatch):
    """Whichever colour list wins, the greedy one or a k-search's, is mapped
    back to a Coloring once; when greedy is optimal it is the witness."""
    calls = []
    original = multlat.solvers._coloring

    def counted(g, order, colors):
        calls.append(colors)
        return original(g, order, colors)

    monkeypatch.setattr(multlat.solvers, "_coloring", counted)
    rng = random.Random(31)
    greedy_optimal = Counter()
    for _ in range(40):
        g = random_graph(rng, 14, 0.5)
        greedy = greedy_coloring(g)
        calls.clear()
        chi, coloring = chromatic_number(g)
        assert len(calls) == 1
        if chi == greedy.color_count:
            assert coloring == greedy
        greedy_optimal[chi == greedy.color_count] += 1
    assert greedy_optimal[True] and greedy_optimal[False]


def test_is_proper_rejects_a_conflict_and_a_missing_vertex():
    g = make_graph(3, [(0, 1), (1, 2)])
    assert is_proper(g, Coloring({0: 0, 1: 1, 2: 0}))
    assert not is_proper(g, Coloring({0: 0, 1: 0, 2: 1}))
    assert not is_proper(g, Coloring({0: 0, 1: 1}))


# ---------------------------------------------------------------------------
# Depth, budget and self-checks


def test_long_odd_cycle_needs_no_recursion():
    # The solvers never read the lattice; a 1501-element chain would take
    # seconds to build, so the graph carries a one-element one.
    n = 1501
    adj = [1 << (i - 1) % n | 1 << (i + 1) % n for i in range(n)]
    g = ZdGraph(chain_lattice(1), tuple(range(n)), tuple(adj), ("test", None))
    chi, coloring = chromatic_number(g)
    assert chi == 3 and is_proper(g, coloring)
    assert _k_colorable(_relabel(g)[1], 2, _Deadline(None)) is None


def test_large_clique_needs_no_recursion():
    # The complete graph on 1200 vertices; as above, it carries a
    # one-element lattice.  The clique search used to recurse once per
    # clique vertex.
    n = 1200
    full = (1 << n) - 1
    g = ZdGraph(chain_lattice(1), tuple(range(n)),
                tuple([full ^ 1 << v for v in range(n)]), ("test", None))
    omega, clique = clique_number(g)
    assert omega == n and clique.vertices == tuple(range(n))
    chi, coloring = chromatic_number(g)
    assert chi == n and is_proper(g, coloring)


def test_kernel_honours_an_expired_budget():
    """The first node reads the clock, so an expired deadline raises before
    any search, and the raising node is counted."""
    g = cycle_graph(5)
    for kernel in (lambda adj, d: _k_colorable(adj, 3, d), _max_clique):
        deadline = _Deadline(-1.0)
        with pytest.raises(SolverTimeout):
            kernel(_relabel(g)[1], deadline)
        assert deadline.nodes == 1
    with pytest.raises(SolverTimeout):
        chromatic_number(g, budget=0.0)
    assert chromatic_number(g, budget=None)[0] == 3


class _ExpiringClock:
    """A monotonic clock that reads 100.0 twice, when a deadline is set and
    on the first search node, and a time past any budget after that."""

    def __init__(self):
        self.reads = 0

    def monotonic(self):
        self.reads += 1
        return 100.0 if self.reads <= 2 else 1e9


def test_a_deadline_expiring_mid_search_is_noticed_within_64_nodes(monkeypatch):
    """The kernels read the clock on nodes 1, 65, 129, ...: a budget that
    runs out just after node 1 is noticed on node 65, by the third read.
    Both searches on K(9, 2) are longer than that: 161 clique nodes, 1368
    to refute k = 6."""
    _, adj = _relabel(kneser_graph(9, 2))
    for kernel in (_max_clique, lambda adj, d: _k_colorable(adj, 6, d)):
        clock = _ExpiringClock()
        monkeypatch.setattr(multlat.solvers, "time", clock)
        deadline = _Deadline(1.0)
        with pytest.raises(SolverTimeout):
            kernel(adj, deadline)
        assert deadline.nodes == 65 and clock.reads == 3
    monkeypatch.undo()
    deadline = _Deadline(None)
    _max_clique(adj, deadline)
    assert deadline.nodes == 161
    deadline = _Deadline(None)
    assert _k_colorable(adj, 6, deadline) is None
    assert deadline.nodes == 1368


# ---------------------------------------------------------------------------
# One solver budget per analysis


class _Clock:
    """A monotonic clock that moves only when told to."""

    def __init__(self):
        self.now = 100.0

    def monotonic(self):
        return self.now


def _clique_spends(monkeypatch, seconds):
    """Patch in a still clock that the clique kernel moves by ``seconds``."""
    clock = _Clock()
    real = multlat.solvers._max_clique

    def slow_clique(adj, deadline):
        found = real(adj, deadline)
        clock.now += seconds
        return found

    monkeypatch.setattr(multlat.solvers, "time", clock)
    monkeypatch.setattr(multlat.solvers, "_max_clique", slow_clique)


def test_analyze_gives_chi_the_budget_the_clique_left(monkeypatch):
    """The colouring search runs under the clique's deadline: with 2.5 of 10
    seconds spent it finishes, with all of them it times out at once."""
    _clique_spends(monkeypatch, 2.5)
    report = analyze(fixture("fig3"), solver_budget=10.0)
    assert not report.timed_out and (report.chi, report.omega) == (4, 3)
    monkeypatch.undo()
    _clique_spends(monkeypatch, 10.5)
    report = analyze(fixture("fig3"), solver_budget=10.0)
    assert report.timed_out and report.chi is None and report.omega == 3
    report = analyze(fixture("fig3"), solver_budget=None)
    assert not report.timed_out and (report.chi, report.omega) == (4, 3)


def test_chi_timeout_keeps_the_clique(monkeypatch):
    _clique_spends(monkeypatch, 1.0)
    report = analyze(fixture("fig3"), solver_budget=0.5)
    omega, clique = clique_number(fig3_graph())
    assert report.timed_out and report.verdict is None
    assert report.chi is None and report.coloring is None
    assert report.omega == omega == 3
    names = fixture("fig3").lattice.names
    assert report.clique == [names[v] for v in clique.vertices]
