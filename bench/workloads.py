"""Workload inputs, made from the seed, and the checks on every output.

Each workload is a list of items; one operation runs one item, and a round
runs every item once.  The checks recompute what the program should have
said with arithmetic of their own (divisors, gcd and lcm, subsets, the graphs'
known chromatic and clique numbers), never with a stored copy of an earlier
output.

A check returns a list of problems.  A problem that starts with
``INCOMPLETE`` means the program gave no answer for part of the output (a
``null`` count, a timeout); any other problem is a wrong answer.
"""
from __future__ import annotations

import json
import math
import os
import random

INCOMPLETE = "INCOMPLETE"

WORKLOADS = ("ring-sweep", "large-analyze", "validate-wide", "solver-graphs")


class Workload:
    """The items of one workload and the check for each item's output.

    ``round_s`` is the length of one round when the benchmark was defined
    (2-vCPU Xeon VM, Python 3.11).  It turns a run length into a fixed number of
    rounds, so that two commits measured with one run length do the same work.
    ``tail_q`` is the percentile reported as op_tail_ms.
    """

    def __init__(self, name, items, labels, checks, *, round_s, min_rounds,
                 tail_q):
        self.name = name
        self.items = items          # JSON-able inputs handed to child.py
        self.labels = labels        # one readable name per item
        self.checks = checks        # one callable(output) -> problems per item
        self.round_s = round_s
        self.min_rounds = min_rounds
        self.tail_q = tail_q

    def rounds(self, seconds: float) -> int:
        return max(self.min_rounds, round(seconds / self.round_s))

    def check(self, item: int, output) -> list[str]:
        try:
            return self.checks[item](output)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"malformed output: {type(exc).__name__}: {exc}"]


def make(name: str, seed: int, workdir: str, smoke: bool = False) -> Workload:
    if name == "ring-sweep":
        return ring_sweep(smoke)
    if name == "large-analyze":
        return large_analyze(smoke)
    if name == "validate-wide":
        return validate_wide(seed, workdir, smoke)
    if name == "solver-graphs":
        return solver_graphs(seed, smoke)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# Independent arithmetic


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small) | {n // d for d in small})


def distinct_primes(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def squarefree(n: int) -> bool:
    return all(n % (p * p) for p in distinct_primes(n))


def subset_name(mask: int, k: int) -> str:
    return "{" + ",".join(str(i + 1) for i in range(k) if mask >> i & 1) + "}"


# ---------------------------------------------------------------------------
# Graph facts shared by the report and solver checks


def check_clique(clique, omega, vertices, adjacent) -> list[str]:
    problems = []
    if len(set(clique)) != len(clique) or len(clique) != omega:
        problems.append(f"clique witness has {len(set(clique))} distinct "
                        f"vertices, omega is {omega}")
    if not set(clique) <= set(vertices):
        problems.append("clique witness uses a non-vertex")
    elif any(not adjacent(a, b) for i, a in enumerate(clique)
             for b in clique[i + 1:]):
        problems.append("clique witness contains a non-edge")
    return problems


def check_coloring(coloring: dict, chi, vertices, edges) -> list[str]:
    problems = []
    if set(coloring) != set(vertices):
        problems.append("coloring is not on exactly the vertex set")
        return problems
    if any(coloring[a] == coloring[b] for a, b in edges):
        problems.append("coloring gives two adjacent vertices one colour")
    if len(set(coloring.values())) != chi:
        problems.append(f"coloring uses {len(set(coloring.values()))} colours, "
                        f"chi is {chi}")
    return problems


# ---------------------------------------------------------------------------
# Analysis reports: Id(Z_n) and the boolean lattice with meet


def check_report(report: dict, *, instance, element_count, bottom, vertices,
                 adjacent, reduced, minimal_primes, chi=None,
                 omega=None) -> list[str]:
    """Check one analysis report against independently computed facts.

    ``minimal_primes`` is the set of minimal prime element names; its size is
    also the number of minimal prime semi-ideals and minimal prime ideals,
    because in a finite distributive lattice those are the sets L minus the
    up-set of an atom.  ``chi`` and ``omega``, when given, are known values.
    """
    problems = []
    edges = [(a, b) for i, a in enumerate(vertices) for b in vertices[i + 1:]
             if adjacent(a, b)]
    expect = {"instance": instance, "element": bottom,
              "element_count": element_count, "vertex_count": len(vertices),
              "edge_count": len(edges), "reduced": reduced, "timed_out": False}
    for key, value in expect.items():
        if report[key] != value:
            problems.append(f"{key} is {report[key]!r}, expected {value!r}")
    if set(report["minimal_prime_elements"]) != minimal_primes:
        problems.append("minimal prime elements differ")
    k = len(minimal_primes)
    for key in ("minimal_prime_semi_ideals", "minimal_prime_ideals"):
        count = report["counts"][key]
        if count is None:
            problems.append(f"{INCOMPLETE}: {key} count is null")
        elif count != k:
            problems.append(f"{key} count is {count}, expected {k}")

    chi_r, omega_r = report["chi"], report["omega"]
    if not isinstance(chi_r, int) or not isinstance(omega_r, int):
        return problems + [f"{INCOMPLETE}: chi or omega missing"]
    problems += check_clique(report["clique"], omega_r, vertices, adjacent)
    problems += check_coloring(report["coloring"], chi_r, vertices, edges)
    if omega_r > chi_r:
        problems.append(f"omega {omega_r} exceeds chi {chi_r}")
    if chi is not None and chi_r != chi:
        problems.append(f"chi is {chi_r}, expected {chi}")
    if omega is not None and omega_r != omega:
        problems.append(f"omega is {omega_r}, expected {omega}")
    verdict = ("empty_graph" if not vertices
               else "holds" if chi_r == omega_r else "fails")
    if report["verdict"] != verdict:
        problems.append(f"verdict is {report['verdict']!r}, expected {verdict!r}")
    return problems


def zn_check(n: int, instance: str):
    """Check of the report on Id(Z_n): the annihilating-ideal graph of Z_n."""
    divs = divisors(n)
    name = "({})".format
    adjacent_d = {(a, b) for a in divs for b in divs
                  if a != b and a * b % n == 0}
    verts = [name(d) for d in divs
             if d != n and any(d * e % n == 0 for e in divs if e != n)]
    index = {name(d): d for d in divs}
    primes = distinct_primes(n)
    known = len(primes) if squarefree(n) and len(primes) > 1 else None
    if len(primes) == 1 and n == primes[0]:
        known = 0   # Z_p is a field: the graph is empty

    def check(line: str) -> list[str]:
        return check_report(
            json.loads(line), instance=instance, element_count=len(divs),
            bottom=name(n), vertices=verts,
            adjacent=lambda a, b: (index.get(a), index.get(b)) in adjacent_d,
            reduced=squarefree(n), minimal_primes={name(p) for p in primes},
            chi=known, omega=known)
    return check


def boolean_check(k: int, instance: str):
    """Check of the report on the subsets of {1..k} with meet as product."""
    full = (1 << k) - 1
    masks = {subset_name(m, k): m for m in range(full + 1)}
    verts = [subset_name(m, k) for m in range(1, full)]

    def check(text: str) -> list[str]:
        return check_report(
            json.loads(text), instance=instance, element_count=full + 1,
            bottom=subset_name(0, k), vertices=verts,
            adjacent=lambda a, b: a != b and masks[a] & masks[b] == 0,
            reduced=True,
            minimal_primes={subset_name(full & ~(1 << i), k) for i in range(k)},
            chi=k, omega=k)
    return check


def ring_sweep(smoke: bool) -> Workload:
    """Every n in 2..1000, in order: what ``multlat ring --sweep`` does."""
    moduli = list(range(2, 151 if smoke else 1001))
    return Workload("ring-sweep", moduli, [f"ring:{n}" for n in moduli],
                    [zn_check(n, f"ring:{n}") for n in moduli],
                    round_s=1.7, min_rounds=3, tail_q=0.98)


LARGE_SPECS = ("divisor:2520", "divisor:5040", "boolean:6")
SMOKE_LARGE_SPECS = ("divisor:2310", "boolean:5")


def large_analyze(smoke: bool) -> Workload:
    """``analyze`` on the largest desk-scale instances; inputs are fixed."""
    specs = SMOKE_LARGE_SPECS if smoke else LARGE_SPECS
    checks = []
    for spec in specs:
        family, arg = spec.split(":")
        if family == "divisor":
            checks.append(zn_check(int(arg), f"{spec}+ring"))
        else:
            checks.append(boolean_check(int(arg), f"{spec}+meet"))
    return Workload("large-analyze", list(specs), list(specs), checks,
                    round_s=25.0, min_rounds=1, tail_q=1.0)


# ---------------------------------------------------------------------------
# validate-wide: lattice files written during set-up

# Id(Z_720720) (240 elements) is left out: one load takes 1.5 to 2 s, the
# length of the host's slow spells, so its best time over a run still moved
# by 30 % from run to run.  Id(Z_360360) (192 elements) takes the same path.
VALIDATE_MODULI = (5040, 27720, 55440, 360360)
SMOKE_VALIDATE_MODULI = (5040, 27720)
VALIDATE_BOOLEAN_RANK = 6


class FileLattice:
    """A lattice written to a file, with its operations as Python callables.

    ``elements`` are plain values in file order (divisors, or subset
    bitmasks); ``cover_pairs`` are the pairs (a, b) with b covering a.
    """

    def __init__(self, label, elements, name, leq, meet, join, product,
                 cover_pairs):
        self.label = label
        self.elements = elements
        self.names = [name(e) for e in elements]
        self.leq, self.meet, self.join = leq, meet, join
        self.product = product
        self.cover_pairs = cover_pairs
        self.pos = {e: i for i, e in enumerate(elements)}
        self.bottom = next(i for i, a in enumerate(elements)
                           if all(leq(a, b) for b in elements))
        self.top = next(i for i, a in enumerate(elements)
                        if all(leq(b, a) for b in elements))

    def table(self, op) -> list[list[int]]:
        return [[self.pos[op(a, b)] for b in self.elements]
                for a in self.elements]


def zn_file(n: int) -> FileLattice:
    """Id(Z_n): (d) <= (e) iff e | d, join gcd, meet lcm, (d)(e) = (gcd(de, n))."""
    divs = divisors(n)
    covers = [(d * p, d) for d in divs for p in distinct_primes(n)
              if n % (d * p) == 0]
    return FileLattice(f"Id(Z_{n})", divs, "({})".format,
                       lambda a, b: a % b == 0, math.lcm, math.gcd,
                       lambda a, b: math.gcd(a * b, n), covers)


def boolean_file(k: int) -> FileLattice:
    """The subsets of {1..k} as bitmasks, with intersection as product."""
    covers = [(m, m | 1 << i) for m in range(1 << k) for i in range(k)
              if not m >> i & 1]
    return FileLattice(f"B{k}", list(range(1 << k)),
                       lambda m: subset_name(m, k), lambda a, b: a & ~b == 0,
                       lambda a, b: a & b, lambda a, b: a | b,
                       lambda a, b: a & b, covers)


def lattice_document(lat: FileLattice, form: str, table) -> dict:
    """The file contents; ``table`` None writes the meet multiplication."""
    if form == "covers":
        pairs = lat.cover_pairs
    else:
        pairs = [(a, b) for a in lat.elements for b in lat.elements
                 if lat.leq(a, b)]
    names = lat.names
    doc = {"elements": names,
           "order": {"kind": form,
                     "pairs": [[names[lat.pos[a]], names[lat.pos[b]]]
                               for a, b in pairs]}}
    if table is None:
        doc["multiplication"] = {"kind": "meet"}
    else:
        doc["multiplication"] = {"kind": "table",
                                 "table": [[names[v] for v in row] for row in table]}
    return doc


def perturb(lat: FileLattice, product, rng: random.Random):
    """Copy of ``product`` with one symmetric pair of entries set to bottom.

    The seed picks the pair (i, j) among those where neither is a bound, the
    product is above bottom and j has two lower covers b and c.  Then j = b v c
    and i.(b v c) = bottom differs from i.b v i.c, so the copy violates M3
    and must be rejected.
    """
    lower_covers = [0] * len(lat.elements)
    for _, b in lat.cover_pairs:
        lower_covers[lat.pos[b]] += 1
    bounds = (lat.bottom, lat.top)
    pairs = [(i, j) for j, count in enumerate(lower_covers)
             if count >= 2 and j not in bounds
             for i in range(len(lat.elements))
             if i not in bounds and i != j and product[i][j] != lat.bottom]
    i, j = rng.choice(pairs)
    table = [list(row) for row in product]
    table[i][j] = table[j][i] = lat.bottom
    return table, (lat.names[i], lat.names[j])


def axiom_holds(axiom: str, witness: list[int], lat: FileLattice, P) -> bool:
    """Evaluate the named axiom at the witness, with P as the product table."""
    el, pos = lat.elements, lat.pos
    join = lambda a, b: pos[lat.join(el[a], el[b])]
    if axiom == "M1" and len(witness) == 2:
        a, b = witness
        return P[a][b] == P[b][a]
    if axiom == "M2" and len(witness) == 3:
        a, b, c = witness
        return P[P[a][b]][c] == P[a][P[b][c]]
    if axiom == "M3" and len(witness) == 2:
        a, _ = witness
        return P[a][lat.bottom] == lat.bottom
    if axiom == "M3" and len(witness) == 3:
        a, b, c = witness
        return P[a][join(b, c)] == join(P[a][b], P[a][c])
    if axiom == "M4" and len(witness) == 2:
        a, b = witness
        return lat.leq(el[P[a][b]], lat.meet(el[a], el[b]))
    if axiom == "M5" and len(witness) == 1:
        (a,) = witness
        return P[a][lat.top] == a
    raise ValueError(f"unknown axiom or witness shape: {axiom} {witness}")


def accept_check(lat: FileLattice):
    expected = []

    def check(out: dict) -> list[str]:
        if "error" in out:
            return [f"valid file rejected with {out['error']}"]
        if not expected:
            expected.extend(lat.table(op) for op in (lat.meet, lat.join, lat.product))
        problems = []
        if out["names"] != lat.names:
            problems.append("element names or order changed")
        for key, table in zip(("meet", "join", "product"), expected):
            if out[key] != table:
                problems.append(f"{key} table differs from the arithmetic one")
        return problems
    return check


def reject_check(lat: FileLattice, table):
    index = {nm: i for i, nm in enumerate(lat.names)}

    def check(out: dict) -> list[str]:
        if "error" not in out:
            return ["perturbed file was accepted"]
        if out["error"] != "AxiomViolation":
            return [f"perturbed file rejected with {out['error']}, "
                    "not AxiomViolation"]
        witness = [index[w] for w in out["witness"]]
        if axiom_holds(out["axiom"], witness, lat, table):
            return [f"witness {out['witness']} does not violate {out['axiom']}"]
        return []
    return check


def validate_wide(seed: int, workdir: str, smoke: bool) -> Workload:
    """Load and validate large lattice files, valid ones and broken copies."""
    rng = random.Random(f"validate-wide:{seed}")
    moduli = SMOKE_VALIDATE_MODULI if smoke else VALIDATE_MODULI
    # (lattice, order form, whether the valid file spells out its table)
    files = [(zn_file(n), form, True) for n in moduli
             for form in ("covers", "leq")]
    files.append((boolean_file(VALIDATE_BOOLEAN_RANK), "covers", False))
    items, labels, checks = [], [], []
    for k, (lat, form, explicit) in enumerate(files):
        product = lat.table(lat.product)
        broken, pair = perturb(lat, product, rng)
        valid = product if explicit else None
        for kind, table in (("valid", valid), ("perturbed", broken)):
            path = os.path.join(workdir, f"{k:02d}-{kind}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(lattice_document(lat, form, table), fh)
            items.append(path)
        labels += [f"{lat.label} {form}", f"{lat.label} {form} perturbed at {pair}"]
        checks += [accept_check(lat), reject_check(lat, broken)]
    return Workload("validate-wide", items, labels, checks,
                    round_s=3.1, min_rounds=2, tail_q=1.0)


# ---------------------------------------------------------------------------
# solver-graphs: graphs with a chromatic or clique number known from elsewhere

# Mycielski M6 is left out: its 6 s solve spans several of the host's slow
# and fast spells, and its best time over a run moved by 20 % from run to run
# while it was most of the workload's time.
MYCIELSKI = (4, 5)
KNESER = ((7, 2), (8, 2), (9, 2), (8, 3), (9, 3))
# (vertices, edge probability, graphs per round).  Solve times of random
# graphs are heavy-tailed: G(60, 0.5) took up to 27 s, near the solver budget.
# These classes have light tails, and most graphs come from one of them, so
# the sum, the median and the 90th percentile move little with the seed.
GNP = ((30, 0.5, 800), (40, 0.3, 60), (50, 0.2, 40), (60, 0.15, 20))
SMOKE_GNP = ((30, 0.5, 2),)
ORACLE_LIMIT = 12


def solver_graphs(seed: int, smoke: bool) -> Workload:
    import networkx as nx

    rng = random.Random(f"solver-graphs:{seed}")
    graphs = []   # (label, networkx graph, known chi, known omega)
    for k in MYCIELSKI:
        graphs.append((f"mycielski:{k}", nx.mycielski_graph(k), k, 2))
    for n, k in KNESER[:2] if smoke else KNESER:
        graphs.append((f"kneser:{n},{k}", nx.kneser_graph(n, k),
                       n - 2 * k + 2, n // k))
    for n, p, count in SMOKE_GNP if smoke else GNP:
        for _ in range(count):
            g_seed = rng.randrange(2 ** 32)
            graphs.append((f"gnp:{n},{p},seed={g_seed}",
                           nx.gnp_random_graph(n, p, seed=g_seed), None, None))
    items, labels, checks = [], [], []
    for label, graph, chi, omega in graphs:
        nodes = sorted(graph.nodes())
        pos = {v: i for i, v in enumerate(nodes)}
        edges = sorted(tuple(sorted((pos[a], pos[b]))) for a, b in graph.edges())
        items.append({"n": len(nodes), "edges": edges})
        labels.append(label)
        checks.append(graph_check(graph, len(nodes), edges, chi, omega))
    return Workload("solver-graphs", items, labels, checks,
                    round_s=2.4, min_rounds=2, tail_q=0.9)


def graph_check(graph, n, edges, chi, omega):
    """Check of (omega, clique, chi, coloring) against known or oracle values."""
    import networkx as nx

    vertices = list(range(n))
    edge_set = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}
    known = {"chi": chi, "omega": omega}

    def expected():
        if known["omega"] is None:
            known["omega"] = nx.max_weight_clique(graph, weight=None)[1]
        if n <= ORACLE_LIMIT and "oracle" not in known:
            known["oracle"] = oracle(n, edges)
        return known

    def check(out: dict) -> list[str]:
        facts = expected()
        omega_r, chi_r = out["omega"], out["chi"]
        problems = check_clique(list(out["clique"]), omega_r, vertices,
                                lambda a, b: (a, b) in edge_set)
        problems += check_coloring({v: c for v, c in out["coloring"]}, chi_r,
                                   vertices, edges)
        if omega_r > chi_r:
            problems.append(f"omega {omega_r} exceeds chi {chi_r}")
        if facts["chi"] is not None and chi_r != facts["chi"]:
            problems.append(f"chi is {chi_r}, expected {facts['chi']}")
        if omega_r != facts["omega"]:
            problems.append(f"omega is {omega_r}, expected {facts['omega']}")
        if "oracle" in facts and facts["oracle"] != (chi_r, omega_r):
            problems.append(f"brute-force oracles give {facts['oracle']}")
        return problems
    return check


def oracle(n: int, edges) -> tuple[int, int]:
    """(chi, omega) from multlat's independent brute-force oracles."""
    import multlat as M
    from child import graph_from_edges

    g = graph_from_edges(M, n, edges)
    return M.brute_force_chromatic(g), M.brute_force_clique(g)
