"""Prime semi-ideals, prime ideals, and the theorem/lemma checking suite.

The prime structure has a closed form.  In a finite lattice the complement
of a prime semi-ideal is a filter, and every filter is principal, so the
prime semi-ideals are exactly the complements of the principal filters up(f)
for f != 0; the minimal ones are the complements of up(a) for the atoms a.
A finite down-set is an ideal exactly when it holds its own join, that is
when it is a principal down-set (``ElementSubset.is_ideal``), so the prime
ideals are the down(m) whose complement is some up(f), one set lookup per
element, and the inclusion-minimal ones are down(m) for the <=-minimal such
m (``Lattice.minimal``).  Everything here is read off the ``up``/``down``
bitmasks, with no enumeration of down-sets.

The lemma suite re-checks, instance by instance, the statements that the
reduced theory guarantees.  A failing check on a reduced lattice is an
implementation bug, never an acceptable outcome; the suite therefore reports
failures with concrete witnesses instead of raising.  Reducedness is tested
once, up front: a lattice that is not reduced gets its skip lines and
nothing more is computed.  Otherwise the suite reads the facts it needs
(0-distributivity, the annihilator of every element, the prime elements,
decided on pairs of join-irreducibles) from the caches on the ``Lattice``
and ``MultLattice``, so ``analyze`` and the suite compute each of them once
per instance between them.  The annihilators are read in one pass, into a
map from each value to the first nonzero element that has it; that map
names the maximal annihilators' witnesses and decides whether a nonzero
zero divisor exists, with no scan of the n^2 products.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .lattice import ElementSubset, Lattice, zero_distributivity_witness
from .multiplication import (MultLattice, annihilator_map, is_reduced,
                             maximal_annihilator_elements,
                             minimal_prime_elements, prime_elements)


def minimal_prime_semi_ideals(lat: Lattice) -> list[ElementSubset]:
    """Inclusion-minimal prime semi-ideals, sorted by member bitmask: the
    complements of up(a) for the atoms a."""
    full = (1 << lat.n) - 1
    return [ElementSubset(lat, m)
            for m in sorted(full & ~lat.up[a] for a in lat.atoms())]


def minimal_prime_ideals(lat: Lattice) -> list[ElementSubset]:
    """Inclusion-minimal prime ideals, sorted by member bitmask.

    The prime ideals are the join-closed prime semi-ideals.  A finite
    down-set is join-closed exactly when it holds its own join, that is when
    it is a principal down-set down(m), and down(m) is a prime semi-ideal
    exactly when its complement is a principal filter up(f) (f != 0 and
    m != 1 follow, as neither set is empty).  As down(m) is inside down(m')
    exactly when m <= m', the inclusion-minimal ones are down(m) for the
    <=-minimal m.
    """
    full = (1 << lat.n) - 1
    filters = set(lat.up)
    tops = [m for m, d in enumerate(lat.down) if full & ~d in filters]
    return [ElementSubset(lat, m)
            for m in sorted(lat.down[t] for t in lat.minimal(tops))]


@dataclass
class PrimeStructure:
    """Everything the counting theorems talk about, for one instance.

    The semi-ideal and ideal lists hold the inclusion-minimal prime
    semi-ideals and prime ideals, sorted by member bitmask; the element lists
    hold indices in ascending order.
    """

    minimal_prime_semi_ideals: list[ElementSubset]
    minimal_prime_ideals: list[ElementSubset]
    minimal_prime_elements: list[int]
    maximal_annihilators: list[int]

    #: Always False: the closed form has no enumeration cap to exceed.  Kept
    #: because the benchmark's tracer (bench/spans.py) reads it.
    cap_exceeded = False


def prime_structure(ml: MultLattice) -> PrimeStructure:
    """Compute the full prime structure of a multiplicative lattice."""
    lat = ml.lattice
    return PrimeStructure(minimal_prime_semi_ideals(lat), minimal_prime_ideals(lat),
                          minimal_prime_elements(ml),
                          maximal_annihilator_elements(ml))


# ---------------------------------------------------------------------------
# Lemma suite


@dataclass
class LemmaCheck:
    """Outcome of one checked statement: pass, fail (with witness), or skip."""

    check_id: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""
    witness: tuple[str, ...] | None = None

    def to_dict(self) -> dict:
        out: dict = {"id": self.check_id, "status": self.status}
        if self.detail:
            out["detail"] = self.detail
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


@dataclass
class LemmaReport:
    """Ordered collection of lemma checks for one instance."""

    checks: list[LemmaCheck] = field(default_factory=list)

    def add(self, check_id: str, status: str, detail: str = "",
            witness: tuple[str, ...] | None = None) -> None:
        self.checks.append(LemmaCheck(check_id, status, detail, witness))

    @property
    def failed(self) -> list[LemmaCheck]:
        return [c for c in self.checks if c.status == "fail"]

    @property
    def all_passed(self) -> bool:
        return not self.failed

    def summary(self) -> dict[str, str]:
        return {c.check_id: c.status for c in self.checks}

    def to_dict(self) -> dict:
        return {"checks": [c.to_dict() for c in self.checks]}


def check_lemma_suite(ml: MultLattice,
                      structure: PrimeStructure | None = None) -> LemmaReport:
    """Run every instance-checkable statement of the reduced theory.

    Reducedness is tested once.  On a lattice that is not reduced every
    statement that assumes it is reported as skipped, and nothing else is
    computed: not the annihilators, the primes or ``structure``.  On a
    reduced lattice each statement is evaluated; the two whose hypothesis
    also needs a nonzero zero divisor pass vacuously without one.
    """
    lat = ml.lattice
    names = lat.names
    report = LemmaReport()
    zd_witness = zero_distributivity_witness(lat)

    if not is_reduced(ml):
        unmet = "hypothesis unmet (not reduced)"
        report.add("reduced_implies_zero_distributive", "skip",
                   f"{unmet}; base lattice is 0-distributive: "
                   f"{zd_witness is None}")
        for check_id in ("minimal_prime_semi_ideals_are_ideals",
                         "maximal_annihilators_are_prime",
                         "distinct_prime_annihilators_multiply_to_zero"):
            report.add(check_id, "skip", unmet)
        report.add("annihilator_chains_stabilize", "pass", "trivial (finite)")
        for check_id in ("finitely_many_maximal_annihilators",
                         "zero_is_meet_of_minimal_primes",
                         "minimal_primes_are_annihilators"):
            report.add(check_id, "skip", unmet)
        return report

    if structure is None:
        structure = prime_structure(ml)
    stars = annihilator_map(ml)
    primes = set(prime_elements(ml))
    maxann = structure.maximal_annihilators

    # Reduced lattices are 0-distributive.
    if zd_witness is None:
        report.add("reduced_implies_zero_distributive", "pass")
    else:
        report.add("reduced_implies_zero_distributive", "fail",
                   "reduced lattice is not 0-distributive",
                   tuple([names[w] for w in zd_witness]))

    # Every minimal prime semi-ideal is an ideal, and the minimal prime
    # semi-ideal and minimal prime ideal families coincide.
    semi = structure.minimal_prime_semi_ideals
    bad = [d for d in semi if not d.is_ideal]
    if bad:
        report.add("minimal_prime_semi_ideals_are_ideals", "fail",
                   "a minimal prime semi-ideal is not join-closed",
                   bad[0].names)
    elif ({d.mask for d in semi}
          != {d.mask for d in structure.minimal_prime_ideals}):
        report.add("minimal_prime_semi_ideals_are_ideals", "fail",
                   "semi-ideal and ideal families differ")
    else:
        report.add("minimal_prime_semi_ideals_are_ideals", "pass")

    # Maximal annihilator elements are prime.
    bad_m = [m for m in maxann if m not in primes]
    if bad_m:
        report.add("maximal_annihilators_are_prime", "fail",
                   "a maximal annihilator element is not prime",
                   (names[bad_m[0]],))
    else:
        report.add("maximal_annihilators_are_prime", "pass",
                   f"{len(maxann)} maximal annihilator(s)")

    # Distinct prime annihilators multiply to zero.
    violation = None
    for x in range(ml.n):
        if stars[x] not in primes:
            continue
        for y in range(x + 1, ml.n):
            if (stars[y] != stars[x] and stars[y] in primes
                    and ml.product[x][y] != lat.bottom):
                violation = (x, y)
                break
        if violation:
            break
    if violation:
        report.add("distinct_prime_annihilators_multiply_to_zero", "fail",
                   "elements with distinct prime annihilators have a "
                   "nonzero product",
                   tuple([names[w] for w in violation]))
    else:
        report.add("distinct_prime_annihilators_multiply_to_zero", "pass")

    # Ascending chains of annihilators stabilize: immediate in a finite
    # lattice, reported without computation.
    report.add("annihilator_chains_stabilize", "pass", "trivial (finite)")

    # The set of maximal annihilators is finite and its witnesses form a
    # clique in the zero-divisor graph.  first[s] is the first nonzero
    # element whose annihilator is s.
    first: dict[int, int] = {}
    for a, s in enumerate(stars):
        if a != lat.bottom:
            first.setdefault(s, a)
    witnesses = [first[m] for m in maxann]
    if all(ml.product[a][b] == lat.bottom
           for i, a in enumerate(witnesses) for b in witnesses[i + 1:]):
        report.add("finitely_many_maximal_annihilators", "pass",
                   f"count = {len(maxann)}")
    else:
        report.add("finitely_many_maximal_annihilators", "fail",
                   "witnesses of maximal annihilators are not a clique",
                   tuple([names[w] for w in witnesses]))

    # With a nonzero zero divisor, the maximal annihilators are minimal prime
    # elements and meet to 0, and every minimal prime is an annihilator.
    # A nonzero zero divisor exists iff some a != 0 has a* != 0.  If
    # a.b = 0 with a, b != 0, the stable power p <= a has p.b = 0, so
    # b <= a* and a* != 0.  Conversely a* != 0 gives some x != 0 with
    # p.x = 0, and p != 0 because a reduced lattice has no nonzero nilpotent.
    has_zero_divisor = any(s != lat.bottom for s in first)
    if not has_zero_divisor:
        report.add("zero_is_meet_of_minimal_primes", "pass",
                   "vacuous (no nonzero zero divisors)")
        report.add("minimal_primes_are_annihilators", "pass",
                   "vacuous (no nonzero zero divisors)")
        return report
    meet_ok = lat.meet_all(maxann) == lat.bottom if maxann else False
    if meet_ok and set(maxann) <= set(structure.minimal_prime_elements):
        report.add("zero_is_meet_of_minimal_primes", "pass")
    else:
        report.add("zero_is_meet_of_minimal_primes", "fail",
                   "maximal annihilators do not meet to 0 as minimal primes",
                   tuple([names[m] for m in maxann]))
    star_values = set(stars)
    missing = [p for p in structure.minimal_prime_elements
               if p not in star_values]
    if missing:
        report.add("minimal_primes_are_annihilators", "fail",
                   "a minimal prime element is not an annihilator",
                   (names[missing[0]],))
    else:
        report.add("minimal_primes_are_annihilators", "pass")
    return report
