"""Prime semi-ideals, prime ideals, and the theorem/lemma checking suite.

The prime structure has a closed form.  In a finite lattice the complement
of a prime semi-ideal is a filter, and every filter is principal, so the
prime semi-ideals are exactly the complements of the principal filters up(f)
for f != 0; the minimal ones are the complements of up(a) for the atoms a.
A finite down-set is an ideal exactly when it holds its own join, that is
when it is a principal down-set, so the prime ideals are the candidates that
equal some down(m).  Everything here is read off the ``up``/``down``
bitmasks in O(n^2) time, with no enumeration of down-sets.

The lemma suite re-checks, instance by instance, the statements that the
reduced theory guarantees.  A failing check on a reduced lattice is an
implementation bug, never an acceptable outcome; the suite therefore reports
failures with concrete witnesses instead of raising.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .lattice import ElementSubset, Lattice, zero_distributivity_witness
from .multiplication import (MultLattice, annihilator_map, is_prime_element,
                             is_reduced, maximal_annihilator_elements,
                             minimal_prime_elements)


def _candidate_masks(lat: Lattice) -> list[int]:
    """Masks of every prime semi-ideal, the complement of up(f) for each
    f != 0, ascending."""
    full = (1 << lat.n) - 1
    return sorted(full & ~lat.up[f] for f in range(lat.n) if f != lat.bottom)


def _minimal_masks(masks: list[int]) -> list[int]:
    """The inclusion-minimal masks, in their given order."""
    return [m for m in masks
            if not any(o != m and o & ~m == 0 for o in masks)]


def _minimal_subsets(lat: Lattice, masks: list[int]) -> list[ElementSubset]:
    return [ElementSubset(lat, m, is_minimal=True) for m in masks]


def prime_semi_ideals(lat: Lattice) -> list[ElementSubset]:
    """All prime semi-ideals (non-empty proper prime down-sets), sorted by
    member bitmask."""
    return [ElementSubset(lat, m) for m in _candidate_masks(lat)]


def minimal_prime_semi_ideals(lat: Lattice) -> list[ElementSubset]:
    """Inclusion-minimal prime semi-ideals, sorted by member bitmask: the
    complements of up(a) for the atoms a."""
    full = (1 << lat.n) - 1
    return _minimal_subsets(lat, sorted(full & ~lat.up[a] for a in lat.atoms()))


def minimal_prime_ideals(lat: Lattice) -> list[ElementSubset]:
    """Inclusion-minimal prime ideals, sorted by member bitmask.

    The prime ideals are the join-closed prime semi-ideals.  A finite
    down-set is join-closed exactly when it holds its own join, that is when
    it is a principal down-set down(m).
    """
    principal = set(lat.down)
    ideals = [m for m in _candidate_masks(lat) if m in principal]
    return _minimal_subsets(lat, _minimal_masks(ideals))


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

    Checks whose hypothesis (reducedness, presence of a nonzero zero divisor)
    is unmet are reported as skipped or vacuously passing rather than
    evaluated out of context.
    """
    lat = ml.lattice
    names = lat.names
    reduced = is_reduced(ml)
    if structure is None:
        structure = prime_structure(ml)
    report = LemmaReport()

    # Reduced lattices are 0-distributive.
    zd_witness = zero_distributivity_witness(lat)
    if reduced:
        if zd_witness is None:
            report.add("reduced_implies_zero_distributive", "pass")
        else:
            report.add("reduced_implies_zero_distributive", "fail",
                       "reduced lattice is not 0-distributive",
                       tuple([names[w] for w in zd_witness]))
    else:
        report.add("reduced_implies_zero_distributive", "skip",
                   "hypothesis unmet (not reduced); base lattice is "
                   f"0-distributive: {zd_witness is None}")

    # In a reduced lattice every minimal prime semi-ideal is an ideal, and the
    # minimal prime semi-ideal and minimal prime ideal families coincide.
    if not reduced:
        report.add("minimal_prime_semi_ideals_are_ideals", "skip",
                   "hypothesis unmet (not reduced)")
    else:
        semi = structure.minimal_prime_semi_ideals
        ideals = structure.minimal_prime_ideals
        bad = [d for d in semi if not d.is_ideal]
        if bad:
            report.add("minimal_prime_semi_ideals_are_ideals", "fail",
                       "a minimal prime semi-ideal is not join-closed",
                       bad[0].names)
        elif {d.mask for d in semi} != {d.mask for d in ideals}:
            report.add("minimal_prime_semi_ideals_are_ideals", "fail",
                       "semi-ideal and ideal families differ")
        else:
            report.add("minimal_prime_semi_ideals_are_ideals", "pass")

    stars = annihilator_map(ml)
    has_zero_divisor = any(
        ml.product[a][b] == lat.bottom
        for a in range(ml.n) if a != lat.bottom
        for b in range(ml.n) if b != lat.bottom)

    # Maximal annihilator elements are prime.
    if not reduced:
        report.add("maximal_annihilators_are_prime", "skip",
                   "hypothesis unmet (not reduced)")
    else:
        bad_m = [m for m in structure.maximal_annihilators
                 if not is_prime_element(ml, m)]
        if bad_m:
            report.add("maximal_annihilators_are_prime", "fail",
                       "a maximal annihilator element is not prime",
                       (names[bad_m[0]],))
        else:
            report.add("maximal_annihilators_are_prime", "pass",
                       f"{len(structure.maximal_annihilators)} maximal annihilator(s)")

    # Distinct prime annihilators multiply to zero.
    if not reduced:
        report.add("distinct_prime_annihilators_multiply_to_zero", "skip",
                   "hypothesis unmet (not reduced)")
    else:
        violation = None
        for x in range(ml.n):
            if not is_prime_element(ml, stars[x]):
                continue
            for y in range(x + 1, ml.n):
                if (stars[y] != stars[x] and is_prime_element(ml, stars[y])
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
    # clique in the zero-divisor graph.
    if not reduced:
        report.add("finitely_many_maximal_annihilators", "skip",
                   "hypothesis unmet (not reduced)")
    else:
        witnesses = []
        for m in structure.maximal_annihilators:
            for a in range(ml.n):
                if a != lat.bottom and stars[a] == m:
                    witnesses.append(a)
                    break
        pairwise_zero = all(
            ml.product[a][b] == lat.bottom
            for i, a in enumerate(witnesses) for b in witnesses[i + 1:])
        if pairwise_zero:
            report.add("finitely_many_maximal_annihilators", "pass",
                       f"count = {len(structure.maximal_annihilators)}")
        else:
            report.add("finitely_many_maximal_annihilators", "fail",
                       "witnesses of maximal annihilators are not a clique",
                       tuple([names[w] for w in witnesses]))

    # With a nonzero zero divisor, the maximal annihilators are minimal prime
    # elements and meet to 0.
    if not reduced:
        report.add("zero_is_meet_of_minimal_primes", "skip",
                   "hypothesis unmet (not reduced)")
        report.add("minimal_primes_are_annihilators", "skip",
                   "hypothesis unmet (not reduced)")
    elif not has_zero_divisor:
        report.add("zero_is_meet_of_minimal_primes", "pass",
                   "vacuous (no nonzero zero divisors)")
        report.add("minimal_primes_are_annihilators", "pass",
                   "vacuous (no nonzero zero divisors)")
    else:
        maxann = structure.maximal_annihilators
        mpe = set(structure.minimal_prime_elements)
        meet_ok = lat.meet_all(maxann) == lat.bottom if maxann else False
        all_minimal = set(maxann) <= mpe
        if meet_ok and all_minimal:
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
