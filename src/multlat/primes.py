"""Prime semi-ideals, prime ideals, and the theorem/lemma checking suite.

The prime structure has a closed form.  In a finite lattice the complement
of a prime semi-ideal is a filter, and every filter is principal, so the
prime semi-ideals are exactly the complements of the principal filters up(f)
for f != 0; the minimal ones are the complements of up(a) for the atoms a.
A finite down-set is an ideal exactly when it holds its own join, that is
when it is a principal down-set (``Lattice.is_ideal``), so the prime
ideals are the down(m) whose complement is some up(f), one set lookup per
element, and the inclusion-minimal ones are down(m) for the <=-minimal such
m (``Lattice.minimal``).  Everything here is read off the ``up``/``down``
bitmasks, with no enumeration of down-sets, and each family is a sorted
list of the bitmasks of its members.

The lemma suite re-checks, instance by instance, the statements that the
reduced theory guarantees, declared once in ``LEMMA_IDS``, and returns a
tuple of one ``LemmaCheck`` per id in that order; ``analyze`` keeps only
each status.  A failing check on a reduced lattice is an implementation bug,
never an acceptable outcome; the suite reports it with a concrete witness
instead of raising.  A lattice that is not reduced gets its skip lines and
nothing more is computed.  Otherwise the suite reads 0-distributivity, the
annihilators and the prime elements from the caches on the ``Lattice`` and
``MultLattice``, which ``analyze`` shares.  No check scans the n^2
products: the annihilators are grouped by value in one pass, and the
elements that an element does not multiply to 0 are read off its
join-irreducible columns.
"""
from __future__ import annotations

from dataclasses import dataclass

from .lattice import Lattice, _bits, _leaves_ideal, zero_distributivity_witness
from .multiplication import (MultLattice, annihilator_map, is_reduced,
                             maximal_annihilator_elements,
                             minimal_prime_elements, prime_elements)


def minimal_prime_semi_ideals(lat: Lattice) -> list[int]:
    """The member bitmasks of the inclusion-minimal prime semi-ideals,
    sorted: the complements of up(a) for the atoms a."""
    full = (1 << lat.n) - 1
    return sorted(full & ~lat.up[a] for a in lat.atoms())


def minimal_prime_ideals(lat: Lattice) -> list[int]:
    """The member bitmasks of the inclusion-minimal prime ideals, sorted.

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
    return sorted(lat.down[t] for t in lat.minimal(tops))


@dataclass
class PrimeStructure:
    """Everything the counting theorems talk about, for one instance.

    The semi-ideal and ideal lists hold the member bitmasks of the
    inclusion-minimal prime semi-ideals and prime ideals, sorted; the element
    lists hold indices in ascending order.
    """

    minimal_prime_semi_ideals: list[int]
    minimal_prime_ideals: list[int]
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


#: The checks of the lemma suite, in report order.  The fifth holds in
#: every finite lattice; the others assume the lattice reduced.
LEMMA_IDS = ("reduced_implies_zero_distributive",
             "minimal_prime_semi_ideals_are_ideals",
             "maximal_annihilators_are_prime",
             "distinct_prime_annihilators_multiply_to_zero",
             "annihilator_chains_stabilize",
             "finitely_many_maximal_annihilators",
             "zero_is_meet_of_minimal_primes",
             "minimal_primes_are_annihilators")

# Ascending chains of annihilators stabilize in every finite lattice.
_FINITE = ("pass", "trivial (finite)", None)


def _report(lines: list[tuple]) -> tuple[LemmaCheck, ...]:
    """One check per id of ``LEMMA_IDS``, in order, from its (status,
    detail, witness) line."""
    return tuple([LemmaCheck(check_id, *line)
                  for check_id, line in zip(LEMMA_IDS, lines, strict=True)])


def check_lemma_suite(ml: MultLattice,
                      structure: PrimeStructure | None = None
                      ) -> tuple[LemmaCheck, ...]:
    """Run every instance-checkable statement of the reduced theory: one
    ``LemmaCheck`` per id of ``LEMMA_IDS``, in that order.

    Reducedness is tested once.  On a lattice that is not reduced every
    statement that assumes it is reported as skipped, and nothing else is
    computed: not the annihilators, the primes or ``structure``.  On a
    reduced lattice each statement is evaluated; the two whose hypothesis
    also needs a nonzero zero divisor pass vacuously without one.
    """
    lat = ml.lattice
    names = lat.names
    zd_witness = zero_distributivity_witness(lat)

    if not is_reduced(ml):
        unmet = "hypothesis unmet (not reduced)"
        skip = ("skip", unmet, None)
        return _report([("skip", f"{unmet}; base lattice is 0-distributive: "
                                 f"{zd_witness is None}", None),
                        skip, skip, skip, _FINITE, skip, skip, skip])

    if structure is None:
        structure = prime_structure(ml)
    stars = annihilator_map(ml)
    primes = set(prime_elements(ml))
    maxann = structure.maximal_annihilators
    lines: list[tuple] = []

    def verdict(holds: bool, failure: str, witness=None, passed: str = "") -> None:
        """A pass line with detail ``passed``, or a fail line with detail
        ``failure`` naming the elements of ``witness``, if it is not None."""
        if holds:
            lines.append(("pass", passed, None))
        else:
            lines.append(("fail", failure, None if witness is None
                          else tuple([names[w] for w in witness])))

    # Reduced lattices are 0-distributive.
    verdict(zd_witness is None, "reduced lattice is not 0-distributive",
            zd_witness)

    # Every minimal prime semi-ideal is an ideal, and the minimal prime
    # semi-ideal and minimal prime ideal families coincide.
    semi = structure.minimal_prime_semi_ideals
    bad = [d for d in semi if not lat.is_ideal(d)]
    if bad:
        verdict(False, "a minimal prime semi-ideal is not join-closed",
                _bits(bad[0]))
    else:
        verdict(set(semi) == set(structure.minimal_prime_ideals),
                "semi-ideal and ideal families differ")

    # Maximal annihilator elements are prime.
    bad_m = [m for m in maxann if m not in primes]
    verdict(not bad_m, "a maximal annihilator element is not prime",
            bad_m[:1], f"{len(maxann)} maximal annihilator(s)")

    # Distinct prime annihilators multiply to zero.  same[s] is the mask of
    # the elements whose annihilator is s.  For x with a prime annihilator,
    # the y with another prime one and x.y != 0 are one mask, the last part
    # read off the J columns of x's row.  As x.y = y.x (M1), a partner below
    # x was found at that partner: the first bit found is the first pair.
    same: dict[int, int] = {}
    for a, s in enumerate(stars):
        same[s] = same.get(s, 0) | 1 << a
    prime_stars = sum(same[s] for s in primes & same.keys())  # disjoint masks
    zero = lat.down[lat.bottom]
    violation = None
    for x in _bits(prime_stars):
        ys = prime_stars & ~same[stars[x]] & _leaves_ideal(lat, ml.product[x], zero)
        if ys:
            violation = (x, next(_bits(ys)))
            break
    verdict(violation is None, "elements with distinct prime annihilators "
            "have a nonzero product", violation)

    lines.append(_FINITE)

    # The set of maximal annihilators is finite and its witnesses, the first
    # nonzero element with each, form a clique in the zero-divisor graph.
    nonzero = ((1 << lat.n) - 1) & ~zero
    witnesses = [next(_bits(same[m] & nonzero)) for m in maxann]
    verdict(all(ml.product[a][b] == lat.bottom
                for i, a in enumerate(witnesses) for b in witnesses[i + 1:]),
            "witnesses of maximal annihilators are not a clique", witnesses,
            f"count = {len(maxann)}")

    # With a nonzero zero divisor, the maximal annihilators are minimal prime
    # elements and meet to 0, and every minimal prime is an annihilator.
    # A nonzero zero divisor exists iff some a != 0 has a* != 0.  If
    # a.b = 0 with a, b != 0, the stable power p <= a has p.b = 0, so
    # b <= a* and a* != 0.  Conversely a* != 0 gives some x != 0 with
    # p.x = 0, and p != 0 because a reduced lattice has no nonzero nilpotent.
    if not nonzero & ~same.get(lat.bottom, 0):
        vacuous = ("pass", "vacuous (no nonzero zero divisors)", None)
        return _report(lines + [vacuous, vacuous])
    verdict(bool(maxann) and lat.meet_all(maxann) == lat.bottom
            and set(maxann) <= set(structure.minimal_prime_elements),
            "maximal annihilators do not meet to 0 as minimal primes", maxann)
    missing = [p for p in structure.minimal_prime_elements if p not in same]
    verdict(not missing, "a minimal prime element is not an annihilator",
            missing[:1])
    return _report(lines)
